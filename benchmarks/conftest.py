"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md §4): it prints the regenerated rows/series, asserts the *shape*
the paper reports (who wins, which rules fire, which signals light), and
times the underlying computation with pytest-benchmark.

Run everything with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core.grouping import GroupSplit
from repro.sim.population import make_population
from repro.sim.workloads import (
    classroom_exam,
    classroom_parameters,
    simulate_sitting_data,
)

#: One shared classroom administration: 200 simulated students, the
#: 10-question engineered exam.  Session-scoped so the expensive
#: simulation runs once per benchmark session.
@pytest.fixture(scope="session")
def classroom():
    exam = classroom_exam()
    parameters = classroom_parameters()
    learners = make_population(200, seed=11)
    data = simulate_sitting_data(exam, parameters, learners, seed=12)
    return exam, parameters, data


@pytest.fixture(scope="session")
def classroom_analysis(classroom):
    _, _, data = classroom
    # routed through analyze_cohort, the production analysis
    return data.analyze(split=GroupSplit())


def show(title: str, body: str) -> None:
    """Print a regenerated artifact under a banner (visible with -s)."""
    print(f"\n===== {title} =====")
    print(body)
