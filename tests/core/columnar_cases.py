"""Shared cohort generators for the columnar-engine test suites.

The differential, property, and golden suites all need randomized but
reproducible cohorts with controllable shape: size, option count, skip
rate, and tie-heaviness (many examinees on few distinct scores, which
stresses the stable tie-breaking of the high/low split).

They also run the engine on each kernel set by name rather than by
cohort size (:func:`kernel_set`, :func:`on_each_kernel_set`), so the
numpy kernels are checked on small cohorts and the stdlib ones on large.
"""

import random
import string
import sys
from contextlib import contextmanager
from typing import List, Optional, Tuple

from repro.core import kernels
from repro.core.question_analysis import ExamineeResponses, QuestionSpec

OPTION_ALPHABET = string.ascii_uppercase


def make_specs(
    rng: random.Random, questions: int, option_count: int
) -> List[QuestionSpec]:
    """Question specs with ``option_count`` labeled options each."""
    options = tuple(OPTION_ALPHABET[:option_count])
    return [
        QuestionSpec(options=options, correct=rng.choice(options))
        for _ in range(questions)
    ]


def make_random_cohort(
    seed: int,
    size: int,
    questions: int,
    option_count: int = 4,
    skip_rate: float = 0.0,
    tie_heavy: bool = False,
) -> Tuple[List[ExamineeResponses], List[QuestionSpec]]:
    """A seeded random cohort.

    ``tie_heavy`` quantizes ability to three levels so scores pile up on
    few distinct values and the 25% boundary lands inside a tie run.
    ``skip_rate`` is the per-cell probability of a ``None`` selection.
    """
    rng = random.Random(seed)
    specs = make_specs(rng, questions, option_count)
    responses = []
    for index in range(size):
        if tie_heavy:
            p_correct = rng.choice((0.2, 0.5, 0.8))
        else:
            p_correct = min(0.95, max(0.05, rng.gauss(0.5, 0.25)))
        selections: List[Optional[str]] = []
        for spec in specs:
            if skip_rate and rng.random() < skip_rate:
                selections.append(None)
            elif rng.random() < p_correct:
                selections.append(spec.correct)
            else:
                selections.append(rng.choice(spec.options))
        responses.append(ExamineeResponses.of(f"s{index:05d}", selections))
    return responses, specs


#: kernel set -> the crossover that makes every call run on it (where
#: numpy is missing, "numpy" runs the stdlib set, as serving would)
KERNEL_SETS = {"stdlib": sys.maxsize, "numpy": 0}


@contextmanager
def kernel_set(name):
    """Run the columnar engine on kernel set ``name`` at any cohort size."""
    saved = kernels.NUMPY_CROSSOVER_CELLS
    kernels.NUMPY_CROSSOVER_CELLS = KERNEL_SETS[name]
    try:
        yield
    finally:
        kernels.NUMPY_CROSSOVER_CELLS = saved


def on_each_kernel_set(run):
    """``run()`` once per kernel set; the results must be equal, and the
    one result is returned."""
    results = []
    for name in KERNEL_SETS:
        with kernel_set(name):
            results.append(run())
    assert results[0] == results[1]
    return results[0]
