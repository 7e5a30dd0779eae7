"""Simulated learners, populations, response times, and workloads — the
synthetic substitute for the paper's real student cohorts (see DESIGN.md
substitution table).

The names below load on first access (PEP 562), so importing one
submodule — :mod:`repro.adaptive.irt` takes :mod:`repro.sim.learner_model`,
the load generator :mod:`repro.sim.workloads` — does not pull in the
numpy batch engines, :mod:`repro.sim.vectorized` and
:mod:`repro.sim.adaptive_cohort`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

#: name -> the submodule that defines it
_EXPORTS = {
    "AdaptiveCohortData": "repro.sim.adaptive_cohort",
    "simulate_adaptive_cohort": "repro.sim.adaptive_cohort",
    "SimShard": "repro.sim.vectorized",
    "VectorizedSittingData": "repro.sim.vectorized",
    "simulate_sharded": "repro.sim.vectorized",
    "simulate_sitting_arrays": "repro.sim.vectorized",
    "ItemParameters": "repro.sim.learner_model",
    "SimulatedLearner": "repro.sim.learner_model",
    "probability_correct": "repro.sim.learner_model",
    "sample_selection": "repro.sim.learner_model",
    "make_population": "repro.sim.population",
    "ability_grid": "repro.sim.population",
    "sample_item_time": "repro.sim.response_time",
    "cumulative_answer_times": "repro.sim.response_time",
    "SimulatedSittingData": "repro.sim.workloads",
    "simulate_sitting_data": "repro.sim.workloads",
    "classroom_exam": "repro.sim.workloads",
    "classroom_adaptive_exam": "repro.sim.workloads",
    "classroom_parameters": "repro.sim.workloads",
    "pre_post_cohorts": "repro.sim.workloads",
}

__all__ = list(_EXPORTS)


__getattr__, __dir__ = _lazy_exports(
    globals(), {name: (module, name) for name, module in _EXPORTS.items()}
)


if TYPE_CHECKING:  # pragma: no cover - static-analysis eyes only
    from repro.sim.adaptive_cohort import (  # noqa: F401
        AdaptiveCohortData,
        simulate_adaptive_cohort,
    )
    from repro.sim.learner_model import (  # noqa: F401
        ItemParameters,
        SimulatedLearner,
        probability_correct,
        sample_selection,
    )
    from repro.sim.population import ability_grid, make_population  # noqa: F401
    from repro.sim.response_time import (  # noqa: F401
        cumulative_answer_times,
        sample_item_time,
    )
    from repro.sim.vectorized import (  # noqa: F401
        SimShard,
        VectorizedSittingData,
        simulate_sharded,
        simulate_sitting_arrays,
    )
    from repro.sim.workloads import (  # noqa: F401
        SimulatedSittingData,
        classroom_adaptive_exam,
        classroom_exam,
        classroom_parameters,
        pre_post_cohorts,
        simulate_sitting_data,
    )
