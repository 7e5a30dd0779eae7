"""The adaptive-testing and feedback extension — the paper's stated
future work ("we will add the adaptive test algorithm and assessment
feedback"), built on IRT."""

from repro.adaptive.calibration import (
    calibrate_pool_from_bank,
    difficulty_to_b,
    discrimination_to_a,
)
from repro.adaptive.cat import select_next_item
from repro.adaptive.estimation import (
    estimate_ability_eap,
    estimate_ability_map,
)
from repro.adaptive.item_calibration import CalibrationResult, calibrate_2pl
from repro.adaptive.individualized import (
    assemble_individualized_exam,
    select_individualized_items,
)
from repro.adaptive.feedback import (
    ConceptMastery,
    LearnerFeedback,
    build_feedback,
)
from repro.adaptive.irt import (
    ItemParameters,
    item_information,
    probability_correct,
    test_information,
)
from repro.adaptive.online import (
    AdaptivePolicy,
    AdaptiveSession,
    ItemInformationTable,
    collect_calibration_matrix,
    latest_calibration_snapshot,
    list_calibration_snapshots,
    write_calibration_snapshot,
)

__all__ = [
    "AdaptivePolicy",
    "AdaptiveSession",
    "ItemInformationTable",
    "collect_calibration_matrix",
    "write_calibration_snapshot",
    "latest_calibration_snapshot",
    "list_calibration_snapshots",
    "difficulty_to_b",
    "discrimination_to_a",
    "calibrate_pool_from_bank",
    "select_individualized_items",
    "assemble_individualized_exam",
    "calibrate_2pl",
    "CalibrationResult",
    "ItemParameters",
    "probability_correct",
    "item_information",
    "test_information",
    "estimate_ability_map",
    "estimate_ability_eap",
    "select_next_item",
    "ConceptMastery",
    "LearnerFeedback",
    "build_feedback",
]
