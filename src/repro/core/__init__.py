"""Core of the reproduction: the MINE assessment metadata model and the
analysis model (paper §3 and §4).

Import the commonly used names directly from this package::

    from repro.core import (
        CognitionLevel, MineMetadata, OptionMatrix, evaluate_rules,
        SignalPolicy, analyze_cohort, SpecificationTable,
    )
"""

from repro.core.advice import Advice, advise
from repro.core.cognition import COGNITIVE_LEVELS, CognitionLevel, Domain
from repro.core.columnar import LiveCohortAnalysis, ResponseMatrix
from repro.core.errors import (
    AnalysisError,
    AssessmentError,
    EmptyCohortError,
    GroupSplitError,
    MetadataError,
    MetadataValidationError,
)
from repro.core.exam_analysis import (
    ScoreDifficultyAnalysis,
    TimeAnalysis,
    average_time,
    score_vs_difficulty,
    time_limit_adequacy,
    time_vs_answered,
)
from repro.core.grouping import (
    ACCEPTABLE_RANGE,
    KELLY_OPTIMUM,
    PAPER_FRACTION,
    GroupSplit,
    split_by_score,
)
from repro.core.indices import (
    DistractionReport,
    difficulty_index,
    discrimination_index,
    distraction_analysis,
    instructional_sensitivity_index,
    split_difficulty_index,
)
from repro.core.metadata import (
    AssessmentRecord,
    AssessmentSection,
    DisplayType,
    ExamMetadata,
    IndividualTestMetadata,
    MineMetadata,
    QuestionStyle,
    QuestionnaireMetadata,
)
from repro.core.metadata_xml import from_xml, to_xml
from repro.core.questionnaire_analysis import (
    QuestionnaireSummary,
    tabulate_questionnaire,
)
from repro.core.reliability import (
    cronbach_alpha,
    kr20,
    split_half_reliability,
    standard_error_of_measurement,
)
from repro.core.question_analysis import (
    CohortAnalysis,
    ExamineeResponses,
    QuestionAnalysis,
    QuestionSpec,
    analyze_cohort,
    analyze_matrix,
    number_representation_rows,
    render_number_representation,
)
from repro.core.concept_mastery import ConceptPerformance, concept_performance
from repro.core.export import (
    number_representation_csv,
    report_to_dict,
    report_to_json,
)
from repro.core.report import AssessmentReport, build_report
from repro.core.rules import (
    OptionMatrix,
    RuleMatch,
    RuleOutcome,
    Status,
    evaluate_rules,
)
from repro.core.significance import (
    TestResult,
    discrimination_significance,
    isi_significance,
    proportion_confidence_interval,
)
from repro.core.signals import (
    DEFAULT_POLICY,
    Signal,
    SignalPolicy,
    render_signal_board,
)
from repro.core.spec_table import SpecificationTable, TaggedQuestion

__all__ = [
    # cognition
    "CognitionLevel",
    "Domain",
    "COGNITIVE_LEVELS",
    # metadata
    "MineMetadata",
    "AssessmentSection",
    "AssessmentRecord",
    "IndividualTestMetadata",
    "ExamMetadata",
    "QuestionnaireMetadata",
    "QuestionStyle",
    "DisplayType",
    "to_xml",
    "from_xml",
    # indices
    "difficulty_index",
    "split_difficulty_index",
    "discrimination_index",
    "instructional_sensitivity_index",
    "distraction_analysis",
    "DistractionReport",
    # grouping
    "GroupSplit",
    "split_by_score",
    "KELLY_OPTIMUM",
    "ACCEPTABLE_RANGE",
    "PAPER_FRACTION",
    # rules & signals
    "OptionMatrix",
    "evaluate_rules",
    "RuleOutcome",
    "RuleMatch",
    "Status",
    "Signal",
    "SignalPolicy",
    "DEFAULT_POLICY",
    "render_signal_board",
    # question analysis
    "ExamineeResponses",
    "QuestionSpec",
    "QuestionAnalysis",
    "CohortAnalysis",
    "analyze_cohort",
    "analyze_matrix",
    "number_representation_rows",
    "render_number_representation",
    # columnar engine
    "ResponseMatrix",
    "LiveCohortAnalysis",
    # exam analysis
    "TimeAnalysis",
    "time_vs_answered",
    "ScoreDifficultyAnalysis",
    "score_vs_difficulty",
    "average_time",
    "time_limit_adequacy",
    # spec table
    "SpecificationTable",
    "TaggedQuestion",
    # reliability
    "kr20",
    "cronbach_alpha",
    "standard_error_of_measurement",
    "split_half_reliability",
    # significance
    "TestResult",
    "discrimination_significance",
    "isi_significance",
    "proportion_confidence_interval",
    # concept performance
    "ConceptPerformance",
    "concept_performance",
    # questionnaires
    "QuestionnaireSummary",
    "tabulate_questionnaire",
    # reports
    "AssessmentReport",
    "build_report",
    "report_to_dict",
    "report_to_json",
    "number_representation_csv",
    # advice
    "Advice",
    "advise",
    # errors
    "AssessmentError",
    "AnalysisError",
    "EmptyCohortError",
    "GroupSplitError",
    "MetadataError",
    "MetadataValidationError",
]
