"""repro — reproduction of "A Cognition Assessment Authoring System for
E-Learning" (Hung et al., 2004), grown into a production-scale system.

This module is the **public API facade**: the canonical entrypoints of
every layer re-exported at the top, lazily (PEP 562), so ``import
repro`` costs microseconds and pulls in only what you touch.  The deep
module paths remain importable — the facade is the stable surface,
``docs/api.md`` maps one to the other.

The library's layers:

* :mod:`repro.core` — the paper's contribution: the MINE SCORM
  assessment metadata model (§3) and the analysis model (§4) with its
  columnar fast path;
* :mod:`repro.items`, :mod:`repro.exams`, :mod:`repro.bank` — the
  authoring system (§5);
* :mod:`repro.scorm`, :mod:`repro.lms`, :mod:`repro.delivery` — the
  SCORM/LMS substrate with the on-line exam monitor;
* :mod:`repro.server` — the HTTP exam-delivery and analysis service
  over the LMS, with its load-generation client
  (``mine-assess serve`` / ``mine-assess loadgen``);
* :mod:`repro.store` — the durable event journal under the LMS:
  write-ahead logging, crash recovery, and checkpoint compaction
  (``mine-assess serve --wal-dir`` / ``mine-assess recover``);
* :mod:`repro.cluster` — the sharded multi-process delivery tier:
  consistent-hash learner placement, worker supervision, and
  scatter-gather analytics (``mine-assess serve --workers N``);
* :mod:`repro.readmodel` — the CQRS read side: a journal-fed analytics
  fold with checkpoints and time-travel queries, served from
  ``GET /admin/analytics/...`` (``mine-assess serve --readmodel`` /
  ``mine-assess analytics``);
* :mod:`repro.sim`, :mod:`repro.adaptive`, :mod:`repro.baselines` —
  simulated cohorts (scalar, vectorized, and sharded engines),
  adaptive testing, and classical baselines;
* :mod:`repro.obs` — spans, counters, and pluggable sinks threaded
  through all of the above (``--profile`` on the CLI).

Quickstart::

    import repro

    exam = repro.author("quiz-1", "Quiz 1").add_item(...).build()
    data = repro.simulate_sitting_data(exam, params, learners)
    result = repro.analyze_cohort(data.responses, data.specs)
    print(result.questions[0].advice.render())
"""

from typing import TYPE_CHECKING

__version__ = "1.7.0"

#: facade name -> (module, attribute); ``None`` attribute re-exports the
#: module itself.  Everything here is importable as ``repro.<name>``.
_EXPORTS = {
    # authoring
    "Exam": ("repro.exams.exam", "Exam"),
    "ExamBuilder": ("repro.exams.authoring", "ExamBuilder"),
    "author": ("repro.exams.authoring", "ExamBuilder"),
    "MultipleChoiceItem": ("repro.items.choice", "MultipleChoiceItem"),
    # analysis (§4.1)
    "analyze_cohort": ("repro.core.question_analysis", "analyze_cohort"),
    "ExamineeResponses": ("repro.core.question_analysis", "ExamineeResponses"),
    "QuestionSpec": ("repro.core.question_analysis", "QuestionSpec"),
    "CohortAnalysis": ("repro.core.question_analysis", "CohortAnalysis"),
    "GroupSplit": ("repro.core.grouping", "GroupSplit"),
    "LiveCohortAnalysis": ("repro.core.columnar", "LiveCohortAnalysis"),
    "ResponseMatrix": ("repro.core.columnar", "ResponseMatrix"),
    "build_report": ("repro.core.report", "build_report"),
    "AssessmentReport": ("repro.core.report", "AssessmentReport"),
    # simulation
    "simulate_sitting_data": ("repro.sim.workloads", "simulate_sitting_data"),
    "simulate_sharded": ("repro.sim.vectorized", "simulate_sharded"),
    "classroom_exam": ("repro.sim.workloads", "classroom_exam"),
    "classroom_parameters": ("repro.sim.workloads", "classroom_parameters"),
    "pre_post_cohorts": ("repro.sim.workloads", "pre_post_cohorts"),
    "make_population": ("repro.sim.population", "make_population"),
    "ItemParameters": ("repro.sim.learner_model", "ItemParameters"),
    # adaptive testing (online CAT + the calibration loop)
    "AdaptivePolicy": ("repro.adaptive.online", "AdaptivePolicy"),
    "AdaptiveSession": ("repro.adaptive.online", "AdaptiveSession"),
    "ItemInformationTable": (
        "repro.adaptive.online", "ItemInformationTable"
    ),
    "select_next_item": ("repro.adaptive.cat", "select_next_item"),
    "calibrate_2pl": ("repro.adaptive.item_calibration", "calibrate_2pl"),
    "classroom_adaptive_exam": (
        "repro.sim.workloads", "classroom_adaptive_exam"
    ),
    "simulate_adaptive_cohort": (
        "repro.sim.adaptive_cohort", "simulate_adaptive_cohort"
    ),
    # LMS / delivery
    "Lms": ("repro.lms.lms", "Lms"),
    "Learner": ("repro.lms.learners", "Learner"),
    "ExamMonitor": ("repro.lms.monitor", "ExamMonitor"),
    "save_lms": ("repro.lms.persistence", "save_lms"),
    "load_lms": ("repro.lms.persistence", "load_lms"),
    # HTTP serving
    "ExamServer": ("repro.server.app", "ExamServer"),
    "run_loadgen": ("repro.server.loadgen", "run_loadgen"),
    "LoadgenReport": ("repro.server.loadgen", "LoadgenReport"),
    # sharded delivery (the multi-process cluster)
    "ExamCluster": ("repro.cluster.supervisor", "ExamCluster"),
    "HashRing": ("repro.cluster.ring", "HashRing"),
    # durability (the write-ahead journal)
    "Journal": ("repro.store.journal", "Journal"),
    "recover": ("repro.store.recovery", "recover"),
    "state_fingerprint": ("repro.store.recovery", "state_fingerprint"),
    "Checkpointer": ("repro.store.checkpoint", "Checkpointer"),
    "JournalTailer": ("repro.store.tail", "JournalTailer"),
    # analytics read models (the CQRS read side)
    "ReadModel": ("repro.readmodel.model", "ReadModel"),
    "ReadModelService": ("repro.readmodel.service", "ReadModelService"),
    "readmodel": ("repro.readmodel", None),
    # SCORM packaging
    "package_exam": ("repro.scorm.package", "package_exam"),
    "build_package": ("repro.scorm.package", "package_exam"),
    "ContentPackage": ("repro.scorm.package", "ContentPackage"),
    "extract_exam": ("repro.scorm.package", "extract_exam"),
    # observability
    "obs": ("repro.obs", None),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def _lazy_exports(namespace, exports):
    """A facade's PEP 562 ``__getattr__`` and ``__dir__``.

    ``namespace`` is the facade's ``globals()``; ``exports`` maps a name
    to ``(module, attribute)``, where a ``None`` attribute re-exports
    the module itself.  A name is imported on first use and cached in
    ``namespace``, so the next access skips ``__getattr__``.  It lives
    here, not in a submodule, so that ``import repro`` loads no other
    ``repro`` module.
    """

    def __getattr__(name):
        try:
            module_name, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        import importlib

        module = importlib.import_module(module_name)
        value = module if attribute is None else getattr(module, attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)


if TYPE_CHECKING:  # pragma: no cover - static-analysis eyes only
    from repro import obs  # noqa: F401
    from repro.adaptive.cat import select_next_item  # noqa: F401
    from repro.adaptive.item_calibration import calibrate_2pl  # noqa: F401
    from repro.adaptive.online import (  # noqa: F401
        AdaptivePolicy,
        AdaptiveSession,
        ItemInformationTable,
    )
    from repro.sim.adaptive_cohort import (  # noqa: F401
        simulate_adaptive_cohort,
    )
    from repro.core.columnar import (  # noqa: F401
        LiveCohortAnalysis,
        ResponseMatrix,
    )
    from repro.cluster.ring import HashRing  # noqa: F401
    from repro.cluster.supervisor import ExamCluster  # noqa: F401
    from repro.core.grouping import GroupSplit  # noqa: F401
    from repro.core.question_analysis import (  # noqa: F401
        CohortAnalysis,
        ExamineeResponses,
        QuestionSpec,
        analyze_cohort,
    )
    from repro.core.report import AssessmentReport, build_report  # noqa: F401
    from repro.exams.authoring import ExamBuilder  # noqa: F401
    from repro.exams.authoring import ExamBuilder as author  # noqa: F401
    from repro.exams.exam import Exam  # noqa: F401
    from repro.items.choice import MultipleChoiceItem  # noqa: F401
    from repro.lms.learners import Learner  # noqa: F401
    from repro.lms.lms import Lms  # noqa: F401
    from repro.lms.monitor import ExamMonitor  # noqa: F401
    from repro.lms.persistence import load_lms, save_lms  # noqa: F401
    from repro.server.app import ExamServer  # noqa: F401
    from repro.server.loadgen import LoadgenReport, run_loadgen  # noqa: F401
    from repro import readmodel  # noqa: F401
    from repro.readmodel.model import ReadModel  # noqa: F401
    from repro.readmodel.service import ReadModelService  # noqa: F401
    from repro.store.checkpoint import Checkpointer  # noqa: F401
    from repro.store.journal import Journal  # noqa: F401
    from repro.store.tail import JournalTailer  # noqa: F401
    from repro.store.recovery import recover, state_fingerprint  # noqa: F401
    from repro.scorm.package import ContentPackage  # noqa: F401
    from repro.scorm.package import extract_exam  # noqa: F401
    from repro.scorm.package import package_exam  # noqa: F401
    from repro.scorm.package import package_exam as build_package  # noqa: F401
    from repro.sim.learner_model import ItemParameters  # noqa: F401
    from repro.sim.population import make_population  # noqa: F401
    from repro.sim.vectorized import simulate_sharded  # noqa: F401
    from repro.sim.workloads import (  # noqa: F401
        classroom_adaptive_exam,
        classroom_exam,
        classroom_parameters,
        pre_post_cohorts,
        simulate_sitting_data,
    )
