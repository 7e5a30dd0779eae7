"""``repro.readmodel`` — the journal-fed analytics read-model tier (CQRS).

The write path (:mod:`repro.lms` + :mod:`repro.store`) journals every
mutation; this package is the read path: it tails the WAL, folds events
into incrementally maintained aggregates, and answers the analytical
questions the serving tier should never compute from scratch (see
``docs/readmodel.md``):

* :class:`ReadModel` / :class:`ExamReadModel` — the deterministic fold:
  rolling psychometrics (a live cohort matrix bit-identical to the
  serving engine's), score distributions, Bloom-level blueprint
  rollups, and specification-table aggregates;
* :mod:`repro.readmodel.checkpoint` — ``readmodel-<lsn>.json``
  snapshots, :func:`rebuild` (the full-journal differential oracle),
  and :func:`as_of` time-travel queries;
* :class:`ReadModelService` — the in-process follower thread behind
  ``GET /admin/analytics/...`` and the ``serve --readmodel`` flag.

Resolution is lazy (PEP 562), matching the other subsystem facades.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

_EXPORTS = {
    "ReadModel": ("repro.readmodel.model", "ReadModel"),
    "ExamReadModel": ("repro.readmodel.model", "ExamReadModel"),
    "merge_summaries": ("repro.readmodel.model", "merge_summaries"),
    "SNAPSHOT_FORMAT": ("repro.readmodel.model", "SNAPSHOT_FORMAT"),
    "readmodel_files": ("repro.readmodel.checkpoint", "readmodel_files"),
    "latest_readmodel_checkpoint": (
        "repro.readmodel.checkpoint",
        "latest_readmodel_checkpoint",
    ),
    "save_readmodel": ("repro.readmodel.checkpoint", "save_readmodel"),
    "load_readmodel": ("repro.readmodel.checkpoint", "load_readmodel"),
    "rebuild": ("repro.readmodel.checkpoint", "rebuild"),
    "as_of": ("repro.readmodel.checkpoint", "as_of"),
    "ReadModelService": ("repro.readmodel.service", "ReadModelService"),
}

__all__ = sorted(_EXPORTS)


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)


if TYPE_CHECKING:  # pragma: no cover - static-analysis eyes only
    from repro.readmodel.checkpoint import (  # noqa: F401
        as_of,
        latest_readmodel_checkpoint,
        load_readmodel,
        readmodel_files,
        rebuild,
        save_readmodel,
    )
    from repro.readmodel.model import (  # noqa: F401
        SNAPSHOT_FORMAT,
        ExamReadModel,
        ReadModel,
        merge_summaries,
    )
    from repro.readmodel.service import ReadModelService  # noqa: F401
