"""The SCORM run-time environment and launch mechanism (paper §2.4).

"In the Run-Time Environment, there are data model, SCO, Asset, API,
Launch mechanism and LMS."

:class:`RunTimeEnvironment` owns the launch mechanism: it creates one
:class:`~repro.scorm.api.ApiAdapter` per (learner, SCO) attempt, seeds the
CMI data model from the learner's stored state (so a suspended attempt
resumes with ``cmi.core.entry == "resume"`` and its suspend data), and
persists committed snapshots back into its attempt store.  The LMS
(:mod:`repro.lms`) holds one RTE and reads tracking data out of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DeliveryError
from repro.scorm.api import ApiAdapter, ApiState
from repro.scorm.datamodel import CmiDataModel

__all__ = ["AttemptRecord", "RunTimeEnvironment"]

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


@dataclass
class AttemptRecord:
    """Persisted state of one learner's attempts on one SCO.

    The last committed data-model snapshot is kept as compact JSON text
    (``snapshot_json``), about a fifth of the size of the nested dicts
    it encodes; :attr:`last_snapshot` decodes a fresh dict on every
    read, so callers may mutate what they get.
    """

    learner_id: str
    sco_id: str
    attempts: int = 0
    commits: int = 0
    suspended: bool = False
    snapshot_json: Optional[str] = None

    @property
    def last_snapshot(self) -> Optional[Dict[str, object]]:
        """The last committed snapshot (None before the first commit)."""
        if self.snapshot_json is None:
            return None
        return json.loads(self.snapshot_json)

    @property
    def lesson_status(self) -> str:
        """The last committed cmi.core.lesson_status ("not attempted" if none)."""
        snapshot = self.last_snapshot
        if snapshot is None:
            return "not attempted"
        core = snapshot.get("core", {})
        return str(core.get("lesson_status", "not attempted"))

    @property
    def score_raw(self) -> Optional[float]:
        """The last committed cmi.core.score.raw, as a float when present."""
        snapshot = self.last_snapshot
        if snapshot is None:
            return None
        core = snapshot.get("core", {})
        raw = core.get("score.raw", "")
        try:
            return float(raw) if raw != "" else None
        except (TypeError, ValueError):
            return None


class RunTimeEnvironment:
    """Launch mechanism + attempt store for SCOs.

    The store keeps one :class:`AttemptRecord` per (learner, SCO).  A
    running attempt's adapter owns its live data model; once the SCO
    calls ``LMSFinish`` the adapter drops it, and the record's committed
    snapshot is the only copy left.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], AttemptRecord] = {}
        self._active: Dict[Tuple[str, str], ApiAdapter] = {}

    def record(self, learner_id: str, sco_id: str) -> AttemptRecord:
        """The attempt record (created empty on first access)."""
        key = (learner_id, sco_id)
        if key not in self._records:
            self._records[key] = AttemptRecord(
                learner_id=learner_id, sco_id=sco_id
            )
        return self._records[key]

    def launch(
        self,
        learner_id: str,
        sco_id: str,
        learner_name: str = "",
        launch_data: str = "",
    ) -> ApiAdapter:
        """Launch a SCO for a learner and return its API instance.

        A learner whose previous attempt exited with ``suspend`` resumes:
        ``cmi.core.entry`` is ``"resume"`` and the suspend data is
        restored.  Launching while an attempt is still running is an
        error (one window per SCO, as in a browser LMS).
        """
        key = (learner_id, sco_id)
        active = self._active.get(key)
        if active is not None and active.state is ApiState.RUNNING:
            raise DeliveryError(
                f"learner {learner_id!r} already has a running attempt on "
                f"{sco_id!r}"
            )
        record = self.record(learner_id, sco_id)
        suspend_data = ""
        entry = "ab-initio"
        snapshot = record.last_snapshot if record.suspended else None
        if snapshot is not None:
            entry = "resume"
            suspend_data = str(snapshot.get("suspend_data", ""))
        datamodel = CmiDataModel(
            student_id=learner_id,
            student_name=learner_name,
            launch_data=launch_data,
            entry=entry,
            suspend_data=suspend_data,
        )

        def on_commit(snapshot: Dict[str, object]) -> None:
            """Persist the snapshot into this attempt's record."""
            record.snapshot_json = _ENCODE(snapshot)
            record.commits += 1
            core = snapshot.get("core", {})
            record.suspended = core.get("exit") == "suspend"

        adapter = ApiAdapter(datamodel=datamodel, on_commit=on_commit)
        record.attempts += 1
        self._active[key] = adapter
        return adapter

    def active_attempts(self) -> List[Tuple[str, str]]:
        """(learner, sco) pairs with a currently running API session."""
        return [
            key
            for key, adapter in self._active.items()
            if adapter.state is ApiState.RUNNING
        ]

    def all_records(self) -> List[AttemptRecord]:
        """Every (learner, SCO) attempt record the RTE has seen."""
        return list(self._records.values())
