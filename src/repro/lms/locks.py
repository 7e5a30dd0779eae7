"""Fine-grained LMS locking: a shard-level RW lock plus per-sitting locks.

The LMS used to serialize *everything* behind one coarse ``RLock``: a
slow submit (grading a long exam) stalled every unrelated learner's
answer.  This module is the replacement:

* :class:`ShardLock` — a reentrant reader-writer lock.  ``with
  lms.lock:`` still means what it always meant (**exclusive**: the
  world is quiesced — snapshots, checkpoints, and
  ``state_fingerprint`` rely on it), but the per-learner hot paths now
  take the lock in **shared** mode, so answers to *different* sittings
  run concurrently and only structural mutations (offer, register,
  enroll, start) serialize.
* per-sitting :class:`InstrumentedRLock`\\ s — each open sitting gets
  its own lock, so two learners answering at the same time never touch
  the same mutex, while two racing requests for the *same* sitting
  still serialize (single-winner submit, ordered answers).
* :class:`LockStats` — contention visibility.  Every acquisition is
  counted and its wait time accumulated per scope (``shard.shared``,
  ``shard.exclusive``, ``sitting``); contended sitting acquisitions
  additionally record their ``learner:exam`` label (bounded map).  The
  server surfaces the snapshot under ``"locks"`` in ``/metrics``, and
  contended waits emit :mod:`repro.obs` counters / gauges when
  profiling is on.

Lock ordering (strict, deadlock-free): ``shard (shared or exclusive)``
→ ``sitting`` → ``commit`` (the small mutex around shared result
structures) → leaf locks (journal, monitor).  Upgrading shared →
exclusive on the same thread is forbidden and raises; taking shared
while already holding exclusive nests onto the exclusive hold.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro import obs

__all__ = ["LockStats", "ShardLock", "InstrumentedRLock"]

#: per-sitting labels retained in the contention map before new ones
#: are folded into the ``(other)`` bucket
MAX_SITTING_LABELS = 100


class LockStats:
    """Thread-safe contention accounting shared by a shard's locks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # scope -> [acquisitions, contended, wait_total_s, wait_max_s]
        self._scopes: Dict[str, list] = {}
        # "learner:exam" -> contended acquisition count (bounded)
        self._sitting_contention: Dict[str, int] = {}

    def record(
        self,
        scope: str,
        waited_seconds: float,
        contended: bool,
        label: Optional[str] = None,
    ) -> None:
        """Fold one acquisition into the per-scope aggregates."""
        with self._lock:
            entry = self._scopes.setdefault(scope, [0, 0, 0.0, 0.0])
            entry[0] += 1
            if contended:
                entry[1] += 1
                entry[2] += waited_seconds
                entry[3] = max(entry[3], waited_seconds)
                if label is not None:
                    buckets = self._sitting_contention
                    if (
                        label not in buckets
                        and len(buckets) >= MAX_SITTING_LABELS
                    ):
                        label = "(other)"
                    buckets[label] = buckets.get(label, 0) + 1
        if contended:
            # profiling-only: the obs helpers no-op when disabled
            obs.count("lms.lock.contended", scope=scope)
            obs.gauge(
                "lms.lock.wait_ms", waited_seconds * 1000.0, scope=scope
            )

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` payload: per-scope counts and wait times."""
        with self._lock:
            scopes = {
                scope: {
                    "acquisitions": entry[0],
                    "contended": entry[1],
                    "wait_ms_total": round(entry[2] * 1000.0, 3),
                    "wait_ms_max": round(entry[3] * 1000.0, 3),
                }
                for scope, entry in sorted(self._scopes.items())
            }
            contended_sittings = dict(
                sorted(
                    self._sitting_contention.items(),
                    key=lambda pair: -pair[1],
                )
            )
        return {"scopes": scopes, "contended_sittings": contended_sittings}


class ShardLock:
    """A reentrant reader-writer lock with the coarse-lock's old API.

    ``acquire``/``release``/``__enter__``/``__exit__`` take the lock
    **exclusively** (writer), so existing ``with lms.lock:`` callers —
    snapshots, checkpoints, fingerprinting, embedders making a
    multi-call sequence atomic — keep their stop-the-world semantics.
    :meth:`shared` is the new hot-path mode: any number of threads hold
    it together, excluded only by a writer.

    Reentrancy rules: a writer may re-acquire exclusively *and* may
    enter :meth:`shared` (nests onto the write hold); a reader may
    re-enter :meth:`shared`; a reader asking for exclusive would be a
    lock *upgrade* (classic deadlock when two readers race it) and
    raises ``RuntimeError`` instead.  Writers get priority: new readers
    queue behind a waiting writer, except reentrant readers, which pass
    so an in-flight request can finish and release.
    """

    def __init__(self, stats: LockStats) -> None:
        self._cond = threading.Condition()
        self._writer: Optional[int] = None
        self._writer_depth = 0
        self._readers: Dict[int, int] = {}  # thread ident -> depth
        self._writers_waiting = 0
        self._stats = stats

    # -- exclusive (the legacy coarse-lock surface) --------------------------

    def acquire(self) -> bool:
        """Take the lock exclusively (reentrant); blocks until granted."""
        me = threading.get_ident()
        began: Optional[float] = None
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                self._note("shard.exclusive", None)
                return True
            if self._readers.get(me):
                raise RuntimeError(
                    "cannot upgrade a shared ShardLock hold to exclusive"
                )
            if self._writer is not None or self._readers:
                began = time.perf_counter()
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1
        self._note("shard.exclusive", began)
        return True

    def release(self) -> None:
        """Release one exclusive hold."""
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError(
                    "release() by a thread not holding the ShardLock"
                )
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def __enter__(self) -> "ShardLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # -- shared (the hot-path mode) ------------------------------------------

    @contextmanager
    def shared(self):
        """Hold the lock in shared mode for the ``with`` body."""
        me = threading.get_ident()
        began: Optional[float] = None
        with self._cond:
            if self._writer == me:
                # a writer "reading" nests onto its own write hold
                self._writer_depth += 1
                writer_nested = True
            else:
                writer_nested = False
                if self._readers.get(me):
                    self._readers[me] += 1
                else:
                    if self._writer is not None or self._writers_waiting:
                        began = time.perf_counter()
                    while self._writer is not None or self._writers_waiting:
                        self._cond.wait()
                    self._readers[me] = 1
        self._note("shard.shared", began)
        try:
            yield self
        finally:
            with self._cond:
                if writer_nested:
                    self._writer_depth -= 1
                    if self._writer_depth == 0:  # pragma: no cover - safety
                        self._writer = None
                        self._cond.notify_all()
                else:
                    depth = self._readers[me] - 1
                    if depth:
                        self._readers[me] = depth
                    else:
                        del self._readers[me]
                        self._cond.notify_all()

    # -- plumbing ------------------------------------------------------------

    def _note(self, scope: str, began: Optional[float]) -> None:
        waited = (time.perf_counter() - began) if began is not None else 0.0
        self._stats.record(scope, waited, began is not None)


class InstrumentedRLock:
    """An ``RLock`` that reports wait times to a :class:`LockStats`.

    Used for the per-sitting locks: the ``label`` (``learner:exam``)
    names which sitting contended, so ``/metrics`` can point at the hot
    learner instead of an anonymous aggregate.
    """

    def __init__(self, stats: LockStats, label: str) -> None:
        self._lock = threading.RLock()
        self._stats = stats
        self._label = label

    def __enter__(self) -> "InstrumentedRLock":
        if self._lock.acquire(blocking=False):
            self._stats.record("sitting", 0.0, False)
            return self
        began = time.perf_counter()
        self._lock.acquire()
        self._stats.record(
            "sitting", time.perf_counter() - began, True, label=self._label
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
