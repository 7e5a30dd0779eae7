"""Online adaptive testing: CAT wired into the delivery tier.

The offline :mod:`repro.adaptive` machinery (IRT, exact item
selection, EAP estimation, 2PL calibration) gains an online consumer
here — three pieces, each designed around the delivery tier's
constraints:

* :class:`AdaptivePolicy` — the *authored* adaptive configuration that
  rides on an :class:`~repro.exams.exam.Exam` (stopping rules, prior,
  ability grid, and optional explicit per-item 2PL/3PL parameters).
  Items without explicit parameters are seeded from their stored
  classical indices (difficulty/discrimination → b/a, the ontology-
  difficulty seeding idea), so adaptive sittings work from day one on
  an uncalibrated bank.  The policy round-trips through the exam-bank
  record format, so offering an adaptive exam journals and replicates
  it like any other exam.

* :class:`ItemInformationTable` — the hot-path data structure.  Built
  **once per pool at exam install** (and again on a calibration swap):
  an ability-grid × item matrix of Fisher information plus the matching
  log-P / log-(1−P) matrices.  Online item selection is then an argmax
  over one table row, and the ability update is an **incremental
  log-posterior** accumulation over the same grid — zero IRT function
  evaluations per request.  The grids and clamps match
  :func:`~repro.adaptive.estimation.estimate_ability_eap` exactly, so
  the table argmax equals the exact :func:`~repro.adaptive.irt.
  item_information` argmax at every grid point (a hypothesis property).

* :class:`AdaptiveSession` — the per-sitting state machine, and the
  only one: the LMS serves it, and the simulators and examples drive it
  with :meth:`~AdaptiveSession.run`.  It is a pure deterministic
  function of (table, recorded response sequence).  The LMS replays the
  same answer events on recovery and rebuilds the same item sequence
  and theta trajectory bit-identically — the WAL needs no new
  per-answer payload, because selection is deterministic.

The calibration loop closes the circle: :func:`collect_calibration_
matrix` harvests completed sittings from a recovered WAL (missing =
never administered, not wrong), :func:`~repro.adaptive.item_calibration.
calibrate_2pl` re-fits, and :func:`write_calibration_snapshot` /
:func:`latest_calibration_snapshot` persist versioned parameter sets
that a restarted server hot-swaps via :meth:`~repro.lms.lms.Lms.
apply_calibration` (journaled as a ``calibrate`` event).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import EstimationError
from repro.adaptive.calibration import difficulty_to_b, discrimination_to_a
from repro.adaptive.irt import (
    ItemParameters,
    item_information,
    probability_correct,
)
from repro.store.durable import write_durably

__all__ = [
    "AdaptivePolicy",
    "ItemInformationTable",
    "AdaptiveSession",
    "collect_calibration_matrix",
    "write_calibration_snapshot",
    "latest_calibration_snapshot",
    "list_calibration_snapshots",
]

#: probability clamp shared with estimate_ability_eap, so table-driven
#: posteriors and the exact estimator agree on degenerate items
_P_CLAMP = 1e-9

_SNAPSHOT_FORMAT = "mine-calibration-v1"
_SNAPSHOT_RE = re.compile(r"^params-(?P<exam>.+)-v(?P<version>\d+)\.json$")


@dataclass
class AdaptivePolicy:
    """The authored adaptive configuration of an exam.

    Stopping rules are the ones :class:`AdaptiveSession` enforces; the
    grid settings shape the precomputed information table.  ``parameters``
    optionally pins explicit IRT parameters per item id — analyzable
    items without an entry are seeded from their stored classical
    indices (P → b, D → a) or neutral defaults.
    """

    max_items: int = 10
    min_items: int = 3
    se_target: float = 0.35
    prior_sd: float = 1.0
    grid_points: int = 61
    grid_half_width: float = 4.5
    parameters: Dict[str, ItemParameters] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_items < 1:
            raise EstimationError("max_items must be positive")
        if not 1 <= self.min_items <= self.max_items:
            raise EstimationError(
                f"min_items must be in [1, max_items], got {self.min_items}"
            )
        if self.se_target <= 0:
            raise EstimationError("se_target must be positive")
        if self.prior_sd <= 0:
            raise EstimationError("prior_sd must be positive")
        if self.grid_points < 3:
            raise EstimationError(
                f"need at least 3 grid points, got {self.grid_points}"
            )
        if self.grid_half_width <= 0:
            raise EstimationError("grid_half_width must be positive")

    def validate(self, exam) -> None:
        """Check the policy against the exam it is attached to."""
        analyzable = {item.item_id for item in exam.analyzable_items()}
        if not analyzable:
            raise EstimationError(
                f"adaptive exam {exam.exam_id!r} has no analyzable "
                f"(selection-style) items to select from"
            )
        unknown = sorted(set(self.parameters) - analyzable)
        if unknown:
            raise EstimationError(
                f"adaptive policy of {exam.exam_id!r} parameterizes items "
                f"not in the exam's analyzable pool: {unknown}"
            )

    def pool_for(self, exam) -> Dict[str, ItemParameters]:
        """The exam's CAT pool: explicit parameters, else seeded.

        Seeding follows :mod:`repro.adaptive.calibration`: stored
        classical indices (Item Difficulty Index P, Item Discrimination
        Index D) map onto b/a; items with no statistics get neutral
        defaults (a=1, b=0).
        """
        pool: Dict[str, ItemParameters] = {}
        for item in exam.analyzable_items():
            explicit = self.parameters.get(item.item_id)
            if explicit is not None:
                pool[item.item_id] = explicit
                continue
            individual = item.metadata.assessment.individual_test
            p = individual.item_difficulty_index
            d = individual.item_discrimination_index
            pool[item.item_id] = ItemParameters(
                a=discrimination_to_a(d) if d is not None else 1.0,
                b=difficulty_to_b(p) if p is not None else 0.0,
            )
        return pool

    # -- wire format (rides the exam-bank record) --------------------------------

    def to_record(self) -> Dict[str, object]:
        """Serialize for :func:`repro.bank.exambank.exam_to_record`."""
        return {
            "max_items": self.max_items,
            "min_items": self.min_items,
            "se_target": self.se_target,
            "prior_sd": self.prior_sd,
            "grid_points": self.grid_points,
            "grid_half_width": self.grid_half_width,
            "parameters": {
                item_id: {"a": params.a, "b": params.b, "c": params.c}
                for item_id, params in sorted(self.parameters.items())
            },
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "AdaptivePolicy":
        """Restore from the exam-bank wire record."""
        return cls(
            max_items=int(record.get("max_items", 10)),
            min_items=int(record.get("min_items", 3)),
            se_target=float(record.get("se_target", 0.35)),
            prior_sd=float(record.get("prior_sd", 1.0)),
            grid_points=int(record.get("grid_points", 61)),
            grid_half_width=float(record.get("grid_half_width", 4.5)),
            parameters=parameters_from_record(record.get("parameters", {})),
        )


def parameters_to_record(
    pool: Dict[str, ItemParameters]
) -> Dict[str, Dict[str, float]]:
    """A pool as wire-shaped JSON (sorted for stable files)."""
    return {
        item_id: {"a": params.a, "b": params.b, "c": params.c}
        for item_id, params in sorted(pool.items())
    }


def parameters_from_record(record) -> Dict[str, ItemParameters]:
    """The inverse of :func:`parameters_to_record`."""
    pool: Dict[str, ItemParameters] = {}
    for item_id, entry in dict(record).items():
        pool[str(item_id)] = ItemParameters(
            a=float(entry.get("a", 1.0)),
            b=float(entry.get("b", 0.0)),
            c=float(entry.get("c", 0.0)),
        )
    return pool


class ItemInformationTable:
    """Precomputed ability-grid × item tables for O(1) online CAT.

    Three matrices, all ``grid_points × n_items`` with items in sorted-id
    order:

    * ``info[k][i]`` — Fisher information of item *i* at grid theta *k*
      (drives selection: argmax over one row);
    * ``logp[k][i]`` / ``logq[k][i]`` — clamped log P(correct) and
      log P(wrong) (drive the incremental EAP posterior update).

    Built once per pool (exam install or calibration swap); the online
    hot path only ever reads rows/columns — no ``exp``/``log`` of model
    equations per request.
    """

    __slots__ = (
        "item_ids",
        "grid",
        "info",
        "logp",
        "logq",
        "log_prior",
        "version",
        "_index",
        "_lo",
        "_step",
    )

    def __init__(
        self,
        item_ids: List[str],
        grid: List[float],
        info: List[List[float]],
        logp: List[List[float]],
        logq: List[List[float]],
        log_prior: List[float],
        version: int = 0,
    ) -> None:
        self.item_ids = item_ids
        self.grid = grid
        self.info = info
        self.logp = logp
        self.logq = logq
        self.log_prior = log_prior
        self.version = version
        self._index = {item_id: i for i, item_id in enumerate(item_ids)}
        self._lo = grid[0]
        self._step = grid[1] - grid[0] if len(grid) > 1 else 1.0

    @classmethod
    def build(
        cls,
        pool: Dict[str, ItemParameters],
        grid_points: int = 61,
        grid_half_width: float = 4.5,
        prior_sd: float = 1.0,
        version: int = 0,
    ) -> "ItemInformationTable":
        """Evaluate the IRT model over the grid, once, at install time."""
        if not pool:
            raise EstimationError("cannot build an information table from "
                                  "an empty pool")
        if grid_points < 3:
            raise EstimationError(
                f"need at least 3 grid points, got {grid_points}"
            )
        step = 2.0 * grid_half_width / (grid_points - 1)
        grid = [-grid_half_width + i * step for i in range(grid_points)]
        item_ids = sorted(pool)
        info: List[List[float]] = []
        logp: List[List[float]] = []
        logq: List[List[float]] = []
        for theta in grid:
            info_row: List[float] = []
            logp_row: List[float] = []
            logq_row: List[float] = []
            for item_id in item_ids:
                params = pool[item_id]
                info_row.append(item_information(theta, params))
                p = probability_correct(theta, params)
                p = min(max(p, _P_CLAMP), 1.0 - _P_CLAMP)
                logp_row.append(math.log(p))
                logq_row.append(math.log(1.0 - p))
            info.append(info_row)
            logp.append(logp_row)
            logq.append(logq_row)
        log_prior = [-0.5 * (theta / prior_sd) ** 2 for theta in grid]
        return cls(item_ids, grid, info, logp, logq, log_prior, version)

    def __len__(self) -> int:
        return len(self.item_ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def grid_index(self, theta: float) -> int:
        """The nearest grid row for an ability value (clamped)."""
        k = int(round((theta - self._lo) / self._step))
        if k < 0:
            return 0
        last = len(self.grid) - 1
        return last if k > last else k

    def select(
        self, theta: float, administered: "set[str]"
    ) -> Optional[str]:
        """Max-information unused item at the grid row nearest ``theta``.

        Pure table lookup: one row scan with strict ``>`` over sorted
        item ids — the same deterministic tie-break as
        :func:`~repro.adaptive.cat.select_next_item`, but with zero IRT
        evaluation.  Returns None when every item is administered.
        """
        row = self.info[self.grid_index(theta)]
        best_id: Optional[str] = None
        best_information = -1.0
        for i, item_id in enumerate(self.item_ids):
            if item_id in administered:
                continue
            information = row[i]
            if information > best_information:
                best_information = information
                best_id = item_id
        return best_id


class AdaptiveSession:
    """One online adaptive sitting: table-driven selection + EAP.

    State is an incremental log-posterior over the table's ability grid:
    each recorded response adds the answered item's ``logp``/``logq``
    column, then theta/SE are the posterior mean/SD.  The whole session
    is a deterministic function of (table, response sequence), which is
    what makes WAL replay and snapshot restore bit-identical — recovery
    simply re-records the same ``(item_id, correct)`` sequence.
    """

    __slots__ = (
        "table",
        "max_items",
        "min_items",
        "se_target",
        "administered",
        "responses",
        "log_posterior",
        "theta",
        "standard_error",
        "trajectory",
    )

    def __init__(
        self,
        table: ItemInformationTable,
        max_items: int = 10,
        min_items: int = 3,
        se_target: float = 0.35,
    ) -> None:
        if max_items < 1:
            raise EstimationError("max_items must be positive")
        if not 1 <= min_items <= max_items:
            raise EstimationError(
                f"min_items must be in [1, max_items], got {min_items}"
            )
        if se_target <= 0:
            raise EstimationError("se_target must be positive")
        self.table = table
        self.max_items = max_items
        self.min_items = min_items
        self.se_target = se_target
        self.administered: List[str] = []
        self.responses: List[bool] = []
        self.log_posterior = list(table.log_prior)
        self.theta, self.standard_error = _eap(
            table.grid, self.log_posterior
        )
        #: (theta, SE) after each recorded response — the trajectory the
        #: replay property compares bit-for-bit
        self.trajectory: List[Tuple[float, float]] = []

    @classmethod
    def for_exam(cls, table: ItemInformationTable, policy: AdaptivePolicy
                 ) -> "AdaptiveSession":
        """A session configured by an exam's authored policy."""
        return cls(
            table,
            max_items=policy.max_items,
            min_items=policy.min_items,
            se_target=policy.se_target,
        )

    @property
    def step(self) -> int:
        """Responses recorded so far."""
        return len(self.administered)

    def next_item(self) -> Optional[str]:
        """The item the policy wants next; None when the sitting is done."""
        if self.is_done():
            return None
        return self.table.select(self.theta, set(self.administered))

    def record(self, item_id: str, correct: bool) -> None:
        """Fold one scored response into the posterior (O(grid))."""
        try:
            column = self.table._index[item_id]
        except KeyError:
            raise EstimationError(
                f"item {item_id!r} is not in the adaptive pool"
            ) from None
        if item_id in self.administered:
            raise EstimationError(f"item {item_id!r} already administered")
        self.administered.append(item_id)
        self.responses.append(bool(correct))
        rows = self.table.logp if correct else self.table.logq
        posterior = self.log_posterior
        for k in range(len(posterior)):
            posterior[k] += rows[k][column]
        self.theta, self.standard_error = _eap(self.table.grid, posterior)
        self.trajectory.append((self.theta, self.standard_error))

    def is_done(self) -> bool:
        """True when any stopping rule is met."""
        return self.stop_reason() is not None

    def stop_reason(self) -> Optional[str]:
        """Why the sitting stopped: ``max_items`` / ``pool_exhausted`` /
        ``se_target``, or None while items remain to administer."""
        count = len(self.administered)
        if count >= self.max_items:
            return "max_items"
        if count >= len(self.table):
            return "pool_exhausted"
        if count >= self.min_items and (
            self.standard_error <= self.se_target
        ):
            return "se_target"
        return None

    def run(self, answer: Callable[[str], bool]) -> Tuple[float, float]:
        """Drive the sitting to a stop with an ``answer(item_id) -> bool``
        oracle (e.g. a simulated learner); returns (theta, SE)."""
        item_id = self.next_item()
        while item_id is not None:
            self.record(item_id, bool(answer(item_id)))
            item_id = self.next_item()
        return self.theta, self.standard_error

    def status(self) -> Dict[str, object]:
        """A wire-shaped view (the ``next-item`` route payload)."""
        item_id = self.next_item()
        return {
            "item_id": item_id,
            "done": item_id is None,
            "reason": self.stop_reason(),
            "step": self.step,
            "theta": self.theta,
            "standard_error": self.standard_error,
            "administered": list(self.administered),
            "table_version": self.table.version,
        }


def _eap(grid: List[float], log_posterior: List[float]
         ) -> Tuple[float, float]:
    """Posterior mean and SD by exp-normalize over the grid."""
    peak = max(log_posterior)
    weights = [math.exp(value - peak) for value in log_posterior]
    total = sum(weights)
    mean = sum(t * w for t, w in zip(grid, weights)) / total
    variance = (
        sum(w * (t - mean) ** 2 for t, w in zip(grid, weights)) / total
    )
    return mean, math.sqrt(max(variance, 1e-12))


# -- the calibration loop -------------------------------------------------------


def collect_calibration_matrix(
    lms, exam_id: str
) -> Tuple[List[str], List[List[Optional[bool]]]]:
    """Harvest a (possibly sparse) response matrix from an LMS.

    One row per learner (latest submitted sitting wins, matching the
    analysis engines), one column per analyzable item in sorted-id
    order.  ``None`` marks an item the learner was never served — an
    adaptive sitting administers a subset, and treating the rest as
    wrong would wreck the fit.  Administered-ness comes from the graded
    record: a score with ``selected is None`` was never answered.
    """
    exam = lms.exam(exam_id)
    item_ids = sorted(item.item_id for item in exam.analyzable_items())
    latest: Dict[str, object] = {}
    for sitting in lms.results_for(exam_id):
        latest.pop(sitting.learner_id, None)
        latest[sitting.learner_id] = sitting
    matrix: List[List[Optional[bool]]] = []
    for learner_id in sorted(latest):
        scores = latest[learner_id].scores
        row: List[Optional[bool]] = []
        for item_id in item_ids:
            score = scores.get(item_id)
            if score is None or score.selected is None:
                row.append(None)
            else:
                row.append(bool(score.correct))
        matrix.append(row)
    return item_ids, matrix


def write_calibration_snapshot(
    directory: "str | Path",
    exam_id: str,
    version: int,
    pool: Dict[str, ItemParameters],
    diagnostics: Optional[Dict[str, object]] = None,
) -> Path:
    """Persist one versioned parameter snapshot, atomically and durably.

    A writer killed mid-write leaves no ``params-*.json`` behind, so a
    torn snapshot can never stop a server booting over the directory.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"params-{exam_id}-v{version}.json"
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "exam_id": exam_id,
        "version": int(version),
        "parameters": parameters_to_record(pool),
        "diagnostics": diagnostics or {},
    }
    write_durably(target, [json.dumps(payload, indent=2, sort_keys=True)])
    return target


def list_calibration_snapshots(
    directory: "str | Path",
) -> Dict[str, List[int]]:
    """Every snapshot version on disk, per exam id (sorted ascending)."""
    path = Path(directory)
    found: Dict[str, List[int]] = {}
    if not path.is_dir():
        return found
    for entry in path.iterdir():
        match = _SNAPSHOT_RE.match(entry.name)
        if match is None:
            continue
        found.setdefault(match.group("exam"), []).append(
            int(match.group("version"))
        )
    for versions in found.values():
        versions.sort()
    return found


def latest_calibration_snapshot(
    directory: "str | Path", exam_id: str
) -> Optional[Tuple[int, Dict[str, ItemParameters]]]:
    """The newest persisted parameter set for an exam, or None."""
    versions = list_calibration_snapshots(directory).get(exam_id)
    if not versions:
        return None
    version = versions[-1]
    path = Path(directory) / f"params-{exam_id}-v{version}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != _SNAPSHOT_FORMAT:
        raise EstimationError(
            f"unrecognized calibration snapshot format in {path.name}: "
            f"{payload.get('format')!r}"
        )
    return version, parameters_from_record(payload.get("parameters", {}))
