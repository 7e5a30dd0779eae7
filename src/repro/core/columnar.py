"""Columnar §4.1 analysis engine — the fast path behind ``analyze_cohort``.

The reference pipeline (:mod:`repro.core.question_analysis`) walks Python
object lists per examinee per question: scoring is ``N x Q`` generator
steps over :class:`ExamineeResponses` tuples, and the option matrices are
built with per-member dict increments.  That is faithful to the paper but
cannot serve the roadmap's "heavy traffic" target.

This module keeps the *exact same semantics* in a columnar layout:

* option labels are interned to small integer codes per question
  (``None``/skip is the sentinel ``SKIP`` = 0xFF);
* the whole cohort lives in one contiguous row-major ``bytearray``
  (:class:`ResponseMatrix`), so a question's column is a C-speed stride
  slice and a sitting's row is a Q-byte append;
* scores, the high/low split, and every option matrix come out of
  whole-column kernels over the codes (:mod:`repro.core.kernels`):
  stdlib ``bytes`` kernels for served cohort sizes, numpy ones past a
  measured crossover;
* the per-question arithmetic (PH, PL, D, P, rules, signals, advice) is
  delegated to the same :func:`~repro.core.question_analysis.analyze_matrix`
  the reference engine uses, so the floats are bit-identical by
  construction.

:func:`~repro.core.question_analysis.analyze_cohort` runs every cohort
through :class:`ResponseMatrix`, proven equal to the reference pipeline
by ``tests/core/test_columnar_differential.py``;
:class:`LiveCohortAnalysis` is the incremental API (``add_sitting`` /
``invalidate``) that keeps an analysis warm across submissions instead of
recomputing from raw responses every time.
"""

from __future__ import annotations

import base64
import sys
from itertools import chain as _chain, cycle as _cycle
from operator import attrgetter as _attrgetter, eq as _eq, getitem as _getitem
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.errors import AnalysisError, EmptyCohortError
from repro.core.grouping import GroupSplit
from repro.core.kernels import SKIP, UNSEEN, kernels_for
from repro.core.question_analysis import (
    CohortAnalysis,
    ExamineeResponses,
    QuestionAnalysis,
    QuestionSpec,
    analyze_matrix,
)
from repro.core.rules import DEFAULT_SPREAD_THRESHOLD, OptionMatrix
from repro.core.signals import DEFAULT_POLICY, SignalPolicy

__all__ = [
    "SKIP",
    "MAX_OPTION_CODES",
    "ColumnarCapacityError",
    "ResponseMatrix",
    "LiveCohortAnalysis",
    "merge_partials",
]

#: Distinct labels (options + stray unknown selections) a question can
#: intern: one byte per cell minus the skip sentinel.
MAX_OPTION_CODES = 0xFF

#: ``_vector_encode``'s starting table: no byte is a label yet
_UNSEEN_TABLE = bytes((UNSEEN,)) * 256

_selections_of = _attrgetter("selections")
_id_of = _attrgetter("examinee_id")


class ColumnarCapacityError(AnalysisError):
    """A cohort exceeds the byte-code capacity of the columnar layout.

    :func:`~repro.core.question_analysis.analyze_cohort` catches this
    and falls back to the reference pipeline, so callers never see it
    unless they use :class:`ResponseMatrix` directly.
    """


class ResponseMatrix:
    """Columnar store for one cohort's selections on one exam.

    The matrix is row-major: examinee ``i``'s codes occupy bytes
    ``[i*Q, (i+1)*Q)`` of ``_codes``, so ``add_sitting`` is an O(Q)
    append and question ``q``'s column is the stride slice
    ``_codes[q::Q]``.  Scores are maintained alongside, one pass per
    sitting, so an analysis never has to re-walk raw responses.
    """

    def __init__(self, questions: Sequence[QuestionSpec]) -> None:
        if not questions:
            raise AnalysisError("no questions to analyse")
        self.questions: Tuple[QuestionSpec, ...] = tuple(questions)
        self.width = len(self.questions)
        # per-question interning tables; None is pre-seeded so skips
        # encode in the same C-level map() pass as real selections
        self._tables: List[Dict[Optional[str], int]] = []
        self._labels: List[List[str]] = []
        self._correct: List[int] = []
        for spec in self.questions:
            if len(spec.options) > MAX_OPTION_CODES - 1:
                raise ColumnarCapacityError(
                    f"question with {len(spec.options)} options exceeds the "
                    f"columnar capacity of {MAX_OPTION_CODES - 1}"
                )
            table: Dict[Optional[str], int] = {None: SKIP}
            for code, option in enumerate(spec.options):
                table[option] = code
            self._tables.append(table)
            self._labels.append(list(spec.options))
            # the key itself is interned like any label, so an invalid
            # spec surfaces exactly where the reference engine raises
            # (OptionMatrix validation), not earlier
            self._correct.append(self._intern(len(self._labels) - 1, spec.correct))
        self._codes = bytearray()
        self.examinee_ids: List[str] = []
        self.scores: List[int] = []
        self._row_of: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.examinee_ids)

    def __contains__(self, examinee_id: str) -> bool:
        return examinee_id in self._row_of

    @classmethod
    def from_arrays(
        cls,
        questions: Sequence[QuestionSpec],
        examinee_ids: Sequence[str],
        codes: "bytes | bytearray | memoryview | numpy.ndarray",
    ) -> "ResponseMatrix":
        """Build a matrix straight from pre-encoded option codes.

        ``codes`` is the row-major cohort: examinee ``i``'s code for
        question ``q`` at flat index ``i * Q + q`` (a bytes-like buffer
        or an ``(N, Q)`` uint8 array).  Codes are the question's option
        indices in spec order; :data:`SKIP` marks an omitted answer.
        This is the ingestion path for array-native producers
        (:mod:`repro.sim.vectorized`): no per-learner
        :class:`ExamineeResponses` objects, no interning dict lookups —
        the buffer is validated and adopted wholesale.
        """
        matrix = cls(questions)
        matrix.extend_codes(examinee_ids, codes)
        return matrix

    def extend_codes(
        self,
        examinee_ids: Sequence[str],
        codes: "bytes | bytearray | memoryview | numpy.ndarray",
    ) -> None:
        """Bulk-append pre-encoded rows (the array-native ``extend``).

        Validates shape, duplicate ids, and that every code is either one
        of its question's option indices or :data:`SKIP` — stray labels
        have no code representation, so unlike :meth:`extend` nothing is
        interned here.  Scores come from the same kernel :meth:`extend`
        uses.
        """
        ids = list(examinee_ids)
        # an ndarray exists only once numpy is imported: look, never load
        numpy = sys.modules.get("numpy")
        if numpy is not None and isinstance(codes, numpy.ndarray):
            if codes.ndim == 2 and codes.shape[1] != self.width:
                raise AnalysisError(
                    f"code matrix has {codes.shape[1]} questions; "
                    f"exam has {self.width}"
                )
            buffer = codes.astype(numpy.uint8, copy=False).tobytes()
        else:
            buffer = bytes(codes)
        if not ids and not buffer:
            return
        if len(buffer) != len(ids) * self.width:
            raise AnalysisError(
                f"code buffer holds {len(buffer)} cells; "
                f"{len(ids)} examinees x {self.width} questions "
                f"needs {len(ids) * self.width}"
            )
        if len(set(ids)) != len(ids) or not self._row_of.keys().isdisjoint(
            ids
        ):
            seen = set(self._row_of)
            for identifier in ids:
                if identifier in seen:
                    raise AnalysisError(
                        f"duplicate examinee id {identifier!r} in cohort"
                    )
                seen.add(identifier)
        known = [len(spec.options) for spec in self.questions]
        kernels = kernels_for(len(buffer))
        offender = kernels.first_invalid(buffer, self.width, known)
        if offender is not None:
            row, question = divmod(offender, self.width)
            raise AnalysisError(
                f"examinee {ids[row]!r} has code {buffer[offender]}"
                f" on question {question + 1}, which has only "
                f"{known[question]} options"
            )
        base = len(self.examinee_ids)
        self._codes.extend(buffer)
        self.examinee_ids.extend(ids)
        self._row_of.update(zip(ids, range(base, base + len(ids))))
        self.scores.extend(
            kernels.scores(buffer, len(ids), self.width, self._correct)
        )

    # -- ingestion -----------------------------------------------------------

    def _intern(self, question_index: int, label: Optional[str]) -> int:
        """The code for ``label`` on a question, interning it if new."""
        table = self._tables[question_index]
        code = table.get(label)
        if code is not None:
            return code
        labels = self._labels[question_index]
        code = len(labels)
        if code >= MAX_OPTION_CODES:
            raise ColumnarCapacityError(
                f"question {question_index + 1} saw more than "
                f"{MAX_OPTION_CODES} distinct selection labels"
            )
        table[label] = code
        labels.append(label)  # type: ignore[arg-type]  # only str reaches here
        return code

    def _encode(self, response: ExamineeResponses) -> bytes:
        """One sitting's selections as a row of interned codes."""
        return self._encode_row(response.selections)

    def _encode_row(self, selections: Sequence[Optional[str]]) -> bytes:
        try:
            # single C-level pass: getitem(tables[q], selections[q]) per q
            return bytes(map(_getitem, self._tables, selections))
        except KeyError:
            # a label outside the question's options: intern it (the
            # analysis raises later only if it lands in an extreme group,
            # matching the reference engine's behavior)
            return bytes(
                self._intern(index, selection)
                for index, selection in enumerate(selections)
            )

    def _check_new(self, response: ExamineeResponses) -> None:
        if len(response.selections) != self.width:
            raise AnalysisError(
                f"examinee {response.examinee_id!r} answered "
                f"{len(response.selections)} questions; exam has {self.width}"
            )
        if response.examinee_id in self._row_of:
            raise AnalysisError(
                f"duplicate examinee id {response.examinee_id!r} in cohort"
            )

    def add_sitting(self, response: ExamineeResponses) -> int:
        """Append one sitting; O(Q), independent of cohort size.

        Returns the new row index.  Raises :class:`AnalysisError` when the
        selections length disagrees with the exam width or the examinee id
        is already present.
        """
        self._check_new(response)
        row = self._encode(response)
        score = sum(map(_eq, row, self._correct))
        index = len(self.examinee_ids)
        self._codes.extend(row)
        self.examinee_ids.append(response.examinee_id)
        self.scores.append(score)
        self._row_of[response.examinee_id] = index
        return index

    def extend(self, responses: Sequence[ExamineeResponses]) -> None:
        """Bulk-ingest a cohort: validate everything, then encode and score
        the whole batch with the kernels.

        Validation order matches the reference engine: every width is
        checked before any scoring happens, then duplicate ids.  Both
        checks run at C speed (``set``/``map``); the slow loops only run
        to name the first offender once a violation is known.
        """
        if not responses:
            return
        selections = list(map(_selections_of, responses))
        if set(map(len, selections)) != {self.width}:
            for response in responses:
                if len(response.selections) != self.width:
                    raise AnalysisError(
                        f"examinee {response.examinee_id!r} answered "
                        f"{len(response.selections)} questions; exam has "
                        f"{self.width}"
                    )
        ids = list(map(_id_of, responses))
        if len(set(ids)) != len(ids) or not self._row_of.keys().isdisjoint(
            ids
        ):
            seen = set(self._row_of)
            for identifier in ids:
                if identifier in seen:
                    raise AnalysisError(
                        f"duplicate examinee id {identifier!r} in cohort"
                    )
                seen.add(identifier)
        joined = self._bulk_encode(selections)
        base = len(self.examinee_ids)
        self._codes.extend(joined)
        self.examinee_ids.extend(ids)
        self._row_of.update(zip(ids, range(base, base + len(ids))))
        self.scores.extend(
            kernels_for(len(joined)).scores(
                joined, len(ids), self.width, self._correct
            )
        )

    def _bulk_encode(self, selections: Sequence[Sequence[Optional[str]]]) -> bytes:
        """All rows' interned codes in one buffer, row-major."""
        joined = self._vector_encode(selections)
        if joined is not None:
            return joined
        try:
            # every row has exactly `width` cells (validated by extend),
            # so the interning tables cycle in lockstep with the
            # flattened selections: one C-level pass over all cells
            return bytes(
                map(
                    _getitem,
                    _cycle(self._tables),
                    _chain.from_iterable(selections),
                )
            )
        except KeyError:
            # some label is outside its question's options: fall back to
            # per-row encoding, which interns the stray labels
            return b"".join(map(self._encode_row, selections))

    def _vector_encode(
        self, selections: Sequence[Sequence[Optional[str]]]
    ) -> Optional[bytes]:
        """Whole-cohort encode for the common case: single-character
        ASCII labels and no skips.

        The cohort flattens with two C-level ``str.join`` passes into one
        byte per cell; the encode kernel then maps each column through
        its question's 256-byte table — no per-cell Python dispatch at
        all.  Returns ``None`` whenever the cohort does not fit the fast
        shape (a skipped answer, a multi-character or non-ASCII label, a
        label that still needs interning), and the caller falls back.
        """
        if any(len(table) > UNSEEN for table in self._tables):
            return None  # a real code could collide with the marker
        try:
            flat = "".join(map("".join, selections))
        except TypeError:
            return None  # a skipped answer (None) somewhere
        total = len(selections) * self.width
        if len(flat) != total:
            return None  # some label is not a single character
        raw = flat.encode()
        if len(raw) != total:
            return None  # non-ASCII labels
        luts = []
        for table in self._tables:
            lut = bytearray(_UNSEEN_TABLE)
            for label, code in table.items():
                if label is not None and len(label) == 1 and label < "\x80":
                    lut[ord(label)] = code
            luts.append(bytes(lut))
        return kernels_for(total).encode(raw, luts, self.width)

    def export_partial(self) -> Dict[str, object]:
        """This shard's cohort as a JSON-safe scatter-gather partial.

        The payload carries everything :func:`merge_partials` needs to
        rebuild the rows elsewhere: the examinee ids (row order), the
        raw row-major code buffer (base64), and each question's interned
        label list — options in spec order first, then any stray labels
        this shard happened to see.  Scores are *not* shipped; the merge
        recomputes them from the codes, so a corrupt partial cannot
        smuggle in a wrong score.
        """
        return {
            "format": "mine-partial-v1",
            "width": self.width,
            "examinee_ids": list(self.examinee_ids),
            "codes_b64": base64.b64encode(bytes(self._codes)).decode(
                "ascii"
            ),
            "labels": [list(labels) for labels in self._labels],
        }

    def remove_sitting(self, examinee_id: str) -> bool:
        """Drop one sitting (resubmission, invalidated exam); False if absent."""
        index = self._row_of.pop(examinee_id, None)
        if index is None:
            return False
        width = self.width
        del self._codes[index * width : (index + 1) * width]
        del self.examinee_ids[index]
        del self.scores[index]
        for identifier in self.examinee_ids[index:]:
            self._row_of[identifier] -= 1
        return True

    # -- the analysis sweep ---------------------------------------------------

    def analyze(
        self,
        split: GroupSplit = GroupSplit(),
        policy: SignalPolicy = DEFAULT_POLICY,
        spread_threshold: float = DEFAULT_SPREAD_THRESHOLD,
    ) -> CohortAnalysis:
        """The full §4.1 result for the current cohort state.

        Field-for-field equal to the reference engine: the split reuses
        :class:`GroupSplit` on the cached score vector, the counts come
        from the code columns, and every per-question result is produced
        by the shared :func:`analyze_matrix`.
        """
        count = len(self.examinee_ids)
        if count == 0:
            raise EmptyCohortError("no examinee responses to analyse")
        kernels = kernels_for(count * self.width)
        with obs.span(
            "analyze.columnar",
            examinees=count,
            questions=self.width,
            kernels=kernels.name,
        ):
            return self._analyze_impl(
                kernels, split, policy, spread_threshold, count
            )

    def _analyze_impl(
        self,
        kernels,
        split: GroupSplit,
        policy: SignalPolicy,
        spread_threshold: float,
        count: int,
    ) -> CohortAnalysis:
        high_idx, low_idx = self._split_indices(kernels, split, count)
        sizes = list(map(len, self._labels))
        high_counts = kernels.group_counts(
            self._codes, self.width, high_idx, sizes
        )
        low_counts = kernels.group_counts(
            self._codes, self.width, low_idx, sizes
        )

        analyses: List[QuestionAnalysis] = []
        for index, spec in enumerate(self.questions):
            known = len(spec.options)
            self._check_unknown(index, high_counts[index], high_idx, known)
            self._check_unknown(index, low_counts[index], low_idx, known)
            matrix = OptionMatrix(
                options=spec.options,
                high=dict(zip(spec.options, high_counts[index])),
                low=dict(zip(spec.options, low_counts[index])),
                correct=spec.correct,
            )
            analyses.append(
                analyze_matrix(
                    matrix,
                    high_size=len(high_idx),
                    low_size=len(low_idx),
                    number=index + 1,
                    policy=policy,
                    spread_threshold=spread_threshold,
                )
            )
        return CohortAnalysis(
            questions=analyses,
            high_group=[self.examinee_ids[i] for i in high_idx],
            low_group=[self.examinee_ids[i] for i in low_idx],
            scores=dict(zip(self.examinee_ids, self.scores)),
        )

    def _split_indices(
        self, kernels, split: GroupSplit, count: int
    ) -> Tuple[List[int], List[int]]:
        """High/low row indices, exactly as ``GroupSplit.split`` orders them.

        ``GroupSplit`` sorts by ``(-score, index)``; a stable descending
        sort on the score alone is the same ordering (equal scores keep
        their original index order), which lets the split kernel skip
        the per-element key tuples.  Any subclass with its own ``split``
        keeps its behavior via the fallback.
        """
        if split.__class__ is not GroupSplit:
            return split.split(range(count), self.scores.__getitem__)
        return kernels.split(self.scores, split.group_size(count))

    def _check_unknown(
        self,
        question_index: int,
        code_counts: Sequence[int],
        indices: Sequence[int],
        known: int,
    ) -> None:
        """Raise like the reference engine when a group member selected a
        label outside the question's options (``code_counts`` runs past
        ``known`` only on a question that interned a stray label)."""
        if not any(code_counts[known:]):
            return
        width = self.width
        column = self._codes[question_index::width]
        for row in indices:
            code = column[row]
            if known <= code < SKIP:
                raise AnalysisError(
                    f"examinee {self.examinee_ids[row]!r} selected unknown "
                    f"option {self._labels[question_index][code]!r} on "
                    f"question {question_index + 1}"
                )


class LiveCohortAnalysis:
    """An incrementally maintained §4.1 analysis for a live exam offering.

    The LMS monitor and delivery layer call :meth:`add_sitting` as each
    submission grades; :meth:`analysis` serves the current
    :class:`CohortAnalysis` from cache, re-running only the columnar
    sweep (split + counts) when the cohort changed — the interning and
    scoring work done at ingest time is never repeated, so keeping an
    analysis warm is far cheaper than recomputing from raw responses.
    The analysis is :meth:`ResponseMatrix.analyze` at its defaults.
    """

    def __init__(self, questions: Sequence[QuestionSpec]) -> None:
        self._matrix = ResponseMatrix(questions)
        self._cached: Optional[CohortAnalysis] = None

    def __len__(self) -> int:
        return len(self._matrix)

    def __contains__(self, examinee_id: str) -> bool:
        return examinee_id in self._matrix

    @property
    def width(self) -> int:
        """Questions per sitting (mirrors :attr:`ResponseMatrix.width`)."""
        return self._matrix.width

    def add_sitting(self, response: ExamineeResponses) -> None:
        """Fold one submission in; O(Q) regardless of cohort size."""
        self._matrix.add_sitting(response)
        if self._cached is not None:
            obs.count("live.cache.invalidations")
        self._cached = None
        obs.count("live.sittings.added")

    def extend_codes(
        self,
        examinee_ids: Sequence[str],
        codes: "bytes | bytearray | memoryview | numpy.ndarray",
    ) -> None:
        """Fold a pre-encoded shard in (see :meth:`ResponseMatrix.extend_codes`).

        This is the streaming sink for sharded array-native producers:
        ``repro.sim.vectorized.simulate_sharded(..., into=live)`` keeps a
        live analysis warm over a cohort far larger than any Python
        object list could hold.
        """
        self._matrix.extend_codes(examinee_ids, codes)
        if self._cached is not None:
            obs.count("live.cache.invalidations")
        self._cached = None
        obs.count("live.rows.extended", len(examinee_ids))

    def export_partial(self) -> Dict[str, object]:
        """The warm cohort as a scatter-gather partial (see
        :meth:`ResponseMatrix.export_partial`)."""
        return self._matrix.export_partial()

    def invalidate(self, examinee_id: Optional[str] = None) -> bool:
        """Drop one examinee's sitting (``examinee_id`` given), or just the
        cached result (no argument).  Returns whether anything changed."""
        if self._cached is not None:
            obs.count("live.cache.invalidations")
        if examinee_id is None:
            self._cached = None
            return True
        removed = self._matrix.remove_sitting(examinee_id)
        if removed:
            self._cached = None
        return removed

    def analysis(self) -> CohortAnalysis:
        """The current cohort's analysis (cached until the cohort changes)."""
        if self._cached is None:
            obs.count("live.cache.misses")
            self._cached = self._matrix.analyze()
        else:
            obs.count("live.cache.hits")
        return self._cached


def merge_partials(
    questions: Sequence[QuestionSpec],
    partials: Sequence[Dict[str, object]],
) -> ResponseMatrix:
    """Gather per-shard partials into one cohort matrix.

    ``partials`` are :meth:`ResponseMatrix.export_partial` payloads, one
    per shard.  The merged cohort is put in **canonical order** — rows
    sorted by examinee id — so the result is a pure function of *who
    answered what*, independent of how learners were sharded or which
    shard replied first; analyzing it is bit-identical to running
    ``analyze_cohort`` over the same sittings sorted the same way
    (extreme-group boundary ties break by cohort order, hence the
    canonical sort).

    Fast path: when no shard interned a stray label (every label table
    is exactly the spec's options), the raw byte rows are reordered and
    adopted wholesale via :meth:`ResponseMatrix.extend_codes`.  A shard
    that saw stray labels drops the merge to the decode path, where each
    row is rebuilt label-by-label and re-interned, preserving the
    reference engine's stray-label semantics.  Duplicate examinee ids
    across shards (a routing bug — shards own disjoint learners) raise
    :class:`~repro.core.errors.AnalysisError`.
    """
    specs = tuple(questions)
    width = len(specs)
    option_lists = [list(spec.options) for spec in specs]
    rows: List[Tuple[str, bytes, Sequence[List[str]]]] = []
    clean = True
    for partial in partials:
        if partial.get("format") != "mine-partial-v1":
            raise AnalysisError(
                f"unknown partial format {partial.get('format')!r}"
            )
        if int(partial["width"]) != width:
            raise AnalysisError(
                f"partial has {partial['width']} questions; exam has {width}"
            )
        ids = list(partial["examinee_ids"])
        codes = base64.b64decode(partial["codes_b64"])
        if len(codes) != len(ids) * width:
            raise AnalysisError(
                f"partial code buffer holds {len(codes)} cells; "
                f"{len(ids)} examinees x {width} questions "
                f"needs {len(ids) * width}"
            )
        labels = [list(per_question) for per_question in partial["labels"]]
        if labels != option_lists:
            clean = False
        for index, examinee_id in enumerate(ids):
            rows.append(
                (
                    str(examinee_id),
                    codes[index * width : (index + 1) * width],
                    labels,
                )
            )
    rows.sort(key=lambda row: row[0])
    merged = ResponseMatrix(specs)
    if not rows:
        return merged
    if clean:
        merged.extend_codes(
            [row[0] for row in rows], b"".join(row[1] for row in rows)
        )
        return merged
    responses = []
    for examinee_id, row, labels in rows:
        selections: List[Optional[str]] = []
        for question, code in enumerate(row):
            if code == SKIP:
                selections.append(None)
            elif code < len(labels[question]):
                selections.append(labels[question][code])
            else:
                raise AnalysisError(
                    f"examinee {examinee_id!r} has unmapped code {code} "
                    f"on question {question + 1}"
                )
        responses.append(
            ExamineeResponses(
                examinee_id=examinee_id, selections=tuple(selections)
            )
        )
    merged.extend(responses)
    return merged

