"""The columnar engine's two kernel sets and the rule that picks one.

Every bulk step of :class:`~repro.core.columnar.ResponseMatrix` — encode
a cohort's labels, validate adopted codes, score rows, order the
high/low split, count a group's codes per question — is one method of a
kernel set, and both sets answer every call identically:

* :data:`STDLIB_KERNELS` works on whole columns of ``bytes``: a
  question's column is a stride slice, ``translate`` maps or filters it
  in C, ``count`` tallies a code, and the columns' 0/1 hit maps summed as
  little-endian integers give every row's score at once.  No Python step
  runs per cell, and nothing beyond the standard library is imported.
* :data:`NUMPY_KERNELS` runs validate, score, split and count on numpy
  arrays.  It encodes with the stdlib kernel: one ``translate`` over the
  cohort's bytes beats a numpy gather, which first widens every cell to
  an int64 index (0.5 against 5.0 ms at 10 000 x 50 cells; Python 3.11,
  numpy 2.4, 2 vCPUs).

:func:`kernels_for` picks by the matrix's cell count (examinees x
questions) against :data:`NUMPY_CROSSOVER_CELLS`.  Below it the stdlib
set is as fast as numpy, so a server whose cohorts stay there never
imports numpy at all; the first call past it imports numpy through
:func:`load_numpy`, the one loader the package has.
"""

from __future__ import annotations

import functools
from operator import add as _add
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "NUMPY_CROSSOVER_CELLS",
    "SKIP",
    "UNSEEN",
    "load_numpy",
    "kernels_for",
    "STDLIB_KERNELS",
    "NUMPY_KERNELS",
]

#: Interned code for a skipped question (``selections[i] is None``).
SKIP = 0xFF

#: Encode marker for "this character is no label of the question"; no
#: real code reaches it because interning stops before 0xFE labels.
UNSEEN = 0xFE

#: Matrix cells (examinees x questions) from which a kernel call runs on
#: numpy: the size where one full merge-and-analyse first costs about
#: 1 ms more on the stdlib kernels (``test_bench_kernel_crossover`` in
#: ``benchmarks/test_bench_columnar_engine.py`` prints the table, and
#: ``docs/analysis-model.md`` records it).
NUMPY_CROSSOVER_CELLS = 100_000


@functools.lru_cache(maxsize=None)
def load_numpy():
    """numpy, imported on the first call; None where it is not installed.

    The package's one numpy import: :func:`kernels_for` calls it for the
    first matrix past :data:`NUMPY_CROSSOVER_CELLS`, and
    :mod:`repro.sim.vectorized` when it loads.  Concurrent first calls
    are safe: the import system makes the second wait for the first.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def kernels_for(cells: int):
    """The kernel set for a matrix of ``cells`` cells."""
    if cells >= NUMPY_CROSSOVER_CELLS and load_numpy() is not None:
        return NUMPY_KERNELS
    return STDLIB_KERNELS


@functools.lru_cache(maxsize=None)
def _hits(key: int) -> bytes:
    """A translate table mapping ``key`` to 1 and every other code to 0."""
    return bytes(key) + b"\x01" + bytes(255 - key)


@functools.lru_cache(maxsize=None)
def _valid(options: int) -> bytes:
    """The codes a question with ``options`` options may hold."""
    return bytes(range(options)) + bytes((SKIP,))


class StdlibKernels:
    """Whole-column kernels on ``bytes``; see the module docstring."""

    name = "stdlib"

    def encode(self, raw: bytes, luts: Sequence[bytes], width: int) -> Optional[bytes]:
        """Codes for ``raw``, one ASCII byte per cell, row-major: each
        column goes through its question's 256-byte table.  None when a
        cell is :data:`UNSEEN` (a label the tables do not hold)."""
        if luts.count(luts[0]) == width:  # every question codes alike
            codes = raw.translate(luts[0])
        else:
            codes = bytearray(len(raw))
            for question, lut in enumerate(luts):
                codes[question::width] = raw[question::width].translate(lut)
        if UNSEEN in codes:
            return None
        return bytes(codes)

    def first_invalid(
        self, buffer: bytes, width: int, known: Sequence[int]
    ) -> Optional[int]:
        """Flat index of the first cell that is neither an option index
        of its question (``< known[q]``) nor :data:`SKIP`; None if none."""
        if not buffer.translate(None, _valid(min(known))):
            return None
        offenders = []
        for question, options in enumerate(known):
            column = buffer[question::width]
            stray = column.translate(None, _valid(options))
            if stray:
                row = min(map(column.index, set(stray)))
                offenders.append(row * width + question)
        return min(offenders, default=None)

    def scores(
        self, buffer: bytes, count: int, width: int, correct: Sequence[int]
    ) -> List[int]:
        """Per row, how many cells equal their question's key code.

        Each column translates to a 0/1 hit map; read as a little-endian
        integer and summed, byte ``i`` of the total is row ``i``'s score.
        A byte holds 255, so columns are summed 255 at a time.
        """
        scores: Optional[List[int]] = None
        for start in range(0, width, 255):
            total = 0
            for question in range(start, min(start + 255, width)):
                hits = buffer[question::width].translate(_hits(correct[question]))
                total += int.from_bytes(hits, "little")
            chunk = total.to_bytes(count, "little")
            scores = list(chunk) if scores is None else list(map(_add, scores, chunk))
        return scores

    def split(self, scores: Sequence[int], size: int) -> Tuple[List[int], List[int]]:
        """The ``size`` highest and lowest rows; ties keep row order."""
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        return order[:size], order[-size:]

    def group_counts(
        self,
        codes: "bytes | bytearray",
        width: int,
        rows: Sequence[int],
        sizes: Sequence[int],
    ) -> List[List[int]]:
        """Per question ``q``: how often each code ``0..sizes[q]-1``
        occurs among ``rows``."""
        group = b"".join([codes[row * width : (row + 1) * width] for row in rows])
        counts = []
        for question, size in enumerate(sizes):
            column = group[question::width]
            counts.append(list(map(column.count, range(size))))
        return counts


class NumpyKernels(StdlibKernels):
    """The kernels on numpy arrays (imported on first use); ``encode`` is
    the stdlib one (see the module docstring)."""

    name = "numpy"

    def first_invalid(
        self, buffer: bytes, width: int, known: Sequence[int]
    ) -> Optional[int]:
        np = load_numpy()
        arr = np.frombuffer(buffer, dtype=np.uint8).reshape(-1, width)
        bad = (arr >= np.array(known, dtype=np.uint8)[None, :]) & (arr != SKIP)
        if not bad.any():
            return None
        return int(np.flatnonzero(bad)[0])

    def scores(
        self, buffer: bytes, count: int, width: int, correct: Sequence[int]
    ) -> List[int]:
        np = load_numpy()
        arr = np.frombuffer(buffer, dtype=np.uint8).reshape(count, width)
        key = np.array(correct, dtype=np.uint8)
        return (arr == key[None, :]).sum(axis=1).tolist()

    def split(self, scores: Sequence[int], size: int) -> Tuple[List[int], List[int]]:
        np = load_numpy()
        order = np.argsort(-np.asarray(scores, dtype=np.int64), kind="stable")
        return order[:size].tolist(), order[-size:].tolist()

    def group_counts(
        self,
        codes: "bytes | bytearray",
        width: int,
        rows: Sequence[int],
        sizes: Sequence[int],
    ) -> List[List[int]]:
        np = load_numpy()
        arr = np.frombuffer(codes, dtype=np.uint8).reshape(-1, width)
        group = arr[np.asarray(rows, dtype=np.intp)]
        # shift each column into its own 256-wide bucket range so one
        # bincount counts every (question, code) pair at once
        offsets = group.astype(np.int64) + (
            np.arange(width, dtype=np.int64) * 256
        )[None, :]
        counts = np.bincount(offsets.ravel(), minlength=width * 256)
        table = counts.reshape(width, 256)[:, : max(sizes)].tolist()
        return [row[:size] for row, size in zip(table, sizes)]


STDLIB_KERNELS = StdlibKernels()
NUMPY_KERNELS = NumpyKernels()
