"""Durable state files: one writer, and one naming rule.

LMS checkpoints, read-model checkpoints and calibration snapshots are
each read back by a later boot, so none of them may ever be seen half
written.  :func:`write_durably` gives all three the same guarantee.

WAL segments and both kinds of checkpoint are named after an LSN,
``<prefix><20-digit lsn><suffix>``; :class:`LsnFiles` is the one rule
for making, parsing, listing and pruning such names.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.core.errors import StoreError

__all__ = ["LsnFiles", "write_durably"]


def write_durably(path: "str | Path", chunks: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``chunks``, atomically and
    durably.

    The chunks stream into a temp file in the destination directory,
    which is fsynced and :func:`os.replace`-d over ``path``; then the
    directory is fsynced, so the new name survives power loss.  A
    failure at any point before the rename removes the temp file and
    leaves the previous ``path`` (or its absence) as it was.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            for chunk in chunks:
                stream.write(chunk)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


@dataclass(frozen=True)
class LsnFiles:
    """The files of one kind in a directory, each named after an LSN.

    ``suffixes[0]`` is the suffix new names take; a listing also finds
    the others.  ``kind`` names the files in errors.
    """

    prefix: str
    suffixes: Tuple[str, ...]
    kind: str

    def name(self, lsn: int) -> str:
        return f"{self.prefix}{lsn:020d}{self.suffixes[0]}"

    def lsn(self, path: Path) -> int:
        """The LSN in a file's name; :class:`StoreError` if it has none."""
        name = path.name
        if name.startswith(self.prefix) and path.suffix in self.suffixes:
            stem = name[len(self.prefix):-len(path.suffix)]
            if stem.isdecimal():
                return int(stem)
        raise StoreError(f"not a {self.kind} name: {name}")

    def files(self, directory: "str | Path") -> List[Path]:
        """Every such file in the directory, ordered by (LSN, name): two
        files with one LSN keep a fixed order whatever the listing's."""
        base = Path(directory)
        if not base.is_dir():
            return []
        found = [
            path
            for path in base.iterdir()
            if path.name.startswith(self.prefix)
            and path.suffix in self.suffixes
        ]
        return sorted(found, key=lambda path: (self.lsn(path), path.name))

    def newest(
        self, directory: "str | Path", at_or_below: Optional[int] = None
    ) -> Optional[Path]:
        """The newest file (optionally at or below an LSN), or None."""
        best: Optional[Path] = None
        for path in self.files(directory):
            if at_or_below is not None and self.lsn(path) > at_or_below:
                break
            best = path
        return best

    def prune(self, directory: "str | Path", keep: int) -> List[Path]:
        """Delete all but the newest ``keep`` files; returns the deleted."""
        pruned = self.files(directory)[:-keep]
        for path in pruned:
            path.unlink()
        return pruned
