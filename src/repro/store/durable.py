"""Durable file replacement: the one writer behind every state file.

LMS checkpoints, read-model checkpoints and calibration snapshots are
each read back by a later boot, so none of them may ever be seen half
written.  :func:`write_durably` gives all three the same guarantee.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

__all__ = ["write_durably"]


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
