"""Every WAL reader applies the same three reading rules.

``recover``, ``read_records``, the read model's ``rebuild`` and
``as_of``, the ``JournalTailer`` and ``Journal.open`` all judge a scan
with ``check_scan`` (a torn tip ends the log; damage raises), the
records with ``check_dense`` (a hole in the LSN sequence raises) and
their start with ``check_retired`` (history retired above a reader's
start raises), so they cannot disagree on what a damaged log holds.
The property at the bottom runs them over random logs of both formats.
"""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v1log import FORMATS, open_log

from repro.core.errors import JournalCorruptError
from repro.readmodel import as_of, rebuild
from repro.store.events import event
from repro.store.journal import (
    Journal,
    read_records,
    segment_files,
    segment_first_lsn,
)
from repro.store.recovery import recover
from repro.store.tail import JournalTailer, TailTruncatedError


def register(journal, count):
    for index in range(count):
        journal.append("register", event("register", f"l{index}", "", ""))


def tail_all(wal):
    """Poll a new tailer until a poll returns nothing; the LSNs seen."""
    tailer = JournalTailer(wal)
    lsns = []
    while True:
        batch = tailer.poll()
        if not batch:
            return lsns
        lsns.extend(record.lsn for record in batch)


def read_lsns(wal):
    return [record.lsn for record in read_records(wal)]


#: every reader, each reading the whole log; ``open`` reads only the
#: final segment
READERS = {
    "recover": recover,
    "read_records": read_lsns,
    "rebuild": rebuild,
    "as_of": lambda wal: as_of(wal, lsn=60),
    "tailer": tail_all,
    "open": lambda wal: Journal.open(wal, fsync="never").close(),
}
WHOLE_LOG_READERS = {
    name: read for name, read in READERS.items() if name != "open"
}


class TestWrongMagic:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_records_behind_a_wrong_magic_raise(self, tmp_path, reader):
        with Journal.open(tmp_path, fsync="never") as journal:
            register(journal, 5)
        (segment,) = segment_files(tmp_path)
        raw = bytearray(segment.read_bytes())
        raw[0] ^= 0xFF
        segment.write_bytes(bytes(raw))
        with pytest.raises(JournalCorruptError, match="magic"):
            READERS[reader](tmp_path)
        assert segment.read_bytes() == bytes(raw)


class TestLostSegment:
    def lost_middle(self, directory):
        """Twelve records in three segments of four; the middle one
        deleted."""
        with Journal.open(
            directory, fsync="never", segment_bytes=60
        ) as journal:
            register(journal, 12)
        segments = segment_files(directory)
        assert [segment_first_lsn(path) for path in segments] == [1, 5, 9]
        segments[1].unlink()
        return directory

    @pytest.mark.parametrize("reader", sorted(WHOLE_LOG_READERS))
    def test_every_reader_names_the_missing_records(self, tmp_path, reader):
        wal = self.lost_middle(tmp_path)
        with pytest.raises(JournalCorruptError, match=r"records 5\.\.8 "):
            WHOLE_LOG_READERS[reader](wal)

    def test_the_tailer_yields_the_records_before_the_hole_first(
        self, tmp_path
    ):
        tailer = JournalTailer(self.lost_middle(tmp_path))
        assert [record.lsn for record in tailer.poll()] == [1, 2, 3, 4]
        for _ in range(3):
            with pytest.raises(JournalCorruptError, match=r"records 5\.\.8 "):
                tailer.poll()
        assert tailer.position == 4


def copy_log(source, target, drop=None):
    shutil.copytree(source, target)
    if drop is not None:
        (target / drop.name).unlink()
    return target


@settings(max_examples=40, deadline=None)
@given(
    fmt=st.sampled_from(FORMATS),
    count=st.integers(min_value=5, max_value=60),
    segment_bytes=st.integers(min_value=60, max_value=400),
    data=st.data(),
)
def test_every_reader_follows_the_reading_rules(
    tmp_path_factory, fmt, count, segment_bytes, data
):
    base = tmp_path_factory.mktemp("rules")
    source = base / "source"
    with open_log(source, fmt, segment_bytes=segment_bytes) as journal:
        register(journal, count)
    segments = segment_files(source)

    if len(segments) >= 3:
        lost = data.draw(
            st.sampled_from(segments[1:-1]), label="lost segment"
        )
        wal = copy_log(source, base / "hole", drop=lost)
        for read in WHOLE_LOG_READERS.values():
            with pytest.raises(JournalCorruptError, match="are missing"):
                read(wal)

    if len(segments) >= 2:
        wal = copy_log(source, base / "retired", drop=segments[0])
        for read in (recover, rebuild, READERS["as_of"], tail_all):
            with pytest.raises(TailTruncatedError):
                read(wal)
        assert read_lsns(wal) == list(
            range(segment_first_lsn(segments[1]), count + 1)
        )

    final = segments[-1]
    raw = final.read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(raw)), label="cut")
    wal = copy_log(source, base / "cut")
    (wal / final.name).write_bytes(raw[:cut])
    lsns = read_lsns(wal)
    assert lsns == list(range(1, len(lsns) + 1))
    assert tail_all(wal) == lsns
    assert recover(wal).last_lsn == len(lsns)
    assert rebuild(wal).applied_lsn == len(lsns)
    assert as_of(wal, lsn=count)[0].applied_lsn == len(lsns)
    with Journal.open(wal, fsync="never") as journal:
        assert journal.last_lsn == len(lsns)
