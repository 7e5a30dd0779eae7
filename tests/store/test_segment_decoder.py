"""One decoder per wire format, shared by the scanner and the tailer.

``scan_segment`` and :class:`JournalTailer` read segments through the
same offset-based decoder, so a tailer that polls a segment while it
grows byte by byte must end up with exactly the records one scan of the
finished segment finds: each once, in LSN order, whatever the cuts.
The writes mix schema-coded LMS events with fallback-form payloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import JournalCorruptError
from repro.store.events import answer_event, lifecycle_event
from repro.store.format import segment_header
from repro.store.journal import (
    JOURNAL_FORMATS,
    Journal,
    scan_segment,
    segment_files,
)
from repro.store.tail import JournalTailer

texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
stamps = st.floats(allow_nan=False, allow_infinity=False)
#: (type, data) pairs: fallback-form payloads, and LMS events that take
#: the code form
events = st.one_of(
    st.tuples(
        st.just("answer"),
        st.fixed_dictionaries(
            {
                "n": st.integers(min_value=-(2**40), max_value=2**40),
                "s": texts,
            }
        ),
    ),
    st.tuples(
        st.sampled_from(["enroll", "start", "submit"]),
        st.builds(lifecycle_event, texts, texts, stamps),
    ),
    st.tuples(
        st.just("answer"),
        st.builds(
            answer_event,
            texts,
            texts,
            texts,
            st.none() | texts | st.lists(texts, max_size=3),
            stamps,
        ),
    ),
)
#: each inner list is one write: a single append, or an append_batch
writes = st.lists(st.lists(events, min_size=1, max_size=4), min_size=1,
                  max_size=10)


def write_segment(directory, fmt, groups):
    with Journal.open(directory, fsync="never", format=fmt) as journal:
        for group in groups:
            if len(group) == 1:
                journal.append(*group[0])
            else:
                journal.append_batch(group)
    (segment,) = segment_files(directory)
    return segment


@pytest.mark.parametrize("fmt", JOURNAL_FORMATS, ids=lambda f: f"format{f}")
@settings(max_examples=40, deadline=None)
@given(groups=writes, data=st.data())
def test_tailer_over_growing_prefixes_matches_one_scan(
    tmp_path_factory, fmt, groups, data
):
    source = tmp_path_factory.mktemp("source")
    full = write_segment(source, fmt, groups)
    expected = scan_segment(full).records
    assert expected and expected[-1].lsn == sum(map(len, groups))
    raw = full.read_bytes()
    cuts = sorted(
        data.draw(
            st.lists(st.integers(min_value=0, max_value=len(raw)),
                     max_size=12),
            label="cuts",
        )
    )
    target = tmp_path_factory.mktemp("target")
    copy = target / full.name
    tailer = JournalTailer(target)
    seen = []
    for cut in cuts + [len(raw)]:
        copy.write_bytes(raw[:cut])
        seen.extend(tailer.poll())
    assert seen == expected
    assert tailer.poll() == []


def test_tailer_raises_on_a_bad_v2_magic(tmp_path):
    with Journal.open(tmp_path, fsync="never", format=2) as journal:
        journal.append("answer", {"n": 1})
    (segment,) = segment_files(tmp_path)
    raw = segment.read_bytes()
    assert raw.startswith(segment_header())
    segment.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(JournalCorruptError, match="magic"):
        JournalTailer(tmp_path).poll()
