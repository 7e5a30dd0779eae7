"""Read-model checkpoint files, rebuild refusal, and as_of semantics."""

import json

import pytest

from readmodel_helpers import journaled_lms, enroll_cohort

from repro.core.errors import StoreError
from repro.readmodel import (
    ReadModel,
    as_of,
    latest_readmodel_checkpoint,
    load_readmodel,
    readmodel_files,
    rebuild,
    save_readmodel,
)
from repro.store import Checkpointer, Journal


def drive(wal_dir, learners=3, start=100.0, **journal_kwargs):
    """A small journaled history: enroll, sit, submit per learner."""
    journal = Journal.open(wal_dir, fsync="never", **journal_kwargs)
    lms, clock = journaled_lms(journal, start=start)
    enroll_cohort(lms, [f"l{n}" for n in range(learners)])
    for n in range(learners):
        lms.start_exam(f"l{n}", "ex1")
        lms.answer(f"l{n}", "ex1", "q1", "A")
        lms.answer(f"l{n}", "ex1", "q2", "B" if n % 2 else "A")
        clock.advance(30.0)
        lms.submit(f"l{n}", "ex1")
    journal.sync()
    return journal, lms, clock


class TestCheckpointFiles:
    def test_save_load_round_trip(self, tmp_path):
        journal, lms, _ = drive(tmp_path)
        model = rebuild(tmp_path)
        path = save_readmodel(model, tmp_path)
        assert path.name == f"readmodel-{model.applied_lsn:020d}.json"
        restored = load_readmodel(path)
        assert restored.applied_lsn == model.applied_lsn
        assert json.dumps(restored.snapshot(), sort_keys=True) == json.dumps(
            model.snapshot(), sort_keys=True
        )
        journal.close()

    def test_retention_prunes_to_keep(self, tmp_path):
        journal, lms, clock = drive(tmp_path)
        for n in range(4):
            lms.start_exam("l0", "ex1")
            lms.submit("l0", "ex1")
            journal.sync()
            save_readmodel(rebuild(tmp_path), tmp_path, keep=2)
        files = readmodel_files(tmp_path)
        assert len(files) == 2
        assert latest_readmodel_checkpoint(tmp_path) == files[-1]
        journal.close()

    def test_save_fsyncs_the_directory_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        import os
        import stat

        journal, _, _ = drive(tmp_path)
        model = rebuild(tmp_path)
        events = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(("fsync", kind))
            return real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        path = save_readmodel(model, tmp_path)
        monkeypatch.undo()
        renamed = events.index(("replace", path.name))
        assert ("fsync", "file") in events[:renamed]
        assert ("fsync", "dir") in events[renamed:]
        journal.close()

    def test_keep_zero_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            save_readmodel(ReadModel(), tmp_path, keep=0)

    def test_lsn_mismatch_detected(self, tmp_path):
        journal, _, _ = drive(tmp_path)
        model = rebuild(tmp_path)
        path = save_readmodel(model, tmp_path)
        lying = path.with_name(f"readmodel-{model.applied_lsn + 7:020d}.json")
        path.rename(lying)
        with pytest.raises(StoreError):
            load_readmodel(lying)
        journal.close()

    def test_checkpoints_invisible_to_wal_and_lms_readers(self, tmp_path):
        """readmodel-* files must not confuse the segment scanner or
        the LMS checkpoint loader sharing the directory."""
        from repro.store import recover, segment_files

        journal, lms, _ = drive(tmp_path)
        save_readmodel(rebuild(tmp_path), tmp_path)
        assert all(
            path.name.startswith("wal-") for path in segment_files(tmp_path)
        )
        report = recover(tmp_path)  # must not trip on readmodel-*.json
        assert len(report.lms.results_for("ex1")) == 3
        journal.close()


class TestRebuild:
    def test_rebuild_refuses_a_retired_head(self, tmp_path):
        journal, lms, clock = drive(
            tmp_path, learners=8, segment_bytes=256
        )
        checkpointer = Checkpointer(lms, journal, keep=1)
        checkpointer.checkpoint()
        journal.retire_covered(checkpointer.last_covered_lsn)
        from repro.store import segment_files, segment_first_lsn

        assert segment_first_lsn(segment_files(tmp_path)[0]) > 1
        with pytest.raises(StoreError, match="retired"):
            rebuild(tmp_path)
        journal.close()

    def test_rebuild_of_missing_directory_is_empty(self, tmp_path):
        model = rebuild(tmp_path / "never-written")
        assert model.applied_lsn == 0
        assert model.exams == {}


class TestAsOf:
    def test_needs_exactly_one_target(self, tmp_path):
        with pytest.raises(StoreError):
            as_of(tmp_path)
        with pytest.raises(StoreError):
            as_of(tmp_path, lsn=3, ts=100.0)

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_ts_rejected(self, tmp_path, ts):
        # NaN compares false against every stamp, so no checkpoint would
        # qualify and no record would stop the replay: the whole journal
        # would be answered as a past instant
        journal, _, _ = drive(tmp_path)
        with pytest.raises(StoreError, match="finite"):
            as_of(tmp_path, ts=ts)
        journal.close()

    def test_lsn_target_uses_nearest_checkpoint(self, tmp_path):
        journal, lms, _ = drive(tmp_path)
        mid = journal.last_lsn
        save_readmodel(rebuild(tmp_path), tmp_path)
        lms.start_exam("l0", "ex1")
        lms.answer("l0", "ex1", "q1", "C")
        lms.submit("l0", "ex1")
        journal.sync()
        model, replayed = as_of(tmp_path, lsn=journal.last_lsn)
        # restored from the checkpoint at `mid`: only the suffix replays
        assert replayed == journal.last_lsn - mid
        assert model.applied_lsn == journal.last_lsn
        assert model.exam("ex1").submits == 4
        journal.close()

    def test_ts_target_stops_at_the_clock(self, tmp_path):
        journal, lms, clock = drive(tmp_path, start=100.0)
        # submits land at ts 130, 160, 190 (the clock advances 30
        # between each learner's answers and their submit)
        model, _ = as_of(tmp_path, ts=165.0)
        assert model.exam("ex1").submits == 2
        early, _ = as_of(tmp_path, ts=99.0)
        # catalog events carry no clock: the exam exists, nothing sat
        assert early.exam("ex1").submits == 0
        journal.close()

    def test_ts_target_picks_checkpoint_by_event_time(self, tmp_path):
        journal, lms, clock = drive(tmp_path, start=100.0)
        save_readmodel(rebuild(tmp_path), tmp_path, keep=4)
        before = journal.last_lsn
        clock.advance(1000.0)
        lms.start_exam("l1", "ex1")
        lms.submit("l1", "ex1")
        journal.sync()
        save_readmodel(rebuild(tmp_path), tmp_path, keep=4)
        # a target between the two checkpoints must restore the FIRST
        # one (the second's last event is past the target)
        model, replayed = as_of(tmp_path, ts=500.0)
        assert model.applied_lsn == before
        assert replayed == 0
        journal.close()

    def test_uncovered_retired_gap_raises(self, tmp_path):
        journal, lms, _ = drive(tmp_path, segment_bytes=512)
        checkpointer = Checkpointer(lms, journal, keep=1)
        checkpointer.checkpoint()
        journal.retire_covered(checkpointer.last_covered_lsn)
        # no read-model checkpoint exists to bridge the retired head
        with pytest.raises(StoreError, match="retired"):
            as_of(tmp_path, lsn=journal.last_lsn)
        journal.close()

    def test_checkpoint_bridges_a_retired_head(self, tmp_path):
        journal, lms, _ = drive(tmp_path, segment_bytes=512)
        save_readmodel(rebuild(tmp_path), tmp_path)
        checkpointer = Checkpointer(lms, journal, keep=1)
        checkpointer.checkpoint()
        journal.retire_covered(checkpointer.last_covered_lsn)
        model, replayed = as_of(tmp_path, lsn=journal.last_lsn)
        assert model.exam("ex1").submits == 3
        journal.close()
