"""The in-process WAL follower (repro.readmodel.service)."""

import json

import pytest
from readmodel_helpers import journaled_lms, enroll_cohort

from repro.readmodel import ReadModel, readmodel_files, rebuild, save_readmodel
from repro.readmodel.service import ReadModelService
from repro.server.serialize import analysis_to_dict
from repro.store import Journal


def sit(lms, clock, learner_id, answers=(("q1", "A"), ("q2", "B"))):
    lms.start_exam(learner_id, "ex1")
    for item_id, response in answers:
        lms.answer(learner_id, "ex1", item_id, response)
    clock.advance(10.0)
    return lms.submit(learner_id, "ex1")


class TestSync:
    def test_sync_gives_read_your_writes(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        cohort = ["amy", "bob", "cat", "dan"]
        enroll_cohort(lms, cohort)
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        assert service.model.exam("ex1").enrolled == set(cohort)
        sit(lms, clock, "amy")
        journal.sync()
        assert service.info()["lag"] == 4  # start + 2 answers + submit
        service.sync()
        assert service.info()["lag"] == 0
        assert service.model.exam("ex1").submits == 1
        for learner_id in cohort[1:]:
            sit(lms, clock, learner_id)
        journal.sync()
        service.sync()
        # the fold agrees with the serving engine, live
        assert json.dumps(
            analysis_to_dict(service.model.exam("ex1").analysis()),
            sort_keys=True,
        ) == json.dumps(
            analysis_to_dict(lms.live_analysis("ex1")), sort_keys=True
        )
        journal.close()

    def test_follower_thread_catches_up(self, tmp_path):
        import time

        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        service = ReadModelService(tmp_path, journal=journal)
        service.start()
        try:
            sit(lms, clock, "amy")
            journal.sync()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with service.lock:
                    if service.model.applied_lsn == journal.last_lsn:
                        break
                time.sleep(0.01)
            with service.lock:
                assert service.model.applied_lsn == journal.last_lsn
        finally:
            service.close()
            journal.close()

    def test_info_reports_position_and_lag(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        journal.sync()
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        info = service.info()
        assert info["applied_lsn"] == journal.last_lsn
        assert info["lag"] == 0
        assert info["exams"] == 1
        journal.close()


class TestResume:
    def test_resumes_from_newest_checkpoint(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        sit(lms, clock, "amy")
        journal.sync()

        first = ReadModelService(tmp_path, journal=journal)
        path = first.checkpoint()
        assert path in readmodel_files(tmp_path)
        checkpoint_lsn = first.model.applied_lsn

        sit(lms, clock, "bob")
        journal.sync()
        second = ReadModelService(tmp_path, journal=journal)
        # restored at the checkpoint, not at zero
        assert second.model.applied_lsn == checkpoint_lsn
        second.sync()
        assert second.model.applied_lsn == journal.last_lsn
        assert second.model.exam("ex1").submits == 2
        journal.close()

    def test_corrupt_checkpoint_falls_back_to_full_fold(self, tmp_path):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        sit(lms, clock, "amy")
        journal.sync()
        path = save_readmodel(rebuild(tmp_path), tmp_path)
        path.write_text("{ torn", encoding="utf-8")
        service = ReadModelService(tmp_path, journal=journal)
        service.sync()
        assert service.model.applied_lsn == journal.last_lsn
        assert service.model.exam("ex1").submits == 1
        journal.close()

    def test_unreadable_newest_checkpoint_resumes_from_the_older_one(
        self, tmp_path
    ):
        """The follower keeps two checkpoints so that one bad file never
        strands it: with the newest unreadable and the journal head
        retired, it must resume from the older one, not from LSN 0."""
        from repro.store import Checkpointer, segment_files, segment_first_lsn

        journal = Journal.open(tmp_path, fsync="never", segment_bytes=256)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, [f"l{n}" for n in range(4)])
        follower = ReadModelService(tmp_path, journal=journal)
        checkpointer = Checkpointer(lms, journal)
        for n in range(4):
            sit(lms, clock, f"l{n}")
            journal.sync()
            # the server's checkpoint pass, in its order
            follower.sync()
            checkpointer.checkpoint()
            follower.checkpoint()
        older, newest = readmodel_files(tmp_path)
        oldest_segment = segment_first_lsn(segment_files(tmp_path)[0])
        assert oldest_segment > 1, "compaction must retire the head"
        newest.write_text("{ torn", encoding="utf-8")

        service = ReadModelService(tmp_path, journal=journal)
        assert 0 < service.model.applied_lsn < journal.last_lsn
        assert service.model.applied_lsn + 1 >= oldest_segment
        service.sync()
        assert service.model.applied_lsn == journal.last_lsn
        assert service.model.exam("ex1").submits == 4
        journal.close()

    def test_truncation_ahead_restarts_from_checkpoint(self, tmp_path):
        """An external compactor retiring records past a stale
        follower's position forces a restart from the newest read-model
        checkpoint (which covers the gap) rather than a silent skip."""
        from repro.store import Checkpointer, segment_files, segment_first_lsn

        journal = Journal.open(tmp_path, fsync="never", segment_bytes=256)
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, [f"l{n}" for n in range(6)])
        journal.sync()
        # this follower parks early, then a lot of history accumulates
        stale = ReadModelService(tmp_path, journal=journal)
        stale.sync()
        parked = stale.model.applied_lsn
        for n in range(6):
            sit(lms, clock, f"l{n}")
        journal.sync()
        # another follower checkpoints at the tip, then compaction runs
        ReadModelService(tmp_path, journal=journal).checkpoint()
        checkpointer = Checkpointer(lms, journal, keep=1)
        checkpointer.checkpoint()
        journal.retire_covered(checkpointer.last_covered_lsn)
        oldest = segment_first_lsn(segment_files(tmp_path)[0])
        assert oldest > parked + 1, "compaction must outrun the follower"
        stale.sync()
        assert stale.restarts == 1
        assert stale.model.applied_lsn == journal.last_lsn
        assert stale.model.exam("ex1").submits == 6
        journal.close()

    def test_a_write_during_the_snapshot_keeps_the_follower_history(
        self, tmp_path, monkeypatch
    ):
        """Records the follower has not yet polled, then one written
        while the checkpoint file is being saved: the pass must not
        retire the segment holding the unpolled ones."""
        from repro.lms import persistence
        from repro.lms.learners import Learner
        from repro.store import Checkpointer

        journal = Journal.open(tmp_path, fsync="always")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        follower = ReadModelService(tmp_path, journal=journal)
        follower.sync()
        enroll_cohort(lms, ["cat", "dan"])
        real_save = persistence.save_lms

        def save_lms(payload, path, wal_lsn):
            lms.register_learner(Learner(learner_id="eve", name=""))
            return real_save(payload, path, wal_lsn=wal_lsn)

        monkeypatch.setattr(persistence, "save_lms", save_lms)
        Checkpointer(lms, journal).checkpoint()
        follower.sync()
        assert follower.restarts == 0
        assert follower.model.applied_lsn == journal.last_lsn
        assert follower.model.exam("ex1").enrolled == {
            "amy", "bob", "cat", "dan"
        }
        journal.close()


def as_json(value):
    return json.dumps(value, sort_keys=True)


def fail_first_enroll(monkeypatch):
    """Make the fold raise once, on the first ``enroll`` it meets."""
    fold = ReadModel._fold
    failed = []

    def flaky(self, type_, data):
        if type_ == "enroll" and not failed:
            failed.append(data["learner_id"])
            raise RuntimeError("fold failed")
        return fold(self, type_, data)

    monkeypatch.setattr(ReadModel, "_fold", flaky)
    return failed


class TestFoldErrors:
    def test_a_failed_record_is_retried_not_skipped(self, tmp_path, monkeypatch):
        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy", "bob"])
        sit(lms, clock, "amy")
        journal.sync()
        service = ReadModelService(tmp_path, journal=journal)
        failed = fail_first_enroll(monkeypatch)
        with pytest.raises(RuntimeError):
            service.sync()
        assert failed == ["amy"]
        # the model stops before the failed record, untouched by it
        assert service.model.applied_lsn < journal.last_lsn
        assert service.model.exam("ex1").enrolled == set()
        service.sync()
        assert service.model.applied_lsn == journal.last_lsn
        assert service.model.exam("ex1").enrolled == {"amy", "bob"}
        assert as_json(service.model.snapshot()) == as_json(
            rebuild(tmp_path).snapshot()
        )
        # the tailer's lifetime totals survive the re-positioning
        assert service.info()["records_read"] > journal.last_lsn
        journal.close()

    def test_follower_thread_survives_any_fold_error(
        self, tmp_path, monkeypatch
    ):
        import time

        from repro import obs
        from repro.obs import Registry

        journal = Journal.open(tmp_path, fsync="never")
        lms, clock = journaled_lms(journal)
        enroll_cohort(lms, ["amy"])
        sit(lms, clock, "amy")
        journal.sync()
        fail_first_enroll(monkeypatch)
        registry = Registry(enabled=True)
        previous = obs.set_registry(registry)
        service = ReadModelService(tmp_path, journal=journal)
        service.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with service.lock:
                    if service.model.applied_lsn == journal.last_lsn:
                        break
                time.sleep(0.01)
            with service.lock:
                assert service.model.applied_lsn == journal.last_lsn
                assert service.model.exam("ex1").submits == 1
            assert registry.counter("readmodel.follower.errors") == 1
        finally:
            service.close()
            obs.set_registry(previous)
            journal.close()
