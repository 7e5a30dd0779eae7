"""Tests for LMS persistence (repro.lms.persistence)."""

import json

import pytest

from repro.core.errors import BankError
from repro.delivery.clock import ManualClock
from repro.exams.authoring import ExamBuilder
from repro.items.choice import MultipleChoiceItem
from repro.items.essay import EssayItem
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.lms.persistence import collect_payload, load_lms, save_lms
from repro.lms.tracking import EventKind


def busy_lms():
    lms = Lms(clock=ManualClock())
    exam = (
        ExamBuilder("ex1", "Exam One")
        .add_item(
            MultipleChoiceItem.build("q1", "Pick A.", ["a", "b"], correct_index=0)
        )
        .add_item(EssayItem(item_id="q2", question="Discuss.", max_points=4))
        .time_limit(600)
        .build()
    )
    lms.offer_exam(exam)
    for learner_id in ("amy", "bob"):
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id.title()))
        lms.enroll(learner_id, "ex1")
    lms.start_exam("amy", "ex1")
    lms.answer("amy", "ex1", "q1", "A")
    lms.answer("amy", "ex1", "q2", "a long enough essay answer")
    lms.submit("amy", "ex1")
    return lms


class TestSaveLoad:
    def test_round_trip_core_state(self, tmp_path):
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path, clock=ManualClock())
        assert restored.offered_exams() == ["ex1"]
        assert restored.exam("ex1").title == "Exam One"
        assert sorted(restored.learners.ids()) == ["amy", "bob"]
        assert restored.enrolled("ex1") == ["amy", "bob"]

    def test_results_restored(self, tmp_path):
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        sittings = restored.results_for("ex1")
        assert len(sittings) == 1
        sitting = sittings[0]
        assert sitting.learner_id == "amy"
        assert sitting.scores["q1"].correct is True
        assert sitting.scores["q2"].needs_manual_grading
        assert sitting.pending_items() == ["q2"]

    def test_learner_progress_restored(self, tmp_path):
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        amy = restored.learners.get("amy")
        assert amy.status_for("ex1") in ("passed", "failed", "incomplete")
        assert "ex1" in amy.course_scores

    def test_tracking_restored(self, tmp_path):
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        assert len(restored.tracking) == len(lms.tracking)
        assert restored.tracking.counts_by_kind()[EventKind.SUBMITTED] == 1

    def test_restored_lms_accepts_new_sittings(self, tmp_path):
        """The reloaded LMS is live: bob can sit the exam."""
        path = tmp_path / "lms.json"
        save_lms(busy_lms(), path)
        restored = load_lms(path, clock=ManualClock())
        restored.start_exam("bob", "ex1")
        restored.answer("bob", "ex1", "q1", "A")
        graded = restored.submit("bob", "ex1")
        assert graded.learner_id == "bob"
        assert len(restored.results_for("ex1")) == 2

    def test_analysis_works_on_restored_results(self, tmp_path):
        lms = Lms(clock=ManualClock())
        exam = (
            ExamBuilder("e", "E")
            .add_item(
                MultipleChoiceItem.build("q1", "A?", ["a", "b"], correct_index=0)
            )
            .build()
        )
        lms.offer_exam(exam)
        for index in range(8):
            learner_id = f"s{index}"
            lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
            lms.enroll(learner_id, "e")
            lms.start_exam(learner_id, "e")
            lms.answer(learner_id, "e", "q1", "A" if index < 4 else "B")
            lms.submit(learner_id, "e")
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        analysis = restored.analyze_exam("e")
        assert analysis.questions[0].discrimination == 1.0


class TestMonitorRoundTrip:
    """save_lms/load_lms used to drop the proctoring record entirely."""

    def test_frames_and_totals_survive_restart(self, tmp_path):
        lms = busy_lms()
        # force extra captures beyond the poll-driven one
        lms.monitor.capture("amy", "ex1", 31.0)
        lms.monitor.capture("amy", "ex1", 62.0)
        before = lms.monitor
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        after = restored.monitor
        assert after.metrics() == before.metrics()
        previous = before.frames_for("amy", "ex1")
        current = after.frames_for("amy", "ex1")
        assert [frame.sequence for frame in current] == [
            frame.sequence for frame in previous
        ]
        # payload integrity: byte-identical frames, checksums included
        assert [frame.checksum() for frame in current] == [
            frame.checksum() for frame in previous
        ]
        assert [frame.elapsed_seconds for frame in current] == [
            frame.elapsed_seconds for frame in previous
        ]

    def test_capture_schedule_survives(self, tmp_path):
        """The restored monitor does not double-capture immediately."""
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        # last capture was at elapsed 0.0 during start; a poll inside the
        # interval must not capture again
        assert restored.monitor.poll("amy", "ex1", 1.0) is None
        assert restored.monitor.poll("amy", "ex1", 31.0) is not None

    def test_dropped_counts_and_config_survive(self, tmp_path):
        from repro.lms.monitor import ExamMonitor

        monitor = ExamMonitor(interval_seconds=5.0, max_frames=2)
        lms = Lms(clock=ManualClock(), monitor=monitor)
        exam = (
            ExamBuilder("e", "E")
            .add_item(
                MultipleChoiceItem.build("q1", "A?", ["a", "b"], correct_index=0)
            )
            .build()
        )
        lms.offer_exam(exam)
        for elapsed in (0.0, 5.0, 10.0, 15.0):
            monitor.capture("x", "e", elapsed)
        assert monitor.dropped_count("x", "e") == 2
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        assert restored.monitor.interval_seconds == 5.0
        assert restored.monitor.max_frames == 2
        assert restored.monitor.dropped_count("x", "e") == 2
        # sequences continue where they left off (no reused frame ids)
        frame = restored.monitor.capture("x", "e", 20.0)
        assert frame.sequence == 4

    def test_old_state_files_without_monitor_section_load(self, tmp_path):
        lms = busy_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        payload = json.loads(path.read_text())
        del payload["monitor"]
        path.write_text(json.dumps(payload))
        restored = load_lms(path)
        assert restored.monitor.metrics()["frames_captured"] == 0


def resumable_lms():
    """An LMS with one in-progress and one suspended sitting."""
    lms = Lms(clock=ManualClock(50.0))
    exam = (
        ExamBuilder("ex1", "Exam One")
        .add_item(
            MultipleChoiceItem.build("q1", "Pick A.", ["a", "b"], correct_index=0)
        )
        .add_item(
            MultipleChoiceItem.build("q2", "Pick B.", ["a", "b"], correct_index=1)
        )
        .resumable(True)
        .time_limit(600)
        .build()
    )
    lms.offer_exam(exam)
    for learner_id in ("amy", "bob"):
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id.title()))
        lms.enroll(learner_id, "ex1")
        lms.start_exam(learner_id, "ex1")
    lms.clock.advance(10.0)
    lms.answer("amy", "ex1", "q1", "A")  # amy stays in progress
    lms.answer("bob", "ex1", "q1", "B")
    lms.clock.advance(5.0)
    lms.suspend("bob", "ex1")  # bob walks away
    return lms


class TestInFlightSittings:
    """save_lms/load_lms used to silently drop un-submitted sittings."""

    def test_in_progress_sitting_survives_restart(self, tmp_path):
        lms = resumable_lms()
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)
        sitting = restored.sitting("amy", "ex1")
        assert sitting.session.state.value == "in_progress"
        assert sitting.session.response_to("q1") == "A"
        assert sitting.item_order == lms.sitting("amy", "ex1").item_order

    def test_restored_sitting_continues_to_submission(self, tmp_path):
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        restored = load_lms(path, clock=ManualClock(200.0))
        restored.answer("amy", "ex1", "q2", "B")
        graded = restored.submit("amy", "ex1")
        assert graded.scores["q1"].correct is True
        assert graded.scores["q2"].correct is True

    def test_suspended_sitting_survives_and_resumes(self, tmp_path):
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        restored = load_lms(path, clock=ManualClock(500.0))
        sitting = restored.sitting("bob", "ex1")
        assert sitting.session.state.value == "suspended"
        restored.resume("bob", "ex1")
        restored.answer("bob", "ex1", "q2", "A")
        graded = restored.submit("bob", "ex1")
        assert graded.scores["q1"].selected == "B"

    def test_clock_reanchors_across_restart(self, tmp_path):
        """Without an explicit clock, load_lms installs an OffsetClock at
        the saved timeline — elapsed time does not jump by wall-clock."""
        lms = resumable_lms()
        elapsed_before = lms.sitting("amy", "ex1").session.elapsed_seconds(
            lms.clock.now()
        )
        path = tmp_path / "lms.json"
        save_lms(lms, path)
        restored = load_lms(path)  # no clock argument
        elapsed_after = restored.sitting("amy", "ex1").session.elapsed_seconds(
            restored.clock.now()
        )
        # a real restart takes nonzero wall time; allow a generous margin
        # while catching the old failure mode (decades of drift from epoch
        # wall-clock vs. the ManualClock's small floats)
        assert elapsed_before <= elapsed_after < elapsed_before + 30.0

    def test_cmi_interactions_rebuilt(self, tmp_path):
        """The restored sitting's SCORM API saw every recorded answer."""
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        restored = load_lms(path)
        sitting = restored.sitting("amy", "ex1")
        assert sitting.interaction_count == 1
        api = sitting.api
        assert api.LMSGetValue("cmi.interactions._count") == "1"
        # interaction fields are write-only in SCORM 1.2; read the
        # LMS-side record instead
        recorded = api.datamodel.interactions()[0]
        assert recorded["id"] == "q1"

    def test_old_state_files_without_sittings_section_load(self, tmp_path):
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        payload = json.loads(path.read_text())
        del payload["sittings"]
        path.write_text(json.dumps(payload))
        restored = load_lms(path)
        assert restored.offered_exams() == ["ex1"]

    def test_sitting_for_a_retired_exam_is_skipped(self, tmp_path):
        """A sitting whose exam vanished from the payload is dropped, not
        a crash at load time."""
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        payload = json.loads(path.read_text())
        payload["sittings"] = [
            dict(record, exam_id="ghost") for record in payload["sittings"]
        ]
        path.write_text(json.dumps(payload))
        restored = load_lms(path)
        assert restored.offered_exams() == ["ex1"]


class TestAtomicWrite:
    def test_failed_save_leaves_previous_snapshot_intact(self, tmp_path):
        path = tmp_path / "lms.json"
        save_lms(busy_lms(), path)
        good = path.read_text()

        lms = busy_lms()
        # sabotage serialization mid-collect: an unserializable monitor
        lms.monitor.export_state = lambda: {"bad": object()}  # type: ignore
        with pytest.raises(TypeError):
            save_lms(lms, path)
        # the old file is untouched and still loads
        assert path.read_text() == good
        assert load_lms(path).offered_exams() == ["ex1"]

    def test_no_temp_file_debris_after_failure(self, tmp_path):
        path = tmp_path / "lms.json"
        lms = busy_lms()
        lms.monitor.export_state = lambda: {"bad": object()}  # type: ignore
        with pytest.raises(TypeError):
            save_lms(lms, path)
        assert list(tmp_path.iterdir()) == []

    def test_replace_failure_cleans_up_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        from repro.lms import persistence

        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(persistence.os, "replace", boom)
        with pytest.raises(OSError, match="disk on fire"):
            persistence.save_lms(busy_lms(), tmp_path / "x.json")
        assert list(tmp_path.iterdir()) == []

    def test_save_into_current_directory_path(self, tmp_path, monkeypatch):
        """A bare filename (no directory part) writes atomically too."""
        monkeypatch.chdir(tmp_path)
        save_lms(busy_lms(), "lms.json")
        assert load_lms("lms.json").offered_exams() == ["ex1"]


class TestCompactStream:
    """The streamed file is compact ``json.dumps`` output, byte for byte."""

    @pytest.mark.parametrize("build", [busy_lms, resumable_lms])
    @pytest.mark.parametrize("wal_lsn", [None, 41])
    def test_file_equals_compact_dumps(self, tmp_path, build, wal_lsn):
        lms = build()
        lms.monitor.capture("amy", "ex1", 31.0)
        payload = collect_payload(lms)
        path = tmp_path / "lms.json"
        save_lms(payload, path, wal_lsn=wal_lsn)
        if wal_lsn is not None:
            payload["wal_lsn"] = wal_lsn
        expected = json.dumps(payload, separators=(",", ":"))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_saving_an_lms_writes_one_compact_line(self, tmp_path):
        path = tmp_path / "lms.json"
        save_lms(resumable_lms(), path)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_indented_files_still_load(self, tmp_path):
        """Files older builds wrote with ``indent=2`` read as before."""
        lms = resumable_lms()
        path = tmp_path / "lms.json"
        path.write_text(json.dumps(collect_payload(lms), indent=2))
        restored = load_lms(path)
        assert restored.sitting("bob", "ex1").session.state.value == (
            "suspended"
        )
        assert [e.kind for e in restored.tracking] == [
            e.kind for e in lms.tracking
        ]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BankError):
            load_lms(tmp_path / "ghost.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(BankError):
            load_lms(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(BankError):
            load_lms(path)
