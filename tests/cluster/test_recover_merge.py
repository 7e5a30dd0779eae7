"""Multi-shard recovery: merging per-shard WALs into one cohort state.

``mine-assess recover`` accepts several WAL directories (or one cluster
root of ``shard-*`` subdirectories) and merges the per-shard recoveries
through :func:`repro.lms.persistence.merge_payloads` into one LMS that
answers for the whole cohort.
"""

import pytest

from repro.core.errors import BankError
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.lms.persistence import (
    collect_payload,
    lms_from_payload,
    merge_payloads,
)
from repro.sim.workloads import classroom_exam

QUESTIONS = 6


def shard_lms(learner_ids, exam=None):
    """A mini shard: offer the exam, run each learner to submission."""
    exam = exam or classroom_exam(QUESTIONS)
    lms = Lms()
    lms.offer_exam(exam)
    for learner_id in learner_ids:
        lms.register_learner(
            Learner(learner_id=learner_id, name=learner_id)
        )
        lms.enroll(learner_id, exam.exam_id)
        lms.start_exam(learner_id, exam.exam_id)
        for item in exam.analyzable_items():
            lms.answer(learner_id, exam.exam_id, item.item_id, "A")
        lms.submit(learner_id, exam.exam_id)
    return lms


class TestMergePayloads:
    def test_merge_reassembles_the_whole_cohort(self):
        exam = classroom_exam(QUESTIONS)
        shards = [
            shard_lms(["amy", "bob"], exam),
            shard_lms(["cho"], exam),
            shard_lms(["dee", "eli"], exam),
        ]
        shards[0].start_exam("amy", exam.exam_id)  # a re-sit, in flight
        merged = lms_from_payload(
            merge_payloads([collect_payload(shard) for shard in shards])
        )
        assert len(merged.learners) == 5
        assert {
            record.learner_id: record.attempts
            for record in merged.rte.all_records()
        } == {"amy": 2, "bob": 1, "cho": 1, "dee": 1, "eli": 1}
        assert sorted(merged.enrolled(exam.exam_id)) == [
            "amy", "bob", "cho", "dee", "eli"
        ]
        assert merged.offered_exams() == [exam.exam_id]
        graded = {
            sitting.learner_id
            for sitting in merged.results_for(exam.exam_id)
        }
        assert graded == {"amy", "bob", "cho", "dee", "eli"}
        # per-learner scores survive the merge intact
        source = {
            sitting.learner_id: sitting.scores
            for shard in shards
            for sitting in shard.results_for(exam.exam_id)
        }
        for sitting in merged.results_for(exam.exam_id):
            assert sitting.scores == source[sitting.learner_id]

    def test_exam_broadcast_duplicates_collapse(self):
        exam = classroom_exam(QUESTIONS)
        payloads = [
            collect_payload(shard_lms(["amy"], exam)),
            collect_payload(shard_lms(["bob"], exam)),
        ]
        merged = merge_payloads(payloads)
        assert len(merged["exams"]) == 1

    def test_in_flight_sittings_survive(self):
        exam = classroom_exam(QUESTIONS)
        lms = Lms()
        lms.offer_exam(exam)
        lms.register_learner(Learner(learner_id="amy", name="amy"))
        lms.enroll("amy", exam.exam_id)
        lms.start_exam("amy", exam.exam_id)
        first = exam.analyzable_items()[0]
        lms.answer("amy", exam.exam_id, first.item_id, "A")
        merged = lms_from_payload(
            merge_payloads(
                [
                    collect_payload(lms),
                    collect_payload(shard_lms(["bob"], exam)),
                ]
            )
        )
        sitting = merged.sitting("amy", exam.exam_id)
        assert sitting is not None

    def test_same_learner_on_two_shards_is_an_error(self):
        exam = classroom_exam(QUESTIONS)
        payload = collect_payload(shard_lms(["amy"], exam))
        with pytest.raises(BankError):
            merge_payloads([payload, payload])

    def test_wrong_format_is_an_error(self):
        with pytest.raises(BankError):
            merge_payloads([{"format": "not-a-snapshot"}])

    def test_empty_list_is_an_error(self):
        with pytest.raises(BankError):
            merge_payloads([])

    def test_clock_continues_from_the_furthest_shard(self):
        exam = classroom_exam(QUESTIONS)
        one = collect_payload(shard_lms(["amy"], exam))
        two = collect_payload(shard_lms(["bob"], exam))
        one["clock"] = 100.0
        two["clock"] = 250.0
        merged = merge_payloads([one, two])
        assert merged["clock"] == 250.0

    def test_tracking_is_one_timeline(self):
        exam = classroom_exam(QUESTIONS)
        merged = merge_payloads(
            [
                collect_payload(shard_lms(["amy"], exam)),
                collect_payload(shard_lms(["bob"], exam)),
            ]
        )
        stamps = [event["timestamp"] for event in merged["tracking"]]
        assert stamps == sorted(stamps)


class TestRecoverCli:
    def test_recover_merges_a_cluster_root(self, tmp_path, capsys):
        """serve --workers style layout: WALs under root/shard-*; the
        CLI recovers each and prints the merged whole-cohort report."""
        from repro.cli import main
        from repro.server.app import ExamServer

        exam = classroom_exam(QUESTIONS)
        root = tmp_path / "wal"
        for index, learner_ids in enumerate([["amy", "bob"], ["cho"]]):
            wal_dir = root / f"shard-{index}"
            with ExamServer(wal_dir=wal_dir) as server:
                lms = server.lms
                lms.offer_exam(exam)
                for learner_id in learner_ids:
                    lms.register_learner(
                        Learner(learner_id=learner_id, name=learner_id)
                    )
                    lms.enroll(learner_id, exam.exam_id)
                    lms.start_exam(learner_id, exam.exam_id)
                    for item in exam.analyzable_items():
                        lms.answer(
                            learner_id, exam.exam_id, item.item_id, "A"
                        )
                    lms.submit(learner_id, exam.exam_id)

        out_path = tmp_path / "merged.json"
        code = main(["recover", str(root), "--out", str(out_path)])
        output = capsys.readouterr().out
        assert code == 0
        assert "merged 2 shard recoveries" in output
        assert "3 enrolled, 3 graded" in output
        assert out_path.exists()

        from repro.lms.persistence import load_lms

        merged = load_lms(out_path)
        assert len(merged.learners) == 3

    def test_recover_single_dir_unchanged(self, tmp_path, capsys):
        from repro.cli import main
        from repro.server.app import ExamServer

        exam = classroom_exam(QUESTIONS)
        wal_dir = tmp_path / "wal"
        with ExamServer(wal_dir=wal_dir) as server:
            server.lms.offer_exam(exam)
            server.lms.register_learner(
                Learner(learner_id="amy", name="amy")
            )
            server.lms.enroll("amy", exam.exam_id)
        code = main(["recover", str(wal_dir)])
        output = capsys.readouterr().out
        assert code == 0
        assert "1 enrolled" in output
        assert "merged" not in output
