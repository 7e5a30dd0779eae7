"""A calibration reload racing open adaptive sittings.

An in-process ``ExamServer`` over a WAL offers the adaptive classroom
exam.  Worker threads run adaptive sittings through ``server.lms``
while another thread keeps writing newer calibration snapshots and
calling ``server.reload_calibration()``.  The LMS refuses a swap while
the exam has an open adaptive sitting, so:

* every reload reports the exam once, applied or skipped for its open
  sittings;
* a sitting selects from one table from start to submit, the one
  installed when it started;
* a reload while a sitting is held open is skipped, and the first one
  after it submits is applied;
* recovering the WAL alone rebuilds the live state.  Tracking is
  compared per learner: concurrent sittings may reach the tracking log
  and the journal in different orders (``TestTrackingOrder``'s strict
  xfail).

No checkpoint is taken: restoring a submitted adaptive sitting from a
checkpoint after a swap is ``TestCalibrationSwap``'s strict xfail.
"""

import dataclasses
import threading
import time

import pytest

from repro.adaptive.online import write_calibration_snapshot
from repro.lms.learners import Learner
from repro.server.app import ExamServer
from repro.sim.workloads import classroom_adaptive_exam
from repro.store import recover
from repro.store.recovery import state_fingerprint

QUESTIONS = 8
MAX_ITEMS = 4
THREADS = 3
SITTINGS_PER_THREAD = 6


def per_learner_tracking(fingerprint):
    split = {}
    for event in fingerprint["tracking"]:
        split.setdefault(event["learner_id"], []).append(event)
    return dict(fingerprint, tracking=split)


def sit(lms, exam, learner_id, correct, after_start=None):
    """One adaptive sitting: start, next item and answer until done,
    submit; ``after_start()`` runs while it is open.  Returns the table
    version as start saw it, as the installed calibration read while
    open (just after start and just before submit), and as the finished
    sitting reports it."""
    exam_id = exam.exam_id
    items = {item.item_id: item for item in exam.items}
    sitting = lms.start_exam(learner_id, exam_id)
    seen = [
        sitting.adaptive.table.version,
        lms.calibration_version(exam_id),
    ]
    if after_start is not None:
        after_start()
    while True:
        status = lms.next_item(learner_id, exam_id)
        if status["done"]:
            break
        item = items[status["item_id"]]
        wrong = next(
            label for label in item.labels if label != item.correct_label
        )
        lms.answer(
            learner_id,
            exam_id,
            item.item_id,
            item.correct_label if correct else wrong,
        )
    seen += [lms.calibration_version(exam_id), status["table_version"]]
    lms.submit(learner_id, exam_id)
    return seen


def calibration_of(exam, version):
    """The exam's seeded pool with every difficulty shifted by version,
    so each version builds a different table."""
    pool = exam.adaptive.pool_for(exam)
    return {
        item_id: dataclasses.replace(params, b=params.b + 0.05 * version)
        for item_id, params in pool.items()
    }


def only_entry(report, exam_id):
    """The reload report's one entry for the exam: (outcome, entry)."""
    entries = [
        (outcome, entry)
        for outcome in ("applied", "skipped")
        for entry in report[outcome]
        if entry["exam_id"] == exam_id
    ]
    assert len(entries) == 1, report
    return entries[0]


@pytest.fixture(scope="module")
def race(tmp_path_factory):
    wal_dir = tmp_path_factory.mktemp("calibration-race") / "wal"
    exam = classroom_adaptive_exam(QUESTIONS, max_items=MAX_ITEMS)
    server = ExamServer(wal_dir=wal_dir, fsync="never")
    lms = server.lms
    lms.offer_exam(exam)
    cohorts = [
        [f"t{thread}s{index}" for index in range(SITTINGS_PER_THREAD)]
        for thread in range(THREADS)
    ]
    for learner_id in [lid for cohort in cohorts for lid in cohort] + [
        "held"
    ]:
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
        lms.enroll(learner_id, exam.exam_id)
    seen = {}
    reports = []
    errors = []
    done = threading.Event()

    def run(cohort):
        try:
            for index, learner_id in enumerate(cohort):
                seen[learner_id] = sit(lms, exam, learner_id, index % 2 == 0)
                time.sleep(0.002)  # leave gaps a swap can land in
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def reload_until_done():
        try:
            version = lms.calibration_version(exam.exam_id)
            while not done.is_set():
                version += 1
                write_calibration_snapshot(
                    server.calibration_dir,
                    exam.exam_id,
                    version,
                    calibration_of(exam, version),
                )
                reports.append(server.reload_calibration())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    try:
        reloader = threading.Thread(target=reload_until_done)
        workers = [
            threading.Thread(target=run, args=(cohort,)) for cohort in cohorts
        ]
        reloader.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        done.set()
        reloader.join(60)
        assert not any(t.is_alive() for t in [reloader, *workers])
        assert errors == []

        # one sitting held open: a reload now is skipped, and the first
        # one after it submits is applied
        opened, release = threading.Event(), threading.Event()

        def hold_open():
            opened.set()
            release.wait(30)

        held = threading.Thread(
            target=lambda: seen.update(
                held=sit(lms, exam, "held", True, after_start=hold_open)
            )
        )
        held.start()
        assert opened.wait(30)
        version = lms.calibration_version(exam.exam_id) + 1
        write_calibration_snapshot(
            server.calibration_dir,
            exam.exam_id,
            version,
            calibration_of(exam, version),
        )
        while_held = server.reload_calibration()
        release.set()
        held.join(60)
        assert not held.is_alive() and "held" in seen
        after_submit = server.reload_calibration()

        server.journal.sync()
        yield {
            "exam": exam,
            "server": server,
            "seen": seen,
            "reports": reports,
            "while_held": while_held,
            "after_submit": after_submit,
            "version": version,
            "recovered": recover(wal_dir).lms,
        }
    finally:
        server.shutdown()


class TestCalibrationRace:
    def test_every_reload_applies_or_skips_for_open_sittings(self, race):
        exam_id = race["exam"].exam_id
        assert race["reports"]
        for report in race["reports"]:
            outcome, entry = only_entry(report, exam_id)
            if outcome == "skipped":
                assert "adaptive sitting(s) still open" in entry["reason"]

    def test_a_sitting_keeps_the_table_it_started_with(self, race):
        assert len(race["seen"]) == THREADS * SITTINGS_PER_THREAD + 1
        for learner_id, versions in race["seen"].items():
            assert len(set(versions)) == 1, (learner_id, versions)

    def test_a_held_sitting_blocks_the_swap_until_it_submits(self, race):
        exam_id = race["exam"].exam_id
        outcome, entry = only_entry(race["while_held"], exam_id)
        assert outcome == "skipped"
        assert "1 adaptive sitting(s) still open" in entry["reason"]
        outcome, entry = only_entry(race["after_submit"], exam_id)
        assert (outcome, entry["version"]) == ("applied", race["version"])
        assert race["server"].lms.calibration_version(exam_id) == (
            race["version"]
        )

    def test_the_wal_alone_recovers_the_live_state(self, race):
        live = state_fingerprint(race["server"].lms)
        recovered = state_fingerprint(race["recovered"])
        assert per_learner_tracking(recovered) == per_learner_tracking(live)
