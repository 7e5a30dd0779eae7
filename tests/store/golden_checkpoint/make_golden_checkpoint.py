"""Write the golden checkpoint fixture next to this script.

The fixture pins what a WAL directory checkpointed before checkpoints
were streamed as compact JSON looks like: one ``indent=2`` checkpoint
plus the WAL suffix written after it.  At the checkpoint the LMS offers
a fixed and an adaptive exam, holds graded results, an in-flight fixed
sitting, an in-flight adaptive sitting, a suspended sitting, monitor
frames and a calibration overlay.  The suffix resumes and submits the
suspended sitting, moves both in-flight sittings on and registers one
more learner.  The calibration lands before any adaptive sitting
starts: an adaptive sitting submitted before a swap is restored from a
checkpoint against the newer table, by this build and the ones before
it (``tests/store/test_checkpoint.py::TestCalibrationSwap``).

It was generated from the root of this repository, with the package
of commit ``7494659`` (the last commit that wrote indented checkpoints)
first on the import path::

    mkdir <old> && git archive 7494659 src | tar -x -C <old>
    PYTHONPATH=<old>/src python tests/store/golden_checkpoint/make_golden_checkpoint.py

The script refuses to run against a build that writes compact
checkpoints.  It writes, into this directory:

* ``wal/checkpoint-<lsn>.json`` — the indented checkpoint;
* ``wal/wal-<lsn>.walb`` — the segments that survived its compaction,
  holding the suffix;
* ``fingerprint.json`` — ``state_fingerprint`` of the recovered LMS,
  normalised through JSON (tuples become lists).
"""

import json
import shutil
import sys
from pathlib import Path

from repro.adaptive.online import AdaptivePolicy
from repro.delivery.clock import ManualClock
from repro.exams.authoring import ExamBuilder
from repro.lms import persistence
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.sim.learner_model import ItemParameters
from repro.sim.workloads import classroom_exam, classroom_parameters
from repro.store import (
    Checkpointer,
    Journal,
    checkpoint_files,
    recover,
    state_fingerprint,
)

HERE = Path(__file__).resolve().parent
WAL = HERE / "wal"
FIXED_EXAM = "classroom-mid"
ADAPTIVE_EXAM = "adaptive-quiz"
LEARNERS = ("amy", "ben", "cal", "dee", "fay")


def adaptive_exam():
    builder = ExamBuilder(ADAPTIVE_EXAM, "Adaptive Quiz").time_limit(600)
    for item in classroom_exam(6).items:
        builder.add_item(item)
    exam = builder.build()
    exam.adaptive = AdaptivePolicy(
        max_items=3, min_items=3, parameters=classroom_parameters(6)
    )
    exam.validate()
    return exam


def next_adaptive_answer(lms, learner_id, response="A"):
    chosen = lms.next_item(learner_id, ADAPTIVE_EXAM)
    if chosen["done"]:
        return False
    lms.answer(learner_id, ADAPTIVE_EXAM, chosen["item_id"], response)
    return True


def drive_to_checkpoint(lms, clock):
    """Everything the checkpoint covers."""
    fixed = classroom_exam(5)
    lms.offer_exam(fixed)
    lms.offer_exam(adaptive_exam())
    for index, learner_id in enumerate(LEARNERS):
        lms.register_learner(
            Learner(
                learner_id=learner_id,
                name=learner_id.title(),
                email=f"{learner_id}@example.org" if index % 2 else "",
            )
        )
        lms.enroll(learner_id, FIXED_EXAM)
        clock.advance(0.5)
    lms.enroll("amy", ADAPTIVE_EXAM)
    lms.enroll("fay", ADAPTIVE_EXAM)
    lms.apply_calibration(
        ADAPTIVE_EXAM,
        1,
        {
            "q01": ItemParameters(a=1.2, b=-0.75),
            "q04": ItemParameters(a=0.9, b=0.5, c=0.125),
        },
    )

    items = [item.item_id for item in fixed.items]
    for learner_id in LEARNERS[:4]:
        lms.start_exam(learner_id, FIXED_EXAM)
        clock.advance(1.25)
    # amy: one answer at a time with a proctor capture, then submit
    for index, item_id in enumerate(items):
        lms.answer("amy", FIXED_EXAM, item_id, "ABCDE"[index])
        clock.advance(35.0)
    lms.capture_frame("amy", FIXED_EXAM)
    lms.submit("amy", FIXED_EXAM)
    # ben: a batch that submits
    lms.answer_batch(
        "ben", FIXED_EXAM, [(item_id, "B") for item_id in items], submit=True
    )
    # cal: answers, then suspends — suspended at the checkpoint
    lms.answer("cal", FIXED_EXAM, items[0], "A")
    clock.advance(2.0)
    lms.suspend("cal", FIXED_EXAM)
    # dee: one answer — in flight at the checkpoint
    clock.advance(40.0)
    lms.answer("dee", FIXED_EXAM, items[4], "E")
    lms.capture_frame("dee", FIXED_EXAM)

    # amy sits the adaptive exam to its end
    lms.start_exam("amy", ADAPTIVE_EXAM)
    while next_adaptive_answer(lms, "amy"):
        clock.advance(4.0)
    lms.submit("amy", ADAPTIVE_EXAM)
    # fay: one adaptive answer — in flight at the checkpoint
    lms.start_exam("fay", ADAPTIVE_EXAM)
    next_adaptive_answer(lms, "fay", "C")
    clock.advance(3.0)


def drive_suffix(lms, clock):
    """The WAL records written after the checkpoint."""
    items = [item.item_id for item in lms.exam(FIXED_EXAM).items]
    lms.resume("cal", FIXED_EXAM)
    clock.advance(5.0)
    lms.answer("cal", FIXED_EXAM, items[1], "D")
    lms.submit("cal", FIXED_EXAM)
    clock.advance(1.5)
    lms.answer("dee", FIXED_EXAM, items[3], "B")
    next_adaptive_answer(lms, "fay", "B")
    lms.register_learner(Learner(learner_id="gus", name="Gus"))
    lms.enroll("gus", FIXED_EXAM)


def normalised(value):
    return json.loads(json.dumps(value, sort_keys=True))


def main():
    if not hasattr(persistence, "_write_atomic"):
        sys.exit("run this script against a build that writes indented "
                 "checkpoints")
    if WAL.exists():
        shutil.rmtree(WAL)
    clock = ManualClock(1000.0)
    journal = Journal.open(WAL, fsync="never", segment_bytes=2048)
    lms = Lms(clock=clock, journal=journal)
    drive_to_checkpoint(lms, clock)
    Checkpointer(lms, journal).checkpoint()
    drive_suffix(lms, clock)
    journal.close()

    (checkpoint,) = checkpoint_files(WAL)
    assert checkpoint.read_text(encoding="utf-8").startswith('{\n  "format"')
    live = normalised(state_fingerprint(lms))
    report = recover(WAL)
    assert report.checkpoint_path == checkpoint and report.records_replayed
    recovered = normalised(state_fingerprint(report.lms))
    assert recovered == live
    sittings = recovered["sittings"]
    assert sittings[f"cal:{FIXED_EXAM}"]["session"]["state"] == "submitted"
    with open(HERE / "fingerprint.json", "w", encoding="utf-8") as handle:
        json.dump(recovered, handle, indent=1)
        handle.write("\n")
    print(f"wrote {checkpoint.name} and {report.records_replayed} suffix "
          f"record(s) in {len(list(WAL.glob('wal-*')))} segment(s)")


if __name__ == "__main__":
    main()
