"""Write the golden v1 WAL fixture next to this script.

The fixture pins what a JSON-lines (v1) WAL looks like, now that no
build writes one: three ``.jsonl`` segments of canonical JSON records,
each with its CRC32.  They hold every event type the LMS journals
(``offer``, ``register``, ``enroll``, ``start``, ``answer``,
``answers``, ``suspend``, ``resume``, ``submit``, ``monitor`` and
``calibrate``) and leave two sittings open, so replay also restores
in-flight state.  The last segment is the tail a reader may find torn.
No adaptive sitting is taken: its theta trajectory is a float sum whose
last digits differ between Python 3.11 and 3.12, and the fingerprint
must be the same on every supported Python.

It was generated from the root of this repository, with the package
of commit ``23529eb`` (the last commit that could write v1 segments)
first on the import path::

    mkdir <old> && git archive 23529eb src | tar -x -C <old>
    PYTHONPATH=<old>/src python tests/store/golden_v1/make_golden_v1.py

The script refuses to run against a build that cannot write v1.  It
writes, into this directory:

* ``wal/wal-<first lsn>.jsonl`` — the three segments;
* ``records.json`` — every record as ``[lsn, type, data]``;
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
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.sim.learner_model import ItemParameters
from repro.sim.workloads import classroom_exam, classroom_parameters
from repro.store import Journal, read_records, recover, state_fingerprint

HERE = Path(__file__).resolve().parent
WAL = HERE / "wal"
ADAPTIVE_EXAM = "adaptive-quiz"
LEARNERS = ("ann", "bob", "cy", "dot")


def adaptive_exam():
    builder = ExamBuilder(ADAPTIVE_EXAM, "Adaptive Quiz").time_limit(600)
    for item in classroom_exam(5).items:
        builder.add_item(item)
    exam = builder.build()
    exam.adaptive = AdaptivePolicy(
        max_items=2, min_items=2, parameters=classroom_parameters(5)
    )
    exam.validate()
    return exam


def drive(lms, clock, journal):
    """The fixture's workload; rotates the journal twice."""
    fixed = classroom_exam(4)
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
        lms.enroll(learner_id, fixed.exam_id)
        clock.advance(0.5)
    lms.enroll("bob", ADAPTIVE_EXAM)
    journal.rotate()

    items = [item.item_id for item in fixed.items]
    for learner_id in LEARNERS[:3]:
        lms.start_exam(learner_id, fixed.exam_id)
        clock.advance(1.5)
    # ann: one answer at a time, a proctor capture, then submit
    for item_id, label in zip(items, "ABCD"):
        lms.answer("ann", fixed.exam_id, item_id, label)
        clock.advance(2.75)
    lms.capture_frame("ann", fixed.exam_id)
    lms.submit("ann", fixed.exam_id)
    # bob: a batch, a suspend and resume, then a batch that submits
    lms.answer_batch("bob", fixed.exam_id, [(items[0], "A"), (items[1], "E")])
    clock.advance(4.0)
    lms.suspend("bob", fixed.exam_id)
    clock.advance(20.0)
    lms.resume("bob", fixed.exam_id)
    lms.answer_batch(
        "bob",
        fixed.exam_id,
        [(items[2], "C"), (items[3], "B")],
        submit=True,
    )
    # the adaptive exam is recalibrated before anyone sits it
    lms.apply_calibration(
        ADAPTIVE_EXAM,
        1,
        {
            "q02": ItemParameters(a=1.1, b=-0.25),
            "q05": ItemParameters(a=0.8, b=0.75, c=0.2),
        },
    )
    journal.rotate()

    # cy: answers, suspends, resumes, answers again — left open
    lms.answer("cy", fixed.exam_id, items[0], "A")
    clock.advance(2.0)
    lms.suspend("cy", fixed.exam_id)
    clock.advance(15.0)
    lms.resume("cy", fixed.exam_id)
    lms.answer("cy", fixed.exam_id, items[2], "D")
    # dot: started, one batch, left open
    lms.start_exam("dot", fixed.exam_id)
    clock.advance(1.0)
    lms.answer_batch("dot", fixed.exam_id, [(items[1], "B"), (items[3], "D")])


def normalised(value):
    return json.loads(json.dumps(value, sort_keys=True))


def main():
    try:
        from repro.store.journal import JOURNAL_FORMATS
    except ImportError:
        JOURNAL_FORMATS = ()
    if 1 not in JOURNAL_FORMATS:
        sys.exit("run this script against a build that writes v1 segments")
    if WAL.exists():
        shutil.rmtree(WAL)
    clock = ManualClock(2000.0)
    journal = Journal.open(WAL, fsync="never", format=1)
    lms = Lms(clock=clock, journal=journal)
    drive(lms, clock, journal)
    journal.close()

    segments = sorted(WAL.iterdir())
    assert [p.suffix for p in segments] == [".jsonl"] * 3, segments
    records = [[r.lsn, r.type, r.data] for r in read_records(WAL)]
    types = {r[1] for r in records}
    assert len(types) == 11, sorted(types)
    live = normalised(state_fingerprint(lms))
    recovered = normalised(state_fingerprint(recover(WAL).lms))
    assert recovered == live
    open_sittings = sorted(
        key
        for key, sitting in recovered["sittings"].items()
        if sitting["session"]["state"] != "submitted"
    )
    assert open_sittings == ["cy:classroom-mid", "dot:classroom-mid"], (
        open_sittings
    )
    for name, payload in (("records", records), ("fingerprint", recovered)):
        with open(HERE / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    print(
        f"wrote {len(records)} records of {len(types)} event types "
        f"in {len(segments)} segments"
    )


if __name__ == "__main__":
    main()
