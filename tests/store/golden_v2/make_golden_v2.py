"""Write the golden v2 WAL fixture next to this script.

The fixture pins what a WAL written before schema-coded records looks
like: one binary segment whose header says version 2 and whose bodies
all use the generic ``value(type) value(data)`` form.  It holds every
event type the LMS journals (``offer``, ``register``, ``enroll``,
``start``, ``answer``, ``answers``, ``suspend``, ``resume``, ``submit``,
``monitor`` and ``calibrate``), and leaves two sittings open so replay
also restores in-flight state.

It was generated from the root of this repository, with the package
of commit ``bb925f7`` (the last commit that wrote version-2 segments)
first on the import path::

    mkdir <old> && git archive bb925f7 src | tar -x -C <old>
    PYTHONPATH=<old>/src python tests/store/golden_v2/make_golden_v2.py

The script refuses to run against a build that writes a different
header version.  It writes, into this directory:

* ``wal/wal-00000000000000000001.walb`` — the segment;
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
LEARNERS = ("amy", "ben", "cal", "dee")


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


def drive(lms, clock):
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
        lms.enroll(learner_id, fixed.exam_id)
        clock.advance(0.5)
    lms.enroll("amy", ADAPTIVE_EXAM)

    items = [item.item_id for item in fixed.items]
    labels = ["A", "B", "C", "D", "E"]
    for learner_id in LEARNERS:
        lms.start_exam(learner_id, fixed.exam_id)
        clock.advance(1.25)
    # amy: one answer at a time, a proctor capture, then submit
    for index, item_id in enumerate(items):
        lms.answer("amy", fixed.exam_id, item_id, labels[index])
        clock.advance(3.5)
    lms.capture_frame("amy", fixed.exam_id)
    lms.submit("amy", fixed.exam_id)
    # ben: one batch, then a batch that submits
    lms.answer_batch(
        "ben", fixed.exam_id, [(items[0], "A"), (items[1], "C")]
    )
    clock.advance(7.0)
    lms.answer_batch(
        "ben",
        fixed.exam_id,
        [(item_id, "B") for item_id in items[2:]],
        submit=True,
    )
    # cal: answers, suspends, resumes, answers again — left open
    lms.answer("cal", fixed.exam_id, items[0], "A")
    clock.advance(2.0)
    lms.suspend("cal", fixed.exam_id)
    clock.advance(30.0)
    lms.resume("cal", fixed.exam_id)
    lms.answer("cal", fixed.exam_id, items[1], "D")
    # dee: started, one answer, left open
    lms.answer("dee", fixed.exam_id, items[4], "E")

    # amy sits the adaptive exam to its end, then it is recalibrated
    lms.start_exam("amy", ADAPTIVE_EXAM)
    while True:
        chosen = lms.next_item("amy", ADAPTIVE_EXAM)
        if chosen["done"]:
            break
        lms.answer("amy", ADAPTIVE_EXAM, chosen["item_id"], "A")
        clock.advance(4.0)
    lms.submit("amy", ADAPTIVE_EXAM)
    lms.apply_calibration(
        ADAPTIVE_EXAM,
        1,
        {
            "q01": ItemParameters(a=1.2, b=-0.75),
            "q04": ItemParameters(a=0.9, b=0.5, c=0.125),
        },
    )


def normalised(value):
    return json.loads(json.dumps(value, sort_keys=True))


def main():
    from repro.store.format import segment_header

    if segment_header()[4:6] != b"\x02\x00":
        sys.exit("run this script against a build that writes v2 segments")
    if WAL.exists():
        shutil.rmtree(WAL)
    clock = ManualClock(1000.0)
    journal = Journal.open(WAL, fsync="never")
    lms = Lms(clock=clock, journal=journal)
    drive(lms, clock)
    journal.close()

    records = [[r.lsn, r.type, r.data] for r in read_records(WAL)]
    types = {r[1] for r in records}
    assert len(types) == 11, sorted(types)
    live = normalised(state_fingerprint(lms))
    recovered = normalised(state_fingerprint(recover(WAL).lms))
    assert recovered == live
    for name, payload in (("records", records), ("fingerprint", recovered)):
        with open(HERE / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
    print(f"wrote {len(records)} records of {len(types)} event types")


if __name__ == "__main__":
    main()
