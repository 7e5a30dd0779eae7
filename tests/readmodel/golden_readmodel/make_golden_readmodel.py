"""Write the golden read-model fixture next to this script.

The fixture pins what a read-model checkpoint written before the LMS
and the read model shared one cohort fold looks like, together with the
WAL it covers a prefix of.  The WAL offers a fixed exam with an essay
item and an adaptive exam, applies a calibration to the adaptive exam
before any adaptive sitting starts, and drives both cohorts.  At the
checkpoint one learner's fixed sitting is suspended with answers
recorded; after it the learner resumes, answers more and submits.
Another learner re-sits the fixed exam after the checkpoint, and the
rest of both cohorts submit there too.

It was generated from the root of this repository, with the package
of commit ``b83ad16`` (the last commit whose LMS and read model each
kept their own fold) first on the import path::

    mkdir <old> && git archive b83ad16 src | tar -x -C <old>
    PYTHONPATH=<old>/src python tests/readmodel/golden_readmodel/make_golden_readmodel.py

The script refuses to run against a build with the shared fold.  It
writes, into this directory:

* ``wal/wal-<lsn>.walb`` — the journal;
* ``wal/readmodel-<lsn>.json`` — the read model folded up to the
  checkpoint;
* ``expected.json`` — from :func:`repro.readmodel.rebuild` of the whole
  journal: the overview, and per exam the summary and the
  ``analysis_to_dict`` of its analysis.
"""

import json
import shutil
import sys
from pathlib import Path

from repro.adaptive.online import AdaptivePolicy
from repro.delivery.clock import ManualClock
from repro.exams.authoring import ExamBuilder
from repro.items.essay import EssayItem
from repro.lms.learners import Learner
from repro.lms.lms import Lms
from repro.readmodel import readmodel_files, rebuild, save_readmodel
from repro.server.serialize import analysis_to_dict
from repro.sim.learner_model import ItemParameters
from repro.sim.workloads import classroom_exam, classroom_parameters
from repro.store import Journal

HERE = Path(__file__).resolve().parent
WAL = HERE / "wal"
FIXED_EXAM = "midterm"
ADAPTIVE_EXAM = "adaptive-quiz"
FIXED_LEARNERS = [f"f{n:02d}" for n in range(10)]
ADAPTIVE_LEARNERS = [f"a{n:02d}" for n in range(8)]
SUSPENDED = "f09"
RESITTER = "f00"
LABELS = "ABCDE"


def fixed_exam():
    builder = ExamBuilder(FIXED_EXAM, "Midterm").time_limit(3600)
    builder.resumable(True)
    for item in classroom_exam(5).items:
        builder.add_item(item)
    builder.add_item(
        EssayItem(item_id="essay", question="Explain.", max_points=4.0)
    )
    return builder.build()


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


def fixed_answer(n, index):
    """A deterministic answer pattern with some skipped questions."""
    if (n + index) % 6 == 5:
        return None
    return LABELS[(n * 3 + index * (n % 3 + 1)) % len(LABELS)]


def sit_fixed(lms, clock, n, learner_id, submit=True):
    items = [item.item_id for item in lms.exam(FIXED_EXAM).items]
    lms.start_exam(learner_id, FIXED_EXAM)
    for index, item_id in enumerate(items[:-1]):
        response = fixed_answer(n, index)
        if response is not None:
            lms.answer(learner_id, FIXED_EXAM, item_id, response)
            clock.advance(20.0 + n)
    lms.answer(learner_id, FIXED_EXAM, "essay", f"answer by {learner_id}")
    if submit:
        lms.submit(learner_id, FIXED_EXAM)


def sit_adaptive(lms, clock, n, learner_id):
    lms.start_exam(learner_id, ADAPTIVE_EXAM)
    step = 0
    while True:
        chosen = lms.next_item(learner_id, ADAPTIVE_EXAM)
        if chosen["done"]:
            break
        response = LABELS[(n + 2 * step) % len(LABELS)]
        lms.answer(learner_id, ADAPTIVE_EXAM, chosen["item_id"], response)
        clock.advance(15.0)
        step += 1
    lms.submit(learner_id, ADAPTIVE_EXAM)


def drive_to_checkpoint(lms, clock):
    """Everything the read-model checkpoint covers."""
    lms.offer_exam(fixed_exam())
    lms.offer_exam(adaptive_exam())
    for learner_id in FIXED_LEARNERS + ADAPTIVE_LEARNERS:
        lms.register_learner(Learner(learner_id=learner_id, name=learner_id))
    for learner_id in FIXED_LEARNERS:
        lms.enroll(learner_id, FIXED_EXAM)
    for learner_id in ADAPTIVE_LEARNERS:
        lms.enroll(learner_id, ADAPTIVE_EXAM)
    lms.apply_calibration(
        ADAPTIVE_EXAM,
        1,
        {
            "q01": ItemParameters(a=1.2, b=-0.75),
            "q04": ItemParameters(a=0.9, b=0.5, c=0.125),
        },
    )
    for n, learner_id in enumerate(FIXED_LEARNERS[:5]):
        sit_fixed(lms, clock, n, learner_id)
        clock.advance(3.0)
    for n, learner_id in enumerate(ADAPTIVE_LEARNERS[:4]):
        sit_adaptive(lms, clock, n, learner_id)
    # the suspended learner's answers straddle the checkpoint
    lms.start_exam(SUSPENDED, FIXED_EXAM)
    lms.answer(SUSPENDED, FIXED_EXAM, "q01", "A")
    lms.answer(SUSPENDED, FIXED_EXAM, "q02", "C")
    clock.advance(30.0)
    lms.suspend(SUSPENDED, FIXED_EXAM)


def drive_suffix(lms, clock):
    """The records written after the read-model checkpoint."""
    clock.advance(60.0)
    lms.resume(SUSPENDED, FIXED_EXAM)
    lms.answer(SUSPENDED, FIXED_EXAM, "q02", "B")  # overwrites "C"
    lms.answer(SUSPENDED, FIXED_EXAM, "q05", "E")
    clock.advance(12.0)
    lms.submit(SUSPENDED, FIXED_EXAM)
    for n, learner_id in enumerate(FIXED_LEARNERS[5:9], start=5):
        sit_fixed(lms, clock, n, learner_id)
    # a batch that submits, then the re-sit of an earlier learner
    lms.start_exam(RESITTER, FIXED_EXAM)
    lms.answer_batch(
        RESITTER,
        FIXED_EXAM,
        [("q01", "A"), ("q02", "B"), ("q03", "C"), ("q04", "D")],
        submit=True,
    )
    for n, learner_id in enumerate(ADAPTIVE_LEARNERS[4:], start=4):
        sit_adaptive(lms, clock, n, learner_id)


def expected_document(model):
    exams = {}
    for exam_id in sorted(model.exams):
        exam_model = model.exam(exam_id)
        exams[exam_id] = {
            "summary": exam_model.summary(),
            "analysis": analysis_to_dict(exam_model.analysis()),
        }
    return {"overview": model.overview(), "exams": exams}


def main():
    if not hasattr(Lms, "_live_locked"):
        sys.exit("run this script against a build whose LMS and read "
                 "model keep separate folds")
    if WAL.exists():
        shutil.rmtree(WAL)
    clock = ManualClock(1000.0)
    journal = Journal.open(WAL, fsync="never", segment_bytes=4096)
    lms = Lms(clock=clock, journal=journal)
    drive_to_checkpoint(lms, clock)
    journal.sync()
    save_readmodel(rebuild(WAL), WAL)
    drive_suffix(lms, clock)
    journal.close()

    (checkpoint,) = readmodel_files(WAL)
    model = rebuild(WAL)
    document = json.loads(json.dumps(expected_document(model)))
    for exam_id, entry in document["exams"].items():
        served = analysis_to_dict(lms.live_analysis(exam_id))
        assert json.loads(json.dumps(served)) == entry["analysis"], exam_id
    with open(HERE / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checkpoint.name} over {model.applied_lsn} record(s) in "
          f"{len(list(WAL.glob('wal-*')))} segment(s)")


if __name__ == "__main__":
    main()
