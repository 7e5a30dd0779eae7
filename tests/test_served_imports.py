"""A serving process runs without numpy.

``mine-assess serve`` imports ``repro.cli``, ``repro.server``, the
cluster supervisor and the read-model service; the analyses it serves
run on the columnar engine's stdlib kernels below
``NUMPY_CROSSOVER_CELLS``.  numpy costs a process ~12 MB resident and
~150 ms of start-up, so it must stay out of that import closure and out
of every analysis a served cohort takes: the live analysis, the §4
report, a scatter-gather merge, the read model's fold and its ``as_of``.
One cohort past the crossover does load it, and answers bit-identically.

Each check runs in a fresh interpreter, as a server starts.
"""

import json
import subprocess
import sys
import textwrap

try:
    import numpy  # noqa: F401 - only to know what the fresh process can load

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy CI job
    HAVE_NUMPY = False

SERVED_PROCESS = textwrap.dedent(
    """
    import base64, json, random, sys, tempfile

    import repro.cli, repro.server, repro.cluster.supervisor
    import repro.readmodel.service
    assert "numpy" not in sys.modules, "importing the server loads numpy"

    from repro.core import kernels
    from repro.core.columnar import merge_partials
    from repro.core.question_analysis import (
        ExamineeResponses, analyze_cohort, reference_analyze_cohort,
    )
    from repro.delivery.clock import ManualClock
    from repro.exams.authoring import ExamBuilder
    from repro.items.choice import MultipleChoiceItem
    from repro.lms.learners import Learner
    from repro.lms.lms import Lms
    from repro.readmodel import as_of
    from repro.readmodel.service import ReadModelService
    from repro.store import Journal

    LEARNERS, QUESTIONS = 240, 20
    builder = ExamBuilder("ex1", "Exam").resumable(True).time_limit(3600)
    for q in range(QUESTIONS):
        builder.add_item(MultipleChoiceItem.build(
            f"q{q}", f"Q{q}?", ["w", "x", "y", "z"], correct_index=q % 4))
    exam = builder.build()
    specs = exam.question_specs()
    rng = random.Random(7)
    facts = {}

    with tempfile.TemporaryDirectory() as wal:
        journal = Journal.open(wal, fsync="never")
        clock = ManualClock(100.0)
        lms = Lms(clock=clock, journal=journal)
        lms.offer_exam(exam)
        service = ReadModelService(wal, journal=journal)
        for index in range(LEARNERS):
            learner = f"l{index:03d}"
            lms.register_learner(Learner(learner_id=learner, name=learner))
            lms.enroll(learner, "ex1")
            lms.start_exam(learner, "ex1")
            skill = rng.random()
            answers = [
                (f"q{q}", "ABCD"[q % 4] if rng.random() < skill
                 else rng.choice("ABCD"))
                for q in range(QUESTIONS) if rng.random() < 0.9
            ]
            clock.advance(1.0)
            lms.answer_batch(learner, "ex1", answers, submit=True)
            if index == LEARNERS // 2:  # a read-model checkpoint mid-way
                journal.sync()
                service.sync()
                service.checkpoint()
        live = lms.live_analysis("ex1")
        report = lms.report_for("ex1")
        # the one cohort as two shards' partials, split at row `cut`
        whole = lms.analysis_partial("ex1")
        codes = base64.b64decode(whole["codes_b64"])
        cut = LEARNERS // 3
        shards = [
            dict(whole, examinee_ids=ids,
                 codes_b64=base64.b64encode(part).decode("ascii"))
            for ids, part in (
                (whole["examinee_ids"][:cut], codes[:cut * QUESTIONS]),
                (whole["examinee_ids"][cut:], codes[cut * QUESTIONS:]),
            )
        ]
        merged = merge_partials(specs, shards).analyze()
        journal.sync()
        service.sync()
        folded = service.model.exam("ex1").analysis()
        past, replayed = as_of(wal, lsn=journal.last_lsn)
        facts["served_rows"] = len(live.scores)
        facts["merged_is_live"] = merged == live
        facts["report_is_live"] = report.cohort == live
        facts["fold_is_live"] = folded == live
        facts["as_of_is_live"] = past.exam("ex1").analysis() == live
        facts["as_of_replayed"] = replayed
        journal.close()
    facts["served_numpy"] = "numpy" in sys.modules

    # one cohort past the crossover, on each kernel set in turn
    size = kernels.NUMPY_CROSSOVER_CELLS // QUESTIONS + 1
    responses = [
        ExamineeResponses.of(f"s{i:05d}", [
            None if rng.random() < 0.1 else rng.choice("ABCD")
            for _ in range(QUESTIONS)
        ])
        for i in range(size)
    ]
    reference = reference_analyze_cohort(responses, specs)
    crossover, kernels.NUMPY_CROSSOVER_CELLS = (
        kernels.NUMPY_CROSSOVER_CELLS, sys.maxsize)
    on_stdlib = analyze_cohort(responses, specs)
    kernels.NUMPY_CROSSOVER_CELLS = crossover
    facts["stdlib_numpy"] = "numpy" in sys.modules
    past_crossover = analyze_cohort(responses, specs)
    facts["past_crossover_numpy"] = "numpy" in sys.modules
    facts["past_crossover_cells"] = size * QUESTIONS
    facts["crossover"] = crossover
    facts["past_crossover_is_stdlib"] = past_crossover == on_stdlib
    facts["past_crossover_is_reference"] = past_crossover == reference
    print(json.dumps(facts))
    """
)


def run_served_process():
    result = subprocess.run(
        [sys.executable, "-c", SERVED_PROCESS],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_serving_loads_no_numpy_and_past_the_crossover_loads_it():
    facts = run_served_process()
    # the served cohort: every analysis agrees, and none loaded numpy
    assert facts["served_rows"] == 240
    assert facts["merged_is_live"]
    assert facts["report_is_live"]
    assert facts["fold_is_live"]
    assert facts["as_of_is_live"]
    assert facts["as_of_replayed"] > 0  # the suffix after the checkpoint
    assert facts["served_numpy"] is False
    # past the crossover: numpy loads on the first call that needs it,
    # and its analysis is the stdlib kernels' and the reference's
    assert facts["past_crossover_cells"] >= facts["crossover"]
    assert facts["stdlib_numpy"] is False
    assert facts["past_crossover_numpy"] is HAVE_NUMPY
    assert facts["past_crossover_is_stdlib"]
    assert facts["past_crossover_is_reference"]
