"""Command-line interface to the assessment system.

Subcommands mirror what the paper's GUI offers, driven from a terminal::

    mine-assess tree                      # Figure 1: the metadata tree
    mine-assess rules                     # the paper's four rule examples
    mine-assess simulate --students 44    # simulate a class, print the report
    mine-assess package --out exam.zip    # §5.5 SCORM package output
    mine-assess inspect exam.zip          # read a package's manifest
    mine-assess serve --port 8321         # HTTP exam-delivery service
    mine-assess serve --wal-dir wal/      # ... with a durable event journal
    mine-assess serve --wal-dir wal/ --readmodel   # ... + /admin/analytics
    mine-assess recover wal/              # rebuild state from the journal
    mine-assess analytics rebuild wal/    # fold the full journal (oracle)
    mine-assess analytics asof wal/ --ts 1717171717   # time-travel query
    mine-assess loadgen --url http://127.0.0.1:8321   # drive a cohort at it
    mine-assess loadgen --url ... --adaptive   # the CAT next-item loop
    mine-assess calibrate wal/                 # journal-fed 2PL re-fit
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import obs
from repro.core.grouping import GroupSplit
from repro.core.metadata import MineMetadata
from repro.core.report import build_report
from repro.core.rules import OptionMatrix, evaluate_rules
from repro.core.spec_table import SpecificationTable, TaggedQuestion

__all__ = ["main", "build_parser"]

_PAPER_EXAMPLES = [
    ("Example 1 (Rule 1)", [12, 2, 0, 3, 3], [6, 4, 0, 5, 5], "A"),
    ("Example 2 (Rule 2)", [1, 2, 10, 0, 7], [2, 2, 13, 1, 2], "C"),
    ("Example 3 (Rule 3)", [15, 2, 2, 0, 1], [5, 4, 5, 4, 2], "A"),
    ("Example 4 (Rule 4)", [4, 4, 4, 2, 6], [5, 4, 5, 4, 2], "A"),
]


def _profile_parent() -> argparse.ArgumentParser:
    """Options every subcommand gets: the observability switch."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help=(
            "record spans/counters for this run and print the profile to "
            "stderr; with PATH, also append JSON-lines events to PATH"
        ),
    )
    return parent


def _generator_parent() -> argparse.ArgumentParser:
    """Options shared by every cohort-simulating subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--sim-engine", dest="sim_engine",
        choices=("scalar", "vectorized", "auto"), default="scalar",
        help=(
            "cohort generator (scalar = per-learner loop, vectorized = "
            "numpy batch engine, auto = vectorized when numpy is present)"
        ),
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the mine-assess argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="mine-assess",
        description=(
            "MINE assessment authoring system - reproduction of Hung et "
            "al. (2004)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    profile = _profile_parent()
    generators = _generator_parent()

    subparsers.add_parser(
        "tree", parents=[profile],
        help="print the Figure 1 metadata tree",
    )
    subparsers.add_parser(
        "rules", parents=[profile],
        help="run the paper's four diagnostic-rule examples",
    )

    simulate = subparsers.add_parser(
        "simulate", parents=[profile, generators],
        help="simulate a class sitting and print the analysis",
    )
    simulate.add_argument("--students", type=int, default=44)
    simulate.add_argument("--questions", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--split", type=float, default=0.25,
        help="extreme-group fraction (paper: 0.25)",
    )

    package = subparsers.add_parser(
        "package", parents=[profile],
        help="SCORM package output service (section 5.5)",
    )
    package.add_argument("--out", required=True, help="output .zip path")
    package.add_argument("--questions", type=int, default=10)

    inspect = subparsers.add_parser(
        "inspect", parents=[profile],
        help="list a content package's manifest",
    )
    inspect.add_argument("package", help="path to a .zip content package")

    paper = subparsers.add_parser(
        "paper", parents=[profile],
        help="render an exam paper and its answer key",
    )
    paper.add_argument("--questions", type=int, default=10)
    paper.add_argument("--learner", default="",
                       help="learner id (matters for random-order exams)")
    paper.add_argument("--key", action="store_true",
                       help="print the answer key instead of the paper")

    export = subparsers.add_parser(
        "export", parents=[profile, generators],
        help="simulate a class and export the analysis",
    )
    export.add_argument("--students", type=int, default=44)
    export.add_argument("--questions", type=int, default=10)
    export.add_argument("--seed", type=int, default=0)
    export.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="json = full report; csv = the 4.1.1 table",
    )

    serve = subparsers.add_parser(
        "serve", parents=[profile],
        help="run the HTTP exam-delivery service (repro.server)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "run a sharded delivery tier: N worker processes behind one "
            "SO_REUSEPORT front port, learners consistent-hashed across "
            "them; with --wal-dir each shard journals to its own "
            "subdirectory (DIR/shard-0, DIR/shard-1, ...)"
        ),
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=64,
        help="requests in service before 503 backpressure kicks in",
    )
    serve.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help=(
            "durable event journal directory: every mutation is "
            "write-ahead logged before its response is acknowledged, and "
            "startup recovers the pre-crash state from the newest "
            "checkpoint plus the log; without it the LMS lives in memory"
        ),
    )
    serve.add_argument(
        "--fsync", choices=("always", "interval", "never"),
        default="interval",
        help=(
            "WAL fsync policy: always = flush disk per record, interval "
            "= coalesced fsyncs (default; still SIGKILL-safe), never = "
            "OS page cache only"
        ),
    )
    # accepted and ignored: --fsync always always group-commits
    serve.add_argument(
        "--group-commit", action="store_true", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=None,
        metavar="SECONDS",
        help=(
            "checkpoint the WAL every SECONDS: snapshot the LMS, retire "
            "fully-covered segments (requires --wal-dir)"
        ),
    )
    serve.add_argument(
        "--readmodel", action="store_true",
        help=(
            "tail the journal into incrementally-maintained analytics "
            "read models and serve them at GET /admin/analytics/... "
            "(requires --wal-dir; with --workers each shard follows its "
            "own journal and the front scatter-gathers)"
        ),
    )

    recover_cmd = subparsers.add_parser(
        "recover", parents=[profile],
        help="rebuild LMS state from a WAL directory and print a report",
    )
    recover_cmd.add_argument(
        "wal_dir", metavar="DIR", nargs="+",
        help=(
            "journal directory written by serve --wal-dir; pass several "
            "(or one cluster root containing shard-* subdirectories) to "
            "merge per-shard recoveries into one whole-cohort state"
        ),
    )
    recover_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the recovered state as a snapshot file to PATH",
    )

    analytics = subparsers.add_parser(
        "analytics", parents=[profile],
        help="fold a WAL into analytics read models offline",
    )
    analytics.add_argument(
        "action", choices=("rebuild", "asof"),
        help=(
            "rebuild = fold the full journal from LSN 0 (the "
            "differential oracle for the live read models); asof = "
            "time-travel to --lsn/--ts via the nearest read-model "
            "checkpoint plus a bounded suffix replay"
        ),
    )
    analytics.add_argument(
        "wal_dir", metavar="DIR", nargs="+",
        help=(
            "journal directory written by serve --wal-dir; pass several "
            "(or one cluster root containing shard-* subdirectories) to "
            "merge per-shard folds into one whole-cohort answer"
        ),
    )
    analytics.add_argument(
        "--exam", metavar="EXAM_ID", default=None,
        help=(
            "also print this exam's merged summary and full cohort "
            "analysis (bit-identical to GET /admin/analytics/exams/"
            "EXAM_ID/analysis over the same journals)"
        ),
    )
    analytics.add_argument(
        "--lsn", type=int, default=None,
        help="asof target LSN (single journal only: LSNs are per-shard)",
    )
    analytics.add_argument(
        "--ts", type=float, default=None,
        help="asof target timestamp (meaningful across shards)",
    )
    analytics.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON payload to PATH",
    )

    loadgen = subparsers.add_parser(
        "loadgen", parents=[profile],
        help="drive a simulated cohort through a running server",
    )
    loadgen.add_argument(
        "--url", required=True,
        help="base URL of a running mine-assess serve instance",
    )
    loadgen.add_argument("--students", type=int, default=200)
    loadgen.add_argument("--questions", type=int, default=20)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--workers", type=int, default=8)
    loadgen.add_argument(
        "--batch", type=int, default=0, metavar="K",
        help=(
            "post answers K at a time via answers:batch (the final "
            "chunk submits the sitting); 0 = one request per answer"
        ),
    )
    loadgen.add_argument(
        "--cluster", action="store_true",
        help=(
            "topology-aware mode against serve --workers: fetch "
            "/cluster/topology, rebuild the hash ring client-side, and "
            "drive each learner directly at the shard that owns them"
        ),
    )
    loadgen.add_argument(
        "--adaptive", action="store_true",
        help=(
            "drive the CAT loop: offer an adaptive exam, let the server "
            "pick each item via GET .../next-item, answer what it "
            "chose, submit when the policy says done (incompatible "
            "with --batch)"
        ),
    )
    loadgen.add_argument(
        "--no-setup", action="store_true",
        help="skip offering the exam / registering learners first",
    )
    loadgen.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON summary (throughput, percentiles) here",
    )

    calibrate = subparsers.add_parser(
        "calibrate", parents=[profile],
        help=(
            "re-fit 2PL item parameters from a WAL's completed sittings "
            "and write a versioned snapshot a server hot-swaps"
        ),
    )
    calibrate.add_argument(
        "wal_dir", metavar="DIR",
        help="journal directory written by serve --wal-dir",
    )
    calibrate.add_argument(
        "--exam", metavar="EXAM_ID", default=None,
        help=(
            "calibrate only this exam (default: every offered exam "
            "with an adaptive policy)"
        ),
    )
    calibrate.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help=(
            "snapshot output directory (default: DIR/calibration, "
            "where a serving process looks on boot and on "
            "POST /admin/calibration/reload)"
        ),
    )
    calibrate.add_argument(
        "--min-sittings", type=int, default=10,
        help="skip exams with fewer graded sittings than this",
    )
    calibrate.add_argument(
        "--iterations", type=int, default=25,
        help="EM iterations for the 2PL fit",
    )
    return parser


def _cmd_tree(_args) -> int:
    print(MineMetadata().render_tree())
    return 0


def _cmd_rules(_args) -> int:
    for title, high, low, correct in _PAPER_EXAMPLES:
        matrix = OptionMatrix.from_rows(high, low, correct=correct)
        outcome = evaluate_rules(matrix)
        print(f"== {title} (correct: {correct}) ==")
        print(matrix.render())
        if outcome.matches:
            for match in outcome.matches:
                print(f"  {match.explanation}")
        else:
            print("  no rule fired")
        print()
    return 0


def _build_simulated_report(args):
    """Shared by simulate/export: run the classroom scenario."""
    from repro.sim.population import make_population
    from repro.sim.workloads import (
        classroom_exam,
        classroom_parameters,
        simulate_sitting_data,
    )

    exam = classroom_exam(args.questions)
    parameters = classroom_parameters(args.questions)
    learners = make_population(args.students, seed=args.seed)
    simulate = simulate_sitting_data
    if args.sim_engine != "scalar":
        # the generators draw different cohorts from one seed, so the
        # flag picks the output, not just the speed
        from repro.sim.vectorized import HAVE_NUMPY, simulate_sitting_arrays

        if args.sim_engine == "vectorized" or HAVE_NUMPY:
            simulate = simulate_sitting_arrays
    data = simulate(exam, parameters, learners, seed=args.seed + 1)
    cohort = data.analyze(split=GroupSplit(fraction=args.split))
    correct_flags = {
        response.examinee_id: [
            selection == spec.correct
            for selection, spec in zip(response.selections, data.specs)
        ]
        for response in data.responses
    }
    spec_table = SpecificationTable.from_questions(
        [
            TaggedQuestion(
                number=index + 1,
                concept=item.subject,
                level=item.cognition_level,
            )
            for index, item in enumerate(exam.items)
        ]
    )
    return build_report(
        exam.title,
        cohort,
        correct_flags=correct_flags,
        answer_times=data.answer_times,
        time_limit_seconds=exam.time_limit_seconds,
        spec_table=spec_table,
        specs=data.specs,
    )


def _cmd_simulate(args) -> int:
    if args.students < 8:
        print("need at least 8 students for a 25% split", file=sys.stderr)
        return 2
    print(_build_simulated_report(args).render())
    return 0


def _cmd_export(args) -> int:
    if args.students < 8:
        print("need at least 8 students for a 25% split", file=sys.stderr)
        return 2
    args.split = getattr(args, "split", 0.25)
    report = _build_simulated_report(args)
    if args.format == "json":
        from repro.core.export import report_to_json

        print(report_to_json(report))
    else:
        from repro.core.export import number_representation_csv

        print(number_representation_csv(report), end="")
    return 0


def _cmd_paper(args) -> int:
    from repro.exams.render import render_answer_key, render_exam_paper
    from repro.sim.workloads import classroom_exam

    exam = classroom_exam(args.questions)
    if args.key:
        print(render_answer_key(exam))
    else:
        print(render_exam_paper(exam, args.learner))
    return 0


def _cmd_package(args) -> int:
    from repro.scorm.package import package_exam
    from repro.sim.workloads import classroom_exam

    exam = classroom_exam(args.questions)
    payload = package_exam(exam, args.out)
    print(f"wrote {args.out} ({len(payload)} bytes, {len(exam.items)} items)")
    return 0


def _cmd_inspect(args) -> int:
    from repro.scorm.package import ContentPackage

    try:
        package = ContentPackage.from_file(args.package)
    except Exception as exc:  # surface any packaging error to the operator
        print(f"cannot read package: {exc}", file=sys.stderr)
        return 2
    manifest = package.manifest
    print(f"manifest: {manifest.identifier} (SCORM {manifest.schema_version})")
    for organization in manifest.organizations:
        print(f"organization: {organization.identifier} - {organization.title}")
        for item in organization.walk():
            ref = f" -> {item.identifierref}" if item.identifierref else ""
            print(f"  item {item.identifier}: {item.title}{ref}")
    print(f"resources: {len(manifest.resources)}")
    for resource in manifest.resources:
        print(
            f"  {resource.identifier} ({resource.scorm_type}) {resource.href}"
        )
    return 0


def _cmd_serve(args) -> int:
    from repro.core.errors import AssessmentError
    from repro.server.app import ExamServer

    if args.readmodel and args.wal_dir is None:
        print(
            "--readmodel tails the event journal; it requires --wal-dir",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1:
        return _serve_cluster(args)
    # with --wal-dir the server recovers from the newest checkpoint +
    # WAL suffix before serving; without it, it starts empty in memory
    try:
        server = ExamServer(
            host=args.host,
            port=args.port,
            wal_dir=args.wal_dir,
            **_server_options(args),
        )
    except AssessmentError as exc:  # the WAL that recovery refuses
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    if server.recovery_report is not None:
        print(server.recovery_report.summary(), file=sys.stderr)
    server.start()
    _wait_for_stop(f"serving on {server.url}")
    # drain in-flight requests, take the final checkpoint, exit 0
    print("shutting down (draining in-flight requests)", file=sys.stderr)
    server.shutdown()
    return 0


def _wait_for_stop(banner: str) -> None:
    """Print ``banner`` to stdout, then block until SIGTERM (what process
    supervisors send) or ^C; the handler is in place before the banner
    tells a client the server is up."""
    import signal
    import threading

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    print(banner, flush=True)
    try:
        # Event.wait in a loop: a bare wait() can sit in an
        # uninterruptible futex and miss the signal handler's set()
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass


def _server_options(args) -> dict:
    """The ``ExamServer`` options of ``serve``, for one process or for
    every worker of a cluster."""
    return {
        "max_in_flight": args.max_in_flight,
        "fsync": args.fsync,
        "checkpoint_interval_seconds": args.checkpoint_interval,
        "readmodel": args.readmodel,
    }


def _serve_cluster(args) -> int:
    """serve --workers N: the sharded multi-process delivery tier."""
    from repro.cluster.supervisor import ExamCluster
    from repro.core.errors import StoreError

    cluster = ExamCluster(
        workers=args.workers,
        host=args.host,
        front_port=args.port,
        wal_root=args.wal_dir,
        **_server_options(args),
    )
    try:
        cluster.start()
    except StoreError as exc:  # the worker printed why recovery failed
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        for shard in cluster.shards:
            print(
                f"  {shard}: {cluster.worker_url(shard)}", file=sys.stderr
            )
        _wait_for_stop(f"serving on {cluster.url} ({args.workers} workers)")
        print("shutting down workers", file=sys.stderr)
    finally:
        cluster.stop()
    return 0


def _recover_wal_dirs(args) -> List[str]:
    """The journal directories to recover: explicit list, or the
    shard-* subdirectories of a single cluster root."""
    import os

    dirs = list(args.wal_dir)
    if len(dirs) == 1:
        shard_dirs = sorted(
            entry.path
            for entry in os.scandir(dirs[0])
            if entry.is_dir() and entry.name.startswith("shard-")
        )
        if shard_dirs:
            print(
                f"cluster root: merging {len(shard_dirs)} shard "
                f"journals", file=sys.stderr,
            )
            return shard_dirs
    return dirs


def _cmd_recover(args) -> int:
    from repro.lms.persistence import lms_from_payload, merge_payloads
    from repro.store import recover

    try:
        wal_dirs = _recover_wal_dirs(args)
        reports = [recover(wal_dir) for wal_dir in wal_dirs]
    except Exception as exc:  # surface store errors to the operator
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.summary())
    if len(reports) == 1:
        lms = reports[0].lms
    else:
        # merge the per-shard recoveries into one whole-cohort LMS:
        # export each shard's state, merge the payloads (learners are
        # disjoint; exams are broadcast duplicates), reload
        from repro.lms.persistence import collect_payload

        try:
            lms = lms_from_payload(
                merge_payloads(
                    [collect_payload(report.lms) for report in reports]
                )
            )
        except Exception as exc:
            print(f"merge failed: {exc}", file=sys.stderr)
            return 2
        print(f"merged {len(reports)} shard recoveries")
    for exam_id in lms.offered_exams():
        open_sittings = sum(
            1
            for (_, eid) in lms._sittings
            if eid == exam_id
        )
        print(
            f"  exam {exam_id}: {len(lms.enrolled(exam_id))} enrolled, "
            f"{len(lms.results_for(exam_id))} graded, "
            f"{open_sittings} sitting record(s)"
        )
    print(f"  learners: {len(lms.learners)}")
    print(f"  tracking events: {len(lms.tracking)}")
    if args.out:
        from repro.lms.persistence import save_lms

        # per-shard LSN sequences are independent; for a merged export
        # the max is informational only
        save_lms(
            lms,
            args.out,
            wal_lsn=max(report.last_lsn for report in reports),
        )
        print(f"wrote recovered state to {args.out}", file=sys.stderr)
    return 0


def _cmd_analytics(args) -> int:
    """Offline read-model folds: the differential oracle + time travel.

    A single journal's ``--exam`` analysis is computed from the fold's
    own live matrix (submission order) — bit-identical to what one
    ``serve --readmodel`` process answers.  Several journals are merged
    through canonical partials — bit-identical to the cluster's
    scatter-gathered answer over the same shard journals.
    """
    import json as json_module

    from repro.readmodel import as_of, rebuild

    try:
        wal_dirs = _recover_wal_dirs(args)
    except Exception as exc:
        print(f"cannot expand journal dirs: {exc}", file=sys.stderr)
        return 2
    if args.action == "asof":
        if (args.lsn is None) == (args.ts is None):
            print(
                "asof needs exactly one of --lsn / --ts", file=sys.stderr
            )
            return 2
        if args.lsn is not None and len(wal_dirs) > 1:
            print(
                "--lsn is a per-shard coordinate; use --ts to time-travel "
                "across shard journals",
                file=sys.stderr,
            )
            return 2
    elif args.lsn is not None or args.ts is not None:
        print("--lsn/--ts only apply to the asof action", file=sys.stderr)
        return 2
    models = []
    try:
        for wal_dir in wal_dirs:
            if args.action == "asof":
                model, replayed = as_of(wal_dir, lsn=args.lsn, ts=args.ts)
                print(
                    f"{wal_dir}: as of lsn {model.applied_lsn} "
                    f"({replayed} suffix record(s) replayed)",
                    file=sys.stderr,
                )
            else:
                model = rebuild(wal_dir)
                print(
                    f"{wal_dir}: rebuilt {model.applied_events} event(s) "
                    f"to lsn {model.applied_lsn}",
                    file=sys.stderr,
                )
            models.append(model)
        payload = _analytics_payload(models, args.exam)
    except Exception as exc:
        print(f"analytics fold failed: {exc}", file=sys.stderr)
        return 2
    rendered = json_module.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _analytics_payload(models, exam_id):
    """Merge per-journal folds into one whole-cohort JSON payload."""
    overviews = [model.overview() for model in models]
    payload = {
        "journals": len(models),
        "applied_events": sum(o["applied_events"] for o in overviews),
        "learners": sum(o["learners"] for o in overviews),
        "exams": sorted(
            {entry["exam_id"] for o in overviews for entry in o["exams"]}
        ),
    }
    if exam_id is None:
        return payload
    from repro.core.errors import NotFoundError
    from repro.core.export import analysis_to_dict
    from repro.readmodel.model import merge_summaries

    holders = [
        model.exam(exam_id) for model in models if exam_id in model.exams
    ]
    if not holders:
        raise NotFoundError(f"no journal holds exam {exam_id!r}")
    payload["summary"] = merge_summaries(
        [holder.summary() for holder in holders]
    )
    if len(holders) == 1:
        # one journal: the fold's own matrix, submission order — exactly
        # what a single serve --readmodel process answers
        payload["analysis"] = analysis_to_dict(holders[0].analysis())
    else:
        # several journals: canonical merge, exactly the cluster's
        # scatter-gathered answer
        from repro.core.columnar import merge_partials

        matrix = merge_partials(
            holders[0].exam.question_specs(),
            [holder.cohort.partial() for holder in holders],
        )
        payload["analysis"] = analysis_to_dict(matrix.analyze())
    return payload


def _cmd_loadgen(args) -> int:
    from repro.server.loadgen import run_loadgen

    report = run_loadgen(
        args.url,
        learners=args.students,
        questions=args.questions,
        seed=args.seed,
        workers=args.workers,
        setup=not args.no_setup,
        batch=args.batch,
        cluster=args.cluster,
        adaptive=args.adaptive,
    )
    print(report.render())
    if args.out:
        import json as json_module
        from pathlib import Path

        Path(args.out).write_text(
            json_module.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_calibrate(args) -> int:
    """The journal-fed calibration loop: WAL -> 2PL fit -> snapshot.

    Recovers the LMS from the journal, harvests the completed-sitting
    response matrix per adaptive exam (missing = never administered),
    re-fits via :func:`~repro.adaptive.item_calibration.calibrate_2pl`,
    and writes a ``params-<exam>-v<N>.json`` snapshot one version above
    the exam's current one — exactly what a serving process scans for
    at boot and on ``POST /admin/calibration/reload``.
    """
    from pathlib import Path

    from repro.adaptive.item_calibration import calibrate_2pl
    from repro.adaptive.online import (
        collect_calibration_matrix,
        write_calibration_snapshot,
    )
    from repro.store import recover

    try:
        report = recover(args.wal_dir)
    except Exception as exc:  # surface store errors to the operator
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 2
    print(report.summary(), file=sys.stderr)
    lms = report.lms
    out_dir = (
        Path(args.out_dir)
        if args.out_dir is not None
        else Path(args.wal_dir) / "calibration"
    )
    exam_ids = (
        [args.exam] if args.exam is not None else lms.offered_exams()
    )
    wrote = 0
    for exam_id in exam_ids:
        exam = lms.exam(exam_id)
        if exam.adaptive is None:
            if args.exam is not None:
                print(
                    f"exam {exam_id!r} has no adaptive policy; nothing "
                    f"to calibrate",
                    file=sys.stderr,
                )
                return 2
            continue
        item_ids, matrix = collect_calibration_matrix(lms, exam_id)
        if len(matrix) < args.min_sittings:
            print(
                f"  {exam_id}: {len(matrix)} graded sitting(s) < "
                f"--min-sittings {args.min_sittings}; skipped"
            )
            continue
        result = calibrate_2pl(matrix, max_iterations=args.iterations)
        version = lms.calibration_version(exam_id) + 1
        path = write_calibration_snapshot(
            out_dir,
            exam_id,
            version,
            result.as_pool(item_ids),
            diagnostics={
                "sittings": len(matrix),
                "items": len(item_ids),
                "iterations": result.iterations,
                "converged": result.converged,
                "log_likelihood": result.log_likelihood,
            },
        )
        wrote += 1
        fit = "converged" if result.converged else "NOT converged"
        print(
            f"  {exam_id}: fitted {len(item_ids)} item(s) from "
            f"{len(matrix)} sitting(s) in {result.iterations} EM "
            f"iteration(s) ({fit}) -> {path}"
        )
    if not wrote:
        print("no calibration snapshots written", file=sys.stderr)
        return 1
    print(
        f"{wrote} snapshot(s) in {out_dir}; a serving process picks "
        f"them up at boot or on POST /admin/calibration/reload"
    )
    return 0


_COMMANDS = {
    "tree": _cmd_tree,
    "rules": _cmd_rules,
    "simulate": _cmd_simulate,
    "paper": _cmd_paper,
    "export": _cmd_export,
    "package": _cmd_package,
    "inspect": _cmd_inspect,
    "serve": _cmd_serve,
    "recover": _cmd_recover,
    "analytics": _cmd_analytics,
    "loadgen": _cmd_loadgen,
    "calibrate": _cmd_calibrate,
}


def _run_profiled(args) -> int:
    """Run a command under the observability registry, then report."""
    sink = None
    if args.profile != "-":
        sink = obs.JsonLinesSink(args.profile)
    obs.enable(*([sink] if sink else []))
    try:
        with obs.span(f"cli.{args.command}"):
            code = _COMMANDS[args.command](args)
        obs.flush()
        print(obs.render(), file=sys.stderr)
        if sink is not None:
            print(
                f"profile: {sink.lines_written} events -> {args.profile}",
                file=sys.stderr,
            )
    finally:
        obs.disable()
        obs.reset()
        if sink is not None:
            obs.get_registry().remove_sink(sink)
            sink.close()
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "profile", None) is not None:
        return _run_profiled(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
