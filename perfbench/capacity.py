#!/usr/bin/env python3
"""What an open-loop workload's connection layout carries, closed loop.

    python3 perfbench/capacity.py --workload classroom|adaptive_fleet
                                  [--seed N] [--seconds S]

Sets the workload's server up exactly as ``run.py`` does and runs its
instructor reads at their fixed rates, but replaces the paced learners
with ``N`` closed-loop learners on the same connections: each sends its
next request as soon as the previous one is answered, and a learner who
submits hands over to the next member of the cohort (who re-sits once
everyone has sat).  For each ``N`` it prints the answers acknowledged
per second and the answer latency from send, p50 and p99.  The highest
rate is what the layout carries on the host; the open-loop rates in
``workloads.py`` were set as a stated fraction of it (see NOTES.md).
This is a one-off measurement, not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import ROOT, boot, percentile  # noqa: E402

#: closed-loop learners per level
LEVELS = (1, 2, 4, 8, 16, 32)
WARMUP_S = 2.0


def closed_learner(traffic, turns, conn: int):
    """Sittings back to back, each by the next learner ``turns`` gives."""
    sit = (traffic.classroom_learner if traffic.name == "classroom"
           else traffic.fleet_learner)
    size = len(traffic.cohort)
    for turn in turns:
        member = traffic.cohort[turn % size]
        yield from sit(member.learner_id, conn, None, attempt=turn // size)


def probe(name: str, seed: int, seconds: float, work: Path) -> list:
    from client import Loop, clock
    from workloads import Traffic

    traffic = Traffic(name, seed)
    connections = 2
    servers = []
    rows = []
    try:
        server = boot(name, traffic, work, work / "wal", False, servers,
                      connections)
        addresses = [server.addresses[i % len(server.addresses)]
                     for i in range(connections)]
        turns = itertools.count()
        for slots in LEVELS:
            loop = Loop(addresses)
            t0 = clock() + 0.05
            start, stop = t0 + WARMUP_S, t0 + WARMUP_S + seconds
            loop.add(traffic.instructor(t0, connections))
            for index in range(slots):
                loop.add(closed_learner(
                    traffic, turns, traffic.learner_conn(index, connections)))
            loop.run(stop_at=stop)
            loop.close()
            answers = [r for r in loop.completed if r.route == "answer"
                       and r.ok and start <= r.done < stop]
            latencies = [(r.done - r.sent) * 1e3 for r in answers]
            reads = [(r.done - r.due_time) * 1e3 for r in loop.completed
                     if r.route in ("analysis", "report") and r.ok
                     and start <= r.done < stop]
            rows.append({
                "learners": slots,
                "answers_per_s": len(answers) / seconds,
                "answer_p50_ms": percentile(latencies, 50),
                "answer_p99_ms": percentile(latencies, 99),
                "read_p50_ms": statistics.median(reads) if reads else None,
            })
            print(f"learners {slots:3d}  answers/s "
                  f"{rows[-1]['answers_per_s']:8.1f}  answer p50 "
                  f"{rows[-1]['answer_p50_ms']:7.2f} ms  p99 "
                  f"{rows[-1]['answer_p99_ms']:7.2f} ms  instructor read "
                  f"p50 {rows[-1]['read_p50_ms'] or 0:7.2f} ms", flush=True)
    finally:
        for server in servers:
            server.stop()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("classroom", "adaptive_fleet"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    work = ROOT / ".perfbench" / f"capacity-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rows = probe(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    best = max(rows, key=lambda row: row["answers_per_s"])
    print(f"capacity {args.workload}: {best['answers_per_s']:.1f} answers/s "
          f"with {best['learners']} closed-loop learners")
    return 0


if __name__ == "__main__":
    sys.exit(main())
