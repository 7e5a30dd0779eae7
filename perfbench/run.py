#!/usr/bin/env python3
"""The exam service benchmark: one command, three workloads.

    python3 perfbench/run.py --workload classroom|adaptive_fleet|bulk_sync
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It starts real ``serve`` processes
from ``src/``, sets them up, drives them over HTTP from this one
process (one thread, at most ``nproc`` connections), checks what they
served, SIGKILLs them and times their recovery.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` installs span wrappers in the
server processes and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.
The full record of the run, host and parameters included, is written
to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
BOOT_TIMEOUT = 120.0


# -- server processes ----------------------------------------------------------


def _read_line(stream, timeout: float) -> str:
    """One stdout line of a child, or TimeoutError."""
    deadline = time.monotonic() + timeout
    data = b""
    fd = stream.fileno()
    while not data.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError("server did not report its address")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError("server exited during boot")
        data += chunk
    return data.decode()


def _address(url: str) -> Tuple[str, int]:
    host, _, port = url.rsplit("/", 1)[-1].partition(":")
    return host, int(port)


class Server:
    """One ``serve`` process group: a server, or a supervisor and its
    workers."""

    def __init__(self, work: Path, serve_args: List[str], trace: bool,
                 fleet: bool) -> None:
        self.work = work
        self.serve_args = serve_args
        self.trace = trace
        self.fleet = fleet
        self.proc: Optional[subprocess.Popen] = None
        self.addresses: List[Tuple[str, int]] = []
        self.worker_pids: List[int] = []
        self._reports_asked: Dict[int, int] = {}
        self.reports = work / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)

    def start(self, null: bool = False) -> None:
        command = [sys.executable, str(HERE / "serve.py"),
                   "--report-dir", str(self.reports)]
        if null:
            command.append("--null")
        else:
            if self.trace:
                command.append("--trace")
            command += ["--", "serve", "--port", "0", *self.serve_args]
        with open(self.work / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=log,
                start_new_session=True,
            )
        line = _read_line(self.proc.stdout, BOOT_TIMEOUT)
        url = line.split("serving on ", 1)[1].split()[0]
        self.addresses = [_address(url)]
        if self.fleet:
            from client import call

            _, topology = call(self.addresses[0], "GET", "/cluster/topology")
            self.addresses = [_address(shard["url"])
                              for shard in topology["shards"]]
            self.worker_pids = [self.pid_of(address)
                                for address in self.addresses]
        self.wait_serving(self.addresses[0])

    def pid_of(self, address) -> int:
        from client import call

        return call(address, "GET", "/cluster/topology")[1]["pid"]

    @staticmethod
    def wait_serving(address, old_pid: Optional[int] = None,
                     fleet: bool = False) -> None:
        from client import call

        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            try:
                if fleet:
                    status, payload = call(address, "GET",
                                           "/cluster/topology", timeout=2)
                    if status == 200 and payload["pid"] != old_pid:
                        return
                elif call(address, "GET", "/healthz", timeout=2)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise TimeoutError(f"{address} not serving")

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self.worker_pids]

    def report(self, pids: List[int], spans: bool = False) -> Dict[int, dict]:
        """Ask each process (``serve.py``) for its peak RSS and, with
        ``spans``, its spans; wait for every report."""
        return self.collect(self.ask(pids, spans))

    def ask(self, pids: List[int], spans: bool = False) -> Dict[int, Path]:
        """Signal each process to write its report; do not wait."""
        paths = {}
        for pid in pids:
            k = self._reports_asked.get(pid, 0)
            self._reports_asked[pid] = k + 1
            paths[pid] = self.reports / f"report-{pid}-{k}.json"
            os.kill(pid, signal.SIGUSR2 if spans else signal.SIGUSR1)
        return paths

    def collect(self, paths: Dict[int, Path]) -> Dict[int, dict]:
        """Wait for the reports :meth:`ask` asked for."""
        deadline = time.monotonic() + 60
        documents = {}
        for pid, path in paths.items():
            while not path.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError(f"no report from pid {pid}")
                time.sleep(0.02)
            documents[pid] = json.loads(path.read_text())
        return documents

    def kill(self) -> None:
        """SIGKILL the whole process group and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()

    def stop(self) -> None:
        """Stop for good: a supervisor stops and reaps its own workers."""
        if self.proc is None or self.proc.poll() is not None:
            return self.kill()
        if self.fleet:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


# -- statistics ---------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_quantile(count: int) -> Optional[float]:
    """The highest of p99.9/p99/p90/p50 with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def host_record() -> Dict[str, object]:
    import numpy

    sha = None
    try:
        # the ceiling keeps git from reading a repository above the root
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    # a checkout that is not a git repository still names its sources
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# -- the run -------------------------------------------------------------------


def serve_args(name: str, params: dict, wal_dir: Path) -> List[str]:
    args = ["--wal-dir", str(wal_dir), "--fsync", params["fsync"]]
    if name == "adaptive_fleet":
        args += ["--workers", str(params["workers"])]
    if name == "bulk_sync":
        args += ["--group-commit", "--readmodel"]
    return args


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """One measured run; every server it started is stopped on return."""
    servers: List[Server] = []
    try:
        return measure(name, seed, seconds, trace, work, servers)
    finally:
        for server in servers:
            server.stop()


def boot(name: str, traffic, work: Path, wal_dir: Path, trace: bool,
         servers: List["Server"], connections: int) -> "Server":
    """Start the workload's server and set it up: offer the exam (the
    table build on every shard), register and enroll the cohort."""
    from client import Loop, call

    from repro.bank.exambank import exam_to_record

    server = Server(work, serve_args(name, traffic.params, wal_dir), trace,
                    name == "adaptive_fleet")
    servers.append(server)
    server.start()
    status, _ = call(server.addresses[0], "POST", "/exams",
                     exam_to_record(traffic.exam))
    if status != 201:
        raise RuntimeError(f"offering the exam answered {status}")
    loop = Loop([server.addresses[i % len(server.addresses)]
                 for i in range(connections)])
    for agent in traffic.setup_agents(connections):
        loop.add(agent)
    loop.run()
    loop.close()
    return server


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            servers: List["Server"]) -> dict:
    from client import Loop, Request, call, clock
    from layers import layer_metrics
    from workloads import Traffic, offered_rate

    traffic = Traffic(name, seed)
    params = traffic.params
    fleet = name == "adaptive_fleet"
    connections = 2

    # set-up, several times; the last server is the one under load
    setup_times = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        wal_dir = work / f"wal-{repeat}"
        began = clock()
        server = boot(name, traffic, work, wal_dir, trace, servers,
                      connections)
        setup_times.append(clock() - began)

    # load: warm-up, then the timed window
    addresses = [server.addresses[i % len(server.addresses)]
                 for i in range(connections)]
    loop = Loop(addresses)
    traffic.wake = loop.wake
    traffic.wal_dir = wal_dir
    rss_asked: Dict[int, Path] = {}
    traffic.rss_point = lambda: rss_asked.update(server.ask(server.pids))
    t0 = clock() + 0.05
    window = (t0 + params["warmup_s"], t0 + params["warmup_s"] + seconds)
    before: Dict[int, dict] = {}

    def monitor(conn: int):
        done = yield Request("GET", "/metrics", route="metrics", conn=conn,
                             due=window[0])
        before[conn] = done.json()

    for agent in traffic.load_agents(t0, connections):
        loop.add(agent)
    monitor_conns = range(len(server.addresses))
    for conn in monitor_conns:
        loop.add(monitor(conn))
    loop.run(stop_at=window[1])
    loop.close()
    # peak memory of the server processes, before anything else runs
    # (a closed loop's was asked for after a fixed number of sittings)
    rss_sampled = (f"after sitting {params['rss_at_sittings']}"
                   if rss_asked else "end of load")
    usage = server.collect(rss_asked or server.ask(server.pids))
    rss_mb = sum(doc["maxrss_kb"] for doc in usage.values()) / 1024.0
    after = {conn: call(server.addresses[conn], "GET", "/metrics")[1]
             for conn in monitor_conns}
    timed = [r for r in loop.completed if r.route != "metrics"
             and window[0] <= r.due_time < window[1]]
    # a request still unanswered when the drain timed out has failed
    counted = timed + [r for r in loop.completed if r.route == "metrics"] \
        + loop.unanswered
    attempted = len(counted)
    failed = sum(1 for r in counted if not r.ok)

    # correctness on the live server
    front = server.addresses[0]
    checks = []

    def check(label: str, problems: List[str]) -> None:
        checks.append({"check": label, "ok": not problems,
                       "problems": problems[:5]})

    results = call(front, "GET", f"/exams/{traffic.exam_id}/results")[1][
        "results"]
    served = call(front, "GET", f"/exams/{traffic.exam_id}/analysis")[1]
    expected = traffic.expected_analysis(results, canonical=fleet)
    check("a.live_analysis", [] if served == expected
          else ["served analysis differs from local analyze_cohort"])
    if name == "bulk_sync":
        model = call(front, "GET", f"/admin/analytics/exams/"
                     f"{traffic.exam_id}/analysis")[1]
        check("a.readmodel_analysis", [] if model == expected
              else ["read-model analysis differs from local"])
        check("d.as_of", traffic.check_instants(results)
              if traffic.asof_answers else ["no as_of read was made"])
    if fleet:
        check("b.adaptive_sequences", traffic.check_sequences())

    span_files = []
    if trace:
        span_files = [doc["spans_file"] for doc in
                      server.report(server.pids, spans=True).values()
                      if "spans_file" in doc]

    # SIGKILL and recovery: wall time to serving again
    recover_times = []
    for _ in range(params["recoveries"]):
        began = clock()
        if fleet:
            old = server.worker_pids[0]
            os.kill(old, signal.SIGKILL)
            Server.wait_serving(server.addresses[0], old_pid=old, fleet=True)
            recover_times.append(clock() - began)
            server.worker_pids[0] = server.pid_of(server.addresses[0])
            restarted = server.worker_pids[0]
        else:
            server.kill()
            server.start()
            recover_times.append(clock() - began)
            restarted = server.proc.pid
    front = server.addresses[0]
    recovery_files = []
    if trace:
        recovery_files = [doc["spans_file"] for doc in
                          server.report([restarted], spans=True).values()]

    def open_answers(learner_id: str):
        status, payload = call(
            front, "GET", traffic.sitting(learner_id))
        return payload.get("answered") if status == 200 else None

    recovered = call(front, "GET", f"/exams/{traffic.exam_id}/results")
    check("c.recovered_results", traffic.check_results(
        recovered[1]["results"] if recovered[0] == 200 else [],
        open_answers,
    ))
    if name == "bulk_sync":
        live = call(front, "GET", f"/exams/{traffic.exam_id}/analysis")[1]
        model = call(front, "GET", f"/admin/analytics/exams/"
                     f"{traffic.exam_id}/analysis")[1]
        check("c.readmodel_equals_live", [] if model == live
              else ["read-model analysis differs from live after restart"])
    server.stop()

    attempted += len(checks)
    failed += sum(1 for c in checks if not c["ok"])
    ends = e2e_metrics(name, timed, window, before, after, traffic.pauses)
    ends["setup_s"] = (statistics.median(setup_times), "s",
                       len(setup_times))
    ends["recover_s"] = (statistics.median(recover_times), "s",
                         len(recover_times))
    ends["server_rss_mb"] = (rss_mb, "MB", len(usage))
    lateness = [(r.sent - max(r.due_time, r.ready)) * 1e3 for r in timed]
    generator = {
        "gen.late_p99_ms": (percentile(lateness, 99), "ms", len(lateness)),
    }
    layers = {}
    if trace:
        # the generator's floor: the same window against a null server
        # (a closed loop has no schedule to replay; its floor reads 0)
        floor = (replay_floor(work, timed, window[0])
                 if params["kind"] == "open" else [])
        for q in (50, 99):
            generator[f"gen.floor_p{q}_ms"] = (
                percentile(floor, q) if floor else 0.0, "ms", len(floor))
        layers = layer_metrics(
            name, traffic, timed, window, before, after,
            answers_acked(name, timed), span_files, recovery_files,
        )
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "host": host_record(),
        "parameters": {
            **{key: list(value) if isinstance(value, tuple) else value
               for key, value in params.items()},
            "seconds": seconds,
            "offered_answers_per_s": offered_rate(name),
            "connections": connections,
            "threads": 1,
        },
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "routes": route_table(timed),
        "end_to_end": ends,
        "generator": generator,
        "per_layer": layers,
        "setup_times_s": setup_times,
        "recover_times_s": recover_times,
        "paused_s": [end - start for start, end in traffic.pauses],
        "rss_sampled": rss_sampled,
    }


def replay_floor(work: Path, timed, start: float) -> List[float]:
    """Replay the timed window's sends, same offsets and connections,
    against a constant-response server; latencies from due time, ms."""
    from client import Loop, Request, clock

    null = Server(work, [], False, False)
    null.start(null=True)
    try:
        loop = Loop([null.addresses[0]] * 2)
        t0 = clock() + 0.05
        replayed = []

        def one(request):
            copy = Request(request.method, request.path, conn=request.conn,
                           due=t0 + (request.sent - start))
            copy.body = request.body
            replayed.append(copy)
            yield copy

        for request in timed:
            loop.add(one(request))
        loop.run()
        loop.close()
    finally:
        null.kill()
    return [(r.done - r.due) * 1e3 for r in replayed if r.done]


def _latencies(requests, routes) -> List[float]:
    return [(r.done - r.due_time) * 1e3
            for r in requests if r.route in routes and r.ok]


#: the request latencies, each on the workloads whose users wait on it:
#: (metric, routes, percentile, workloads)
LATENCIES = (
    ("answer_p50_ms", ("answer",), 50, ("classroom", "adaptive_fleet")),
    ("answer_p99_ms", ("answer",), 99, ("classroom", "adaptive_fleet")),
    ("next_item_p50_ms", ("next_item",), 50, ("adaptive_fleet",)),
    ("next_item_p99_ms", ("next_item",), 99, ("adaptive_fleet",)),
    ("submit_p50_ms", ("submit",), 50, ("classroom", "adaptive_fleet")),
    ("submit_p90_ms", ("submit",), 90, ("classroom", "adaptive_fleet")),
    ("analysis_p50_ms", ("analysis",), 50,
     ("classroom", "adaptive_fleet", "bulk_sync")),
    ("report_p50_ms", ("report",), 50, ("classroom",)),
    ("asof_p50_ms", ("asof",), 50, ("bulk_sync",)),
    ("upload_p99_ms", ("chunk", "chunk_submit"), 99, ("bulk_sync",)),
)


def route_table(timed) -> Dict[str, dict]:
    """Every timed route: median, tail percentile, sample count."""
    table = {}
    for route in sorted({r.route for r in timed}):
        values = _latencies(timed, (route,))
        if not values:
            continue
        q = tail_quantile(len(values))
        table[route] = {
            "p50_ms": percentile(values, 50),
            "tail": f"p{q:g}" if q is not None else None,
            "tail_ms": percentile(values, q) if q is not None else None,
            "count": len(values),
        }
    return table


def _store_delta(before, after, key: str) -> float:
    return sum(after[c].get("store", {}).get(key, 0)
               - before.get(c, {}).get("store", {}).get(key, 0)
               for c in after)


def answers_acked(name: str, timed) -> int:
    if name == "bulk_sync":
        return sum(
            len(json.loads(r.body)["answers"]) for r in timed
            if r.route in ("chunk", "chunk_submit") and r.ok
        )
    return sum(1 for r in timed if r.route == "answer" and r.ok)


def e2e_metrics(name, timed, window, before, after, pauses):
    """The request-level end-to-end metrics of workload ``name``:
    metric -> (value, unit, samples)."""
    metrics = {}
    for metric, routes, q, workloads in LATENCIES:
        if name in workloads:
            values = _latencies(timed, routes)
            metrics[metric] = (percentile(values, q) if values else 0.0,
                               "ms", len(values))
    answers = answers_acked(name, timed)
    if name == "bulk_sync":
        # capacity: answers over the time the uploaders were not held
        # still for an instant to be recorded
        end = max(r.done for r in timed)
        paused = sum(max(0.0, min(stop, end) - max(start, window[0]))
                     for start, stop in pauses)
        metrics["answers_per_s"] = (
            answers / (end - window[0] - paused), "1/s", answers)
    wal_bytes = _store_delta(before, after, "bytes_appended")
    metrics["wal_bytes_per_answer"] = (
        wal_bytes / answers if answers else 0.0, "B", answers)
    return metrics


# -- entry point ---------------------------------------------------------------


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = load_contract()
    # a terminated run still stops the servers it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result_path = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_path.write_text(json.dumps(record, indent=1, default=str))
    print_report(record, out_dir)
    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    source = dict(record["end_to_end"])
    source.update(record["generator"])
    source.update(record["per_layer"])
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {
            "value": source[entry["name"]][0],
            "unit": entry["unit"],
        }
    correct = all(check["ok"] for check in record["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def print_report(record: dict, out_dir: Path) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("host " + json.dumps(record["host"]))
    print("parameters " + json.dumps(record["parameters"]))
    for route, row in record["routes"].items():
        tail = (f"{row['tail']} {row['tail_ms']:.3f} ms"
                if row["tail"] else "tail n/a")
        print(f"route {route:<14} p50 {row['p50_ms']:.3f} ms  {tail}  "
              f"n={row['count']}")
    for name, (value, unit, count) in sorted(record["end_to_end"].items()):
        print(f"metric {name} = {value:.6g} {unit}  (n={count})")
    for name, (value, unit, count) in sorted(record["generator"].items()):
        print(f"metric {name} = {value:.6g} {unit}  (n={count})")
    for name, (value, unit, count) in sorted(record["per_layer"].items()):
        print(f"layer {name} = {value:.6g} {unit}  (n={count})")
    for check in record["checks"]:
        print(f"check {check['check']}: {'ok' if check['ok'] else 'FAILED'}"
              + ("" if check["ok"] else " " + "; ".join(check["problems"])))
    if record["trace"]:
        untraced = out_dir / (f"{record['workload']}-seed{record['seed']}"
                              f"-trace0.json")
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            for name, (value, unit, _) in sorted(record["end_to_end"].items()):
                if name in base and base[name][0]:
                    change = (value - base[name][0]) / base[name][0]
                    print(f"trace overhead {name}: {change:+.1%} "
                          f"({base[name][0]:.6g} -> {value:.6g} {unit})")


if __name__ == "__main__":
    sys.exit(main())
