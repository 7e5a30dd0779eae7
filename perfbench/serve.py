"""Launch a server process for the benchmark.

    python3 perfbench/serve.py --report-dir DIR [--trace] -- serve ...
    python3 perfbench/serve.py --report-dir DIR --null

The first form runs ``mine-assess serve ...`` (``repro.cli.main``) from
the checkout's ``src/``.  With ``--trace`` the span wrappers of
``tracer.py`` go in first, so a ``--workers`` supervisor's forked
workers, and any worker its watchdog restarts, inherit them.  The
second form serves a constant JSON body for every request, from the
same ``http.server`` stack the exam server uses: the load generator's
latency floor.

On ``SIGUSR1`` the process (each worker too) writes
``DIR/report-<pid>-<k>.json``: its peak resident memory; on
``SIGUSR2``, when tracing, also every span recorded so far.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

NULL_BODY = b'{"ok": true}'


class _NullHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def _reply(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            self.rfile.read(length)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(NULL_BODY)))
        self.end_headers()
        self.wfile.write(NULL_BODY)

    do_GET = do_POST = _reply

    def log_message(self, format, *args) -> None:
        pass


def _install_report(report_dir: str, tracer) -> None:
    """SIGUSR1 writes this process's peak memory; SIGUSR2 adds the
    spans.  Each signal gets the next ``report-<pid>-<k>.json``."""
    sent = {}

    def report(signum, frame) -> None:
        pid = os.getpid()
        k = sent.get(pid, 0)  # keyed by pid: forked workers start at 0
        sent[pid] = k + 1
        path = os.path.join(report_dir, f"report-{pid}-{k}.json")
        document = {
            "pid": pid,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None and signum == signal.SIGUSR2:
            tracer.dump(path + ".spans")
            document["spans_file"] = path + ".spans"
        with open(path + ".tmp", "w", encoding="utf-8") as stream:
            json.dump(document, stream)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, report)
    signal.signal(signal.SIGUSR2, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--null", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.null:
        _install_report(args.report_dir, None)
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _NullHandler)
        httpd.daemon_threads = True
        print(f"serving on http://127.0.0.1:{httpd.server_address[1]}",
              flush=True)
        httpd.serve_forever(poll_interval=0.05)
        return 0
    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.install()
    _install_report(args.report_dir, tracer)
    from repro.cli import main as cli_main

    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    return cli_main(serve_args)


if __name__ == "__main__":
    sys.exit(main())
