"""``repro.server`` — HTTP exam delivery and analysis over the LMS.

The paper's deployment shape (Fig. 1): learners take exams from a
browser against a web LMS while the on-line exam monitor watches.  This
package is that serving layer, dependency-free (stdlib ``http.server``):

* :class:`~repro.server.app.ExamServer` — a threaded REST service over
  one :class:`~repro.lms.lms.Lms`: offerings, enrollment, the full
  sitting lifecycle, live analysis, reports, and monitor metrics, with
  per-route counters, bounded-queue backpressure, graceful drain, and
  a write-ahead log with periodic checkpoints as its persistence;
* :mod:`~repro.server.loadgen` — a load-generation client that drives
  seeded simulated cohorts (the :mod:`repro.sim` learner and
  response-time models) through the HTTP API concurrently and reports
  throughput and latency percentiles.

See ``docs/server.md`` for the endpoint table and JSON schemas, and
``mine-assess serve`` / ``mine-assess loadgen`` for the CLI front ends.
The load generator's names load on first access, so a serving process
never imports it or the simulation models behind it.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports
from repro.server.app import ExamServer
from repro.server.errors import ApiError, api_error_from_exception
from repro.server.handlers import build_router
from repro.server.router import Route, RouteMatch, Router
from repro.server.serialize import analysis_to_dict

__all__ = [
    "ExamServer",
    "ApiError",
    "api_error_from_exception",
    "build_router",
    "LoadgenReport",
    "run_loadgen",
    "Route",
    "RouteMatch",
    "Router",
    "analysis_to_dict",
]


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        name: ("repro.server.loadgen", name)
        for name in ("LoadgenReport", "run_loadgen")
    },
)


if TYPE_CHECKING:  # pragma: no cover - static-analysis eyes only
    from repro.server.loadgen import LoadgenReport, run_loadgen  # noqa: F401
