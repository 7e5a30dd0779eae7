"""Tests for the module-level repro.obs helpers (the default registry)."""

import pytest

from repro import obs
from repro.obs import NOOP_SPAN, Registry, RingBufferSink


@pytest.fixture()
def fresh_registry():
    """Swap in an isolated default registry for the duration of a test."""
    registry = Registry(enabled=False)
    previous = obs.set_registry(registry)
    try:
        yield registry
    finally:
        obs.set_registry(previous)


class TestModuleHelpers:
    def test_disabled_by_default(self, fresh_registry):
        assert obs.enabled() is False
        assert obs.span("anything") is NOOP_SPAN
        obs.count("nothing")
        obs.gauge("nothing", 1)
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "spans": []}

    def test_enable_records_and_disable_stops(self, fresh_registry):
        obs.enable()
        assert obs.enabled() is True
        with obs.span("job", index=1):
            obs.count("steps", 2)
        obs.gauge("size", 5)
        obs.disable()
        with obs.span("after"):  # not recorded
            obs.count("after")
        snap = obs.snapshot()
        assert [s["name"] for s in snap["spans"]] == ["job"]
        assert snap["counters"] == {"steps": 2}
        assert snap["gauges"] == {"size": 5}

    def test_enable_attaches_sinks_and_flush_feeds_them(self, fresh_registry):
        sink = RingBufferSink()
        obs.enable(sink)
        with obs.span("s"):
            pass
        obs.count("c")
        obs.flush()
        assert [event["type"] for event in sink.events] == [
            "span", "counters"
        ]

    def test_reset_clears_state(self, fresh_registry):
        obs.enable()
        with obs.span("s"):
            pass
        obs.count("c")
        obs.reset()
        assert obs.snapshot() == {"counters": {}, "gauges": {}, "spans": []}

    def test_render_mentions_spans_and_counters(self, fresh_registry):
        obs.enable()
        with obs.span("visible.region"):
            pass
        obs.count("visible.counter", 3)
        text = obs.render()
        assert "visible.region" in text
        assert "visible.counter" in text

    def test_set_registry_returns_previous(self):
        current = obs.get_registry()
        replacement = Registry()
        assert obs.set_registry(replacement) is current
        assert obs.get_registry() is replacement
        assert obs.set_registry(current) is replacement


class TestInstrumentedPaths:
    """The threaded-through call sites record under an enabled registry."""

    def test_analyze_cohort_spans_both_engines(self, fresh_registry):
        from repro import ExamineeResponses, QuestionSpec, analyze_cohort
        from repro.core.question_analysis import reference_analyze_cohort

        specs = [QuestionSpec(options=("A", "B"), correct="A")] * 3
        cohort = [
            ExamineeResponses.of(f"s{i}", ["A", "B", "A"]) for i in range(8)
        ]
        obs.enable()
        analyze_cohort(cohort, specs)
        reference_analyze_cohort(cohort, specs)
        names = [s["name"] for s in obs.snapshot()["spans"]]
        assert "analyze.columnar" in names
        assert "analyze.reference" in names

    def test_simulation_emits_shard_spans_and_counters(self, fresh_registry):
        from repro import classroom_exam, classroom_parameters, make_population
        from repro.sim.vectorized import simulate_sitting_arrays

        obs.enable()
        simulate_sitting_arrays(
            classroom_exam(5),
            classroom_parameters(5),
            make_population(10, seed=1),
            seed=2,
        )
        snap = obs.snapshot()
        (generate,) = [
            s for s in snap["spans"] if s["name"] == "sim.generate"
        ]
        assert generate["children"][0]["name"] == "sim.shard"
        assert snap["counters"]["sim.learners.generated"] == 10

    def test_scorm_package_span_and_byte_counter(self, fresh_registry):
        from repro import classroom_exam, package_exam

        obs.enable()
        payload = package_exam(classroom_exam(3))
        snap = obs.snapshot()
        assert [s["name"] for s in snap["spans"]] == ["scorm.package"]
        assert snap["counters"]["scorm.packages.written"] == 1
        assert snap["counters"]["scorm.bytes.written"] == len(payload)
