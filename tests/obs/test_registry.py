"""Tests for the observability registry (repro.obs.registry)."""

import threading

import pytest

from repro.obs import NOOP_SPAN, Registry
from repro.obs.registry import DEFAULT_MAX_ROOTS


class TestSpans:
    def test_disabled_returns_shared_noop(self):
        registry = Registry(enabled=False)
        first = registry.span("a")
        second = registry.span("b", tag=1)
        assert first is NOOP_SPAN and second is NOOP_SPAN
        with first:
            pass  # entering/exiting the no-op records nothing
        assert registry.roots == []

    def test_root_span_records_timings(self):
        registry = Registry(enabled=True)
        with registry.span("work", exam_id="ex1"):
            sum(range(1000))
        (root,) = registry.roots
        assert root.name == "work"
        assert root.tags == {"exam_id": "ex1"}
        assert root.wall_seconds >= 0.0
        assert root.cpu_seconds >= 0.0
        assert root.error is None

    def test_nesting_builds_a_tree(self):
        registry = Registry(enabled=True)
        with registry.span("outer"):
            with registry.span("inner"):
                with registry.span("leaf"):
                    pass
            with registry.span("inner"):
                pass
        (root,) = registry.roots
        assert [child.name for child in root.children] == ["inner", "inner"]
        assert root.children[0].children[0].name == "leaf"
        names = [record.name for _, record in root.walk()]
        assert names == ["outer", "inner", "leaf", "inner"]

    def test_exception_marks_error_and_still_records(self):
        registry = Registry(enabled=True)
        with pytest.raises(ValueError):
            with registry.span("boom"):
                raise ValueError("no")
        (root,) = registry.roots
        assert root.error == "ValueError"

    def test_tag_after_entry(self):
        registry = Registry(enabled=True)
        with registry.span("job") as span:
            span.tag(rows=7)
        assert registry.roots[0].tags == {"rows": 7}

    def test_to_dict_is_json_ready(self):
        registry = Registry(enabled=True)
        with registry.span("outer", k="v"):
            with registry.span("inner"):
                pass
        payload = registry.roots[0].to_dict()
        assert payload["type"] == "span"
        assert payload["name"] == "outer"
        assert payload["tags"] == {"k": "v"}
        assert payload["children"][0]["name"] == "inner"
        assert "error" not in payload

    def test_max_roots_retention(self):
        registry = Registry(enabled=True)
        for index in range(DEFAULT_MAX_ROOTS + 2):
            with registry.span(f"r{index}"):
                pass
        assert [root.name for root in registry.roots] == [
            f"r{index}" for index in range(2, DEFAULT_MAX_ROOTS + 2)
        ]

    def test_threads_get_independent_stacks(self):
        registry = Registry(enabled=True)
        seen = []

        def worker(name):
            with registry.span(name):
                pass
            seen.append(name)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        with registry.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # the four thread spans are roots, not children of "main"
        assert len(seen) == 4
        names = sorted(root.name for root in registry.roots)
        assert names == ["main", "t0", "t1", "t2", "t3"]
        (main,) = [r for r in registry.roots if r.name == "main"]
        assert main.children == []

    def test_timed_decorator(self):
        registry = Registry(enabled=True)

        @registry.timed("fn.add", kind="demo")
        def add(a, b):
            """Adds."""
            return a + b

        assert add(2, 3) == 5
        assert add.__name__ == "add" and add.__doc__ == "Adds."
        assert [root.name for root in registry.roots] == ["fn.add"]


class TestCountersAndGauges:
    def test_count_accumulates(self):
        registry = Registry(enabled=True)
        registry.count("jobs")
        registry.count("jobs", 4)
        assert registry.counters() == {"jobs": 5}
        assert registry.counter("jobs") == 5
        assert registry.counter("never") == 0

    def test_tags_fold_into_series_key(self):
        registry = Registry(enabled=True)
        registry.count("hits", exam="a")
        registry.count("hits", exam="b")
        registry.count("hits", exam="a")
        assert registry.counters() == {"hits{exam=a}": 2, "hits{exam=b}": 1}
        assert registry.counter("hits", exam="a") == 2

    def test_gauge_last_value_wins(self):
        registry = Registry(enabled=True)
        registry.gauge("depth", 3)
        registry.gauge("depth", 9)
        assert registry.gauges() == {"depth": 9}

    def test_disabled_registry_records_nothing(self):
        registry = Registry(enabled=False)
        registry.count("jobs")
        registry.gauge("depth", 1)
        assert registry.counters() == {} and registry.gauges() == {}

    def test_snapshot_and_reset(self):
        registry = Registry(enabled=True)
        with registry.span("s"):
            pass
        registry.count("c")
        registry.gauge("g", 2)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2}
        assert snap["spans"][0]["name"] == "s"
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "spans": []
        }
