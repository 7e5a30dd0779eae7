"""Regression tests for CAT termination and construction edge cases
(:class:`repro.adaptive.online.AdaptiveSession`).

These pin the fixes for sessions that previously looped or KeyError'd:
every sitting now stops with exactly one defined ``stop_reason`` and
malformed state fails with :class:`EstimationError`, never a KeyError
mid-sitting.
"""

import pytest

from repro.core.errors import EstimationError
from repro.adaptive.irt import ItemParameters
from repro.adaptive.online import AdaptiveSession, ItemInformationTable


def pool(size=5):
    return {
        f"q{index}": ItemParameters(a=1.0 + 0.1 * index, b=0.3 * index - 0.6)
        for index in range(1, size + 1)
    }


def session_over(items, **rules):
    return AdaptiveSession(ItemInformationTable.build(items), **rules)


class TestConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(EstimationError, match="empty pool"):
            session_over({})

    def test_administered_items_outside_pool_rejected(self):
        # a sitting is restored by re-recording its responses; against a
        # recalibrated pool that dropped an item, that must fail on the
        # item instead of with a KeyError
        session = session_over(pool(2))
        session.record("q1", True)
        with pytest.raises(EstimationError, match="ghost"):
            session.record("ghost", False)
        assert session.administered == ["q1"]

    def test_config_bounds(self):
        table = ItemInformationTable.build(pool())
        with pytest.raises(EstimationError):
            AdaptiveSession(table, max_items=0)
        with pytest.raises(EstimationError):
            AdaptiveSession(table, max_items=3, min_items=4)
        with pytest.raises(EstimationError):
            AdaptiveSession(table, min_items=0)
        with pytest.raises(EstimationError):
            AdaptiveSession(table, se_target=-1.0)


class TestTermination:
    def test_max_items_is_the_deterministic_backstop(self):
        session = session_over(
            pool(5), max_items=3, min_items=1, se_target=1e-12
        )
        ability, se = session.run(lambda item_id: True)
        assert len(session.administered) == 3
        assert session.stop_reason() == "max_items"
        assert session.next_item() is None

    def test_pool_exhausted_before_budget(self):
        session = session_over(
            pool(2), max_items=10, min_items=5, se_target=1e-12
        )
        session.run(lambda item_id: False)
        assert session.administered and len(session.administered) == 2
        assert session.stop_reason() == "pool_exhausted"
        assert session.next_item() is None

    def test_se_target_respects_min_items(self):
        # a huge se_target is met immediately, but the session must
        # still administer min_items before stopping on it
        session = session_over(
            pool(5), max_items=5, min_items=3, se_target=100.0
        )
        session.run(lambda item_id: True)
        assert len(session.administered) == 3
        assert session.stop_reason() == "se_target"

    def test_exactly_one_stop_reason_and_priority(self):
        # budget == pool size: both rules fire; max_items wins so the
        # reason is stable across replays
        session = session_over(
            pool(2), max_items=2, min_items=1, se_target=1e-12
        )
        session.run(lambda item_id: True)
        assert session.stop_reason() == "max_items"

    def test_run_terminates_even_with_degenerate_items(self):
        # zero-discrimination items carry no information; the SE never
        # converges, so only the budget ends the session — this used to
        # loop when is_done() consulted the SE alone
        degenerate = {f"q{index}": ItemParameters(a=0.2) for index in range(4)}
        session = session_over(
            degenerate, max_items=4, min_items=1, se_target=1e-12
        )
        session.run(lambda item_id: item_id.endswith(("0", "2")))
        assert session.stop_reason() in ("max_items", "pool_exhausted")
        assert len(session.administered) == 4

    def test_no_reason_while_in_progress(self):
        session = session_over(pool(5))
        assert session.stop_reason() is None
        assert not session.is_done()
        session.record(session.next_item(), True)
        assert session.stop_reason() is None
