"""Tests for classical-to-IRT calibration (repro.adaptive.calibration)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import EstimationError
from repro.adaptive.calibration import (
    calibrate_pool_from_bank,
    difficulty_to_b,
    discrimination_to_a,
)
from repro.bank.itembank import ItemBank
from repro.items.choice import MultipleChoiceItem
from repro.items.essay import EssayItem


class TestDifficultyToB:
    def test_half_maps_to_zero(self):
        assert difficulty_to_b(0.5) == pytest.approx(0.0)

    def test_easy_items_get_negative_b(self):
        assert difficulty_to_b(0.9) < -1.0

    def test_hard_items_get_positive_b(self):
        assert difficulty_to_b(0.1) > 1.0

    def test_extremes_stay_finite(self):
        assert math.isfinite(difficulty_to_b(0.0))
        assert math.isfinite(difficulty_to_b(1.0))

    def test_paper_worked_example(self):
        # P = 0.8 (the R=800/N=1000 example): a fairly easy item
        assert difficulty_to_b(0.8) == pytest.approx(math.log(0.25))

    @given(p1=st.floats(min_value=0, max_value=1),
           p2=st.floats(min_value=0, max_value=1))
    def test_antitone(self, p1, p2):
        """Higher P (easier) never maps to higher b (harder)."""
        low, high = min(p1, p2), max(p1, p2)
        assert difficulty_to_b(high) <= difficulty_to_b(low) + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(EstimationError):
            difficulty_to_b(1.5)


class TestDiscriminationToA:
    def test_green_threshold_maps_to_usable_a(self):
        assert discrimination_to_a(0.30) == pytest.approx(0.75)

    def test_strong_d_maps_high(self):
        assert discrimination_to_a(0.8) == pytest.approx(2.0)

    def test_clamped_to_bounds(self):
        assert discrimination_to_a(1.0) == 2.5
        assert discrimination_to_a(0.0) == 0.3
        assert discrimination_to_a(-0.5) == 0.3

    @given(d1=st.floats(min_value=-1, max_value=1),
           d2=st.floats(min_value=-1, max_value=1))
    def test_monotone(self, d1, d2):
        low, high = min(d1, d2), max(d1, d2)
        assert discrimination_to_a(low) <= discrimination_to_a(high) + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(EstimationError):
            discrimination_to_a(1.5)


def rated_item(item_id, p=None, d=None):
    item = MultipleChoiceItem.build(
        item_id, f"Q {item_id}?", ["a", "b", "c"], correct_index=0
    )
    item.metadata.assessment.individual_test.item_difficulty_index = p
    item.metadata.assessment.individual_test.item_discrimination_index = d
    return item


class TestCalibratePool:
    def test_rated_items_calibrated(self):
        bank = ItemBank()
        bank.add(rated_item("easy", p=0.9, d=0.6))
        bank.add(rated_item("hard", p=0.2, d=0.4))
        pool = calibrate_pool_from_bank(bank)
        assert pool["easy"].b < pool["hard"].b
        assert pool["easy"].a > pool["hard"].a

    def test_unrated_items_get_defaults(self):
        bank = ItemBank()
        bank.add(rated_item("new"))
        pool = calibrate_pool_from_bank(bank, default_a=1.2, default_b=0.3)
        assert pool["new"].a == 1.2
        assert pool["new"].b == 0.3

    def test_subjective_items_excluded(self):
        bank = ItemBank()
        bank.add(rated_item("mc", p=0.5, d=0.5))
        bank.add(EssayItem(item_id="essay", question="Discuss."))
        pool = calibrate_pool_from_bank(bank)
        assert "essay" not in pool
        assert "mc" in pool

    def test_empty_pool_rejected(self):
        bank = ItemBank()
        bank.add(EssayItem(item_id="essay", question="Discuss."))
        with pytest.raises(EstimationError):
            calibrate_pool_from_bank(bank)

    def test_bad_default_rejected(self):
        with pytest.raises(EstimationError):
            calibrate_pool_from_bank(ItemBank(), default_a=0)

    def test_calibrated_pool_drives_cat(self):
        """Integration: a bank with paper-style indices seeds a CAT."""
        import random

        from repro.adaptive.irt import probability_correct
        from repro.adaptive.online import AdaptiveSession, ItemInformationTable

        bank = ItemBank()
        rng = random.Random(8)
        for index in range(30):
            bank.add(
                rated_item(
                    f"q{index:02d}",
                    p=rng.uniform(0.15, 0.9),
                    d=rng.uniform(0.2, 0.7),
                )
            )
        pool = calibrate_pool_from_bank(bank)
        session = AdaptiveSession(
            ItemInformationTable.build(pool), max_items=12
        )
        answer_rng = random.Random(9)

        def answer(item_id):
            return answer_rng.random() < probability_correct(1.0, pool[item_id])

        ability, se = session.run(answer)
        assert se < 1.0
        assert len(session.administered) >= 3
