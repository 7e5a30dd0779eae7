"""Adaptive testing: the paper's future-work extension in action.

Run with::

    python examples/adaptive_testing.py

Calibrates an item pool, runs computerized adaptive sessions for learners
of different abilities, and compares CAT precision against a fixed-form
test of the same length — the standard demonstration that adaptive
selection needs fewer items for the same measurement error.
"""

import random

from repro.adaptive import (
    AdaptiveSession,
    ItemInformationTable,
    ItemParameters,
    estimate_ability_eap,
    probability_correct,
)


def calibrated_pool(size: int = 60, seed: int = 5) -> dict:
    rng = random.Random(seed)
    return {
        f"item-{index:03d}": ItemParameters(
            a=rng.uniform(0.8, 2.2), b=rng.uniform(-3.0, 3.0)
        )
        for index in range(size)
    }


def simulated_answers(true_ability: float, pool: dict, seed: int):
    rng = random.Random(seed)

    def answer(item_id: str) -> bool:
        return rng.random() < probability_correct(true_ability, pool[item_id])

    return answer


def main() -> None:
    pool = calibrated_pool()
    # built once per pool: selection and the ability update are then
    # table lookups, exactly as when the server delivers the exam
    table = ItemInformationTable.build(pool)
    print(f"calibrated pool: {len(pool)} items\n")

    print("adaptive sessions (max 15 items, stop at SE <= 0.35):")
    for true_theta in (-2.0, 0.0, 2.0):
        session = AdaptiveSession(table, max_items=15, se_target=0.35)
        estimate, se = session.run(simulated_answers(true_theta, pool, seed=1))
        print(
            f"  true ability {true_theta:+.1f}: estimated {estimate:+.2f} "
            f"(SE {se:.2f}) after {len(session.administered)} items"
        )
        print(f"    items administered: {', '.join(session.administered[:6])}"
              + (" ..." if len(session.administered) > 6 else ""))

    # Fixed-form comparison: the same number of items, chosen blindly.
    print("\nfixed form vs CAT at equal length (10 items, ability +2.0):")
    true_theta = 2.0
    fixed_ids = sorted(pool)[:10]
    fixed_params = [pool[item_id] for item_id in fixed_ids]
    answer = simulated_answers(true_theta, pool, seed=2)
    fixed_responses = [answer(item_id) for item_id in fixed_ids]
    fixed_estimate, fixed_se = estimate_ability_eap(
        fixed_responses, fixed_params
    )
    cat = AdaptiveSession(table, max_items=10, min_items=10, se_target=0.01)
    cat_estimate, cat_se = cat.run(simulated_answers(true_theta, pool, seed=2))
    print(f"  fixed form: estimate {fixed_estimate:+.2f}, SE {fixed_se:.3f}")
    print(f"  adaptive:   estimate {cat_estimate:+.2f}, SE {cat_se:.3f}")
    print(f"  -> adaptive SE is "
          f"{(1 - cat_se / fixed_se) * 100:.0f}% smaller at equal length")


if __name__ == "__main__":
    main()
