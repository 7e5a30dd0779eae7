"""Extension — adaptive testing (the paper's stated future work).

Compares CAT against a fixed-form test across an ability grid: at equal
test length, adaptive item selection achieves a smaller mean standard
error, and the advantage grows at extreme abilities (where a fixed form
wastes items of the wrong difficulty) — the standard result the paper's
planned "adaptive test algorithm" exists to obtain.
"""

import random

from repro.adaptive.estimation import estimate_ability_eap
from repro.adaptive.irt import ItemParameters, probability_correct
from repro.adaptive.online import AdaptiveSession, ItemInformationTable
from repro.sim.population import ability_grid

from conftest import show

TEST_LENGTH = 12
REPLICATES = 6


def make_pool(size=60, seed=17):
    rng = random.Random(seed)
    return {
        f"item-{index:03d}": ItemParameters(
            a=rng.uniform(0.9, 2.0), b=rng.uniform(-3.0, 3.0)
        )
        for index in range(size)
    }


def oracle(theta, pool, seed):
    rng = random.Random(seed)

    def answer(item_id):
        return rng.random() < probability_correct(theta, pool[item_id])

    return answer


def cat_session(table):
    return AdaptiveSession(
        table, max_items=TEST_LENGTH, min_items=TEST_LENGTH, se_target=0.01
    )


def run_comparison(pool, thetas):
    table = ItemInformationTable.build(pool)
    fixed_ids = sorted(pool)[:TEST_LENGTH]
    fixed_params = [pool[item_id] for item_id in fixed_ids]
    rows = []
    for theta in thetas:
        fixed_ses, cat_ses = [], []
        for replicate in range(REPLICATES):
            seed = 1000 * replicate + int((theta + 4) * 10)
            answer = oracle(theta, pool, seed)
            responses = [answer(item_id) for item_id in fixed_ids]
            _, fixed_se = estimate_ability_eap(responses, fixed_params)
            fixed_ses.append(fixed_se)
            _, cat_se = cat_session(table).run(oracle(theta, pool, seed))
            cat_ses.append(cat_se)
        rows.append(
            (
                theta,
                sum(fixed_ses) / REPLICATES,
                sum(cat_ses) / REPLICATES,
            )
        )
    return rows


def test_bench_adaptive_testing(benchmark):
    pool = make_pool()
    thetas = ability_grid(-2.5, 2.5, 5)
    rows = run_comparison(pool, thetas)

    lines = ["ability   SE(fixed)  SE(CAT)   CAT advantage"]
    for theta, fixed_se, cat_se in rows:
        advantage = (1 - cat_se / fixed_se) * 100
        lines.append(
            f"{theta:+.2f}     {fixed_se:.3f}      {cat_se:.3f}     "
            f"{advantage:+.0f}%"
        )
    mean_fixed = sum(row[1] for row in rows) / len(rows)
    mean_cat = sum(row[2] for row in rows) / len(rows)
    lines.append(f"mean      {mean_fixed:.3f}      {mean_cat:.3f}")
    show("Extension: CAT vs fixed form at equal length", "\n".join(lines))

    # Shape: CAT wins on average, and wins at every extreme ability.
    assert mean_cat < mean_fixed
    assert rows[0][2] < rows[0][1]  # theta = -2.5
    assert rows[-1][2] < rows[-1][1]  # theta = +2.5

    table = ItemInformationTable.build(pool)

    def one_cat_session():
        return cat_session(table).run(oracle(1.0, pool, seed=99))

    ability, se = benchmark(one_cat_session)
    assert se < 1.0
