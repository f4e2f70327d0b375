import numpy as np
import pytest

import deragg as dg
from deragg.penalty import MIN_DRAWS, penalty_draws

from conftest import make_scenario


def test_hand_evaluated_shares():
    # total shortfall 3, individual shortfalls (2, 1)
    shares = dg.penalty_shares([3.0, 3.0], [1.0, 2.0], 4.0)
    assert shares[0] == pytest.approx(8.0)
    assert shares[1] == pytest.approx(4.0)


def test_no_exploitation_single():
    assert dg.penalty_shares([1.0, 3.0], [2.0, 2.0], 4.0)[0] == 0.0


def test_no_aggregate_shortfall():
    shares = dg.penalty_shares([2.0, 2.0], [3.0, 3.0], 7.0)
    assert shares[0] == 0.0
    assert shares[1] == 0.0


def test_surplus_covers_part_of_shortfall():
    # one prosumer over-delivers: pool shortfall is 1, only prosumer 0 pays
    shares = dg.penalty_shares([4.0, 1.0], [2.0, 2.0], 2.0)
    assert shares[0] == pytest.approx(2.0 * 1.0)
    assert shares[1] == 0.0


def test_expected_penalty_deterministic_is_zero():
    sc = make_scenario(kind="deterministic", n=3, mu=10.0, d0=11.0)
    assert dg.expected_penalty(sc, 10.0, 10.0, draws=MIN_DRAWS, seed=1) == 0.0


def test_expected_penalty_zero_at_support_minimum():
    sc = make_scenario(n=2)
    lo = sc.capacity.support[0]
    assert dg.expected_penalty(sc, lo, lo, draws=MIN_DRAWS, seed=1) == 0.0


def test_expected_penalty_matches_partial_expectation():
    # fully dependent + symmetric offers: share collapses to lambda_rt*(x - C)+
    sc = make_scenario(n=2)
    closed = sc.lambda_rt * dg.expected_shortfall(sc.capacity, 10.0)
    assert closed == pytest.approx(5.7158, abs=1e-4)
    draws_vals = penalty_draws(sc, 10.0, 10.0, draws=1_000_000, seed=11)
    se = draws_vals.std() / np.sqrt(len(draws_vals))
    assert dg.expected_penalty(sc, 10.0, 10.0, draws=1_000_000, seed=11) == pytest.approx(
        closed, abs=3 * se
    )


def test_expected_penalty_draw_floor():
    sc = make_scenario(n=2)
    with pytest.raises(dg.ValidationError):
        dg.expected_penalty(sc, 10.0, 10.0, draws=100, seed=1)


def test_expected_penalty_deterministic_given_seed():
    sc = make_scenario(kind="iid", n=3)
    a = dg.expected_penalty(sc, 9.0, 8.0, draws=MIN_DRAWS, seed=5)
    b = dg.expected_penalty(sc, 9.0, 8.0, draws=MIN_DRAWS, seed=5)
    assert a == b


def test_expected_penalty_convex_in_own_offer():
    # second difference with common random numbers stays above -3 MC standard errors
    sc = make_scenario(kind="iid", n=3)
    step = 0.5
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(6.0, 14.0)
        d_mid = penalty_draws(sc, x, 9.0, draws=50_000, seed=7)
        d_up = penalty_draws(sc, x + step, 9.0, draws=50_000, seed=7)
        d_dn = penalty_draws(sc, x - step, 9.0, draws=50_000, seed=7)
        second = (d_up - 2.0 * d_mid + d_dn) / step**2
        tol_mc = 3.0 * second.std() / np.sqrt(len(second))
        assert second.mean() >= -tol_mc


def test_expected_penalty_continuous_in_rivals():
    sc = make_scenario(kind="iid", n=3)
    base = dg.expected_penalty(sc, 10.0, 9.0, draws=MIN_DRAWS, seed=3)
    lipschitz = 3.0 * sc.lambda_rt * sc.n_prosumers
    for h in (1e-2, 1e-3):
        bumped = dg.expected_penalty(sc, 10.0, 9.0 + h, draws=MIN_DRAWS, seed=3)
        assert abs(bumped - base) <= lipschitz * h


def test_budget_balance_random_batch():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 10.0, size=(2000, 5))
    c = rng.uniform(0.0, 10.0, size=(2000, 5))
    shares = dg.penalty_shares(x, c, 4.0)
    pool = 4.0 * np.maximum(x.sum(1) - c.sum(1), 0.0)
    assert np.all(shares >= 0.0)
    np.testing.assert_allclose(shares.sum(1), pool, rtol=1e-9, atol=1e-12)
