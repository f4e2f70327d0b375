import numpy as np
import pytest

import deragg as dg
from deragg.equilibrium import partial_coverage_samples

from conftest import coverage_by_quadrature, make_scenario


def test_rho_bounds_linear():
    sc = make_scenario()
    lo, hi = dg.offer_price_bounds(sc)
    assert (lo, hi) == (2.5, 6.5)
    assert hi - lo == sc.lambda_rt
    tiny = make_scenario(gamma=1e-9)
    lo2, hi2 = dg.offer_price_bounds(tiny)
    assert lo2 == pytest.approx(0.0, abs=1e-8)
    assert hi2 == pytest.approx(tiny.lambda_rt, abs=1e-8)


def test_shortfall_aggregates():
    agg = dg.shortfall_aggregates([3.0, 2.0, 5.0], [1.0, 4.0, 5.0], i=0)
    assert agg.s_minus_i == pytest.approx(-2.0)
    assert agg.s_plus_minus_i == pytest.approx(0.0)
    with pytest.raises(dg.ValidationError):
        dg.ShortfallAggregates(1.0, 0.5)


def test_follower_boundary_cases_exact(fig3_scenario):
    sc = fig3_scenario
    cbar = sc.capacity.cbar
    assert dg.symmetric_follower_response(dg.FollowerFixedPointSpec(sc, 2.0)) == 0.0
    assert dg.symmetric_follower_response(dg.FollowerFixedPointSpec(sc, 2.5)) == 0.0
    assert dg.symmetric_follower_response(dg.FollowerFixedPointSpec(sc, 6.5)) == cbar
    assert dg.symmetric_follower_response(dg.FollowerFixedPointSpec(sc, 7.0)) == cbar


def test_follower_interior_against_bisection_oracle(fig3_scenario):
    # oracle: locally written uniform cdf, bisected on F(x) = (rho - gamma)/lambda_rt
    sc = fig3_scenario
    lo, hi = sc.capacity.support
    target = (3.0 - 2.5) / 4.0

    def f(x):
        return min(max((x - lo) / (hi - lo), 0.0), 1.0) - target

    a, b = 0.0, sc.capacity.cbar
    for _ in range(80):
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
    oracle = 0.5 * (a + b)
    got = dg.symmetric_follower_response(dg.FollowerFixedPointSpec(sc, 3.0))
    assert got == pytest.approx(5.7131, abs=1e-3)
    assert got == pytest.approx(oracle, abs=1e-7)


def test_follower_nondecreasing_in_price(fig3_scenario):
    rhos = np.linspace(2.0, 7.0, 41)
    xs = [
        dg.symmetric_follower_response(dg.FollowerFixedPointSpec(fig3_scenario, float(r)))
        for r in rhos
    ]
    assert all(b >= a for a, b in zip(xs, xs[1:]))


def test_foc_gap_strictly_decreasing_on_support():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = rng.uniform(4.0, 18.0)
        sigma = rng.uniform(0.1, 0.95) * mu / dg.SQRT3
        gamma = rng.uniform(0.5, 4.0)
        lam = rng.uniform(1.0, 6.0)
        sc = make_scenario(mu=mu, sigma=sigma, gamma=gamma, lambda_rt=lam, d0=50.0)
        rho = gamma + rng.uniform(0.05, 0.95) * lam
        lo, hi = sc.capacity.support
        grid = np.linspace(lo, hi, 500)
        g = [dg.follower_foc_gap(sc, rho, float(x)) for x in grid]
        assert all(b < a for a, b in zip(g, g[1:]))


def test_foc_gap_rejected_for_deterministic():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    with pytest.raises(dg.UnsupportedOperationError):
        dg.follower_foc_gap(sc, 3.0, 5.0)


def test_coverage_term_zero_cases(iid2_scenario):
    dep = make_scenario(n=2)
    assert dg.partial_coverage_term(dep, 10.0, draws=10_000, seed=1) == 0.0
    lo = iid2_scenario.capacity.support[0]
    assert dg.partial_coverage_term(iid2_scenario, lo, draws=10_000, seed=1) == 0.0
    with pytest.raises(dg.ValidationError):
        dg.partial_coverage_term(make_scenario(kind="iid", n=1), 5.0)


def test_coverage_term_against_quadrature(iid2_scenario):
    sc = iid2_scenario
    for x in (9.0, 10.0, 12.0):
        vals = partial_coverage_samples(sc, x, draws=200_000, seed=5)
        se = vals.std() / np.sqrt(len(vals))
        oracle = coverage_by_quadrature(sc, x)
        assert vals.mean() == pytest.approx(oracle, abs=3.0 * se + 1e-3)
        assert 0.0 <= vals.mean() <= 1.0


def test_coverage_term_nondecreasing_low_region(iid2_scenario):
    got = [
        dg.partial_coverage_term(iid2_scenario, x, draws=200_000, seed=5)
        for x in (7.0, 8.0, 9.0, 10.0)
    ]
    assert all(b >= a for a, b in zip(got, got[1:]))


def test_diag_cdf_plus_coverage_within_unit_interval(iid2_scenario):
    sc = iid2_scenario
    lo, hi = sc.capacity.support
    for x in np.linspace(lo, hi, 9):
        f2 = dg.cdf_marginal(sc.capacity, float(x)) ** 2
        h = dg.partial_coverage_term(sc, float(x), draws=50_000, seed=2)
        assert -1e-9 <= f2 + h <= 1.0 + 1e-9


def test_iid_follower_against_quadrature_root(iid2_scenario):
    # oracle: root of margin - F^2 - h_quad with the quadrature coverage term
    sc = iid2_scenario
    rho = 3.4
    target = (rho - 2.5) / 4.0

    def gap(x):
        return target - dg.cdf_marginal(sc.capacity, x) ** 2 - coverage_by_quadrature(sc, x, m=801)

    a, b = 0.0, sc.capacity.cbar
    for _ in range(40):
        mid = 0.5 * (a + b)
        if gap(mid) > 0.0:
            a = mid
        else:
            b = mid
    oracle = 0.5 * (a + b)
    got = dg.symmetric_follower_response(
        dg.FollowerFixedPointSpec(sc, rho, draws=200_000, seed=3)
    )
    assert got == pytest.approx(oracle, abs=0.05)


def test_stackelberg_matches_closed_form(fig3_scenario):
    res = dg.stackelberg_solve(fig3_scenario)
    rho_cf, curve = dg.closed_form_equilibrium(dg.closed_form_params(fig3_scenario))
    assert abs(res.rho_star - rho_cf) <= 1e-4
    assert abs(res.x_star - curve(rho_cf)) <= 1e-4
    assert res.aggregate_x == res.x_star * fig3_scenario.n_prosumers
    assert res.diagnostics.concavity_ok
    assert not res.diagnostics.multiple_maxima


def test_stackelberg_profit_dominates_grid(fig3_scenario):
    res = dg.stackelberg_solve(fig3_scenario, grid_points=64)
    for rho in np.linspace(2.5, 4.0, 64):
        x = dg.symmetric_follower_response(dg.FollowerFixedPointSpec(fig3_scenario, float(rho)))
        assert res.leader_profit >= (4.0 - rho) * x - 1e-9


def test_stackelberg_deterministic_prices_just_above_indifference():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    res = dg.stackelberg_solve(sc, grid_points=128)
    assert res.x_star == 10.0
    assert 2.5 < res.rho_star < 2.5 + 2.0 * (4.0 - 2.5) / 127
    assert res.leader_profit == pytest.approx((4.0 - res.rho_star) * 10.0)


def test_stackelberg_zero_wholesale_price():
    sc = make_scenario(lambda_da=0.0)
    res = dg.stackelberg_solve(sc, grid_points=32)
    assert res.leader_profit == 0.0
    assert res.x_star == 0.0


def test_meanfield_on_path():
    sc = make_scenario(kind="iid", n=4)
    sol = dg.meanfield_solve(sc, rho=2.5)
    assert sol.beta == 0.0
    assert sol.x_star == 10.0
    below = dg.meanfield_solve(sc, rho=2.0)
    assert (below.beta, below.x_star) == (0.0, 0.0)


def test_meanfield_requires_iid():
    with pytest.raises(dg.ValidationError):
        dg.meanfield_solve(make_scenario(), rho=3.0)


def test_meanfield_interior_against_scan_oracle():
    # scan x, compute beta from the closed-form partial expectation, and
    # locate the sign change of beta*F(x) - (rho - gamma)/lambda_rt
    sc = make_scenario(kind="iid", n=4)
    model = sc.capacity
    target = (3.0 - 2.5) / 4.0
    xs = np.linspace(10.0 + 1e-9, model.support[1], 2_000_001)
    beta = (xs - 10.0) / dg.expected_shortfall(model, xs)
    resid = beta * dg.cdf_marginal(model, xs) - target
    oracle_x = xs[int(np.searchsorted(resid, 0.0))]

    sol = dg.meanfield_solve(sc, rho=3.0)
    assert sol.x_star == pytest.approx(oracle_x, abs=1e-4)
    assert sol.x_star == pytest.approx(10.3810511777, abs=1e-6)
    assert sol.x_star > 10.0
    assert sol.beta * dg.cdf_marginal(model, sol.x_star) == pytest.approx(target, abs=1e-8)
    assert max(sol.residuals) <= 1e-8


def test_meanfield_offer_cap_binds():
    sc = make_scenario(kind="iid", n=2)
    sol = dg.meanfield_solve(sc, rho=2.5 + 4.0 + 0.5)
    assert sol.beta == 1.0
    assert sol.x_star == sc.capacity.cbar


def test_meanfield_random_instances_within_bounds():
    rng = np.random.default_rng(6)
    for _ in range(50):
        gamma = rng.uniform(0.5, 4.0)
        lam = rng.uniform(1.0, 6.0)
        mu = rng.uniform(5.0, 20.0)
        sigma = rng.uniform(0.05, 0.99) * mu / dg.SQRT3
        sc = make_scenario(kind="iid", n=2, mu=mu, sigma=sigma, gamma=gamma,
                           lambda_rt=lam, d0=50.0)
        rho = gamma + rng.uniform(0.01, 0.99) * lam
        sol = dg.meanfield_solve(sc, rho)
        assert 0.0 <= sol.beta <= 1.0
        assert sol.x_star >= mu - 1e-9


def test_meanfield_stackelberg_settles_at_indifference():
    sc = make_scenario(kind="iid", n=4)
    res, sol = dg.meanfield_stackelberg(sc, grid_points=128)
    assert res.rho_star == pytest.approx(2.5, abs=1e-9)
    assert res.x_star == pytest.approx(10.0, abs=1e-9)
    assert sol.beta == 0.0


def test_ratio_diagnostic_limits():
    sc = make_scenario(kind="iid", n=2)
    lo, hi = sc.capacity.support
    assert dg.shortfall_ratio_convergence(sc, lo - 0.5, [4, 8], draws=500) == [0.0, 0.0]
    top = dg.shortfall_ratio_convergence(sc, hi, [4, 8], draws=500)
    assert top == [1.0, 1.0]
    mid = dg.shortfall_ratio_convergence(sc, 10.0, [4, 32, 256], draws=4000, seed=9)
    assert mid[0] > mid[1] > mid[2]
    assert mid[2] < 0.12


def test_ratio_diagnostic_requires_iid():
    with pytest.raises(dg.ValidationError):
        dg.shortfall_ratio_convergence(make_scenario(), 10.0, [2, 4])


def _tabulated_scenario():
    cap = dg.dependent_uniform(10.0, 3.3)
    table = [(0.0, 3.4), (12.0, 2.8), (22.0, 2.2), (34.0, 1.9)]
    return dg.GameScenario(1, 16.5, cap, dg.tabulated_utility(table), 4.0, 4.0)


@pytest.mark.parametrize("case", ["dependent-linear", "iid-n4", "tabulated"])
def test_leader_solution_lies_on_forward_response(case):
    # the offer-space leader posts rho* = rho(x*); the forward bisection at
    # rho* (same draws, same seed) must hand back x*
    sc = {
        "dependent-linear": make_scenario,
        "iid-n4": lambda: make_scenario(kind="iid", n=4),
        "tabulated": _tabulated_scenario,
    }[case]()
    draws, seed = 20_000, 7
    res = dg.stackelberg_solve(sc, grid_points=96, draws=draws, seed=seed)
    assert 0.0 < res.x_star < sc.capacity.cbar
    back = dg.symmetric_follower_response(
        dg.FollowerFixedPointSpec(sc, res.rho_star, draws=draws, seed=seed)
    )
    assert back == pytest.approx(res.x_star, abs=1e-6)
    assert res.diagnostics.follower_residual <= 1e-12


def test_meanfield_solve_inverts_explicit_inverse_response():
    sc = make_scenario(kind="iid", n=4)
    model = sc.capacity
    for x in np.linspace(10.0, model.cbar, 41)[1:-1]:
        beta = min((x - 10.0) / dg.expected_shortfall(model, x), 1.0)
        rho = 2.5 + 4.0 * beta * dg.cdf_marginal(model, x)
        assert dg.meanfield_solve(sc, rho).x_star == pytest.approx(x, abs=1e-9)
