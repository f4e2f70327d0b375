import math
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import deragg as dg
from deragg.equilibrium import (
    _coverage_layout,
    _InverseResponse,
    _MeanFieldInverse,
    partial_coverage_samples,
)
from deragg.penalty import MIN_DRAWS
from deragg.scenario import load_scenario, parse_scenario
from workloads import TABULATED_SCENARIO

from conftest import (
    ROOT,
    coverage_by_quadrature,
    coverage_n2,
    coverage_reference,
    make_scenario,
)


def test_rho_bounds_linear():
    sc = make_scenario()
    lo, hi = dg.offer_price_bounds(sc)
    assert (lo, hi) == (2.5, 6.5)
    assert hi - lo == sc.lambda_rt
    tiny = make_scenario(gamma=1e-9)
    lo2, hi2 = dg.offer_price_bounds(tiny)
    assert lo2 == pytest.approx(0.0, abs=1e-8)
    assert hi2 == pytest.approx(tiny.lambda_rt, abs=1e-8)


def test_follower_boundary_cases_exact(fig3_scenario):
    sc = fig3_scenario
    cbar = sc.capacity.cbar
    assert dg.symmetric_follower_response(sc, 2.0) == 0.0
    assert dg.symmetric_follower_response(sc, 2.5) == 0.0
    assert dg.symmetric_follower_response(sc, 6.5) == cbar
    assert dg.symmetric_follower_response(sc, 7.0) == cbar


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
    got = dg.symmetric_follower_response(sc, 3.0)
    assert got == pytest.approx(5.7131, abs=1e-3)
    assert got == pytest.approx(oracle, abs=1e-7)


def test_follower_nondecreasing_in_price(fig3_scenario):
    rhos = np.linspace(2.0, 7.0, 41)
    xs = [
        dg.symmetric_follower_response(fig3_scenario, float(r))
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


def test_foc_gap_deterministic_has_no_shortfall_term():
    # certain capacity runs short only above cbar: the gap is the price margin alone
    sc = _deterministic_tabulated_scenario()
    for x in np.linspace(0.0, 10.0, 11):
        margin = 3.0 - float(sc.utility.marginal(21.0 - x))
        assert dg.follower_foc_gap(sc, 3.0, float(x)) == pytest.approx(margin / 4.0, abs=1e-15)
    # past cbar the whole excess is short
    margin = 3.0 - float(sc.utility.marginal(10.5))
    assert dg.follower_foc_gap(sc, 3.0, 10.5) == pytest.approx(margin / 4.0 - 1.0, abs=1e-15)


def test_foc_gap_takes_an_offer_array_unless_the_coverage_term_applies():
    xs = np.linspace(0.0, 13.0, 27)
    for sc in (_deterministic_tabulated_scenario(), make_scenario(), make_scenario(kind="iid")):
        gaps = [dg.follower_foc_gap(sc, 3.0, x, draws=MIN_DRAWS) for x in xs.tolist()]
        assert dg.follower_foc_gap(sc, 3.0, xs, draws=MIN_DRAWS).tolist() == gaps
    with pytest.raises(dg.ValidationError, match="one offer at a time"):
        dg.follower_foc_gap(make_scenario(kind="iid", n=2), 3.0, xs, draws=MIN_DRAWS)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_foc_gap_rejects_a_non_finite_offer(x):
    for sc in (make_scenario(), _tabulated_scenario(), make_scenario(kind="iid", n=2)):
        with pytest.raises(dg.ValidationError, match="offer must be finite"):
            dg.follower_foc_gap(sc, 3.0, x, draws=MIN_DRAWS)


def test_coverage_term_zero_cases(iid2_scenario):
    dep = make_scenario(n=2)
    assert dg.partial_coverage_term(dep, 10.0) == 0.0
    lo = iid2_scenario.capacity.support[0]
    assert dg.partial_coverage_term(iid2_scenario, lo) == 0.0
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


def test_coverage_term_matches_exact_two_prosumer_formula(iid2_scenario):
    sc = iid2_scenario
    mu = sc.capacity.mu
    assert coverage_n2(sc, mu) == pytest.approx(0.125, abs=1e-15)
    assert coverage_n2(sc, mu + 1e-9) == pytest.approx(0.125, abs=1e-9)
    layout = _coverage_layout(dg.sample(sc.capacity, 2, 11, 1_000_000))
    for x in (5.0, 7.0, 9.5, 10.0, 12.0, 15.0):
        exact = coverage_n2(sc, x)
        vals = partial_coverage_samples(sc, x, 1_000_000, 11, caps=layout)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 3.0 * se
        assert coverage_by_quadrature(sc, x, m=2001) == pytest.approx(exact, abs=2e-4)


def test_exact_coverage_term_equals_the_two_prosumer_formula(iid2_scenario):
    sc = iid2_scenario
    lo, hi = sc.capacity.support
    for x in np.linspace(lo, hi, 41).tolist():
        assert abs(dg.partial_coverage_term(sc, x) - coverage_n2(sc, x)) <= 1e-15


@pytest.mark.parametrize("n", [3, 5, 8])
def test_exact_coverage_term_within_three_se_of_monte_carlo(n):
    sc = make_scenario(kind="iid", n=n)
    layout = _coverage_layout(dg.sample(sc.capacity, n, 1, 400_000))
    for x in (6.0, 8.0, 10.0, 12.0, 14.0):
        vals = partial_coverage_samples(sc, x, 400_000, 1, caps=layout)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - dg.partial_coverage_term(sc, x)) <= 3.0 * se


def _diagonal_mass(n, x=12.0):
    """G_N(x) = F(x)^N + h(x), the FOC's right-hand side, at the reference iid scenario."""
    sc = make_scenario(kind="iid", n=n)
    return dg.cdf_marginal(sc.capacity, x) ** n + dg.partial_coverage_term(sc, x)


def _meanfield_mass(x=12.0):
    """beta(x) * F(x) with beta(x) = (x - E[C]) / E[(x - C)+]: the large-N limit of G_N(x)."""
    cap = make_scenario(kind="iid").capacity
    return (x - cap.mu) / dg.expected_shortfall(cap, x) * dg.cdf_marginal(cap, x)


def test_exact_coverage_falls_toward_the_mean_field_limit():
    got = {n: _diagonal_mass(n) for n in range(2, 17)}
    assert [round(got[n], 5) for n in (2, 4, 8, 12, 16)] == [
        0.62213, 0.57257, 0.54302, 0.53357, 0.52925]
    assert all(got[n + 1] < got[n] for n in range(2, 16))
    assert round(_meanfield_mass(), 5) == 0.51842
    assert min(got.values()) > _meanfield_mass()


def test_exact_coverage_term_at_64_prosumers_takes_seconds():
    # the cost grows like N^4; at N = 64 one offer takes well under a second
    start = time.perf_counter()
    g = _diagonal_mass(64)
    assert time.perf_counter() - start < 5.0
    assert _meanfield_mass() < g < 0.52349  # G_32(12)


def test_exact_coverage_term_zero_and_invalid_cases():
    cap = dg.iid_uniform(10.0, 3.3, cbar=18.0)
    sc = dg.GameScenario(5, 30.0, cap, dg.linear_utility(2.5), 4.0, 4.0)
    lo, hi = cap.support
    for x in (0.0, lo - 1.0, lo, hi, hi + 1.0, cap.cbar):
        assert dg.partial_coverage_term(sc, x) == 0.0
    for other in (make_scenario(n=5), make_scenario(kind="deterministic", n=5)):
        for x in (0.0, 6.0, 10.0):
            assert dg.partial_coverage_term(other, x) == 0.0
    for x in (-1e-3, cap.cbar + 1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(dg.ValidationError, match="outside"):
            dg.partial_coverage_term(sc, x)
    with pytest.raises(dg.ValidationError, match="at least two"):
        dg.partial_coverage_term(make_scenario(kind="iid", n=1), 10.0)


def test_iid_leader_within_the_seed_spread_of_the_exact_leader():
    # oracle: the leader's profit (lambda_da - rho(x)) * N * x with the exact
    # rho(x) = gamma + lambda_rt * (F^N + h), scanned on the support and
    # refined by golden section here
    sf = load_scenario(ROOT / "scenarios" / "iid.json")
    sc, n = sf.scenario, sf.scenario.n_prosumers

    def rho(x):
        g = dg.cdf_marginal(sc.capacity, x) ** n + dg.partial_coverage_term(sc, x)
        return sc.utility.gamma + sc.lambda_rt * g

    def profit(x):
        return (sc.lambda_da - rho(x)) * n * x

    xs = np.linspace(*sc.capacity.support, 201).tolist()
    best = max(range(1, len(xs) - 1), key=lambda i: profit(xs[i]))
    a, b = xs[best - 1], xs[best + 1]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 1e-10:
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        a, b = (a, d) if profit(c) >= profit(d) else (c, b)
    x_star = 0.5 * (a + b)
    assert rho(x_star) == pytest.approx(2.6483549, abs=1e-6)
    assert x_star == pytest.approx(7.6057126, abs=1e-5)
    assert profit(x_star) == pytest.approx(41.120898, abs=1e-5)
    # the Monte-Carlo solve at the file's 20k draws, grid 96 and seed 7: at
    # seeds 1-6 its rho* ranged over 2.6373-2.6536 and its x* over 7.552-7.632
    s = sf.solver
    res = dg.stackelberg_solve(sc, s.rho_grid_points, s.draws, s.seed)
    assert abs(res.rho_star - rho(x_star)) <= 0.02
    assert abs(res.x_star - x_star) <= 0.1


def _coverage_setup(n, draws, scale=1.0):
    cap = dg.iid_uniform(10.0 * scale, 3.3 * scale, cbar=18.0 * scale)
    sc = dg.GameScenario(n, 30.0 * scale, cap, dg.linear_utility(2.5), 4.0, 4.0)
    caps = dg.sample(cap, n, 3, draws)
    return sc, caps, _coverage_layout(caps)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_coverage_kernel_matches_reference_formula(n):
    draws = 20_000
    sc, caps, layout = _coverage_setup(n, draws)
    cap = sc.capacity
    lo, hi = cap.support
    drawn_own = float(caps[draws // 2, 0])
    drawn_mean = float(caps[draws // 3].sum() / n)
    for x in (0.0, lo, drawn_own, drawn_mean, cap.mu, hi, cap.cbar):
        ref = coverage_reference(caps, x)
        for got in (partial_coverage_samples(sc, x, draws, 3, caps=layout),
                    partial_coverage_samples(sc, x, draws, 3)):
            assert got.shape == (draws,)
            # the kernel adds the rival terms in the reference's order: equal bit for bit
            assert np.array_equal(np.sort(got), np.sort(ref))
            assert abs(got.mean() - ref.mean()) <= 1e-14
    # the offers above include draws where every rival is short: no rival
    # surplus, so no coverage, whatever C_i is
    for x in (cap.mu, hi):
        all_short = np.all(caps[:, 1:] <= x, axis=1)
        assert all_short.sum() > 0
        assert np.all(coverage_reference(caps, x)[all_short] == 0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_coverage_layout_orders_the_draws_whose_event_can_fire(n, scale=1.0):
    draws = 2000
    sc, caps, layout = _coverage_setup(n, draws, scale)
    kept = np.column_stack([layout.own, *layout.rivals])  # in layout order
    can_fire = caps[:, 0] < caps[:, 1:].max(axis=1)
    live, dropped = caps[can_fire], caps[~can_fire]
    assert layout.draws == draws
    assert np.array_equal(kept[np.lexsort(kept.T)], live[np.lexsort(live.T)])
    assert np.all(np.diff(layout.start) >= 0.0)
    opens = np.maximum(kept[:, 0], kept.sum(axis=1) / n)
    # offers at and a few ulps below where the events of some draws open,
    # where the event predicate and the key round differently
    binding = np.flatnonzero(opens > kept[:, 0])[:100]
    edges = [x0 - k * math.ulp(x0) for x0 in opens[binding].tolist() for k in range(4)]
    lo, hi = sc.capacity.support
    for x in (0.0, lo, float(kept[0, 0]), sc.capacity.mu, hi, *edges):
        k = layout.opened(x)
        ref = coverage_reference(kept, x)
        assert np.all(ref[k:] == 0.0), "a draw in the event lies past the reduced prefix"
        assert np.all(coverage_reference(dropped, x) == 0.0)
        slack = 1e-12 * scale
        assert np.all(opens[:k] <= x + slack), "the prefix holds a draw whose event opens later"
        assert np.all(opens[k:] > x - slack)


@pytest.mark.parametrize("scale", [1e-3, 1e3, 1e6])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_coverage_layout_margin_scales_with_the_capacities(n, scale):
    # a rounding margin that does not grow with the capacities is too small
    # at a large enough scale: the event of a draw then opens below its key
    test_coverage_layout_orders_the_draws_whose_event_can_fire(n, scale)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_coverage_kernel_rejects_a_non_finite_offer(x):
    sc, _, layout = _coverage_setup(4, 1000)
    for given in (layout, None):
        with pytest.raises(dg.ValidationError, match="offer must be finite"):
            partial_coverage_samples(sc, x, 1000, 3, caps=given)


def test_coverage_memory_bounded_in_n_and_draws():
    n, draws = 8, 200_000
    sc = dg.GameScenario(n, 30.0, dg.iid_uniform(10.0, 3.3), dg.linear_utility(2.5), 4.0, 4.0)
    tracemalloc.start()
    try:
        dg.follower_foc_gap(sc, 4.0, sc.capacity.cbar, draws=draws, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * draws * n * 8


def test_coverage_term_nondecreasing_low_region(iid2_scenario):
    got = [
        dg.partial_coverage_term(iid2_scenario, x)
        for x in (7.0, 8.0, 9.0, 10.0)
    ]
    assert all(b >= a for a, b in zip(got, got[1:]))


def test_diag_cdf_plus_coverage_within_unit_interval(iid2_scenario):
    sc = iid2_scenario
    lo, hi = sc.capacity.support
    for x in np.linspace(lo, hi, 9):
        f2 = dg.cdf_marginal(sc.capacity, float(x)) ** 2
        h = dg.partial_coverage_term(sc, float(x))
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
    got = dg.symmetric_follower_response(sc, rho, draws=200_000, seed=3)
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
        x = dg.symmetric_follower_response(fig3_scenario, float(rho))
        assert res.leader_profit >= (4.0 - rho) * x - 1e-9


def test_stackelberg_deterministic_buys_everything_at_indifference():
    # rho(x) = gamma on all of [0, cbar]: the leader takes the largest offer of the flat run
    for n in (1, 3):
        sc = make_scenario(kind="deterministic", n=n, mu=10.0, d0=11.0)
        res = dg.stackelberg_solve(sc, grid_points=128)
        assert (res.x_star, res.rho_star) == (10.0, 2.5)
        assert res.leader_profit == (4.0 - 2.5) * n * 10.0


def test_zero_capacity_solves_where_every_search_tolerance_is_zero():
    # both searches stop at a fraction of cbar, which is 0 here
    sc = make_scenario(kind="deterministic", mu=0.0)
    res = dg.stackelberg_solve(sc)
    assert (res.rho_star, res.x_star) == (2.5, 0.0)
    for rho in (2.0, 2.5, 4.0, 6.5, 7.0):
        assert dg.symmetric_follower_response(sc, rho) == 0.0


def test_stackelberg_deterministic_tabulated_matches_hand_optimum():
    # rho(x) = u'(21 - x) rises from 2.26 to 2.85 with a kink at x = 9, and the
    # profit (4 - rho(x)) * x rises on all of [0, 10]: x* = cbar, rho* = u'(11)
    res = dg.stackelberg_solve(_deterministic_tabulated_scenario(), grid_points=64)
    assert res.x_star == 10.0
    assert res.rho_star == pytest.approx(2.85, abs=1e-12)
    assert res.leader_profit == pytest.approx(11.5, abs=1e-11)


def test_hull_diagnostics_on_an_ironed_edge():
    # rho(x) = u'(21 - x) has a concave kink at x = 9, so x * rho(x) has one
    # ironed hull edge across it; at lambda_da equal to that edge's slope
    # both of its ends are best.  Profit is concave where it is not
    # negative only if lambda_da is below rho there: rho(x) <= 2.5 for x <= 4
    sc = _deterministic_tabulated_scenario()
    low = dg.stackelberg_solve(replace(sc, lambda_da=2.5), grid_points=64, draws=2000, seed=1)
    assert low.diagnostics.concavity_ok
    xs, _, rs, hull = _InverseResponse(sc, 2000, 1).hull(64)
    ((a, b),) = [(a, b) for a, b in zip(hull, hull[1:]) if b > a + 1]
    assert xs[a] < 9.0 < xs[b]
    slope = (rs[b] - rs[a]) / (xs[b] - xs[a])
    for lambda_da, expected in ((slope, True), (slope - 0.01, False), (slope + 0.01, False)):
        res = dg.stackelberg_solve(
            replace(sc, lambda_da=lambda_da), grid_points=64, draws=2000, seed=1
        )
        diag = res.diagnostics
        assert diag.multiple_maxima is expected
        assert not diag.concavity_ok


def _count_foc_calls(monkeypatch, scenario_file):
    """Solve a shipped scenario; return the result and its follower_foc_gap calls."""
    sf = load_scenario(ROOT / "scenarios" / scenario_file)
    s = sf.solver
    xs, rhos, _, _ = _InverseResponse(sf.scenario, s.draws, s.seed).hull(s.rho_grid_points)
    calls = []
    real = dg.equilibrium.follower_foc_gap
    monkeypatch.setattr(dg.equilibrium, "follower_foc_gap",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    res = dg.stackelberg_solve(
        sf.scenario, grid_points=s.rho_grid_points, draws=s.draws, seed=s.seed
    )
    # the table holds the offers up to and including the first priced above lambda_da
    cut = next(i for i, rho in enumerate(rhos) if rho > sf.scenario.lambda_da)
    assert res.diagnostics.grid_points == cut + 1 < len(xs)
    return res, calls


def test_leader_evaluates_each_offer_once(monkeypatch):
    # one FOC call prices the offer table; one more prices the golden
    # section's two first points and every point its first three steps could
    # visit, and each later one a step's point and the next three steps'.
    # The best vertex's profit and rho(x*) are read off what is priced
    res, calls = _count_foc_calls(monkeypatch, "base.json")
    # of 257 offers (256 on [0, cbar] plus the support's low end), the table
    # stops at the first one above lambda_da = 4
    assert res.diagnostics.grid_points == 142
    assert res.diagnostics.refine_iterations == 29
    assert len(calls) == 9


@pytest.mark.parametrize("scenario_file,steps", [("base.json", 29), ("iid.json", 31)])
def test_leader_stops_at_the_profit_resolution(scenario_file, steps):
    # the profit is flat to rounding over sqrt(eps) of the offer, so the
    # golden section stops there (it took 32 and 36 steps to reach 1e-9 * cbar)
    sf = load_scenario(ROOT / "scenarios" / scenario_file)
    s = sf.solver
    res = dg.stackelberg_solve(sf.scenario, grid_points=s.rho_grid_points, draws=s.draws,
                               seed=s.seed)
    assert res.diagnostics.refine_iterations == steps


def test_iid_leader_evaluates_the_coverage_term_once_per_offer(monkeypatch):
    # the Monte-Carlo coverage kernel takes one offer per FOC call: the
    # table's offers, of which 30 of 97 lie past the first one above
    # lambda_da and are never priced, and the golden section's points
    res, calls = _count_foc_calls(monkeypatch, "iid.json")
    assert res.diagnostics.grid_points == 67
    assert len(calls) == res.diagnostics.grid_points + res.diagnostics.refine_iterations + 2
    assert len(calls) == 100


INVERSE_KINDS = {
    "dependent": lambda: _InverseResponse(make_scenario(), 2000, 7),
    "deterministic": lambda: _InverseResponse(make_scenario(kind="deterministic"), 2000, 7),
    "tabulated": lambda: _InverseResponse(_tabulated_scenario(), 20_000, 7),
    "deterministic-tabulated": lambda: _InverseResponse(
        _deterministic_tabulated_scenario(), 20_000, 7),
    "meanfield": lambda: _MeanFieldInverse(make_scenario(kind="iid", n=4), 2000, 7),
    "meanfield-tabulated": lambda: _MeanFieldInverse(_iid_tabulated_scenario(), 20_000, 7),
    "iid-n4": lambda: _InverseResponse(make_scenario(kind="iid", n=4), 2000, 7),
}


@pytest.mark.parametrize("case", INVERSE_KINDS)
def test_table_matches_the_scalar_inverse_response(case):
    # rho on an array of offers equals rho offer by offer bit for bit, off
    # the offer grid too, and the hull's outlays are x * rho(x)
    inverse = INVERSE_KINDS[case]()
    xs = inverse.offers(32) + np.linspace(0.0, inverse.scenario.capacity.cbar, 13)[1:-1].tolist()
    if inverse.per_offer:  # the coverage kernel takes one offer at a time
        with pytest.raises(dg.ValidationError, match="one offer at a time"):
            inverse(np.asarray(xs))
    else:
        assert inverse(np.asarray(xs)).tolist() == [inverse(x) for x in xs]
    offers, rhos, rs, _ = inverse.hull(32)
    assert rhos == [inverse(x) for x in offers]
    assert rs == [x * rho for x, rho in zip(offers, rhos)]
    if case.startswith("meanfield"):
        assert "caps" not in vars(inverse)  # no coverage layout behind the mean field


def _shipped_inverse(case):
    """The inverse response and grid of a shipped scenario file or of the
    benchmark's tabulated one; a ``-meanfield`` suffix builds the mean field."""
    name, _, meanfield = case.partition("-")
    if name == "bench.tabulated":
        sf = parse_scenario(TABULATED_SCENARIO)
    else:
        sf = load_scenario(ROOT / "scenarios" / name)
    cls = _MeanFieldInverse if meanfield else _InverseResponse
    return cls(sf.scenario, sf.solver.draws, sf.solver.seed), sf.solver.rho_grid_points


@pytest.mark.parametrize("case", [
    *INVERSE_KINDS, "base.json", "deterministic.json", "iid.json", "iid.json-meanfield",
    "bench.tabulated",
])
def test_golden_look_ahead_reads_the_plain_search_off_fewer_rho_calls(monkeypatch, case):
    # the points the next steps could visit, priced in one call, are the
    # points the plain golden section prices one at a time (look-ahead 0),
    # and rho on an array equals rho offer by offer: the same search, with
    # every lookup a hit.  The Monte-Carlo coverage kernel keeps one offer a call
    def build():
        return (INVERSE_KINDS[case](), 64) if case in INVERSE_KINDS else _shipped_inverse(case)

    depth, (inverse, _) = dg.equilibrium._LOOK_AHEAD, build()
    calls = []
    real = type(inverse).__call__
    monkeypatch.setattr(type(inverse), "__call__", lambda self, x: calls.append(x) or real(self, x))

    def search(look_ahead):
        monkeypatch.setattr(dg.equilibrium, "_LOOK_AHEAD", look_ahead)
        calls.clear()
        return dg.equilibrium._offer_search(*build()), len(calls)

    (plain, plain_calls), (ahead, ahead_calls) = search(0), search(depth)
    assert ahead == plain
    iters = plain[2].refine_iterations
    assert iters > depth
    if inverse.per_offer:
        assert ahead_calls == plain_calls
        return
    # the table, the first two points with the first look-ahead steps, then
    # one call per look-ahead + 1 steps at most: a step may also find its
    # point among those priced for another branch
    assert plain_calls == 2 + iters
    assert ahead_calls <= 2 + math.ceil((iters - depth) / (depth + 1)) < plain_calls


@pytest.mark.parametrize("case", [
    "dependent", "deterministic", "tabulated", "deterministic-tabulated", "iid-n2", "iid-n4",
    "meanfield",
])
def test_leader_table_stops_at_the_first_offer_above_lambda_da(monkeypatch, case):
    # rho is nondecreasing up to Monte-Carlo noise, so the first offer priced
    # above lambda_da and every larger one lose money: the table cut there
    # gives the same best vertex, the same grid neighbours around it (the
    # golden bracket), the same ironed-edge test and the same solve as the
    # whole table, and its hull can only be the more concave of the two
    cls, sc, draws = {
        "dependent": (_InverseResponse, make_scenario(), 2000),
        "deterministic": (_InverseResponse, make_scenario(kind="deterministic"), 2000),
        "tabulated": (_InverseResponse, _tabulated_scenario(), 20_000),
        "deterministic-tabulated": (_InverseResponse, _deterministic_tabulated_scenario(), 20_000),
        "iid-n2": (_InverseResponse, make_scenario(kind="iid", n=2), 2000),
        "iid-n4": (_InverseResponse, make_scenario(kind="iid", n=4), 2000),
        "meanfield": (_MeanFieldInverse, make_scenario(kind="iid", n=4), 2000),
    }[case]
    rho_min, rho_max = cls(sc, draws, 7).bounds
    lambdas = [rho_min + d for d in (1e-7, 1e-6, 1e-5, 1e-4)]
    lambdas += np.linspace(rho_min, rho_max, 12)[1:-1].tolist()
    brackets = []
    real_golden = dg.equilibrium._golden_max
    monkeypatch.setattr(dg.equilibrium, "_golden_max",
                        lambda fn, a, b, tol, depth:
                        brackets.append((a, b)) or real_golden(fn, a, b, tol, depth))

    def solve(lambda_da):
        x, rho, diag = dg.equilibrium._offer_search(
            cls(replace(sc, lambda_da=lambda_da), draws, 7), 64)
        return (x, rho, diag.refine_iterations, diag.multiple_maxima, brackets[-1]), diag

    capped = [solve(lambda_da) for lambda_da in lambdas]
    whole = _InverseResponse.hull
    monkeypatch.setattr(_InverseResponse, "hull", lambda self, n, cap=math.inf: whole(self, n))
    cuts = 0
    for lambda_da, (got, got_diag) in zip(lambdas, capped):
        want, want_diag = solve(lambda_da)
        assert got == want, lambda_da
        assert got_diag.grid_points <= want_diag.grid_points
        assert got_diag.concavity_ok >= want_diag.concavity_ok
        cuts += got_diag.grid_points < want_diag.grid_points
    # rho is flat at gamma on [0, cbar] under certain capacity and linear utility
    assert cuts == 0 if case == "deterministic" else cuts >= 5


def test_concavity_flag_describes_the_leader_table():
    # capacity installed up to cbar = 20, above the support top 15.7: there
    # rho stops rising, so R(x) = x * rho(x) is not convex, and the hull of
    # the whole table irons across it from below some profitable offers.
    # The profit is concave wherever it is positive, and the table the leader
    # builds stops at the first offer above lambda_da = 5, short of the kink
    sc = dg.GameScenario(1, 25.0, dg.dependent_uniform(10.0, 3.3, cbar=20.0),
                         dg.linear_utility(2.5), 5.0, 4.0)
    res = dg.stackelberg_solve(sc)
    assert res.diagnostics.concavity_ok
    assert (res.x_star, res.rho_star) == (5.7144709268240845, 3.0004537187769196)


def test_meanfield_table_is_one_numpy_call(monkeypatch):
    # the mean field carries no Monte-Carlo coverage term, so it prices its
    # offer table in one vectorised call though its capacities are iid, N = 4
    inverse = _MeanFieldInverse(make_scenario(kind="iid", n=4), 2000, 7)
    assert not inverse.per_offer
    calls = []
    real = dg.equilibrium._meanfield_beta
    monkeypatch.setattr(dg.equilibrium, "_meanfield_beta",
                        lambda model, x: calls.append(np.ndim(x)) or real(model, x))
    xs, _, _, _ = inverse.hull(64, cap=inverse.scenario.lambda_da)
    assert calls == [1]
    assert len(xs) < len(inverse.offers(64))


def test_deterministic_tabulated_follower_matches_payoff_argmax():
    # u'(21 - x) = rho gives x = 9 - (2.8 - rho)/0.06 below the kink at x = 9
    # and x = 21 - (3.4 - rho)/0.05 above it; the 0.1 offer grid holds each value
    sc = _deterministic_tabulated_scenario()
    xs = np.linspace(0.0, 10.0, 101)
    for rho, hand in ((2.0, 0.0), (2.5, 4.0), (2.8, 9.0), (2.825, 9.5), (3.0, 10.0)):
        got = dg.symmetric_follower_response(sc, rho)
        assert got == pytest.approx(hand, abs=1e-8)
        payoffs = [dg.prosumer_payoff(sc, rho, float(x), float(x), draws=MIN_DRAWS) for x in xs]
        assert got == pytest.approx(xs[int(np.argmax(payoffs))], abs=1e-8)


def test_off_band_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="outside the closed-form band") as record:
        dg.stackelberg_solve(make_scenario(sigma=3.0), grid_points=32)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("lambda_da", [4.0, 2.5, 2.0])
@pytest.mark.parametrize("end,step", [(0, -1e-11), (0, 0.0), (0, 1e-11),
                                      (1, -1e-11), (1, 0.0), (1, 1e-11)])
def test_off_band_warning_fires_exactly_where_the_closed_form_is_refused(lambda_da, end, step):
    # just inside, on and just outside each end of the band at lambda_da = 4; at
    # lambda_da <= gamma the closed form is refused, but the leader buys nothing
    sigma = dg.sigma_band(2.5, 10.0, 4.0, 4.0)[end] * (1.0 + step)
    sc = make_scenario(sigma=sigma, lambda_da=lambda_da)
    try:
        dg.closed_form_params(sc)
        refused = False
    except dg.AdmissibilityError:
        refused = True
    assert refused == (lambda_da <= 2.5 or step * (2 * end - 1) > 0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        dg.stackelberg_solve(sc, grid_points=8)
    fired = [str(w.message) for w in record]
    assert len(fired) == (refused and lambda_da > 2.5)
    assert all(m.startswith(f"sigma={sigma:.6g} outside the closed-form band") for m in fired)


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


def test_meanfield_solution_rejects_beta_above_one():
    with pytest.raises(dg.ValidationError, match=r"beta=1.5 outside \[0, 1\]"):
        dg.MeanFieldSolution(1.5, 1.0)


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


def test_meanfield_offer_cap_binds():
    sc = make_scenario(kind="iid", n=2)
    sol = dg.meanfield_solve(sc, rho=2.5 + 4.0 + 0.5)
    assert sol.beta == 1.0
    assert sol.x_star == sc.capacity.cbar


def test_meanfield_beta_is_exactly_one_where_the_cap_binds():
    # E[(x - C)+] is x - mu at and above the support top, so beta(cbar) = 1
    # with no rounding; the in-support formula gave 0.9999999999999998 here
    sc = make_scenario(kind="iid", n=2, mu=12.0, sigma=2.5)
    cap = sc.capacity
    assert dg.expected_shortfall(cap, cap.cbar) == cap.cbar - cap.mu
    sol = dg.meanfield_solve(sc, rho=2.5 + 4.0 + 0.5)
    assert (sol.beta, sol.x_star) == (1.0, cap.cbar)


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


_TABLE = [(0.0, 3.4), (12.0, 2.8), (22.0, 2.2), (34.0, 1.9)]


def _tabulated_scenario():
    cap = dg.dependent_uniform(10.0, 3.3)
    return dg.GameScenario(1, 16.5, cap, dg.tabulated_utility(_TABLE), 4.0, 4.0)


def _deterministic_tabulated_scenario():
    return dg.GameScenario(1, 11.0, dg.deterministic(10.0), dg.tabulated_utility(_TABLE), 4.0, 4.0)


def _iid_tabulated_scenario():
    return replace(make_scenario(kind="iid", n=4), d0=16.5, utility=dg.tabulated_utility(_TABLE))


@pytest.mark.parametrize(
    "case", ["dependent-linear", "iid-n4", "tabulated", "deterministic-tabulated"])
def test_leader_solution_lies_on_forward_response(case):
    # the offer-space leader posts rho* = rho(x*); the forward bisection at
    # rho* (same draws, same seed) must hand back x*
    sc = {
        "dependent-linear": make_scenario,
        "iid-n4": lambda: make_scenario(kind="iid", n=4),
        "tabulated": _tabulated_scenario,
        # rho(x) <= 2.5 for x <= 4: the leader buys inside the capacity
        "deterministic-tabulated":
            lambda: replace(_deterministic_tabulated_scenario(), lambda_da=2.5),
    }[case]()
    draws, seed = 20_000, 7
    res = dg.stackelberg_solve(sc, grid_points=96, draws=draws, seed=seed)
    assert 0.0 < res.x_star < sc.capacity.cbar
    back = dg.symmetric_follower_response(sc, res.rho_star, draws=draws, seed=seed)
    assert back == pytest.approx(res.x_star, abs=1e-6)
    assert res.rho_star == _InverseResponse(sc, draws, seed)(res.x_star)


@pytest.mark.parametrize("case", [
    pytest.param("iid-n4", marks=pytest.mark.xfail(strict=True, reason=(
        "the Monte-Carlo coverage term makes rho(x) jump by up to -2e-4 where single "
        "draws enter its event, so rho(x) = rho has other roots up to 2.4e-3 away"))),
    "tabulated",
    "deterministic-tabulated",
])
def test_forward_response_inverts_inverse_response(case):
    # the forward bisection at rho(x) (same draws, same seed) must hand
    # back x across the support, not only at the leader's x*
    sc = {
        "iid-n4": lambda: make_scenario(kind="iid", n=4),
        "tabulated": _tabulated_scenario,
        "deterministic-tabulated": _deterministic_tabulated_scenario,
    }[case]()
    draws, seed = 20_000, 7
    rho = _InverseResponse(sc, draws, seed)
    lo, hi = sc.capacity.support
    if lo == hi:
        # certain capacity: rho(x) = u'(d0 + cbar - x) rises on all of [0, cbar]
        lo = 0.0
    for x in np.linspace(lo, hi, 22)[1:-1]:
        got = dg.symmetric_follower_response(sc, rho(float(x)), draws=draws, seed=seed)
        assert got == pytest.approx(x, abs=1e-8)


def test_forward_response_prices_cbar_then_halves_the_bracket(monkeypatch):
    # one rho evaluation at cbar, then 40 halvings of [0, cbar] down to
    # _FORWARD_TOL * cbar
    calls = []
    real = _InverseResponse.__call__

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(_InverseResponse, "__call__", counted)
    sc = make_scenario()
    assert _InverseResponse(sc, 20_000, 7).forward(3.0) == 5.713174251263913
    assert len(calls) == 41 and calls[0] == sc.capacity.cbar
    # capped at 5 halvings, the bisection stops short of its tolerance
    monkeypatch.setattr(dg.equilibrium, "MAX_BISECT_ITER", 5)
    with pytest.raises(dg.SolverError, match="bisection did not reach tolerance"):
        dg.symmetric_follower_response(sc, 4.0)


def _aggregated_curve(sc, grid_points):
    return dg.build_supply_curve_aggregated(_InverseResponse(sc, MIN_DRAWS, 7), grid_points)


@pytest.mark.parametrize("grid_points", [3, 0, -1])
@pytest.mark.parametrize("leader", [dg.stackelberg_solve, dg.meanfield_stackelberg,
                                    _aggregated_curve])
def test_leaders_reject_fewer_than_four_grid_points(leader, grid_points):
    # the aggregated curve reads the leader's offer table, and so its check
    with pytest.raises(dg.ValidationError, match="grid_points must be at least 4"):
        leader(make_scenario(kind="iid", n=4), grid_points=grid_points)


@pytest.mark.parametrize("lambda_da", [0.0, 2.0])
def test_meanfield_stackelberg_degenerate_price_interval(lambda_da):
    # lambda_da below E[u'] = gamma: no offer is worth buying
    sc = make_scenario(kind="iid", n=4, lambda_da=lambda_da)
    res, sol = dg.meanfield_stackelberg(sc, grid_points=128)
    assert (res.rho_star, res.x_star, res.leader_profit) == (lambda_da, 0.0, 0.0)
    assert (sol.beta, sol.x_star) == (0.0, 0.0)


def test_meanfield_solve_inverts_explicit_inverse_response():
    sc = make_scenario(kind="iid", n=4)
    model = sc.capacity
    for x in np.linspace(10.0, model.cbar, 41)[1:-1]:
        beta = min((x - 10.0) / dg.expected_shortfall(model, x), 1.0)
        rho = 2.5 + 4.0 * beta * dg.cdf_marginal(model, x)
        assert dg.meanfield_solve(sc, rho).x_star == pytest.approx(x, abs=1e-9)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solve", [
    lambda sc, rho: dg.symmetric_follower_response(sc, rho, draws=2000),
    lambda sc, rho: dg.meanfield_solve(sc, rho),
], ids=["follower_response", "meanfield_solve"])
def test_forward_responses_reject_a_non_finite_price(solve, rho):
    with pytest.raises(dg.ValidationError, match="price must be finite"):
        solve(make_scenario(kind="iid", n=4), rho)


def test_integral_float_prosumer_count_is_stored_as_int():
    sc = dg.GameScenario(2.0, 20.0, dg.iid_uniform(10.0, 3.3), dg.linear_utility(2.5), 4.0, 4.0)
    assert type(sc.n_prosumers) is int
    res = dg.stackelberg_solve(sc, grid_points=16, draws=2000, seed=1)
    assert res.aggregate_x == 2 * res.x_star
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(dg.ValidationError, match="n_prosumers"):
            dg.GameScenario(bad, 20.0, dg.iid_uniform(10.0, 3.3), dg.linear_utility(2.5), 4.0, 4.0)


def _count_samples(monkeypatch):
    """Count capacity.sample calls made from any deragg module."""
    calls = []
    real = dg.sample

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "deragg" or name.startswith("deragg.")) and getattr(module, "sample", None) is real:
            monkeypatch.setattr(module, "sample", counted)
    return calls


@pytest.mark.parametrize("grid_points", [64, 256])
def test_tabulated_solve_samples_per_solve_not_per_offer(monkeypatch, grid_points):
    # the bounds and every offer read the solve's one set of sorted draws,
    # whatever the grid size
    calls = _count_samples(monkeypatch)
    dg.stackelberg_solve(_tabulated_scenario(), grid_points=grid_points, draws=20_000, seed=7)
    assert len(calls) == 1


def test_tabulated_meanfield_solve_samples_once(monkeypatch):
    # the mean field has no coverage term: its bounds, its offers and the
    # forward response at rho* all read one set of E[u'] draws
    calls = _count_samples(monkeypatch)
    dg.meanfield_stackelberg(_iid_tabulated_scenario(), grid_points=64, draws=20_000, seed=7)
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["dependent", "tabulated", "iid-tabulated"])
def test_solve_bounds_equal_the_standalone_bounds(case):
    # the bounds a solve reads off its own E[u'] draws are those that a
    # standalone call samples afresh from the same draws and seed
    sc = {
        "dependent": make_scenario,
        "tabulated": _tabulated_scenario,
        "iid-tabulated": _iid_tabulated_scenario,
    }[case]()
    assert _InverseResponse(sc, 20_000, 7).bounds == dg.offer_price_bounds(sc, 20_000, 7)


def test_linear_utility_solves_never_sample(monkeypatch):
    calls = _count_samples(monkeypatch)
    dg.stackelberg_solve(make_scenario(), grid_points=64)
    dg.stackelberg_solve(make_scenario(kind="deterministic"), grid_points=64)
    dg.meanfield_stackelberg(make_scenario(kind="iid", n=4), grid_points=64)
    assert calls == []


def test_meanfield_stackelberg_tabulated_against_dense_grid_oracle():
    # exact E[u'(d0 + C - x)] = (u(d0 + hi - x) - u(d0 + lo - x)) / W for
    # C ~ U[lo, hi], and the closed-form beta(x) * F(x) of the mean field
    cap = dg.iid_uniform(10.0, 3.3)
    sc = dg.GameScenario(4, 16.5, cap, dg.tabulated_utility(_TABLE), 4.0, 4.0)
    lo, hi = cap.support
    width = hi - lo
    xs = np.linspace(0.0, cap.cbar, 400_001)
    emu = (sc.utility.value(sc.d0 + hi - xs) - sc.utility.value(sc.d0 + lo - xs)) / width
    short = dg.expected_shortfall(cap, xs)
    beta = np.clip(np.maximum(xs - cap.mean, 0.0) / np.where(short > 0.0, short, 1.0), 0.0, 1.0)
    rho = emu + sc.lambda_rt * beta * np.clip((xs - lo) / width, 0.0, 1.0)
    oracle_rho = rho[int(np.argmax((sc.lambda_da - rho) * xs))]

    res, sol = dg.meanfield_stackelberg(sc)
    assert abs(res.rho_star - oracle_rho) <= 2e-3
    assert res.x_star == sol.x_star


def test_meanfield_stackelberg_builds_one_inverse_response(monkeypatch):
    # meanfield_solve reuses the leader's inverse response: one set of bounds
    calls = []
    real = dg.equilibrium.offer_price_bounds
    monkeypatch.setattr(dg.equilibrium, "offer_price_bounds",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    res, sol = dg.meanfield_stackelberg(make_scenario(kind="iid", n=4), grid_points=64)
    assert len(calls) == 1
    assert res.x_star == sol.x_star
