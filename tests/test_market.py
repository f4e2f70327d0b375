import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import deragg as dg
from deragg.cli import FIG_MU_SWEEP, FIG_SIGMA_SWEEP
from deragg.equilibrium import DEFAULT_GRID_POINTS, _InverseResponse, _MeanFieldInverse
from deragg.market import _BALANCE_RTOL
from deragg.penalty import DEFAULT_DRAWS, DEFAULT_SEED
from deragg.scenario import parse_scenario
from oracles import tabulated_inverse_response
from workloads import TABULATED_SCENARIO

from conftest import make_scenario


def fig5_params(n=1, sigma=3.3):
    return dg.UniformLinearParams(2.5, 10.0, sigma, 4.0, 4.0, n)


def inverse(sc, draws=DEFAULT_DRAWS, seed=DEFAULT_SEED):
    """The finite-N inverse response that both curve builders read."""
    return _InverseResponse(sc, draws, seed)


def test_generator_validation_and_supply():
    g = dg.GeneratorSpec(kappa=3.25)
    assert g.offer.quantity_at(3.0) == 0.0
    assert g.offer.quantity_at(3.25) == math.inf
    assert g.offer.quantity_below(3.25) == 0.0
    assert g.offer.cost_integral(7.0) == pytest.approx(3.25 * 7.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=-1.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=1.0, qmin=5.0, qmax=2.0)
    with pytest.raises(dg.ValidationError, match="kappa must be a number"):
        dg.GeneratorSpec(kappa="3")


def test_generator_piecewise_segments():
    g = dg.GeneratorSpec(kappa=1.0, segments=((1.0, 5.0), (2.0, 5.0)))
    assert g.qmax == 10.0
    assert g.offer.quantity_at(1.5) == 5.0
    assert g.offer.quantity_at(2.0) == 10.0
    assert g.offer.quantity_below(2.0) == 5.0
    assert g.offer.cost_integral(7.0) == pytest.approx(1.0 * 5.0 + 2.0 * 2.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=1.0, segments=((2.0, 5.0), (1.0, 5.0)))
    with pytest.raises(dg.ValidationError, match="pairs"):
        dg.GeneratorSpec(kappa=1.0, segments=((1.0,),))


def test_affine_curve_round_trip():
    curve = dg.aggregated_affine_curve(fig5_params())
    (_, intercept), (cap, top) = curve.breakpoints
    slope = (top - intercept) / cap
    q = 2.0
    assert curve.quantity_at(curve.price_at(q)) == pytest.approx(q, rel=1e-12)
    assert curve.quantity_at(intercept - 1.0) == 0.0
    assert curve.quantity_at(1e9) == curve.quantity_cap
    assert curve.cost_integral(q) == pytest.approx(intercept * q + 0.5 * slope * q * q)


def _intercept_and_slope(curve):
    (q0, p0), (q1, p1) = curve.breakpoints
    return p0, (p1 - p0) / (q1 - q0)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("n", [3, 5])
def test_affine_curves_read_their_top_at_any_capacity_scale(n, s):
    # at N = 3 and s = 1e6 the aggregated top X = N*top/2 maps back to a 2X/N an ulp
    # above top: no extrapolation, so no warning, which the suite makes an error
    p = dg.UniformLinearParams(2.5, 10.0 * s, 3.749090909090909 * s, 4.0, 4.0, n)
    tops = [build(p).breakpoints[-1]
            for build in (dg.aggregated_affine_curve, dg.direct_affine_curve)]
    assert [price for _, price in tops] == pytest.approx([6.5, 6.5], rel=1e-12)


def test_affine_curve_slope_matches_closed_form():
    for n in (1, 3):
        p = fig5_params(n=n)
        intercept, slope = _intercept_and_slope(dg.aggregated_affine_curve(p))
        assert slope == pytest.approx(p.lambda_rt / (n * dg.SQRT3 * p.sigma), rel=1e-12)
        direct_intercept, direct_slope = _intercept_and_slope(dg.direct_affine_curve(p))
        assert direct_slope == pytest.approx(slope / 2.0, rel=1e-12)
        assert direct_intercept == pytest.approx(intercept, rel=1e-12)


def test_tabulated_curve_interpolation_and_integral():
    curve = dg.SupplyCurve(((0.0, 1.0), (2.0, 1.0), (4.0, 3.0)))
    assert curve.quantity_cap == 4.0
    assert curve.price_at(1.0) == 1.0
    assert curve.price_at(3.0) == 2.0
    assert curve.quantity_at(1.0) == 2.0  # rightmost point of the flat run
    assert curve.quantity_below(1.0) == 0.0
    assert curve.quantity_at(2.0) == 3.0
    # integral oracle: dense trapezoid over the interpolated curve
    qs = np.linspace(0.0, 3.5, 20_001)
    ps = np.array([curve.price_at(float(q)) for q in qs])
    oracle = np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(qs))
    assert curve.cost_integral(3.5) == pytest.approx(float(oracle), rel=1e-6)
    with pytest.raises(dg.ValidationError):
        dg.SupplyCurve(((0.0, 2.0), (1.0, 1.0)))


def test_supply_curve_rejects_one_breakpoint_and_a_negative_quantity():
    with pytest.raises(dg.ValidationError, match="at least two breakpoints"):
        dg.SupplyCurve(((0.0, 1.0),))
    curve = dg.SupplyCurve(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(dg.ValidationError, match="quantity must be nonnegative"):
        curve.cost_integral(-1.0)


def test_supply_curve_holds_the_price_flat_outside_its_quantities():
    curve = dg.SupplyCurve(((0.0, 1.0), (2.0, 3.0)))
    for q, price in ((-1.0, 1.0), (5.0, 3.0)):
        with pytest.warns(UserWarning, match=r"outside \[0, 2\]; price held flat"):
            assert curve.price_at(q) == price


def test_der_curves_reject_an_unknown_source():
    with pytest.raises(dg.ValidationError, match="unknown curve_source 'bogus'"):
        dg.der_curves(make_scenario(), "bogus")


def test_clear_noder_cost_is_kappa_times_demand():
    out = dg.clear_market((dg.GeneratorSpec(kappa=3.25),), 10.0)
    assert out.clearing_price == 3.25
    assert out.total_cost == pytest.approx(32.5)
    assert out.cleared_der == 0.0


def test_clear_aggregated_fig5():
    out = dg.clear_market(
        (dg.GeneratorSpec(kappa=3.25),), 10.0, dg.aggregated_affine_curve(fig5_params())
    )
    assert out.clearing_price == 3.25
    assert out.cleared_der == pytest.approx(3.2138, abs=1e-4)
    assert out.total_cost == pytest.approx(28.886, abs=1e-3)
    assert sum(out.cleared_generator) + out.cleared_der == pytest.approx(10.0, abs=1e-12)


def test_clear_direct_fig5():
    out = dg.clear_market(
        (dg.GeneratorSpec(kappa=3.25),), 10.0, dg.direct_affine_curve(fig5_params())
    )
    assert out.cleared_der == pytest.approx(6.4276, abs=1e-4)
    assert out.total_cost == pytest.approx(25.271, abs=2e-3)


def test_der_sets_price_when_generator_is_expensive():
    curve = dg.direct_affine_curve(fig5_params())
    out = dg.clear_market((dg.GeneratorSpec(kappa=50.0),), 5.0, curve)
    assert out.cleared_der == pytest.approx(5.0)
    assert out.clearing_price == pytest.approx(curve.price_at(5.0), abs=1e-6)
    assert out.cleared_generator[0] == 0.0


def test_tie_split_pro_rata():
    gens = (
        dg.GeneratorSpec(kappa=2.0, qmax=10.0),
        dg.GeneratorSpec(kappa=2.0, qmax=30.0),
    )
    out = dg.clear_market(gens, 20.0)
    assert out.clearing_price == 2.0
    assert out.cleared_generator[0] == pytest.approx(5.0)
    assert out.cleared_generator[1] == pytest.approx(15.0)


def test_infeasible_demand():
    with pytest.raises(dg.MarketInfeasibleError) as err:
        dg.clear_market((dg.GeneratorSpec(kappa=2.0, qmax=4.0),), 10.0)
    assert err.value.shortfall == pytest.approx(6.0)


def test_must_run_above_demand_is_infeasible():
    gens = (dg.GeneratorSpec(kappa=2.0, qmin=7.0, qmax=9.0), dg.GeneratorSpec(kappa=1.0, qmin=1.5))
    with pytest.raises(dg.MarketInfeasibleError, match="must-run") as err:
        dg.clear_market(gens, 6.0)
    assert err.value.shortfall == 8.5 - 6.0


@pytest.mark.parametrize("make", [
    lambda: dg.GeneratorSpec(kappa=1.0, qmin=math.nan),
    lambda: dg.GeneratorSpec(kappa=1.0, qmax=math.nan),
    lambda: dg.GeneratorSpec(kappa=1.0, segments=((math.nan, 1.0),)),
    lambda: dg.GeneratorSpec(kappa=1.0, segments=((1.0, math.nan),)),
    lambda: dg.clear_market((dg.GeneratorSpec(kappa=1.0),), math.nan),
    lambda: dg.SupplyCurve(breakpoints=((0.0, 1.0), (1.0, math.nan))),
], ids=["qmin", "qmax", "segment-price", "segment-width", "demand", "curve-breakpoint"])
def test_market_rejects_nan_input(make):
    with pytest.raises(dg.ValidationError):
        make()


def test_empty_merit_order_is_rejected():
    with pytest.raises(dg.ValidationError):
        dg.clear_market((), 0.0)


def test_exact_clearing_on_mixed_merit_order():
    # the DER curve has a flat run at price 1; the segmented generator's
    # marginal prices 2 and 4 lie strictly inside DER segments; the last
    # generator must run at 1 and is the most expensive
    curve = dg.SupplyCurve(((0.0, 1.0), (2.0, 1.0), (6.0, 3.0), (8.0, 5.0)))
    gens = (
        dg.GeneratorSpec(kappa=2.0, segments=((2.0, 3.0), (4.0, 2.0))),
        dg.GeneratorSpec(kappa=6.0, qmin=1.0, qmax=5.0),
    )
    knots = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}
    off_knot = set()
    for demand in np.linspace(1.0, 18.0, 69):
        out = dg.clear_market(gens, float(demand), curve)
        p = out.clearing_price
        below = sum(g.offer.quantity_below(p) for g in gens) + curve.quantity_below(p)
        at = sum(g.offer.quantity_at(p) for g in gens) + curve.quantity_at(p)
        slack = _BALANCE_RTOL * demand
        assert below - slack <= demand <= at + slack
        if 0.0 < out.cleared_der < curve.quantity_cap:  # the DER curve is marginal
            assert abs(p - curve.price_at(out.cleared_der)) <= 1e-12
        if p not in knots and p > 1.0:
            off_knot.add(int(p))
    # the DER curve alone set the price inside (1, 2), (2, 3), (3, 4) and (4, 5)
    assert off_knot == {1, 2, 3, 4}


def _random_merit_order(rng):
    """Generators of every kind (must-run, finite and unbounded, segmented)
    on integer prices, so knots tie across resources, and a DER curve with
    flat runs."""
    gens = []
    for kind in rng.integers(0, 3, size=rng.integers(1, 4)):
        kappa = float(rng.integers(1, 7))
        qmin = float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
        if kind == 0:
            gens.append(dg.GeneratorSpec(kappa=kappa, qmin=qmin))
        elif kind == 1:
            gens.append(dg.GeneratorSpec(kappa=kappa, qmin=qmin, qmax=qmin + rng.uniform(1.0, 5.0)))
        else:
            prices = np.sort(rng.integers(1, 7, size=3)).astype(float)
            widths = rng.uniform(0.5, 3.0, size=3)
            gens.append(dg.GeneratorSpec(kappa=kappa, qmin=qmin,
                                         segments=tuple(zip(prices, widths))))
    qs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 3.0, size=5))])
    ps = np.sort(rng.choice([1.0, 2.5, 2.5, 3.5, 4.0, 5.5], size=6))
    return tuple(gens), dg.SupplyCurve(tuple(zip(qs, ps)))


def test_exact_clearing_on_random_merit_orders():
    rng = np.random.default_rng(11)
    for _ in range(200):
        gens, curve = _random_merit_order(rng)
        der = curve if rng.random() < 0.7 else None
        offers = [g.offer for g in gens] + ([der] if der is not None else [])
        must_run = sum(g.qmin for g in gens)
        cap = min(sum(c.quantity_cap for c in offers), must_run + 30.0)
        demand = float(rng.uniform(must_run, cap))
        out = dg.clear_market(gens, demand, der)
        p = out.clearing_price
        alloc = list(out.cleared_generator) + ([out.cleared_der] if der is not None else [])
        slack = _BALANCE_RTOL * demand
        for c, q in zip(offers, alloc):
            assert c.quantity_below(p) - slack <= q <= c.quantity_at(p) + slack
        assert sum(alloc) == pytest.approx(demand, abs=slack)
        assert out.total_cost == pytest.approx(
            sum(c.cost_integral(q) for c, q in zip(offers, alloc)), rel=1e-12
        )


def test_must_run_clears_at_the_lowest_knot():
    g = dg.GeneratorSpec(kappa=0.5, qmin=10.0, qmax=20.0)
    out = dg.clear_market((g,), 10.0)
    assert out.clearing_price == 0.5
    assert out.cleared_generator == (10.0,)
    assert out.total_cost == pytest.approx(5.0)
    # the cheaper generator is marginal once the must-run output is dispatched
    cheap = dg.GeneratorSpec(kappa=0.25, qmax=5.0)
    out = dg.clear_market((g, cheap), 10.0)
    assert out.clearing_price == 0.25
    assert out.cleared_generator == (10.0, 0.0)


def test_supply_curve_accepts_only_a_last_unbounded_quantity():
    curve = dg.SupplyCurve(((1.0, 2.0), (math.inf, 2.0)))
    assert curve.quantity_below(2.0) == 1.0  # the first quantity is offered at any price
    assert curve.quantity_at(2.0) == math.inf
    assert curve.cost_integral(3.0) == pytest.approx(6.0)
    for bad in (
        ((0.0, 1.0), (math.nan, 1.0)),
        ((0.0, 1.0), (-math.inf, 1.0)),
        ((0.0, 1.0), (math.inf, 1.0), (math.inf, 1.0)),
        ((0.0, 1.0), (math.inf, 2.0)),  # an unbounded last piece must be flat
    ):
        with pytest.raises(dg.ValidationError):
            dg.SupplyCurve(bad)


def test_numeric_aggregated_curve_starts_at_zero():
    # with the support reaching 0, the first hull edge is one offer wide
    curve = dg.build_supply_curve_aggregated(inverse(make_scenario(sigma=10.0 / dg.SQRT3)), 9)
    (q0, p0), (q1, p1) = curve.breakpoints[:2]
    assert q0 == 0.0 and q1 > 0.0 and p0 == p1
    assert curve.quantity_below(p0) == 0.0


def test_cost_monotone_in_demand():
    curve = dg.aggregated_affine_curve(fig5_params())
    gens = (dg.GeneratorSpec(kappa=3.25),)
    costs = [
        dg.clear_market(gens, d, curve).total_cost
        for d in (12.0, 10.0, 8.0, 5.0, 2.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_poag_report_fig5(fig3_scenario):
    gens = (dg.GeneratorSpec(kappa=3.25),)
    rep = dg.price_of_aggregation(fig3_scenario, gens, 10.0)
    assert rep.curve_source == "closedform"
    assert rep.poag == pytest.approx(1.143, abs=2e-3)
    assert rep.cost_noder >= rep.cost_aggregated >= rep.cost_direct
    # at every grid point of figs 5 and 6, clearing the closed-form curves
    # gives the closed-form costs that the figures print
    grid = [(10.0, sigma) for sigma in np.linspace(*FIG_SIGMA_SWEEP).tolist()]
    grid += [(mu, 3.3) for mu in np.linspace(*FIG_MU_SWEEP).tolist()]
    assert len(grid) == 47
    for mu, sigma in grid:
        rep = dg.price_of_aggregation(make_scenario(mu=mu, sigma=sigma), gens, 10.0)
        cf = dg.procurement_costs(dg.UniformLinearParams(2.5, mu, sigma, 4.0, 4.0), 3.25, 10.0)
        for got, exact in (
            (rep.cost_aggregated, cf.cost_aggregated), (rep.cost_direct, cf.cost_direct),
            (rep.cost_noder, cf.cost_noder), (rep.poag, cf.poag),
            (rep.outcome_aggregated.cleared_der, 0.5 * cf.q_star),
            (rep.outcome_direct.cleared_der, cf.q_star),
        ):
            assert got == pytest.approx(exact, rel=1e-12)


def test_poag_is_one_when_der_not_competitive(fig3_scenario):
    rep = dg.price_of_aggregation(fig3_scenario, (dg.GeneratorSpec(kappa=0.95),), 10.0)
    assert rep.outcome_aggregated.cleared_der == 0.0
    assert rep.outcome_direct.cleared_der == 0.0
    assert rep.poag == 1.0


def test_poag_is_undefined_where_direct_participation_costs_nothing(fig3_scenario):
    # PoAg = C_agg / C_direct, and a free generator meets all demand in both modes
    with pytest.raises(dg.ValidationError, match="zero cost"):
        dg.price_of_aggregation(fig3_scenario, (dg.GeneratorSpec(kappa=0.0),), 10.0)


def test_cleared_halving_across_sigma_band(fig3_scenario):
    gens = (dg.GeneratorSpec(kappa=3.25),)
    for sigma in np.linspace(3.30, 5.77, 10):
        sc = make_scenario(sigma=float(sigma))
        rep = dg.price_of_aggregation(sc, gens, 10.0)
        assert rep.outcome_aggregated.cleared_der == pytest.approx(
            0.5 * rep.outcome_direct.cleared_der, rel=1e-6
        )
        assert rep.cost_noder >= rep.cost_aggregated >= rep.cost_direct


def test_numeric_aggregated_curve_matches_closed_form(fig3_scenario):
    # below N*lo the affine formula runs under gamma, outside the game; the
    # numeric curve is flat at rho_min there
    curve = dg.build_supply_curve_aggregated(inverse(fig3_scenario), n_points=9)
    p = dg.closed_form_params(fig3_scenario)
    n_lo = p.n_prosumers * fig3_scenario.capacity.support[0]
    for q, price in curve.breakpoints:
        if q > n_lo:
            assert price == pytest.approx(dg.inverse_supply_aggregated(p, q), abs=1e-4)


def test_numeric_direct_curve_matches_closed_form(fig3_scenario):
    curve = dg.build_supply_curve_direct(inverse(fig3_scenario))
    p = dg.closed_form_params(fig3_scenario)
    for q, price in curve.breakpoints:
        if q > 0.0:
            assert price == pytest.approx(dg.inverse_supply_direct(p, q), abs=1e-4)


def test_direct_curve_same_for_iid_marginal():
    # the benchmark response has no cross-prosumer game: only the marginal matters
    dep = dg.build_supply_curve_direct(inverse(make_scenario(n=2)))
    iid = dg.build_supply_curve_direct(inverse(make_scenario(kind="iid", n=2)))
    assert dep.breakpoints == iid.breakpoints


def test_deterministic_aggregated_curve_is_vertical_then_flat():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    curve = dg.build_supply_curve_aggregated(inverse(sc), n_points=7)
    assert curve.quantity_cap == 10.0
    assert curve.price_at(9.9) == pytest.approx(2.5, abs=1e-3)


def test_direct_curve_endpoints(fig3_scenario):
    lo, hi = fig3_scenario.capacity.support
    curve = dg.build_supply_curve_direct(inverse(fig3_scenario))
    assert curve.quantity_at(2.5) == pytest.approx(lo, abs=1e-12)
    assert curve.quantity_at(6.5) == pytest.approx(hi, abs=1e-12)
    assert curve.quantity_at(1.0) == 0.0


def test_direct_curve_matches_exact_tabulated_inverse_response():
    # E[u'] of a piecewise-linear u' under uniform capacity is exact (oracle);
    # the curve reads the Monte-Carlo rho_1 off at its offers
    scenario = parse_scenario(TABULATED_SCENARIO).scenario
    _, rho_1, cbar = tabulated_inverse_response(TABULATED_SCENARIO)
    curve = dg.build_supply_curve_direct(inverse(scenario, 50_000, 7))
    n = scenario.n_prosumers
    ys = np.linspace(0.0, cbar, 2001)
    err = max(abs(curve.price_at(n * y) - float(rho_1(y))) for y in ys)
    assert err <= 2e-3


def test_dispatch_outcome_balance_guard():
    with pytest.raises(dg.ValidationError):
        dg.DispatchOutcome((5.0,), 1.0, 2.0, 10.0, demand=10.0)


@pytest.mark.filterwarnings("ignore:sigma=.*outside the closed-form band")
@pytest.mark.parametrize("kind,n", [("dependent", 1), ("iid", 2), ("iid", 4), ("meanfield", 4)])
def test_aggregated_curve_matches_per_price_solves(kind, n):
    # the leader at lambda_da = p and the curve at p read one hull of
    # x * rho(x) over the same offers, so they buy the same pooled offer up
    # to the golden refinement, which stays within the offers next to the
    # hull vertex; Monte-Carlo noise in rho does not move that vertex apart.
    # The builder reads the mean-field inverse response as it is.
    if kind == "meanfield":
        sc, rho = make_scenario(kind="iid", n=n), _MeanFieldInverse

        def leader(*args, **kwargs):
            return dg.meanfield_stackelberg(*args, **kwargs)[0]
    else:
        sc, rho, leader = make_scenario(kind=kind, n=n), _InverseResponse, dg.stackelberg_solve
    curve = dg.build_supply_curve_aggregated(rho(sc, 10_000, 3))
    rho_min, rho_max = dg.offer_price_bounds(sc, draws=10_000, seed=3)
    step = n * sc.capacity.cbar / (DEFAULT_GRID_POINTS - 1)
    for price in np.linspace(rho_min, rho_max, 22)[1:-1]:
        res = leader(replace(sc, lambda_da=float(price)), grid_points=DEFAULT_GRID_POINTS,
                     draws=10_000, seed=3)
        assert res.aggregate_x == pytest.approx(curve.quantity_at(price), abs=step)


def test_numeric_curves_share_one_inverse_response(monkeypatch):
    # der_curves alone builds nothing; rho_1 reads rho_N's E[u'] draws, which
    # do not depend on N: one kernel, which the aggregated curve's bounds read
    # too, and one sample each for it and for the coverage term
    points = TABULATED_SCENARIO["scenario"]["utility"]["marginal_points"]
    sc = replace(make_scenario(kind="iid", n=4), utility=dg.tabulated_utility(points))
    calls = {"emu": 0, "bounds": 0, "sample": 0, "agg": 0, "direct": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dg.equilibrium, "offer_price_bounds",
                        counted("bounds", dg.equilibrium.offer_price_bounds))
    emu = counted("emu", dg.agents._MarginalUtilityDraws)
    sample = counted("sample", dg.capacity.sample)
    for module in (dg.agents, dg.equilibrium):
        monkeypatch.setattr(module, "_MarginalUtilityDraws", emu)
        monkeypatch.setattr(module, "sample", sample)
    monkeypatch.setattr(dg.market, "build_supply_curve_aggregated",
                        counted("agg", dg.market.build_supply_curve_aggregated))
    monkeypatch.setattr(dg.market, "build_supply_curve_direct",
                        counted("direct", dg.market.build_supply_curve_direct))
    build, source = dg.der_curves(sc, "numeric", draws=20_000, seed=7, grid_points=16)
    assert source == "numeric" and sorted(build) == ["agg", "direct"]
    assert calls == {"emu": 0, "bounds": 0, "sample": 0, "agg": 0, "direct": 0}
    build["agg"](), build["direct"]()
    assert calls == {"emu": 1, "bounds": 1, "sample": 2, "agg": 1, "direct": 1}


@pytest.mark.parametrize("grid_points", [0, -5])
@pytest.mark.parametrize("source", ["closedform", "auto", "numeric"])
def test_der_curves_check_the_grid_on_every_source(source, grid_points):
    # the closed form reads no grid, but the same call must fail alike on every source
    sc = make_scenario()
    with pytest.raises(dg.ValidationError, match="^grid_points must be at least 4$"):
        dg.der_curves(sc, source, grid_points=grid_points)
    with pytest.raises(dg.ValidationError, match="^grid_points must be at least 4$"):
        dg.price_of_aggregation(sc, [dg.GeneratorSpec(kappa=3.25)], 10.0, source,
                                grid_points=grid_points)


@pytest.mark.parametrize("n", [1, 4])
def test_direct_curve_leaves_its_inverse_response_to_reference_counting(n):
    # an inverse that held itself as its own rho_1 would keep its draws until
    # the cyclic collector ran, and a loop of solves would grow its peak memory
    rho = inverse(make_scenario(kind="iid", n=n))
    dg.build_supply_curve_direct(rho)
    gone = weakref.ref(rho)
    gc.disable()
    try:
        del rho
        assert gone() is None
    finally:
        gc.enable()
