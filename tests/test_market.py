import math

import numpy as np
import pytest

import deragg as dg
from deragg.equilibrium import scenario_at_price
from deragg.market import MODE_AGGREGATED, MODE_DIRECT, MODE_NODER, MODE_SOCIAL

from conftest import make_scenario


def fig5_params(n=1, sigma=3.3):
    return dg.UniformLinearParams(2.5, 10.0, sigma, 4.0, 4.0, n)


def test_generator_validation_and_supply():
    g = dg.GeneratorSpec(kappa=3.25)
    assert g.supply_at(3.0) == 0.0
    assert g.supply_at(3.25) == math.inf
    assert g.supply_below(3.25) == 0.0
    assert g.cost(7.0) == pytest.approx(3.25 * 7.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=-1.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=1.0, qmin=5.0, qmax=2.0)


def test_generator_piecewise_segments():
    g = dg.GeneratorSpec(kappa=1.0, segments=((1.0, 5.0), (2.0, 5.0)))
    assert g.qmax == 10.0
    assert g.supply_at(1.5) == 5.0
    assert g.supply_at(2.0) == 10.0
    assert g.supply_below(2.0) == 5.0
    assert g.cost(7.0) == pytest.approx(1.0 * 5.0 + 2.0 * 2.0)
    with pytest.raises(dg.ValidationError):
        dg.GeneratorSpec(kappa=1.0, segments=((2.0, 5.0), (1.0, 5.0)))


def test_affine_curve_round_trip():
    curve = dg.aggregated_affine_curve(fig5_params())
    q = 2.0
    assert curve.quantity_at(curve.price_at(q)) == pytest.approx(q, rel=1e-12)
    assert curve.quantity_at(curve.intercept - 1.0) == 0.0
    assert curve.quantity_at(1e9) == curve.quantity_cap
    assert curve.cost_integral(q) == pytest.approx(
        curve.intercept * q + 0.5 * curve.slope * q * q
    )


def test_affine_curve_slope_matches_closed_form():
    for n in (1, 3):
        p = fig5_params(n=n)
        curve = dg.aggregated_affine_curve(p)
        assert curve.slope == pytest.approx(p.lambda_rt / (n * dg.SQRT3 * p.sigma), rel=1e-12)
        direct = dg.direct_affine_curve(p)
        assert direct.slope == pytest.approx(curve.slope / 2.0, rel=1e-12)
        assert direct.intercept == pytest.approx(curve.intercept, rel=1e-12)


def test_tabulated_curve_interpolation_and_integral():
    curve = dg.SupplyCurve(
        "tabulated", 0.0, breakpoints=((0.0, 1.0), (2.0, 1.0), (4.0, 3.0))
    )
    assert curve.quantity_cap == 4.0
    assert curve.price_at(1.0) == 1.0
    assert curve.price_at(3.0) == 2.0
    assert curve.quantity_at(1.0) == 2.0  # rightmost point of the flat run
    assert curve.quantity_below(1.0) == 0.0
    assert curve.quantity_at(2.0) == 3.0
    # integral oracle: dense trapezoid over the interpolated curve
    qs = np.linspace(0.0, 3.5, 20_001)
    oracle = np.trapezoid([curve.price_at(float(q)) for q in qs], qs)
    assert curve.cost_integral(3.5) == pytest.approx(float(oracle), rel=1e-6)
    with pytest.raises(dg.ValidationError):
        dg.SupplyCurve("tabulated", 0.0, breakpoints=((0.0, 2.0), (1.0, 1.0)))


def test_clear_noder_cost_is_kappa_times_demand():
    out = dg.clear_market(
        dg.DispatchProblem((dg.GeneratorSpec(kappa=3.25),), 10.0, None, MODE_NODER)
    )
    assert out.clearing_price == 3.25
    assert out.total_cost == pytest.approx(32.5)
    assert out.cleared_der == 0.0


def test_clear_aggregated_fig5():
    out = dg.clear_market(
        dg.DispatchProblem(
            (dg.GeneratorSpec(kappa=3.25),), 10.0,
            dg.aggregated_affine_curve(fig5_params()), MODE_AGGREGATED,
        )
    )
    assert out.clearing_price == 3.25
    assert out.cleared_der == pytest.approx(3.2138, abs=1e-4)
    assert out.total_cost == pytest.approx(28.886, abs=1e-3)
    assert sum(out.cleared_generator) + out.cleared_der == pytest.approx(10.0, abs=1e-12)


def test_clear_direct_fig5():
    out = dg.clear_market(
        dg.DispatchProblem(
            (dg.GeneratorSpec(kappa=3.25),), 10.0,
            dg.direct_affine_curve(fig5_params()), MODE_DIRECT,
        )
    )
    assert out.cleared_der == pytest.approx(6.4276, abs=1e-4)
    assert out.total_cost == pytest.approx(25.271, abs=2e-3)


def test_der_sets_price_when_generator_is_expensive():
    curve = dg.direct_affine_curve(fig5_params())
    out = dg.clear_market(
        dg.DispatchProblem((dg.GeneratorSpec(kappa=50.0),), 5.0, curve, MODE_DIRECT)
    )
    assert out.cleared_der == pytest.approx(5.0)
    assert out.clearing_price == pytest.approx(curve.price_at(5.0), abs=1e-6)
    assert out.cleared_generator[0] == 0.0


def test_tie_split_pro_rata():
    gens = (
        dg.GeneratorSpec(kappa=2.0, qmax=10.0),
        dg.GeneratorSpec(kappa=2.0, qmax=30.0),
    )
    out = dg.clear_market(dg.DispatchProblem(gens, 20.0, None, MODE_NODER))
    assert out.clearing_price == 2.0
    assert out.cleared_generator[0] == pytest.approx(5.0)
    assert out.cleared_generator[1] == pytest.approx(15.0)


def test_infeasible_demand():
    with pytest.raises(dg.MarketInfeasibleError) as err:
        dg.DispatchProblem((dg.GeneratorSpec(kappa=2.0, qmax=4.0),), 10.0, None, MODE_NODER)
    assert err.value.shortfall == pytest.approx(6.0)


def test_cost_monotone_in_demand():
    curve = dg.aggregated_affine_curve(fig5_params())
    gens = (dg.GeneratorSpec(kappa=3.25),)
    costs = [
        dg.clear_market(dg.DispatchProblem(gens, d, curve, MODE_AGGREGATED)).total_cost
        for d in (12.0, 10.0, 8.0, 5.0, 2.0)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_social_mode_uses_direct_curve():
    curve = dg.direct_affine_curve(fig5_params())
    gens = (dg.GeneratorSpec(kappa=3.25),)
    social = dg.clear_market(dg.DispatchProblem(gens, 10.0, curve, MODE_SOCIAL))
    direct = dg.clear_market(dg.DispatchProblem(gens, 10.0, curve, MODE_DIRECT))
    assert social.total_cost == direct.total_cost


def test_poag_report_fig5(fig3_scenario):
    rep = dg.price_of_aggregation(fig3_scenario, (dg.GeneratorSpec(kappa=3.25),), 10.0)
    assert rep.curve_source == "closedform"
    assert rep.poag == pytest.approx(1.143, abs=2e-3)
    assert rep.cost_noder >= rep.cost_aggregated >= rep.cost_direct
    assert rep.outcome_aggregated.cleared_der == pytest.approx(
        0.5 * rep.outcome_direct.cleared_der, rel=1e-9
    )
    cf = dg.procurement_costs(fig5_params(), 3.25, 10.0)
    assert rep.cost_aggregated == pytest.approx(cf.cost_aggregated, rel=1e-12)
    assert rep.cost_direct == pytest.approx(cf.cost_direct, rel=1e-12)


def test_poag_is_one_when_der_not_competitive(fig3_scenario):
    rep = dg.price_of_aggregation(fig3_scenario, (dg.GeneratorSpec(kappa=0.95),), 10.0)
    assert rep.outcome_aggregated.cleared_der == 0.0
    assert rep.outcome_direct.cleared_der == 0.0
    assert rep.poag == 1.0


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
    curve = dg.build_supply_curve_aggregated(fig3_scenario, n_points=9, grid_points=128)
    p = dg.closed_form_params(fig3_scenario)
    for q, price in curve.breakpoints:
        assert price == pytest.approx(dg.inverse_supply_aggregated(p, q), abs=1e-4)


def test_numeric_direct_curve_matches_closed_form(fig3_scenario):
    curve = dg.build_supply_curve_direct(fig3_scenario, n_points=9)
    p = dg.closed_form_params(fig3_scenario)
    for q, price in curve.breakpoints:
        if q > 0.0:
            assert price == pytest.approx(dg.inverse_supply_direct(p, q), abs=1e-4)


def test_direct_curve_same_for_iid_marginal():
    # the benchmark response has no cross-prosumer game: only the marginal matters
    dep = dg.build_supply_curve_direct(make_scenario(n=2), n_points=7)
    iid = dg.build_supply_curve_direct(make_scenario(kind="iid", n=2), n_points=7)
    assert dep.breakpoints == iid.breakpoints


def test_deterministic_aggregated_curve_is_vertical_then_flat():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    curve = dg.build_supply_curve_aggregated(sc, n_points=7, grid_points=128)
    assert curve.quantity_cap == 10.0
    assert curve.price_at(9.9) == pytest.approx(2.5, abs=1e-3)


def test_benchmark_response_endpoints(fig3_scenario):
    lo, hi = fig3_scenario.capacity.support
    assert dg.benchmark_response(fig3_scenario, 2.5) == pytest.approx(lo, abs=1e-12)
    assert dg.benchmark_response(fig3_scenario, 6.5) == pytest.approx(hi, abs=1e-12)
    assert dg.benchmark_response(fig3_scenario, 1.0) == 0.0


def test_dispatch_outcome_balance_guard():
    with pytest.raises(dg.ValidationError):
        dg.DispatchOutcome((5.0,), 1.0, 2.0, 10.0, demand=10.0)


@pytest.mark.filterwarnings("ignore:sigma=.*outside the closed-form band")
@pytest.mark.parametrize("kind,n", [("dependent", 1), ("iid", 2)])
def test_aggregated_curve_matches_per_price_solves(kind, n):
    # the curve shares one inverse-response table across prices; each point
    # must still be the full leader solve at that wholesale price
    sc = make_scenario(kind=kind, n=n)
    prices = [3.6, 4.0, 4.6]
    curve = dg.build_supply_curve_aggregated(
        sc, price_grid=prices, grid_points=64, draws=10_000, seed=3
    )
    for (q, p), price in zip(curve.breakpoints, prices):
        res = dg.stackelberg_solve(
            scenario_at_price(sc, price), grid_points=64, draws=10_000, seed=3
        )
        assert p == price
        assert q == pytest.approx(res.aggregate_x, abs=1e-8)
