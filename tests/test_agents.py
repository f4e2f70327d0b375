import numpy as np
import pytest

import deragg as dg
from deragg.agents import _MarginalUtilityDraws, expected_marginal_utility
from deragg.penalty import MIN_DRAWS, penalty_draws
from oracles import _utility
from workloads import TABULATED_SCENARIO

from conftest import make_scenario


def test_linear_utility_validation():
    with pytest.raises(dg.ValidationError):
        dg.linear_utility(0.0)
    with pytest.raises(dg.ValidationError, match="gamma must be a number"):
        dg.linear_utility("3")
    u = dg.linear_utility(2.5)
    assert u.value(4.0) == 10.0
    assert u.marginal(123.0) == 2.5


def test_tabulated_utility_hook():
    u = dg.tabulated_utility([(0.0, 3.0), (10.0, 2.0), (20.0, 1.0)])
    assert u.marginal(5.0) == pytest.approx(2.5)
    assert u.marginal(-1.0) == 3.0  # constant extrapolation
    # integral of the marginal: area under a trapezoid
    assert u.value(10.0) == pytest.approx(25.0, rel=1e-3)
    with pytest.raises(dg.ValidationError):
        dg.tabulated_utility([(0.0, 1.0), (1.0, 2.0)])  # increasing marginal
    with pytest.raises(dg.ValidationError, match="pairs"):
        dg.tabulated_utility([(0.0, 3.0), 5.0])


def test_tabulated_utility_value_is_exact_and_batch_independent():
    # u' is piecewise linear, so the trapezoid rule on the knots is exact
    points = TABULATED_SCENARIO["scenario"]["utility"]["marginal_points"]
    u = dg.tabulated_utility(points)
    exact = _utility(points)
    knots = [0.0, 12.0, 22.0, 34.0]
    between = [5.0, 17.3, 28.0]
    beyond = [40.0, 400.0]
    z = np.array(knots + between + beyond)
    assert np.max(np.abs(u.value(z) - exact(z))) <= 1e-12
    for zi in z:
        alone = u.value(float(zi))
        assert abs(alone - float(exact(zi))) <= 1e-12
        assert u.value(np.array([zi, 400.0]))[0] == alone


@pytest.mark.parametrize("cap", [
    dg.dependent_uniform(10.0, 3.3), dg.iid_uniform(10.0, 3.3), dg.deterministic(10.0),
], ids=lambda c: c.kind)
def test_marginal_utility_kernel_matches_per_draw_mean(cap):
    # the sorted-draws kernel sums the same per-draw values in another order
    points = TABULATED_SCENARIO["scenario"]["utility"]["marginal_points"]
    sc = dg.GameScenario(3, 16.5, cap, dg.tabulated_utility(points), 4.0, 4.0)
    draws, seed = 20_000, 5
    caps = dg.sample(cap, 1, seed, draws)[:, 0]
    kernel = _MarginalUtilityDraws(sc, draws, seed)
    # the table knots sit at z - d0 + x in capacity space: x = 0 and x = 10
    # put knots inside the support, x = -1.5 puts all four outside it, and
    # x = +-100 moves every draw past one flat end of the table
    xs = np.array([0.0, 10.0, cap.cbar, -1.5, 100.0, -100.0, *np.linspace(0.0, cap.cbar, 36)])
    ref = np.array([np.mean(sc.utility.marginal(sc.d0 + caps - x)) for x in xs])
    assert np.max(np.abs(kernel(xs) - ref)) <= 1e-12
    for x, r in zip(xs, ref):
        got = kernel(float(x))
        assert isinstance(got, float) and abs(got - r) <= 1e-12
        assert expected_marginal_utility(sc, float(x), draws=draws, seed=seed) == got
    assert np.array_equal(kernel(xs.reshape(3, -1)), kernel(xs).reshape(3, -1))


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("utility", [dg.linear_utility(2.5), dg.tabulated_utility([(0.0, 3.0), (20.0, 1.0)])])
def test_expected_marginal_utility_rejects_non_finite_offer(x, utility):
    sc = dg.GameScenario(1, 20.0, dg.dependent_uniform(10.0, 3.3), utility, 4.0, 4.0)
    with pytest.raises(dg.ValidationError, match="finite"):
        expected_marginal_utility(sc, x)


def test_scenario_validation():
    cap = dg.dependent_uniform(10.0, 3.3)
    with pytest.raises(dg.ValidationError, match="d0"):
        dg.GameScenario(1, 10.0, cap, dg.linear_utility(2.5), 4.0, 4.0)
    with pytest.raises(dg.ValidationError):
        dg.GameScenario(0, 20.0, cap, dg.linear_utility(2.5), 4.0, 4.0)
    with pytest.raises(dg.ValidationError):
        dg.GameScenario(1, 20.0, cap, dg.linear_utility(2.5), -1.0, 4.0)


@pytest.mark.parametrize("lambda_rt", [0.0, -1.0])
def test_scenario_rejects_nonpositive_real_time_price(lambda_rt):
    cap = dg.dependent_uniform(10.0, 3.3)
    with pytest.raises(dg.ValidationError, match="lambda_rt"):
        dg.GameScenario(1, 20.0, cap, dg.linear_utility(2.5), 4.0, lambda_rt)


def test_payoff_deterministic_hand_value():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    got = dg.prosumer_payoff(sc, rho=3.0, x_i=10.0, x_others=10.0, draws=MIN_DRAWS, seed=1)
    assert got == pytest.approx(3.0 * 10.0 + 2.5 * (11.0 + 10.0 - 10.0))  # 57.5


def test_payoff_zero_offer():
    sc = make_scenario(n=2)
    got = dg.prosumer_payoff(sc, rho=3.0, x_i=0.0, x_others=5.0, draws=MIN_DRAWS, seed=1)
    assert got == pytest.approx(2.5 * (sc.d0 + 10.0))


def test_payoff_at_support_minimum_matches_analytic():
    sc = make_scenario(n=2)
    lo = sc.capacity.support[0]
    analytic = 2.5 * lo + 2.5 * (sc.d0 + 10.0 - lo)  # rho = gamma, penalty 0
    got = dg.prosumer_payoff(sc, rho=2.5, x_i=lo, x_others=lo, draws=MIN_DRAWS, seed=1)
    assert got == pytest.approx(analytic, abs=1e-9)


def test_payoff_concave_in_own_offer():
    sc = make_scenario(kind="iid", n=3)
    step = 0.5
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(6.0, 14.0)
        rho = rng.uniform(2.6, 6.0)
        # with linear utility the only stochastic term is the penalty, so use
        # its per-draw values for a CRN second difference
        d_mid = penalty_draws(sc, x, 9.0, draws=50_000, seed=9)
        d_up = penalty_draws(sc, x + step, 9.0, draws=50_000, seed=9)
        d_dn = penalty_draws(sc, x - step, 9.0, draws=50_000, seed=9)
        second_pen = (d_up - 2.0 * d_mid + d_dn) / step**2
        tol_mc = 3.0 * second_pen.std() / np.sqrt(len(second_pen))
        # payoff second derivative = -penalty second derivative (linear parts vanish)
        assert -second_pen.mean() <= tol_mc


def test_deterministic_best_offer_is_all_or_nothing():
    sc = make_scenario(kind="deterministic", mu=10.0, d0=11.0)
    xs = np.linspace(0.0, 10.0, 21)
    for rho, best in ((3.5, 10.0), (1.5, 0.0)):
        payoffs = [
            dg.prosumer_payoff(sc, rho, float(x), 10.0, draws=MIN_DRAWS, seed=1) for x in xs
        ]
        assert xs[int(np.argmax(payoffs))] == best


def test_nominal_demand_only_shifts_payoff():
    lo_d0 = make_scenario(d0=17.0)
    hi_d0 = make_scenario(d0=23.0)
    for rho in (2.8, 3.4, 4.0):
        a = dg.symmetric_follower_response(lo_d0, rho)
        b = dg.symmetric_follower_response(hi_d0, rho)
        assert a == b
    pa = dg.prosumer_payoff(lo_d0, 3.0, 8.0, 8.0, draws=MIN_DRAWS, seed=1)
    pb = dg.prosumer_payoff(hi_d0, 3.0, 8.0, 8.0, draws=MIN_DRAWS, seed=1)
    assert pb - pa == pytest.approx(2.5 * 6.0, abs=1e-9)
    ra = dg.stackelberg_solve(lo_d0, grid_points=64)
    rb = dg.stackelberg_solve(hi_d0, grid_points=64)
    assert ra.rho_star == pytest.approx(rb.rho_star, abs=1e-12)


def test_equilibrium_result_invariants():
    diag = dg.SolverDiagnostics(8, 0, True, False)
    sc = dg.GameScenario(2, 11.0, dg.deterministic(10.0), dg.linear_utility(2.5), 4.0, 4.0)
    with pytest.raises(dg.ValidationError):
        dg.EquilibriumResult(sc, 2.0, 99.0, diag)
    with pytest.raises(dg.ValidationError):
        dg.EquilibriumResult(sc, 5.0, 1.0, diag)
    res = dg.EquilibriumResult(sc, 2.0, 3.0, diag)
    assert (res.aggregate_x, res.leader_profit) == (6.0, (4.0 - 2.0) * 2 * 3.0)


def test_equilibrium_result_checks_rho_star_in_price_units():
    # a slack in capacity units let a large cbar admit rho* far above lambda_da
    diag = dg.SolverDiagnostics(8, 0, True, False)
    sc = dg.GameScenario(2, 5e11, dg.dependent_uniform(1e11, 3.3e10), dg.linear_utility(2.5),
                         4.0, 4.0)
    with pytest.raises(dg.ValidationError, match="rho_star=9"):
        dg.EquilibriumResult(sc, 9.0, 1e11, diag)
    assert dg.EquilibriumResult(sc, 4.0, 1e11, diag).rho_star == 4.0


def test_equilibrium_result_checks_x_star_in_capacity_units():
    # an absolute slack of 1e-9 let a tiny cbar admit x* at 1.5 * cbar
    diag = dg.SolverDiagnostics(8, 0, True, False)
    sc = dg.GameScenario(2, 5e-9, dg.dependent_uniform(1e-9, 3.3e-10), dg.linear_utility(2.5),
                         4.0, 4.0)
    cbar = sc.capacity.cbar
    with pytest.raises(dg.ValidationError, match="x_star="):
        dg.EquilibriumResult(sc, 3.0, 1.5 * cbar, diag)
    assert dg.EquilibriumResult(sc, 3.0, cbar, diag).x_star == cbar
