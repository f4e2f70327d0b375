import numpy as np
import pytest

import deragg as dg


def params(sigma=3.3, gamma=2.5, mu=10.0, lambda_da=4.0, lambda_rt=4.0, n=1):
    return dg.UniformLinearParams(gamma, mu, sigma, lambda_da, lambda_rt, n)


def test_sigma_band_endpoints():
    lo, hi = dg.sigma_band(2.5, 10.0, 4.0, 4.0)
    assert lo == pytest.approx(3.2991, abs=1e-4)
    assert hi == pytest.approx(5.7735, abs=1e-4)


def test_band_violations_raise_with_named_bound():
    with pytest.raises(dg.AdmissibilityError, match="below the admissible minimum"):
        params(sigma=3.0)
    with pytest.raises(dg.AdmissibilityError, match="above the admissible maximum"):
        params(sigma=6.0)
    with pytest.raises(dg.AdmissibilityError, match="lambda_da"):
        params(gamma=5.0)


@pytest.mark.parametrize("change,needle", [
    ({"mu": 0.0}, "gamma, mu and lambda_rt must be positive"),
    ({"mu": -1.0}, "gamma, mu and lambda_rt must be positive"),
    ({"n": 0}, "n_prosumers must be >= 1"),
])
def test_params_reject_a_nonpositive_mean_or_prosumer_count(change, needle):
    with pytest.raises(dg.AdmissibilityError, match=needle):
        params(**change)


def test_equilibrium_warns_where_rho_star_passes_the_offer_cap():
    # rho* = (20 + 1)/2 = 10.5 at the band maximum, above gamma + lambda_rt = 2
    p = params(gamma=1.0, lambda_da=20.0, lambda_rt=1.0, sigma=10.0 / dg.SQRT3)
    with pytest.warns(UserWarning, match="exceeds the offer-cap price"):
        rho_star, _ = dg.closed_form_equilibrium(p)
    assert rho_star == pytest.approx(10.5, rel=1e-12)


def test_equilibrium_fig3_values():
    rho_star, curve = dg.closed_form_equilibrium(params())
    assert rho_star == pytest.approx(2.5005, abs=1e-3)
    assert curve(rho_star) == pytest.approx(4.2855, abs=1e-3)
    assert curve.slope == pytest.approx(2.0 * dg.SQRT3 * 3.3 / 4.0, rel=1e-12)
    assert curve(2.5) == pytest.approx(10.0 - dg.SQRT3 * 3.3, rel=1e-12)


def test_equilibrium_price_hits_gamma_at_band_minimum():
    lo, _ = dg.sigma_band(2.5, 10.0, 4.0, 4.0)
    rho_star, _ = dg.closed_form_equilibrium(params(sigma=lo))
    assert rho_star == pytest.approx(2.5, abs=1e-12)


def test_band_maximum_is_included():
    _, hi = dg.sigma_band(2.5, 10.0, 4.0, 4.0)
    rho_star, curve = dg.closed_form_equilibrium(params(sigma=hi))
    assert np.isfinite(rho_star) and np.isfinite(curve(rho_star))


def test_inverse_supply_direct_endpoints():
    p = params()
    lo, hi = p.support
    assert dg.inverse_supply_direct(p, lo) == pytest.approx(2.5, abs=1e-12)
    assert dg.inverse_supply_direct(p, hi) == pytest.approx(2.5 + 4.0, abs=1e-12)


def test_inverse_supply_aggregated_zero_margin_quantity():
    p = params(n=3)
    lo, _ = p.support
    assert dg.inverse_supply_aggregated(p, 3 * lo / 2.0) == pytest.approx(2.5, abs=1e-12)


def test_inverse_supply_round_trips():
    p = params()
    rho_star, curve = dg.closed_form_equilibrium(p)
    for rho in np.linspace(2.5, 6.5, 9):
        assert dg.inverse_supply_direct(p, curve(rho)) == pytest.approx(rho, abs=1e-10)
    # aggregated path: X(p_A) = N/2 * x*(p_A as wholesale price slope)
    for p_a in np.linspace(4.0, 6.5, 7):
        x_total = 0.5 * curve(p_a)
        assert dg.inverse_supply_aggregated(p, x_total) == pytest.approx(p_a, abs=1e-10)


def test_aggregated_price_exceeds_direct_at_same_total_quantity():
    p = params(n=2)
    for x_total in np.linspace(0.5, 2 * (10.0 + dg.SQRT3 * 3.3) / 2.0, 11):
        gap = dg.inverse_supply_aggregated(p, x_total) - dg.inverse_supply_direct(
            p, x_total / 2.0
        )
        expected = p.lambda_rt * x_total / (2.0 * 2 * p.half_width)
        assert gap == pytest.approx(expected, rel=1e-10)
        assert gap > 0.0


def test_extrapolation_warns():
    p = params()
    with pytest.warns(UserWarning, match="extrapolating"):
        dg.inverse_supply_aggregated(p, 100.0)
    with pytest.warns(UserWarning, match="extrapolating"):
        dg.inverse_supply_direct(p, 100.0)


@pytest.mark.parametrize("fn", [dg.inverse_supply_aggregated, dg.inverse_supply_direct])
def test_extrapolation_warning_names_the_caller(fn):
    # each caller's line gets its own warning under the once-per-location filter
    with pytest.warns(UserWarning, match="extrapolating") as record:
        fn(params(), 100.0)
    assert [w.filename for w in record] == [__file__]


def test_procurement_costs_fig5_values():
    c = dg.procurement_costs(params(), kappa=3.25, demand_per_prosumer=10.0)
    assert c.q_star == pytest.approx(6.4276, abs=1e-4)
    assert c.cost_aggregated == pytest.approx(28.886, abs=1e-3)
    assert c.cost_direct == pytest.approx(25.271, abs=2e-3)
    assert c.cost_noder == pytest.approx(32.5, abs=0)
    assert c.poag == pytest.approx(1.143, abs=2e-3)
    assert c.cost_noder > c.cost_aggregated > c.cost_direct


def test_procurement_costs_against_quadratic_minimization_oracle():
    # oracle: minimize kappa*(D - q) + integral of the inverse supply directly
    p = params()
    kappa, dem = 3.25, 10.0
    c = dg.procurement_costs(p, kappa, dem)

    def agg_cost(q):
        return kappa * (dem - q) + (
            dg.inverse_supply_aggregated(p, 0.0) * q
            + 0.5 * (p.lambda_rt / p.half_width) * q * q
        )

    qs = np.linspace(0.0, (10.0 + p.half_width) / 2.0, 20_001)
    vals = [agg_cost(float(q)) for q in qs]
    assert min(vals) == pytest.approx(c.cost_aggregated, abs=1e-6)
    assert qs[int(np.argmin(vals))] == pytest.approx(c.q_star / 2.0, abs=1e-3)


def test_costs_approach_no_der_as_sigma_grows():
    sig_grid = np.linspace(3.3, 5.7735, 12)
    costs = [dg.procurement_costs(params(sigma=float(s)), 3.25, 10.0) for s in sig_grid]
    agg = [c.cost_aggregated for c in costs]
    assert all(b > a for a, b in zip(agg, agg[1:]))
    assert agg[-1] < 32.5


def test_procurement_costs_admissibility():
    with pytest.raises(dg.AdmissibilityError, match="kappa"):
        dg.procurement_costs(params(), kappa=2.0, demand_per_prosumer=10.0)
    with pytest.raises(dg.AdmissibilityError, match="support top"):
        dg.procurement_costs(params(), kappa=7.0, demand_per_prosumer=10.0)


def test_poag_monotone_in_sigma_and_mu():
    poag_sigma = [
        dg.procurement_costs(params(sigma=float(s)), 3.25, 10.0).poag
        for s in np.linspace(3.3, 5.77, 10)
    ]
    assert all(b < a for a, b in zip(poag_sigma, poag_sigma[1:]))
    poag_mu = [
        dg.procurement_costs(params(mu=float(m)), 3.25, 10.0).poag
        for m in np.linspace(6.0, 10.0, 9)
    ]
    assert all(b > a for a, b in zip(poag_mu, poag_mu[1:]))
