"""End-to-end acceptance suite.

Every test enforces one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s`` or in the summary of
a failed run).
"""

import filecmp
import time

import numpy as np
import pytest

import deragg as dg
import deragg.cli as cli
from deragg.equilibrium import partial_coverage_samples

from conftest import coverage_by_quadrature, make_scenario


def verdict(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_penalty_axioms():
    failures = []
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    k = 10_000
    n_count = rng.integers(2, 9, size=k)
    cbar = rng.uniform(1.0, 20.0, size=k)
    x = rng.uniform(0.0, 1.0, (k, 8)) * cbar[:, None]
    c = rng.uniform(0.0, 1.0, (k, 8)) * cbar[:, None]
    active = np.arange(8)[None, :] < n_count[:, None]
    x = np.where(active, x, 0.0)
    c = np.where(active, c, 0.0)
    # force an exact shortfall tie between prosumers 0 and 1 in half the pool
    half = k // 2
    tied = x[:half, 1] - (x[:half, 0] - c[:half, 0])
    tie_ok = (tied >= 0.0) & (tied <= cbar[:half])
    c[:half, 1] = np.where(tie_ok, tied, c[:half, 1])
    lam = rng.uniform(0.0, 10.0, size=k)

    shares = dg.penalty_shares(x, c, lam)
    pool = lam * np.maximum(x.sum(1) - c.sum(1), 0.0)
    if not np.all(shares >= 0.0):
        failures.append("nonnegativity violated")
    budget_err = np.abs(shares.sum(1) - pool) / np.maximum(pool, 1e-30)
    if not np.all((pool == 0.0) | (budget_err <= 1e-9)):
        failures.append(f"budget balance relative error up to {budget_err.max():.2e}")
    if not np.all(shares[(x - c) <= 0.0] == 0.0):
        failures.append("no-exploitation violated")
    sym = np.abs(shares[:half, 0] - shares[:half, 1])[tie_ok]
    scale = np.maximum(shares[:half, 0], 1e-30)[tie_ok]
    if not np.all(sym <= 1e-9 * np.maximum(scale, 1.0)):
        failures.append("symmetry violated on tied shortfalls")
    order = np.argsort(x - c, axis=1)
    ranked = np.take_along_axis(shares, order, axis=1)
    if not np.all(np.diff(ranked, axis=1) >= -1e-9):
        failures.append("monotonicity violated")
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    verdict(1, "penalty-axioms", failures)


def test_criterion_2_closed_form_numeric_equivalence():
    failures = []
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst_rho, worst_x = 0.0, 0.0
    for _ in range(50):
        gamma = rng.uniform(0.5, 4.0)
        lambda_rt = rng.uniform(1.0, 6.0)
        lambda_da = gamma + rng.uniform(0.3, 1.0) * lambda_rt
        mu = rng.uniform(5.0, 20.0)
        band_lo, band_hi = dg.sigma_band(gamma, mu, lambda_da, lambda_rt)
        sigma = band_lo + rng.uniform(0.05, 0.95) * (band_hi - band_lo)
        params = dg.UniformLinearParams(gamma, mu, sigma, lambda_da, lambda_rt)
        rho_cf, curve = dg.closed_form_equilibrium(params)
        sc = make_scenario(mu=mu, sigma=sigma, gamma=gamma,
                           lambda_da=lambda_da, lambda_rt=lambda_rt, d0=50.0)
        res = dg.stackelberg_solve(sc)
        worst_rho = max(worst_rho, abs(res.rho_star - rho_cf))
        worst_x = max(worst_x, abs(res.x_star - curve(rho_cf)))
    if worst_rho > 1e-4:
        failures.append(f"|drho*| = {worst_rho:.2e} > 1e-4")
    if worst_x > 1e-4:
        failures.append(f"|dx*| = {worst_x:.2e} > 1e-4")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    verdict(2, "closed-form-vs-numeric", failures)


def test_criterion_3_offer_curve_slope_and_price():
    failures = []
    sc = make_scenario()  # gamma=2.5, mu=10, sigma=3.3, lambda_da=lambda_rt=4
    expected_slope = 2.0 * dg.SQRT3 * 3.3 / 4.0
    rhos = np.linspace(2.75, 6.25, 21)
    xs = np.array([
        dg.symmetric_follower_response(sc, float(r), tol_x=1e-12)
        for r in rhos
    ])
    slope, intercept = np.polyfit(rhos, xs, 1)
    if abs(slope - expected_slope) / expected_slope > 1e-6:
        failures.append(f"slope {slope:.8f} vs {expected_slope:.8f}")
    residual = np.max(np.abs(xs - (slope * rhos + intercept)))
    if residual > 1e-6:
        failures.append(f"offer curve deviates from affine by {residual:.2e}")
    res = dg.stackelberg_solve(sc)
    if abs(res.rho_star - 2.5005) > 1e-3:
        failures.append(f"rho* = {res.rho_star:.6f} not within 1e-3 of 2.5005")
    verdict(3, "offer-curve-reproduction", failures)


def test_criterion_4_cost_sweep_ordering_and_halving():
    failures = []
    t0 = time.monotonic()
    gens = (dg.GeneratorSpec(kappa=3.25),)
    for sigma in np.linspace(3.30, 5.77, 26):
        sc = make_scenario(sigma=float(sigma))
        rep = dg.price_of_aggregation(sc, gens, 10.0)
        if not rep.cost_noder >= rep.cost_aggregated >= rep.cost_direct:
            failures.append(f"cost ordering violated at sigma={sigma:.3f}")
        ratio = rep.outcome_aggregated.cleared_der / rep.outcome_direct.cleared_der
        if abs(ratio - 0.5) > 1e-6 * 0.5:
            failures.append(f"cleared-DER halving violated at sigma={sigma:.3f}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    verdict(4, "cost-sweep", failures)


def test_criterion_5_poag_monotonicity_and_worst_case():
    failures = []
    gens = (dg.GeneratorSpec(kappa=3.25),)
    poag_sigma = [
        dg.price_of_aggregation(make_scenario(sigma=float(s)), gens, 10.0).poag
        for s in np.linspace(3.30, 5.77, 26)
    ]
    if not all(b < a for a, b in zip(poag_sigma, poag_sigma[1:])):
        failures.append("poag not monotone decreasing in sigma")
    poag_mu = [
        dg.price_of_aggregation(make_scenario(mu=float(m)), gens, 10.0).poag
        for m in np.linspace(6.0, 10.0, 21)
    ]
    if not all(b > a for a, b in zip(poag_mu, poag_mu[1:])):
        failures.append("poag not monotone increasing in integration")
    worst = poag_sigma[0]
    if abs(worst - 1.143) > 0.002:
        failures.append(f"worst-case poag {worst:.4f} not within 0.002 of 1.143")
    if abs(worst - 1.15) > 0.02:
        failures.append(f"worst-case poag {worst:.4f} not within 0.02 of 1.15")
    verdict(5, "poag-monotonicity", failures)


def test_criterion_6_mean_field():
    failures = []
    sc = make_scenario(kind="iid", n=4)
    sol = dg.meanfield_solve(sc, rho=2.5)
    if abs(sol.beta) > 1e-6:
        failures.append(f"beta at rho=gamma is {sol.beta:.2e}")
    if abs(sol.x_star - 10.0) > 1e-6:
        failures.append(f"x* at rho=gamma is {sol.x_star:.8f}")
    rng = np.random.default_rng(7)
    for _ in range(100):
        gamma = rng.uniform(0.5, 4.0)
        lam = rng.uniform(1.0, 6.0)
        mu = rng.uniform(5.0, 20.0)
        sigma = rng.uniform(0.05, 0.99) * mu / dg.SQRT3
        rho = gamma + rng.uniform(0.01, 0.99) * lam
        inst = make_scenario(kind="iid", n=2, mu=mu, sigma=sigma, gamma=gamma,
                             lambda_rt=lam, d0=50.0)
        try:
            s = dg.meanfield_solve(inst, rho)
        except dg.SolverError as exc:
            failures.append(f"solver failed at rho={rho:.4f}: {exc}")
            continue
        if not 0.0 <= s.beta <= 1.0:
            failures.append(f"beta {s.beta} outside [0,1]")
        if s.x_star < mu - 1e-9:
            failures.append(f"x* {s.x_star:.6f} below mean {mu:.6f}")
    verdict(6, "mean-field", failures)


def test_criterion_7_solver_structure():
    failures = []
    rng = np.random.default_rng(13)
    # first-order-condition gap strictly decreasing across the support
    for _ in range(20):
        mu = rng.uniform(4.0, 18.0)
        sigma = rng.uniform(0.1, 0.95) * mu / dg.SQRT3
        gamma = rng.uniform(0.5, 4.0)
        lam = rng.uniform(1.0, 6.0)
        sc = make_scenario(mu=mu, sigma=sigma, gamma=gamma, lambda_rt=lam, d0=60.0)
        rho = gamma + rng.uniform(0.05, 0.95) * lam
        lo, hi = sc.capacity.support
        grid = np.linspace(lo, hi, 1000)
        gaps = np.array([dg.follower_foc_gap(sc, rho, float(v)) for v in grid])
        if not np.all(np.diff(gaps) < 0.0):
            failures.append(f"gap not strictly decreasing (mu={mu:.2f}, sigma={sigma:.2f})")

    # finite-N coverage correction vs brute-force quadrature, in [0,1], nondecreasing
    sc2 = make_scenario(kind="iid", n=2)
    draws = 100_000
    estimates = []
    for x in (7.0, 8.0, 9.0, 10.0):
        vals = partial_coverage_samples(sc2, x, draws=draws, seed=17)
        est = float(vals.mean())
        se = float(vals.std() / np.sqrt(draws))
        oracle = coverage_by_quadrature(sc2, x, m=2001)
        if abs(est - oracle) > 3.0 * se:
            failures.append(f"coverage at x={x}: |{est:.5f}-{oracle:.5f}| > 3se={3*se:.5f}")
        if not 0.0 <= est <= 1.0:
            failures.append(f"coverage at x={x} outside [0,1]")
        diag = dg.cdf_marginal(sc2.capacity, x) ** 2
        if diag + est > 1.0 + 1e-9:
            failures.append(f"F+h exceeds 1 at x={x}")
        estimates.append(est)
    if not all(b >= a for a, b in zip(estimates, estimates[1:])):
        failures.append("coverage not nondecreasing on the probe set")

    # exact boundary behavior of the follower response
    for kind in ("dependent", "iid"):
        for _ in range(5):
            mu = rng.uniform(5.0, 15.0)
            sigma = rng.uniform(0.1, 0.9) * mu / dg.SQRT3
            sc3 = make_scenario(kind=kind, n=2, mu=mu, sigma=sigma, d0=40.0)
            rho_min, rho_max = dg.offer_price_bounds(sc3)
            cbar = sc3.capacity.cbar
            for rho, want in ((rho_min, 0.0), (rho_min - 1.0, 0.0),
                              (rho_max, cbar), (rho_max + 1.0, cbar)):
                got = dg.symmetric_follower_response(sc3, rho, draws=10_000)
                if got != want:
                    failures.append(f"boundary {kind} rho={rho:.3f}: {got} != {want}")
    verdict(7, "solver-structure", failures)


def test_criterion_8_deterministic_figures(tmp_path):
    failures = []
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["figures", "fig6-left", "--out", str(out1), "--seed", "11"]) == 0
    assert cli.main(["figures", "fig6-left", "--out", str(out2), "--seed", "11"]) == 0
    name = "fig6_left_poag_vs_sigma.csv"
    if not filecmp.cmp(out1 / name, out2 / name, shallow=False):
        failures.append("fig6-left CSVs differ between identical runs")
    verdict(8, "deterministic-output", failures)
