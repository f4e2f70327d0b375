"""Accuracy oracles the benchmark checks the CLI's outputs against.

* ``tabulated_rho_star``: exact equilibrium price for dependent uniform
  capacity with a tabulated (piecewise-linear, nonincreasing) marginal
  utility, N=1.  For C ~ U[lo, hi],
  E[u'(d0 + C - x)] = (u(d0 + hi - x) - u(d0 + lo - x)) / (hi - lo),
  and u is integrated exactly by the trapezoid rule on the table knots
  (u' is linear between knots).  The leader then maximises
  (lambda_da - rho(x)) * x with rho(x) = E[u'] + lambda_rt * F(x).
* ``closed_form_rho`` / ``closed_form_poag``: the package's closed forms
  for dependent uniform capacity with linear utility.
* ``coverage_x_se``: delta-method error bar on x* from the Monte-Carlo
  standard error of the finite-N coverage term h(x*).
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _utility(points):
    """Exact u(z) = integral_0^z u'(t) dt for a piecewise-linear u' table."""
    zs = np.array([p[0] for p in points], dtype=float)
    ms = np.array([p[1] for p in points], dtype=float)
    if zs[0] > 0.0:  # u' is constant below the first knot
        zs, ms = np.concatenate([[0.0], zs]), np.concatenate([[ms[0]], ms])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ms[1:] + ms[:-1]) * np.diff(zs))])

    def u(z):
        z = np.asarray(z, dtype=float)
        k = np.clip(np.searchsorted(zs, z, side="right") - 1, 0, len(zs) - 1)
        return cum[k] + 0.5 * (z - zs[k]) * (ms[k] + np.interp(z, zs, ms))

    return u


def tabulated_inverse_response(scenario: dict):
    """rho(x) = E[u'(d0 + C - x)] + lambda_rt * F(x) for a scenario-file dict."""
    sc = scenario["scenario"]
    cap = sc["capacity"]
    if cap["kind"] != "dependent_uniform" or sc["n_prosumers"] != 1:
        raise ValueError("the tabulated oracle covers dependent uniform capacity, N=1")
    lo = cap["mu"] - SQRT3 * cap["sigma"]
    hi = cap["mu"] + SQRT3 * cap["sigma"]
    u = _utility(sc["utility"]["marginal_points"])
    d0, lam_rt = sc["d0"], sc["lambda_rt"]

    def emu(x):
        return (u(d0 + hi - x) - u(d0 + lo - x)) / (hi - lo)

    def rho(x):
        return emu(x) + lam_rt * np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    return emu, rho, hi


def tabulated_rho_star(scenario: dict) -> tuple[float, float]:
    """Exact (rho*, x*): dense grid over offers, then golden-section refinement."""
    _, rho, cbar = tabulated_inverse_response(scenario)
    lam_da = scenario["scenario"]["lambda_da"]

    def profit(x):
        return (lam_da - rho(x)) * x

    xs = np.linspace(0.0, cbar, 200_001)
    best = int(np.argmax(profit(xs)))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    while b - a > 1e-13 * cbar:
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        if profit(c) >= profit(d):
            b = d
        else:
            a = c
    x = 0.5 * (a + b)
    return float(rho(x)), x


# deragg is imported inside the functions: it becomes importable only once
# run.py has put the checkout's src/ on the path
def closed_form_rho(gamma, mu, sigma, lambda_da, lambda_rt):
    from deragg.closedform import UniformLinearParams, closed_form_equilibrium

    rho, _ = closed_form_equilibrium(UniformLinearParams(gamma, mu, sigma, lambda_da, lambda_rt))
    return rho


def closed_form_poag(gamma, mu, sigma, lambda_da, lambda_rt, kappa, demand):
    from deragg.closedform import UniformLinearParams, procurement_costs

    p = UniformLinearParams(gamma, mu, sigma, lambda_da, lambda_rt)
    return procurement_costs(p, kappa, demand).poag


def coverage_x_se(scenario, rho: float, x: float, draws: int, seed: int, delta: float = 0.05):
    """(x_se, se_h): SE of h at x* divided by G'(x*), G = F(x,...,x) + h.

    G' comes from a common-random-number central difference of the FOC gap
    (gap = (rho - E[u'])/lambda_rt - G; the seed fixes the draws, and with
    linear utility the first term does not depend on x).
    """
    from deragg.equilibrium import follower_foc_gap, partial_coverage_samples

    h = partial_coverage_samples(scenario, x, draws, seed)
    se_h = float(h.std(ddof=1) / math.sqrt(draws))
    g_plus = follower_foc_gap(scenario, rho, x + delta, draws=draws, seed=seed)
    g_minus = follower_foc_gap(scenario, rho, x - delta, draws=draws, seed=seed)
    g_prime = -(g_plus - g_minus) / (2.0 * delta)
    return se_h / g_prime, se_h
