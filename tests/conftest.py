from pathlib import Path

import numpy as np
import pytest

import deragg as dg

ROOT = Path(__file__).resolve().parents[1]


def coverage_reference(caps, x):
    """Coverage integrand of each row of a ``(draws, N)`` capacity array, in
    row order, reduced along the rivals of every row (column 0 is the own
    capacity).  ``partial_coverage_samples`` must agree with it up to order.
    """
    own = caps[:, 0]
    rival_diff = x - caps[:, 1:]
    s = rival_diff.sum(axis=1)
    s_plus = np.maximum(rival_diff, 0.0).sum(axis=1)
    event = (s < s_plus) & (own <= x + np.minimum(s, 0.0))
    denom = np.where(event, s_plus + x - own, 1.0)
    weight = 1.0 + s_plus * (s - s_plus) / denom**2
    return np.where(event, weight, 0.0)


def coverage_by_quadrature(scenario, x, m=2001):
    """Brute-force 2-D midpoint quadrature of the coverage integrand (N=2)."""
    lo, hi = scenario.capacity.support
    edges = np.linspace(lo, hi, m + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    c_own, c_rival = np.meshgrid(mids, mids, indexing="ij")
    vals = coverage_reference(np.column_stack([c_own.ravel(), c_rival.ravel()]), x)
    cell = ((hi - lo) / m) ** 2
    return float(np.sum(vals) * cell / (hi - lo) ** 2)


def coverage_n2(scenario, x):
    """Exact coverage term h(x) for two iid uniform prosumers, lo <= x <= hi."""
    lo, hi = scenario.capacity.support
    w = hi - lo
    if x <= scenario.capacity.mu:
        return (x - lo) ** 2 / (2.0 * w * w)
    return (hi - x) * (3.0 * x - 2.0 * lo - hi) / (2.0 * w * w)


def make_scenario(kind="dependent", n=1, mu=10.0, sigma=3.3, gamma=2.5,
                  lambda_da=4.0, lambda_rt=4.0, d0=20.0):
    if kind == "dependent":
        cap = dg.dependent_uniform(mu, sigma)
    elif kind == "iid":
        cap = dg.iid_uniform(mu, sigma)
    elif kind == "deterministic":
        cap = dg.deterministic(mu)
    else:
        raise ValueError(kind)
    return dg.GameScenario(n, max(d0, cap.cbar + 1.0), cap,
                           dg.linear_utility(gamma), lambda_da, lambda_rt)


@pytest.fixture
def fig3_scenario():
    # gamma=2.5, mu=10, sigma=3.3, lambda_da=lambda_rt=4
    return make_scenario()


@pytest.fixture
def iid2_scenario():
    return make_scenario(kind="iid", n=2)
