"""The game's two exact symmetries, checked on the shipped scenarios.

Prices: scaling gamma, lambda_da, lambda_rt and the generator price kappa
by k scales rho* by k and leaves x* and PoAg unchanged.  Capacity: scaling
mu, sigma, cbar, d0 and the demand by s scales x* by s and leaves rho* and
PoAg unchanged.  Under one seed the capacity draws lo + W * U scale too,
so the relations hold far below the Monte-Carlo error of the iid solve,
the one finite-N iid check at N >= 3 that needs no exact h.  A constant
hidden in a solver, such as an absolute tolerance or margin, breaks them.
"""

import json
from pathlib import Path

import pytest

from deragg.equilibrium import DEFAULT_TOL_X, stackelberg_solve
from deragg.market import price_of_aggregation
from deragg.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GRID, DRAWS, SEED = 96, 20_000, 7

# (k, s): prices alone, capacity alone, both, and both far from 1
SCALES = [(3.0, 1.0), (1.0, 0.37), (1.7, 2.5), (1e-3, 1e3)]


def scaled(name, k=1.0, s=1.0, n=None):
    """The shipped scenario file ``name``, prices scaled by k and capacity by s."""
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    sc, cap = data["scenario"], data["scenario"]["capacity"]
    sc["lambda_da"] *= k
    sc["lambda_rt"] *= k
    sc["utility"]["gamma"] *= k
    data["generators"][0]["kappa"] *= k
    sc["d0"] *= s
    data["demand_per_prosumer"] *= s
    for key in ("mu", "sigma", "cbar"):
        if key in cap:
            cap[key] *= s
    if n is not None:
        sc["n_prosumers"] = n
    return parse_scenario(data)


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("name,n", [
    ("base.json", None), ("deterministic.json", None), ("iid.json", 3), ("iid.json", 5),
], ids=["dependent", "deterministic", "iid-n3", "iid-n5"])
def test_stackelberg_solve_scales_with_prices_and_capacity(name, n, k, s):
    def solve(sf, scale):
        # tol_x is in capacity units, so it scales with the capacity
        return stackelberg_solve(sf.scenario, tol_x=DEFAULT_TOL_X * scale, grid_points=GRID,
                                 draws=DRAWS, seed=SEED)

    ref = solve(scaled(name, n=n), 1.0)
    res = solve(scaled(name, k, s, n), s)
    assert res.rho_star == pytest.approx(k * ref.rho_star, rel=1e-7)
    assert res.x_star == pytest.approx(s * ref.x_star, rel=1e-7)


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("name,n", [("base.json", None), ("iid.json", 3)],
                         ids=["dependent", "iid-n3"])
def test_numeric_price_of_aggregation_is_scale_free(name, n, k, s):
    def poag(sf):
        return price_of_aggregation(sf.scenario, sf.generators, sf.demand_per_prosumer,
                                    curve_source="numeric", draws=DRAWS, seed=SEED).poag

    assert poag(scaled(name, k, s, n)) == pytest.approx(poag(scaled(name, n=n)), rel=1e-12)
