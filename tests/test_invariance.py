"""The game's two exact symmetries, checked on the shipped scenarios.

Prices: scaling gamma (or a tabulated utility's marginal values),
lambda_da, lambda_rt and the generator price kappa by k scales rho* by k
and leaves x* and PoAg unchanged.  Capacity: scaling mu, sigma, cbar, d0,
a tabulated utility's knot positions and the demand by s scales x* by s
and leaves rho* and PoAg unchanged.  Under one seed the capacity draws
lo + W * U scale too, so the relations hold far below the Monte-Carlo
error of the iid solve, the one finite-N iid check at N >= 3 that needs
no exact h.  A constant hidden in a solver, such as an absolute tolerance
or margin, breaks them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from deragg.equilibrium import (
    _InverseResponse,
    meanfield_stackelberg,
    offer_price_bounds,
    stackelberg_solve,
    symmetric_follower_response,
)
from deragg.market import (
    build_supply_curve_aggregated,
    build_supply_curve_direct,
    price_of_aggregation,
)
from deragg.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GRID, DRAWS, SEED = 96, 20_000, 7

# (k, s): prices alone, capacity alone, both, and far from 1
SCALES = [(3.0, 1.0), (1.0, 0.37), (1.7, 2.5), (1e-3, 1e3), (1.0, 1e-3), (1.0, 1e3), (1.0, 1e-10)]

# where a relation holds up to rounding, and where a leader's argmax moves:
# near x* the profit is flat to rounding over about sqrt(eps) of the offer,
# where the golden section stops, so a rounding change can move its best
# point that far
EXACT, ARGMAX = 1e-12, 1e-7

TABLE = [[0.0, 3.4], [12.0, 2.8], [22.0, 2.2], [34.0, 1.9]]

# case id -> (shipped file, N or None for the file's own, marginal-utility table or None)
CASES = {
    "dependent": ("base.json", None, None),
    "deterministic": ("deterministic.json", None, None),
    "tabulated": ("base.json", None, TABLE),
    "iid-n1": ("iid.json", 1, None),
    "iid-n3": ("iid.json", 3, None),
    "iid-n5": ("iid.json", 5, None),
    "iid-n8": ("iid.json", 8, None),
}


def scaled(case, k=1.0, s=1.0):
    """Case ``case``'s scenario file, prices scaled by k and capacity by s."""
    name, n, table = CASES[case]
    data = json.loads((SCENARIOS / name).read_text(encoding="utf-8"))
    sc, cap = data["scenario"], data["scenario"]["capacity"]
    sc["lambda_da"] *= k
    sc["lambda_rt"] *= k
    if table is None:
        sc["utility"]["gamma"] *= k
    else:
        sc["utility"] = {"kind": "tabulated", "marginal_points": [[s * y, k * v] for y, v in table]}
    data["generators"][0]["kappa"] *= k
    sc["d0"] *= s
    data["demand_per_prosumer"] *= s
    for key in ("mu", "sigma", "cbar"):
        if key in cap:
            cap[key] *= s
    if n is not None:
        sc["n_prosumers"] = n
    return parse_scenario(data)


def flat(curve):
    return [v for point in curve.breakpoints for v in point]


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("case", CASES)
def test_stackelberg_solve_scales_with_prices_and_capacity(case, k, s):
    def solve(sf):
        return stackelberg_solve(sf.scenario, grid_points=GRID, draws=DRAWS, seed=SEED)

    ref, res = solve(scaled(case)), solve(scaled(case, k, s))
    # the search stops at a fixed fraction of cbar: the same steps at every scale
    assert res.diagnostics == ref.diagnostics
    # a tabulated E[u'] interpolates knots that round differently once scaled
    rel = EXACT if k == 1.0 and CASES[case][2] is None else ARGMAX
    assert res.rho_star == pytest.approx(k * ref.rho_star, rel=rel)
    assert res.x_star == pytest.approx(s * ref.x_star, rel=rel)


@pytest.mark.parametrize("k,s", SCALES)
def test_meanfield_stackelberg_scales_with_prices_and_capacity(k, s):
    def solve(sf):
        return meanfield_stackelberg(sf.scenario, grid_points=GRID, draws=DRAWS, seed=SEED)

    (ref, ref_sol), (res, sol) = solve(scaled("iid-n3")), solve(scaled("iid-n3", k, s))
    assert res.diagnostics == ref.diagnostics
    rel = EXACT if k == 1.0 else ARGMAX
    assert res.rho_star == pytest.approx(k * ref.rho_star, rel=rel)
    assert sol.x_star == pytest.approx(s * ref_sol.x_star, rel=rel)
    assert sol.beta == pytest.approx(ref_sol.beta, rel=rel)


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("case", CASES)
def test_follower_response_scales_with_prices_and_capacity(case, k, s):
    ref_sc, sc = scaled(case).scenario, scaled(case, k, s).scenario
    rho_min, rho_max = offer_price_bounds(ref_sc, draws=DRAWS, seed=SEED)
    for rho in np.linspace(rho_min, rho_max, 9)[1:-1].tolist():
        ref = symmetric_follower_response(ref_sc, rho, draws=DRAWS, seed=SEED)
        got = symmetric_follower_response(sc, k * rho, draws=DRAWS, seed=SEED)
        assert got == pytest.approx(s * ref, rel=EXACT)


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("case", ["dependent", "deterministic", "tabulated", "iid-n3", "iid-n8"])
@pytest.mark.parametrize("build", [build_supply_curve_aggregated, build_supply_curve_direct],
                         ids=["aggregated", "direct"])
def test_supply_curves_map_each_breakpoint_to_scaled_quantity_and_price(build, case, k, s):
    ref = build(_InverseResponse(scaled(case).scenario, DRAWS, SEED))
    got = build(_InverseResponse(scaled(case, k, s).scenario, DRAWS, SEED))
    assert flat(got) == pytest.approx(flat(ref) * np.tile([s, k], len(ref.breakpoints)),
                                      rel=EXACT)


@pytest.mark.parametrize("k,s", SCALES)
@pytest.mark.parametrize("case", ["dependent", "iid-n3"])
def test_numeric_price_of_aggregation_is_scale_free(case, k, s):
    def poag(sf):
        return price_of_aggregation(sf.scenario, sf.generators, sf.demand_per_prosumer,
                                    curve_source="numeric", draws=DRAWS, seed=SEED).poag

    assert poag(scaled(case, k, s)) == pytest.approx(poag(scaled(case)), rel=EXACT)
