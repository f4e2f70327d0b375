"""Solvers for the procurement game.

For a fixed aggregator price the prosumers play a symmetric game whose
unique symmetric best response solves a scalar first-order condition

    (rho - E[u'(d0 + C - x)]) / lambda_rt  =  F(x, ..., x) + h(x),

where ``F`` is the joint capacity cdf on the diagonal and ``h`` is a
correction active only for independent capacities at finite N: it accounts
for outcomes in which rivals' surplus partially covers the pool shortfall.
Solved for rho instead of x, the same condition gives the inverse
response explicitly,

    rho(x) = E[u'(d0 + C - x)] + lambda_rt * (F(x, ..., x) + h(x)),

which is nondecreasing in x.  The aggregator therefore searches over the
pooled offer instead of the price: it maximizes (lambda_da - rho(x)) * N * x
on a grid over [0, cbar] refined by golden section, one FOC evaluation per
candidate, and posts rho* = rho(x*).  The large-N independent limit has the
explicit inverse rho(x) = E[u'] + lambda_rt * beta(x) * F(x) with
beta(x) = (x - E[C])+ / E[(x - C)+], and goes through the same search.
The forward responses x*(rho) (:func:`symmetric_follower_response`,
:func:`meanfield_solve`) are bisections on these monotone conditions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .agents import (
    EquilibriumResult,
    GameScenario,
    SolverDiagnostics,
    expected_marginal_utility,
)
from .capacity import (
    DETERMINISTIC,
    IID_UNIFORM,
    cdf_marginal,
    expected_shortfall,
    sample,
)
from .errors import SolverError, UnsupportedOperationError, ValidationError
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

DEFAULT_TOL_X = 1e-8
DEFAULT_TOL_RHO = 1e-6
DEFAULT_GRID_POINTS = 512
MAX_BISECT_ITER = 200

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class FollowerFixedPointSpec:
    """Inputs for one symmetric best-response solve at a fixed price."""

    scenario: GameScenario
    rho: float
    tol_x: float = DEFAULT_TOL_X
    draws: int = DEFAULT_DRAWS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.tol_x > 0.0:
            raise ValidationError("tol_x must be positive")


@dataclass(frozen=True)
class ShortfallAggregates:
    """Rival shortfall sums seen by one prosumer: signed and positive-part."""

    s_minus_i: float
    s_plus_minus_i: float

    def __post_init__(self):
        if self.s_plus_minus_i < max(self.s_minus_i, 0.0) - 1e-12:
            raise ValidationError("positive-part sum cannot fall below the signed sum or zero")


def shortfall_aggregates(offers, capacities, i: int) -> ShortfallAggregates:
    """Aggregate rival shortfalls for prosumer ``i`` in one realized outcome."""
    x = np.asarray(offers, dtype=float)
    c = np.asarray(capacities, dtype=float)
    diff = np.delete(x - c, i)
    return ShortfallAggregates(float(diff.sum()), float(np.maximum(diff, 0.0).sum()))


def offer_price_bounds(
    scenario: GameScenario, draws: int = DEFAULT_DRAWS, seed: int = DEFAULT_SEED
) -> tuple[float, float]:
    """Prices below/above which the symmetric response pins to 0 / cbar.

    For linear utility this is (gamma, lambda_rt + gamma).
    """
    rho_min = expected_marginal_utility(scenario, 0.0, draws=draws, seed=seed)
    rho_max = scenario.lambda_rt + expected_marginal_utility(
        scenario, scenario.capacity.cbar, draws=draws, seed=seed
    )
    return rho_min, rho_max


def partial_coverage_samples(
    scenario: GameScenario, x: float, draws: int, seed: int, caps: np.ndarray | None = None
) -> np.ndarray:
    """Per-draw integrand of the finite-N coverage correction at symmetric offers.

    Each draw contributes
    ``(1 + S*(s - S)/(S + x - C_i)^2) * 1{some rival has surplus and C_i is
    small enough that the pool is still short}`` where ``s``/``S`` are the
    signed and positive-part rival shortfall sums.  The weight lies in
    [0, 1]; the mean over draws estimates the correction.
    """
    if caps is None:
        caps = sample(scenario.capacity, scenario.n_prosumers, seed, draws)
    own = caps[:, 0]
    rival_diff = x - caps[:, 1:]
    s = rival_diff.sum(axis=1)
    s_plus = np.maximum(rival_diff, 0.0).sum(axis=1)
    event = (s < s_plus) & (own <= x + np.minimum(s, 0.0))
    denom = np.where(event, s_plus + x - own, 1.0)
    weight = 1.0 + s_plus * (s - s_plus) / denom**2
    return np.where(event, weight, 0.0)


def partial_coverage_term(
    scenario: GameScenario,
    x: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> float:
    """Monte-Carlo coverage correction; zero under full dependence.

    With identical capacities a rival with surplus implies every prosumer
    has surplus, so the event never fires and the term vanishes exactly.
    """
    model = scenario.capacity
    if not 0.0 <= x <= model.cbar + 1e-12:
        raise ValidationError(f"offer {x} outside [0, cbar={model.cbar}]")
    if model.kind != IID_UNIFORM:
        return 0.0
    if scenario.n_prosumers < 2:
        raise ValidationError("coverage correction needs at least two prosumers")
    return float(partial_coverage_samples(scenario, x, draws, seed).mean())


def follower_foc_gap(
    scenario: GameScenario,
    rho: float,
    x: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
    _caps: np.ndarray | None = None,
) -> float:
    """Signed gap of the symmetric first-order condition at offer ``x``.

    Positive means the prosumer wants to offer more; strictly decreasing in
    ``x`` on the capacity support for prices strictly inside the bounds.
    """
    model = scenario.capacity
    if model.kind == DETERMINISTIC:
        raise UnsupportedOperationError("first-order gap is undefined for deterministic capacity")
    lhs = (rho - expected_marginal_utility(scenario, x, draws=draws, seed=seed)) / scenario.lambda_rt
    diag_cdf = cdf_marginal(model, x)
    h = 0.0
    if model.kind == IID_UNIFORM:
        diag_cdf = diag_cdf**scenario.n_prosumers
        if scenario.n_prosumers >= 2:
            h = float(partial_coverage_samples(scenario, x, draws, seed, caps=_caps).mean())
    return lhs - diag_cdf - h


def _coverage_caps(scenario, draws, seed):
    """Capacity draws behind the coverage term, sampled once per solve (or None)."""
    if scenario.capacity.kind == IID_UNIFORM and scenario.n_prosumers >= 2:
        return sample(scenario.capacity, scenario.n_prosumers, seed, draws)
    return None


def _response(scenario, rho, tol_x, draws, seed, caps=None):
    """Symmetric best response at one price; bisection on the FOC gap."""
    rho_min, rho_max = offer_price_bounds(scenario, draws=draws, seed=seed)
    cbar = scenario.capacity.cbar
    if rho <= rho_min:
        return 0.0, 0.0, 0
    if rho >= rho_max:
        return cbar, 0.0, 0
    if scenario.capacity.kind == DETERMINISTIC:
        # interior price and certain supply: selling dominates consuming
        return cbar, 0.0, 0

    def gap(x):
        return follower_foc_gap(scenario, rho, x, draws=draws, seed=seed, _caps=caps)

    return _bisect_decreasing(gap, 0.0, cbar, tol_x, MAX_BISECT_ITER)


def symmetric_follower_response(spec: FollowerFixedPointSpec) -> float:
    """Unique symmetric Nash offer x*(rho), with exact boundary handling."""
    caps = _coverage_caps(spec.scenario, spec.draws, spec.seed)
    x, _, _ = _response(spec.scenario, spec.rho, spec.tol_x, spec.draws, spec.seed, caps=caps)
    return x


class _InverseResponse:
    """Memoised finite-N inverse response rho(x).

    The FOC gap is affine in rho with slope 1/lambda_rt, so one gap
    evaluation at the reference price ``rho_ref`` gives the price at which
    ``x`` is the symmetric best response.  rho(x) does not depend on
    lambda_da, so one instance serves the leader searches at every
    wholesale price of a supply curve.
    """

    def __init__(self, scenario: GameScenario, rho_ref: float, draws: int, seed: int):
        self.scenario, self.rho_ref, self.draws, self.seed = scenario, rho_ref, draws, seed
        self.caps = _coverage_caps(scenario, draws, seed)
        self._memo: dict[float, float] = {}

    def gap(self, rho: float, x: float) -> float:
        return follower_foc_gap(
            self.scenario, rho, x, draws=self.draws, seed=self.seed, _caps=self.caps
        )

    def __call__(self, x: float) -> float:
        if x not in self._memo:
            self._memo[x] = self.rho_ref - self.scenario.lambda_rt * self.gap(self.rho_ref, x)
        return self._memo[x]


def stackelberg_solve(
    scenario: GameScenario,
    tol_rho: float = DEFAULT_TOL_RHO,
    tol_x: float = DEFAULT_TOL_X,
    grid_points: int = DEFAULT_GRID_POINTS,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> EquilibriumResult:
    """Leader's optimal price against the symmetric response curve.

    The leader picks the pooled offer: ``grid_points`` offers on [0, cbar]
    and a golden-section refinement to ``tol_x`` each cost one FOC
    evaluation, and the posted price is rho* = rho(x*).  With deterministic
    capacity the optimum is explicit: the full capacity at ``tol_rho``
    above the indifference price.
    """
    bounds = offer_price_bounds(scenario, draws=draws, seed=seed)
    inverse = _InverseResponse(scenario, bounds[0], draws, seed)
    return _leader_solve(scenario, inverse, bounds, tol_rho, tol_x, grid_points)


def _leader_solve(scenario, inverse, bounds, tol_rho, tol_x, grid_points) -> EquilibriumResult:
    """Finite-N leader optimum at the scenario's lambda_da against ``inverse``."""
    if grid_points < 4:
        raise ValidationError("grid_points must be at least 4")
    _warn_if_off_band(scenario)
    lo = max(0.0, bounds[0])
    hi = min(scenario.lambda_da, bounds[1])
    n = scenario.n_prosumers
    cbar = scenario.capacity.cbar
    diag = SolverDiagnostics(0, 0, 0.0, True, False, inverse.seed, inverse.draws)
    if hi <= lo:
        # nothing to trade: every admissible price draws a zero offer
        rho_star, x_star = min(scenario.lambda_da, lo), 0.0
        diag = replace(diag, notes=("degenerate price interval; followers never offer",))
    elif scenario.capacity.kind == DETERMINISTIC:
        # certain supply: any price above indifference buys all of it
        rho_star, x_star = min(lo + tol_rho, 0.5 * (lo + hi)), cbar
        diag = replace(diag, notes=("deterministic capacity; full offer just above indifference",))
    else:
        x_star, rho_star, diag = _offer_search(
            inverse, scenario.lambda_da, n, cbar, grid_points, tol_x, inverse.seed, inverse.draws
        )
        if 0.0 < x_star < cbar:
            diag = replace(diag, follower_residual=abs(inverse.gap(rho_star, x_star)))
    profit = (scenario.lambda_da - rho_star) * n * x_star
    return EquilibriumResult(
        rho_star, x_star, n * x_star, profit, n, cbar, scenario.lambda_da, diag
    )


def _offer_search(rho_of, lambda_da, n, cbar, grid_points, tol, seed, draws, extra=()):
    """Maximise the leader profit (lambda_da - rho(x)) * n * x over x in [0, cbar].

    A uniform offer grid locates the best offer and doubles as a concavity
    diagnostic: nonpositive second differences of profit certify the
    sufficient condition under which the maximiser is unique.  Golden
    section refines around the best grid point; the ``extra`` offers (kinks
    of rho that the grid would miss) compete with the refined one.
    Returns (x*, rho(x*), diagnostics).
    """

    def profit(x):
        return (lambda_da - rho_of(x)) * n * x

    grid = np.linspace(0.0, cbar, grid_points)
    profits = np.array([profit(x) for x in grid])
    best = int(np.argmax(profits))
    scale = max(1.0, float(np.max(np.abs(profits))))

    d2 = profits[2:] - 2.0 * profits[1:-1] + profits[:-2]
    concavity_ok = bool(np.all(d2 <= 1e-7 * scale))
    near_best = profits >= profits[best] - 1e-9 * scale
    components = int(np.sum(np.diff(near_best.astype(int)) == 1) + near_best[0])
    multiple_maxima = components > 1
    notes = []
    if multiple_maxima:
        notes.append("multiple grid maxima within tolerance; uniqueness condition may fail")
    if not concavity_ok:
        notes.append("profit not concave along the offer grid")

    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, grid_points - 1)])
    x_ref, prof_ref, iters = _golden_max(profit, a, b, tol)
    candidates = [(x_ref, prof_ref), (float(grid[best]), profits[best])]
    candidates += [(float(x), profit(x)) for x in extra]
    x_star = max(candidates, key=lambda c: c[1])[0]
    diag = SolverDiagnostics(
        grid_points, iters, 0.0, concavity_ok, multiple_maxima, seed, draws, tuple(notes)
    )
    return x_star, rho_of(x_star), diag


@dataclass(frozen=True)
class MeanFieldSolution:
    """Large-N equilibrium: shortfall-pass-through ratio and symmetric offer."""

    beta: float
    x_star: float
    residuals: tuple[float, float]
    iterations: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta={self.beta} outside [0, 1]")


def _meanfield_beta(model, x: float) -> float:
    """Pass-through ratio beta(x) = (x - E[C])+ / E[(x - C)+], clipped to [0, 1]."""
    den = expected_shortfall(model, x)
    if den <= 0.0:
        return 0.0
    return min(max((x - model.mean) / den, 0.0), 1.0)


def _meanfield_inverse(scenario: GameScenario):
    """Mean-field inverse response rho(x) = E[u'] + lambda_rt * beta(x) * F(x).

    Nondecreasing in x, and flat at E[u'] up to x = E[C] where beta = 0.
    """
    model = scenario.capacity
    if model.kind != IID_UNIFORM:
        raise ValidationError("mean-field solve requires iid capacities")

    def rho_of(x):
        return expected_marginal_utility(scenario, x) + (
            scenario.lambda_rt * _meanfield_beta(model, x) * cdf_marginal(model, x)
        )

    return rho_of


def meanfield_solve(scenario: GameScenario, rho: float, tol: float = 1e-12) -> MeanFieldSolution:
    """Solve the large-N system  beta*F(x) = (rho - E[u'])/lambda_rt  with
    beta = (x - E[C])+ / E[(x - C)+].

    Bisects the monotone inverse response rho(x) = rho to an offer bracket
    of width ``tol``; beta follows from x.  At indifference (zero net
    margin) the maximal offer x* = E[C] is returned, matching the large-N
    equilibrium path.
    """
    inverse = _meanfield_inverse(scenario)
    model = scenario.capacity
    cbar = model.cbar

    def margin(x):
        return (rho - expected_marginal_utility(scenario, x)) / scenario.lambda_rt

    r0 = margin(0.0)
    if r0 < 0.0:
        return MeanFieldSolution(0.0, 0.0, (0.0, 0.0), 0)
    if r0 == 0.0:
        return MeanFieldSolution(0.0, min(model.mean, cbar), (0.0, 0.0), 0)
    if margin(cbar) >= 1.0:
        # offer cap binds; the gap is carried by the cap multiplier
        return MeanFieldSolution(1.0, cbar, (0.0, 0.0), 0)
    x, _, iters = _bisect_decreasing(lambda v: rho - inverse(v), 0.0, cbar, tol, MAX_BISECT_ITER)
    residual = abs(rho - inverse(x)) / scenario.lambda_rt
    return MeanFieldSolution(_meanfield_beta(model, x), x, (residual, 0.0), iters)


def meanfield_stackelberg(
    scenario: GameScenario,
    tol_x: float = DEFAULT_TOL_X,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[EquilibriumResult, MeanFieldSolution]:
    """Leader's price against the mean-field response curve.

    Same offer-space search as :func:`stackelberg_solve`, with the offer
    x = E[C] (the end of the flat piece of rho) always a candidate, so
    the indifference optimum is found exactly.
    """
    inverse = _meanfield_inverse(scenario)
    lo = max(0.0, offer_price_bounds(scenario)[0])
    n = scenario.n_prosumers
    model = scenario.capacity
    if scenario.lambda_da <= lo:
        rho_star = scenario.lambda_da
        diag = SolverDiagnostics(0, 0, 0.0, True, False, 0, 0, ("degenerate price interval",))
    else:
        _, rho_star, diag = _offer_search(
            inverse, scenario.lambda_da, n, model.cbar, grid_points, tol_x, 0, 0,
            extra=(min(model.mean, model.cbar),),
        )
    sol = meanfield_solve(scenario, rho_star)
    result = EquilibriumResult(
        rho_star, sol.x_star, n * sol.x_star, (scenario.lambda_da - rho_star) * n * sol.x_star,
        n, model.cbar, scenario.lambda_da, replace(diag, follower_residual=max(sol.residuals)),
    )
    return result, sol


def shortfall_ratio_convergence(
    scenario: GameScenario,
    x: float,
    n_values,
    draws: int = 2000,
    seed: int = DEFAULT_SEED,
) -> list[float]:
    """Empirical pooled-to-individual shortfall ratio for growing N.

    Diagnostic for the law-of-large-numbers limit behind the mean-field
    ratio: each entry averages ``(sum_j (x - C_j))+ / sum_j (x - C_j)+``
    over draws, with 0/0 read as 0.
    """
    model = scenario.capacity
    if model.kind != IID_UNIFORM:
        raise ValidationError("ratio diagnostic requires iid capacities")
    out = []
    for idx, n in enumerate(n_values):
        caps = sample(model, int(n), seed + idx, draws)
        diff = x - caps
        num = np.maximum(diff.sum(axis=1), 0.0)
        den = np.maximum(diff, 0.0).sum(axis=1)
        ratios = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        out.append(float(ratios.mean()))
    return out


def scenario_at_price(scenario: GameScenario, wholesale_price: float) -> GameScenario:
    """Copy of the scenario with the day-ahead price replaced."""
    return replace(scenario, lambda_da=float(wholesale_price))


def _warn_if_off_band(scenario: GameScenario) -> None:
    # the numeric search stays defined off the closed-form band, but the
    # equilibrium price path pins to its boundary there; flag it
    from .closedform import sigma_band

    cap = scenario.capacity
    if cap.kind != "dependent_uniform" or scenario.utility.kind != "linear":
        return
    if scenario.lambda_da <= scenario.utility.gamma:
        return
    lo, hi = sigma_band(scenario.utility.gamma, cap.mu, scenario.lambda_da, scenario.lambda_rt)
    if not lo - 1e-12 <= cap.sigma <= hi + 1e-12:
        warnings.warn(
            f"sigma={cap.sigma:.6g} outside the closed-form band [{lo:.6g}, {hi:.6g}]; "
            "numeric equilibrium remains defined but has no closed-form counterpart",
            stacklevel=4,
        )


def _bisect_decreasing(fn, lo, hi, tol, max_iter):
    """Root of a decreasing scalar function; returns (x, fn(x), iterations)."""
    flo = fn(lo)
    if flo <= 0.0:
        return lo, flo, 0
    fhi = fn(hi)
    if fhi >= 0.0:
        return hi, fhi, 0
    fmid = flo
    for k in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi), fmid, k
    raise SolverError(
        "bisection did not reach tolerance",
        bracket=(lo, hi),
        width=hi - lo,
        tol=tol,
    )


def _golden_max(fn, a, b, tol):
    """Golden-section maximization on [a, b]; returns the best point seen."""
    if b - a <= tol:
        x = 0.5 * (a + b)
        return x, fn(x), 0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    iters = 0
    while b - a > tol and iters < 200:
        iters += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f, iters
