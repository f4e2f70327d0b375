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

which is nondecreasing in x up to the Monte-Carlo h, whose draws make rho
jump by up to about 2e-4 where a single one enters its event (iid, N >= 2).
The aggregator therefore searches over the pooled offer instead of the
price: it maximizes (lambda_da - rho(x)) * N * x on the lower convex hull
of the outlay x * rho(x) over a table of offers and posts rho* = rho(x*)
(:func:`_offer_search` gives the full account).  The aggregated supply
curve is the slope of the hull of the whole table.  The large-N
independent limit has the explicit inverse
rho(x) = E[u'] + lambda_rt * beta(x) * F(x) with
beta(x) = (x - E[C])+ / E[(x - C)+], and goes through the same search.
Certain capacity is the same game without shortfall at x <= cbar, so
rho(x) = E[u'(d0 + cbar - x)].  Each inverse response is one callable
rho(x), taking one offer or (without h) an array of offers, with its price
bounds; the forward responses x*(rho) (:func:`symmetric_follower_response`,
:func:`meanfield_solve`) are bisections of rho(x) = rho.  Its Monte-Carlo
draws are sampled once per solve.  With a tabulated utility, the E[u']
draws are sorted once and E[u'] at each offer, the price bounds' two
included, is read off their prefix sums, one ``searchsorted`` of the
table knots per offer.  A draw is in the event
of h at offer x exactly when max(C_i, sum_j C_j / N) <= x < max_j C_j;
the coverage draws are kept only where that interval is not empty and
are sorted by where it opens, so each evaluation of h reduces only the
draws whose interval has opened.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import import_module

import numpy as np

from .agents import (
    TABULATED,
    EquilibriumResult,
    GameScenario,
    SolverDiagnostics,
    _MarginalUtilityDraws,
    expected_marginal_utility,
)
from .capacity import IID_UNIFORM, cdf_marginal, check_offer, expected_shortfall, sample
from .closedform import closed_form_applies, closed_form_params
from .errors import AdmissibilityError, SolverError, ValidationError
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

DEFAULT_GRID_POINTS = 256
MAX_BISECT_ITER = 200
# where each search stops, as a fraction of cbar: the game has no unit of
# capacity, so a scenario in other units solves to the same precision
# the leader's golden section in _offer_search, unless sqrt(eps) of its best
# hull vertex is wider: the profit is flat to rounding over that much offer
_LEADER_TOL = 1e-9
_FORWARD_TOL = 1e-12  # the bisection of rho(x) = rho in _InverseResponse.forward

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def offer_price_bounds(
    scenario: GameScenario,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
    _emu: _MarginalUtilityDraws | None = None,
) -> tuple[float, float]:
    """Prices below/above which the symmetric response pins to 0 / cbar.

    For linear utility this is (gamma, lambda_rt + gamma).  Both ends
    come from one E[u'] call on one set of draws: ``_emu``, the kernel of
    a solve of ``scenario``, else draws sampled from ``draws`` and ``seed``.
    """
    emu_0, emu_cbar = expected_marginal_utility(
        scenario, np.array([0.0, scenario.capacity.cbar]), draws=draws, seed=seed, _emu=_emu
    ).tolist()
    return emu_0, scenario.lambda_rt + emu_cbar


@dataclass(frozen=True)
class _CoverageDraws:
    """Capacity draws laid out for the coverage kernel, once per solve.

    At offer x a draw is in the coverage event when some rival has surplus
    and C_i <= x + min(s, 0), that is when max(C_i, sum_j C_j / N) <= x <
    max_j C_j: each draw's event is an interval of offers.  Only the draws
    whose interval is not empty (C_i < max_j C_j) are kept, ascending in
    ``start``, the offer where the interval opens lowered by a rounding
    margin.  ``own`` holds C_i, ``rival_max`` the largest rival capacity
    and row j of ``rivals`` rival j's capacity, in the same order;
    ``draws`` counts the draws kept or not.
    """

    draws: int
    start: np.ndarray
    own: np.ndarray
    rival_max: np.ndarray
    rivals: np.ndarray

    def opened(self, x: float) -> int:
        """The number of leading draws whose event interval opens at or below ``x``."""
        return int(np.searchsorted(self.start, x, "right"))


def _coverage_layout(caps: np.ndarray) -> _CoverageDraws:
    """Lay out a ``(draws, N)`` capacity array, column 0 the own capacity.

    Draws with C_i >= max_j C_j are never in the event and are dropped;
    the rest are sorted by max(C_i, sum_j C_j / N).  The key is lowered by
    4N ulps of the rival maximum, which bounds the rounding of both the
    key and the event predicate: every kept draw's largest capacity is
    its rival maximum, so the margin is positive even where C_i = 0.
    """
    draws, n = caps.shape
    own, *rival_caps = caps.T  # column by column: numpy reduces a short row slowly
    rival_max = np.full(draws, -np.inf)
    total = own.copy()
    for col in rival_caps:
        np.maximum(rival_max, col, out=rival_max)
        total += col
    live = np.flatnonzero(own < rival_max)
    rival_max = rival_max[live]
    start = np.maximum(own[live], total[live] / n)
    start -= 4 * n * np.finfo(float).eps * rival_max
    order = np.argsort(start)
    live, start, rival_max = live[order], start[order], rival_max[order]
    del total, order  # the rival rows are the memory peak: hold no spare row there
    rivals = np.empty((n - 1, len(live)))
    for j, row in enumerate(rivals, start=1):
        np.take(caps[:, j], live, out=row)
    return _CoverageDraws(draws, start, own[live], rival_max, rivals)


def partial_coverage_samples(
    scenario: GameScenario,
    x: float,
    draws: int,
    seed: int,
    caps: _CoverageDraws | None = None,
) -> np.ndarray:
    """Per-draw integrand of the finite-N coverage correction at symmetric offers.

    Each draw contributes
    ``(1 + S*(s - S)/(S + x - C_i)^2) * 1{some rival has surplus and C_i is
    small enough that the pool is still short}`` where ``s``/``S`` are the
    signed and positive-part rival shortfall sums.  The weight lies in
    [0, 1]; the mean over draws estimates the correction.

    ``caps`` is the layout of the ``draws`` capacity draws that a solve
    prepares once (:func:`_coverage_layout`); without it they are sampled
    from ``seed`` and laid out here.  Entries come in the layout's order,
    not in draw order.  Only the draws whose event interval has opened at
    ``x`` and that have a rival surplus are reduced; every other entry is 0.
    """
    if not math.isfinite(x):
        raise ValidationError(f"offer must be finite, got {x}")
    if caps is None:
        caps = _coverage_layout(sample(scenario.capacity, scenario.n_prosumers, seed, draws))
    opened = caps.opened(x)
    if not opened:  # below every event interval: the reduction would run on empty arrays
        return np.zeros(caps.draws)
    idx = np.flatnonzero(caps.rival_max[:opened] > x)
    own = caps.own[idx]
    s = np.zeros(len(idx))
    s_plus = np.zeros(len(idx))
    for row in caps.rivals:
        short = x - row[idx]
        s += short
        s_plus += np.maximum(short, 0.0, out=short)
    event = (s < s_plus) & (own <= x + np.minimum(s, 0.0))
    denom = np.where(event, s_plus + x - own, 1.0)
    out = np.zeros(caps.draws)
    out[idx] = np.where(event, 1.0 + s_plus * (s - s_plus) / denom**2, 0.0)
    return out


def partial_coverage_term(scenario: GameScenario, x: float) -> float:
    """The exact coverage correction h(x); zero unless capacities are iid.

    h = F * sum_k P(k rivals short) * E[psi_m(a (Y_k + 1) / b)], m = N-1-k, with
    a = x - lo, b = hi - x, F = a / (hi - lo), Y_n the Irwin-Hall sum of n uniforms,
    psi_m(t) = E[(1 - Y_m/t)+] = sum_r (r + 1) M(t - r) / t and M the density of
    Y_(m+2).  Each mean is Gauss-Legendre between the integers and psi_m's kinks.
    """
    model, n = scenario.capacity, scenario.n_prosumers
    check_offer(model, x)
    if model.kind == IID_UNIFORM and n < 2:
        raise ValidationError("coverage correction needs at least two prosumers")
    lo, hi = model.support
    if model.kind != IID_UNIFORM or not lo < x < hi:
        return 0.0
    a, b = x - lo, hi - x
    f, h = a / (hi - lo), 0.0
    for k, m in enumerate(range(n - 1, 0, -1)):
        p = math.comb(n - 1, k) * f**k * (1.0 - f) ** m
        y, w = np.zeros(1), np.ones(1)  # Y_0 = 0
        if k:  # psi_m has kinks where a (y + 1) / b = 1 .. m
            edges = np.unique(np.clip([*range(k + 1), *(np.arange(1, m + 1) * b / a - 1)], 0, k))
            half, (nodes, weights) = np.diff(edges)[:, None] / 2, _gauss_legendre()
            y = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
            i = np.minimum(np.floor(y), k - 1)  # rounding may put the last node at k
            w = (half * weights).ravel() * _bspline(k, y - i)[i.astype(int), np.arange(len(y))]
        t = a * (y + 1.0) / b
        r = np.floor(t)
        psi = (np.maximum(r + 1 - np.arange(m + 2)[:, None], 0) * _bspline(m + 2, t - r)).sum(0)
        h += p * (w @ (psi / t))
    return float(f * h)


# built on first use: a bare ``import numpy`` does not load numpy.polynomial
_gauss_legendre = cache(lambda: import_module("numpy.polynomial.legendre").leggauss(12))


def _bspline(order, u):
    """Row j: the density of Y_order at u + j, for u in [0, 1], by the Cox-de Boor recursion."""
    table = np.ones((1, len(u)))
    for q in range(2, order + 1):  # its weights are positive: no cancellation at any order
        pad = np.pad(table, ((1, 1), (0, 0)))  # row j: the order q-1 density at u + j - 1
        j = np.arange(q)[:, None]
        table = ((u + j) * pad[1:] + (q - u - j) * pad[:-1]) / (q - 1)
    return table


def follower_foc_gap(
    scenario: GameScenario,
    rho: float,
    x: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
    _inverse: _InverseResponse | None = None,
) -> float:
    """Signed gap of the symmetric first-order condition at offer ``x``.

    Positive means the prosumer wants to offer more; strictly decreasing in
    ``x`` on the capacity support for prices strictly inside the bounds.
    The shortfall term reads :func:`~deragg.capacity.cdf_marginal`, P(C < x):
    certain capacity runs short only above cbar, so its gap is
    ``(rho - E[u'])/lambda_rt - 1{x > cbar}``.  ``x`` may be an array of
    offers unless the Monte-Carlo coverage term applies (iid, N >= 2),
    which takes one offer at a time.  Every draw the gap reads, for E[u']
    and for the coverage term, comes from ``_inverse``, the inverse
    response of ``scenario`` whose solve samples them once; a call without
    it builds one from ``draws`` and ``seed``.
    """
    if _inverse is None and not np.isfinite(x).all():  # a solve's own offers are finite
        raise ValidationError(f"offer must be finite, got {x}")
    inverse = _InverseResponse(scenario, draws, seed) if _inverse is None else _inverse
    model = scenario.capacity
    lhs = (rho - inverse.marginal_utility(x)) / scenario.lambda_rt
    diag_cdf = cdf_marginal(model, x)
    h = 0.0
    if model.kind == IID_UNIFORM:
        diag_cdf = diag_cdf**scenario.n_prosumers
    if inverse.per_offer:
        if np.ndim(x):
            raise ValidationError("the coverage term takes one offer at a time")
        h = float(partial_coverage_samples(scenario, x, draws, seed, caps=inverse.caps).mean())
    gap = lhs - diag_cdf - h
    return gap if getattr(gap, "ndim", 0) else float(gap)  # np.ndim would make a float an array


def symmetric_follower_response(
    scenario: GameScenario, rho: float, draws: int = DEFAULT_DRAWS, seed: int = DEFAULT_SEED
) -> float:
    """Unique symmetric Nash offer x*(rho), with exact boundary handling."""
    return _InverseResponse(scenario, draws, seed).forward(rho)


class _InverseResponse:
    """Finite-N inverse response rho(x) and its price bounds.

    The FOC gap is affine in rho with slope 1/lambda_rt, so one gap
    evaluation at rho_min gives the price at which ``x`` is the symmetric
    best response.  rho(x) does not depend on lambda_da, so one table of
    it and its :meth:`hull` give the leader's offer at every wholesale
    price (the aggregated supply curve), and :meth:`forward` inverts it
    at any price.
    """

    def __init__(self, scenario: GameScenario, draws: int, seed: int):
        self.scenario, self.draws, self.seed = scenario, draws, seed

    @cached_property
    def bounds(self) -> tuple[float, float]:
        """(rho_min, rho_max): :func:`offer_price_bounds` read off :attr:`emu`."""
        return offer_price_bounds(self.scenario, draws=self.draws, seed=self.seed, _emu=self.emu)

    @cached_property
    def caps(self) -> _CoverageDraws:
        """The coverage draws, sampled and laid out once; read only where :attr:`per_offer`."""
        return _coverage_layout(
            sample(self.scenario.capacity, self.scenario.n_prosumers, self.seed, self.draws)
        )

    @cached_property
    def emu(self) -> _MarginalUtilityDraws | None:
        """The E[u'] kernel on the solve's draws; linear utility needs none."""
        if self.scenario.utility.kind == TABULATED:
            return _MarginalUtilityDraws(self.scenario, self.draws, self.seed)
        return None

    def marginal_utility(self, x: float) -> float:
        """E[u'(d0 + C - x)] on the solve's draws."""
        return self.scenario.utility.gamma if self.emu is None else self.emu(x)

    @property
    def per_offer(self) -> bool:
        """Whether rho carries the Monte-Carlo coverage term h (iid, N >= 2),
        whose kernel takes one offer at a time."""
        return self.scenario.capacity.kind == IID_UNIFORM and self.scenario.n_prosumers >= 2

    def __call__(self, x):
        """rho at one offer, or at an array of offers in one numpy call unless
        :attr:`per_offer`, whose coverage kernel takes one offer at a time."""
        rho_min = self.bounds[0]
        return rho_min - self.scenario.lambda_rt * follower_foc_gap(
            self.scenario, rho_min, x, draws=self.draws, seed=self.seed, _inverse=self
        )

    def offers(self, n: int) -> list[float]:
        """``n`` offers on [0, cbar] plus the support ends (the kinks of F)."""
        model = self.scenario.capacity
        # a sorted set, not np.unique, whose first call raises the process's peak memory
        return sorted({*np.linspace(0.0, model.cbar, n).tolist(), *model.support})

    def hull(self, n: int, cap: float = math.inf) -> tuple[list, list, list, list[int]]:
        """The offers in ascending order, up to and including the first whose rho
        is above ``cap``, rho and the outlay R(x) = x * rho(x) at each, and the
        indices of the offers on the lower convex hull of R.  Under :attr:`per_offer`
        the offers are priced one at a time, and none past that first one."""
        xs = self.offers(n)
        priced = map(self, xs) if self.per_offer else self(np.asarray(xs)).tolist()
        rhos = []
        for rho in priced:
            rhos.append(rho)
            if rho > cap:
                break
        xs = xs[:len(rhos)]
        rs = [x * rho for x, rho in zip(xs, rhos)]
        hull = []  # monotone chain over offer indices
        for i in range(len(xs)):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                left = (xs[b] - xs[a]) * (rs[i] - rs[a])
                right = (rs[b] - rs[a]) * (xs[i] - xs[a])
                # keep b only strictly below the chord a-i: float noise must not
                # split a straight run, such as rho = rho_min below the support
                if left - right > 1e-12 * (abs(left) + abs(right)):
                    break
                hull.pop()
            hull.append(i)
        return xs, rhos, rs, hull

    def forward(self, rho: float) -> float:
        """The offer x at which rho(x) = rho, bisected to a bracket of
        ``_FORWARD_TOL * cbar``: 0 at or below rho_min = rho(0), cbar at or
        above rho_max or rho(cbar).  A price strictly inside the bounds costs
        41 rho evaluations: one at cbar and one per halving, of which 40 take
        the bracket below ``_FORWARD_TOL * cbar``."""
        if not math.isfinite(rho):
            raise ValidationError(f"price must be finite, got {rho}")
        rho_min, rho_max = self.bounds
        cbar = self.scenario.capacity.cbar
        if rho <= rho_min:
            return 0.0
        # certain capacity stops short of rho_max
        if rho >= rho_max or rho >= self(cbar):
            return cbar
        lo, hi, tol = 0.0, cbar, _FORWARD_TOL * cbar
        for _ in range(MAX_BISECT_ITER):
            mid = 0.5 * (lo + hi)
            if rho > self(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol:
                return 0.5 * (lo + hi)
        raise SolverError("bisection did not reach tolerance", bracket=(lo, hi),
                          width=hi - lo, tol=tol)


def stackelberg_solve(
    scenario: GameScenario,
    grid_points: int = DEFAULT_GRID_POINTS,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> EquilibriumResult:
    """Leader's optimal price against the symmetric response curve: the
    posted price rho*, the follower offer x* and the search's diagnostics,
    from :func:`_offer_search` on one inverse response of ``scenario``.
    """
    _warn_if_off_band(scenario)
    inverse = _InverseResponse(scenario, draws, seed)
    x_star, rho_star, diag = _offer_search(inverse, grid_points)
    return EquilibriumResult(scenario, rho_star, x_star, diag)


def _offer_search(inverse, grid_points):
    """Maximise the leader profit (lambda_da - rho(x)) * N * x over x in [0, cbar].

    With lambda_da at or below rho_min no offer is profitable: the leader
    posts rho* = lambda_da, buys nothing and prices no offer.  Otherwise it
    prices ``grid_points`` offers on [0, cbar] plus the support ends (the
    kinks of F) in ascending order, up to the first one above lambda_da,
    which like every larger offer loses money as rho is nondecreasing.
    That table is one evaluation of rho over every offer, except where the
    Monte-Carlo coverage term h applies (iid, N >= 2): its kernel takes one
    offer per evaluation, so no offers x draws array is held.  The best
    offer is the vertex of the lower convex hull of R(x) = x * rho(x) on
    the table that maximises lambda_da * x - R(x), the one whose adjacent
    edge slopes bracket lambda_da.  Golden section refines between the
    offers on either side of it, one rho evaluation per step, to a bracket
    of ``_LEADER_TOL * cbar`` or of sqrt(eps) times the vertex, whichever
    is wider, fixed before the search so that the steps scale with
    capacity: the profit is flat to rounding over sqrt(eps) of the offer,
    so narrower steps only choose among ties.  The vertex itself, priced in
    the table, stays a candidate, and the posted rho* = rho(x*) is the one
    the search evaluated at x*.  Where rho(x) is flat the followers are
    indifferent along the run, the hull skips it, and the leader buys its
    largest offer: with certain capacity and linear utility, the whole
    capacity at rho* = rho_min.  Both diagnostic flags are facts about that
    hull: the profit is concave on the offers if every offer with
    rho(x) <= lambda_da lies on it, and the maximiser may not be unique if
    lambda_da is the slope of an ironed edge (one that skips offers) next
    to the chosen vertex; the diagnostics also count the offers in the
    table and the golden steps.  Returns (x*, rho(x*), diagnostics).
    """
    _check_grid(grid_points)
    scenario = inverse.scenario
    lambda_da, n = scenario.lambda_da, scenario.n_prosumers
    if lambda_da <= inverse.bounds[0]:
        return 0.0, lambda_da, SolverDiagnostics(0, 0, True, False)

    xs, table, rs, hull = inverse.hull(grid_points, cap=lambda_da)
    best = max(hull, key=lambda i: lambda_da * xs[i] - rs[i])
    rhos = {xs[best]: table[best]}  # rho at each offer the search prices, to post rho(x*)

    def profit(x):
        if x not in rhos:
            rhos[x] = inverse(x)
        return (lambda_da - rhos[x]) * n * x

    k = hull.index(best)
    around = hull[max(k - 1, 0):k + 2]
    multiple_maxima = any(
        b > a + 1 and math.isclose((rs[b] - rs[a]) / (xs[b] - xs[a]), lambda_da, rel_tol=1e-9)
        for a, b in zip(around, around[1:])
    )
    on_hull = np.interp(xs, [xs[i] for i in hull], [rs[i] for i in hull])
    concavity_ok = all(
        r - h <= 1e-9 * abs(r) for x, r, h in zip(xs, rs, on_hull) if r <= lambda_da * x
    )
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, len(xs) - 1)]
    tol = max(_LEADER_TOL * scenario.capacity.cbar, _SQRT_EPS * xs[best])
    x_ref, prof_ref, iters = _golden_max(profit, a, b, tol)
    x_star = max([(x_ref, prof_ref), (xs[best], profit(xs[best]))], key=lambda c: c[1])[0]
    diag = SolverDiagnostics(len(xs), iters, concavity_ok, multiple_maxima)
    return x_star, rhos[x_star], diag


def _check_grid(grid_points):
    """The offer table needs at least four offers."""
    if grid_points < 4:
        raise ValidationError("grid_points must be at least 4")


@dataclass(frozen=True)
class MeanFieldSolution:
    """Large-N equilibrium: shortfall-pass-through ratio and symmetric offer."""

    beta: float
    x_star: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError(f"beta={self.beta} outside [0, 1]")


def _meanfield_beta(model, x):
    """Pass-through ratio beta(x) = (x - E[C])+ / E[(x - C)+], clipped to [0, 1], vectorized."""
    den = np.asarray(expected_shortfall(model, x))
    ratio = (x - model.mean) / np.where(den > 0.0, den, 1.0)
    out = np.where(den > 0.0, np.clip(ratio, 0.0, 1.0), 0.0)
    return out if out.ndim else float(out)


class _MeanFieldInverse(_InverseResponse):
    """Mean-field inverse response rho(x) = E[u'] + lambda_rt * beta(x) * F(x).

    Nondecreasing in x, and flat at E[u'] up to x = E[C] where beta = 0.
    """

    per_offer = False  # no Monte-Carlo coverage term: the table is one numpy call

    def __init__(self, scenario: GameScenario, draws: int, seed: int):
        if scenario.capacity.kind != IID_UNIFORM:
            raise ValidationError("mean-field solve requires iid capacities")
        super().__init__(scenario, draws, seed)

    def offers(self, n: int) -> list[float]:
        """The finite-N offers plus x = E[C], where the flat piece of rho ends."""
        model = self.scenario.capacity
        return sorted({*super().offers(n), min(model.mean, model.cbar)})

    def __call__(self, x):
        model = self.scenario.capacity
        return self.marginal_utility(x) + (
            self.scenario.lambda_rt * _meanfield_beta(model, x) * cdf_marginal(model, x)
        )


def meanfield_solve(
    scenario: GameScenario, rho: float, _inverse: _MeanFieldInverse | None = None
) -> MeanFieldSolution:
    """Solve the large-N system  beta*F(x) = (rho - E[u'])/lambda_rt  with
    beta = (x - E[C])+ / E[(x - C)+].

    Bisects the monotone mean-field inverse response rho(x) = rho to an
    offer bracket of width ``_FORWARD_TOL * cbar``; beta follows from x.
    At indifference (rho = rho_min) the maximal offer x* = E[C] is
    returned, matching the large-N equilibrium path.  Where the offer cap binds, beta = 1 and the
    cap multiplier carries the gap.  ``_inverse`` is a mean-field inverse
    response of ``scenario`` that a leader search has already built; a call
    without it reads E[u'] off the default draws and seed.
    """
    inverse = _inverse or _MeanFieldInverse(scenario, DEFAULT_DRAWS, DEFAULT_SEED)
    model = scenario.capacity
    x = inverse.forward(rho)
    if rho == inverse.bounds[0]:
        x = min(model.mean, model.cbar)
    return MeanFieldSolution(_meanfield_beta(model, x), x)


def meanfield_stackelberg(
    scenario: GameScenario,
    grid_points: int = DEFAULT_GRID_POINTS,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> tuple[EquilibriumResult, MeanFieldSolution]:
    """Leader's price against the mean-field response curve.

    Same offer-space search as :func:`stackelberg_solve`, with the offer
    x = E[C] (the end of the flat piece of rho) on the hull, so the
    indifference optimum is found exactly.  ``draws`` and ``seed`` give
    the Monte-Carlo E[u'] of a tabulated utility; a linear one samples none.
    """
    inverse = _MeanFieldInverse(scenario, draws, seed)
    _, rho_star, diag = _offer_search(inverse, grid_points)
    sol = meanfield_solve(scenario, rho_star, _inverse=inverse)
    return EquilibriumResult(scenario, rho_star, sol.x_star, diag), sol


def _warn_if_off_band(scenario: GameScenario) -> None:
    # the numeric search stays defined off the closed-form band, but the
    # equilibrium price path pins to its boundary there; flag it
    if not closed_form_applies(scenario) or scenario.lambda_da <= scenario.utility.gamma:
        return
    try:
        closed_form_params(scenario)
    except AdmissibilityError as exc:
        warnings.warn(
            f"sigma={scenario.capacity.sigma:.6g} outside the closed-form band: {exc}; "
            "numeric equilibrium remains defined but has no closed-form counterpart",
            stacklevel=3,
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
