"""Stylized day-ahead market clearing and the price-of-aggregation metric.

The system operator meets an inelastic demand from dispatchable generators
plus a DER supply curve (the pooled offer under aggregated participation,
or the collapsed per-prosumer offers under direct participation).  All
supply is nondecreasing in price, so clearing reduces to finding the price
at which cumulative supply meets demand; the clearing price is the marginal
cost of the marginal resource.  Transmission constraints are intentionally
absent and demand is a point forecast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .agents import LINEAR, GameScenario, expected_marginal_utility
from .capacity import DEPENDENT_UNIFORM, DETERMINISTIC, cdf_marginal, quantile_marginal
from .closedform import UniformLinearParams
from .equilibrium import (
    _bisect_decreasing,
    _InverseResponse,
    _leader_solve,
    offer_price_bounds,
    scenario_at_price,
)
from .errors import MarketInfeasibleError, SolverError, ValidationError
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

MODE_AGGREGATED = "aggregated"
MODE_DIRECT = "direct"
MODE_NODER = "noder"
MODE_SOCIAL = "social"  # benchmark variant: direct curve through a non-profit pool
_MODES = (MODE_AGGREGATED, MODE_DIRECT, MODE_NODER, MODE_SOCIAL)

AGGREGATOR_AFFINE = "aggregator_affine"
PROSUMER_AFFINE = "prosumer_affine"
TABULATED = "tabulated"

TIE_RULE = "pro-rata by remaining headroom at the clearing price"

_BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class GeneratorSpec:
    """Dispatchable generator with linear cost ``kappa * Q`` on [qmin, qmax].

    The ``segments`` hook accepts a convex piecewise-linear marginal cost as
    ``(marginal_price, width)`` pairs above ``qmin``; ``qmax`` is then
    derived from the total width.
    """

    kappa: float
    qmin: float = 0.0
    qmax: float = math.inf
    segments: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValidationError(f"kappa must be finite, got {self.kappa}")
        if self.kappa < 0.0 or self.qmin < 0.0:
            raise ValidationError("kappa and qmin must be nonnegative")
        if self.segments is not None:
            seg = tuple((float(p), float(w)) for p, w in self.segments)
            prices = [p for p, _ in seg]
            widths = [w for _, w in seg]
            if not seg or any(w <= 0.0 for w in widths):
                raise ValidationError("segments need positive widths")
            if any(b < a for a, b in zip(prices, prices[1:])):
                raise ValidationError("segment prices must be nondecreasing (convex cost)")
            object.__setattr__(self, "segments", seg)
            object.__setattr__(self, "qmax", self.qmin + sum(widths))
        if self.qmax < self.qmin:
            raise ValidationError("qmax must be >= qmin")

    def marginal_prices(self) -> tuple[float, ...]:
        if self.segments is None:
            return (self.kappa,)
        return tuple(p for p, _ in self.segments)

    def supply_at(self, price: float) -> float:
        """Largest output whose marginal cost does not exceed ``price``."""
        if self.segments is None:
            return self.qmax if price >= self.kappa else self.qmin
        q = self.qmin
        for p, w in self.segments:
            if p <= price:
                q += w
        return q

    def supply_below(self, price: float) -> float:
        """Largest output with marginal cost strictly below ``price``."""
        if self.segments is None:
            return self.qmax if price > self.kappa else self.qmin
        q = self.qmin
        for p, w in self.segments:
            if p < price:
                q += w
        return q

    def cost(self, q: float) -> float:
        if not self.qmin - 1e-9 <= q <= self.qmax + 1e-9:
            raise ValidationError(f"dispatch {q} outside [{self.qmin}, {self.qmax}]")
        if self.segments is None:
            return self.kappa * q
        first = self.segments[0][0]
        total = first * min(q, self.qmin)
        rest = max(q - self.qmin, 0.0)
        for p, w in self.segments:
            take = min(rest, w)
            total += p * take
            rest -= take
            if rest <= 0.0:
                break
        return total


@dataclass(frozen=True)
class SupplyCurve:
    """Nondecreasing inverse supply offer with a quantity cap.

    Affine kinds carry ``price = intercept + slope * quantity`` up to the
    cap; the tabulated kind interpolates sorted (quantity, price)
    breakpoints, flat below the first one.
    """

    kind: str
    quantity_cap: float
    intercept: float | None = None
    slope: float | None = None
    breakpoints: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind in (AGGREGATOR_AFFINE, PROSUMER_AFFINE):
            if self.intercept is None or self.slope is None or self.slope <= 0.0:
                raise ValidationError("affine curve needs an intercept and a positive slope")
            if not self.quantity_cap > 0.0:
                raise ValidationError("quantity_cap must be positive")
        elif self.kind == TABULATED:
            bps = self.breakpoints
            if not bps or len(bps) < 2:
                raise ValidationError("tabulated curve needs at least two breakpoints")
            bps = tuple((float(q), float(p)) for q, p in bps)
            qs = [q for q, _ in bps]
            ps = [p for _, p in bps]
            if any(b < a for a, b in zip(qs, qs[1:])) or any(b < a - 1e-12 for a, b in zip(ps, ps[1:])):
                raise ValidationError("breakpoints must be nondecreasing in quantity and price")
            object.__setattr__(self, "breakpoints", bps)
            object.__setattr__(self, "quantity_cap", qs[-1])
        else:
            raise ValidationError(f"unknown supply curve kind {self.kind!r}")

    def knot_prices(self) -> tuple[float, ...]:
        if self.kind == TABULATED:
            return tuple(p for _, p in self.breakpoints)
        return (self.intercept, self.price_at(self.quantity_cap))

    def price_at(self, q: float) -> float:
        """Minimum price at which quantity ``q`` is offered (inverse supply)."""
        if q < -1e-12 or q > self.quantity_cap + 1e-12:
            warnings.warn(
                f"quantity {q:.6g} outside [0, {self.quantity_cap:.6g}]; extrapolating",
                stacklevel=2,
            )
        if self.kind == TABULATED:
            qs = np.array([a for a, _ in self.breakpoints])
            ps = np.array([b for _, b in self.breakpoints])
            return float(np.interp(q, qs, ps))
        return self.intercept + self.slope * q

    def quantity_at(self, price: float) -> float:
        """Largest quantity whose marginal price does not exceed ``price``."""
        if self.kind != TABULATED:
            return float(np.clip((price - self.intercept) / self.slope, 0.0, self.quantity_cap))
        qs = [a for a, _ in self.breakpoints]
        ps = [b for _, b in self.breakpoints]
        if price >= ps[-1]:
            return self.quantity_cap
        if price < ps[0]:
            return 0.0
        i = int(np.searchsorted(ps, price, side="right")) - 1
        if ps[i + 1] == ps[i]:
            return qs[i + 1]
        return qs[i] + (price - ps[i]) * (qs[i + 1] - qs[i]) / (ps[i + 1] - ps[i])

    def quantity_below(self, price: float) -> float:
        """Largest quantity with marginal price strictly below ``price``."""
        if self.kind != TABULATED:
            return self.quantity_at(price)
        qs = [a for a, _ in self.breakpoints]
        ps = [b for _, b in self.breakpoints]
        if price > ps[-1]:
            return self.quantity_cap
        if price <= ps[0]:
            return 0.0
        i = int(np.searchsorted(ps, price, side="left")) - 1
        if ps[i + 1] == ps[i]:
            return qs[i]
        return qs[i] + (price - ps[i]) * (qs[i + 1] - qs[i]) / (ps[i + 1] - ps[i])

    def cost_integral(self, q: float) -> float:
        """Integral of the inverse supply from 0 to ``q`` (procurement cost)."""
        if q < -1e-12:
            raise ValidationError("quantity must be nonnegative")
        if self.kind != TABULATED:
            return self.intercept * q + 0.5 * self.slope * q * q
        total = 0.0
        prev_q, prev_p = 0.0, self.breakpoints[0][1]
        for bq, bp in self.breakpoints:
            if q <= bq:
                p_here = prev_p + (bp - prev_p) * (
                    (q - prev_q) / (bq - prev_q) if bq > prev_q else 0.0
                )
                total += 0.5 * (prev_p + p_here) * (q - prev_q)
                return total
            total += 0.5 * (prev_p + bp) * (bq - prev_q)
            prev_q, prev_p = bq, bp
        total += prev_p * (q - prev_q)  # flat extension past the cap
        return total


def aggregated_affine_curve(p: UniformLinearParams) -> SupplyCurve:
    """Pooled inverse supply implied by the closed-form equilibrium path."""
    s3 = p.half_width
    return SupplyCurve(
        AGGREGATOR_AFFINE,
        quantity_cap=p.n_prosumers * (p.mu + s3) / 2.0,
        intercept=p.gamma - p.lambda_rt * (p.mu - s3) / (2.0 * s3),
        slope=p.lambda_rt / (p.n_prosumers * s3),
    )


def direct_affine_curve(p: UniformLinearParams) -> SupplyCurve:
    """Collapsed inverse supply of N identical prosumers bidding directly."""
    s3 = p.half_width
    return SupplyCurve(
        PROSUMER_AFFINE,
        quantity_cap=p.n_prosumers * (p.mu + s3),
        intercept=p.gamma - p.lambda_rt * (p.mu - s3) / (2.0 * s3),
        slope=p.lambda_rt / (2.0 * p.n_prosumers * s3),
    )


@dataclass(frozen=True)
class DispatchProblem:
    generators: tuple[GeneratorSpec, ...]
    demand: float
    der_supply: SupplyCurve | None
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.demand < 0.0:
            raise ValidationError("demand must be nonnegative")
        if self.mode not in _MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode != MODE_NODER and self.der_supply is None:
            raise ValidationError(f"mode {self.mode!r} needs a DER supply curve")
        cap = 0.0 if self._curve() is None else self._curve().quantity_cap
        total = sum(g.qmax for g in self.generators) + cap
        if total < self.demand * (1.0 - _BALANCE_RTOL):
            raise MarketInfeasibleError(
                f"total capability {total:.6g} cannot meet demand {self.demand:.6g}",
                shortfall=self.demand - total,
            )
        must_run = sum(g.qmin for g in self.generators)
        if must_run > self.demand * (1.0 + _BALANCE_RTOL) and must_run > 0:
            raise MarketInfeasibleError(
                "must-run minimum exceeds demand", shortfall=must_run - self.demand
            )

    def _curve(self) -> SupplyCurve | None:
        return None if self.mode == MODE_NODER else self.der_supply


@dataclass(frozen=True)
class DispatchOutcome:
    cleared_generator: tuple[float, ...]
    cleared_der: float
    clearing_price: float
    total_cost: float
    demand: float
    tie_rule: str = TIE_RULE

    def __post_init__(self):
        served = sum(self.cleared_generator) + self.cleared_der
        if abs(served - self.demand) > _BALANCE_RTOL * max(self.demand, 1.0):
            raise ValidationError(
                f"supply {served!r} does not balance demand {self.demand!r}"
            )


def clear_market(problem: DispatchProblem) -> DispatchOutcome:
    """Merit-order clearing by bisection on price.

    Every supply primitive is nondecreasing in price, so the clearing price
    is the infimum price at which cumulative supply covers demand; it is
    then snapped to the nearest marginal-cost breakpoint to keep generator
    prices exact.  Ties at the clearing price split pro rata by remaining
    headroom (resources with unbounded headroom absorb the residual).
    """
    D = problem.demand
    gens = problem.generators
    curve = problem._curve()

    def supply_at(p):
        total = sum(g.supply_at(p) for g in gens)
        if curve is not None:
            total += curve.quantity_at(p)
        return total

    def supply_below(p):
        total = sum(g.supply_below(p) for g in gens)
        if curve is not None:
            total += curve.quantity_below(p)
        return total

    snap_prices = sorted({p for g in gens for p in g.marginal_prices()}
                         | ({p for p in curve.knot_prices()} if curve is not None else set()))
    p_lo = min(snap_prices) - 1.0 if snap_prices else 0.0
    p_hi = max(snap_prices) + 1.0 if snap_prices else 1.0
    scale = max(D, 1.0)
    if supply_at(p_hi) < D - _BALANCE_RTOL * scale:
        raise MarketInfeasibleError(
            "supply exhausted below demand", shortfall=D - supply_at(p_hi)
        )
    if supply_at(p_lo) >= D:
        price = p_lo  # demand met by must-run output alone
    else:
        lo, hi = p_lo, p_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if supply_at(mid) >= D:
                hi = mid
            else:
                lo = mid
        price = hi
        for cand in snap_prices:
            if abs(price - cand) <= 1e-7 * (1.0 + abs(cand)):
                if supply_at(cand) >= D - _BALANCE_RTOL * scale:
                    price = cand
                break

    resources = list(gens) + ([curve] if curve is not None else [])
    base = [
        (r.supply_below(price) if isinstance(r, GeneratorSpec) else r.quantity_below(price))
        for r in resources
    ]
    at = [
        (r.supply_at(price) if isinstance(r, GeneratorSpec) else r.quantity_at(price))
        for r in resources
    ]
    head = [max(a - b, 0.0) for a, b in zip(at, base)]
    residual = D - sum(base)
    alloc = list(base)
    if residual > 0.0:
        infinite = [i for i, h in enumerate(head) if math.isinf(h)]
        if infinite:
            for i in infinite:
                alloc[i] += residual / len(infinite)
        else:
            total_head = sum(head)
            if total_head <= 0.0:
                raise MarketInfeasibleError(
                    "no headroom at the clearing price", shortfall=residual
                )
            for i, h in enumerate(head):
                alloc[i] += residual * h / total_head
    # force exact balance against float drift
    diff = sum(alloc) - D
    if diff != 0.0:
        j = max(range(len(alloc)), key=lambda i: alloc[i])
        alloc[j] -= diff

    n_gen = len(gens)
    gen_q = tuple(alloc[:n_gen])
    der_q = alloc[n_gen] if curve is not None else 0.0
    cost = sum(g.cost(q) for g, q in zip(gens, gen_q))
    if curve is not None:
        cost += curve.cost_integral(der_q)
    return DispatchOutcome(gen_q, der_q, price, cost, D)


def _default_wholesale_grid(scenario: GameScenario, n_points: int) -> np.ndarray:
    model = scenario.capacity
    rho_min, rho_max = offer_price_bounds(scenario)
    if model.kind == DETERMINISTIC:
        return np.linspace(rho_min + 1e-6, rho_max, n_points)
    if model.kind == DEPENDENT_UNIFORM and scenario.utility.kind == LINEAR:
        lo_s, hi_s = model.support
        s3 = 0.5 * (hi_s - lo_s)
        p_lo = scenario.utility.gamma + scenario.lambda_rt * lo_s / (2.0 * s3)
        p_hi = scenario.utility.gamma + scenario.lambda_rt
        p_lo = min(max(p_lo, rho_min + 1e-9), p_hi - 1e-9)
        return np.linspace(p_lo, p_hi, n_points)
    return np.linspace(rho_min + 1e-9, rho_max, n_points)


def build_supply_curve_aggregated(
    scenario: GameScenario,
    price_grid=None,
    n_points: int = 33,
    tol_rho: float = 1e-6,
    tol_x: float = 1e-8,
    grid_points: int = 256,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> SupplyCurve:
    """Tabulate the pooled equilibrium offer against a wholesale price grid.

    Each grid price is treated as the day-ahead price of a fresh pricing
    game; inverting the resulting quantity path yields the aggregator's
    offer curve.  The inverse response rho(x) does not depend on the
    wholesale price, so one memoised table of it serves every price, and
    each price adds only its own leader search.  The default grid spans the
    range on which the equilibrium price path is interior.
    """
    if price_grid is None:
        price_grid = _default_wholesale_grid(scenario, n_points)
    bounds = offer_price_bounds(scenario, draws=draws, seed=seed)
    inverse = _InverseResponse(scenario, bounds[0], draws, seed)
    points, failures = [], []
    for p in np.asarray(price_grid, dtype=float):
        try:
            res = _leader_solve(
                scenario_at_price(scenario, p), inverse, bounds, tol_rho, tol_x, grid_points
            )
            points.append((res.aggregate_x, float(p)))
        except (SolverError, ValidationError) as exc:
            failures.append((float(p), str(exc)))
    if failures:
        raise SolverError(
            "supply-curve construction failed at some wholesale prices",
            failed_prices=tuple(p for p, _ in failures),
            details=tuple(failures),
        )
    return _tabulated_from_points(points)


def build_supply_curve_direct(
    scenario: GameScenario,
    price_grid=None,
    n_points: int = 33,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> SupplyCurve:
    """Tabulate the collapsed direct-participation offer of N prosumers.

    Each prosumer bids against the wholesale price alone (no cost-sharing
    game): the response maximizes compensation plus consumption utility
    minus the own-shortfall buy-back, and identical prosumers are collapsed
    into one scaled curve.
    """
    rho_min, rho_max = offer_price_bounds(scenario, draws=draws, seed=seed)
    if price_grid is None:
        price_grid = np.linspace(rho_min, rho_max, n_points)
    n = scenario.n_prosumers
    points = []
    for p in np.asarray(price_grid, dtype=float):
        y = benchmark_response(scenario, float(p), draws=draws, seed=seed)
        points.append((n * y, float(p)))
    return _tabulated_from_points(points)


def benchmark_response(
    scenario: GameScenario, price: float, draws: int = DEFAULT_DRAWS, seed: int = DEFAULT_SEED
) -> float:
    """One prosumer's direct-market offer at a given wholesale price.

    Solves ``price = E[u'(d0 + C - y)] + lambda_rt * F(y)``; at
    indifference the maximal offer is taken.
    """
    model = scenario.capacity
    cbar = model.cbar
    rho_min, _ = offer_price_bounds(scenario, draws=draws, seed=seed)
    if model.kind == DETERMINISTIC:
        return cbar if price >= rho_min else 0.0
    if scenario.utility.kind == LINEAR:
        frac = (price - scenario.utility.gamma) / scenario.lambda_rt
        if frac <= 0.0:
            return quantile_marginal(model, 0.0) if price >= rho_min else 0.0
        if frac > 1.0:
            return cbar  # margin stays positive past the support top
        return min(quantile_marginal(model, frac), cbar)

    def gap(y):
        return (
            price
            - expected_marginal_utility(scenario, y, draws=draws, seed=seed)
            - scenario.lambda_rt * cdf_marginal(model, y)
        )

    if gap(0.0) < 0.0:
        return 0.0
    if gap(cbar) >= 0.0:
        return cbar
    y, _, _ = _bisect_decreasing(gap, 0.0, cbar, 1e-10, 200)
    return y


def _tabulated_from_points(points) -> SupplyCurve:
    pts = sorted(points)
    dedup: list[tuple[float, float]] = []
    for q, p in pts:
        if dedup and abs(q - dedup[-1][0]) <= 1e-12:
            dedup[-1] = (dedup[-1][0], min(dedup[-1][1], p))
        else:
            dedup.append((q, p))
    # enforce nondecreasing price against solver jitter
    out = []
    run = -math.inf
    for q, p in dedup:
        run = max(run, p)
        out.append((q, run))
    if len(out) < 2:
        out = [(0.0, out[0][1] if out else 0.0)] + out
    return SupplyCurve(TABULATED, quantity_cap=out[-1][0], breakpoints=tuple(out))


@dataclass(frozen=True)
class PoAgReport:
    """Procurement costs of the three participation modes and their ratio."""

    cost_aggregated: float
    cost_direct: float
    cost_noder: float
    poag: float
    demand: float
    curve_source: str
    seed: int
    outcome_aggregated: DispatchOutcome
    outcome_direct: DispatchOutcome
    outcome_noder: DispatchOutcome

    def __post_init__(self):
        if abs(self.poag - self.cost_aggregated / self.cost_direct) > 1e-12 * max(self.poag, 1.0):
            raise ValidationError("poag must equal cost_aggregated / cost_direct")


def closed_form_params(scenario: GameScenario) -> UniformLinearParams:
    """Closed-form parameter tuple for a dependent-uniform linear scenario."""
    if scenario.capacity.kind != DEPENDENT_UNIFORM or scenario.utility.kind != LINEAR:
        raise ValidationError(
            "closed forms need fully dependent uniform capacity and linear utility"
        )
    return UniformLinearParams(
        gamma=scenario.utility.gamma,
        mu=scenario.capacity.mu,
        sigma=scenario.capacity.sigma,
        lambda_da=scenario.lambda_da,
        lambda_rt=scenario.lambda_rt,
        n_prosumers=scenario.n_prosumers,
    )


def der_curves(
    scenario: GameScenario,
    source: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> tuple[SupplyCurve, SupplyCurve, str]:
    """Aggregated and direct DER supply curves, and the source that built them.

    ``source`` is ``closedform`` (exact affine, dependent-uniform linear
    scenarios only), ``numeric`` (tabulated from equilibrium solves), or
    ``auto``, which picks the closed form wherever it applies.
    """
    if source == "auto":
        use_closed = (
            scenario.capacity.kind == DEPENDENT_UNIFORM and scenario.utility.kind == LINEAR
        )
        source = "closedform" if use_closed else "numeric"
    if source == "closedform":
        params = closed_form_params(scenario)
        return aggregated_affine_curve(params), direct_affine_curve(params), source
    if source == "numeric":
        return (
            build_supply_curve_aggregated(scenario, draws=draws, seed=seed),
            build_supply_curve_direct(scenario, draws=draws, seed=seed),
            source,
        )
    raise ValidationError(f"unknown curve_source {source!r}")


def price_of_aggregation(
    scenario: GameScenario,
    generators,
    demand_per_prosumer: float,
    curve_source: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> PoAgReport:
    """Clear the market under all three participation modes and compare.

    ``curve_source`` picks how the DER curves are built (see
    :func:`der_curves`).
    """
    generators = tuple(generators)
    demand = demand_per_prosumer * scenario.n_prosumers
    agg_curve, dir_curve, curve_source = der_curves(scenario, curve_source, draws, seed)
    out_noder = clear_market(DispatchProblem(generators, demand, None, MODE_NODER))
    out_agg = clear_market(DispatchProblem(generators, demand, agg_curve, MODE_AGGREGATED))
    out_dir = clear_market(DispatchProblem(generators, demand, dir_curve, MODE_DIRECT))
    poag = out_agg.total_cost / out_dir.total_cost
    kappa_min = min(p for g in generators for p in g.marginal_prices())
    if agg_curve.price_at(0.0) < kappa_min and poag < 1.0 - 1e-9:
        raise ValidationError("competitive DER produced poag < 1; clearing is inconsistent")
    return PoAgReport(
        cost_aggregated=out_agg.total_cost,
        cost_direct=out_dir.total_cost,
        cost_noder=out_noder.total_cost,
        poag=poag,
        demand=demand,
        curve_source=curve_source,
        seed=seed,
        outcome_aggregated=out_agg,
        outcome_direct=out_dir,
        outcome_noder=out_noder,
    )
