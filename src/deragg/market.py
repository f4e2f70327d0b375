"""Stylized day-ahead market clearing and the price-of-aggregation metric.

The system operator meets an inelastic demand from dispatchable generators
plus a DER supply curve: the pooled offer under aggregated participation,
or, under direct participation, the collapsed per-prosumer offers.  Both
are read off the inverse response rho(x) on a grid of offers.  The
aggregator buying N * x pays the outlay N * x * rho(x), so its offer curve
is the slope of the lower convex hull of x * rho(x), its marginal outlay.
A prosumer bidding directly plays no cost-sharing game, so its offer
curve is the inverse response rho_1(y) of the one-prosumer game.  All
supply is nondecreasing and piecewise linear in price, so clearing walks
the merit order's knots to the price at which cumulative supply meets
demand; the clearing price is the marginal cost of the marginal
resource.  Transmission constraints are intentionally absent and demand
is a point forecast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .agents import GameScenario
from .capacity import DEPENDENT_UNIFORM
from .closedform import (
    UniformLinearParams,
    closed_form_applies,
    inverse_supply_aggregated,
    inverse_supply_direct,
)
from .equilibrium import _InverseResponse
from .errors import MarketInfeasibleError, ValidationError
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

MODE_AGGREGATED = "aggregated"
MODE_DIRECT = "direct"
MODE_NODER = "noder"
_MODES = (MODE_AGGREGATED, MODE_DIRECT, MODE_NODER)

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
        if not (math.isfinite(self.kappa) and math.isfinite(self.qmin)) or math.isnan(self.qmax):
            raise ValidationError(
                f"kappa and qmin must be finite and qmax not NaN, got "
                f"{self.kappa}, {self.qmin}, {self.qmax}"
            )
        if self.kappa < 0.0 or self.qmin < 0.0:
            raise ValidationError("kappa and qmin must be nonnegative")
        if self.segments is not None:
            seg = tuple((float(p), float(w)) for p, w in self.segments)
            prices = [p for p, _ in seg]
            widths = [w for _, w in seg]
            if not all(math.isfinite(v) for v in prices + widths):
                raise ValidationError(f"segment prices and widths must be finite, got {seg}")
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
    """Nondecreasing piecewise-linear inverse supply offer.

    ``breakpoints`` are sorted (quantity, price) pairs.  The price is
    interpolated linearly between them and held flat outside them; the
    quantity cap is the last quantity.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(q), float(p)) for q, p in self.breakpoints)
        if len(bps) < 2:
            raise ValidationError("supply curve needs at least two breakpoints")
        if not all(math.isfinite(v) for bp in bps for v in bp):
            raise ValidationError(f"supply curve breakpoints must be finite, got {bps}")
        qs, ps = zip(*bps)
        if any(b < a for a, b in zip(qs, qs[1:])) or any(
            b < a - 1e-12 for a, b in zip(ps, ps[1:])
        ):
            raise ValidationError("breakpoints must be nondecreasing in quantity and price")
        object.__setattr__(self, "breakpoints", bps)

    @property
    def quantity_cap(self) -> float:
        return self.breakpoints[-1][0]

    @cached_property
    def _table(self) -> np.ndarray:
        """Rows of quantities and prices."""
        return np.array(list(zip(*self.breakpoints)))

    def knot_prices(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.breakpoints)

    def price_at(self, q: float) -> float:
        """Minimum price at which quantity ``q`` is offered (inverse supply)."""
        if q < -1e-12 or q > self.quantity_cap + 1e-12:
            warnings.warn(
                f"quantity {q:.6g} outside [0, {self.quantity_cap:.6g}]; price held flat",
                stacklevel=2,
            )
        qs, ps = self._table
        return float(np.interp(q, qs, ps))

    def quantity_at(self, price: float) -> float:
        """Largest quantity whose marginal price does not exceed ``price``."""
        return self._quantity(price, "right")

    def quantity_below(self, price: float) -> float:
        """Largest quantity with marginal price strictly below ``price``."""
        return self._quantity(price, "left")

    def _quantity(self, price: float, side: str) -> float:
        qs, ps = self._table
        k = int(np.searchsorted(ps, price, side))
        if k == 0:
            return 0.0
        if k == len(ps):
            return self.quantity_cap
        return float(qs[k - 1] + (price - ps[k - 1]) * (qs[k] - qs[k - 1]) / (ps[k] - ps[k - 1]))

    def cost_integral(self, q: float) -> float:
        """Integral of the inverse supply from 0 to ``q`` (procurement cost)."""
        if q < -1e-12:
            raise ValidationError("quantity must be nonnegative")
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
    cap = p.n_prosumers * (p.mu + p.half_width) / 2.0
    return SupplyCurve(tuple((x, inverse_supply_aggregated(p, x)) for x in (0.0, cap)))


def direct_affine_curve(p: UniformLinearParams) -> SupplyCurve:
    """Collapsed inverse supply of N identical prosumers bidding directly."""
    n, top = p.n_prosumers, p.mu + p.half_width
    return SupplyCurve(tuple((n * x, inverse_supply_direct(p, x)) for x in (0.0, top)))


@dataclass(frozen=True)
class DispatchProblem:
    generators: tuple[GeneratorSpec, ...]
    demand: float
    der_supply: SupplyCurve | None
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValidationError("the merit order needs at least one generator")
        if not (math.isfinite(self.demand) and self.demand >= 0.0):
            raise ValidationError(f"demand must be finite and nonnegative, got {self.demand}")
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
    """Exact merit-order clearing by walking the supply knots.

    Cumulative supply is nondecreasing and piecewise linear in price; it
    jumps or bends only at the knots, which are the generators' marginal
    prices and the DER curve's breakpoint prices.  The clearing price is
    the first knot at which supply covers demand, unless the DER curve
    alone closes the gap on the open interval below that knot; then the
    price is read off the curve.  Ties at the clearing price split pro rata
    by remaining headroom (resources with unbounded headroom absorb the
    residual).
    """
    D = problem.demand
    gens = problem.generators
    curve = problem._curve()

    def levels(p, strict=False):
        """Each resource's largest output priced at (strictly below) ``p``."""
        out = [g.supply_below(p) if strict else g.supply_at(p) for g in gens]
        if curve is not None:
            out.append(curve.quantity_below(p) if strict else curve.quantity_at(p))
        return out

    knots = sorted({p for g in gens for p in g.marginal_prices()}
                   | set(curve.knot_prices() if curve is not None else ()))
    if sum(levels(knots[0], strict=True)) >= D:
        price = knots[0] - 1.0  # demand met by must-run output alone
    else:
        floor = D - _BALANCE_RTOL * max(D, 1.0)
        k = next((i for i, p in enumerate(knots) if sum(levels(p)) >= floor), None)
        if k is None:
            raise MarketInfeasibleError(
                "supply exhausted below demand", shortfall=D - sum(levels(knots[-1]))
            )
        price = knots[k]
        below = levels(price, strict=True)
        if sum(below) > D:
            # between two knots only the DER curve moves
            price = max(curve.price_at(D - sum(below[:-1])), knots[k - 1])

    base = levels(price, strict=True)
    at = levels(price)
    head = [max(a - b, 0.0) for a, b in zip(at, base)]
    residual = D - sum(base)
    alloc = list(base)
    if residual > 0.0:
        infinite = [i for i, h in enumerate(head) if math.isinf(h)]
        total_head = sum(head)
        if infinite:
            for i in infinite:
                alloc[i] += residual / len(infinite)
        elif total_head > 0.0:
            for i, h in enumerate(head):
                alloc[i] += residual * h / total_head
        elif residual > _BALANCE_RTOL * max(D, 1.0):
            # a price read off the DER curve may leave an ulp, which the
            # balance fix below absorbs
            raise MarketInfeasibleError(
                "no headroom at the clearing price", shortfall=residual
            )
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


def _offers(model, n_points: int) -> list[float]:
    """``n_points`` offers on [0, cbar] plus the support ends (the kinks of F)."""
    # a sorted set, not np.unique, whose first call raises the process's peak memory
    return sorted({*np.linspace(0.0, model.cbar, n_points).tolist(), *model.support})


def build_supply_curve_aggregated(
    scenario: GameScenario,
    n_points: int = 256,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> SupplyCurve:
    """Pooled offer: the slope of the lower convex hull of the outlay x * rho(x).

    At wholesale price p the aggregator buys the pooled offer N * x that
    maximises N * (p * x - R(x)) with R(x) = x * rho(x), so its offer curve
    is the slope of the lower convex hull of R: the marginal outlay
    rho + x * rho' where R is convex, ironed flat where it is not.  R is
    read off at ``n_points`` offers on [0, cbar] plus the support ends
    (the kinks of rho), all from one inverse-response table.  A hull
    edge one offer wide contributes (N * midpoint, secant slope), exact
    for a quadratic R; a wider edge is ironed, flat at its slope between
    its ends, and the curve rises from its right end.  The curve is cut at
    the wholesale price rho_max, at which the followers offer their whole
    capacity.
    """
    rho = _InverseResponse(scenario, draws, seed)
    rho_min, rho_max = rho.bounds
    n = scenario.n_prosumers
    xs = _offers(scenario.capacity, n_points)
    rs = [x * rho(x) for x in xs]
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
    points = []
    for a, b in zip(hull, hull[1:]):
        slope = (rs[b] - rs[a]) / (xs[b] - xs[a])
        if b == a + 1:
            points.append((n * 0.5 * (xs[a] + xs[b]), slope))
        else:
            points += [(n * xs[a], slope), (n * xs[b], slope)]
    # cut the curve at rho_max, above which the followers offer all they
    # have; a point a rounding error below it is cut too, not kept next to
    # the cut
    tol = 1e-12 * (rho_max - rho_min)
    k = next((k for k, (_, p) in enumerate(points) if p > rho_max - tol), None)
    if k is None:
        points.append((n * xs[-1], rho_max))
    else:
        (q0, p0), (q1, p1) = points[k - 1], points[k]
        points[k:] = [(q0 + (rho_max - p0) * (q1 - q0) / (p1 - p0), rho_max)]
    return SupplyCurve(tuple(points))


def build_supply_curve_direct(
    scenario: GameScenario,
    n_points: int = 33,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> SupplyCurve:
    """Tabulate the collapsed direct-participation offer of N prosumers.

    A prosumer bidding directly plays no cost-sharing game, so its offer
    curve is the inverse response of the one-prosumer game,
    rho_1(y) = E[u'(d0 + C - y)] + lambda_rt * F(y), read off at
    ``n_points`` offers on [0, cbar] plus the support ends (the kinks of
    F, which make the curve exact for linear utility).  Identical
    prosumers collapse into one curve scaled by N.  Points inside a run of
    equal prices are dropped; the curve takes the maximal offer of the run
    at indifference.
    """
    rho_1 = _InverseResponse(replace(scenario, n_prosumers=1), draws, seed)
    n = scenario.n_prosumers
    points = []
    for y in _offers(scenario.capacity, n_points):
        p = rho_1(y)
        if len(points) >= 2 and points[-2][1] == points[-1][1] == p:
            points[-1] = (n * y, p)  # stretch the flat run to its largest offer
        else:
            points.append((n * y, p))
    return SupplyCurve(tuple(points))


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
    if not closed_form_applies(scenario):
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
    scenarios only), ``numeric`` (read off the inverse response rho: the
    hull slope of x * rho(x) and the one-prosumer rho_1), or ``auto``,
    which picks the closed form wherever it applies.
    """
    if source == "auto":
        source = "closedform" if closed_form_applies(scenario) else "numeric"
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
    # with dependent capacity the pooled offer never undercuts the direct one;
    # with iid capacity pooling hedges shortfalls and PoAg < 1 is genuine
    kappa_min = min(p for g in generators for p in g.marginal_prices())
    if (
        scenario.capacity.kind == DEPENDENT_UNIFORM
        and agg_curve.price_at(0.0) < kappa_min
        and poag < 1.0 - 1e-9
    ):
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
