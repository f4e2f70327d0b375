"""Stylized day-ahead market clearing and the price-of-aggregation metric.

The system operator meets an inelastic demand from dispatchable generators
plus a DER supply curve: the pooled offer under aggregated participation,
or, under direct participation, the collapsed per-prosumer offers.  Both
are read off the inverse response rho(x) on a grid of offers.  The
aggregator buying N * x pays the outlay N * x * rho(x), so its offer curve
is the slope of the lower convex hull of x * rho(x), its marginal outlay.
A prosumer bidding directly plays no cost-sharing game, so its offer
curve is the inverse response rho_1(y) of the one-prosumer game.  Every
resource, generator or DER, offers one nondecreasing piecewise-linear
supply curve, so clearing walks the merit order's knots to the price at
which cumulative supply meets demand; the clearing price is the marginal
cost of the marginal resource.  Transmission constraints are
intentionally absent and demand is a point forecast.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .agents import GameScenario
from .capacity import DEPENDENT_UNIFORM, cdf_marginal
from .closedform import (
    UniformLinearParams,
    closed_form_params,
    inverse_supply_aggregated,
    inverse_supply_direct,
)
from .equilibrium import DEFAULT_GRID_POINTS, _InverseResponse, _check_grid
from .errors import AdmissibilityError, MarketInfeasibleError, ValidationError, as_number, as_pairs
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED

TIE_RULE = "pro-rata by remaining headroom at the clearing price"

_BALANCE_RTOL = 1e-9
_DIRECT_OFFERS = 33  # offers the direct curve reads rho_1 at, besides the support ends


@dataclass(frozen=True)
class GeneratorSpec:
    """Dispatchable generator with linear cost ``kappa * Q`` on [qmin, qmax].

    The ``segments`` hook accepts a convex piecewise-linear marginal cost as
    ``(marginal_price, width)`` pairs above ``qmin``; ``qmax`` is then
    derived from the total width.  The generator bids its ``offer``, a
    :class:`SupplyCurve` like any DER offer.
    """

    kappa: float
    qmin: float = 0.0
    qmax: float = math.inf
    segments: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        for name in ("kappa", "qmin", "qmax"):
            as_number(getattr(self, name), name)
        if not (math.isfinite(self.kappa) and math.isfinite(self.qmin)) or math.isnan(self.qmax):
            raise ValidationError(
                f"kappa and qmin must be finite and qmax not NaN, got "
                f"{self.kappa}, {self.qmin}, {self.qmax}"
            )
        if self.kappa < 0.0 or self.qmin < 0.0:
            raise ValidationError("kappa and qmin must be nonnegative")
        if self.segments is not None:
            seg = as_pairs(self.segments, "segments")
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

    @cached_property
    def offer(self) -> SupplyCurve:
        """Must-run ``qmin`` at any price, then each step at its marginal price.

        Without segments the one step is [qmin, qmax] at ``kappa``.
        """
        if self.segments is None:
            return SupplyCurve(((self.qmin, self.kappa), (self.qmax, self.kappa)))
        points, q = [], self.qmin
        for p, w in self.segments:
            points += [(q, p), (q + w, p)]
            q += w
        return SupplyCurve(tuple(points))


@dataclass(frozen=True)
class SupplyCurve:
    """Nondecreasing piecewise-linear inverse supply offer.

    ``breakpoints`` are sorted (quantity, price) pairs.  The price is
    interpolated linearly between them and held flat outside them: below
    its first price the curve offers its first quantity (0 for a DER
    curve, the must-run output for a generator), and its quantity cap is
    the last quantity.  Only that last quantity may be infinite (an
    unbounded generator), and the last piece is then flat.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bps = tuple((float(q), float(p)) for q, p in self.breakpoints)
        if len(bps) < 2:
            raise ValidationError("supply curve needs at least two breakpoints")
        qs, ps = zip(*bps)
        if not (all(math.isfinite(v) for v in qs[:-1] + ps) and -math.inf < qs[-1]
                and (qs[-1] < math.inf or ps[-2] == ps[-1])):
            raise ValidationError(
                f"breakpoints must be finite but for a last quantity of +inf on a flat piece: {bps}"
            )
        if any(b < a for a, b in zip(qs, qs[1:])) or any(
            b < a - 1e-12 for a, b in zip(ps, ps[1:])
        ):
            raise ValidationError("breakpoints must be nondecreasing in quantity and price")
        object.__setattr__(self, "breakpoints", bps)

    @property
    def quantity_cap(self) -> float:
        return self.breakpoints[-1][0]

    @cached_property
    def _columns(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The quantities and the prices."""
        return tuple(zip(*self.breakpoints))

    def knot_prices(self) -> tuple[float, ...]:
        return self._columns[1]

    def price_at(self, q: float) -> float:
        """Minimum price at which quantity ``q`` is offered (inverse supply)."""
        qs, ps = self._columns
        if not qs[0] - 1e-12 <= q <= qs[-1] + 1e-12:
            warnings.warn(
                f"quantity {q:.6g} outside [{qs[0]:.6g}, {qs[-1]:.6g}]; price held flat",
                stacklevel=2,
            )
        return float(np.interp(q, qs, ps))

    def quantity_at(self, price: float) -> float:
        """Largest quantity whose marginal price does not exceed ``price``."""
        return self._quantity(price, bisect_right)

    def quantity_below(self, price: float) -> float:
        """Largest quantity with marginal price strictly below ``price``."""
        return self._quantity(price, bisect_left)

    def _quantity(self, price: float, search) -> float:
        qs, ps = self._columns
        k = search(ps, price)
        if k == 0 or k == len(ps):  # held flat outside the knots
            return qs[-1 if k else 0]
        return qs[k - 1] + (price - ps[k - 1]) * (qs[k] - qs[k - 1]) / (ps[k] - ps[k - 1])

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
class DispatchOutcome:
    cleared_generator: tuple[float, ...]
    cleared_der: float
    clearing_price: float
    total_cost: float
    demand: float

    def __post_init__(self):
        served = sum(self.cleared_generator) + self.cleared_der
        if abs(served - self.demand) > _BALANCE_RTOL * self.demand:
            raise ValidationError(
                f"supply {served!r} does not balance demand {self.demand!r}"
            )


def clear_market(
    generators, demand: float, der_supply: SupplyCurve | None = None
) -> DispatchOutcome:
    """Exact merit-order clearing by walking the offers' knots.

    The generators' offers, and ``der_supply`` if given, meet ``demand``.
    Every resource, generator or DER, offers a :class:`SupplyCurve`, so
    cumulative supply is nondecreasing and piecewise linear in price; it
    jumps or bends only at the knots, the curves' breakpoint prices.  The
    clearing price is the first knot at which supply covers demand, unless
    supply strictly below that knot already exceeds demand; then supply
    crossed demand between that knot and the one before, where it is
    linear in price, and the price is interpolated there.  Demand that
    must-run output alone meets clears at the lowest knot.  Ties at the
    clearing price split pro rata by remaining headroom (resources with
    unbounded headroom absorb the residual).
    """
    gens = tuple(generators)
    if not gens:
        raise ValidationError("the merit order needs at least one generator")
    D = demand
    if not (math.isfinite(D) and D >= 0.0):
        raise ValidationError(f"demand must be finite and nonnegative, got {D}")
    offers = tuple(g.offer for g in gens) + (() if der_supply is None else (der_supply,))
    total = sum(c.quantity_cap for c in offers)
    floor = D - _BALANCE_RTOL * D
    if total < floor:
        raise MarketInfeasibleError(
            f"total capability {total:.6g} cannot meet demand {D:.6g}", shortfall=D - total
        )
    must_run = sum(g.qmin for g in gens)
    if must_run > D * (1.0 + _BALANCE_RTOL) and must_run > 0:
        raise MarketInfeasibleError("must-run minimum exceeds demand", shortfall=must_run - D)

    def levels(p, strict=False):
        """Each offer's largest quantity priced at (strictly below) ``p``."""
        return [c.quantity_below(p) if strict else c.quantity_at(p) for c in offers]

    knots = sorted({p for c in offers for p in c.knot_prices()})
    # at the top knot every offer is at its cap, where supply is ``total``
    k = next(i for i, p in enumerate(knots) if sum(levels(p)) >= floor)
    price = knots[k]
    below = sum(levels(price, strict=True))
    if k > 0 and below > D:  # crossed on (knots[k-1], knots[k]), linear in price
        lo = knots[k - 1]
        at_lo = sum(levels(lo))
        price = lo + (D - at_lo) * (price - lo) / (below - at_lo)

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
        elif residual > _BALANCE_RTOL * D:
            # an interpolated price may leave an ulp, which the balance fix
            # below absorbs
            raise MarketInfeasibleError(
                "no headroom at the clearing price", shortfall=residual
            )
    # force exact balance against float drift
    diff = sum(alloc) - D
    if diff != 0.0:
        j = max(range(len(alloc)), key=lambda i: alloc[i])
        alloc[j] -= diff

    for g, q in zip(gens, alloc):
        if not g.qmin - 1e-9 <= q <= g.qmax + 1e-9:
            raise ValidationError(f"dispatch {q} outside [{g.qmin}, {g.qmax}]")
    cost = sum(c.cost_integral(q) for c, q in zip(offers, alloc))
    der_q = alloc[len(gens)] if len(offers) > len(gens) else 0.0
    return DispatchOutcome(tuple(alloc[:len(gens)]), der_q, price, cost, D)


def build_supply_curve_aggregated(
    inverse: _InverseResponse, n_points: int = DEFAULT_GRID_POINTS
) -> SupplyCurve:
    """Pooled offer: the slope of the lower convex hull of the outlay x * rho(x).

    At wholesale price p the aggregator buys the pooled offer N * x that
    maximises N * (p * x - R(x)) with R(x) = x * rho(x), so its offer curve
    is the slope of the lower convex hull of R: the marginal outlay
    rho + x * rho' where R is convex, ironed flat where it is not.  It
    is the hull of ``inverse``, the finite-N or the mean-field rho, that
    the leader search reads at lambda_da = p, over ``n_points`` offers on
    [0, cbar] plus the support ends (the kinks of rho).  A hull
    edge one offer wide contributes (N * midpoint, secant slope), exact
    for a quadratic R; a wider edge is ironed, flat at its slope between
    its ends, and the curve rises from its right end.  The curve starts at
    quantity 0 and is cut at the wholesale price rho_max, at which the
    followers offer their whole capacity.  Where its first point is already
    priced at rho_max, as under a first edge ironed at that slope, the cut
    is at quantity 0: the curve is the one point (0, rho_max), and the
    aggregator offers nothing at any price.
    """
    _check_grid(n_points)
    rho_min, rho_max = inverse.bounds
    n = inverse.scenario.n_prosumers
    xs, _, rs, hull = inverse.hull(n_points)
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
    if k == 0:
        return SupplyCurve(((0.0, rho_max), (0.0, rho_max)))
    if k is None:
        points.append((n * xs[-1], rho_max))
    else:
        (q0, p0), (q1, p1) = points[k - 1], points[k]
        points[k:] = [(q0 + (rho_max - p0) * (q1 - q0) / (p1 - p0), rho_max)]
    if points[0][0] > 0.0:  # a first edge one offer wide: offer nothing below its slope
        points.insert(0, (0.0, points[0][1]))
    return SupplyCurve(tuple(points))


def build_supply_curve_direct(inverse: _InverseResponse) -> SupplyCurve:
    """Tabulate the collapsed direct-participation offer of N prosumers.

    A prosumer bidding directly plays no cost-sharing game, so its offer
    curve is the inverse response of the one-prosumer game,
    rho_1(y) = E[u'(d0 + C - y)] + lambda_rt * F(y), with E[u'] read off
    the draws of ``inverse`` at its offers for ``_DIRECT_OFFERS`` points on
    [0, cbar] plus the support ends (the kinks of F, which make the curve
    exact for linear utility).  Identical prosumers collapse into one curve
    scaled by N.  Points inside a run of equal prices are dropped; the
    curve takes the maximal offer of the run at indifference.
    """
    sc, n = inverse.scenario, inverse.scenario.n_prosumers
    ys = inverse.offers(_DIRECT_OFFERS)
    rho_1 = inverse.marginal_utility(np.asarray(ys)) + sc.lambda_rt * cdf_marginal(sc.capacity, ys)
    points = []
    for y, p in zip(ys, rho_1.tolist()):
        if len(points) >= 2 and points[-2][1] == points[-1][1] == p:
            points[-1] = (n * y, p)  # stretch the flat run to its largest offer
        else:
            points.append((n * y, p))
    return SupplyCurve(tuple(points))


@dataclass(frozen=True)
class PoAgReport:
    """Market outcomes of the three participation modes and their cost ratio."""

    curve_source: str
    outcome_aggregated: DispatchOutcome
    outcome_direct: DispatchOutcome
    outcome_noder: DispatchOutcome

    @property
    def cost_aggregated(self) -> float:
        return self.outcome_aggregated.total_cost

    @property
    def cost_direct(self) -> float:
        return self.outcome_direct.total_cost

    @property
    def cost_noder(self) -> float:
        return self.outcome_noder.total_cost

    @property
    def poag(self) -> float:
        """The price of aggregation, C_agg / C_direct."""
        return self.cost_aggregated / self.cost_direct

    @property
    def demand(self) -> float:
        return self.outcome_noder.demand


def der_curves(
    scenario: GameScenario,
    source: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> tuple[dict[str, Callable[[], SupplyCurve]], str]:
    """A builder of the aggregated and of the direct DER supply curve, keyed
    ``agg`` and ``direct``, and the source that builds them.

    ``source`` is ``closedform`` (exact affine, admissible dependent-uniform
    linear scenarios only), ``numeric`` (read off one inverse response rho:
    the hull slope of x * rho(x) over ``grid_points`` offers, the hull the
    leader search reads, and its one-prosumer rho_1), or ``auto``, which
    picks the closed form wherever it is admissible and ``numeric`` elsewhere.
    A numeric curve is built only when its builder is called.
    ``grid_points`` is checked whatever the source.
    """
    _check_grid(grid_points)
    if source == "auto":
        try:
            return der_curves(scenario, "closedform", draws, seed, grid_points)
        except AdmissibilityError:  # outside the closed forms' model or band
            source = "numeric"
    if source == "closedform":
        params = closed_form_params(scenario)
        return {"agg": lambda: aggregated_affine_curve(params),
                "direct": lambda: direct_affine_curve(params)}, source
    if source == "numeric":
        inverse = _InverseResponse(scenario, draws, seed)
        return {"agg": lambda: build_supply_curve_aggregated(inverse, grid_points),
                "direct": lambda: build_supply_curve_direct(inverse)}, source
    raise ValidationError(f"unknown curve_source {source!r}")


def price_of_aggregation(
    scenario: GameScenario,
    generators,
    demand_per_prosumer: float,
    curve_source: str = "auto",
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> PoAgReport:
    """Clear the market under all three participation modes and compare.

    ``curve_source`` and ``grid_points`` pick how the DER curves are built
    (see :func:`der_curves`).
    """
    generators = tuple(generators)
    demand = demand_per_prosumer * scenario.n_prosumers
    build, curve_source = der_curves(scenario, curve_source, draws, seed, grid_points)
    agg_curve, dir_curve = build["agg"](), build["direct"]()
    noder = clear_market(generators, demand)  # first: the generators' own error wins
    report = PoAgReport(curve_source, clear_market(generators, demand, agg_curve),
                        clear_market(generators, demand, dir_curve), noder)
    if report.cost_direct == 0.0:  # zero demand, or a free generator meets all of it
        raise ValidationError("direct participation clears at zero cost: PoAg is undefined")
    # with dependent capacity the pooled offer never undercuts the direct one;
    # with iid capacity pooling hedges shortfalls and PoAg < 1 is genuine
    kappa_min = min(p for g in generators for p in g.offer.knot_prices())
    if (
        scenario.capacity.kind == DEPENDENT_UNIFORM
        and agg_curve.price_at(0.0) < kappa_min
        and report.poag < 1.0 - 1e-9
    ):
        raise ValidationError("competitive DER produced poag < 1; clearing is inconsistent")
    return report
