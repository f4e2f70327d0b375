"""Prosumer and aggregator objectives for the procurement game.

A prosumer selling ``x`` keeps ``rho * x`` plus the utility of consuming
``d0 + C - x`` and owes an expected shortfall share.  The aggregator earns
the day-ahead arbitrage margin on the pooled offer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .capacity import CapacityModel, sample
from .errors import ValidationError
from .penalty import DEFAULT_DRAWS, DEFAULT_SEED, expected_penalty

LINEAR = "linear"
TABULATED = "tabulated"


@dataclass(frozen=True)
class UtilitySpec:
    """Consumption utility: linear ``u(z) = gamma * z``, or a tabulated
    nonincreasing marginal-utility curve for general concave shapes."""

    kind: str
    gamma: float = 0.0
    marginal_points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == LINEAR:
            if not (math.isfinite(self.gamma) and self.gamma > 0.0):
                raise ValidationError(f"linear utility needs finite gamma > 0, got {self.gamma}")
            return
        if self.kind != TABULATED:
            raise ValidationError(f"unknown utility kind {self.kind!r}")
        pts = self.marginal_points
        if not pts or len(pts) < 2:
            raise ValidationError("tabulated utility needs at least two (z, marginal) points")
        z = np.asarray([p[0] for p in pts], dtype=float)
        m = np.asarray([p[1] for p in pts], dtype=float)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(m))):
            raise ValidationError("tabulated utility points must be finite")
        if np.any(np.diff(z) <= 0.0):
            raise ValidationError("tabulated z grid must be strictly increasing")
        if np.any(m < 0.0) or np.any(np.diff(m) > 1e-12):
            raise ValidationError("tabulated marginal utility must be nonnegative and nonincreasing")
        object.__setattr__(self, "marginal_points", tuple((float(a), float(b)) for a, b in pts))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table knots, u' there, and the integral of u' from the first knot."""
        zs = np.asarray([p[0] for p in self.marginal_points])
        ms = np.asarray([p[1] for p in self.marginal_points])
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (ms[1:] + ms[:-1]) * np.diff(zs))])
        return zs, ms, cum

    def marginal(self, z):
        """u'(z), vectorized; constant extrapolation outside the table."""
        if self.kind == LINEAR:
            out = np.full_like(np.asarray(z, dtype=float), self.gamma)
            return out if out.ndim else float(out)
        zs, ms, _ = self._table
        out = np.interp(np.asarray(z, dtype=float), zs, ms)
        return out if out.ndim else float(out)

    def value(self, z):
        """u(z) with u(0) = 0; exact, since the tabulated u' is piecewise linear."""
        za = np.asarray(z, dtype=float)
        if self.kind == LINEAR:
            out = self.gamma * za
            return out if out.ndim else float(out)
        zs, ms, cum = self._table

        def integral(t):  # from the first knot: trapezoid on the segment holding t
            k = np.clip(np.searchsorted(zs, t, side="right") - 1, 0, len(zs) - 1)
            return cum[k] + 0.5 * (t - zs[k]) * (ms[k] + np.interp(t, zs, ms))

        out = integral(za) - integral(0.0)
        return out if out.ndim else float(out)


def linear_utility(gamma: float) -> UtilitySpec:
    return UtilitySpec(LINEAR, gamma=float(gamma))


def tabulated_utility(points) -> UtilitySpec:
    return UtilitySpec(TABULATED, marginal_points=tuple(points))


@dataclass(frozen=True)
class GameScenario:
    """One instance of the pricing game between the aggregator and N prosumers."""

    n_prosumers: int
    d0: float
    capacity: CapacityModel
    utility: UtilitySpec
    lambda_da: float
    lambda_rt: float

    def __post_init__(self):
        n = self.n_prosumers
        if not (math.isfinite(n) and int(n) == n >= 1):
            raise ValidationError(f"n_prosumers must be a positive integer, got {self.n_prosumers}")
        object.__setattr__(self, "n_prosumers", int(n))
        for name in ("d0", "lambda_da", "lambda_rt"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.d0 > self.capacity.cbar:
            raise ValidationError(
                f"d0={self.d0} must exceed installed capacity cbar={self.capacity.cbar}"
            )
        if self.lambda_da < 0.0:
            raise ValidationError(f"lambda_da must be nonnegative, got {self.lambda_da}")
        if not self.lambda_rt > 0.0:
            # the first-order condition divides by the real-time price
            raise ValidationError(f"lambda_rt must be positive, got {self.lambda_rt}")


class _MarginalUtilityDraws:
    """Monte-Carlo E[u'(d0 + C - x)] over one set of capacity draws.

    The draws are sampled once, sorted, and kept with their prefix sums.
    u' is linear between the table knots z_k, with value m_k and slope
    s_k, and held flat outside them; in capacity space the knots sit at
    z_k - d0 + x.  One ``searchsorted`` of those points gives each
    segment's draw count n_k and draw sum S_k, and the mean over the draws
    is  (sum_k n_k*(m_k + s_k*(d0 - x - z_k)) + s_k*S_k  plus the flat
    ends) / draws: the per-draw mean summed in another order.
    """

    def __init__(self, scenario: GameScenario, draws: int, seed: int):
        self.d0 = scenario.d0
        self.zs, self.ms, _ = scenario.utility._table
        self.slopes = np.diff(self.ms) / np.diff(self.zs)
        self.caps = np.sort(sample(scenario.capacity, 1, seed, draws)[:, 0])
        self.prefix = np.concatenate([[0.0], np.cumsum(self.caps)])

    def __call__(self, x):
        """E[u'] at offer ``x``, a scalar or an array of offers."""
        x = np.asarray(x, dtype=float)[..., None]
        draws = len(self.caps)
        idx = np.searchsorted(self.caps, self.zs - self.d0 + x)  # draws below each knot
        count = np.diff(idx)
        total = np.diff(self.prefix[idx])
        zs, ms, s = self.zs, self.ms, self.slopes
        inner = count * (ms[:-1] + s * (self.d0 - x - zs[:-1])) + s * total
        out = (ms[0] * idx[..., 0] + inner.sum(axis=-1) + ms[-1] * (draws - idx[..., -1])) / draws
        return out if out.ndim else float(out)


def expected_marginal_utility(
    scenario: GameScenario,
    x: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> float:
    """E[u'(d0 + C - x)]; exact for linear utility, Monte Carlo otherwise.

    ``x`` may be an array of offers, all read off one set of draws.
    """
    if not np.isfinite(x).all():
        raise ValidationError(f"offer must be finite, got {x}")
    u = scenario.utility
    if u.kind == LINEAR:
        return u.marginal(x)  # u' = gamma whatever the consumption
    return _MarginalUtilityDraws(scenario, draws, seed)(x)


def expected_utility(
    scenario: GameScenario,
    x: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> float:
    """E[u(d0 + C - x)]; exact for linear utility, Monte Carlo otherwise."""
    u = scenario.utility
    if u.kind == LINEAR:
        return u.gamma * (scenario.d0 + scenario.capacity.mean - x)
    caps = sample(scenario.capacity, 1, seed, draws)[:, 0]
    return float(np.mean(u.value(scenario.d0 + caps - x)))


def prosumer_payoff(
    scenario: GameScenario,
    rho: float,
    x_i: float,
    x_others: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> float:
    """Expected payoff of one prosumer offering ``x_i`` against symmetric rivals.

    Nominal demand is bought at a fixed retail rate and only shifts the
    payoff by a constant, so it is not modeled beyond its appearance in the
    utility argument.
    """
    comp = rho * x_i
    util = expected_utility(scenario, x_i, draws=draws, seed=seed)
    pen = expected_penalty(scenario, x_i, x_others, draws=draws, seed=seed)
    return comp + util - pen


@dataclass(frozen=True)
class SolverDiagnostics:
    """What the equilibrium search did and whether its assumptions held."""

    grid_points: int  # offers the hull was built on
    refine_iterations: int
    concavity_ok: bool
    multiple_maxima: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EquilibriumResult:
    """Leader price, symmetric follower offer, and solve diagnostics."""

    rho_star: float
    x_star: float
    aggregate_x: float
    leader_profit: float
    n_prosumers: int
    cbar: float
    lambda_da: float
    diagnostics: SolverDiagnostics = field(repr=False, default=None)

    def __post_init__(self):
        tol = 1e-9 * (1.0 + abs(self.cbar))
        if not -tol <= self.x_star <= self.cbar + tol:
            raise ValidationError(f"x_star={self.x_star} outside [0, cbar={self.cbar}]")
        if not -tol <= self.rho_star <= self.lambda_da + tol:
            raise ValidationError(f"rho_star={self.rho_star} outside [0, lambda_da={self.lambda_da}]")
        if abs(self.aggregate_x - self.n_prosumers * self.x_star) > tol * self.n_prosumers:
            raise ValidationError("aggregate_x must equal n_prosumers * x_star")
