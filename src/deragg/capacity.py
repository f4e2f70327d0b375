"""Probabilistic models of prosumer DER capacity.

Three regimes: capacity deterministically equal to the installed limit,
a single uniform capacity shared by every prosumer (full dependence), and
iid uniform capacities.  The uniform kinds are parameterized by mean ``mu``
and standard deviation ``sigma`` and supported on
``[mu - sqrt(3)*sigma, mu + sqrt(3)*sigma]``, which must lie inside
``[0, cbar]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOperationError, ValidationError

SQRT3 = math.sqrt(3.0)

DETERMINISTIC = "deterministic"
DEPENDENT_UNIFORM = "dependent_uniform"
IID_UNIFORM = "iid_uniform"

UNIFORM_KINDS = (DEPENDENT_UNIFORM, IID_UNIFORM)
_KINDS = (DETERMINISTIC,) + UNIFORM_KINDS

# slack for support-inside-[0, cbar] checks
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class CapacityModel:
    """Distribution of a single prosumer capacity draw.

    Use the module-level constructors (:func:`deterministic`,
    :func:`dependent_uniform`, :func:`iid_uniform`) rather than building
    instances directly.
    """

    kind: str
    cbar: float
    mu: float
    sigma: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown capacity kind {self.kind!r}")
        if not (math.isfinite(self.cbar) and self.cbar >= 0.0):
            raise ValidationError(f"cbar must be finite and >= 0, got {self.cbar}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValidationError(f"mu and sigma must be finite, got {self.mu}, {self.sigma}")
        if self.kind == DETERMINISTIC:
            if self.sigma != 0.0 or self.mu != self.cbar:
                raise ValidationError("deterministic kind requires mu == cbar and sigma == 0")
            return
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(
                "uniform kinds need sigma > 0; for a point mass use deterministic(cbar=mu)"
            )
        lo, hi = self.support
        if lo < -_EDGE_TOL:
            raise ValidationError(f"support low end {lo:.6g} < 0 (mu - sqrt(3)*sigma must be >= 0)")
        if hi > self.cbar + _EDGE_TOL:
            raise ValidationError(
                f"support high end {hi:.6g} exceeds cbar={self.cbar:.6g}"
            )

    @property
    def support(self) -> tuple[float, float]:
        """Interval carrying all probability mass."""
        if self.kind == DETERMINISTIC:
            return (self.cbar, self.cbar)
        return (self.mu - SQRT3 * self.sigma, self.mu + SQRT3 * self.sigma)

    @property
    def mean(self) -> float:
        return self.mu


def deterministic(cbar: float) -> CapacityModel:
    """Capacity equal to ``cbar`` with probability one."""
    return CapacityModel(DETERMINISTIC, float(cbar), float(cbar), 0.0)


def dependent_uniform(mu: float, sigma: float, cbar: float | None = None) -> CapacityModel:
    """All prosumers share one uniform draw; ``cbar`` defaults to the support top."""
    if cbar is None:
        cbar = mu + SQRT3 * sigma
    return CapacityModel(DEPENDENT_UNIFORM, float(cbar), float(mu), float(sigma))


def iid_uniform(mu: float, sigma: float, cbar: float | None = None) -> CapacityModel:
    """Independent uniform draws per prosumer; ``cbar`` defaults to the support top."""
    if cbar is None:
        cbar = mu + SQRT3 * sigma
    return CapacityModel(IID_UNIFORM, float(cbar), float(mu), float(sigma))


def cdf_marginal(model: CapacityModel, c):
    """Marginal cdf of one prosumer's capacity, vectorized over ``c``.

    Undefined (step function) for the deterministic kind; callers must
    branch on ``model.kind`` there.
    """
    if model.kind not in UNIFORM_KINDS:
        raise UnsupportedOperationError(
            "cdf_marginal is a step for deterministic capacity; branch on model.kind"
        )
    lo, hi = model.support
    out = np.clip((np.asarray(c, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return out if out.ndim else float(out)


def expected_shortfall(model: CapacityModel, x):
    """E[(x - C)+], the mean undersupply when offering ``x``.

    Closed form for the uniform kinds: 0 below the support,
    ``(x - lo)^2 / (2*(hi - lo))`` inside, ``x - mu`` above.
    """
    xa = np.asarray(x, dtype=float)
    if model.kind == DETERMINISTIC:
        out = np.maximum(xa - model.cbar, 0.0)
        return out if out.ndim else float(out)
    lo, hi = model.support
    inside = np.clip(xa, lo, hi)
    out = np.where(xa < hi, (inside - lo) ** 2 / (2.0 * (hi - lo)), xa - model.mu)
    return out if out.ndim else float(out)


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is a valid stream key, 0 <= seed < 2**128.

    The Philox stream of :func:`sample` takes its seed as a 128-bit key.
    """
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be >= 0 and < 2**128, got {seed}")
    return seed


def sample(model: CapacityModel, n: int, rng_seed: int, draws: int = 1) -> np.ndarray:
    """Draw capacity vectors, shape ``(draws, n)``.

    Uses a counter-based Philox stream so draws are reproducible given the
    seed and independent across distinct seeds.
    """
    check_seed(rng_seed)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    if model.kind == DETERMINISTIC:
        return np.full((draws, n), model.cbar, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=int(rng_seed)))
    lo, hi = model.support
    if model.kind == DEPENDENT_UNIFORM:
        shared = rng.uniform(lo, hi, size=draws)
        return np.repeat(shared[:, None], n, axis=1)
    return rng.uniform(lo, hi, size=(draws, n))
