"""Closed-form equilibrium, inverse supply offers, and procurement costs
for fully dependent uniform capacity with linear utility.

Everything here is exact algebra, so these functions double as oracles for
the numeric solvers.  Admissibility of ``sigma`` is enforced strictly: off
the admissible band the equilibrium price path is not well defined and the
formulas below are meaningless (the numeric solvers stay defined there and
only warn).

With support ``[mu - s3, mu + s3]`` where ``s3 = sqrt(3)*sigma``:

    x*(rho)   = mu - s3 + (2/lambda_rt) * (rho - gamma) * s3      (rho >= gamma)
    rho*      = (lambda_da + gamma)/2 - lambda_rt*(mu - s3)/(4*s3)
    p_dir(x)  = lambda_rt * (x - mu + s3)/(2*s3) + gamma
    p_agg(X)  = p_dir(2X/N): at each price the aggregator offers half the direct quantity
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .agents import LINEAR, GameScenario
from .capacity import DEPENDENT_UNIFORM, SQRT3
from .errors import AdmissibilityError

#: slack used when testing band membership
_BAND_TOL = 1e-12


def closed_form_applies(scenario) -> bool:
    """Whether a game scenario is one the closed forms describe: fully
    dependent uniform capacity with linear utility."""
    return scenario.capacity.kind == DEPENDENT_UNIFORM and scenario.utility.kind == LINEAR


def sigma_band(gamma: float, mu: float, lambda_da: float, lambda_rt: float) -> tuple[float, float]:
    """Admissible [sigma_min, sigma_max] for the closed-form equilibrium."""
    sigma_min = lambda_rt * mu / (2.0 * SQRT3 * (lambda_da - gamma + lambda_rt / 2.0))
    sigma_max = mu / SQRT3
    return sigma_min, sigma_max


@dataclass(frozen=True)
class UniformLinearParams:
    """Parameter tuple on which the closed forms are valid."""

    gamma: float
    mu: float
    sigma: float
    lambda_da: float
    lambda_rt: float
    n_prosumers: int = 1

    def __post_init__(self):
        if not self.lambda_da > self.gamma:
            raise AdmissibilityError(
                f"lambda_da={self.lambda_da} must exceed gamma={self.gamma}"
            )
        if self.lambda_rt <= 0.0 or self.mu <= 0.0 or self.gamma <= 0.0:
            raise AdmissibilityError("gamma, mu and lambda_rt must be positive")
        lo, hi = sigma_band(self.gamma, self.mu, self.lambda_da, self.lambda_rt)
        if self.sigma < lo - _BAND_TOL:
            raise AdmissibilityError(
                f"sigma={self.sigma:.6g} below the admissible minimum {lo:.6g} "
                "(equilibrium price would fall under marginal utility)"
            )
        if self.sigma > hi + _BAND_TOL:
            raise AdmissibilityError(
                f"sigma={self.sigma:.6g} above the admissible maximum {hi:.6g} "
                "(capacity support would leave [0, cbar])"
            )
        if self.n_prosumers < 1:
            raise AdmissibilityError("n_prosumers must be >= 1")

    @property
    def half_width(self) -> float:
        """Half the support width, sqrt(3)*sigma."""
        return SQRT3 * self.sigma

    @property
    def support(self) -> tuple[float, float]:
        return (self.mu - self.half_width, self.mu + self.half_width)


def closed_form_params(scenario: GameScenario) -> UniformLinearParams:
    """Closed-form parameters of a dependent-uniform linear scenario, else AdmissibilityError."""
    if not closed_form_applies(scenario):
        raise AdmissibilityError(
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


@dataclass(frozen=True)
class AffineOfferCurve:
    """Per-prosumer offer x*(rho) = base + slope * (rho - gamma), rho in
    [gamma, gamma + lambda_rt]."""

    gamma: float
    base: float
    slope: float

    def __call__(self, rho):
        out = self.base + self.slope * (np.asarray(rho, dtype=float) - self.gamma)
        return out if out.ndim else float(out)


def closed_form_equilibrium(p: UniformLinearParams) -> tuple[float, AffineOfferCurve]:
    """Equilibrium leader price and the affine follower response map."""
    s3 = p.half_width
    rho_star = 0.5 * (p.lambda_da + p.gamma) - p.lambda_rt * (p.mu - s3) / (4.0 * s3)
    if rho_star > p.gamma + p.lambda_rt + _BAND_TOL:
        warnings.warn(
            "equilibrium price exceeds the offer-cap price; closed form is not "
            "valid when the capacity bound binds",
            stacklevel=2,
        )
    curve = AffineOfferCurve(gamma=p.gamma, base=p.mu - s3, slope=2.0 * s3 / p.lambda_rt)
    return rho_star, curve


def inverse_supply_aggregated(p: UniformLinearParams, x_total):
    """Minimum wholesale price at which the aggregator, offering half the direct
    quantity at each price, sells ``x_total``: p_dir(2X/N), which extrapolates with
    its warning outside the effective range [0, N*(mu + sqrt(3)*sigma)/2]."""
    x = 2.0 * np.asarray(x_total, dtype=float) / p.n_prosumers
    return inverse_supply_direct(p, x, _stacklevel=3)  # warn at our caller's line


def inverse_supply_direct(p: UniformLinearParams, x, _stacklevel=2):
    """Minimum price at which one prosumer sells ``x`` in the benchmark."""
    s3, top = p.half_width, p.support[1]
    xa = np.asarray(x, dtype=float)
    # slack relative to the support top: the game has no unit of capacity, and
    # the aggregated top 2X/N can round an ulp past it
    if np.any(xa < -1e-12 * top) or np.any(xa > top * (1.0 + 1e-12)):
        warnings.warn(
            f"prosumer quantity outside [0, {top:.6g}]; extrapolating",
            stacklevel=_stacklevel,
        )
    out = p.lambda_rt * (xa - p.mu + s3) / (2.0 * s3) + p.gamma
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ProcurementCosts:
    """Per-prosumer procurement costs of the three participation modes."""

    cost_aggregated: float
    cost_direct: float
    cost_noder: float
    q_star: float

    @property
    def poag(self) -> float:
        """The price of aggregation, C_agg / C_direct."""
        return self.cost_aggregated / self.cost_direct


def procurement_costs(
    p: UniformLinearParams, kappa: float, demand_per_prosumer: float
) -> ProcurementCosts:
    """Costs of serving demand with one marginal-cost-``kappa`` generator.

    ``q_star`` is the per-prosumer quantity the benchmark clears; the
    aggregated mode clears exactly half of it.  Returns costs scaled per
    prosumer; the cost ordering ``kappa*D >= aggregated >= direct`` holds on
    the whole admissible band.
    """
    if not kappa > p.gamma:
        raise AdmissibilityError(f"kappa={kappa} must exceed gamma={p.gamma}")
    s3 = p.half_width
    q_star = p.mu - s3 + (2.0 / p.lambda_rt) * (kappa - p.gamma) * s3
    if q_star > p.mu + s3 + 1e-12:
        raise AdmissibilityError(
            f"cleared quantity {q_star:.6g} exceeds the support top "
            f"{p.mu + s3:.6g} (kappa must stay below gamma + lambda_rt)"
        )
    margin = kappa - p.gamma + p.lambda_rt * (p.mu - s3) / (2.0 * s3) - q_star * p.lambda_rt / (4.0 * s3)
    cost_noder = kappa * demand_per_prosumer
    cost_aggregated = cost_noder - 0.5 * q_star * margin
    cost_direct = cost_noder - q_star * margin
    if not (cost_noder >= cost_aggregated - 1e-9 and cost_aggregated >= cost_direct - 1e-9):
        raise AdmissibilityError("cost ordering violated; parameters are off the admissible band")
    return ProcurementCosts(cost_aggregated, cost_direct, cost_noder, q_star)
