"""Shortfall cost sharing among prosumers.

When realized aggregate capacity falls short of the pooled offer, the
buy-back cost ``lambda_rt * (X - sum(C))+`` is split across prosumers in
proportion to their individual shortfalls ``(x_i - C_i)+``.  A prosumer who
covers their own offer pays nothing, shares always sum to the pool penalty,
and equal shortfalls pay equal shares.
"""

from __future__ import annotations

import numpy as np

from .capacity import check_offer, sample
from .errors import ValidationError

#: fewest draws :func:`expected_penalty` accepts; no solver reads that expectation
MIN_DRAWS = 10_000
DEFAULT_DRAWS = 100_000
DEFAULT_SEED = 0


def penalty_shares(offers, capacities, lambda_rt: float) -> np.ndarray:
    """Penalty share of every prosumer, for one draw or a batch of draws.

    ``capacities`` of shape ``(draws, n)`` broadcasts against 1-D
    ``offers`` and yields shares of the same shape.  The 0/0 case (nobody
    short) is defined as zero, which keeps the shares summing exactly to
    the pool penalty.
    """
    x = np.asarray(offers, dtype=float)
    c = np.asarray(capacities, dtype=float)
    lam = np.asarray(lambda_rt, dtype=float)
    shortfall = np.maximum(x - c, 0.0)
    pool = np.maximum(x.sum(axis=-1) - c.sum(axis=-1), 0.0)
    denom = shortfall.sum(axis=-1)
    safe = np.where(denom > 0.0, denom, 1.0)
    return (lam * pool)[..., None] * shortfall / safe[..., None]


def penalty_draws(scenario, x_i: float, x_others: float, draws: int, seed: int) -> np.ndarray:
    """Per-draw penalty of prosumer 0 when every rival offers ``x_others``.

    Exposed so callers can form common-random-number differences and
    standard errors; :func:`expected_penalty` is its mean.
    """
    check_offer(scenario.capacity, x_i)
    check_offer(scenario.capacity, x_others)
    n = scenario.n_prosumers
    offers = np.full(n, float(x_others))
    offers[0] = float(x_i)
    caps = sample(scenario.capacity, n, seed, draws)
    return penalty_shares(offers, caps, scenario.lambda_rt)[:, 0]


def expected_penalty(
    scenario,
    x_i: float,
    x_others: float,
    draws: int = DEFAULT_DRAWS,
    seed: int = DEFAULT_SEED,
) -> float:
    """Monte-Carlo expected penalty share at symmetric rival offers.

    The buy-back price enters only through its mean, so ``lambda_rt`` in
    the scenario is treated as that expectation.  Deterministic given the
    seed.
    """
    if draws < MIN_DRAWS:
        raise ValidationError(f"draws={draws} is below the {MIN_DRAWS} floor")
    return float(penalty_draws(scenario, x_i, x_others, draws, seed).mean())

