import math

import numpy as np
import pytest

import deragg as dg
from deragg.capacity import DEPENDENT_UNIFORM, IID_UNIFORM, check_offer


def uniform_cdf_by_quadrature(model, c, n=200_001):
    # oracle: integrate the flat density numerically instead of using the formula
    lo, hi = model.support
    grid = np.linspace(lo, min(c, hi), n)
    dens = np.full(n, 1.0 / (hi - lo))
    return 0.0 if c <= lo else float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))


def ks_distance(samples, cdf):
    s = np.sort(samples)
    n = len(s)
    theo = cdf(s)
    upper = np.arange(1, n + 1) / n - theo
    lower = theo - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def test_validation_rejects_zero_sigma():
    with pytest.raises(dg.ValidationError, match="deterministic"):
        dg.dependent_uniform(10.0, 0.0)


def test_validation_support_bounds():
    with pytest.raises(dg.ValidationError):
        dg.iid_uniform(1.0, 1.0)  # lower end below zero
    with pytest.raises(dg.ValidationError):
        dg.iid_uniform(10.0, 3.3, cbar=12.0)  # support exceeds cbar
    with pytest.raises(dg.ValidationError):
        dg.CapacityModel("gaussian", 1.0, 1.0, 0.1)


@pytest.mark.parametrize("s", [1e-10, 1.0, 1e8, 1e10])
@pytest.mark.parametrize("build", [dg.dependent_uniform, dg.iid_uniform])
def test_support_checks_have_no_unit_of_capacity(build, s):
    # supports that touch 0 or cbar up to rounding are in at every scale, and
    # a cbar 1% below the support top is out at every scale
    mu = 7.3 * s
    touching = build(mu, mu * (1.0 + 2e-12) / dg.SQRT3)
    assert -1e-11 * mu < touching.support[0] < 0.0
    assert build(mu, 3.3 * s, cbar=s * (7.3 + dg.SQRT3 * 3.3)).mu == mu
    with pytest.raises(dg.ValidationError, match="exceeds cbar"):
        build(mu, 3.3 * s, cbar=0.99 * (mu + dg.SQRT3 * 3.3 * s))


@pytest.mark.parametrize("cbar", [1e-10, 1.0, 1e10])
def test_offer_check_has_no_unit_of_capacity(cbar):
    model = dg.deterministic(cbar)
    check_offer(model, 0.0)
    check_offer(model, cbar * (1.0 + 1e-13))
    for x in (-1e-20, cbar * (1.0 + 1e-9), math.nan):
        with pytest.raises(dg.ValidationError, match="outside \\[0, cbar="):
            check_offer(model, x)


def test_cbar_above_the_overflow_bound_is_rejected():
    # the solvers square cbar: at 1e154 that overflows a float
    with pytest.raises(dg.ValidationError, match=r"cbar must be in \[0, 1e\+150\]"):
        dg.dependent_uniform(1e154, 3.3e153)
    assert dg.deterministic(1e150).cbar == 1e150


def test_cbar_below_the_underflow_bound_is_rejected():
    # the coverage kernel divides by squared capacities: at 1e-170 they are subnormal
    with pytest.raises(dg.ValidationError, match=r"cbar must be 0 or at least 1e-150"):
        dg.dependent_uniform(1e-170, 3.3e-171)
    assert dg.deterministic(1e-150).cbar == 1e-150
    assert dg.deterministic(0.0).cbar == 0.0


def test_default_cbar_is_support_top():
    m = dg.dependent_uniform(10.0, 3.3)
    assert m.cbar == pytest.approx(10.0 + dg.SQRT3 * 3.3, abs=0)


def test_cdf_midpoint_and_endpoints():
    m = dg.dependent_uniform(10.0, 3.3)
    lo, hi = m.support
    assert dg.cdf_marginal(m, 10.0) == pytest.approx(0.5)
    assert dg.cdf_marginal(m, lo) == 0.0
    assert dg.cdf_marginal(m, hi) == 1.0
    assert dg.cdf_marginal(m, lo - 1.0) == 0.0
    assert dg.cdf_marginal(m, hi + 1.0) == 1.0


def test_cdf_at_margin_fraction():
    # c chosen so F(c) = (rho - gamma)/lambda_rt = 0.125 for rho=3, gamma=2.5
    m = dg.dependent_uniform(10.0, 3.3)
    lo, hi = m.support
    c = lo + 0.125 * (hi - lo)
    assert c == pytest.approx(5.7131, abs=1e-4)
    assert dg.cdf_marginal(m, c) == pytest.approx(0.125, abs=1e-12)
    assert dg.cdf_marginal(m, c) == pytest.approx(uniform_cdf_by_quadrature(m, c), abs=1e-9)


def test_cdf_monotone_and_unit_mass():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rng.uniform(2.0, 20.0)
        sigma = rng.uniform(0.05, 0.99) * mu / dg.SQRT3
        m = dg.iid_uniform(mu, sigma)
        lo, hi = m.support
        grid = np.linspace(lo - 1, hi + 1, 301)
        vals = dg.cdf_marginal(m, grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-15)
        assert dg.cdf_marginal(m, hi) - dg.cdf_marginal(m, lo) == 1.0


def test_cdf_is_the_shortfall_step_for_deterministic():
    # P(C < c) for C = 10: no shortfall while the offer is at most cbar
    m = dg.deterministic(10.0)
    assert dg.cdf_marginal(m, [9.0, 10.0, 10.5]).tolist() == [0.0, 0.0, 1.0]
    for c, want in ((10.0, 0.0), (10.5, 1.0)):
        got = dg.cdf_marginal(m, c)
        assert type(got) is float and got == want


def test_expected_shortfall_closed_form_vs_montecarlo():
    m = dg.dependent_uniform(10.0, 3.3)
    caps = dg.sample(m, 1, rng_seed=1, draws=400_000)[:, 0]
    for x in (6.0, 10.0, 14.0):
        emp = np.maximum(x - caps, 0.0)
        se = emp.std() / np.sqrt(len(emp))
        assert dg.expected_shortfall(m, x) == pytest.approx(emp.mean(), abs=3 * se)
    assert dg.expected_shortfall(m, m.support[0]) == 0.0
    assert dg.expected_shortfall(dg.deterministic(10.0), 9.0) == 0.0


def test_sample_deterministic_point_mass():
    caps = dg.sample(dg.deterministic(10.0), 3, rng_seed=99, draws=5)
    assert caps.shape == (5, 3)
    assert np.all(caps == 10.0)


def test_sample_dependent_is_fully_dependent():
    caps = dg.sample(dg.dependent_uniform(10.0, 3.3), 2, rng_seed=4, draws=100)
    assert np.all(caps[:, 0] == caps[:, 1])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sample_dependent_equals_the_repeated_shared_draw(n):
    # the shared draw tiled across the prosumers, bit for bit as np.repeat lays it out
    m = dg.dependent_uniform(10.0, 3.3)
    shared = dg.sample(m, 1, rng_seed=4, draws=1000)[:, 0]
    assert np.array_equal(dg.sample(m, n, rng_seed=4, draws=1000),
                          np.repeat(shared[:, None], n, axis=1))


def test_sample_iid_moments():
    m = dg.iid_uniform(10.0, 3.3)
    caps = dg.sample(m, 1, rng_seed=2, draws=1_000_000)[:, 0]
    assert abs(caps.mean() - 10.0) < 3 * 3.3 / 1000.0  # < 0.0099 < 0.02
    assert abs(caps.std() - 3.3) < 0.02


def test_sample_reproducible_and_seed_sensitive():
    m = dg.iid_uniform(10.0, 3.3)
    a = dg.sample(m, 2, rng_seed=7, draws=50)
    b = dg.sample(m, 2, rng_seed=7, draws=50)
    c = dg.sample(m, 2, rng_seed=8, draws=50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_validation():
    m = dg.iid_uniform(10.0, 3.3)
    with pytest.raises(dg.ValidationError):
        dg.sample(m, 0, rng_seed=1)
    with pytest.raises(dg.ValidationError):
        dg.sample(m, 1, rng_seed=1, draws=0)


@pytest.mark.parametrize("model", [dg.iid_uniform(10.0, 3.3), dg.deterministic(10.0)],
                         ids=["iid", "deterministic"])
def test_sample_seed_must_be_a_128_bit_key(model):
    for seed in (-1, 2**128):
        with pytest.raises(dg.ValidationError, match="seed must be >= 0 and < 2\\*\\*128"):
            dg.sample(model, 2, rng_seed=seed, draws=3)
    assert dg.sample(model, 2, rng_seed=2**128 - 1, draws=3).shape == (3, 2)


@pytest.mark.parametrize("kind", [DEPENDENT_UNIFORM, IID_UNIFORM])
def test_empirical_cdf_matches_marginal(kind):
    maker = dg.dependent_uniform if kind == DEPENDENT_UNIFORM else dg.iid_uniform
    m = maker(10.0, 3.3)
    caps = dg.sample(m, 1, rng_seed=3, draws=100_000)[:, 0]
    assert ks_distance(caps, lambda s: dg.cdf_marginal(m, s)) < 0.01


@pytest.mark.parametrize("kind", [DEPENDENT_UNIFORM, IID_UNIFORM])
def test_permutation_invariance(kind):
    # exchangeability: (C1, C2) and (C2, C1) agree marginally and on a joint projection
    maker = dg.dependent_uniform if kind == DEPENDENT_UNIFORM else dg.iid_uniform
    m = maker(10.0, 3.3)
    caps = dg.sample(m, 2, rng_seed=5, draws=100_000)
    c1, c2 = caps[:, 0], caps[:, 1]
    assert two_sample_ks(c1, c2) < 0.01
    assert two_sample_ks(c1 + 2.0 * c2, c2 + 2.0 * c1) < 0.01


def two_sample_ks(a, b):
    values = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), values, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), values, side="right") / len(b)
    return float(np.abs(fa - fb).max())
