"""Target-family potentials, moments, tails, and the modified target.

Numeric oracle values in this file were derived independently (closed
forms evaluated by hand / with mpmath-style high-precision arithmetic, or
brute-force quadrature written from scratch) and then frozen.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, interpolate, special

from heavytail_lmc import targets
from heavytail_lmc import (
    Gaussian,
    GenCauchy,
    InputValidationError,
    MomentUndefinedError,
    NumericsError,
    RadialCustom,
    RadialFamily,
    Sublinear,
    SublinearMomentBound,
    gaussian_init,
    direct_sampler,
    grad_potential,
    log_normalizing_constant,
    median_radius,
    modified_target_m,
    modified_target_spec,
    potential,
    radial_moment,
    run_chains,
    spec_from_json,
    spec_to_json,
    tail_mass,
    tilde_log_normalizing_constant,
    tilde_moment,
)

GC12 = GenCauchy(d=1, nu=2)
SUB = Sublinear(d=1, alpha=0.5)
GAUSS1 = Gaussian(d=1)

FAMILIES = [
    GenCauchy(d=1, nu=1),
    GenCauchy(d=1, nu=2),
    GenCauchy(d=3, nu=2.5),
    Sublinear(d=1, alpha=0.5),
    Sublinear(d=2, alpha=0.3, lam=2.0),
    Sublinear(d=4, alpha=1.0, lam=0.5),
    Gaussian(d=1),
    Gaussian(d=4),
]


# ---------------------------------------------------------------------------
# potentials and gradients
# ---------------------------------------------------------------------------


def test_potential_values_at_origin():
    origin = np.zeros((1, 1))
    assert potential(GC12, origin)[0] == 0.0
    assert potential(Sublinear(d=1, alpha=0.5), origin)[0] == 1.0
    assert potential(GAUSS1, origin)[0] == 0.0


def test_potential_closed_points():
    x = np.array([[1.0]])
    assert potential(GC12, x)[0] == pytest.approx(1.5 * math.log(2.0), rel=1e-14)
    assert potential(GAUSS1, x)[0] == pytest.approx(0.5, rel=1e-14)
    # (1 + lam^(2/alpha) * r^2)^(alpha/2) with lam=1, alpha=1/2, r^2=3
    x3 = np.array([[math.sqrt(3.0)]])
    assert potential(SUB, x3)[0] == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_potential_shapes_batch():
    x = np.random.default_rng(0).normal(size=(7, 3))
    spec = GenCauchy(d=3, nu=2)
    v = potential(spec, x)
    g = grad_potential(spec, x)
    assert v.shape == (7,)
    assert g.shape == (7, 3)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: repr(s))
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(42)
    x = rng.normal(scale=2.0, size=(5, spec.d))
    g = grad_potential(spec, x)
    eps = 1e-6
    for j in range(spec.d):
        e = np.zeros(spec.d)
        e[j] = eps
        fd = (potential(spec, x + e) - potential(spec, x - e)) / (2 * eps)
        np.testing.assert_allclose(g[:, j], fd, rtol=5e-6, atol=5e-7)


def test_radial_profile_consistent_with_potential():
    for spec in FAMILIES:
        f, fprime = spec.profile, spec.profile_prime
        r2 = np.array([0.0, 0.5, 4.0, 100.0])
        x = np.zeros((r2.size, spec.d))
        x[:, 0] = np.sqrt(r2)
        np.testing.assert_allclose(f(r2), potential(spec, x), rtol=1e-12)
        # fprime by finite differences on f
        h = 1e-6 * np.maximum(1.0, r2)
        fd = (f(r2 + h) - f(r2 - h)) / (2 * h)
        np.testing.assert_allclose(fprime(r2), fd, rtol=1e-5, atol=1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("d", range(1, 9))
def test_sq_norms_match_einsum_bit_for_bit(d):
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((1001, d)) * np.exp(6.0 * rng.standard_normal((1001, d)))
    extreme = np.array([0.0, -0.0, 5e-324, -1e-160, 1e150, -1e150, 1e160, 1.0])
    rows[:64] = rng.choice(extreme, size=(64, d))
    for x in (rows, rows[1:], np.asfortranarray(rows)):
        c = np.ascontiguousarray(x)
        assert np.array_equal(targets.sq_norms(x), np.einsum("ij,ij->i", c, c))


@pytest.mark.parametrize("d", range(3, 9))
def test_potential_and_gradient_ignore_memory_layout(d):
    """A Fortran-ordered batch gets the bytes of its C-ordered copy."""
    spec = GenCauchy(d=d, nu=1.5)
    x = np.random.default_rng(d).standard_normal((10_000, d)) * 3.0
    f = np.asfortranarray(x)
    assert potential(spec, f).tobytes() == potential(spec, x).tobytes()
    assert grad_potential(spec, f).tobytes() == grad_potential(spec, x).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_grad_potential_is_the_broadcast_product_bit_for_bit(d):
    """The column-wise product gives the bytes of 2 f'(t)[:, None] * x,
    in a C-ordered array, whatever the input's layout."""
    rng = np.random.default_rng(d)
    wide = rng.standard_normal((513, 2 * d)) * np.exp(3.0 * rng.standard_normal((513, 2 * d)))
    rows = np.ascontiguousarray(wide[:, :d])
    for spec in (Gaussian(d=d), GenCauchy(d=d, nu=1.5), Sublinear(d=d, alpha=0.5)):
        for x in (rows, rows[:1], np.asfortranarray(rows), wide[:, ::2], rows[::3]):
            c = np.ascontiguousarray(x)
            fp = np.asarray(spec.profile_prime(targets.sq_norms(c)), dtype=float)
            g = grad_potential(spec, x)
            assert g.flags.c_contiguous and g.shape == x.shape
            assert g.tobytes() == (2.0 * fp[:, None] * c).tobytes()
        point = grad_potential(spec, rows[7])
        assert point.shape == (d,) and point.flags.c_contiguous
        assert point.tobytes() == grad_potential(spec, rows[7:8])[0].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_grad_potential_finiteness_check_reads_the_coordinates():
    spec = GenCauchy(d=2, nu=1.0)
    # finite coordinates whose square overflows are accepted
    g = grad_potential(spec, np.array([[1e160, 0.0], [1.0, 2.0]]))
    assert np.all(np.isfinite(g))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputValidationError):
            grad_potential(spec, np.array([[1.0, 2.0], [0.0, bad]]))


def test_radial_custom_roundtrip():
    spec = RadialCustom(d=2, f=lambda t: 0.5 * t, fprime=lambda t: 0.5 * np.ones_like(t))
    x = np.array([[3.0, 4.0]])
    assert potential(spec, x)[0] == pytest.approx(12.5)
    np.testing.assert_allclose(grad_potential(spec, x), x, rtol=1e-12)


@dataclass(frozen=True)
class ScaledGaussian(RadialFamily):
    """N(0, s I_d), a family defined only in this file: V(x) = |x|^2 / (2s)."""

    d: int
    s: float

    def profile(self, t):
        return 0.5 * np.asarray(t, dtype=float) / self.s

    def profile_prime(self, t):
        return np.full_like(np.asarray(t, dtype=float), 0.5 / self.s)


def test_family_defined_in_one_class_runs_end_to_end():
    spec = ScaledGaussian(d=2, s=3.0)
    x = np.array([[1.0, 2.0], [-3.0, 0.5]])
    np.testing.assert_allclose(potential(spec, x), (x * x).sum(axis=1) / 6.0,
                               rtol=1e-14)
    np.testing.assert_allclose(grad_potential(spec, x), x / 3.0, rtol=1e-14)
    # quadrature fallback against log Z = (d/2) ln(2 pi s)
    assert log_normalizing_constant(spec) == pytest.approx(
        math.log(2.0 * math.pi * 3.0), rel=1e-10)
    # E|x|^p = (2s)^{p/2} Gamma((d+p)/2) / Gamma(d/2)
    assert radial_moment(spec, 2.0) == pytest.approx(6.0, rel=1e-8)
    assert radial_moment(spec, 1.0) == pytest.approx(
        math.sqrt(6.0) * math.gamma(1.5), rel=1e-8)
    # 50 LMC steps: per coordinate v_{k+1} = (1 - h/s)^2 v_k + 2h exactly
    h, n_steps = 0.1, 50
    trace = run_chains(spec, gaussian_init(4.0, 2, 4000, h, seed=3), n_steps,
                       record_every=10)
    v_inf = 3.0 / (1.0 - h / 6.0)
    exact = 2.0 * ((1.0 - h / 3.0) ** (2 * n_steps) * (4.0 - v_inf) + v_inf)
    assert abs(trace.m2[-1] - exact) <= 5.0 * trace.se[-1]


# ---------------------------------------------------------------------------
# growth and smoothness parameters
# ---------------------------------------------------------------------------


def test_growth_params_values():
    g = GenCauchy(d=3, nu=2).growth()
    assert (g.b, g.alpha) == pytest.approx((5.0, 0.0))
    g = Sublinear(d=1, alpha=0.5, lam=2.0).growth()
    assert g.b == pytest.approx(0.5 * max(2.0 ** 4, 2.0))
    assert g.alpha == 0.5
    g = Gaussian(d=7).growth()
    assert (g.b, g.alpha) == pytest.approx((1.0, 2.0))


def test_holder_values():
    hs = GenCauchy(d=2, nu=3).holder()
    assert (hs.L, hs.s) == pytest.approx((5.0, 1.0))
    hs = Sublinear(d=1, alpha=0.5, lam=2.0).holder()
    assert hs.L == pytest.approx(max(1.0, 0.5 * 2.0 ** 4))
    assert Gaussian(d=3).holder().L == pytest.approx(1.0)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: repr(s))
def test_growth_inequality_on_grid(spec):
    """<x, grad V(x)> <= b * ||x||^alpha for every radius."""
    g = spec.growth()
    r = np.geomspace(1e-3, 1e3, 61)
    x = np.zeros((r.size, spec.d))
    x[:, 0] = r
    inner = np.sum(x * grad_potential(spec, x), axis=1)
    assert np.all(inner <= g.b * r ** g.alpha * (1 + 1e-12))


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: repr(s))
def test_holder_inequality_on_pairs(spec):
    hs = spec.holder()
    rng = np.random.default_rng(7)
    x = rng.normal(scale=3.0, size=(64, spec.d))
    y = rng.normal(scale=3.0, size=(64, spec.d))
    lhs = np.linalg.norm(grad_potential(spec, x) - grad_potential(spec, y), axis=1)
    rhs = hs.L * np.linalg.norm(x - y, axis=1) ** hs.s
    assert np.all(lhs <= rhs * (1 + 1e-10))


# ---------------------------------------------------------------------------
# normalizing constants
# ---------------------------------------------------------------------------


def test_normalizing_constant_closed_forms():
    # pi^(d/2) Gamma(nu/2) / Gamma((d+nu)/2)
    assert math.exp(log_normalizing_constant(GenCauchy(d=1, nu=2))) == pytest.approx(2.0, rel=1e-12)
    assert math.exp(log_normalizing_constant(GenCauchy(d=2, nu=2))) == pytest.approx(math.pi, rel=1e-12)
    assert math.exp(log_normalizing_constant(Gaussian(d=3))) == pytest.approx((2 * math.pi) ** 1.5, rel=1e-12)


def test_normalizing_constant_matches_independent_quadrature():
    spec = Sublinear(d=1, alpha=0.5)
    val, err = integrate.quad(
        lambda x: math.exp(-((1 + x * x) ** 0.25)), -np.inf, np.inf, limit=200
    )
    assert err < 1e-6 * val
    assert math.exp(log_normalizing_constant(spec)) == pytest.approx(val, rel=1e-9)
    assert log_normalizing_constant(spec) == pytest.approx(math.log(val), rel=1e-9)


def test_tilde_normalizer_sandwich():
    """The surrogate normalizer brackets the true one within a factor e."""
    for d, alpha, lam in [(1, 0.5, 1.0), (2, 0.3, 1.0), (3, 0.7, 2.0), (1, 1.0, 1.0)]:
        spec = Sublinear(d=d, alpha=alpha, lam=lam)
        log_z = log_normalizing_constant(spec)
        log_zt = tilde_log_normalizing_constant(d, alpha, lam)
        assert log_zt - 1.0 - 1e-9 <= log_z <= log_zt + 1.0 + 1e-9


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_gen_cauchy_second_moment_exact():
    assert GenCauchy(d=1, nu=3).closed_moment(2.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "spec,p",
    [
        (GenCauchy(d=1, nu=3), 2.0),
        (GenCauchy(d=1, nu=5), 2.0),
        (GenCauchy(d=1, nu=5), 4.0),
        (GenCauchy(d=2, nu=3), 2.0),
        (GenCauchy(d=4, nu=5), 2.0),
        (GenCauchy(d=1, nu=2.5), 1.0),
        (Gaussian(d=1), 2.0),
        (Gaussian(d=2), 2.0),
        (Gaussian(d=3), 4.0),
        (Gaussian(d=2), 6.0),
    ],
    ids=str,
)
def test_closed_form_matches_quadrature(spec, p):
    assert spec.closed_moment(p) == pytest.approx(radial_moment(spec, p), rel=1e-8)


def test_gaussian_moment_formula():
    # E ||x||^p = 2^(p/2) Gamma((d+p)/2) / Gamma(d/2)
    for d, p in [(1, 2.0), (3, 4.0), (5, 3.0)]:
        expect = 2 ** (p / 2) * special.gamma((d + p) / 2) / special.gamma(d / 2)
        assert Gaussian(d=d).closed_moment(p) == pytest.approx(expect, rel=1e-12)


def test_moment_undefined_for_heavy_tail():
    with pytest.raises(MomentUndefinedError):
        GenCauchy(d=1, nu=2).closed_moment(2.0)
    with pytest.raises(MomentUndefinedError):
        GenCauchy(d=1, nu=2).closed_moment(2.5)
    with pytest.raises(MomentUndefinedError):
        radial_moment(GenCauchy(d=1, nu=2), 2.0)
    # boundary p == nu is also undefined
    with pytest.raises(MomentUndefinedError):
        GenCauchy(d=2, nu=4).closed_moment(4.0)


# Each family method checks its own argument; NaN fails every check.
@pytest.mark.parametrize("spec, p, error", [
    (GenCauchy(d=1, nu=2), 3.0, MomentUndefinedError),
    (GenCauchy(d=1, nu=2), math.nan, InputValidationError),
    (Gaussian(d=2), -3.0, InputValidationError),
    (Gaussian(d=2), math.nan, InputValidationError),
    (Gaussian(d=2), math.inf, InputValidationError),
    (Sublinear(d=1, alpha=0.5), math.nan, InputValidationError),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_closed_moment_checks_its_order(spec, p, error):
    with pytest.raises(error):
        spec.closed_moment(p)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_radial_moment_rejects_a_bad_order(p):
    with pytest.raises(InputValidationError):
        radial_moment(Gaussian(d=1), p)


@pytest.mark.parametrize("spec", [GenCauchy(d=1, nu=1.5), Sublinear(d=1, alpha=0.5)],
                         ids=repr)
@pytest.mark.parametrize("R", [-2.0, 0.0, math.nan])
def test_tail_bound_checks_its_radius(spec, R):
    with pytest.raises(InputValidationError):
        spec.tail_bound(R)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_tail_mass_rejects_a_bad_radius(R):
    with pytest.raises(InputValidationError):
        tail_mass(GC12, R)


@pytest.mark.parametrize("spec, sigma2", [
    (GenCauchy(d=1, nu=2), math.nan),
    (GenCauchy(d=1, nu=2), math.inf),
    (Sublinear(d=1, alpha=0.5), -1.0),
    (Sublinear(d=1, alpha=0.5), math.nan),
    (Gaussian(d=1), -1.0),
    (Gaussian(d=1), 0.0),
    (Gaussian(d=1), math.inf),
], ids=str)
def test_coupling_delta0_checks_its_variance(spec, sigma2):
    with pytest.raises(InputValidationError):
        spec.coupling_delta0(sigma2)


@pytest.mark.parametrize("spec, kind", [
    (GenCauchy(d=1, nu=2), "rinf_bound"),
    (Sublinear(d=1, alpha=0.5), "rinf_bound"),
    (Gaussian(d=1), "kl_bound"),
], ids=str)
def test_start_bounds_reject_a_nan_variance(spec, kind):
    with pytest.raises(InputValidationError):
        getattr(spec, kind)(math.nan)
    with pytest.raises(InputValidationError):
        spec.start_renyi(2.0, math.nan)


@pytest.mark.parametrize("lam, p", [(1.0, math.nan), (math.nan, 2.0),
                                    (1.0, math.inf), (math.inf, 2.0)], ids=str)
def test_tilde_moment_rejects_a_non_finite_argument(lam, p):
    with pytest.raises(InputValidationError):
        tilde_moment(1, 0.5, lam, p)


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=str)
def test_tilde_normalizer_rejects_a_non_finite_lam(lam):
    with pytest.raises(InputValidationError):
        tilde_log_normalizing_constant(1, 0.5, lam)


@pytest.mark.parametrize("spec, mass", [
    (GenCauchy(d=1, nu=2), 0.0),
    (GenCauchy(d=1, nu=2), -1.0),
    (Gaussian(d=1), 2.0),
    (Gaussian(d=1), 1.0),
    (Sublinear(d=1, alpha=0.5), math.nan),
], ids=str)
def test_deep_tail_quantile_checks_its_mass(spec, mass):
    with pytest.raises(InputValidationError, match="tail mass"):
        spec.deep_tail_quantile(mass)


def test_sublinear_moment_bound_object():
    res = Sublinear(d=1, alpha=0.5).closed_moment(2.0)
    assert isinstance(res, SublinearMomentBound)
    assert res.upper == pytest.approx(math.e * res.tilde_exact, rel=1e-12)
    true = radial_moment(Sublinear(d=1, alpha=0.5), 2.0)
    assert true <= res.upper * (1 + 1e-9)
    assert true >= res.tilde_exact / math.e * (1 - 1e-9)


def test_tilde_moment_closed_form():
    # under the surrogate, r^2 has an explicit Gamma-ratio mean
    d, alpha, lam, p = 1, 0.5, 1.0, 2.0
    val = tilde_moment(d, alpha, lam, p)
    # independent check: tilde density ~ r^(d-1) exp(-(lam r)^alpha) on (0, inf)
    num, _ = integrate.quad(lambda r: r ** (d - 1 + p) * math.exp(-((lam * r) ** alpha)), 0, np.inf, limit=300)
    den, _ = integrate.quad(lambda r: r ** (d - 1) * math.exp(-((lam * r) ** alpha)), 0, np.inf, limit=300)
    assert val == pytest.approx(num / den, rel=1e-9)


def test_power_mean_monotonicity():
    """(E r^p)^(1/p) is non-decreasing in p (sanity for the quadratures)."""
    for spec in [GenCauchy(d=1, nu=6), Sublinear(d=2, alpha=0.5), Gaussian(d=3)]:
        vals = [radial_moment(spec, p) ** (1.0 / p) for p in (1.0, 2.0, 3.0, 4.0)]
        assert all(a <= b * (1 + 1e-10) for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# tails and medians
# ---------------------------------------------------------------------------


def test_tail_mass_frozen_value():
    assert tail_mass(GC12, 10.0) == pytest.approx(0.004962809790010865, rel=1e-9)


def test_tail_mass_basic_properties():
    for spec in [GC12, SUB, Gaussian(d=2)]:
        assert tail_mass(spec, 0.0) == pytest.approx(1.0, rel=1e-10)
        assert 0.0 < tail_mass(spec, 5.0) < tail_mass(spec, 1.0) < 1.0


@pytest.mark.parametrize("spec", [GenCauchy(d=1, nu=2), GenCauchy(d=2, nu=1), Sublinear(d=1, alpha=0.5), Sublinear(d=2, alpha=0.3)], ids=repr)
def test_tail_bound_dominates_tail_mass(spec):
    for R in [0.5, 1.0, 2.0, 5.0, 10.0, 40.0]:
        tb = spec.tail_bound(R)
        assert tb >= tail_mass(spec, R) * (1 - 1e-10)


def test_median_radius_values():
    # d=1, nu=1 is the standard Cauchy: |x| median is tan(pi/4) = 1
    assert median_radius(GenCauchy(d=1, nu=1)) == pytest.approx(1.0, rel=1e-9)
    # d=1, nu=2: P(|x| > R) = 1 - R/sqrt(1+R^2); median solves R/sqrt(1+R^2)=1/2
    assert median_radius(GC12) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)


@pytest.mark.parametrize("spec", FAMILIES, ids=repr)
def test_median_radius_halves_mass(spec):
    med = median_radius(spec)
    assert tail_mass(spec, med) == pytest.approx(0.5, abs=1e-7)


# ---------------------------------------------------------------------------
# the root finder against scipy's brentq, bit for bit
# ---------------------------------------------------------------------------


# scipy.optimize.brentq's default tolerances
SCIPY_TOL = {"xtol": 2e-12, "rtol": 4 * 2.0 ** -52}


def _brentq_oracle(f, a, b, **tol):
    """scipy.optimize.brentq's root, or the name of what it raised."""
    from scipy.optimize import brentq

    try:
        return brentq(f, a, b, **tol)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


def _bits(x: float) -> str:
    return float(x).hex()


@pytest.mark.parametrize("spec", [pytest.param(s, id=repr(s)) for s in FAMILIES] + [
    pytest.param(RadialCustom(d=2, f=lambda t: 1.5 * np.log1p(t)),
                 id="RadialCustom(d=2, f=1.5 log1p(t))"),
    pytest.param(RadialCustom(d=1, f=lambda t: np.sqrt(1.0 + t),
                              fprime=lambda t: 0.5 / np.sqrt(1.0 + t)),
                 id="RadialCustom(d=1, f=sqrt(1 + t))"),
])
@pytest.mark.parametrize("mass", [0.5, 1e-4], ids=str)
def test_tail_quantile_root_is_brentqs(spec, mass, monkeypatch):
    calls, brentq = [], targets._brentq

    def recorded(f, a, b, **tol):
        calls.append((f, a, b, tol, brentq(f, a, b, **tol)))
        return calls[-1][-1]

    monkeypatch.setattr(targets, "_brentq", recorded)
    quantile = targets._tail_quantile(spec, mass)
    ((f, a, b, tol, root),) = calls
    assert _bits(quantile) == _bits(root) == _bits(_brentq_oracle(f, a, b, **tol))


def _bracket_battery():
    """Smooth, steep, flat and kinked functions on brackets of several
    widths and tolerances; together they take both inverse-interpolation
    steps (secant and inverse quadratic) as well as bisection."""
    funcs = [
        lambda x: x ** 3 - 2.0 * x - 5.0,
        lambda x: math.exp(x) - 3.0,
        lambda x: math.cos(x) - x,
        lambda x: math.atan(x - 0.3),
        lambda x: math.log(x) - 1.0,
        lambda x: math.tanh(50.0 * (x - 1.1)),
        lambda x: (x - 1.3) ** 3,
        lambda x: math.copysign(abs(x - 2.2) ** 0.5, x - 2.2),
        lambda x: math.expm1(20.0 * (x - 0.5)),
        lambda x: 1.0 / (1.0 + x * x) - 0.25,
    ]
    brackets = [(0.01, 2.5), (0.1, 3.0), (0.5, 4.0), (0.2, 10.0)]
    tols = [SCIPY_TOL, {"xtol": 1e-12, "rtol": 1e-10}, {"xtol": 1e-4, "rtol": 1e-6}]
    return [(f, a, b, tol) for f in funcs for a, b in brackets for tol in tols]


def _untaken_marks(fn, tags, run) -> list:
    """The tags (each a comment on one line of ``fn``) whose line was not
    executed while ``run()`` ran."""
    code = fn.__code__
    lines, first = inspect.getsourcelines(fn)
    marked = {tag: first + i for i, line in enumerate(lines)
              for tag in tags if tag in line}
    assert sorted(marked) == sorted(tags)
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code is code:
            if event == "line":
                seen.add(frame.f_lineno)
            return tracer
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return [tag for tag, line in marked.items() if line not in seen]


def test_brentq_battery_is_bit_identical_and_takes_every_step():
    mismatched = []

    def run():
        for f, a, b, tol in _bracket_battery():
            want = _brentq_oracle(f, a, b, **tol)
            try:
                got = _bits(targets._brentq(f, a, b, **tol))
            except NumericsError:
                got = "NumericsError"
            if got != (_bits(want) if isinstance(want, float) else "NumericsError"):
                mismatched.append((a, b, tol, want, got))

    tags = ("# interpolate", "# extrapolate", "# good short step")
    assert _untaken_marks(targets._brentq, tags, run) == []
    assert mismatched == []


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x + 1.0, -1.0, 2.0),  # no sign change
    (lambda x: x - 3.0, 0.0, 2.0),
    (lambda x: math.nan if x > 1.0 else x - 2.0, 0.0, 4.0),  # NaN at an end
    (lambda x: math.nan if 1.9 < x < 2.1 else x - 2.0, 0.0, 3.0),  # NaN inside
], ids=["no-sign-change", "one-sided", "nan-end", "nan-inside"])
def test_brentq_refuses_a_bad_bracket_or_nan(f, a, b):
    assert _brentq_oracle(f, a, b, **SCIPY_TOL) == "ValueError"
    with pytest.raises(NumericsError):
        targets._brentq(f, a, b, **SCIPY_TOL)


def test_brentq_reports_non_convergence():
    f, a, b = (lambda x: x ** 3 - 2.0 * x - 5.0), 0.0, 4.0
    assert _brentq_oracle(f, a, b, maxiter=3, **SCIPY_TOL) == "RuntimeError"
    with pytest.raises(NumericsError, match="did not converge in 3 steps"):
        targets._brentq(f, a, b, maxiter=3, **SCIPY_TOL)


# ---------------------------------------------------------------------------
# log-gamma and the normal / erfc quantiles against scipy.special, bit for bit
# ---------------------------------------------------------------------------


def _edge_arguments(*points) -> list:
    return [*points, 0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]


def _mismatches(ours, oracle, args) -> list:
    want = oracle(np.asarray(args, dtype=float))
    return [(x, ours(x), w) for x, w in zip(args, want)
            if _bits(ours(x)) != _bits(w)]


def test_gammaln_is_scipys_bit_for_bit_on_every_branch():
    rng = np.random.default_rng(23)
    maxlgm = targets._MAXLGM
    args = [float(x) for x in np.concatenate([
        np.arange(-120.0, 120.5, 0.5),  # half-integers and the poles
        rng.uniform(-60.0, 60.0, 4000),
        10.0 ** rng.uniform(-300.0, 308.0, 2000),
        -(10.0 ** rng.uniform(-300.0, 4.0, 2000)),
        _edge_arguments(1.0, 2.0, 3.0, 13.0, -34.0, -34.5, -35.0, 999.5, 1000.0,
                        1e8, math.nextafter(1e8, math.inf), 1e305, maxlgm,
                        math.nextafter(maxlgm, math.inf), 1.7976931348623157e308),
    ])]
    mismatched = []

    def run():
        mismatched.extend(_mismatches(targets._gammaln, special.gammaln, args))

    tags = ("# reflection", "# integer pole", "# recurrence down",
            "# recurrence up", "# pole", "# exact", "# overflow", "# Stirling",
            "# three terms", "# A series")
    assert _untaken_marks(targets._gammaln, tags, run) == []
    assert mismatched == []


def test_ndtri_is_scipys_bit_for_bit_on_every_branch():
    rng = np.random.default_rng(29)
    expm2 = targets._NDTRI_EXPM2
    args = [float(y) for y in np.concatenate([
        rng.uniform(0.0, 1.0, 4000),
        10.0 ** rng.uniform(-320.0, 0.0, 2000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 2000),
        _edge_arguments(1.0, 0.5, expm2, math.nextafter(expm2, 1.0), 1.0 - expm2,
                        math.exp(-32.0), -0.1, 1.1),
    ])]
    mismatched = []

    def run():
        mismatched.extend(_mismatches(targets._ndtri, special.ndtri, args))

    tags = ("# upper tail", "# P0/Q0", "# P1/Q1", "# P2/Q2")
    assert _untaken_marks(targets._ndtri, tags, run) == []
    assert mismatched == []


def test_erfcinv_is_scipys_bit_for_bit():
    rng = np.random.default_rng(31)
    args = [float(y) for y in np.concatenate([
        rng.uniform(0.0, 2.0, 4000),
        10.0 ** rng.uniform(-320.0, 0.3, 2000),
        _edge_arguments(1.0, 2.0, 1e-9, math.nextafter(2.0, 0.0), -1.0, 3.0),
    ])]
    assert _mismatches(targets._erfcinv, special.erfcinv, args) == []


# Tails against closed forms written independently of the quadrature, out
# to where a Cauchy tail holds 6e-7 of the mass.
@pytest.mark.parametrize("R", [1.0, 100.0, 8192.0, 1e6])
def test_cauchy_tail_is_the_arctan(R):
    want = (2.0 / math.pi) * math.atan(1.0 / R)
    assert tail_mass(GenCauchy(d=1, nu=1), R) == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_far_polynomial_tails_match_closed_forms():
    R = 2048.0
    root = math.sqrt(1.0 + R * R)
    # 1 - R / sqrt(1 + R^2), written without the cancellation
    want = 1.0 / (root * (root + R))
    assert tail_mass(GenCauchy(d=1, nu=2), R) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    R = 8192.0
    want = (1.0 + R * R) ** -0.5
    assert tail_mass(GenCauchy(d=2, nu=1), R) == pytest.approx(
        want, rel=1e-12, abs=0.0)


# At R = 35 the d = 1 tail is 2.2e-268: levels that agreed to 1e-12
# absolutely would stop 5.6e-6 off; the radial rule agrees relatively.
@pytest.mark.parametrize("R", [0.5, 3.0, 10.0, 30.0, 35.0])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_gaussian_tail_is_the_chi_tail(d, R):
    want = special.gammaincc(0.5 * d, 0.5 * R * R)
    assert tail_mass(Gaussian(d=d), R) == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_moment_near_the_tail_index_is_right_or_refused():
    """At p = 0.99 the Cauchy moment's integrand falls like r^-1.01, and
    3 % of it lies beyond r = 1e154, where r^2 overflows: the rule either
    gets the value or raises, never returns a wrong one."""
    spec = GenCauchy(d=1, nu=1)
    try:
        value = radial_moment(spec, 0.99)
    except NumericsError:
        return
    assert value == pytest.approx(spec.closed_moment(0.99),
                                  rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# modified target
# ---------------------------------------------------------------------------


def test_modified_target_m_values():
    assert modified_target_m(GenCauchy(d=1, nu=1)) == pytest.approx(0.5, rel=1e-9)
    assert modified_target_m(GC12) == pytest.approx(1.0 / (2 * math.sqrt(3.0)), rel=1e-9)
    assert modified_target_m(GAUSS1) == pytest.approx(0.3372448750980376, rel=1e-9)


def test_modified_target_potential_shape():
    T = 2.0
    spec_hat = modified_target_spec(GC12, T=T)
    m = modified_target_m(GC12)
    xs = np.array([[0.0], [m], [2 * m], [2 * m + 1.0], [50.0]])
    v = potential(GC12, xs)
    vhat = potential(spec_hat, xs)
    # unchanged inside radius 2m
    np.testing.assert_allclose(vhat[:3], v[:3], rtol=1e-12)
    # grows by the quadratic envelope outside
    r = np.linalg.norm(xs[3:], axis=1)
    extra = (np.maximum(r - 2 * m, 0.0) ** 2) / (6144.0 * T)
    np.testing.assert_allclose(vhat[3:], v[3:] + extra, rtol=1e-10)


def test_modified_target_integrals_cut_at_the_kink():
    """f_hat'' jumps at r = 2m = 4, where the rule cuts, as this reference
    does (uncut, neither the normalizer's levels nor the tail's agree)."""
    spec = modified_target_spec(GC12, T=1.0, m=2.0)
    density = lambda r: math.exp(-float(spec.profile(np.array(r * r))))
    head, _ = integrate.quad(density, 0.0, 2.0, epsabs=0.0, epsrel=1e-13)
    inner, _ = integrate.quad(density, 2.0, 4.0, epsabs=0.0, epsrel=1e-13)
    outer, _ = integrate.quad(density, 4.0, np.inf, epsabs=0.0, epsrel=1e-13)
    total = head + inner + outer
    assert log_normalizing_constant(spec) == pytest.approx(
        math.log(2.0 * total), rel=1e-12, abs=0.0)
    assert tail_mass(spec, 2.0) == pytest.approx((inner + outer) / total,
                                                  rel=1e-12, abs=0.0)


def test_modified_target_t_scaling():
    v1 = potential(modified_target_spec(GC12, T=1.0), np.array([[30.0]]))[0]
    v4 = potential(modified_target_spec(GC12, T=4.0), np.array([[30.0]]))[0]
    base = potential(GC12, np.array([[30.0]]))[0]
    assert (v1 - base) == pytest.approx(4 * (v4 - base), rel=1e-10)


def test_modified_target_custom_m():
    spec_hat = modified_target_spec(GC12, T=1.0, m=2.0)
    x = np.array([[3.0]])
    assert potential(spec_hat, x)[0] == pytest.approx(potential(GC12, x)[0], rel=1e-12)


# ---------------------------------------------------------------------------
# per-instance quadrature memo
# ---------------------------------------------------------------------------


def _quadratures(spec):
    p = 0.5  # below every tail index in FAMILIES
    return (log_normalizing_constant(spec), radial_moment(spec, p),
            tail_mass(spec, 1.5), modified_target_m(spec))


@pytest.mark.parametrize("spec", [pytest.param(s, id=repr(s)) for s in FAMILIES] + [
    pytest.param(modified_target_spec(SUB, T=1.0), id="modified_target_spec(SUB, T=1)"),
])
def test_memoized_quadratures_equal_a_fresh_instance(spec):
    warmed = replace(spec)
    first = _quadratures(warmed)
    # each value from its own fresh instance, in a different order
    fresh = (log_normalizing_constant(replace(spec)),
             radial_moment(replace(spec), 0.5),
             tail_mass(replace(spec), 1.5),
             modified_target_m(replace(spec)))
    assert first == fresh
    assert _quadratures(warmed) == fresh


def _count_quadratures(monkeypatch):
    calls = []
    real = targets._radial_integral

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(targets, "_radial_integral", counted)
    return calls


def test_equal_specs_do_not_share_the_memo(monkeypatch):
    calls = _count_quadratures(monkeypatch)
    a = Sublinear(d=2, alpha=0.3)
    z = log_normalizing_constant(a)
    assert len(calls) == 1
    assert log_normalizing_constant(a) == z and len(calls) == 1
    b = Sublinear(d=2, alpha=0.3)
    assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    assert spec_to_json(a) == spec_to_json(b)
    assert log_normalizing_constant(b) == z and len(calls) == 2


def test_tail_radius_scan_does_not_grow_the_memo(monkeypatch):
    calls = _count_quadratures(monkeypatch)
    spec = Sublinear(d=2, alpha=0.5)
    m = modified_target_m(spec)
    kept = len(spec.__dict__["_quadratures"])
    radii = np.linspace(0.1, 20.0, 50)
    masses = [tail_mass(spec, R) for R in radii]
    assert len(spec.__dict__["_quadratures"]) == kept
    # each scanned radius integrates its own tail; the normalizer is reused
    assert sum(1 for kw in calls[-50:] if kw.get("lower", 0.0) > 0) == 50
    assert masses == [tail_mass(Sublinear(d=2, alpha=0.5), R) for R in radii]
    n = len(calls)
    assert modified_target_m(spec) == m and len(calls) == n


def test_failed_quadrature_is_not_memoized(monkeypatch):
    calls = _count_quadratures(monkeypatch)
    # V is undefined past |x| = 2, so the normalizer's quadrature fails
    spec = RadialCustom(d=1, f=lambda t: np.where(t > 4.0, np.nan, 0.5 * t))
    for n in (1, 2):
        with pytest.raises(NumericsError):
            log_normalizing_constant(spec)
        assert len(calls) == n


# ---------------------------------------------------------------------------
# direct sampling
# ---------------------------------------------------------------------------


def test_direct_sampler_deterministic():
    a = direct_sampler(GC12, 1000, seed=3)
    b = direct_sampler(GC12, 1000, seed=3)
    np.testing.assert_array_equal(a, b)
    c = direct_sampler(GC12, 1000, seed=4)
    assert not np.array_equal(a, c)


def test_direct_sampler_matches_moment():
    n = 200_000
    spec = GenCauchy(d=1, nu=5)
    x = direct_sampler(spec, n, seed=11)
    assert x.shape == (n, 1)
    r2 = np.sum(x * x, axis=1)
    se = float(np.std(r2, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(r2)) - spec.closed_moment(2.0)) <= 4 * se


def test_direct_sampler_gaussian_moment():
    n = 100_000
    spec = Gaussian(d=3)
    x = direct_sampler(spec, n, seed=5)
    r2 = np.sum(x * x, axis=1)
    se = float(np.std(r2, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(r2)) - 3.0) <= 4 * se


# ---------------------------------------------------------------------------
# the sampler's monotone interpolant against scipy's PCHIP, bit for bit
# ---------------------------------------------------------------------------


def _pchip_mismatches(x, y, u) -> list:
    """The arguments where ``targets._pchip`` and scipy's PCHIP differ in
    their bits; two NaNs agree."""
    got = targets._pchip(x, y)(u)
    want = interpolate.PchipInterpolator(x, y, extrapolate=False)(u)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    return u[~same].tolist()


@pytest.mark.parametrize("spec", [Sublinear(d=1, alpha=0.5), Sublinear(d=2, alpha=0.3),
                                  Sublinear(d=4, alpha=0.7)], ids=repr)
def test_pchip_is_scipys_on_the_sampler_tables(spec, monkeypatch):
    tables = []
    pchip = targets._pchip
    monkeypatch.setattr(targets, "_pchip",
                        lambda x, y: tables.append((x, y)) or pchip(x, y))
    targets._radial_inverse_cdf(spec, spec.sampling_radius())
    (x, y), = tables
    u = np.concatenate([
        np.random.default_rng(37).random(10**5), x,
        [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), -0.1, 1.1, math.nan,
         math.inf, -math.inf],
    ])
    assert len(x) > 3000
    assert _pchip_mismatches(x, y, u) == []


def test_pchip_is_scipys_on_small_tables():
    """Two knots give scipy's straight line; ties and sign changes take
    the zero interior slope and each branch of the one-sided end rule."""
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 6):
        for _ in range(50):
            x = np.cumsum(rng.random(n) + 1e-3)
            y = rng.standard_normal(n)
            y[rng.integers(1, n)] = y[0]
            u = np.concatenate([rng.uniform(x[0] - 0.5, x[-1] + 0.5, 50), x])
            assert _pchip_mismatches(x, y, u) == [], (x, y)
    line = targets._pchip(np.array([0.0, 2.0]), np.array([1.0, 5.0]))
    ends = line(np.array([1.0, 2.0, 2.5]))
    assert ends[:2].tolist() == [3.0, 5.0] and math.isnan(ends[2])


# ---------------------------------------------------------------------------
# serialization and validation
# ---------------------------------------------------------------------------


def test_spec_json_roundtrip():
    for spec in FAMILIES:
        again = spec_from_json(spec_to_json(spec))
        assert again == spec


def test_spec_json_rejects_unknown_family():
    with pytest.raises((InputValidationError, KeyError, ValueError)):
        spec_from_json({"family": "levy", "d": 1})


def test_parameter_validation():
    with pytest.raises(InputValidationError):
        GenCauchy(d=0, nu=2)
    with pytest.raises(InputValidationError):
        GenCauchy(d=1, nu=0.0)
    with pytest.raises(InputValidationError):
        Sublinear(d=1, alpha=0.0)
    with pytest.raises(InputValidationError):
        Sublinear(d=1, alpha=1.5)
    with pytest.raises(InputValidationError):
        Sublinear(d=1, alpha=0.5, lam=-1.0)
    with pytest.raises(InputValidationError):
        Gaussian(d=-2)


# ---------------------------------------------------------------------------
# property-based checks (cheap formula invariants)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    nu=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
    d=st.integers(min_value=1, max_value=6),
    r=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)
def test_gen_cauchy_potential_monotone_radial(nu, d, r):
    spec = GenCauchy(d=d, nu=nu)
    x1 = np.zeros((1, d))
    x1[0, 0] = r
    x2 = np.zeros((1, d))
    x2[0, 0] = r * 1.5
    assert potential(spec, x1)[0] < potential(spec, x2)[0]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    lam=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    d=st.integers(min_value=1, max_value=4),
)
def test_sublinear_growth_alpha_matches(alpha, lam, d):
    g = Sublinear(d=d, alpha=alpha, lam=lam).growth()
    assert g.alpha == pytest.approx(alpha)
    assert g.b > 0


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    nu=st.floats(min_value=0.5, max_value=6.0),
    R=st.floats(min_value=0.5, max_value=30.0),
)
def test_tail_bound_nonincreasing_gen_cauchy(d, nu, R):
    spec = GenCauchy(d=d, nu=nu)
    assert spec.tail_bound(R * 2) <= spec.tail_bound(R) * (1 + 1e-12)
