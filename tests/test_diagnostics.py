"""Divergence surrogates, Gaussian closed forms, comparison process."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytail_lmc import (
    AssumptionViolatedError,
    Gaussian,
    GenCauchy,
    InputValidationError,
    MomentTrace,
    MomentUndefinedError,
    RadialCustom,
    Sublinear,
    comparison_process_z,
    diagnostic_report,
    gaussian_init,
    gaussian_renyi,
    iterations_to_threshold,
    pi_moment_for,
    renyi_lower_bound,
    run_chains,
    sigma2_eps,
)


# ---------------------------------------------------------------------------
# moment surrogate lower bound
# ---------------------------------------------------------------------------


def test_renyi_lower_bound_value():
    out = renyi_lower_bound(m2=10.0, q=2.0, pi_moment=3.0)
    assert out.value == pytest.approx(2 * math.log(10.0) - math.log(3.0), rel=1e-12)
    assert not out.clamped


def test_renyi_lower_bound_clamps_at_zero():
    out = renyi_lower_bound(m2=0.5, q=2.0, pi_moment=3.0)
    assert out.value == 0.0
    assert out.clamped


def test_renyi_lower_bound_validation():
    with pytest.raises(InputValidationError):
        renyi_lower_bound(m2=-1.0, q=2.0, pi_moment=1.0)
    with pytest.raises(InputValidationError):
        renyi_lower_bound(m2=1.0, q=1.0, pi_moment=1.0)
    with pytest.raises(InputValidationError):
        renyi_lower_bound(m2=1.0, q=2.0, pi_moment=0.0)


@settings(max_examples=50, deadline=None)
@given(
    m2=st.floats(min_value=1e-3, max_value=1e6),
    q=st.floats(min_value=1.01, max_value=32.0),
    pm=st.floats(min_value=1e-3, max_value=1e6),
)
def test_renyi_lower_bound_monotone_in_m2(m2, q, pm):
    lo = renyi_lower_bound(m2, q, pm).value
    hi = renyi_lower_bound(m2 * 2, q, pm).value
    assert hi >= lo
    assert lo >= 0.0


def test_pi_moment_for():
    # E ||x||^(2q/(q-1)) under the target; q=2 -> fourth moment
    assert pi_moment_for(Gaussian(d=1), 2.0) == pytest.approx(3.0, rel=1e-9)
    with pytest.raises(MomentUndefinedError):
        pi_moment_for(GenCauchy(d=1, nu=2), 2.0)


def test_sigma2_eps_frozen_gaussian():
    # e^(eps (q-1)/q) * (E||x||^(2q/(q-1)))^((q-1)/q), Gaussian d=1, q=2, eps=0.1
    val = sigma2_eps(Gaussian(d=1), q=2.0, eps=0.1)
    assert val == pytest.approx(math.exp(0.05) * math.sqrt(3.0), rel=1e-12)
    assert val == pytest.approx(1.8208549514519115, rel=1e-12)


def test_sigma2_eps_frozen_sublinear():
    val = sigma2_eps(Sublinear(d=2, alpha=0.5), q=2.0, eps=1.0)
    assert val == pytest.approx(4292.968730834903, rel=1e-6)


# ---------------------------------------------------------------------------
# Gaussian Renyi closed form
# ---------------------------------------------------------------------------


def test_gaussian_renyi_frozen():
    assert gaussian_renyi(2.0, 1.0, 4.0, 1) == pytest.approx(
        math.log(4.0 / math.sqrt(7.0)), rel=1e-12
    )
    assert gaussian_renyi(2.0, 1.0, 4.0, 1) == pytest.approx(0.41333928659223396, rel=1e-12)


def test_gaussian_renyi_zero_when_equal():
    assert gaussian_renyi(2.0, 3.0, 3.0, 4) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_renyi_infinite_when_support_fails():
    # c = q/s2_rho + (1-q)/s2_pi <= 0: the q-divergence is infinite
    assert gaussian_renyi(2.0, 4.0, 1.0, 1) == math.inf


def test_gaussian_renyi_q_inf():
    # sup log-ratio of N(0, s2r) over N(0, s2p), finite iff s2r <= s2p
    assert gaussian_renyi(math.inf, 0.25, 1.0, 1) == pytest.approx(0.5 * math.log(4.0), rel=1e-12)
    assert gaussian_renyi(math.inf, 1.0, 1.0, 3) == pytest.approx(0.0, abs=1e-14)
    assert gaussian_renyi(math.inf, 2.0, 1.0, 1) == math.inf


def test_gaussian_renyi_dimension_scaling():
    one = gaussian_renyi(2.0, 1.0, 4.0, 1)
    five = gaussian_renyi(2.0, 1.0, 4.0, 5)
    assert five == pytest.approx(5 * one, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=1.05, max_value=16.0),
    s2r=st.floats(min_value=0.1, max_value=0.9),
)
def test_gaussian_renyi_nonnegative_and_monotone_in_q(q, s2r):
    lo = gaussian_renyi(q, s2r, 1.0, 2)
    hi = gaussian_renyi(q + 1.0, s2r, 1.0, 2)
    assert lo >= -1e-12
    assert hi >= lo - 1e-12


# ---------------------------------------------------------------------------
# comparison process
# ---------------------------------------------------------------------------


def test_comparison_process_gaussian_recursion():
    # z' = (1 - 2h f'(z))^2 z + 2hd with f'(t) = 1/2 for the Gaussian family
    z = comparison_process_z(Gaussian(d=2), h=0.1, z0=4.0, k_max=1)
    assert z.shape == (2,)
    assert z[0] == 4.0
    assert z[1] == pytest.approx((1 - 0.1) ** 2 * 4.0 + 2 * 0.1 * 2, rel=1e-12)


def test_comparison_process_fixed_point():
    z = comparison_process_z(Gaussian(d=1), h=0.1, z0=50.0, k_max=4000)
    fp = 2 * 0.1 * 1 / (1 - (1 - 2 * 0.1 * 0.5) ** 2)
    assert z[-1] == pytest.approx(fp, rel=1e-9)
    assert fp == pytest.approx(1.0526315789473684, rel=1e-12)


def test_comparison_process_monotone_convergence_from_above():
    z = comparison_process_z(GenCauchy(d=1, nu=2), h=0.01, z0=100.0, k_max=500)
    assert np.all(np.diff(z) <= 1e-12)


def test_comparison_process_rejects_nonmonotone_map():
    # f'(t) = t makes g(r) = (1 - 2 h r)^2 r non-monotone on the grid
    spec = RadialCustom(d=1, f=lambda t: t * t / 2.0, fprime=lambda t: t)
    with pytest.raises(AssumptionViolatedError):
        comparison_process_z(spec, h=0.1, z0=8.0, k_max=10)


def test_comparison_process_validation():
    with pytest.raises(InputValidationError):
        comparison_process_z(Gaussian(d=1), h=0.0, z0=1.0, k_max=5)
    with pytest.raises(InputValidationError):
        comparison_process_z(Gaussian(d=1), h=0.1, z0=-1.0, k_max=5)


# ---------------------------------------------------------------------------
# iterations_to_threshold
# ---------------------------------------------------------------------------


def _trace(iters, m2, se):
    return MomentTrace(
        iters=np.asarray(iters, dtype=np.int64),
        m2=np.asarray(m2, dtype=float),
        se=np.asarray(se, dtype=float),
        n_chains=100,
    )


def test_iterations_to_threshold_first_crossing():
    tr = _trace([0, 10, 20], [10.0, 5.0, 1.0], [0.0, 0.0, 0.0])
    assert iterations_to_threshold(tr, 2.0) == 20
    assert iterations_to_threshold(tr, 100.0) == 0
    assert iterations_to_threshold(tr, 0.5) is None


def test_iterations_to_threshold_uses_confidence_band():
    tr = _trace([0, 10], [10.0, 1.9], [0.0, 0.2])
    # 1.9 + 2*0.2 = 2.3 >= 2.0: not yet converged by the surrogate rule
    assert iterations_to_threshold(tr, 2.0) is None


# ---------------------------------------------------------------------------
# diagnostic report
# ---------------------------------------------------------------------------


def test_diagnostic_report_keys_and_consistency():
    spec = Gaussian(d=1)
    init = gaussian_init(sigma2=25.0, d=1, n_chains=4096, h=0.05, seed=9)
    trace = run_chains(spec, init, n_iters=300, record_every=10)
    thr = sigma2_eps(spec, 2.0, 1.0)
    rep = diagnostic_report(trace, spec, q=2.0, threshold=thr)
    assert rep["threshold"] == pytest.approx(thr)
    assert rep["hit_iter"] == iterations_to_threshold(trace, thr)
    assert rep["final_m2"] == pytest.approx(float(trace.m2[-1]))
    assert rep["surrogate"] is not None
    assert rep["n_chains"] == 4096
    assert rep["stopped_early"] is False


def test_diagnostic_report_degrades_when_moment_diverges():
    """GenCauchy nu=2 has no finite 2q/(q-1) moment for any q > 1: the
    surrogate fields must be None, not an exception."""
    spec = GenCauchy(d=1, nu=2)
    init = gaussian_init(sigma2=4.0, d=1, n_chains=256, h=0.01, seed=1)
    trace = run_chains(spec, init, n_iters=50, record_every=10)
    rep = diagnostic_report(trace, spec, q=2.0, threshold=2.0)
    assert rep["surrogate"] is None
    assert rep["clamped"] is None
    assert rep["final_m2"] == pytest.approx(float(trace.m2[-1]))
