"""Explicit bound calculators: weightings, time/iteration bounds, step-size
caps, lower bounds, thresholds, and initialization divergences.

Frozen numeric oracles were derived independently (hand evaluation of the
closed forms, high-precision arithmetic, or quadrature written from
scratch) before the implementation and are asserted at tight tolerances.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from heavytail_lmc import (
    BoundQuery,
    Gaussian,
    GenCauchy,
    GrowthParams,
    InputValidationError,
    RadialCustom,
    Sublinear,
    UnsupportedFamilyError,
    assemble_upper_bound,
    beta_for_spec,
    beta_prime,
    beta_wpi_cauchy,
    beta_wpi_cauchy_report,
    beta_wpi_sublinear,
    beta_wpi_sublinear_report,
    coupling_delta0,
    delta0_threshold,
    diffusion_time_bound,
    disc_step_size,
    gaussian_init,
    gen_cauchy_init_bound_simplified,
    growth_params,
    init_divergence_bound,
    iterations_to_threshold,
    lmc_iteration_bound,
    lmc_iteration_count,
    log_normalizing_constant,
    lower_bound_complexity,
    modified_target_m,
    normalizing_constant,
    pi_moment_for,
    potential,
    radial_moment,
    run_chains,
    sigma2_eps,
    step_size_upper_bound,
    warm_start_divergence_bound,
)
from heavytail_lmc import targets


# ---------------------------------------------------------------------------
# WPI weighting: log-tailed family
# ---------------------------------------------------------------------------


def test_beta_cauchy_frozen_values():
    # 2/nu + 2 (d/nu + 1) r^(-2/nu)
    assert beta_wpi_cauchy(2.0, 1, 1.0) == pytest.approx(4.0, rel=1e-14)
    assert beta_wpi_cauchy(2.0, 1, 0.01) == pytest.approx(301.0, rel=1e-12)


def test_beta_cauchy_report_fields():
    rep = beta_wpi_cauchy_report(2.0, 1, 1.0)
    assert rep.value == pytest.approx(4.0)
    assert rep.kind == "beta"
    assert rep.feasible
    assert "r" in rep.intermediates
    d = rep.to_dict()
    json.dumps(d)  # must be JSON-serializable


def test_beta_cauchy_validation():
    with pytest.raises(InputValidationError):
        beta_wpi_cauchy(0.0, 1, 1.0)
    with pytest.raises(InputValidationError):
        beta_wpi_cauchy(2.0, 1, 0.0)
    with pytest.raises(InputValidationError):
        beta_wpi_cauchy(2.0, 0, 1.0)


@settings(max_examples=50, deadline=None)
@given(
    nu=st.floats(min_value=0.2, max_value=10.0),
    d=st.integers(min_value=1, max_value=16),
    r=st.floats(min_value=1e-6, max_value=1.0),
)
def test_beta_cauchy_nonincreasing_in_r(nu, d, r):
    assert beta_wpi_cauchy(nu, d, r) >= beta_wpi_cauchy(nu, d, min(r * 2, 1.0)) - 1e-12


# ---------------------------------------------------------------------------
# WPI weighting: sublinear family
# ---------------------------------------------------------------------------


def test_beta_sublinear_frozen_fixed_gamma():
    assert beta_wpi_sublinear(0.5, 1, 1.0, gamma=1.0) == pytest.approx(
        621339.2974109156, rel=1e-12
    )


def test_beta_sublinear_frozen_minimized():
    assert beta_wpi_sublinear(0.5, 1, 1.0) == pytest.approx(
        412512.77567349136, rel=1e-12
    )
    rep = beta_wpi_sublinear_report(0.5, 1, 1.0)
    assert rep.intermediates["gamma"] == pytest.approx(0.8961505019466041, rel=1e-12)
    # the minimized value never exceeds any fixed-gamma value
    assert rep.value <= beta_wpi_sublinear(0.5, 1, 1.0, gamma=1.0)


def test_beta_sublinear_gamma_domain():
    with pytest.raises(InputValidationError):
        beta_wpi_sublinear(0.5, 1, 1.0, gamma=0.0)
    with pytest.raises(InputValidationError):
        beta_wpi_sublinear(0.5, 1, 1.0, gamma=1.1)  # gamma must be <= 2 alpha
    with pytest.raises(InputValidationError):
        beta_wpi_sublinear(1.5, 1, 1.0)  # alpha outside (0, 1)


def test_beta_sublinear_r_shape_quartic_log():
    """At fixed gamma = 2 alpha the bound grows like ln(1/r)^4 deep in the
    tail (alpha = 1/2): the log-log slope against ln(1/r) approaches 4."""
    ls = [200.0, 400.0, 700.0]
    vals = [math.log(beta_wpi_sublinear(0.5, 1, math.exp(-l), gamma=1.0)) for l in ls]
    slope = float(np.polyfit(np.log(ls), vals, 1)[0])
    assert 3.9 <= slope <= 4.1


def test_beta_sublinear_d_shape_quartic():
    """At fixed gamma = 2 alpha the d-dependence approaches d^4, but the
    explicit chain only reaches that exponent asymptotically: the log-log
    slope over d in {128..1024} sits in [3.5, 4.1] (over small d the
    constant terms flatten it to ~2.3)."""
    ds = [128, 256, 512, 1024]
    vals = [math.log(beta_wpi_sublinear(0.5, d, 1.0, gamma=1.0)) for d in ds]
    slope = float(np.polyfit(np.log(ds), vals, 1)[0])
    assert 3.5 <= slope <= 4.1
    small = [math.log(beta_wpi_sublinear(0.5, d, 1.0, gamma=1.0)) for d in (2, 4, 8, 16, 32, 64)]
    small_slope = float(np.polyfit(np.log([2, 4, 8, 16, 32, 64]), small, 1)[0])
    assert small_slope < 3.0  # regression-pin the pre-asymptotic regime


def test_beta_sublinear_minimized_r_shape():
    """Minimizing over gamma improves the deep-tail exponent to ~2/alpha - 2."""
    ls = [200.0, 400.0, 700.0]
    vals = [math.log(beta_wpi_sublinear(0.5, 1, math.exp(-l))) for l in ls]
    slope = float(np.polyfit(np.log(ls), vals, 1)[0])
    assert 1.8 <= slope <= 2.2


C4_R_GRID = (1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.7, 1.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_beta_sublinear_matches_per_point_scan(alpha, d,
                                               beta_sublinear_reference):
    """The gamma table computed once per weighting gives the values and
    intermediates of a scan that evaluates every gamma afresh per r."""
    family_beta = Sublinear(d=d, alpha=alpha).wpi_beta()
    for r in (*C4_R_GRID, 5e-324, 1e3):
        want, inter = beta_sublinear_reference(alpha, d, r)
        assert beta_wpi_sublinear(alpha, d, r) == want, r
        assert family_beta(r) == want, r
        rep = beta_wpi_sublinear_report(alpha, d, r)
        assert rep.value == want
        assert rep.intermediates == inter
        for key in ("gamma", "w", "log_a", "b", "exponent"):
            assert rep.intermediates[key].hex() == inter[key].hex(), (r, key)
        for gamma in (2e-3 * alpha, 0.3 * alpha, alpha, 2.0 * alpha):
            fixed, fixed_inter = beta_sublinear_reference(alpha, d, r, gamma)
            assert beta_wpi_sublinear(alpha, d, r, gamma=gamma) == fixed
            assert (beta_wpi_sublinear_report(alpha, d, r, gamma=gamma)
                    .intermediates == fixed_inter)


@pytest.mark.parametrize("alpha, d, r", [(0.5, 1, 0.1), (0.3, 1, 1e-4)])
def test_beta_sublinear_first_of_tied_gammas_wins(alpha, d, r, monkeypatch,
                                                 beta_sublinear_reference):
    """Two gammas a few ulps apart at the minimizer give the same float; the
    scan reports the one that comes first on its grid."""
    best = beta_wpi_sublinear_report(alpha, d, r).intermediates["gamma"]
    want = beta_sublinear_reference(alpha, d, r, best)[0]
    tied = math.nextafter(best, math.inf)
    while beta_sublinear_reference(alpha, d, r, tied)[0] != want:
        tied = math.nextafter(tied, math.inf)
        assert tied - best < 1e-12, "no tie near the minimizer"
    for grid in ([best, tied], [tied, best]):
        monkeypatch.setattr(targets, "_gamma_grid", lambda a, g=grid: np.array(g))
        rep = beta_wpi_sublinear_report(alpha, d, r)
        assert rep.value == want
        assert rep.intermediates == beta_sublinear_reference(alpha, d, r, grid[0])[1]
        assert Sublinear(d=d, alpha=alpha).wpi_beta()(r) == want


def test_beta_sublinear_table_is_per_weighting():
    """Each wpi_beta() callable fills its own table on its first call."""
    a, b = Sublinear(d=1, alpha=0.3).wpi_beta(), Sublinear(d=2, alpha=0.7).wpi_beta()
    assert a(0.1) == beta_wpi_sublinear(0.3, 1, 0.1)
    assert b(0.1) == beta_wpi_sublinear(0.7, 2, 0.1)
    assert a(1e-4) == beta_wpi_sublinear(0.3, 1, 1e-4)
    with pytest.raises(InputValidationError):
        Sublinear(d=1, alpha=1.0).wpi_beta()(0.1)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.1, max_value=0.9),
    d=st.integers(min_value=1, max_value=8),
    r=st.floats(min_value=1e-4, max_value=1.0),
)
def test_beta_sublinear_nonincreasing_in_r(alpha, d, r):
    assert beta_wpi_sublinear(alpha, d, r) >= beta_wpi_sublinear(alpha, d, min(2 * r, 1.0)) - 1e-9


# ---------------------------------------------------------------------------
# order transform
# ---------------------------------------------------------------------------


def test_beta_prime_constant_base():
    # beta'(r) = beta((r/5)^(u/(u-2))) * max((u/(u-2)) ln(5/r), 0)
    c = 7.0
    beta = lambda r: c
    assert beta_prime(beta, 4.0, 1.0) == pytest.approx(c * 2.0 * math.log(5.0), rel=1e-12)
    assert beta_prime(beta, 4.0, 5.0) == 0.0


def test_beta_prime_composes_argument():
    seen = []

    def beta(r):
        seen.append(r)
        return 1.0

    beta_prime(beta, 4.0, 1.0)
    assert seen[-1] == pytest.approx((1.0 / 5.0) ** 2.0, rel=1e-12)


def test_beta_prime_order_domain():
    with pytest.raises(InputValidationError):
        beta_prime(lambda r: 1.0, 2.0, 1.0)
    with pytest.raises(InputValidationError):
        beta_prime(lambda r: 1.0, 1.5, 1.0)


def test_beta_for_spec_dispatch():
    b1 = beta_for_spec(GenCauchy(d=1, nu=2))
    assert b1(1.0) == pytest.approx(beta_wpi_cauchy(2.0, 1, 1.0))
    b2 = beta_for_spec(Sublinear(d=1, alpha=0.5))
    assert b2(1.0) == pytest.approx(beta_wpi_sublinear(0.5, 1, 1.0))
    b3 = beta_for_spec(Gaussian(d=3))
    assert b3(0.123) == 1.0
    with pytest.raises(UnsupportedFamilyError):
        beta_for_spec(RadialCustom(d=1, f=lambda t: t))


# ---------------------------------------------------------------------------
# diffusion time bound
# ---------------------------------------------------------------------------


def test_diffusion_time_constant_beta_closed_form():
    """With constant beta and q' = inf the bound is q c R + (q/2) c ln(1/eps)."""
    c, q, eps, r_q0 = 3.0, 2.0, 0.1, 1.0
    query = BoundQuery(q=q, q_prime=math.inf, eps=eps,
                       r_init={"q": r_q0, "qprime": 1.0})
    rep = diffusion_time_bound(query, lambda r: c)
    want = q * c * r_q0 + (q / 2.0) * c * math.log(1.0 / eps)
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.kind == "time_T"
    assert rep.feasible
    assert rep.intermediates["log_delta0"] == pytest.approx(q * 1.0)


def test_diffusion_time_eps_one_drops_second_term():
    query = BoundQuery(q=2.0, q_prime=math.inf, eps=1.0,
                       r_init={"q": 1.0, "qprime": 1.0})
    rep = diffusion_time_bound(query, lambda r: 3.0)
    assert rep.value == pytest.approx(6.0, rel=1e-12)


def test_diffusion_time_finite_qprime_uses_transform():
    query = BoundQuery(q=2.0, q_prime=4.0, eps=0.5,
                       r_init={"q": 1.0, "qprime": 1.0})
    rep = diffusion_time_bound(query, lambda r: 1.0)
    assert rep.feasible
    assert rep.intermediates["beta_transform_u"] == pytest.approx(2 * 4.0 / 2.0)
    # the wrapped weighting's log factor makes this exceed the passthrough
    rep_inf = diffusion_time_bound(
        BoundQuery(q=2.0, q_prime=math.inf, eps=0.5, r_init={"q": 1.0, "qprime": 1.0}),
        lambda r: 1.0,
    )
    assert rep.value > rep_inf.value


def test_diffusion_time_requires_r_init_keys():
    with pytest.raises(InputValidationError, match="r_init"):
        diffusion_time_bound(
            BoundQuery(q=2.0, q_prime=math.inf, eps=0.5, r_init={"q": 1.0}),
            lambda r: 1.0,
        )


def test_diffusion_time_monotone_in_divergence_and_accuracy():
    beta = beta_for_spec(GenCauchy(d=1, nu=2))

    def t_of(r0, eps):
        return diffusion_time_bound(
            BoundQuery(q=2.0, q_prime=math.inf, eps=eps, r_init={"q": r0, "qprime": r0}),
            beta,
        ).value

    assert t_of(2.0, 0.5) >= t_of(1.0, 0.5)
    assert t_of(1.0, 0.25) >= t_of(1.0, 0.5)


# ---------------------------------------------------------------------------
# iteration count and iteration bound
# ---------------------------------------------------------------------------


def test_lmc_iteration_count_frozen():
    assert lmc_iteration_count(
        T=10.0, d=1, q=2.0, L=1.0, s=1.0, eps=0.1, m=1.0, r2_hat=1.0
    ) == pytest.approx(2000.0, rel=1e-12)


def test_lmc_iteration_count_scaling_in_T():
    """N scales like T^(1 + 1/s) for s = 1 (quadratic in the horizon)."""
    n1 = lmc_iteration_count(T=10.0, d=1, q=2.0, L=1.0, s=1.0, eps=0.1, m=1.0, r2_hat=1.0)
    n2 = lmc_iteration_count(T=20.0, d=1, q=2.0, L=1.0, s=1.0, eps=0.1, m=1.0, r2_hat=1.0)
    assert n2 / n1 == pytest.approx(4.0, rel=1e-9)


def test_lmc_iteration_bound_constant_beta_composition():
    """Manually recompose delta0, T, and N for a constant weighting."""
    c, q, eps = 2.0, 2.0, 0.25
    r3, rinf, r2h = 1.5, 1.0, 2.0
    query = BoundQuery(
        q=q, q_prime=math.inf, eps=eps, spec=Gaussian(d=1),
        r_init={"2q-1": r3, "qprime": rinf, "r2_hat": r2h},
    )
    rep = lmc_iteration_bound(query, lambda r: c, m=1.0)
    t_want = (2 * q - 1) * (c * r3 + c * math.log(2.0 / eps))
    n_want = lmc_iteration_count(T=t_want, d=1, q=q, L=1.0, s=1.0, eps=eps, m=1.0, r2_hat=r2h)
    assert rep.intermediates["time_T"] == pytest.approx(t_want, rel=1e-12)
    assert rep.value == pytest.approx(n_want, rel=1e-12)
    assert rep.kind == "iters_N"
    assert rep.feasible


def test_lmc_iteration_bound_qprime_domain():
    with pytest.raises(InputValidationError):
        lmc_iteration_bound(
            BoundQuery(q=2.0, q_prime=2.5, eps=0.25, spec=Gaussian(d=1),
                       r_init={"2q-1": 1.0, "qprime": 1.0, "r2_hat": 1.0}),
            lambda r: 1.0,
            m=1.0,
        )


def test_lmc_iteration_bound_flags_convenience_assumptions():
    # eps > 1/q violates the stated convenience assumption; the value is
    # still computed but the report is flagged
    rep = lmc_iteration_bound(
        BoundQuery(q=2.0, q_prime=math.inf, eps=0.9, spec=Gaussian(d=1),
                   r_init={"2q-1": 1.0, "qprime": 1.0, "r2_hat": 1.0}),
        lambda r: 1.0,
        m=1.0,
    )
    assert not rep.feasible
    assert rep.infeasibility is not None
    assert math.isfinite(rep.value) and rep.value > 0


# ---------------------------------------------------------------------------
# discretization step size
# ---------------------------------------------------------------------------


def test_disc_step_size_frozen():
    rep = disc_step_size(s=1.0, L=1.0, d=2, q=2.0, eps=0.1, T=10.0, m=1.0,
                         r2_hat=1.0, n_guess=4000.0)
    assert rep.value == pytest.approx(0.0025, rel=1e-12)
    assert rep.kind == "h_disc"


def test_disc_step_size_caps_bind():
    # with a tiny n_guess, T/n dominates and one of the caps binds instead
    rep = disc_step_size(s=1.0, L=1.0, d=2, q=2.0, eps=0.1, T=10.0, m=1.0,
                         r2_hat=1.0, n_guess=2.0)
    assert rep.value < 10.0 / 2.0


def test_disc_step_size_validation():
    with pytest.raises(InputValidationError):
        disc_step_size(s=1.0, L=1.0, d=2, q=2.0, eps=0.1, T=10.0, m=1.0,
                       r2_hat=1.0, n_guess=0.0)


# ---------------------------------------------------------------------------
# moment-decay step-size cap
# ---------------------------------------------------------------------------


def test_step_size_upper_bound_frozen_gaussian():
    rep = step_size_upper_bound(Gaussian(d=1), q=2.0, eps=0.1)
    assert rep.intermediates["sigma2_eps"] == pytest.approx(1.8208549514519115, rel=1e-12)
    assert rep.value == pytest.approx(0.9016148714068399, rel=1e-12)
    assert rep.kind == "h_max"


def test_step_size_upper_bound_monotone_in_eps():
    lo = step_size_upper_bound(Gaussian(d=1), q=2.0, eps=0.01).value
    hi = step_size_upper_bound(Gaussian(d=1), q=2.0, eps=0.5).value
    assert hi >= lo


def test_step_size_upper_bound_moment_diverges():
    from heavytail_lmc import MomentUndefinedError

    with pytest.raises(MomentUndefinedError):
        step_size_upper_bound(GenCauchy(d=1, nu=2), q=2.0, eps=0.1)


# ---------------------------------------------------------------------------
# complexity lower bounds
# ---------------------------------------------------------------------------


def test_lower_bound_log_tail_frozen():
    rep = lower_bound_complexity(
        growth_params(GenCauchy(d=2, nu=1)), d=2, delta0=5.0, h=0.01, nu=1.0
    )
    assert rep.value == pytest.approx(7420.65795512883, rel=1e-12)
    assert rep.kind == "iters_N"
    assert rep.regime == "alpha0"


def test_lower_bound_log_tail_exact_exponential():
    g = growth_params(GenCauchy(d=2, nu=1.5))
    a = lower_bound_complexity(g, d=2, delta0=4.0, h=0.01, nu=1.5).value
    b = lower_bound_complexity(g, d=2, delta0=4.0 + 1.5, h=0.01, nu=1.5).value
    assert b / a == pytest.approx(math.e, rel=1e-12)


def test_lower_bound_mid_regime_delta0_exponent():
    """T ~ delta0^((2-alpha)^2/(2 alpha)): exponent 1/2 at alpha = 1."""
    g = growth_params(Sublinear(d=1, alpha=1.0))
    t1 = lower_bound_complexity(g, d=1, delta0=100.0).value
    t2 = lower_bound_complexity(g, d=1, delta0=400.0).value
    assert t2 / t1 == pytest.approx(2.0, rel=1e-9)
    # kind falls back to time_T when no step size is supplied
    assert lower_bound_complexity(g, d=1, delta0=100.0).kind == "time_T"


def test_lower_bound_gaussian_regime_frozen():
    g = growth_params(Gaussian(d=1))
    rep = lower_bound_complexity(g, d=1, delta0=10.0, h=0.5)
    # c ln(delta0 / b) / (2 (1+c) b) with c = 1, b = 1
    assert rep.value == pytest.approx(math.log(10.0) / 4.0, rel=1e-12)
    assert rep.value == pytest.approx(0.5756462732485115, rel=1e-12)
    assert rep.regime == "alpha2"
    # N and T coincide in this regime
    assert rep.intermediates["time_T"] == pytest.approx(rep.value)


def test_lower_bound_gaussian_regime_h_domain():
    g = growth_params(Gaussian(d=1))
    with pytest.raises(InputValidationError):
        lower_bound_complexity(g, d=1, delta0=10.0, h=1.0)  # needs h < 1/b


def test_lower_bound_gaussian_vacuous_below_b():
    g = growth_params(Gaussian(d=1))
    rep = lower_bound_complexity(g, d=1, delta0=0.5, h=0.5)
    assert rep.value == 0.0
    assert not rep.feasible


def test_lower_bound_threshold_gate():
    g = growth_params(GenCauchy(d=1, nu=2))
    rep = lower_bound_complexity(g, d=1, delta0=1.0, h=0.01, nu=2.0, threshold=5.0)
    assert not rep.feasible
    assert "threshold" in (rep.infeasibility or "")


# ---------------------------------------------------------------------------
# delta0 validity thresholds
# ---------------------------------------------------------------------------


def test_delta0_threshold_frozen_log_tail():
    spec = GenCauchy(d=1, nu=6)
    rep = delta0_threshold(
        growth_params(spec), d=1, q=2.0,
        Z=normalizing_constant(spec), pi_moment=radial_moment(spec, 4.0),
    )
    assert rep.value == pytest.approx(7.216395324324494, rel=1e-9)
    assert rep.kind == "delta0_min"


def test_delta0_threshold_frozen_gaussian():
    spec = Gaussian(d=2)
    rep = delta0_threshold(
        growth_params(spec), d=2, q=2.0,
        Z=normalizing_constant(spec), pi_moment=radial_moment(spec, 4.0),
    )
    assert rep.value == pytest.approx(8 * math.e, rel=1e-9)
    assert rep.value == pytest.approx(21.746254627672368, rel=1e-9)


def test_delta0_threshold_regime_consistency():
    # the regime follows alpha; an alpha outside [0, 2] selects none
    for alpha in (-0.5, 2.5, math.nan):
        with pytest.raises(InputValidationError, match="tail-growth exponent"):
            delta0_threshold(GrowthParams(b=1.0, alpha=alpha), d=2, q=2.0,
                             Z=1.0, pi_moment=1.0)


def test_delta0_threshold_mid_regime_positive():
    spec = Sublinear(d=2, alpha=0.5)
    rep = delta0_threshold(
        growth_params(spec), d=2, q=2.0,
        Z=normalizing_constant(spec), pi_moment=radial_moment(spec, 4.0),
    )
    assert rep.value > 0
    assert rep.value >= 1.0 / 0.5  # the 1/alpha term is always present


# ---------------------------------------------------------------------------
# initialization divergence bounds
# ---------------------------------------------------------------------------


def test_init_divergence_gen_cauchy_frozen():
    assert init_divergence_bound(GenCauchy(d=1, nu=2), 1.0, "Rinf").value == pytest.approx(
        0.4221270803574374, rel=1e-12
    )
    assert init_divergence_bound(GenCauchy(d=1, nu=2), 4.0, "Rinf").value == pytest.approx(
        1.433421441477328, rel=1e-12
    )


def test_init_divergence_sublinear_frozen():
    assert init_divergence_bound(Sublinear(d=1, alpha=0.5), 2.0, "Rinf").value == pytest.approx(
        1.238615212536848, rel=1e-12
    )
    assert init_divergence_bound(Sublinear(d=1, alpha=0.5), 8.0, "Rinf").value == pytest.approx(
        0.9453690839451023, rel=1e-12
    )


def test_init_divergence_dominates_exact_1d():
    """The bound must sit above the quadrature-exact sup log-ratio."""
    cases = [
        (GenCauchy(d=1, nu=2), 1.0),
        (GenCauchy(d=1, nu=2), 4.0),
        (Sublinear(d=1, alpha=0.5), 2.0),
        (Sublinear(d=1, alpha=0.5), 8.0),
    ]
    for spec, s2 in cases:
        bound = init_divergence_bound(spec, s2, "Rinf").value

        def neg_log_ratio(x):
            xx = np.array([[x]])
            log_rho = -0.5 * x * x / s2 - 0.5 * math.log(2 * math.pi * s2)
            log_pi = -float(potential(spec, xx)[0]) - log_normalizing_constant(spec)
            return -(log_rho - log_pi)

        res = optimize.minimize_scalar(neg_log_ratio, bounds=(0.0, 60.0), method="bounded")
        exact = -res.fun
        assert bound >= exact - 1e-9, (spec, s2, bound, exact)


def test_init_divergence_gaussian_kl():
    assert init_divergence_bound(Gaussian(d=3), 1.0, "KL").value == pytest.approx(0.0, abs=1e-14)
    assert init_divergence_bound(Gaussian(d=1), 4.0, "KL").value == pytest.approx(
        0.8068528194400546, rel=1e-12
    )
    # (d/2)(sigma2 - 1 - ln sigma2) closed form
    assert init_divergence_bound(Gaussian(d=5), 2.0, "KL").value == pytest.approx(
        2.5 * (2.0 - 1.0 - math.log(2.0)), rel=1e-12
    )


def test_init_divergence_kind_errors():
    with pytest.raises(InputValidationError, match="KL"):
        init_divergence_bound(Gaussian(d=1), 4.0, "Rinf")
    with pytest.raises(UnsupportedFamilyError):
        init_divergence_bound(GenCauchy(d=1, nu=2), 4.0, "KL")
    with pytest.raises(InputValidationError):
        init_divergence_bound(GenCauchy(d=1, nu=2), 4.0, "R3")


def test_init_divergence_sigma2_domain():
    # heavy-tail families need sigma2 >= 1/b
    with pytest.raises(InputValidationError):
        init_divergence_bound(GenCauchy(d=1, nu=2), 0.1, "Rinf")
    with pytest.raises(InputValidationError):
        init_divergence_bound(Sublinear(d=1, alpha=0.5), 0.5, "Rinf")


def test_init_divergence_r2_hat():
    # Gaussian: exact order-2 divergence from the narrower start, needs s2 < 1
    assert init_divergence_bound(Gaussian(d=2), 0.4, "R2_hat").value == pytest.approx(
        1.4271163556401456, rel=1e-12
    )
    with pytest.raises(InputValidationError):
        init_divergence_bound(Gaussian(d=1), 1.5, "R2_hat")
    # heavy tails: d ln 2 + Rinf(2 sigma2)
    val = init_divergence_bound(GenCauchy(d=1, nu=2), 1.0, "R2_hat").value
    rinf2 = init_divergence_bound(GenCauchy(d=1, nu=2), 2.0, "Rinf").value
    assert val == pytest.approx(math.log(2.0) + rinf2, rel=1e-12)
    assert val == pytest.approx(1.558421441477328, rel=1e-12)


def test_init_divergence_r2_hat_envelope_domain():
    with pytest.raises(InputValidationError):
        init_divergence_bound(GenCauchy(d=1, nu=2), 4000.0, "R2_hat", T=1.0)
    # a longer horizon relaxes the same width check
    rep = init_divergence_bound(GenCauchy(d=1, nu=2), 4000.0, "R2_hat", T=2.0)
    assert math.isfinite(rep.value)


# ---------------------------------------------------------------------------
# simplified display formulas
# ---------------------------------------------------------------------------


def test_gen_cauchy_display_frozen():
    val = gen_cauchy_init_bound_simplified(2, 2.0, 1.0)
    assert val == pytest.approx(math.log(4.0 / math.e), rel=1e-12)
    assert val == pytest.approx(0.38629436111989063, rel=1e-12)
    with pytest.raises(InputValidationError):
        gen_cauchy_init_bound_simplified(1, 2.0, 1.0)  # display needs d >= 2


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------


def test_warm_start_frozen():
    rep = warm_start_divergence_bound(GenCauchy(d=1, nu=2))
    assert rep.value == pytest.approx(5.0 + 0.5 * math.log(3.0), rel=1e-12)
    assert rep.value == pytest.approx(5.5493061443340785, rel=1e-12)


def test_warm_start_modified_target():
    rep = warm_start_divergence_bound(GenCauchy(d=1, nu=2), T=2.0, target="pi_hat")
    assert rep.value == pytest.approx(17.20816141678216, rel=1e-12)
    plain = warm_start_divergence_bound(GenCauchy(d=1, nu=2), T=2.0, target="pi")
    assert rep.value >= plain.value
    with pytest.raises(InputValidationError):
        warm_start_divergence_bound(GenCauchy(d=1, nu=2), target="rho")


# ---------------------------------------------------------------------------
# query/report plumbing
# ---------------------------------------------------------------------------


def test_bound_query_validation():
    with pytest.raises(InputValidationError):
        BoundQuery(q=1.0, q_prime=math.inf, eps=0.5)
    with pytest.raises(InputValidationError):
        BoundQuery(q=2.0, q_prime=1.5, eps=0.5)
    with pytest.raises(InputValidationError):
        BoundQuery(q=2.0, q_prime=math.inf, eps=0.0)
    with pytest.raises(InputValidationError):
        BoundQuery(q=2.0, q_prime=math.inf, eps=1.5)
    with pytest.raises(InputValidationError):
        BoundQuery(q=2.0, q_prime=math.inf, eps=0.5, r_init={"bogus": 1.0})
    with pytest.raises(InputValidationError):
        BoundQuery(q=2.0, q_prime=math.inf, eps=0.5, r_init={"q": -1.0})


def test_bound_report_to_dict_nonfinite():
    rep = lower_bound_complexity(growth_params(Gaussian(d=1)), d=1, delta0=0.5, h=0.5)
    d = rep.to_dict()
    json.dumps(d)
    rep2 = init_divergence_bound(GenCauchy(d=1, nu=2), 1.0, "Rinf")
    json.dumps(rep2.to_dict())


# ---------------------------------------------------------------------------
# end-to-end consistency sandwich
# ---------------------------------------------------------------------------


def test_complexity_sandwich_gen_cauchy():
    """lower_bound <= measured iterations <= assembled upper bound.

    One fully-hypothesis-satisfying experiment: log-tailed target with
    d = 24, tail index 6, Gaussian start N(0, 9 I).  The measured criterion
    (moment surrogate crossing sigma2_eps) is weaker than the divergence
    criterion the upper bound certifies, so the inequality chain must hold.
    """
    spec = GenCauchy(d=24, nu=6)
    q, q_prime, eps, s2, h = 2.0, math.inf, 0.5, 9.0, 0.01

    assert modified_target_m(spec) == pytest.approx(1.0443508697580874, rel=1e-9)
    assert pi_moment_for(spec, q) == pytest.approx(78.0, rel=1e-9)
    thr_cross = sigma2_eps(spec, q, eps)
    assert thr_cross == pytest.approx(11.340205426473098, rel=1e-9)

    delta0 = coupling_delta0(spec, s2)
    assert delta0 == pytest.approx(6.0 * math.log(9.0), rel=1e-12)
    gate = delta0_threshold(
        growth_params(spec), d=24, q=q,
        Z=normalizing_constant(spec), pi_moment=pi_moment_for(spec, q),
    )
    assert gate.value == pytest.approx(7.404241112068497, rel=1e-9)
    assert delta0 >= gate.value

    lower = lower_bound_complexity(
        growth_params(spec), d=24, delta0=delta0, h=h, nu=6.0, threshold=gate.value
    )
    assert lower.feasible
    assert lower.value == pytest.approx(900.0, rel=1e-9)

    upper = assemble_upper_bound(spec, q, q_prime, eps, s2)
    assert upper.feasible, upper.infeasibility
    assert upper.value == pytest.approx(1.0212637103678087e19, rel=1e-6)

    init = gaussian_init(s2, 24, 1000, h, seed=123)
    trace = run_chains(spec, init, n_iters=20_000, record_every=50, stop_below=thr_cross)
    measured = iterations_to_threshold(trace, thr_cross)
    assert measured is not None, "chain never crossed its surrogate threshold"
    assert lower.value <= measured <= upper.value
    # loose regression band around the observed crossing (seed-pinned)
    assert 2_000 <= measured <= 20_000
