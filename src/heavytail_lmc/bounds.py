"""Explicit complexity and divergence bounds for Langevin algorithms.

Every calculator here evaluates a closed-form bound and returns an auditable
:class:`BoundReport` carrying the value, the regime it was computed in, every
intermediate quantity, and a stable citation key.  Conventions:

* All asymptotic implicit constants are set to 1 and recorded in
  ``intermediates["implicit_const"]``; upper-bound values are therefore
  order-correct rather than certified numeric bounds.
* Quantities that can overflow a float are computed in the log domain and
  reported as ``inf`` when they exceed the exponential range; an ``inf``
  value always comes with an infeasibility note.
* Structural domain violations (an undefined transform, a negative rate)
  raise :class:`~heavytail_lmc.targets.InputValidationError`; violations of
  a theorem's convenience assumptions (e.g. ``m >= 1``) produce a report
  flagged infeasible, with the violated assumption named, so that the value
  can still be inspected.

The weak-Poincare weighting functions ``beta_*`` map a resolution r in
(0, 1] to the constant multiplying the gradient energy; smaller r buys a
tighter variance bound at the price of a larger constant.

A phase-sweep leg gets its stop threshold, coupling delta0, gated lower
report and upper value from :func:`phase_leg_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .diagnostics import pi_moment_for, sigma2_eps
from .targets import (
    GrowthParams,
    InputValidationError,
    MomentUndefinedError,
    PotentialSpec,
    _beta_sublinear,
    _safe_exp,
    beta_wpi_cauchy,
    log_normalizing_constant,
    modified_target_m,
)

__all__ = [
    "BoundQuery",
    "BoundReport",
    "beta_wpi_cauchy_report",
    "beta_wpi_sublinear_report",
    "beta_prime",
    "beta_for_spec",
    "diffusion_time_bound",
    "lmc_iteration_count",
    "lmc_iteration_bound",
    "disc_step_size",
    "lower_bound_complexity",
    "delta0_threshold",
    "step_size_upper_bound",
    "init_divergence_bound",
    "gen_cauchy_init_bound_simplified",
    "warm_start_divergence_bound",
    "lower_bound_threshold",
    "lower_bound_gate",
    "phase_threshold",
    "assemble_upper_bound",
    "PhaseLegBounds",
    "phase_leg_bounds",
]

_R_INIT_KEYS = frozenset({"q", "2q-1", "qprime", "kl", "r2_hat"})

#: The modified-target comparison behind R2_hat needs sigma2 <= this * T.
_MODIFIED_TARGET_WIDTH = 3072.0


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound with its full audit trail.

    ``kind`` says what the value measures: a diffusion time (``time_T``), an
    iteration count (``iters_N``), a WPI weighting value (``beta``), a step
    size cap (``h_max`` / ``h_disc``), a minimal initial-divergence level
    (``delta0_min``), or an initialization divergence (``init_div``).
    ``regime`` is set for tail-growth-dispatched bounds (``alpha0``,
    ``alpha_mid``, ``alpha2``).  A report is feasible exactly when
    ``infeasibility`` names no reason; a non-finite or non-positive value
    always comes with one.
    """

    value: float
    kind: str
    citation: str
    regime: Optional[str] = None
    intermediates: Mapping[str, float] = field(default_factory=dict)
    infeasibility: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """Whether the bound holds: exactly when no infeasibility is named."""
        return self.infeasibility is None

    def to_dict(self) -> dict:
        def _num(v: float) -> Union[float, str]:
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)
            return v

        return {
            "value": _num(self.value),
            "kind": self.kind,
            "citation": self.citation,
            "regime": self.regime,
            "intermediates": {k: _num(v) for k, v in self.intermediates.items()},
            "feasible": self.feasible,
            "infeasibility": self.infeasibility,
        }


@dataclass(frozen=True)
class BoundQuery:
    """Inputs shared by the time/iteration bound calculators.

    ``r_init`` maps divergence names at initialization to their values:
    ``"q"`` (order-q Renyi vs the target), ``"2q-1"`` (order 2q-1),
    ``"qprime"`` (order q'; the sup-log-ratio when q' = inf), ``"kl"``
    (relative entropy), and ``"r2_hat"`` (order-2 Renyi vs the modified
    target).  Calculators state which keys they require.
    """

    q: float
    q_prime: float
    eps: float
    spec: Optional[PotentialSpec] = None
    sigma2: Optional[float] = None
    r_init: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.q > 1.0):
            raise InputValidationError(f"q must exceed 1, got {self.q}")
        if not (self.q_prime > self.q):
            raise InputValidationError(
                f"q_prime must exceed q (got q'={self.q_prime}, q={self.q})"
            )
        if not (0.0 < self.eps <= 1.0):
            raise InputValidationError(f"eps must lie in (0, 1], got {self.eps}")
        if self.sigma2 is not None and not (self.sigma2 > 0.0):
            raise InputValidationError(f"sigma2 must be positive, got {self.sigma2}")
        unknown = set(self.r_init) - _R_INIT_KEYS
        if unknown:
            raise InputValidationError(
                f"unknown r_init keys {sorted(unknown)}; "
                f"allowed: {sorted(_R_INIT_KEYS)}"
            )
        for key, val in self.r_init.items():
            if not (val >= 0.0) or not math.isfinite(val):
                raise InputValidationError(
                    f"r_init[{key!r}] must be a finite non-negative real, got {val}"
                )

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if k not in self.r_init]
        if missing:
            raise InputValidationError(
                f"query.r_init is missing required keys {missing}"
            )


# ---------------------------------------------------------------------------
# Weak-Poincare weightings
# ---------------------------------------------------------------------------
# The value forms (targets.beta_wpi_cauchy, targets._beta_sublinear) live
# in targets, whose family classes hand them out.


def beta_wpi_cauchy_report(nu: float, d: int, r: float) -> BoundReport:
    """Report wrapper for :func:`beta_wpi_cauchy`."""
    value = beta_wpi_cauchy(nu, d, r)
    return BoundReport(
        value=value,
        kind="beta",
        citation="wpi:log-tail-weighting",
        regime="alpha0",
        intermediates={"nu": nu, "d": float(d), "r": r},
        infeasibility=None if math.isfinite(value)
        else "r so small the weighting overflows",
    )


def beta_wpi_sublinear_report(
    alpha: float, d: int, r: float, gamma: Optional[float] = None
) -> BoundReport:
    """WPI weighting for subexponential tails, minimized over gamma if free.

    The fully explicit pre-simplification value, using
    C_{d,alpha} = 12 d / alpha^3 + (d + alpha) / alpha^4,
    a = gamma (e C_{d,alpha})^{2/gamma} / (2(1-alpha)+gamma), and
    b = 2(1-alpha) / (2(1-alpha)+gamma).  When ``gamma`` is omitted the
    value is minimized over a 64-point log grid on (0, 2 alpha].
    """
    value, inter = _beta_sublinear(alpha, d, r, gamma)
    return BoundReport(
        value=value,
        kind="beta",
        citation="wpi:subexponential-weighting",
        regime="alpha_mid",
        intermediates=inter,
        infeasibility=None if math.isfinite(value)
        else "weighting overflows at every gamma",
    )


def beta_prime(beta: Callable[[float], float], u: float, r: float) -> float:
    """Weighting for the variance-regularized inequality of order u > 2.

    beta'(r) = beta((r/5)^{u/(u-2)}) * ln((5/r)^{u/(u-2)} or 1, whichever
    is larger).  u <= 2 is rejected: that case is equivalent to an ordinary
    Poincare inequality and the transform is undefined.
    """
    if not (u > 2.0):
        raise InputValidationError(
            f"the regularized weighting needs u > 2, got u={u}"
        )
    if not (r > 0.0):
        raise InputValidationError(f"r must be positive, got {r}")
    expo = u / (u - 2.0)
    log_factor = max(expo * math.log(5.0 / r), 0.0)
    if log_factor == 0.0:
        return 0.0
    arg = math.exp(expo * math.log(r / 5.0))
    if arg == 0.0:
        # The inner resolution underflowed; every weighting we use diverges
        # as its argument tends to 0, so the product is reported as inf.
        return math.inf
    return beta(arg) * log_factor


def beta_for_spec(spec: PotentialSpec) -> Callable[[float], float]:
    """The target's own WPI weighting as a function of the resolution r.

    Gaussian targets satisfy an ordinary Poincare inequality; their
    weighting is the constant 1 (unit variance proxy).  Custom radial
    targets have no closed-form weighting.
    """
    return spec.wpi_beta()


def _resolve_beta_hat(
    beta: Callable[[float], float], order: float, q_prime: float
) -> tuple[Callable[[float], float], Optional[float]]:
    """Pass beta through at q' = inf, else wrap it in the order-u transform.

    ``order`` is the Renyi order whose decay is being driven (q for the
    diffusion bound, 2q-1 for the LMC bound); u = 2 q' / order.
    """
    if math.isinf(q_prime):
        return beta, None
    u = 2.0 * q_prime / order
    return (lambda r: beta_prime(beta, u, r)), u


def _start_resolution(
    query: BoundQuery,
    beta: Callable[[float], float],
    order: float,
    kind: str,
    citation: str,
    own: Callable[[float], Mapping[str, float]],
) -> Union[BoundReport, tuple[Callable[[float], float], float, dict]]:
    """The opening of the time and iteration bounds at Renyi order ``order``.

    Takes log delta0 = order R_q'(rho0||pi), the resolution
    r1 = e^{-log delta0} / 4 and the weighting beta^ (transformed with
    u = 2 q' / order unless q' = inf).  Returns (beta^, r1, intermediates),
    the latter holding log delta0, the caller's ``own(r1)`` entries and u;
    when r1 underflows, returns the infeasible report of ``kind`` instead.
    """
    beta_hat, u = _resolve_beta_hat(beta, order, query.q_prime)
    log_delta0 = order * query.r_init["qprime"]
    r1 = 0.25 * _safe_exp(-log_delta0)
    inter: dict = {"log_delta0": log_delta0, **own(r1)}
    if u is not None:
        inter["beta_transform_u"] = u
    if r1 == 0.0:
        return BoundReport(
            value=math.inf,
            kind=kind,
            citation=citation,
            intermediates=inter,
            infeasibility="initial order-q' divergence so large that the "
            "weighting argument underflows",
        )
    return beta_hat, r1, inter


# ---------------------------------------------------------------------------
# Upper bounds: diffusion time, LMC iterations, step sizes
# ---------------------------------------------------------------------------


def diffusion_time_bound(
    query: BoundQuery, beta: Callable[[float], float]
) -> BoundReport:
    """Diffusion time sufficient for order-q Renyi accuracy eps.

    T = q beta^(1/(4 delta0)) R_q(rho0||pi) + (q/2) beta^(eps/(4 delta0))
    ln(1/eps), with delta0 = exp(q R_q'(rho0||pi)) and beta^ the weighting
    passed through unchanged when q' = inf, else transformed with
    u = 2 q' / q.  Requires r_init keys "q" and "qprime".
    """
    query.require("q", "qprime")
    q, eps = query.q, query.eps
    r_q0 = query.r_init["q"]
    start = _start_resolution(query, beta, q, "time_T",
                              "diffusion:renyi-time-bound",
                              lambda r1: {"r_accuracy": r1})
    if isinstance(start, BoundReport):
        return start
    beta_hat, r1, inter = start
    beta_1 = beta_hat(r1)
    inter["beta_at_quarter_delta0"] = beta_1
    term1 = q * beta_1 * r_q0
    if eps == 1.0:
        term2 = 0.0
    else:
        r2 = eps * r1
        beta_2 = beta_hat(r2)
        inter["beta_at_eps_delta0"] = beta_2
        term2 = 0.5 * q * beta_2 * math.log(1.0 / eps)
    value = term1 + term2
    inter["term_initial"] = term1
    inter["term_accuracy"] = term2
    return BoundReport(
        value=value,
        kind="time_T",
        citation="diffusion:renyi-time-bound",
        intermediates=inter,
        infeasibility=None if math.isfinite(value) and value > 0.0
        else "bound overflowed to inf",
    )


def lmc_iteration_count(
    T: float,
    d: int,
    q: float,
    L: float,
    s: float,
    eps: float,
    m: float,
    r2_hat: float,
) -> float:
    """The iteration-count expression N(T) with unit implicit constant.

    N = T^{1+1/s} d q^{1/s} L^{2/s} / eps^{1/s} * max{1, t_drift, t_disc}
    where t_drift = eps^{1/(2s)} m^s / (L^{1/s-1} T^{1/(2s)} d) and t_disc
    carries the ln(q T L R2_hat / eps)^{s/2} discretization factor.
    """
    if T <= 0 or L <= 0 or eps <= 0 or m <= 0 or r2_hat <= 0 or q <= 1:
        raise InputValidationError(
            "lmc_iteration_count needs T, L, eps, m, r2_hat > 0 and q > 1"
        )
    if not (0.0 < s <= 1.0):
        raise InputValidationError(f"s must lie in (0, 1], got {s}")
    pref = T ** (1.0 + 1.0 / s) * d * q ** (1.0 / s) * L ** (2.0 / s) / eps ** (
        1.0 / s
    )
    l_fac = L ** (1.0 / s - 1.0)
    t_drift = eps ** (0.5 / s) * m**s / (l_fac * T ** (0.5 / s) * d)
    log_arg = q * T * L * r2_hat / eps
    log_pow = max(math.log(log_arg), 0.0) ** (0.5 * s)
    t_disc = (
        eps ** (0.5 / s)
        * r2_hat ** (0.5 * s)
        * log_pow
        / (l_fac * T ** ((1.0 - s * s) / (2.0 * s)) * d)
    )
    return pref * max(1.0, t_drift, t_disc)


def lmc_iteration_bound(
    query: BoundQuery, beta: Callable[[float], float], m: float
) -> BoundReport:
    """LMC iterations sufficient for order-q Renyi accuracy eps.

    First computes the diffusion horizon
    T = (2q-1) { beta^(1/(4 delta0)) R_{2q-1}(rho0||pi)
                 + beta^(eps/(8 delta0)) ln(2/eps) },
    with delta0 = exp((2q-1) R_q'(rho0||pi)) and the weighting transformed
    with u = 2q'/(2q-1) unless q' = inf, then evaluates
    :func:`lmc_iteration_count` at that horizon.  Requires r_init keys
    "2q-1", "qprime", and "r2_hat" (the latter measured against the
    modified target).  ``query.spec`` is required: it gives the dimension
    and the Holder smoothness (L, s).

    The convenience assumptions (eps <= 1/q, q >= 2, and m, L, T, R2_hat,
    1/eps all >= 1) are validated; violations flag the report infeasible
    with the assumption named, while the value is still computed.
    q' <= 2q-1 is structural and raises.
    """
    query.require("2q-1", "qprime", "r2_hat")
    q, q_prime, eps = query.q, query.q_prime, query.eps
    order = 2.0 * q - 1.0
    if not math.isinf(q_prime) and not (q_prime > order):
        raise InputValidationError(
            f"q_prime must exceed 2q-1 = {order}, got {q_prime}"
        )
    if query.spec is None:
        raise InputValidationError(
            "query.spec is required (for the dimension and smoothness)"
        )
    d = query.spec.d
    holder = query.spec.holder()
    L, s = holder.L, holder.s
    r_2q1 = query.r_init["2q-1"]
    r2_hat = query.r_init["r2_hat"]

    start = _start_resolution(query, beta, order, "iters_N",
                              "lmc:iteration-bound",
                              lambda r1: {"implicit_const": 1.0})
    if isinstance(start, BoundReport):
        return start
    beta_hat, r1, inter = start
    beta_1 = beta_hat(r1)
    beta_2 = beta_hat(0.5 * eps * r1)
    T = order * (beta_1 * r_2q1 + beta_2 * math.log(2.0 / eps))
    inter.update(
        {
            "beta_at_quarter_delta0": beta_1,
            "beta_at_eps_eighth_delta0": beta_2,
            "time_T": T,
        }
    )
    violations = []
    if eps > 1.0 / q:
        violations.append(f"eps <= 1/q violated (eps={eps}, 1/q={1.0 / q})")
    if q < 2.0:
        violations.append(f"q >= 2 violated (q={q})")
    if m < 1.0:
        violations.append(f"m >= 1 violated (m={m})")
    if L < 1.0:
        violations.append(f"L >= 1 violated (L={L})")
    if r2_hat < 1.0:
        violations.append(f"R2_hat >= 1 violated (R2_hat={r2_hat})")
    if math.isfinite(T) and T < 1.0:
        violations.append(f"T >= 1 violated (T={T})")
    if not math.isfinite(T):
        return BoundReport(
            value=math.inf,
            kind="iters_N",
            citation="lmc:iteration-bound",
            intermediates=inter,
            infeasibility="diffusion horizon overflowed to inf",
        )
    value = lmc_iteration_count(T, d, q, L, s, eps, m, r2_hat)
    inter["h_implied"] = T / value if math.isfinite(value) else 0.0
    if violations:
        reason = "; ".join(violations)
    elif not math.isfinite(value):
        reason = "iteration count overflowed to inf"
    else:
        reason = None
    return BoundReport(
        value=value,
        kind="iters_N",
        citation="lmc:iteration-bound",
        intermediates=inter,
        infeasibility=reason,
    )


def disc_step_size(
    s: float,
    L: float,
    d: int,
    q: float,
    eps: float,
    T: float,
    m: float,
    r2_hat: float,
    n_guess: float,
) -> BoundReport:
    """Step size keeping the order-q discretization error below eps over [0, T].

    h <= eps^{1/s} / (d q^{1/s} L^{2/s} T^{1/s}) * min{1, t_drift, t_disc},
    with t_drift = L^{1/s-1} T^{1/(2s)} d / (eps^{1/(2s)} m^s) and t_disc
    the ln(N)^{s/2} term evaluated at ``n_guess`` and refined once through
    N = T / h.  Unit implicit constant; the convenience assumptions
    (1/eps, m, L, T, R2_hat >= 1 and q <= 1/eps) flag infeasibility.
    """
    if not (0.0 < s <= 1.0):
        raise InputValidationError(f"s must lie in (0, 1], got {s}")
    if min(L, eps, T, m, r2_hat) <= 0 or q <= 1 or d < 1:
        raise InputValidationError(
            "disc_step_size needs L, eps, T, m, r2_hat > 0, q > 1, d >= 1"
        )
    if not (n_guess > 1.0):
        raise InputValidationError(f"n_guess must exceed 1, got {n_guess}")
    base = eps ** (1.0 / s) / (d * q ** (1.0 / s) * L ** (2.0 / s) * T ** (1.0 / s))
    l_fac = L ** (1.0 / s - 1.0)
    t_drift = l_fac * T ** (0.5 / s) * d / (eps ** (0.5 / s) * m**s)

    def t_disc(n: float) -> float:
        return (
            l_fac
            * T ** ((1.0 - s * s) / (2.0 * s))
            * d
            / (eps ** (0.5 / s) * r2_hat ** (0.5 * s) * math.log(n) ** (0.5 * s))
        )

    h1 = base * min(1.0, t_drift, t_disc(n_guess))
    n_refined = max(T / h1, 1.0 + 1e-9)
    value = base * min(1.0, t_drift, t_disc(n_refined))
    violations = []
    if eps > 1.0 / q:
        violations.append(f"q <= 1/eps violated (q={q}, 1/eps={1.0 / eps})")
    for name, v in (("m", m), ("L", L), ("T", T), ("R2_hat", r2_hat)):
        if v < 1.0:
            violations.append(f"{name} >= 1 violated ({name}={v})")
    if eps > 1.0:
        violations.append(f"1/eps >= 1 violated (eps={eps})")
    return BoundReport(
        value=value,
        kind="h_disc",
        citation="lmc:discretization-step-size",
        intermediates={
            "base": base,
            "term_drift": t_drift,
            "term_disc_guess": t_disc(n_guess),
            "term_disc_refined": t_disc(n_refined),
            "n_refined": n_refined,
            "implicit_const": 1.0,
        },
        infeasibility="; ".join(violations) if violations else None,
    )


def step_size_upper_bound(spec: PotentialSpec, q: float, eps: float) -> BoundReport:
    """Largest step size whose moment fixed point still meets accuracy eps.

    h <= (1/f'(sigma2_eps)) (1 - d / (2 f'(sigma2_eps) sigma2_eps)), where
    sigma2_eps is the second-moment level at which the moment surrogate
    equals eps.  The recursion-validity hypotheses on g(r) = (1-2hf'(r))^2 r
    are not checkable without h; they are verified downstream by the
    comparison process.
    """
    d_eff = spec.d
    s2e = sigma2_eps(spec, q, eps)
    if not (s2e > 0.0):
        raise InputValidationError(f"sigma2_eps must be positive, got {s2e}")
    fp = float(spec.profile_prime(s2e))
    if fp <= 0.0:
        raise InputValidationError(
            f"radial slope f'(sigma2_eps) must be positive, got {fp}"
        )
    paren = 1.0 - d_eff / (2.0 * fp * s2e)
    value = paren / fp
    return BoundReport(
        value=value,
        kind="h_max",
        citation="lmc:moment-decay-step-cap",
        intermediates={"sigma2_eps": s2e, "f_prime": fp, "paren": paren},
        infeasibility=None
        if value > 0.0
        else "no positive step size reaches this accuracy: the noise floor "
        "2hd exceeds the contraction at sigma2_eps",
    )


# ---------------------------------------------------------------------------
# Lower bounds and thresholds
# ---------------------------------------------------------------------------


def _regime(alpha: float) -> str:
    """The lower-bound regime of tail-growth exponent alpha in [0, 2]."""
    if alpha == 0.0:
        return "alpha0"
    if 0.0 < alpha < 2.0:
        return "alpha_mid"
    if alpha == 2.0:
        return "alpha2"
    raise InputValidationError(
        f"tail-growth exponent must lie in [0, 2], got {alpha}"
    )


def lower_bound_complexity(
    growth: GrowthParams,
    d: int,
    delta0: float,
    h: Optional[float] = None,
    nu: Optional[float] = None,
    threshold: Optional[float] = None,
    c: float = 1.0,
) -> BoundReport:
    """Complexity lower bound for reaching accuracy 1 from divergence delta0.

    Regimes by tail-growth exponent alpha:

    * alpha = 0 (log tails): T >= d e^{delta0/nu} / (4 nu) with
      nu = b - d (or the explicit ``nu``); N = T / h.
    * alpha in (0, 2): T >= (alpha^{2/alpha-1}/b)^{1-alpha/2} d^{1-alpha/2}
      delta0^{(2-alpha)^2/(2 alpha)} / (2 (2-alpha) b); N = T / h.
    * alpha = 2: N and T share the bound c ln(delta0/b) / (2 (1+c) b); this
      regime requires h < 1/b when h is given.

    ``threshold`` (from :func:`delta0_threshold`) gates validity: delta0
    below it flags the report infeasible.  The value is exact in delta0:
    in the alpha = 0 regime, value(delta0 + nu) / value(delta0) = e.
    """
    if d < 1:
        raise InputValidationError(f"d must be a positive integer, got {d}")
    if not (delta0 > 0.0) or not math.isfinite(delta0):
        raise InputValidationError(f"delta0 must be a positive real, got {delta0}")
    if h is not None and not (h > 0.0):
        raise InputValidationError(f"h must be positive, got {h}")
    alpha, b = growth.alpha, growth.b
    regime = _regime(alpha)
    inter: dict = {"alpha": alpha, "b": b, "delta0": delta0}
    infeasibility = None
    if threshold is not None:
        inter["delta0_threshold"] = threshold
        if delta0 < threshold:
            infeasibility = (
                f"delta0 = {delta0} is below the validity threshold {threshold}"
            )

    if regime == "alpha0":
        nu_eff = nu if nu is not None else b - d
        if not (nu_eff > 0.0):
            raise InputValidationError(
                f"log-tail regime needs nu = b - d > 0, got {nu_eff}"
            )
        inter["nu"] = nu_eff
        time_t = d / (4.0 * nu_eff) * _safe_exp(delta0 / nu_eff)
        citation = "lower:log-tail"
        iters = time_t / h if h is not None else None
    elif regime == "alpha_mid":
        log_t = (
            (1.0 - alpha / 2.0)
            * ((2.0 / alpha - 1.0) * math.log(alpha) - math.log(b) + math.log(d))
            + ((2.0 - alpha) ** 2 / (2.0 * alpha)) * math.log(delta0)
            - math.log(2.0 * (2.0 - alpha) * b)
        )
        time_t = _safe_exp(log_t)
        citation = "lower:subexponential"
        iters = time_t / h if h is not None else None
    else:
        if h is not None and not (h < 1.0 / b):
            raise InputValidationError(
                f"gaussian-tail regime requires h < 1/b = {1.0 / b}, got h={h}"
            )
        if delta0 <= b:
            time_t = 0.0
            infeasibility = infeasibility or (
                f"delta0 = {delta0} <= b = {b}: the log-decay bound is vacuous"
            )
        else:
            time_t = c * math.log(delta0 / b) / (2.0 * (1.0 + c) * b)
        inter["c"] = c
        citation = "lower:gaussian"
        iters = time_t if h is not None else None

    inter["time_T"] = time_t
    if iters is not None:
        inter["iters_N"] = iters
        value, kind = iters, "iters_N"
    else:
        value, kind = time_t, "time_T"
    if infeasibility is None and not (math.isfinite(value) and value > 0.0):
        infeasibility = "bound is non-finite or non-positive"
    return BoundReport(
        value=value,
        kind=kind,
        citation=citation,
        regime=regime,
        intermediates=inter,
        infeasibility=infeasibility,
    )


def delta0_threshold(
    growth: GrowthParams,
    d: int,
    q: float,
    Z: float,
    pi_moment: float,
    v0: float = 0.0,
    c: float = 1.0,
) -> BoundReport:
    """Initial-divergence level above which the matching lower bound holds.

    The max-of-terms validity threshold for :func:`lower_bound_complexity`,
    in the regime the tail-growth exponent selects as there ("alpha0" at
    alpha = 0, "alpha_mid" in (0, 2), "alpha2" at 2).  ``Z`` is the target's
    normalizing constant, ``pi_moment`` the order-2q/(q-1) radial moment,
    and ``v0`` the potential's value at the origin (it shifts the
    normalizing constant in the alpha = 2 regime).
    """
    if d < 1:
        raise InputValidationError(f"d must be a positive integer, got {d}")
    if not (q > 1.0):
        raise InputValidationError(f"q must exceed 1, got {q}")
    if not (Z > 0.0) or not math.isfinite(Z):
        raise InputValidationError(f"Z must be a finite positive real, got {Z}")
    if not (pi_moment > 0.0) or not math.isfinite(pi_moment):
        raise InputValidationError(
            f"pi_moment must be a finite positive real, got {pi_moment}"
        )
    alpha, b = growth.alpha, growth.b
    regime = _regime(alpha)
    frac = (q - 1.0) / q
    log_z = math.log(Z)
    log_pm = math.log(pi_moment)
    if regime == "alpha0":
        nu = b - d
        if not (nu > 0.0):
            raise InputValidationError(f"log-tail regime needs b - d > 0, got {nu}")
        t1 = 1.0 + 2.0 * (
            log_z
            + 0.5 * (d + nu) * (math.log(d + nu) - 1.0)
            - 0.5 * d * math.log(2.0 * math.pi)
        )
        t2 = nu * (1.0 + math.log(2.0) + frac * log_pm - math.log(d))
        t3 = nu
    elif regime == "alpha_mid":
        e1 = alpha / (2.0 - alpha)
        log_ratio = (1.0 + 2.0 * log_z) / d - math.log(2.0 * math.pi)
        t1 = _safe_exp(
            e1 * (math.log(b) + max(log_ratio, 0.0)) - math.log(alpha)
        )
        t2 = _safe_exp(
            e1
            * (
                (2.0 / (2.0 - alpha)) * math.log(2.0)
                + 1.0
                + math.log(b)
                + frac * log_pm
                - (2.0 / alpha - 1.0) * math.log(alpha)
                - math.log(d)
            )
        )
        t3 = 1.0 / alpha
    else:
        t1 = b * d * _safe_exp(2.0 * (log_z + v0) / d - 1.0) / (4.0 * math.pi)
        t2 = b * _safe_exp((1.0 + c) * frac * (1.0 + log_pm))
        t3 = -math.inf
    value = max(t1, t2, t3)
    inter = {"term_normalizer": t1, "term_moment": t2}
    if t3 > -math.inf:
        inter["term_floor"] = t3
    return BoundReport(
        value=value,
        kind="delta0_min",
        citation="lower:delta0-threshold",
        regime=regime,
        intermediates=inter,
        infeasibility=None if math.isfinite(value)
        else "threshold overflowed to inf",
    )


# ---------------------------------------------------------------------------
# Initialization divergences
# ---------------------------------------------------------------------------


def init_divergence_bound(
    spec: PotentialSpec, sigma2: float, kind: str, T: float = 1.0
) -> BoundReport:
    """Divergence of the Gaussian start N(0, sigma2 I_d) from the target.

    kind = "Rinf": sup-log-ratio bound (GenCauchy and Sublinear families).
    kind = "KL": relative entropy (Gaussian family; exact there).
    kind = "R2_hat": order-2 Renyi against the modified target, via
    d ln 2 + R_2(N(0, 2 sigma2 I) || pi); needs sigma2 <= 3072 T.  For the
    Gaussian family the inner term is the exact closed form (finite only
    for sigma2 < 1); for heavy-tailed families it is the "Rinf" bound at
    doubled variance.
    """
    if not (sigma2 > 0.0) or not math.isfinite(sigma2):
        raise InputValidationError(f"sigma2 must be a positive real, got {sigma2}")
    d = spec.d
    if kind == "Rinf":
        value, inter = spec.rinf_bound(sigma2)
    elif kind == "KL":
        value, inter = spec.kl_bound(sigma2)
    elif kind == "R2_hat":
        if not (T > 0.0):
            raise InputValidationError(f"T must be positive, got {T}")
        too_wide = _too_wide_for_modified_target(sigma2, T)
        if too_wide:
            raise InputValidationError(too_wide)
        inner, inter = spec.start_renyi(2.0, 2.0 * sigma2)
        value = d * math.log(2.0) + inner
    else:
        raise InputValidationError(
            f"kind must be 'Rinf', 'KL', or 'R2_hat', got {kind!r}"
        )
    inter["sigma2"] = sigma2
    return BoundReport(
        value=value,
        kind="init_div",
        citation="init:gaussian-start",
        intermediates=inter,
        infeasibility=None if math.isfinite(value) else "bound is non-finite",
    )


def _too_wide_for_modified_target(sigma2: float, T: float) -> Optional[str]:
    """Why N(0, sigma2 I_d) is too wide for the modified-target comparison
    at horizon T, or None when sigma2 <= 3072 T."""
    if sigma2 > _MODIFIED_TARGET_WIDTH * T:
        return ("modified-target comparison needs sigma2 <= 3072 T = "
                f"{_MODIFIED_TARGET_WIDTH * T}, got {sigma2}")
    return None


def gen_cauchy_init_bound_simplified(d: int, nu: float, sigma2: float) -> float:
    """Closed display form of the log-tail Gaussian-start bound, d >= 2.

    (nu/2) ln sigma2 + ln(2^{nu/2} Gamma(nu/2)) + ln((d+nu)/(2e)).  This
    display drops the +1/(2 sigma2) remainder of the generic bound, so it
    is not itself a certified upper bound at small sigma2; use
    :func:`init_divergence_bound` for domination.
    """
    if d < 2:
        raise InputValidationError(f"the display form requires d >= 2, got {d}")
    if not (nu > 0.0):
        raise InputValidationError(f"nu must be positive, got {nu}")
    if sigma2 < 1.0 / (d + nu):
        raise InputValidationError(
            f"requires sigma2 >= 1/(d+nu) = {1.0 / (d + nu)}, got {sigma2}"
        )
    return (
        0.5 * nu * math.log(sigma2)
        + 0.5 * nu * math.log(2.0)
        + math.lgamma(0.5 * nu)
        + math.log((d + nu) / (2.0 * math.e))
    )


def warm_start_divergence_bound(
    spec: PotentialSpec, T: float = 1.0, target: str = "pi"
) -> BoundReport:
    """Sup-log-ratio of the warm start N(0, (2L+1)^{-1} I_d) from the target.

    target = "pi":     2 + L + V(0) - min V + (d/2) ln(12 m^2 L)
    target = "pi_hat": 3 + L + V(0) - min V + (d/2) ln(12 (m + 6144 T)^2 L)

    with L the Holder constant and m half the median radius.  min V is
    V(0) for the built-in families (radial profiles are non-decreasing);
    for custom radial targets it is estimated on a dense grid.
    """
    if target not in ("pi", "pi_hat"):
        raise InputValidationError(f"target must be 'pi' or 'pi_hat', got {target!r}")
    if not (T > 0.0):
        raise InputValidationError(f"T must be positive, got {T}")
    d = spec.d
    L = spec.holder().L
    m = modified_target_m(spec)
    v0 = float(spec.profile(0.0))
    grid = np.concatenate([[0.0], np.geomspace(1e-8, max(64.0 * m, 1.0) ** 2, 4097)])
    v_min = float(np.min(np.asarray(spec.profile(grid), dtype=float)))
    if target == "pi":
        value = 2.0 + L + v0 - v_min + 0.5 * d * math.log(12.0 * m * m * L)
        radius = m
    else:
        radius = m + 6144.0 * T
        value = 3.0 + L + v0 - v_min + 0.5 * d * math.log(12.0 * radius * radius * L)
    inter = {
        "L": L,
        "m": m,
        "v0": v0,
        "v_min": v_min,
        "init_variance": 1.0 / (2.0 * L + 1.0),
        "log_radius_term": 0.5 * d * math.log(12.0 * radius * radius * L),
    }
    return BoundReport(
        value=value,
        kind="init_div",
        citation="init:warm-start",
        intermediates=inter,
        infeasibility=None if math.isfinite(value) else "bound is non-finite",
    )


# ---------------------------------------------------------------------------
# Phase-sweep legs
# ---------------------------------------------------------------------------


def lower_bound_threshold(spec: PotentialSpec, q: float, c: float = 1.0
                          ) -> BoundReport:
    """:func:`delta0_threshold` for a target at divergence order q.

    The ingredients are the normalizing constant, the order-2q/(q-1) radial
    moment, and the potential's value at the origin (1 for the
    subexponential family, 0 otherwise).  Raises
    :class:`MomentUndefinedError` when that moment diverges (log tails with
    nu <= 2q/(q-1)).
    """
    z = math.exp(log_normalizing_constant(spec))
    pm = pi_moment_for(spec, q)
    v0 = float(spec.profile(0.0))
    return delta0_threshold(spec.growth(), spec.d, q, z, pm, v0=v0, c=c)


def lower_bound_gate(spec: PotentialSpec, q: float) -> dict:
    """The complexity lower bound's validity gate for a target at order q.

    Returns ``delta0_threshold`` (the value of :func:`lower_bound_threshold`,
    or None when it cannot be computed), ``lower_threshold_checked`` and
    ``lower_threshold_reason`` (why the threshold is unchecked, else None).
    """
    try:
        threshold = lower_bound_threshold(spec, q).value
        reason = None
    except MomentUndefinedError as exc:
        threshold = None
        reason = f"validity threshold not computable at q = {q}: {exc}"
    return {
        "delta0_threshold": threshold,
        "lower_threshold_checked": threshold is not None,
        "lower_threshold_reason": reason,
    }


def phase_threshold(spec: PotentialSpec, q: float, eps: float, sigma2: float
                    ) -> tuple[float, str]:
    """Convergence threshold for a phase leg, with its provenance tag.

    Primary rule: the second-moment level at which the order-q surrogate
    equals eps.  Families whose 2q/(q-1) moment diverges (log tails) fall
    back to half the initial second moment (a scale-free decay marker).
    """
    try:
        return sigma2_eps(spec, q, eps), "sigma2_eps"
    except MomentUndefinedError:
        return 0.5 * spec.d * sigma2, "half_initial_m2"


def assemble_upper_bound(spec: PotentialSpec, q: float, q_prime: float,
                         eps: float, sigma2: float) -> BoundReport:
    """Compose the LMC iteration upper bound from its ingredient bounds.

    The initialization divergences of every needed order are dominated by
    the sup-log-ratio bound; the order-2 divergence from the modified
    target comes from the dedicated calculator (unit horizon).
    """
    rinf = init_divergence_bound(spec, sigma2, kind="Rinf").value
    r2_hat = init_divergence_bound(spec, sigma2, kind="R2_hat", T=1.0).value
    query = BoundQuery(q=q, q_prime=q_prime, eps=eps, spec=spec, sigma2=sigma2,
                       r_init={"2q-1": rinf, "qprime": rinf, "r2_hat": r2_hat})
    return lmc_iteration_bound(query, beta_for_spec(spec), modified_target_m(spec))


@dataclass(frozen=True)
class PhaseLegBounds:
    """What :func:`phase_leg_bounds` says about one leg.  ``upper`` is
    ``nan`` or ``inf`` exactly when ``upper_reason`` names why."""

    threshold: float
    threshold_kind: str
    delta0: float
    lower: BoundReport
    upper: float
    upper_reason: Optional[str]


def phase_leg_bounds(spec: PotentialSpec, q: float, q_prime: float, eps: float,
                     h: float, sigma2: float, gate: dict) -> PhaseLegBounds:
    """The bounds of a start N(0, sigma2 I_d) run with step h to accuracy eps:
    :func:`phase_threshold`, and the lower report gated by ``gate`` (the
    target's :func:`lower_bound_gate` at q; ungated when its threshold is
    None).  The upper value is :func:`assemble_upper_bound`'s, ``nan`` when
    that report is infeasible, and ``inf`` outside the iteration theorem's
    growth regime or for a start too wide for the modified-target comparison.
    """
    threshold, threshold_kind = phase_threshold(spec, q, eps, sigma2)
    delta0 = spec.coupling_delta0(sigma2)
    lower = lower_bound_complexity(spec.growth(), spec.d, delta0, h=h,
                                   nu=spec.tail_index,
                                   threshold=gate["delta0_threshold"])
    # R2_hat's width rule at assemble_upper_bound's unit horizon
    too_wide = _too_wide_for_modified_target(sigma2, 1.0)
    if not spec.has_iteration_bound:
        upper, reason = math.inf, "outside the iteration theorem's growth regime"
    elif too_wide:
        upper, reason = math.inf, too_wide
    else:
        report = assemble_upper_bound(spec, q, q_prime, eps, sigma2)
        upper = report.value if report.feasible else math.nan
        reason = report.infeasibility
    return PhaseLegBounds(threshold, threshold_kind, delta0, lower, upper, reason)
