"""Moment-based convergence diagnostics for heavy-tailed LMC runs.

The tools here convert second-moment traces into divergence statements:

* :func:`renyi_lower_bound` — the moment surrogate: if the chain's second
  moment is still large compared to the target's, the order-q Renyi
  divergence is still large.  This is the only divergence handle that works
  in any dimension, and it is one-sided by construction (a lower bound).
* :func:`sigma2_eps` — the second-moment threshold below which that
  surrogate falls under eps; the natural "converged" line for experiments.
* :func:`comparison_process_z` — the deterministic recursion
  z_{k+1} = (1 - 2 h f'(z_k))^2 z_k + 2 h d that lower-bounds the LMC second
  moment for radial targets (hypotheses checked numerically).
* :func:`iterations_to_threshold` — conservative threshold crossing on a
  recorded trace (m2 + 2 se must fall below the line).
* :func:`hist_renyi_1d` — a plug-in histogram estimator of R_q against an
  exactly integrable 1D target, for cross-checking the surrogate.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sampler import MomentTrace
from .targets import (
    AssumptionViolatedError,
    InputValidationError,
    MomentUndefinedError,
    PotentialSpec,
    _tail_quantile,
    gaussian_renyi,
    log_normalizing_constant,
    radial_moment,
    tail_mass,
)

__all__ = [
    "RenyiSurrogate",
    "renyi_lower_bound",
    "pi_moment_for",
    "sigma2_eps",
    "gaussian_renyi",
    "comparison_process_z",
    "iterations_to_threshold",
    "hist_renyi_1d",
    "diagnostic_report",
]


@dataclass(frozen=True)
class RenyiSurrogate:
    """Moment-based lower bound on the order-q Renyi divergence.

    ``value`` = max(0, ln(m2^{q/(q-1)} / pi_moment)); ``clamped`` records
    whether the raw bound was negative (the bound is vacuous there, but the
    information is preserved rather than erroring).
    """

    q: float
    pi_moment: float
    value: float
    clamped: bool


def renyi_lower_bound(m2: float, q: float, pi_moment: float) -> RenyiSurrogate:
    """Lower-bound R_q(law of x || pi) from E|x|^2 and pi(|.|^{2q/(q-1)}).

    The bound is ln(m2^{q/(q-1)} / pi_moment), clamped at zero with a flag.
    Strictly increasing in ``m2`` and strictly decreasing in ``pi_moment``
    before clamping.
    """
    if not (q > 1):
        raise InputValidationError(f"Renyi order q must exceed 1, got {q}")
    if m2 <= 0 or not math.isfinite(m2):
        raise InputValidationError(f"m2 must be a positive real, got {m2}")
    if pi_moment <= 0 or not math.isfinite(pi_moment):
        raise InputValidationError(
            f"pi_moment must be a finite positive real, got {pi_moment}"
        )
    raw = (q / (q - 1.0)) * math.log(m2) - math.log(pi_moment)
    if raw < 0.0:
        return RenyiSurrogate(q=q, pi_moment=pi_moment, value=0.0, clamped=True)
    return RenyiSurrogate(q=q, pi_moment=pi_moment, value=raw, clamped=False)


def pi_moment_for(spec: PotentialSpec, q: float) -> float:
    """pi(|.|^{2q/(q-1)}), the target moment the surrogate at order q needs.

    Raises :class:`~heavytail_lmc.targets.MomentUndefinedError` when the
    moment diverges (GenCauchy with 2q/(q-1) >= nu).
    """
    if not (q > 1):
        raise InputValidationError(f"Renyi order q must exceed 1, got {q}")
    return radial_moment(spec, 2.0 * q / (q - 1.0))


def sigma2_eps(spec: PotentialSpec, q: float, eps: float) -> float:
    """Second-moment level at which the surrogate equals eps.

    sigma2_eps = e^{(q-1) eps / q} * pi(|.|^{2q/(q-1)})^{(q-1)/q}; a chain
    whose second moment still exceeds this has R_q >= eps.
    """
    if eps < 0:
        raise InputValidationError(f"eps must be >= 0, got {eps}")
    pm = pi_moment_for(spec, q)
    frac = (q - 1.0) / q
    return math.exp(frac * eps) * pm**frac


def comparison_process_z(
    spec: PotentialSpec, h: float, z0: float, k_max: int
) -> np.ndarray:
    """Deterministic second-moment comparison recursion for radial targets.

    z_{k+1} = g(z_k) + 2 h d with g(r) = (1 - 2 h f'(r))^2 r, where f is the
    radial potential profile.  The recursion lower-bounds the LMC second
    moment when g is non-decreasing and convex on the relevant range; both
    hypotheses are checked on a fine grid and
    :class:`~heavytail_lmc.targets.AssumptionViolatedError` is raised if
    either fails.

    Returns the array [z_0, ..., z_{k_max}].
    """
    if h <= 0:
        raise InputValidationError(f"step size h must be > 0, got {h}")
    if z0 < 0:
        raise InputValidationError(f"z0 must be >= 0, got {z0}")
    if k_max < 0:
        raise InputValidationError(f"k_max must be >= 0, got {k_max}")
    fp = spec.profile_prime
    d = spec.d

    def g(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (1.0 - 2.0 * h * np.asarray(fp(r), dtype=float)) ** 2 * r

    z = np.empty(k_max + 1)
    z[0] = z0
    for k in range(k_max):
        z[k + 1] = float(g(z[k])) + 2.0 * h * d

    hi = 1.5 * float(z.max()) + 1.0
    grid = np.linspace(0.0, hi, 2001)
    gv = g(grid)
    scale = max(1.0, float(np.abs(gv).max()))
    if np.any(np.diff(gv) < -1e-8 * scale):
        raise AssumptionViolatedError(
            "comparison_process_z: g(r) = (1-2hf'(r))^2 r is not "
            f"non-decreasing on [0, {hi:.3g}] at h={h}"
        )
    if np.any(np.diff(gv, 2) < -1e-8 * scale):
        raise AssumptionViolatedError(
            "comparison_process_z: g(r) = (1-2hf'(r))^2 r is not convex "
            f"on [0, {hi:.3g}] at h={h}"
        )
    return z


def iterations_to_threshold(
    trace: MomentTrace, threshold: float
) -> Union[int, None]:
    """First recorded iteration whose m2 + 2 se falls below ``threshold``.

    The 2-se guard is conservative: estimator noise cannot declare
    convergence early.  Returns None when no recorded point crosses.
    """
    if not math.isfinite(threshold):
        raise InputValidationError(f"threshold must be finite, got {threshold}")
    upper = np.asarray(trace.m2) + 2.0 * np.asarray(trace.se)
    hits = np.nonzero(upper < threshold)[0]
    if hits.size == 0:
        return None
    return int(trace.iters[hits[0]])


def _bin_masses(spec: PotentialSpec, edges: np.ndarray) -> np.ndarray:
    """Exact (composite-Simpson) target mass of each histogram bin, d=1."""
    n_sub = 8  # per-bin Simpson panels; error is O(width^5 f'''') per panel
    fine = np.linspace(edges[0], edges[-1], (len(edges) - 1) * n_sub + 1)
    log_z = log_normalizing_constant(spec)
    dens = np.exp(-np.asarray(spec.profile(fine * fine), dtype=float) - log_z)
    w = np.tile(np.array([2.0, 4.0]), n_sub // 2 + 1)[: n_sub + 1]
    w[0] = w[-1] = 1.0
    step = (edges[1] - edges[0]) / n_sub
    panels = dens[: -1].reshape(len(edges) - 1, n_sub)
    panels = np.concatenate([panels, dens[n_sub::n_sub][:, None]], axis=1)
    return (panels * w).sum(axis=1) * step / 3.0


def hist_renyi_1d(
    samples: np.ndarray,
    spec: PotentialSpec,
    q: float,
    n_bins: int = 512,
    range_: Union[tuple[float, float], None] = None,
) -> float:
    """Plug-in histogram estimate of R_q(law of samples || pi) for d = 1.

    The target bin masses are quadrature-exact, so the only estimation error
    comes from the empirical histogram.  Coarsening the bins can only lower
    the estimate (data processing), which the tests exploit.  Samples outside
    the range are dropped from the sum (the estimate stays a lower-biased
    plug-in).  Default range is the symmetric 1e-4 target tail quantile.
    """
    if spec.d != 1:
        raise InputValidationError("hist_renyi_1d requires a 1-dimensional spec")
    if not (q > 1):
        raise InputValidationError(f"Renyi order q must exceed 1, got {q}")
    if n_bins < 2:
        raise InputValidationError(f"n_bins must be >= 2, got {n_bins}")
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise InputValidationError("samples must be non-empty")

    if range_ is None:
        R = _tail_quantile(spec, 1e-4)
        range_ = (-R, R)
    lo, hi = float(range_[0]), float(range_[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < 0.0 < hi):
        raise InputValidationError(
            f"range must be finite and straddle 0, got {range_!r}"
        )
    outside = 0.5 * (tail_mass(spec, abs(lo)) + tail_mass(spec, hi))
    if outside > 2e-4:
        raise InputValidationError(
            f"range {range_!r} misses {outside:.2e} of target mass (> 2e-4)"
        )

    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    masses = _bin_masses(spec, edges)

    empty_heavy = (counts == 0) & (masses > 1e-6)
    if np.any(empty_heavy):
        warnings.warn(
            f"hist_renyi_1d: {int(empty_heavy.sum())} bins with target mass "
            f"> 1e-6 received no samples; the estimator is unstable here",
            RuntimeWarning,
            stacklevel=2,
        )

    from scipy.special import logsumexp

    n = x.size
    keep = counts > 0
    # Sum over bins of (c_b/n)^q m_b^{1-q}; widths cancel exactly.
    log_terms = q * (np.log(counts[keep]) - math.log(n)) + (1.0 - q) * np.log(
        masses[keep]
    )
    return float(logsumexp(log_terms) / (q - 1.0))


def diagnostic_report(
    trace: MomentTrace, spec: PotentialSpec, q: float, threshold: float
) -> dict:
    """JSON-ready summary: final surrogate value and threshold crossing.

    The moment surrogate needs the order-2q/(q-1) target moment; for targets
    where it diverges the surrogate fields are reported as None instead of
    propagating the error (the threshold crossing is still meaningful).
    """
    surrogate: Union[float, None]
    clamped: Union[bool, None]
    try:
        pm = pi_moment_for(spec, q)
        sur = renyi_lower_bound(float(trace.m2[-1]), q, pm)
        surrogate, clamped = sur.value, sur.clamped
    except MomentUndefinedError:
        surrogate, clamped = None, None
    hit = iterations_to_threshold(trace, threshold)
    return {
        "q": q,
        "surrogate": surrogate,
        "clamped": clamped,
        "hit_iter": hit,
        "threshold": threshold,
        "final_m2": float(trace.m2[-1]),
        "final_se": float(trace.se[-1]),
        "n_chains": trace.n_chains,
        "stopped_early": trace.stopped_early,
    }
