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

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .sampler import MomentTrace
from .targets import (
    AssumptionViolatedError,
    InputValidationError,
    MomentUndefinedError,
    PotentialSpec,
    radial_moment,
)

__all__ = [
    "RenyiSurrogate",
    "renyi_lower_bound",
    "pi_moment_for",
    "sigma2_eps",
    "comparison_process_z",
    "iterations_to_threshold",
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
