"""Output checks for the benchmark's workloads.

Each check returns an empty string when the output is right and a short
reason when it is not, so a failed check is counted as a failed operation
and its reason is printed.  The reference values are closed forms computed
here, independently of the package.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from heavytail_lmc import Gaussian, Sublinear

#: Falsify mode is known to find no violation for this suite: its explicit
#: constant stays far above anything the 22-function battery can show even
#: after the 1e6 weakening.  Its count is recorded, not gated.
UNGATED_FALSIFY = (Sublinear(d=1, alpha=0.3),)


def ula_gaussian_m2(d: int, h: float, sigma2: float, k: int) -> float:
    """Exact E|x_k|^2 of ULA on N(0, I_d) started at N(0, sigma2 I_d)."""
    s_inf = 1.0 / (1.0 - 0.5 * h)
    return d * ((1.0 - h) ** (2 * k) * (sigma2 - s_inf) + s_inf)


def drift_case(spec, h: float, sigma2: float, k: int, m2: float,
               se: float) -> str:
    """Finite final moment; for the Gaussian, within 5 SE of the exact one."""
    if not (math.isfinite(m2) and math.isfinite(se)):
        return f"final m2 {m2} (se {se}) is not finite"
    if isinstance(spec, Gaussian):
        exact = ula_gaussian_m2(spec.d, h, sigma2, k)
        if abs(m2 - exact) > 5.0 * se:
            return f"final m2 {m2:.6g} vs exact {exact:.6g}, 5 SE = {5 * se:.3g}"
    return ""


def gaussian_crossing(d: int, h: float, sigma2: float, q: float,
                      eps: float) -> int:
    """First k whose exact ULA second moment is below the order-q threshold.

    The threshold is e^{(q-1) eps / q} E_pi|x|^{2q/(q-1)}^{(q-1)/q}; for
    q = 2 the moment is E|x|^4 = d (d + 2) under N(0, I_d).
    """
    if q != 2.0:
        raise ValueError("the closed-form crossing is implemented for q = 2")
    threshold = math.exp(0.5 * eps) * math.sqrt(d * (d + 2.0))
    s_inf = 1.0 / (1.0 - 0.5 * h)
    ratio = (threshold / d - s_inf) / (sigma2 - s_inf)
    if ratio >= 1.0:
        return 0
    if ratio <= 0.0:
        raise ValueError("the exact second moment never reaches the threshold")
    k = math.ceil(math.log(ratio) / (2.0 * math.log1p(-h)))
    while ula_gaussian_m2(d, h, sigma2, k) >= threshold:
        k += 1
    return k


def sweep_gaussian_row(d: int, h: float, sigma2: float, q: float, eps: float,
                       record_every: int, measured: str) -> str:
    """The measured crossing lies in [c - record_every, c + 2 record_every]."""
    c = gaussian_crossing(d, h, sigma2, q, eps)
    try:
        k = float(measured)
    except ValueError:
        return f"iters_measured {measured!r} is not a number"
    if not (c - record_every <= k <= c + 2 * record_every):
        return (f"iters_measured {measured} outside "
                f"[{c - record_every}, {c + 2 * record_every}] around {c}")
    return ""


def verify_report(spec, falsify: bool, n_violations: int, n_entries: int,
                  expected_entries: int) -> str:
    """Clean mode: no violation.  Falsify mode: at least one (gated suites)."""
    if n_entries != expected_entries:
        return f"{n_entries} entries, expected {expected_entries}"
    if not falsify and n_violations != 0:
        return f"{n_violations} violations in clean mode"
    if falsify and n_violations < 1 and spec not in UNGATED_FALSIFY:
        return "falsify mode found no violation"
    return ""


def flow_case(masses: Sequence[float], renyi: Sequence[float],
              times: Sequence[float], m2: Optional[Sequence[float]],
              sigma2: float) -> str:
    """Unit mass per record, R_2 non-increasing, and (if given) the moment ODE
    m2(t) = 1 + (sigma2 - 1) e^{-2t} of the Gaussian target."""
    for t, mass in zip(times, masses):
        if not abs(mass - 1.0) <= 1e-8:
            return f"mass {mass!r} at t={t:g}"
    for i in range(1, len(renyi)):
        if not renyi[i] - renyi[i - 1] <= 1e-12:
            return f"R_2 rose from {renyi[i - 1]!r} to {renyi[i]!r} at t={times[i]:g}"
    if m2 is not None:
        for t, m in zip(times, m2):
            exact = 1.0 + (sigma2 - 1.0) * math.exp(-2.0 * t)
            if not abs(m - exact) <= 1e-3:
                return f"m2 {m!r} vs exact {exact!r} at t={t:g}"
    return ""
