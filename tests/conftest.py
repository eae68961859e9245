"""Shared fixtures and the acceptance-criteria terminal summary.

Acceptance tests live in test_acceptance.py and are named
``test_criterion<N>_*``.  After the run, one line per criterion is printed
so the overall contract status is readable at a glance.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

_CRITERION_RE = re.compile(r"test_acceptance\.py::.*test_criterion(\d+)")

_DESCRIPTIONS = {
    1: "moment-decay drift inequality across 20 family/step-size runs",
    2: "phase transition: thresholds, slopes, lower-bound domination",
    3: "closed-form moments vs quadrature and direct sampling",
    4: "weak-Poincare style inequalities pass; scaled-down constants falsify",
    5: "Fokker-Planck decay: mass, monotone R2, decay identity, time bound",
    6: "comparison process brackets the step-size threshold",
    7: "Gaussian-start divergence bounds dominate exact divergences",
    8: "byte-identical CSV outputs under fixed seed and thread count",
}

_results: dict[int, list[str]] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    crit = int(match.group(1))
    if report.when == "call":
        _results.setdefault(crit, []).append(report.outcome)
    elif report.when == "setup" and report.outcome != "passed":
        # setup failure/skip counts as the test's outcome
        _results.setdefault(crit, []).append(
            "failed" if report.outcome == "failed" else "skipped"
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for crit in sorted(_DESCRIPTIONS):
        outcomes = _results.get(crit)
        if not outcomes:
            status, markup = "NOT RUN", {"yellow": True}
        elif any(o == "failed" for o in outcomes):
            status, markup = "FAIL", {"red": True, "bold": True}
        elif all(o == "skipped" for o in outcomes):
            status, markup = "SKIPPED", {"yellow": True}
        else:
            status, markup = "PASS", {"green": True}
        tr.write(f"[criterion {crit}] ", bold=True)
        tr.write(f"{status:8s}", **markup)
        tr.write_line(f" {_DESCRIPTIONS[crit]}")


@pytest.fixture(scope="session")
def rng_seed():
    return 20240817


def _beta_sublinear_at(alpha, d, r, gamma):
    """The subexponential WPI chain at one gamma, evaluated whole."""
    c_da = 12.0 * d / alpha**3 + (d + alpha) / alpha**4
    denom = 2.0 * (1.0 - alpha) + gamma
    log_a = math.log(gamma) + (2.0 / gamma) * (1.0 + math.log(c_da)) - math.log(denom)
    b = 2.0 * (1.0 - alpha) / denom
    expo = 1.0 - alpha + gamma / 2.0
    log_t = math.log(expo) + 0.5 * math.log(b) - ((alpha - gamma / 2.0) / 2.0) * log_a
    inter = {"gamma": gamma, "C_d_alpha": c_da, "log_a": log_a, "b": b,
             "exponent": expo}
    if log_t >= 0.0:
        return math.inf, inter
    t = math.exp(log_t)
    w = 1.0 + (2.0 * d / alpha) * math.log(2.0) + 2.0 * max(-math.log(r), 0.0)
    inter["w"] = w
    log_val = -2.0 * math.log1p(-t) + expo * np.logaddexp(
        log_a, math.log(b) + (2.0 / alpha) * math.log(w))
    if log_val >= 709.0:
        return math.inf, inter
    return math.exp(log_val), inter


def _beta_sublinear_min(alpha, d, r, gamma=None):
    """(value, intermediates) at ``gamma``, or minimized over the 64-point
    log gamma grid with every gamma evaluated afresh for this r."""
    if gamma is not None:
        return _beta_sublinear_at(alpha, d, r, gamma)
    value, inter = math.inf, {"gamma": 2.0 * alpha}
    for g in np.geomspace(2.0 * alpha * 1e-3, 2.0 * alpha, 64):
        v, i = _beta_sublinear_at(alpha, d, r, float(g))
        if v < value:
            value, inter = v, i
    return value, inter


@pytest.fixture(scope="session")
def beta_sublinear_reference():
    """The subexponential WPI weighting as a per-point scan: an independent
    reference for ``beta_wpi_sublinear_report`` and ``Sublinear.wpi_beta``,
    bit for bit."""
    return _beta_sublinear_min
