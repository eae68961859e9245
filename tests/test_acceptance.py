"""Acceptance suite: one test group per numbered criterion.

Each test name carries its criterion number; the terminal summary hook in
``conftest.py`` prints a PASS/FAIL line per criterion after the run.  The
groups are self-contained and use the library's public API only.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np
import pytest
from scipy import integrate, optimize

from heavytail_lmc import (
    BoundQuery,
    Gaussian,
    GenCauchy,
    Sublinear,
    beta_for_spec,
    comparison_process_z,
    default_test_functions,
    diffusion_time_bound,
    direct_sampler,
    fokker_planck_evolve_1d,
    fq_gq,
    gaussian_init,
    gaussian_on_grid,
    gen_cauchy_init_bound_simplified,
    grid_r_inf,
    init_divergence_bound,
    log_normalizing_constant,
    make_grid,
    potential,
    radial_moment,
    renyi_quadrature,
    run_chains,
    step_size_upper_bound,
    wpi_check,
)
from heavytail_lmc.cli import main

# ---------------------------------------------------------------------------
# criterion 1: per-step second-moment drift inequality
# ---------------------------------------------------------------------------

C1_SPECS = [
    Gaussian(d=1), Gaussian(d=4),
    Sublinear(d=1, alpha=0.3), Sublinear(d=4, alpha=0.3),
    Sublinear(d=1, alpha=0.7), Sublinear(d=4, alpha=0.7),
    GenCauchy(d=1, nu=1.0), GenCauchy(d=4, nu=1.0),
    GenCauchy(d=1, nu=3.0), GenCauchy(d=4, nu=3.0),
]


def _drift_margins(spec, h, seed):
    """Worst slack of m2[k+1] >= m2[k] - 2bh m2[k]^{a/2} + 2hd, 4 SE allowed.

    The growth term's statistical error is propagated through its m2
    derivative; the paired one-step increment carries its own SE.
    """
    init = gaussian_init(4.0, spec.d, 10_000, h, seed=seed)
    trace = run_chains(spec, init, 10_000, record_every=100)
    g = spec.growth()
    m2, se = trace.m2[:-1], trace.se[:-1]
    inc, inc_se = trace.dm2_next[:-1], trace.dm2_next_se[:-1]
    growth_term = 2.0 * g.b * h * m2 ** (g.alpha / 2.0)
    growth_se = g.b * h * g.alpha * m2 ** (g.alpha / 2.0 - 1.0) * se
    margin = inc + growth_term - 2.0 * h * spec.d + 4.0 * (inc_se + growth_se)
    return float(margin.min())


def test_criterion1_second_moment_drift_inequality():
    t0 = time.monotonic()
    failures = []
    for si, spec in enumerate(C1_SPECS):
        for hi, h in enumerate((1e-3, 1e-2)):
            worst = _drift_margins(spec, h, seed=1009 * si + 13 * hi + 1)
            if not worst >= 0.0:
                failures.append(f"{spec} h={h}: worst margin {worst:.3e}")
    elapsed = time.monotonic() - t0
    assert not failures, "drift inequality violated beyond 4 SE: " + "; ".join(failures)
    assert elapsed < 300.0, f"criterion 1 runtime {elapsed:.0f}s exceeds 5 min"


# ---------------------------------------------------------------------------
# criterion 2: three-regime dependence of iterations on the start divergence
# ---------------------------------------------------------------------------

PHASE_N_ITERS = 80_000


@pytest.fixture(scope="module")
def phase_rows(tmp_path_factory):
    """One full d=2 sweep via the CLI; rows keyed by (family, sigma2)."""
    out = tmp_path_factory.mktemp("phase")
    t0 = time.monotonic()
    rc = main([
        "phase-transition", "--family", "gaussian", "--d", "2",
        "--sigma2", "4,16,64,256,1024", "--h", "0.01",
        "--n-chains", "10000", "--n-iters", str(PHASE_N_ITERS),
        "--record-every", "10", "--seed", "0", "--q", "2", "--eps", "1",
        "--output-dir", str(out),
    ])
    elapsed = time.monotonic() - t0
    assert rc == 0
    with open(out / "phase.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    parsed = []
    for row in rows:
        parsed.append({
            "family": row["family"],
            "sigma2": float(row["sigma2"]),
            "delta0": float(row["delta0_bound"]),
            "measured": float(row["iters_measured"]),  # nan when never crossed
            "lower": float(row["iters_lower_bound"]),
        })
    return parsed, elapsed


def _rows_for(rows, family):
    return [r for r in rows if r["family"] == family]


def test_criterion2_gaussian_logarithmic_fit(phase_rows):
    rows, elapsed = phase_rows
    assert elapsed < 1800.0, f"sweep runtime {elapsed:.0f}s exceeds 30 min"
    pts = [(math.log(r["delta0"]), r["measured"]) for r in _rows_for(rows, "gaussian")]
    assert all(math.isfinite(y) and y > 0 for _, y in pts), (
        "every square-case leg must cross its threshold"
    )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    assert slope > 0
    assert r2 >= 0.95, f"affine fit of iterations against log-divergence: R^2={r2:.5f}"


def test_criterion2_gen_cauchy_exponential_slope(phase_rows):
    rows, _ = phase_rows
    legs = _rows_for(rows, "gen_cauchy")
    crossed = [r for r in legs if math.isfinite(r["measured"]) and r["measured"] > 0]
    # the smallest start sits below the decay marker's noise floor and
    # cannot cross; it is excluded from the slope fit
    assert len(crossed) >= 4, "need at least 4 crossing legs to fit the slope"
    x = np.array([r["delta0"] for r in crossed])
    y = np.log(np.array([r["measured"] for r in crossed]))
    slope = float(np.polyfit(x, y, 1)[0])
    # iterations ~ exp(delta0 / nu) with nu = 2: slope 0.5 within +-25%
    assert 0.375 <= slope <= 0.625, f"log-iterations slope {slope:.4f} vs 0.5 +-25%"


def test_criterion2_sublinear_power_slope(phase_rows):
    rows, _ = phase_rows
    legs = _rows_for(rows, "sublinear")
    usable = [r for r in legs if math.isfinite(r["measured"]) and r["measured"] > 0]
    assert len(usable) == len(legs), (
        "subexponential legs record 0 iterations at every configured start: "
        "the order-2 surrogate threshold at eps=1 is ~4293 (second-moment "
        "scale), while the largest configured start has initial second "
        "moment 2*1024 = 2048 -- every chain begins below the threshold, so "
        "the crossing time is identically zero and the log-log slope is "
        "undefined.  The power law is recoverable at starts that begin "
        "above the threshold (sigma2 > ~2.2e3): on the sweep sigma2 in "
        "{8192, 32768, 131072} the fitted slope is 2.70 (seed 0), above "
        "the band's upper edge but consistent with the lower-bound "
        "exponent (2-alpha)^2/(2 alpha) = 2.25.  The sigma2 = 8192 leg has "
        "delta0 = 32.0 below the lower bound's validity threshold 32.918 "
        "(q=2), so it carries no lower bound; the two larger legs dominate "
        "theirs "
        "(scripts/run_phase_transition.py --demo-sublinear reproduces this)."
    )
    x = np.log(np.array([r["delta0"] for r in usable]))
    y = np.log(np.array([r["measured"] for r in usable]))
    slope = float(np.polyfit(x, y, 1)[0])
    assert 1.85 <= slope <= 2.65, f"log-log slope {slope:.4f} vs 2.25 +- 0.4"


def test_criterion2_lower_bound_domination(phase_rows):
    rows, _ = phase_rows
    violations = []
    for r in rows:
        measured = r["measured"] if math.isfinite(r["measured"]) else PHASE_N_ITERS
        if measured < r["lower"]:
            violations.append(
                f"{r['family']} sigma2={r['sigma2']:g}: "
                f"measured {measured:g} < lower bound {r['lower']:.4g}"
            )
    assert not violations, (
        "measured iterations fall below the complexity lower bound on "
        + f"{len(violations)} legs: " + "; ".join(violations)
        + ".  All violating legs are subexponential: their chains start "
        "below the order-2 surrogate threshold at eps=1 (threshold ~4293 "
        "vs initial second moment <= 2048), so the measured crossing time "
        "is 0 while the divergence-based lower bound is positive.  The "
        "comparison is meaningful only when the start lies above the "
        "surrogate threshold and delta0 reaches the lower bound's validity "
        "threshold (32.918 at q=2); scripts/run_phase_transition.py "
        "--demo-sublinear shows domination on its two larger starts (its "
        "sigma2 = 8192 start has delta0 = 32.0 and so no lower bound)."
    )


# ---------------------------------------------------------------------------
# criterion 3: moment oracles
# ---------------------------------------------------------------------------

C3_PAIRS = [
    (GenCauchy(d=1, nu=3), 2.0),
    (GenCauchy(d=1, nu=5), 2.0),
    (GenCauchy(d=2, nu=3), 2.0),
    (GenCauchy(d=4, nu=5), 2.0),
    (GenCauchy(d=1, nu=2.5), 1.0),
    (GenCauchy(d=2, nu=9), 4.0),
    (GenCauchy(d=3, nu=6), 2.0),
    (Gaussian(d=1), 2.0),
    (Gaussian(d=2), 2.0),
    (Gaussian(d=3), 4.0),
    (Gaussian(d=2), 6.0),
    (Gaussian(d=4), 2.0),
]


def test_criterion3_moment_oracles():
    t0 = time.monotonic()
    assert len(C3_PAIRS) == 12
    for i, (spec, p) in enumerate(C3_PAIRS):
        closed = spec.closed_moment(p)
        quad = radial_moment(spec, p)
        assert closed == pytest.approx(quad, rel=1e-8), (spec, p)
        x = direct_sampler(spec, 10**6, seed=20240817 + i)
        rp = np.einsum("ij,ij->i", x, x) ** (p / 2.0)
        est = float(rp.mean())
        se = float(rp.std(ddof=1)) / math.sqrt(len(rp))
        assert abs(est - closed) <= 4.0 * se, (
            f"{spec} p={p}: sampler {est:.6g} vs closed {closed:.6g}, se {se:.3g}"
        )
    assert GenCauchy(d=1, nu=3).closed_moment(2.0) == pytest.approx(1.0, abs=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.0f}s exceeds 2 min"


# ---------------------------------------------------------------------------
# criterion 4: functional-inequality falsification suite
# ---------------------------------------------------------------------------

C4_R_GRID = [1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.7, 1.0]


C4_SUITES = (
    [GenCauchy(d=1, nu=nu) for nu in (1.0, 2.0, 4.0)]
    + [Sublinear(d=1, alpha=a) for a in (0.3, 0.5, 0.7)]
)


def test_criterion4_inequality_suites_hold():
    t0 = time.monotonic()
    fset = default_test_functions()
    assert len(fset.functions) >= 20
    assert len(C4_R_GRID) >= 8
    for spec in C4_SUITES:
        clean = wpi_check(spec, beta_for_spec(spec), fset, C4_R_GRID)
        assert clean.n_violations == 0, (spec, clean.max_violation)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 4 runtime {elapsed:.0f}s exceeds 2 min"


def test_criterion4_falsification_power():
    fset = default_test_functions()
    powerless = []
    for spec in C4_SUITES:
        weakened = wpi_check(spec, beta_for_spec(spec), fset, C4_R_GRID,
                             falsify=True)
        if weakened.n_violations < 1:
            powerless.append(str(spec))
    assert not powerless, (
        "the weakened-constant mode (beta / 1e6) produced no violation for "
        + ", ".join(powerless)
        + ".  For the subexponential family at alpha = 0.3 the explicit "
        "constant is ~5.5e11 across the whole r-grid -- its leading factor "
        "grows like (e*C)^(2/gamma) with C = 12d/alpha^3 + (d+alpha)/alpha^4 "
        "~ 604 and gamma <= 2*alpha = 0.6 -- so even after division by 1e6 "
        "the curve sits at ~5.5e5, above every ratio "
        "(Var f - r Osc(f)^2) / E[f'^2] the 22-function battery reaches at "
        "these r values (its farthest-reaching function is tanh_c5_s3).  "
        "Functions that reach into the far tail do break it: the one-sided "
        "ramp with f' = e^V on [838, 5027] has ratio ~1.8e6 at r = 1e-4, so "
        "the battery, not the 1e6 factor, lacks power here.  The mode does "
        "demonstrate power on the other suites: 30/67/54 violations for the "
        "log-tailed suites (nu = 1/2/4) and 49/72 for alpha = 0.5/0.7."
    )


# ---------------------------------------------------------------------------
# criterion 5: one-dimensional flow: divergence decay against its bound
# ---------------------------------------------------------------------------


def test_criterion5_fp_renyi_decay():
    t0 = time.monotonic()
    spec = GenCauchy(d=1, nu=2.0)
    grid = make_grid(spec, n_core=2048, n_tail=256, core_halfwidth=24.0)
    rho0 = gaussian_on_grid(grid, 4.0)
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=1.6, dt=2e-4,
                                   record_every=250)
    rs, fg = [], []
    for dens in traj.densities:
        assert abs(dens.mass - 1.0) <= 1e-8
        rs.append(renyi_quadrature(dens, spec, 2.0))
        fg.append(fq_gq(dens, spec, 2.0))
    rs = np.array(rs)
    times = np.array(traj.times)
    assert np.all(np.diff(rs) <= 1e-12), "order-2 divergence must never increase"

    # centered-difference decay rate against -2 G/F wherever resolvable
    deriv = (rs[2:] - rs[:-2]) / (times[2:] - times[:-2])
    pred = np.array([-2.0 * g / f for f, g in fg[1:-1]])
    mask = np.abs(deriv) > 1e-4
    assert mask.any()
    rel = np.abs(deriv[mask] - pred[mask]) / np.abs(deriv[mask])
    assert float(rel.max()) <= 0.05, f"decay-rate identity off by {rel.max():.3%}"

    # measured threshold times sit far below the unit-constant time bound
    r2_0 = float(rs[0])
    rinf_0 = grid_r_inf(rho0, spec)
    beta = beta_for_spec(spec)
    for eps in (0.5, 0.25, 0.1):
        crossed = times[rs <= eps]
        assert crossed.size, f"flow never reached divergence level {eps}"
        t_star = float(crossed[0])
        query = BoundQuery(q=2.0, q_prime=math.inf, eps=eps, spec=spec,
                           sigma2=4.0, r_init={"q": r2_0, "qprime": rinf_0})
        t_bound = diffusion_time_bound(query, beta).value
        assert t_star <= t_bound, (eps, t_star, t_bound)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 5 runtime {elapsed:.0f}s exceeds 5 min"


# ---------------------------------------------------------------------------
# criterion 6: step-size bound is sharp for the deterministic comparison
# ---------------------------------------------------------------------------


def test_criterion6_step_size_bound_sharpness():
    t0 = time.monotonic()
    spec = Gaussian(d=1)
    rep = step_size_upper_bound(spec, 2.0, 0.1)
    h_max = rep.value
    s2e = rep.intermediates["sigma2_eps"]
    z_hot = comparison_process_z(spec, 1.05 * h_max, 2.0 * s2e, 5000)
    assert float(z_hot.min()) >= s2e, (
        f"above the bound the comparison process must stay >= {s2e:.6f}, "
        f"got min {z_hot.min():.6f}"
    )
    z_cool = comparison_process_z(spec, 0.5 * h_max, 2.0 * s2e, 5000)
    assert float(z_cool.min()) < s2e, "below the bound the process must converge"
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 7: initialization divergences dominate quadrature-exact values
# ---------------------------------------------------------------------------


def _exact_radial_rinf(spec, sigma2):
    """sup over r of ln(N(0, sigma2 I) / pi) for a radial d-dim target."""
    d = spec.d
    log_z = log_normalizing_constant(spec)

    def neg_log_ratio(r):
        x = np.zeros((1, d))
        x[0, 0] = r
        v = float(potential(spec, x)[0])
        return -(v + log_z - 0.5 * r * r / sigma2
                 - 0.5 * d * math.log(2.0 * math.pi * sigma2))

    res = optimize.minimize_scalar(neg_log_ratio, bounds=(0.0, 80.0),
                                   method="bounded",
                                   options={"xatol": 1e-12})
    grid = np.linspace(0.0, 80.0, 20001)
    coarse = max(-neg_log_ratio(r) for r in grid)
    return max(-float(res.fun), coarse)


def _exact_gaussian_kl(sigma2, d):
    """KL(N(0, sigma2) || N(0, 1)) by quadrature, d=1 factorized."""
    def integrand(x):
        log_rho = -0.5 * x * x / sigma2 - 0.5 * math.log(2 * math.pi * sigma2)
        log_pi = -0.5 * x * x - 0.5 * math.log(2 * math.pi)
        return math.exp(log_rho) * (log_rho - log_pi)

    val, err = integrate.quad(integrand, -60, 60, limit=200)
    assert err < 1e-8
    return d * val


def test_criterion7_init_bounds_dominate_exact_divergences():
    t0 = time.monotonic()
    cases = [
        (GenCauchy(d=1, nu=2), 1.0, "Rinf"),
        (GenCauchy(d=1, nu=2), 4.0, "Rinf"),
        (Sublinear(d=1, alpha=0.5), 2.0, "Rinf"),
        (Sublinear(d=1, alpha=0.5), 8.0, "Rinf"),
        (Gaussian(d=1), 1.0, "KL"),
        (Gaussian(d=1), 4.0, "KL"),
    ]
    for spec, sigma2, kind in cases:
        bound = init_divergence_bound(spec, sigma2, kind=kind).value
        if kind == "Rinf":
            exact = _exact_radial_rinf(spec, sigma2)
        else:
            exact = _exact_gaussian_kl(sigma2, spec.d)
        assert exact <= bound + 1e-9, (spec, sigma2, kind, exact, bound)

    # the named 2D log-tail case: the simplified display value ...
    display = gen_cauchy_init_bound_simplified(2.0, 2, 1.0)
    assert display == pytest.approx(math.log(4.0 / math.e), abs=1e-12)
    # ... and the full sup-log-ratio by 2D radial quadrature, which the
    # general calculator must dominate (the simplified display drops a
    # 1/(2 sigma2) term and therefore sits below the true supremum)
    spec2 = GenCauchy(d=2, nu=2)
    z_quad, z_err = integrate.quad(
        lambda r: 2.0 * math.pi * r * (1.0 + r * r) ** -2.0, 0, np.inf
    )
    assert z_err < 1e-6
    assert z_quad == pytest.approx(math.exp(log_normalizing_constant(spec2)), rel=1e-7)
    exact2 = _exact_radial_rinf(spec2, 1.0)
    assert exact2 == pytest.approx(3.0 * math.log(2.0) - 1.5, abs=1e-9)
    bound2 = init_divergence_bound(spec2, 1.0, kind="Rinf").value
    assert exact2 <= bound2 + 1e-7
    assert exact2 > display  # documented gap of the simplified display
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 7 runtime {elapsed:.0f}s exceeds 1 min"


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns for every CSV-emitting command
# ---------------------------------------------------------------------------


def _run_twice(tmp_path, name, argv_for):
    dirs = [tmp_path / f"{name}_{i}" for i in (0, 1)]
    outputs = []
    for d in dirs:
        assert main(argv_for(str(d))) == 0
        outputs.append(sorted(p for p in d.iterdir() if p.suffix == ".csv"))
    assert outputs[0] and len(outputs[0]) == len(outputs[1])
    for a, b in zip(*outputs):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes(), a.name


def test_criterion8_byte_identical_reruns(tmp_path):
    _run_twice(tmp_path, "sample", lambda out: [
        "sample", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
        "--sigma2", "4,16", "--h", "0.01", "--n-chains", "256",
        "--n-iters", "100", "--record-every", "10", "--seed", "5",
        "--output-dir", out,
    ])
    _run_twice(tmp_path, "phase", lambda out: [
        "phase-transition", "--family", "gaussian", "--d", "1",
        "--sigma2", "2.5,4", "--h", "0.01", "--n-chains", "128",
        "--n-iters", "300", "--record-every", "10", "--seed", "0",
        "--output-dir", out,
    ])
    _run_twice(tmp_path, "fp", lambda out: [
        "fp-evolve", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
        "--sigma2", "4", "--t-final", "0.05", "--dt", "1e-3",
        "--record-every", "10", "--n-core", "512", "--n-tail", "128",
        "--core-halfwidth", "16", "--output-dir", out,
    ])
