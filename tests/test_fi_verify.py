"""Functional-inequality checkers and the 1D conservative evolution scheme."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from heavytail_lmc import (
    DensityGrid,
    Gaussian,
    GenCauchy,
    InputValidationError,
    Sublinear,
    beta_for_spec,
    converse_pi_check,
    default_test_functions,
    fokker_planck_evolve_1d,
    fq_gq,
    gaussian_on_grid,
    gaussian_renyi,
    grid_r_inf,
    make_grid,
    pi_on_grid,
    renyi_quadrature,
    weighted_pi_check,
    wpi_check,
    write_fp_csv,
)
from heavytail_lmc import fi_verify
from heavytail_lmc.targets import NumericsError, log_normalizing_constant

GC12 = GenCauchy(d=1, nu=2)
R_GRID = [1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.7, 1.0]


@pytest.fixture(scope="module")
def gc_grid():
    return make_grid(GC12, n_core=2048, n_tail=256, core_halfwidth=24.0)


@pytest.fixture(scope="module")
def rho_n04(gc_grid):
    return gaussian_on_grid(gc_grid, 4.0)


@pytest.fixture(scope="module")
def fset():
    return default_test_functions()


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_density_grid_validation():
    nodes = np.linspace(-60, 60, 1200)
    widths = np.full(1200, 0.1)
    values = np.full(1200, 1.0 / 120.0)
    g = DensityGrid(nodes=nodes, widths=widths, values=values)
    assert g.mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputValidationError):
        DensityGrid(nodes=nodes[::-1].copy(), widths=widths, values=values)
    with pytest.raises(InputValidationError):
        DensityGrid(nodes=nodes, widths=-widths, values=values)
    with pytest.raises(InputValidationError):
        DensityGrid(nodes=nodes, widths=widths, values=2 * values)  # mass 2
    with pytest.raises(InputValidationError):
        DensityGrid(nodes=nodes, widths=widths, values=-values)


def test_make_grid_structure(gc_grid):
    assert gc_grid.nodes.size == 2048 + 2 * 256
    assert gc_grid.mass == pytest.approx(1.0, abs=1e-12)
    # the window must reach the 1e-10 two-sided tail quantile (~1.7e5 here)
    assert gc_grid.nodes[-1] > 1.5e5
    assert np.all(np.diff(gc_grid.nodes) > 0)
    np.testing.assert_allclose(pi_on_grid(GC12, gc_grid), gc_grid.values)


def test_make_grid_requires_1d():
    with pytest.raises(InputValidationError):
        make_grid(GenCauchy(d=2, nu=2))


@pytest.mark.parametrize("kwargs, message", [
    ({"n_core": -5}, "n_core must be >= 1, got -5"),
    ({"n_core": 0}, "n_core must be >= 1, got 0"),
    ({"n_core": 2.5}, "n_core must be an integer"),
    ({"n_core": True}, "n_core must be an integer"),
    ({"n_tail": -3}, "n_tail must be >= 0, got -3"),
    ({"n_tail": 2.5}, "n_tail must be an integer"),
    ({"core_halfwidth": -1.0}, "core_halfwidth must be finite positive"),
    ({"core_halfwidth": 0.0}, "core_halfwidth must be finite positive"),
    ({"core_halfwidth": math.nan}, "core_halfwidth must be finite positive"),
    ({"core_halfwidth": math.inf}, "core_halfwidth must be finite positive"),
    ({"core_halfwidth": "6"}, "core_halfwidth must be a number"),
], ids=str)
def test_make_grid_checks_its_arguments_before_any_quadrature(
        monkeypatch, kwargs, message):
    def no_quadrature(*args):
        raise AssertionError("make_grid integrated before checking")

    monkeypatch.setattr(fi_verify, "_tail_quantile", no_quadrature)
    monkeypatch.setattr(fi_verify, "_cell_average_density", no_quadrature)
    with pytest.raises(InputValidationError, match=message):
        make_grid(Gaussian(d=1), **kwargs)


def test_make_grid_takes_integral_floats_and_no_tail_cells():
    """512.0 cells are 512 cells, and n_tail = 0 leaves the core alone."""
    want = make_grid(Gaussian(d=1), n_core=512, n_tail=32, core_halfwidth=6.0)
    got = make_grid(Gaussian(d=1), n_core=512.0, n_tail=32.0,
                    core_halfwidth=6.0)
    assert got.values.tobytes() == want.values.tobytes()
    bare = make_grid(Gaussian(d=1), n_core=512, n_tail=0, core_halfwidth=6.0)
    assert bare.nodes.size == 512
    assert bare.nodes.tobytes() == want.nodes[32:-32].tobytes()


def test_gaussian_on_grid_moments(gc_grid, rho_n04):
    assert rho_n04.mass == pytest.approx(1.0, abs=1e-12)
    assert rho_n04.m2 == pytest.approx(4.0, rel=1e-4)


def test_gaussian_on_grid_rejects_truncation():
    narrow = make_grid(Gaussian(d=1), n_core=512, n_tail=64, core_halfwidth=6.0)
    with pytest.raises(InputValidationError, match="truncates"):
        gaussian_on_grid(narrow, 100.0)


def test_gaussian_on_grid_names_the_cause():
    """A window that cuts the gaussian off reports the exact mass outside
    it; a window that holds it but whose cells are too wide names the cell
    width and sigma instead."""
    narrow = make_grid(Gaussian(d=1), core_halfwidth=6, n_core=1024, n_tail=128)
    edge = narrow.nodes[-1] + 0.5 * narrow.widths[-1]
    outside = math.erfc(edge / math.sqrt(200.0))
    with pytest.raises(InputValidationError) as truncated:
        gaussian_on_grid(narrow, 100.0)
    assert str(truncated.value) == (
        f"grid window truncates {outside:.3g} of N(0, 100.0); widen the grid")
    # the Cauchy window spans +-1.4e10, but its core cells are 12.4 wide
    coarse = make_grid(GenCauchy(d=1, nu=1))
    assert math.erfc(coarse.nodes[-1] / math.sqrt(8.0)) == 0.0
    with pytest.raises(InputValidationError) as unresolved:
        gaussian_on_grid(coarse, 4.0)
    message = str(unresolved.value)
    assert message.startswith("grid cells 12.4 wide at 0 lose 0.0859 of "
                              "N(0, 4.0) (sigma 2);")
    assert "--n-core" in message and "--core-halfwidth" in message
    assert "truncates" not in message and "widen" not in message


# ---------------------------------------------------------------------------
# grid divergences against closed-form oracles
# ---------------------------------------------------------------------------


def test_grid_renyi_matches_analytic(rho_n04):
    # R_2(N(0,4) || GenCauchy(1,2)) by independent high-precision quadrature
    assert renyi_quadrature(rho_n04, GC12, 2.0) == pytest.approx(
        0.6232264689562065, abs=1e-3
    )
    assert grid_r_inf(rho_n04, GC12) == pytest.approx(1.4334214413364905, abs=1e-3)
    f2, g2 = fq_gq(rho_n04, GC12, 2.0)
    assert f2 == pytest.approx(math.exp(0.6232264689562065), rel=1e-3)
    assert g2 > 0


def test_grid_divergence_of_target_is_zero(gc_grid):
    assert renyi_quadrature(gc_grid, GC12, 2.0) == pytest.approx(0.0, abs=1e-12)
    f2, g2 = fq_gq(gc_grid, GC12, 2.0)
    assert f2 == pytest.approx(1.0, abs=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-20)
    assert grid_r_inf(gc_grid, GC12) == pytest.approx(0.0, abs=1e-10)


def test_grid_renyi_gaussian_cross_check():
    g = make_grid(Gaussian(d=1), n_core=1024, n_tail=64, core_halfwidth=8.0)
    rho = gaussian_on_grid(g, 0.25)
    want = gaussian_renyi(2.0, 0.25, 1.0, 1)
    assert renyi_quadrature(rho, Gaussian(d=1), 2.0) == pytest.approx(want, abs=2e-3)


def test_grid_functionals_reject_an_infinite_order(tmp_path):
    g = make_grid(Gaussian(d=1), n_core=256, n_tail=32, core_halfwidth=6.0)
    rho = gaussian_on_grid(g, 2.0)
    with pytest.raises(InputValidationError, match="q must be finite"):
        fq_gq(rho, Gaussian(d=1), math.inf)
    with pytest.raises(InputValidationError, match="q must be finite"):
        renyi_quadrature(rho, Gaussian(d=1), math.inf)
    traj = fokker_planck_evolve_1d(Gaussian(d=1), rho, t_final=1e-3, dt=1e-4)
    with pytest.raises(InputValidationError, match="q must be finite"):
        write_fp_csv(str(tmp_path / "fp.csv"), traj, Gaussian(d=1), math.inf)
    assert not (tmp_path / "fp.csv").exists()


def test_fq_gq_support_violation():
    nodes = np.linspace(-60, 60, 1200)
    widths = np.full(1200, 0.1)
    values = np.full(1200, 1.0 / 120.0)
    flat = DensityGrid(nodes=nodes, widths=widths, values=values)
    # the Gaussian target underflows to exactly 0 at |x| ~ 40+: rho there
    # has mass where pi has none, so F_q and G_q are infinite
    f, g = fq_gq(flat, Gaussian(d=1), 2.0)
    assert f == math.inf and g == math.inf


def test_variance_lower_bound_identity(rho_n04, gc_grid):
    """Var_pi(u^{q/2}) >= F_q (1 - e^{-R_q}) on grid densities."""
    for rho, spec in [(rho_n04, GC12)]:
        pi = gc_grid.values
        w = gc_grid.widths
        u = np.where(pi > 0, rho.values / np.where(pi > 0, pi, 1.0), 0.0)
        q = 2.0
        uq2 = u ** (q / 2.0)
        mean = float(np.sum(pi * w * uq2))
        var = float(np.sum(pi * w * (uq2 - mean) ** 2))
        fq, _ = fq_gq(rho, spec, q)
        rq = renyi_quadrature(rho, spec, q)
        assert var >= fq * (1.0 - math.exp(-rq)) - 1e-9


# ---------------------------------------------------------------------------
# test-function battery
# ---------------------------------------------------------------------------


def test_default_battery_size_and_derivatives(fset):
    assert len(fset.functions) >= 20
    xs = np.array([-3.1, -0.7, 0.0, 0.4, 1.9])
    eps = 1e-6
    for tf in fset.functions:
        fd = (tf.f(xs + eps) - tf.f(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(tf.fprime(xs), fd, rtol=2e-5, atol=2e-6)


def test_battery_has_compact_and_global_functions(fset):
    supports = [tf.support for tf in fset.functions]
    assert any(s is not None for s in supports)
    assert any(s is None for s in supports)
    names = [tf.name for tf in fset.functions]
    assert len(names) == len(set(names))  # distinct names


# ---------------------------------------------------------------------------
# inequality checkers
# ---------------------------------------------------------------------------


def test_wpi_check_passes_and_falsifies(fset):
    beta = beta_for_spec(GC12)
    rep = wpi_check(GC12, beta, fset, R_GRID)
    assert rep.passed
    assert rep.n_violations == 0
    assert len(rep.entries) == len(fset.functions) * len(R_GRID)
    assert rep.check == "wpi"
    bad = wpi_check(GC12, beta, fset, R_GRID, falsify=True)
    assert not bad.passed
    assert bad.n_violations >= 1
    assert bad.falsify
    d = rep.to_dict()
    assert d["passed"] is True
    # both modes read one integration, so they report its error alike
    assert 0.0 < d["quadrature_error"] < 1e-4
    assert bad.to_dict()["quadrature_error"] == d["quadrature_error"]
    assert rep.falsified().to_dict() == bad.to_dict()


def test_wpi_check_other_families(fset):
    spec = GenCauchy(d=1, nu=4)
    rep = wpi_check(spec, beta_for_spec(spec), fset, [1e-3, 1e-2, 0.1, 1.0])
    assert rep.passed


def test_converse_check_both_constant_branches(fset):
    # nu >= d + 2 branch (d=1, nu=3) and the 2/nu branch (d=1, nu=1)
    for nu in (3.0, 1.0, 2.0):
        rep = converse_pi_check(GenCauchy(d=1, nu=nu), fset)
        assert rep.passed, (nu, rep.max_violation)
    bad = converse_pi_check(GC12, fset, falsify=True)
    assert not bad.passed
    assert bad.n_violations >= 1


def test_converse_check_domain(fset):
    with pytest.raises(InputValidationError, match="log-tailed"):
        converse_pi_check(Gaussian(d=1), fset)
    with pytest.raises(InputValidationError):
        converse_pi_check(GenCauchy(d=2, nu=2), fset)


def test_weighted_check_passes_and_falsifies(fset):
    rep = weighted_pi_check(Sublinear(d=1, alpha=0.5), fset)
    assert rep.passed
    bad = weighted_pi_check(Sublinear(d=1, alpha=0.5), fset, falsify=True)
    assert not bad.passed
    assert bad.n_violations >= 1


def test_weighted_check_domain(fset):
    with pytest.raises(InputValidationError, match="subexponential"):
        weighted_pi_check(GC12, fset)
    with pytest.raises(InputValidationError):
        weighted_pi_check(Sublinear(d=1, alpha=1.0), fset)  # needs alpha < 1


def test_checker_reports_carry_finite_battery_note(fset):
    rep = wpi_check(GC12, beta_for_spec(GC12), fset, [0.5])
    assert "falsify" in rep.note


# Independent references.  GenCauchy(1, nu) under x = tan(theta) has
# pi dx = dtheta / pi (nu = 1) and cos(theta) dtheta / 2 (nu = 2), so
# E tanh(x)^2 is a quadrature of a bounded function on (-pi/2, pi/2); the
# Sublinear value is scipy quad split over 400 log-spaced pieces out to
# |x| = 2e12.  The scalar quad over the window read 0.4707925288,
# 0.3672939116 and 0.004799829445: it lost the mass beyond |x| = 8.
_REFERENCES = (
    (GenCauchy(d=1, nu=1.0), "tanh_c0_s1", 0, 0.5499593751917),
    (GenCauchy(d=1, nu=2.0), "tanh_c0_s1", 0, 0.3750160344915),
    (Sublinear(d=1, alpha=0.3), "tanh_c5_s3", 1, 0.004939819260544),
)


@pytest.mark.parametrize("spec, name, which, want", _REFERENCES,
                         ids=["gen_cauchy_nu1", "gen_cauchy_nu2",
                              "sublinear_alpha0.3"])
def test_battery_integrals_match_independent_references(fset, spec, name,
                                                        which, want):
    """(Var f, E f'^2) of one battery function, tail mass included."""
    sub = fi_verify.TestFunctionSet(functions=tuple(
        tf for tf in fset.functions if tf.name == name))
    _, stats, error, rel_error = fi_verify._battery_stats(spec, sub)
    assert stats[0][which] == pytest.approx(want, rel=1e-9)
    assert 0.0 <= error < 1e-9
    assert 0.0 <= rel_error <= error


def test_grid_of_the_cauchy_target():
    """The grid's 1e-4 core quantile comes from the Cauchy tail mass."""
    grid = make_grid(GenCauchy(d=1, nu=1.0))
    assert grid.mass == pytest.approx(1.0, abs=1e-12)
    core = 1.5 * math.tan(0.5 * math.pi * (1.0 - 1e-4))
    assert np.count_nonzero(np.abs(grid.nodes) < core) == 1536


@pytest.mark.parametrize("spec, window", [
    (Gaussian(d=1), 7.44), (Sublinear(d=1, alpha=0.5, lam=50.0), 1.62)],
    ids=["gaussian", "sublinear_lam50"])
def test_window_inside_the_outer_kinks(fset, spec, window):
    """A window narrower than |x| = 8 is integrated only inside itself."""
    seen = []

    def unit(x):
        seen.append(np.abs(x).max())
        return np.ones((1, x.size))

    width = fi_verify._tail_quantile(spec, 1e-13)
    assert width == pytest.approx(window, abs=5e-3)
    mass, _ = fi_verify._pi_integrals(spec, unit, width)
    assert max(seen) <= width
    assert mass[0] == pytest.approx(1.0, abs=1e-12)
    rep = wpi_check(spec, beta_for_spec(spec), fset, R_GRID)
    assert rep.n_violations == 0


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_wpi_check_rejects_a_non_finite_r(fset, r):
    with pytest.raises(InputValidationError, match="finite positive"):
        wpi_check(GC12, beta_for_spec(GC12), fset, [0.1, r])


def test_discontinuous_test_function_raises():
    """A jump never reaches level agreement: a typed error, not a number."""
    jump = fi_verify.TestFunction(
        name="sign_0.3", f=lambda x: np.sign(np.asarray(x) - 0.3),
        fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(NumericsError, match="did not agree"):
        wpi_check(GC12, beta_for_spec(GC12),
                  fi_verify.TestFunctionSet(functions=(jump,)), [0.1])


def test_density_memo_lives_one_checker_call(fset, monkeypatch):
    """log Z once per checker call, beta once per r, nothing kept between."""
    counts = {"log_z": 0, "beta": 0}

    def counted_log_z(spec):
        counts["log_z"] += 1
        return log_normalizing_constant(spec)

    base = beta_for_spec(GC12)

    def beta(r):
        counts["beta"] += 1
        return base(r)

    monkeypatch.setattr(fi_verify, "log_normalizing_constant", counted_log_z)
    sub = fi_verify.TestFunctionSet(functions=fset.functions[:2])
    wpi_check(GC12, beta, sub, R_GRID)
    assert counts == {"log_z": 1, "beta": len(R_GRID)}
    wpi_check(GC12, beta, sub, R_GRID)
    assert counts == {"log_z": 2, "beta": 2 * len(R_GRID)}
    converse_pi_check(GC12, sub)
    weighted_pi_check(Sublinear(d=1, alpha=0.5), sub)
    assert counts["log_z"] == 4


# ---------------------------------------------------------------------------
# Osc memo
# ---------------------------------------------------------------------------

C4_SUITES = (GenCauchy(d=1, nu=1.0), GenCauchy(d=1, nu=2.0),
             GenCauchy(d=1, nu=4.0), Sublinear(d=1, alpha=0.3),
             Sublinear(d=1, alpha=0.5), Sublinear(d=1, alpha=0.7))
OSC_POINTS = 65537


def _inline_osc(tf, window):
    """Osc as wpi_check read it inline before the memo: the reference."""
    span = tf.support if tf.support is not None else window
    fv = tf.f(np.linspace(-span, span, OSC_POINTS))
    return float(fv.max() - fv.min())


def _grid_counted(fset):
    """A copy of ``fset`` whose f's count their calls on the Osc grid."""
    counts = {tf.name: 0 for tf in fset}

    def counted(tf):
        def f(x):
            if np.shape(x) == (OSC_POINTS,):
                counts[tf.name] += 1
            return tf.f(x)
        return dataclasses.replace(tf, f=f)

    return fi_verify.TestFunctionSet(tuple(map(counted, fset))), counts


def test_osc_matches_inline_formula_on_every_suite():
    """One battery across the six suites: every Osc, compact ones read from
    the memo after the first suite, equals the inline formula bit for bit."""
    battery = default_test_functions()
    for spec in C4_SUITES:
        window = fi_verify._tail_quantile(spec, 1e-13)
        for tf in battery:
            want = _inline_osc(tf, window)
            assert tf.osc(window).hex() == want.hex(), (spec, tf.name)


@pytest.mark.parametrize("window", [0.3, 1.62, 7.44, 40.0])
def test_monotone_osc_matches_grid_where_ramps_do_not_saturate(window):
    """On windows where a ramp is not flat at its ends, its two-point Osc is
    still the grid's, for rising and falling ramps alike."""
    ramps = [tf for tf in default_test_functions() if tf.monotone]
    falling = [dataclasses.replace(tf, f=lambda x, g=tf.f: -2.0 * g(x))
               for tf in ramps]
    for tf in ramps + falling:
        want = _inline_osc(tf, window)
        assert tf.osc(window).hex() == want.hex(), (window, tf.name)
    assert _inline_osc(ramps[-1], 7.44) < 2.0


def test_compact_osc_grid_evaluated_once_per_battery():
    battery, counts = _grid_counted(default_test_functions())
    for spec in C4_SUITES:
        for falsify in (False, True):
            wpi_check(spec, beta_for_spec(spec), battery, R_GRID,
                      falsify=falsify)
    compact = {tf.name for tf in battery if tf.support is not None}
    assert len(compact) == 16
    assert all(tf.monotone for tf in battery if tf.support is None)
    # A monotone ramp is read at the window's two ends, never on the grid.
    assert counts == {name: 1 if name in compact else 0 for name in counts}


def test_osc_memo_is_per_battery():
    beta = beta_for_spec(GC12)
    used = default_test_functions()
    want = wpi_check(GC12, beta, used, R_GRID).to_dict()
    assert all("_osc" in tf.__dict__ for tf in used if tf.support is not None)
    assert not any("_osc" in tf.__dict__ for tf in used if tf.support is None)
    fresh = default_test_functions()
    subset = fi_verify.TestFunctionSet(functions=fresh.functions[::3])
    assert not any("_osc" in tf.__dict__ for tf in fresh)
    assert all(tf == dataclasses.replace(tf) for tf in used)
    assert not any("_osc" in dataclasses.replace(tf).__dict__ for tf in used)
    assert wpi_check(GC12, beta, fresh, R_GRID).to_dict() == want
    used_subset = fi_verify.TestFunctionSet(functions=used.functions[::3])
    assert (wpi_check(GC12, beta, subset, R_GRID).to_dict()
            == wpi_check(GC12, beta, used_subset, R_GRID).to_dict())


def test_osc_failure_stores_nothing():
    base = default_test_functions().functions[0]
    assert base.support is not None

    def f(x):
        if np.shape(x) == (OSC_POINTS,):
            raise NumericsError("grid refused")
        return base.f(x)

    tf = dataclasses.replace(base, name="refuses_grid", f=f)
    battery = fi_verify.TestFunctionSet(functions=(tf,))
    for _ in range(2):
        with pytest.raises(NumericsError, match="grid refused"):
            wpi_check(GC12, beta_for_spec(GC12), battery, R_GRID)
        assert "_osc" not in tf.__dict__


# ---------------------------------------------------------------------------
# Reports against a battery evaluated the old way
# ---------------------------------------------------------------------------


def _on_own(g):
    """g on a plain copy of the nodes, so it shares no value with another
    function of the battery."""
    return lambda x: g(np.array(x))


def _old_way(fset):
    """``fset`` with every f and f' evaluated on its own and every Osc read
    on the 65537-point grid."""
    return fi_verify.TestFunctionSet(tuple(
        dataclasses.replace(tf, f=_on_own(tf.f), fprime=_on_own(tf.fprime),
                            monotone=False)
        for tf in fset))


def _reference_battery_stats(spec, fset, weight=None, var_weight=None):
    """``fi_verify._battery_stats`` with its integrand written out here:
    each function's rows f w, f (f w) and (f' f') w_grad computed on their
    own, in a loop of their own, and stacked at the end."""
    window = fi_verify._tail_quantile(spec, 1e-13)

    def integrands(x):
        x = np.array(x)
        rows = [] if var_weight is None else [var_weight(x)]
        w = 1.0 if var_weight is None else rows[0]
        w_grad = 1.0 if weight is None else weight(x)
        for tf in fset:
            f, fp = tf.f(x), tf.fprime(x)
            rows += [f * w, f * (f * w), (fp * fp) * w_grad]
        return np.array(rows)

    vals, errors = fi_verify._pi_integrals(spec, integrands, window)
    rel = errors / np.maximum(1.0, np.abs(vals))
    mass = 1.0 if var_weight is None else float(vals[0])
    moments = vals[0 if var_weight is None else 1:].reshape(len(fset), 3)
    stats = [(max(float(m2) - float(m) ** 2 / mass, 0.0), float(g2))
             for m, m2, g2 in moments]
    return window, stats, float(errors.max()), float(rel.max())


def _c4_reports(fset, beta_of):
    reports = {}
    for spec in C4_SUITES:
        for falsify in (False, True):
            reports["wpi", str(spec), falsify] = wpi_check(
                spec, beta_of(spec), fset, R_GRID, falsify=falsify)
    for nu in (1.0, 2.0, 4.0):
        reports["converse", nu] = converse_pi_check(GenCauchy(d=1, nu=nu), fset)
    for alpha in (0.3, 0.5, 0.7):
        reports["weighted", alpha] = weighted_pi_check(
            Sublinear(d=1, alpha=alpha), fset)
    return reports


@pytest.fixture(scope="module")
def c4_reports():
    """The C4 reports of one battery, shared across all suites."""
    return _c4_reports(default_test_functions(), beta_for_spec)


def test_c4_reports_match_old_way_byte_for_byte(c4_reports,
                                                beta_sublinear_reference,
                                                monkeypatch):
    """Monotone Osc, shared mollifiers, the gamma table and the battery's
    integrand change no byte of any wpi (clean and falsify), converse or
    weighted report."""

    def reference_beta(spec):
        if isinstance(spec, Sublinear):
            return lambda r: beta_sublinear_reference(spec.alpha, spec.d, r)[0]
        return beta_for_spec(spec)

    monkeypatch.setattr(fi_verify, "_battery_stats", _reference_battery_stats)
    want = _c4_reports(_old_way(default_test_functions()), reference_beta)
    assert want.keys() == c4_reports.keys()
    for key, report in c4_reports.items():
        assert (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(want[key].to_dict(), sort_keys=True)), key
    falsify_counts = [c4_reports["wpi", str(spec), True].n_violations
                      for spec in C4_SUITES]
    assert falsify_counts == [30, 67, 54, 0, 49, 72]


def test_quadrature_rel_error_on_c4_suites(c4_reports):
    """The relative figure stays near the rule's 1e-12 agreement while the
    absolute one is set by poly6_bump8's large moments."""
    for key, report in c4_reports.items():
        d = report.to_dict()
        assert 0.0 < d["quadrature_rel_error"] < 1e-11, key
        assert d["quadrature_rel_error"] <= d["quadrature_error"], key
    gc1 = c4_reports["wpi", str(C4_SUITES[0]), False]
    assert gc1.quadrature_error > 1e-6
    assert gc1.falsified().quadrature_rel_error == gc1.quadrature_rel_error


def test_replaced_f_on_compact_member_is_integrated(fset):
    """A member's f, replaced, is what the battery integrates: shared
    powers, mollifiers, tanh and sine values never stand in for a call of
    tf.f.  Each battery holds every member that shares values with it."""
    for name in ("poly2_bump2", "tanh_c1_s0.5", "sin5_bump4"):
        base = next(tf for tf in fset if tf.name == name)
        others = tuple(tf for tf in fset if tf.support == base.support)
        doubled = dataclasses.replace(base, f=lambda x, g=base.f: 2.0 * g(x))
        narrowed = dataclasses.replace(base, f=lambda x, g=base.f: g(x * 2.0))
        rows = {}
        for tf in (base, doubled, narrowed):
            battery = fi_verify.TestFunctionSet(functions=(*others, tf))
            report = wpi_check(GC12, beta_for_spec(GC12), battery, [0.1])
            rows[tf.f] = report.entries[-1]
            assert report.to_dict() == wpi_check(
                GC12, beta_for_spec(GC12), _old_way(battery), [0.1]).to_dict()
        assert rows[doubled.f]["lhs_var"] == 4.0 * rows[base.f]["lhs_var"], name
        assert rows[narrowed.f]["lhs_var"] != rows[base.f]["lhs_var"], name


OSC_GRID = (OSC_POINTS,)


def _count_shared(monkeypatch):
    """Wrap ``_on_nodes`` to record each node array that keeps values: its
    memo, a weak reference to it, its shape, the keys computed on it and
    how often each key is read."""
    seen, compute = [], fi_verify._on_nodes

    def counted(x, key, fn):
        shared = getattr(x, "shared", None)
        if shared is None:
            return compute(x, key, fn)
        entry = next((e for e in seen if e["memo"] is shared), None)
        if entry is None:
            entry = {"memo": shared, "ref": weakref.ref(x), "shape": x.shape,
                     "computed": [], "reads": collections.Counter()}
            seen.append(entry)
        entry["reads"][key] += 1
        return compute(x, key, lambda y: entry["computed"].append(key) or fn(y))

    monkeypatch.setattr(fi_verify, "_on_nodes", counted)
    return seen


MOLLIFIERS = {("bump", a, i) for a in (2.0, 4.0, 8.0) for i in (0, 1)}
POWERS = {("pow", k) for k in range(7)}
TANHS = {("tanh", c, s) for c, s in ((0.0, 1.0), (0.0, 0.25), (1.0, 0.5),
                                     (-2.0, 2.0), (5.0, 3.0), (0.0, 4.0))}
SINES = {("sin", 2.0), ("sin", 5.0)}


def test_shared_mollifier_lives_one_node_array(monkeypatch):
    """Each support's B and B' are computed once per node array, and no node
    array outlives the check."""
    battery = default_test_functions()
    wpi_check(GC12, beta_for_spec(GC12), battery, [0.1])  # Osc kept: no grids
    seen = _count_shared(monkeypatch)
    assert wpi_check(GC12, beta_for_spec(GC12), battery, [0.1]).passed
    assert seen and all(MOLLIFIERS <= e["memo"].keys() for e in seen)
    assert all(sorted(k for k in e["computed"] if k in MOLLIFIERS)
               == sorted(MOLLIFIERS) for e in seen)
    assert all(e["ref"]() is None for e in seen)


def test_shared_values_live_one_node_array(monkeypatch):
    """On a fresh battery each x**k, mollifier, ramp tanh and sin(omega x)
    is computed once per quadrature node array, each support's Osc grid
    computes its B once for all its members, and every node array is freed
    when the check returns."""
    seen = _count_shared(monkeypatch)
    assert wpi_check(GC12, beta_for_spec(GC12), default_test_functions(),
                     [0.1]).passed
    # On the Osc grids B is computed once per support, not once per member.
    on_grids = collections.Counter(
        k for e in seen if e["shape"] == OSC_GRID for k in e["computed"])
    assert on_grids == collections.Counter(
        [("bump", 2.0, 0), ("bump", 8.0, 0), ("bump", 4.0, 0),
         *POWERS, *POWERS, *SINES])
    nodes = [e for e in seen if e["shape"] != OSC_GRID]
    assert nodes and all(e["memo"].keys() == MOLLIFIERS | POWERS | TANHS | SINES
                         for e in nodes)
    assert all(sorted(e["computed"], key=repr) == sorted(e["memo"], key=repr)
               for e in nodes)
    # Both f and f' read the values: x**k is x**d of f and f' (degree k, two
    # supports) and x**(d-1) of f' (degree k + 1).
    reads = {**{("pow", k): 6 if k < 6 else 4 for k in range(7)},
             **{("bump", a, 0): 14 for a in (2.0, 8.0)},
             **{("bump", a, 1): 7 for a in (2.0, 8.0)},
             ("bump", 4.0, 0): 4, ("bump", 4.0, 1): 2,
             **{key: 2 for key in TANHS | SINES}}
    assert all(e["reads"] == reads for e in nodes)
    assert all(e["ref"]() is None for e in seen)


# ---------------------------------------------------------------------------
# conservative evolution scheme
# ---------------------------------------------------------------------------


def test_fp_target_exactly_stationary():
    g = make_grid(GC12, n_core=512, n_tail=128, core_halfwidth=16.0)
    traj = fokker_planck_evolve_1d(GC12, g, t_final=0.05, dt=1e-3, record_every=10)
    for dens in traj.densities:
        assert float(np.max(np.abs(dens.values - g.values))) == 0.0


def test_fp_mass_conserved_exactly():
    g = make_grid(GC12, n_core=512, n_tail=128, core_halfwidth=16.0)
    rho0 = gaussian_on_grid(g, 4.0)
    traj = fokker_planck_evolve_1d(GC12, rho0, t_final=0.2, dt=1e-3, record_every=50)
    for dens in traj.densities:
        assert dens.mass == pytest.approx(1.0, abs=1e-10)


def test_fp_ou_moment_oracle():
    g = make_grid(Gaussian(d=1), n_core=512, n_tail=64, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 4.0)
    traj = fokker_planck_evolve_1d(Gaussian(d=1), rho0, t_final=0.3, dt=1e-4,
                                   record_every=500)
    for t, dens in zip(traj.times, traj.densities):
        want = 1.0 + 3.0 * math.exp(-2.0 * t)
        assert dens.m2 == pytest.approx(want, abs=5e-4)


def test_fp_renyi_monotone_and_decay_identity():
    """R_2 never increases, and its discrete derivative matches -2 G/F."""
    g = make_grid(GC12, n_core=1024, n_tail=128, core_halfwidth=16.0)
    rho0 = gaussian_on_grid(g, 4.0)
    traj = fokker_planck_evolve_1d(GC12, rho0, t_final=0.4, dt=2e-4, record_every=250)
    rs, preds = [], []
    for dens in traj.densities:
        rs.append(renyi_quadrature(dens, GC12, 2.0))
        f2, g2 = fq_gq(dens, GC12, 2.0)
        preds.append(-2.0 * g2 / f2)
    rs = np.array(rs)
    assert np.all(np.diff(rs) <= 1e-12)
    dt_rec = np.diff(traj.times)
    deriv = np.diff(rs) / dt_rec
    mid_pred = 0.5 * (np.array(preds[:-1]) + np.array(preds[1:]))
    mask = np.abs(deriv) > 1e-4
    assert mask.any()
    rel = np.abs(deriv[mask] - mid_pred[mask]) / np.abs(mid_pred[mask])
    assert float(rel.max()) <= 0.05


def test_fp_stability_guard_suggests_dt():
    g = make_grid(GC12, n_core=512, n_tail=128, core_halfwidth=16.0)
    rho0 = gaussian_on_grid(g, 4.0)
    with pytest.raises(InputValidationError, match="dt <="):
        fokker_planck_evolve_1d(GC12, rho0, t_final=0.1, dt=0.5)


def test_fp_record_grid_and_final():
    g = make_grid(Gaussian(d=1), n_core=256, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    traj = fokker_planck_evolve_1d(Gaussian(d=1), rho0, t_final=0.0105, dt=1e-4,
                                   record_every=50)
    # records at 0, 50 dt, 100 dt, and the final partial step
    np.testing.assert_allclose(traj.times, [0.0, 5e-3, 1e-2, 0.0105], rtol=1e-9)
    assert traj.densities[0].m2 == pytest.approx(2.0, rel=1e-3)
    for dens in traj.densities:
        np.testing.assert_array_equal(dens.nodes, g.nodes)


@pytest.mark.parametrize("every", [0, -2])
def test_fp_record_every_must_be_positive(every):
    g = make_grid(Gaussian(d=1), n_core=256, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    with pytest.raises(InputValidationError, match="record_every must be >= 1"):
        fokker_planck_evolve_1d(Gaussian(d=1), rho0, t_final=0.01, dt=1e-4,
                                record_every=every)


@pytest.mark.parametrize("kwargs, message", [
    ({"t_final": math.inf}, "t_final must be finite"),
    ({"record_every": 2.5}, "record_every must be an integer"),
    ({"record_every": True}, "record_every must be an integer"),
    ({"t_final": 1e10, "dt": 1e-300}, "not a finite step count"),
], ids=str)
def test_fp_evolve_checks_its_time_and_record_interval(kwargs, message):
    g = make_grid(Gaussian(d=1), n_core=256, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    with pytest.raises(InputValidationError, match=message):
        fokker_planck_evolve_1d(Gaussian(d=1), rho0,
                                **{"t_final": 0.01, "dt": 1e-4, **kwargs})


def _reference_evolve(spec, rho0, t_final, dt, record_every):
    """The allocating finite-volume loop: record times and frame values."""
    pi_vals = pi_on_grid(spec, rho0)
    widths = rho0.widths
    cond = np.sqrt(pi_vals[:-1] * pi_vals[1:]) / np.diff(rho0.nodes)
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    rho = rho0.values.copy()
    times, frames = [0.0], [rho.copy()]
    for k in range(1, n_steps + 1):
        u = rho / pi_vals
        flux = cond * np.diff(u)
        div = np.zeros_like(rho)
        div[:-1] += flux
        div[1:] -= flux
        rho = rho + dt * div / widths
        if k % record_every == 0 or k == n_steps:
            np.clip(rho, 0.0, None, out=rho)
            times.append(k * dt)
            frames.append(rho.copy())
    return np.asarray(times), frames


# (spec, core half-width, dt): 200 steps each, recorded every 37
_FLOWS = [(GC12, 16.0, 5e-4), (Sublinear(d=1, alpha=0.5), 16.0, 5e-4),
          (Gaussian(d=1), 6.0, 2.5e-4)]


@pytest.mark.parametrize("spec, half, dt", _FLOWS)
def test_fp_evolve_matches_reference_loop(spec, half, dt):
    """The in-place step gives the allocating loop's frames byte for byte,
    the final partial record included."""
    g = make_grid(spec, n_core=256, n_tail=64, core_halfwidth=half)
    rho0 = gaussian_on_grid(g, 4.0)
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=200 * dt, dt=dt,
                                   record_every=37)
    times, frames = _reference_evolve(spec, rho0, 200 * dt, dt, 37)
    assert len(traj) == len(frames) == 7  # 0, 37, ..., 185, and step 200
    assert traj.times.tobytes() == times.tobytes()
    for dens, want in zip(traj.densities, frames):
        assert dens.values.tobytes() == want.tobytes()


def test_fp_evolve_matches_reference_loop_on_the_default_cauchy_grid():
    """The same pin on make_grid's default window for GenCauchy(nu = 1):
    cells from 12.4 to 7.6e8 wide, 1986 cells exactly zero at the start,
    subnormal cells at the front and fluxes of -0.0 as it moves."""
    spec = GenCauchy(d=1, nu=1)
    rho0 = gaussian_on_grid(make_grid(spec), 100.0)
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=400.0, dt=2.0,
                                   record_every=37)
    times, frames = _reference_evolve(spec, rho0, 400.0, 2.0, 37)
    assert len(traj) == len(frames) == 7
    assert traj.times.tobytes() == times.tobytes()
    for dens, want in zip(traj.densities, frames):
        assert dens.values.tobytes() == want.tobytes()


# (t_final in steps of dt, record_every, records after t = 0); dt = 2e-3
_SCHEDULES = [
    (7, 1, 7),          # a record after every step
    (40, 40, 1),        # one interval, ending on the last step
    (40, 57, 1),        # an interval longer than the run
    (450, None, 225),   # the default interval, 450 // 200 = 2
    (1, 5, 1),          # a single step
    (10.5, 4, 3),       # 11 steps, recorded at 4, 8 and 11
]


@pytest.mark.parametrize("steps, every, n_records", _SCHEDULES, ids=str)
def test_fp_evolve_record_schedule_matches_reference_loop(steps, every,
                                                          n_records):
    """Every record interval, the final partial one included, gives the
    allocating loop's times and frames byte for byte."""
    spec, dt = Gaussian(d=1), 2e-3
    g = make_grid(spec, n_core=128, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    t_final = steps * dt
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=t_final, dt=dt,
                                   record_every=every)
    n_steps = math.ceil(steps)
    times, frames = _reference_evolve(
        spec, rho0, t_final, dt, every or max(1, n_steps // 200))
    assert len(traj) == len(frames) == 1 + n_records
    assert traj.times.tobytes() == times.tobytes()
    assert traj.times[-1] == n_steps * dt
    for dens, want in zip(traj.densities, frames):
        assert dens.values.tobytes() == want.tobytes()


def test_evolved_frames_carry_pi(monkeypatch):
    """One evolution builds pi once; its frames' functionals reuse it."""
    spec = Sublinear(d=1, alpha=0.5)
    g = make_grid(spec, n_core=256, n_tail=64, core_halfwidth=16.0)
    rho0 = gaussian_on_grid(g, 4.0)
    calls = []

    def counted_log_z(s):
        calls.append(s)
        return log_normalizing_constant(s)

    monkeypatch.setattr(fi_verify, "log_normalizing_constant", counted_log_z)
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=0.05, dt=5e-4,
                                   record_every=25)
    got = [(fq_gq(f, spec, 2.0), renyi_quadrature(f, spec, 3.0),
            grid_r_inf(f, Sublinear(d=1, alpha=0.5)))
           for f in traj.densities]
    assert len(calls) == 1

    other = GC12
    for dens, values in zip(traj.densities, got):
        fresh = DensityGrid(nodes=dens.nodes, widths=dens.widths,
                            values=dens.values)
        assert values == (fq_gq(fresh, spec, 2.0),
                          renyi_quadrature(fresh, spec, 3.0),
                          grid_r_inf(fresh, spec))
        carried = pi_on_grid(spec, dens)
        assert carried.tobytes() == pi_on_grid(spec, fresh).tobytes()
        assert not carried.flags.writeable
        with pytest.raises(ValueError):
            carried[0] = 1.0
        n = len(calls)
        assert (pi_on_grid(other, dens).tobytes()
                == pi_on_grid(other, fresh).tobytes())
        assert fq_gq(dens, other, 2.0) == fq_gq(fresh, other, 2.0)
        assert calls[n:] == [other] * 4


def test_write_fp_csv_schema_and_determinism(tmp_path):
    g = make_grid(Gaussian(d=1), n_core=256, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    traj = fokker_planck_evolve_1d(Gaussian(d=1), rho0, t_final=0.01, dt=1e-4,
                                   record_every=50)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_fp_csv(str(p1), traj, Gaussian(d=1), 2.0)
    write_fp_csv(str(p2), traj, Gaussian(d=1), 2.0)
    text = p1.read_text()
    assert text == p2.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "t,R_q,F_q,G_q,mass,m2"
    assert len(lines) == 1 + len(traj.densities)
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[4]) == pytest.approx(1.0, abs=1e-9)


_STEP_UFUNCS = ("divide", "subtract", "multiply", "add")


def test_fp_evolve_step_is_seven_ufunc_calls_into_given_outputs(monkeypatch):
    """Each finite-volume step makes exactly seven calls of the four step
    ufuncs, and every call writes into the output array it is given."""
    spec = Gaussian(d=1)
    g = make_grid(spec, n_core=128, n_tail=32, core_halfwidth=6.0)
    rho0 = gaussian_on_grid(g, 2.0)
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            real = getattr(np, name)
            if name not in _STEP_UFUNCS:
                return real

            def counted(*args, **kwargs):
                out = args[2] if len(args) > 2 else kwargs.get("out")
                result = real(*args, **kwargs)
                calls.append((name, isinstance(out, np.ndarray)
                              and result is out))
                return result
            return counted

    monkeypatch.setattr(fi_verify, "np", CountingNumpy())
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=23 * 2e-3, dt=2e-3,
                                   record_every=5)
    assert len(traj) == 1 + 5  # steps 5, 10, 15, 20 and 23
    assert len(calls) == 7 * 23
    assert all(into_given for _, into_given in calls)
    assert collections.Counter(name for name, _ in calls) == {
        "divide": 2 * 23, "subtract": 2 * 23, "multiply": 2 * 23, "add": 23}
