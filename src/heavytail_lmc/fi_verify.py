"""Quadrature-based falsification checks of the library's functional
inequalities, and a 1D Fokker-Planck solver for Renyi-decay experiments.

The inequality checkers evaluate both sides of a variance inequality for a
fixed battery of smooth test functions and report any violation beyond a
1e-9 quadrature slack.  A finite test set can only falsify, never prove;
every report says so, and every checker has a built-in falsification mode
(the constant divided by 1e6) demonstrating that it can detect violations.

The solver evolves a cell-averaged density on a non-uniform 1D grid with a
conservative explicit finite-volume scheme in the density-ratio variable
u = rho/pi: the face flux is pi_face * (u_{i+1} - u_i) / delta_face with
geometric-mean face weights.  The scheme conserves mass to roundoff, keeps
the target exactly stationary, and satisfies a discrete analogue of the
dissipation identity dF_q/dt = -(4(q-1)/q) E_pi |grad u^{q/2}|^2.  One
evolution builds the grid target pi once and carries it on every frame it
records, so the grid functionals of those frames do not rebuild it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .targets import (
    GenCauchy,
    InputValidationError,
    NumericsError,
    PotentialSpec,
    Sublinear,
    _c_d_alpha,
    _json_float,
    _json_int,
    _tail_quantile,
    _ts_integrals,
    _ts_nodes,
    log_normalizing_constant,
)

__all__ = [
    "DensityGrid",
    "TestFunction",
    "TestFunctionSet",
    "default_test_functions",
    "FIReport",
    "wpi_check",
    "converse_pi_check",
    "weighted_pi_check",
    "make_grid",
    "gaussian_on_grid",
    "pi_on_grid",
    "FPTrajectory",
    "fokker_planck_evolve_1d",
    "renyi_quadrature",
    "fq_gq",
    "grid_r_inf",
    "write_fp_csv",
]


# ---------------------------------------------------------------------------
# Density grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityGrid:
    """Cell-averaged 1D density: sorted centers, positive widths, unit mass.

    A frame recorded by :func:`fokker_planck_evolve_1d` also carries that
    evolution's grid target as ``_pi = (spec, read-only pi array)``, built
    once per evolution; :func:`pi_on_grid` returns it for the same spec.
    The frame shares the start grid's nodes and widths, so the carried
    array equals a recomputation bit for bit.
    """

    nodes: np.ndarray
    widths: np.ndarray
    values: np.ndarray
    _pi: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        widths = np.asarray(self.widths, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != widths.shape or nodes.shape != values.shape:
            raise InputValidationError(
                "nodes, widths, values must be 1D arrays of equal length"
            )
        if nodes.size < 2:
            raise InputValidationError("a density grid needs at least 2 cells")
        if np.any(np.diff(nodes) <= 0.0):
            raise InputValidationError("nodes must be strictly increasing")
        if np.any(widths <= 0.0) or not np.all(np.isfinite(widths)):
            raise InputValidationError("widths must be positive finite reals")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise InputValidationError("values must be non-negative finite reals")
        mass = float(values @ widths)
        if abs(mass - 1.0) > 1e-8:
            raise InputValidationError(
                f"grid mass must equal 1 within 1e-8, got {mass!r}"
            )

    @property
    def mass(self) -> float:
        return float(self.values @ self.widths)

    @property
    def m2(self) -> float:
        return float((self.values * self.nodes**2) @ self.widths)


def _cell_edges(core_halfwidth: float, n_core: int, window: float, n_tail: int
                ) -> np.ndarray:
    """Uniform core on [-c, c] plus geometric tail cells out to the window."""
    core = np.linspace(-core_halfwidth, core_halfwidth, n_core + 1)
    if window <= core_halfwidth:
        return core
    tail = np.geomspace(core_halfwidth, window, n_tail + 1)[1:]
    return np.concatenate([-tail[::-1], core, tail])


def _cell_average_density(
    log_density: Callable[[np.ndarray], np.ndarray], edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell centers, widths, and cell-averaged density via per-cell Simpson."""
    n_sub = 4
    n_cells = len(edges) - 1
    # Per-cell Simpson nodes: offsets 0, 1/4, 1/2, 3/4, 1 of each cell.
    frac = np.linspace(0.0, 1.0, n_sub + 1)
    lo = edges[:-1][:, None]
    w = np.diff(edges)[:, None]
    pts = lo + w * frac[None, :]
    dens = np.exp(log_density(pts.reshape(-1))).reshape(n_cells, n_sub + 1)
    simpson_w = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
    masses = (dens * simpson_w).sum(axis=1) * w[:, 0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return centers, widths, masses / widths


def _log_pi(spec: PotentialSpec) -> Callable[[np.ndarray], np.ndarray]:
    """log pi(x) on the line, with log Z computed once."""
    log_z = log_normalizing_constant(spec)
    return lambda x: -np.asarray(spec.profile(x * x), dtype=float) - log_z


def make_grid(
    spec: PotentialSpec,
    n_core: int = 1536,
    n_tail: int = 256,
    core_halfwidth: Optional[float] = None,
) -> DensityGrid:
    """Grid-discretized target: dense uniform core, geometric tail cells.

    The window is wide enough that the target mass beyond it is below
    1e-10; the density is renormalized on the window (a
    relative adjustment of at most the truncated mass).  The core covers
    the target's central 1 - 1e-4 mass (override with ``core_halfwidth``).
    """
    if spec.d != 1:
        raise InputValidationError("density grids are 1-dimensional")
    n_core = _json_int(n_core, "n_core")
    n_tail = _json_int(n_tail, "n_tail")
    if n_core < 1:
        raise InputValidationError(f"n_core must be >= 1, got {n_core}")
    if n_tail < 0:
        raise InputValidationError(f"n_tail must be >= 0, got {n_tail}")
    if core_halfwidth is None:
        core_halfwidth = 1.5 * _tail_quantile(spec, 1e-4)
    elif not (0.0 < _json_float(core_halfwidth, "core_halfwidth") < math.inf):
        raise InputValidationError(
            f"core_halfwidth must be finite positive, got {core_halfwidth}"
        )
    window = max(_tail_quantile(spec, 1e-10), 2.0 * core_halfwidth)
    edges = _cell_edges(core_halfwidth, n_core, window, n_tail)
    centers, widths, values = _cell_average_density(_log_pi(spec), edges)
    total = float(values @ widths)
    if total < 1.0 - 1e-6:
        raise NumericsError(
            f"grid window captured only {total} of the target mass"
        )
    return DensityGrid(nodes=centers, widths=widths, values=values / total)


def pi_on_grid(spec: PotentialSpec, grid: DensityGrid) -> np.ndarray:
    """Cell-averaged target density on an existing grid (window-renormalized).

    On a frame that carries the target of ``spec`` (see :class:`DensityGrid`)
    this is the carried read-only array.
    """
    if grid._pi is not None and grid._pi[0] == spec:
        return grid._pi[1]
    edges = np.append(grid.nodes - 0.5 * grid.widths,
                      grid.nodes[-1] + 0.5 * grid.widths[-1])
    _, _, values = _cell_average_density(_log_pi(spec), edges)
    total = float(values @ grid.widths)
    return values / total


def gaussian_on_grid(grid: DensityGrid, sigma2: float) -> DensityGrid:
    """N(0, sigma2) discretized on an existing grid's cells.

    The cells must capture the gaussian: losing more than 1e-6 of its mass
    is rejected (it would silently bias every downstream functional).  The
    message names the cause: a window that truncates the gaussian (its
    exact mass outside), or cells too wide to resolve it.
    """
    if not (sigma2 > 0.0):
        raise InputValidationError(f"sigma2 must be positive, got {sigma2}")
    edges = np.append(grid.nodes - 0.5 * grid.widths,
                      grid.nodes[-1] + 0.5 * grid.widths[-1])

    def log_rho(x: np.ndarray) -> np.ndarray:
        return -0.5 * x * x / sigma2 - 0.5 * math.log(2.0 * math.pi * sigma2)

    _, _, values = _cell_average_density(log_rho, edges)
    total = float(values @ grid.widths)
    if total < 1.0 - 1e-6:
        scale = math.sqrt(2.0 * sigma2)
        outside = 1.0 - 0.5 * (math.erf(edges[-1] / scale)
                               - math.erf(edges[0] / scale))
        if outside > 1e-6:
            raise InputValidationError(
                f"grid window truncates {outside:.3g} of N(0, {sigma2}); "
                "widen the grid"
            )
        width = float(grid.widths[np.argmin(np.abs(grid.nodes))])
        raise InputValidationError(
            f"grid cells {width:.3g} wide at 0 lose {1.0 - total:.3g} of "
            f"N(0, {sigma2}) (sigma {math.sqrt(sigma2):.3g}); use more or "
            "narrower core cells (--n-core, --core-halfwidth)"
        )
    return DensityGrid(nodes=grid.nodes, widths=grid.widths, values=values / total)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A smooth test function with its closed-form derivative."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    support: Optional[float] = None  # |x| beyond which f vanishes, if compact
    monotone: bool = False  # f is monotone on the whole line

    def osc(self, window: float, *, _grids: Optional[dict] = None) -> float:
        """Osc(f) = max f - min f on 65537 equispaced points of [-s, s].

        s is the support when f has one, else ``window``.  A monotone f
        takes its extremes at the grid's end points, which ``np.linspace``
        returns exactly as -s and s, so its value is |f(s) - f(-s)| from
        those two points alone.  A compact f's grid does not depend on the
        window, so its value is computed on the first call and kept in the
        instance ``__dict__`` beside the dataclass fields: equality and repr
        ignore it, an equal function built elsewhere starts empty, and an f
        that raises stores nothing.  ``_grids`` is :func:`wpi_check`'s
        per-check store of the grid (see :func:`_osc_grid`).
        """
        if "_osc" in self.__dict__:
            return self.__dict__["_osc"]
        span = self.support if self.support is not None else window
        if self.monotone:
            ends = self.f(np.array([-span, span]))
            return float(abs(ends[1] - ends[0]))
        fv = self.f(_osc_grid(span, _grids))
        osc = float(fv.max() - fv.min())
        if self.support is not None:
            self.__dict__["_osc"] = osc
        return osc


@dataclass(frozen=True)
class TestFunctionSet:
    functions: tuple[TestFunction, ...]

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)


class _Nodes(np.ndarray):
    """Nodes (of a quadrature level or an Osc grid) that keep what
    :func:`_on_nodes` computes on them.

    ``shared`` lives exactly as long as the node array.  An array derived
    from one (``x * 2``, ``x[1:]``) is a ``_Nodes`` with ``shared`` None,
    so it shares nothing.
    """

    shared: Optional[dict] = None


def _on_nodes(x: np.ndarray, key: tuple,
              compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``compute`` of x as a float array, computed once per key on a
    :class:`_Nodes` array, and kept there read-only, and on every call
    otherwise."""
    shared = getattr(x, "shared", None)
    if shared is None:
        return compute(np.asarray(x, dtype=float))
    if key not in shared:
        value = compute(np.asarray(x, dtype=float))
        value.flags.writeable = False
        shared[key] = value
    return shared[key]


def _osc_grid(span: float, grids: Optional[dict]) -> np.ndarray:
    """65537 equispaced points of [-span, span].

    With a ``grids`` dict it is a :class:`_Nodes` array kept there, so the
    next functions read on the same span get it back and share its
    mollifier.  Each function reads its own power or sine once, so only
    the mollifier is kept from one function to the next.  ``grids`` holds
    one span at a time: a battery ordered by support computes each
    support's mollifier once and never holds two grids.
    """
    if grids is not None and span in grids:
        grid = grids[span]
        grid.shared = {k: v for k, v in grid.shared.items() if k[0] == "bump"}
        return grid
    grid = np.linspace(-span, span, 65537)
    if grids is not None:
        grid = grid.view(_Nodes)
        grid.shared = {}
        grids.clear()
        grids[span] = grid
    return grid


def _bump_pair(a: float):
    """The mollifier B(x) = exp(1 - 1/(1 - (x/a)^2)) on (-a, a) and B'.

    Both are kept on a :class:`_Nodes` array, so every function of a
    battery with support a reads one B and one B' per node array.
    """

    def bump(x: np.ndarray) -> np.ndarray:
        t2 = (x / a) ** 2
        inside = 1.0 - t2 > 1e-12
        out = np.zeros_like(x)
        g = 1.0 - t2[inside]
        out[inside] = np.exp(1.0 - 1.0 / g)
        return out

    def bump_prime(x: np.ndarray) -> np.ndarray:
        t = x / a
        g = 1.0 - t * t
        inside = g > 1e-12
        out = np.zeros_like(x)
        gi = g[inside]
        out[inside] = np.exp(1.0 - 1.0 / gi) * (-2.0 * t[inside] / (a * gi * gi))
        return out

    return (lambda x: _on_nodes(x, ("bump", a, 0), bump),
            lambda x: _on_nodes(x, ("bump", a, 1), bump_prime))


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k, kept on a :class:`_Nodes` array for both supports' f and f'."""
    return _on_nodes(x, ("pow", k), lambda y: y**k)


def default_test_functions() -> TestFunctionSet:
    """The standard battery: 22 smooth functions with analytic derivatives.

    14 polynomial-times-bump functions (degrees 0..6, support half-widths 2
    and 8), 6 bounded tanh ramps, and 2 oscillatory sine-times-bump
    functions.  All have finite oscillation; the compactly supported ones
    record their support, which bounds the grid their oscillation is read
    on, and the ramps are declared monotone, so theirs is read at the
    window's ends (see :meth:`TestFunction.osc`).  Nothing is evaluated
    here: a compact function's oscillation is computed by the first check
    that uses this battery and kept for the later ones.

    On a :class:`_Nodes` array each elementary function of x is computed
    once and read by every f and f' that needs it: each power x**k (k =
    0..6, by both supports), each mollifier B and B', each ramp's
    tanh((x - c)/s) (by its f and f') and each sin(omega x) (by its sine's
    f and f').  Every value is still formed by the function's own f or f',
    with the operations of evaluating it alone.
    """
    funcs: list[TestFunction] = []
    for a in (2.0, 8.0):
        bump, bump_p = _bump_pair(a)
        for deg in range(7):

            # The kept values are found on the nodes as passed (see
            # _on_nodes), so x is not converted before they are read.
            def f(x, _d=deg, _b=bump):
                return _power(x, _d) * _b(x)

            def fp(x, _d=deg, _b=bump, _bp=bump_p):
                b, bp = _b(x), _bp(x)
                poly_d = _d * _power(x, _d - 1) if _d > 0 else np.zeros(np.shape(x))
                return poly_d * b + _power(x, _d) * bp

            funcs.append(
                TestFunction(name=f"poly{deg}_bump{a:g}", f=f, fprime=fp, support=a)
            )
    for c, s in ((0.0, 1.0), (0.0, 0.25), (1.0, 0.5), (-2.0, 2.0), (5.0, 3.0),
                 (0.0, 4.0)):

        def f(x, _c=c, _s=s):
            return _on_nodes(x, ("tanh", _c, _s), lambda y: np.tanh((y - _c) / _s))

        def fp(x, _f=f, _s=s):
            th = _f(x)
            return (1.0 - th * th) / _s

        funcs.append(TestFunction(name=f"tanh_c{c:g}_s{s:g}", f=f, fprime=fp,
                                  monotone=True))
    bump4, bump4_p = _bump_pair(4.0)
    for omega in (2.0, 5.0):

        def sin(x, _w=omega):
            return _on_nodes(x, ("sin", _w), lambda y: np.sin(_w * y))

        def f(x, _sin=sin):
            return _sin(x) * bump4(x)

        def fp(x, _w=omega, _sin=sin):
            b, bp = bump4(x), bump4_p(x)
            return _w * np.cos(_w * np.asarray(x, dtype=float)) * b + _sin(x) * bp

        funcs.append(TestFunction(name=f"sin{omega:g}_bump4", f=f, fprime=fp,
                                  support=4.0))
    return TestFunctionSet(functions=tuple(funcs))


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------


def _falsify_scale(falsify: bool) -> float:
    """The factor on a checked constant: 1e-6 in falsify mode, else 1."""
    return 1e-6 if falsify else 1.0


_SLACK = 1e-9


@dataclass(frozen=True)
class FIReport:
    """Outcome of one inequality battery.

    ``entries`` holds one dict per (function, resolution) pair with both
    sides and the margin (rhs - lhs; negative means violated).
    ``quadrature_error`` is the largest error estimate of the battery's
    integrals (see :func:`_pi_integrals`), and ``quadrature_rel_error`` the
    largest of each integral's estimate over max(1, |value|).  A finite
    test set can only falsify an inequality, never prove it; ``note``
    restates this in every report.  The scale-free rows stay with the
    report (outside :meth:`to_dict`), so :meth:`falsified` reads the
    falsify-mode report off the same integrals.
    """

    check: str
    entries: tuple[dict, ...]
    n_violations: int
    max_violation: float
    passed: bool
    falsify: bool
    quadrature_error: float
    quadrature_rel_error: float
    note: ClassVar[str] = (
        "a finite test-function battery can only falsify a for-all-f "
        "inequality, never prove it"
    )
    _rows: tuple = field(default=(), repr=False, compare=False)

    @classmethod
    def from_rows(cls, check: str, rows: Sequence[tuple], falsify: bool,
                  quadrature_error: float, quadrature_rel_error: float
                  ) -> FIReport:
        """The report over ``rows`` of (labels, lhs name, lhs, rhs as a
        function of the falsify scale); ``check`` gains a ``-falsify``
        suffix in falsify mode."""
        scale = _falsify_scale(falsify)
        entries = []
        for labels, lhs_name, lhs, rhs_at in rows:
            rhs = rhs_at(scale)
            margin = rhs + _SLACK - lhs
            entries.append({**labels, lhs_name: lhs, "rhs": rhs,
                            "margin": margin, "violated": bool(margin < 0.0)})
        n_bad = sum(e["violated"] for e in entries)
        worst = min([0.0] + [e["margin"] for e in entries])
        return cls(
            check=check + "-falsify" if falsify else check,
            entries=tuple(entries),
            n_violations=n_bad,
            max_violation=float(-worst),
            passed=(n_bad == 0),
            falsify=falsify,
            quadrature_error=quadrature_error,
            quadrature_rel_error=quadrature_rel_error,
            _rows=tuple(rows),
        )

    def falsified(self) -> FIReport:
        """This battery's falsify-mode report, without integrating again."""
        return FIReport.from_rows(self.check.removesuffix("-falsify"),
                                  self._rows, True, self.quadrature_error,
                                  self.quadrature_rel_error)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "falsify": self.falsify,
            "n_violations": self.n_violations,
            "max_violation": self.max_violation,
            "quadrature_error": self.quadrature_error,
            "quadrature_rel_error": self.quadrature_rel_error,
            "entries": list(self.entries),
            "note": self.note,
        }


_KINKS = (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0)


def _pieces(window: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[-window, window] split at the kinks strictly inside it, as arrays
    (lo, hi, sign) with one entry per piece.  A piece inside |x| <= 8 is
    [lo, hi] in x (sign 0).  The piece beyond 8 is [0, log(window / 8)] in
    s with x = 8 e^s (sign 1), and its mirror has x = -8 e^s (sign -1)."""
    edges = [-window, *(k for k in _KINKS if -window < k < window), window]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= -8.0:
            pieces.append((0.0, math.log(-a / 8.0), -1.0))
        elif a >= 8.0:
            pieces.append((0.0, math.log(b / 8.0), 1.0))
        else:
            pieces.append((a, b, 0.0))
    lo, hi, sign = np.array(pieces).T
    return lo, hi, sign


def _pi_integrals(
    spec: PotentialSpec,
    integrands: Callable[[np.ndarray], np.ndarray],
    window: float,
) -> tuple[np.ndarray, np.ndarray]:
    """E_pi[g] over [-window, window] for every row g of ``integrands(x)``,
    and the error estimate of each.

    ``integrands`` maps nodes of shape (n,) to an (m, n) array.  Each piece
    of :func:`_pieces` gets tanh-sinh nodes in its own variable, refined to
    agreement within 1e-12 max(1, |value|) (see :func:`_ts_integrals`).
    The nodes a level adds to the pieces still refining form one array, so
    pi (log Z computed once) and the integrands are evaluated once per level.
    """
    log_z = log_normalizing_constant(spec)
    lo, hi, sign = _pieces(window)

    def level_sums(t: np.ndarray, active: np.ndarray) -> np.ndarray:
        y, dy = _ts_nodes(lo[active, None], hi[active, None], t)
        finite = sign[active, None] == 0.0
        far = 8.0 * np.exp(y)
        x = np.where(finite, y, sign[active, None] * far)
        pi_dx = (np.exp(-np.asarray(spec.profile(x * x), dtype=float) - log_z)
                 * dy * np.where(finite, 1.0, far))
        rows = integrands(x.reshape(-1))
        return (rows.reshape(len(rows), *x.shape) * pi_dx).sum(axis=2)

    def describe(p: int) -> str:
        var = "x" if sign[p] == 0.0 else f"s (x = {8.0 * sign[p]:g} e^s)"
        return f"{var} in [{lo[p]:.6g}, {hi[p]:.6g}]"

    return _ts_integrals(level_sums, lo.size, 1.0, describe)


def _battery_stats(
    spec: PotentialSpec, fset: TestFunctionSet,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    var_weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[float, list[tuple[float, float]], float, float]:
    """The window holding all but 1e-13 of pi's mass, (Var_pi f,
    E_pi[weight f'^2]) per function, and the largest absolute and relative
    error estimates of the integrals, from one :func:`_pi_integrals` call
    for the whole battery.

    With a ``var_weight`` w the variance is the w-weighted one,
    inf_c E_pi[(f - c)^2 w] = E[f^2 w] - E[f w]^2 / E[w].  On each node
    array f and f' are evaluated once per function and the weights once
    per battery, and the rows f w, f (f w) and (f' f') w_grad (w = w_grad
    = 1 when not given) are written straight into one output array.  The
    functions see the nodes as a :class:`_Nodes` array, so they share each
    power, mollifier, tanh and sine they have in common (see
    :func:`default_test_functions`); nothing is kept past the node array.
    """
    window = _tail_quantile(spec, 1e-13)
    first = 0 if var_weight is None else 1

    def integrands(x: np.ndarray) -> np.ndarray:
        x = x.view(_Nodes)
        x.shared = {}
        out = np.empty((first + 3 * len(fset), x.size))
        if var_weight is not None:
            out[0] = var_weight(x)
        w = 1.0 if var_weight is None else out[0]
        w_grad = 1.0 if weight is None else weight(x)
        for i, tf in enumerate(fset):
            fw, ffw, gg = out[first + 3 * i:first + 3 * i + 3]
            f = tf.f(x)
            np.multiply(f, w, out=fw)
            np.multiply(f, fw, out=ffw)
            fp = tf.fprime(x)
            np.multiply(fp, fp, out=gg)
            np.multiply(gg, w_grad, out=gg)
        return out

    vals, errors = _pi_integrals(spec, integrands, window)
    error = float(errors.max())
    rel_error = float((errors / np.maximum(1.0, np.abs(vals))).max())
    mass = 1.0 if var_weight is None else float(vals[0])
    moments = vals[0 if var_weight is None else 1:].reshape(len(fset), 3)
    stats = [(max(float(second) - float(mean) ** 2 / mass, 0.0), float(grad2))
             for mean, second, grad2 in moments]
    return window, stats, error, rel_error


def wpi_check(
    spec: PotentialSpec,
    beta: Callable[[float], float],
    fset: TestFunctionSet,
    r_grid: Sequence[float],
    falsify: bool = False,
) -> FIReport:
    """Check Var_pi(f) <= beta(r) E_pi[f'^2] + r Osc(f)^2 for all (f, r).

    Osc(f) is read by :meth:`TestFunction.osc`: on f's support when it has
    one, computed once per battery and kept on the function (the functions
    of one support read one grid, so they share its values); at the
    integration window's two ends when f is monotone; else on the window,
    on every call.  ``falsify=True`` divides the weighting by 1e6, which
    must produce violations on a sound battery (it demonstrates the
    checker has power).
    """
    if spec.d != 1:
        raise InputValidationError("inequality checks are 1-dimensional")
    r_grid = [float(r) for r in r_grid]
    if not r_grid or not all(0.0 < r < math.inf for r in r_grid):
        raise InputValidationError(
            "r_grid must be non-empty with finite positive entries")
    betas = [beta(r) for r in r_grid]
    window, stats, error, rel_error = _battery_stats(spec, fset)
    rows, grids = [], {}
    for tf, (var, grad2) in zip(fset, stats):
        osc = tf.osc(window, _grids=grids)
        for r, beta_r in zip(r_grid, betas):  # defaults bind this row's values
            rows.append((
                {"function": tf.name, "r": r}, "lhs_var", var,
                lambda scale, b=beta_r, g=grad2, r=r, o=osc:
                    scale * b * g + r * o ** 2,
            ))
    return FIReport.from_rows("wpi", rows, falsify, error, rel_error)


def converse_pi_check(
    spec: PotentialSpec, fset: TestFunctionSet, falsify: bool = False
) -> FIReport:
    """Check inf_c int (f-c)^2 w dpi <= C int f'^2 dpi, w(x) = 1/(1+x^2).

    The constant is 1/(d+nu) when nu >= d+2 and 2/nu otherwise.  The inf
    over c is the w-weighted mean, solved exactly.
    """
    if not isinstance(spec, GenCauchy) or spec.d != 1:
        raise InputValidationError(
            "the converse inequality check targets 1D log-tailed families"
        )
    nu, d = spec.nu, spec.d
    c_const = 1.0 / (d + nu) if nu >= d + 2 else 2.0 / nu
    w = lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2)
    _, stats, error, rel_error = _battery_stats(spec, fset, var_weight=w)
    rows = [({"function": tf.name}, "lhs_weighted_var", var,
             lambda scale, g=grad2: scale * c_const * g)
            for tf, (var, grad2) in zip(fset, stats)]
    return FIReport.from_rows("converse-pi", rows, falsify, error, rel_error)


def weighted_pi_check(
    spec: PotentialSpec, fset: TestFunctionSet, falsify: bool = False
) -> FIReport:
    """Check Var_pi(f) <= e C_{d,alpha} int |x|^{2(1-alpha)} f'^2 dpi.

    C_{d,alpha} = 12 d / alpha^3 + (d + alpha) / alpha^4 (upper estimate).
    """
    if not isinstance(spec, Sublinear) or spec.d != 1:
        raise InputValidationError(
            "the weighted inequality check targets 1D subexponential families"
        )
    alpha, d = spec.alpha, spec.d
    if not (0.0 < alpha < 1.0):
        raise InputValidationError(
            f"the weighted inequality needs alpha in (0, 1), got {alpha}"
        )
    c_const = _c_d_alpha(d, alpha)
    expo = 2.0 * (1.0 - alpha)
    weight = lambda x: np.abs(np.asarray(x, dtype=float)) ** expo
    _, stats, error, rel_error = _battery_stats(spec, fset, weight=weight)
    rows = [({"function": tf.name}, "lhs_var", var,
             lambda scale, g=grad2: scale * math.e * c_const * g)
            for tf, (var, grad2) in zip(fset, stats)]
    return FIReport.from_rows("weighted-pi", rows, falsify, error, rel_error)


# ---------------------------------------------------------------------------
# Fokker-Planck evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FPTrajectory:
    """Recorded Fokker-Planck evolution on a fixed grid."""

    times: np.ndarray
    densities: tuple[DensityGrid, ...]
    dt: float

    def __len__(self) -> int:
        return len(self.densities)


def fokker_planck_evolve_1d(
    spec: PotentialSpec,
    rho0: DensityGrid,
    t_final: float,
    dt: float,
    record_every: Optional[int] = None,
) -> FPTrajectory:
    """Evolve rho0 under the overdamped Langevin Fokker-Planck flow to t_final.

    Conservative explicit finite-volume scheme in u = rho/pi with
    geometric-mean face weights and zero-flux boundaries.  The stability
    bound dt * max_i coef_i <= 0.9 is enforced up front (the error message
    suggests a valid dt).  Mass is conserved to roundoff at every step and
    the target itself is exactly stationary.  Every recorded frame carries
    the grid target, computed once here.
    """
    if not (0.0 < t_final < math.inf):
        raise InputValidationError(f"t_final must be finite positive, got {t_final}")
    if not (dt > 0.0):
        raise InputValidationError(f"dt must be positive, got {dt}")
    if record_every is not None:
        record_every = _json_int(record_every, "record_every")
        if record_every < 1:
            raise InputValidationError(
                f"record_every must be >= 1, got {record_every}"
            )
    if not math.isfinite(t_final / dt):
        raise InputValidationError(
            f"t_final / dt = {t_final} / {dt} is not a finite step count"
        )
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    if record_every is None:
        record_every = max(1, n_steps // 200)
    pi_vals = pi_on_grid(spec, rho0)
    if np.any(pi_vals <= 0.0):
        raise NumericsError("target density underflowed on the grid")
    pi_vals.flags.writeable = False
    carried = (spec, pi_vals)
    nodes, widths = rho0.nodes, rho0.widths
    delta = np.diff(nodes)
    pi_face = np.sqrt(pi_vals[:-1] * pi_vals[1:])
    cond = pi_face / delta
    # Explicit-Euler stability: the update coefficient on cell i is
    # (cond_{i-1/2} + cond_{i+1/2}) / (w_i pi_i); require dt * coef <= 0.9.
    coef = np.zeros_like(nodes)
    coef[:-1] += cond
    coef[1:] += cond
    coef /= widths * pi_vals
    dt_max = 0.9 / float(coef.max())
    if dt > dt_max:
        raise InputValidationError(
            f"dt = {dt} violates the explicit-scheme stability bound; "
            f"use dt <= {dt_max:.6g}"
        )

    def frame(values: np.ndarray) -> DensityGrid:
        return DensityGrid(nodes=nodes, widths=widths, values=values,
                           _pi=carried)

    # Each step is seven ufunc calls into preallocated buffers: rho +
    # dt * div / widths, with div = diff(padded) and the face fluxes
    # cond * diff(rho / pi) in the interior of one zero-ended buffer;
    # folding dt / widths or cond / widths into one factor would change the
    # rounding.  A scatter into zeros gives div_i = (0.0 + f_i) - f_{i-1},
    # this f_i - f_{i-1}: the two differ only in the sign of a zero, and
    # rho + (+-0) / w is the same rho, because rho never holds -0.0 (it
    # starts from exp, and x + (-x) rounds to +0.0).  The ufuncs are bound
    # once, dt is a float64 array (the same product as the Python float,
    # without its per-call conversion), and each record interval runs as
    # one inner loop with no per-step test: about 6.0 us per step on 1280
    # cells and 11.5 us on 2560 (2 vCPUs, numpy 2.4).
    divide, subtract = np.divide, np.subtract
    multiply, add = np.multiply, np.add
    dt_op = np.array(dt)
    rho = rho0.values.copy()
    u, div = np.empty_like(rho), np.empty_like(rho)
    padded = np.zeros(rho.size + 1)
    flux, u_lo, u_hi = padded[1:-1], u[:-1], u[1:]
    pad_lo, pad_hi = padded[:-1], padded[1:]
    times = [0.0]
    frames = [frame(rho.copy())]
    for start in range(0, n_steps, record_every):
        stop = min(start + record_every, n_steps)
        for _ in range(start, stop):
            divide(rho, pi_vals, u)
            subtract(u_hi, u_lo, flux)
            multiply(cond, flux, flux)
            subtract(pad_hi, pad_lo, div)
            multiply(dt_op, div, div)
            divide(div, widths, div)
            add(rho, div, rho)
        np.clip(rho, 0.0, None, out=rho)
        times.append(stop * dt)
        frames.append(frame(rho.copy()))
    return FPTrajectory(times=np.asarray(times), densities=tuple(frames), dt=dt)


def _require_order(q: float) -> None:
    if not (1.0 < q < math.inf):
        raise InputValidationError(f"q must be finite and exceed 1, got {q}")


def fq_gq(rho: DensityGrid, spec: PotentialSpec, q: float) -> tuple[float, float]:
    """Moment and dissipation functionals of the density ratio on the grid.

    F_q = E_pi[(rho/pi)^q]; G_q = (4/q^2) E_pi |grad (rho/pi)^{q/2}|^2 with
    the gradient taken between adjacent cells.  Returns (inf, inf) if rho
    puts mass where the grid target has underflowed to zero.
    """
    _require_order(q)
    pi_vals = pi_on_grid(spec, rho)
    bad = (pi_vals < 1e-300) & (rho.values > 0.0)
    if np.any(bad):
        return math.inf, math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(pi_vals > 0.0, rho.values / pi_vals, 0.0)
    f_q = float((pi_vals * u**q) @ rho.widths)
    v = u ** (0.5 * q)
    delta = np.diff(rho.nodes)
    pi_face = np.sqrt(pi_vals[:-1] * pi_vals[1:])
    g_q = (4.0 / q**2) * float(pi_face @ (np.diff(v) ** 2 / delta))
    return f_q, g_q


def _renyi_from_fq(f_q: float, q: float) -> float:
    """R_q = ln(F_q) / (q - 1); inf when F_q is infinite or not positive."""
    return math.log(f_q) / (q - 1.0) if math.isfinite(f_q) and f_q > 0.0 \
        else math.inf


def renyi_quadrature(rho: DensityGrid, spec: PotentialSpec, q: float) -> float:
    """Order-q Renyi divergence of the grid density from the target."""
    return _renyi_from_fq(fq_gq(rho, spec, q)[0], q)


def grid_r_inf(rho: DensityGrid, spec: PotentialSpec) -> float:
    """Sup over cells of ln(rho/pi): the grid sup-log-ratio divergence."""
    pi_vals = pi_on_grid(spec, rho)
    pos = rho.values > 0.0
    if np.any(pos & (pi_vals < 1e-300)):
        return math.inf
    with np.errstate(divide="ignore"):
        ratios = np.log(rho.values[pos]) - np.log(pi_vals[pos])
    return float(ratios.max())


def _fp_row(t: float, frame: DensityGrid, spec: PotentialSpec, q: float
            ) -> tuple[float, ...]:
    """One record of a trajectory: t, R_q, F_q, G_q, mass, m2."""
    f_q, g_q = fq_gq(frame, spec, q)
    return float(t), _renyi_from_fq(f_q, q), f_q, g_q, frame.mass, frame.m2


def write_fp_csv(
    path: str, traj: FPTrajectory, spec: PotentialSpec, q: float
) -> None:
    """Export a trajectory as CSV rows t, R_q, F_q, G_q, mass, m2.

    Every row is computed before the file is opened, so a rejected ``q``
    writes nothing.
    """
    rows = [[f"{v:.12g}" for v in _fp_row(t, frame, spec, q)]
            for t, frame in zip(traj.times, traj.densities)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "R_q", "F_q", "G_q", "mass", "m2"])
        writer.writerows(rows)
