"""Command-line entry point: configuration loading, the phase-transition
experiment pipeline, bound calculators, inequality verifiers, and CSV/SVG
emission.

Commands
--------
sample            run LMC chains, write ``trace_sigma2_*.csv`` + diagnostics
bounds            evaluate one named bound, print its report as JSON
phase-transition  sweep initialization variance per family, write phase.csv/svg
verify            run a functional-inequality suite (wpi/converse/weighted/fp)
fp-evolve         evolve a density under the 1D Fokker-Planck flow, write CSV

Configuration comes from ``--config`` (JSON) with every field overridable by
a flag.  ``HEAVYTAIL_THREADS`` caps worker threads for multi-leg runs.  Exit
codes: 0 success, 1 violation or runtime failure, 2 usage/validation error.
Reruns with the same seed and config emit byte-identical CSV (the SVG embeds
no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    _MODIFIED_TARGET_WIDTH,
    BoundQuery,
    BoundReport,
    beta_for_spec,
    beta_wpi_cauchy_report,
    beta_wpi_sublinear_report,
    delta0_threshold,
    diffusion_time_bound,
    disc_step_size,
    init_divergence_bound,
    lmc_iteration_bound,
    lower_bound_complexity,
    step_size_upper_bound,
    warm_start_divergence_bound,
)
from .diagnostics import (
    diagnostic_report,
    iterations_to_threshold,
    sigma2_eps,
)
from .fi_verify import (
    _falsify_scale,
    converse_pi_check,
    default_test_functions,
    fokker_planck_evolve_1d,
    fq_gq,
    gaussian_on_grid,
    make_grid,
    weighted_pi_check,
    wpi_check,
    write_fp_csv,
)
from .sampler import _usable_cores, gaussian_init, run_chains, write_trace_csv
from .targets import (
    FAMILY_TAGS,
    Gaussian,
    GenCauchy,
    GrowthParams,
    HeavyTailError,
    InputValidationError,
    MomentUndefinedError,
    PotentialSpec,
    Sublinear,
    UnsupportedFamilyError,
    _json_float,
    _json_int,
    growth_params,
    modified_target_m,
    normalizing_constant,
    radial_moment,
    spec_from_json,
    spec_to_json,
)

__all__ = [
    "ExperimentConfig",
    "config_from_json",
    "coupling_delta0",
    "lower_bound_threshold",
    "lower_bound_gate",
    "phase_threshold",
    "assemble_upper_bound",
    "main",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a target, a query order, and a sweep of starts."""

    spec: PotentialSpec
    q: float = 2.0
    q_prime: float = math.inf
    eps: float = 1.0
    sigma2_list: tuple[float, ...] = (4.0, 16.0, 64.0, 256.0, 1024.0)
    h: float = 1e-2
    n_chains: int = 10_000
    n_iters: int = 10_000
    record_every: int = 10
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self) -> None:
        sig = tuple(float(s) for s in self.sigma2_list)
        object.__setattr__(self, "sigma2_list", sig)
        if not sig:
            raise InputValidationError("sigma2_list must be non-empty")
        if any(s <= 0 or not math.isfinite(s) for s in sig):
            raise InputValidationError("sigma2_list entries must be positive reals")
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise InputValidationError("sigma2_list must be strictly increasing")
        for name in ("n_chains", "n_iters", "record_every"):
            if getattr(self, name) < 1:
                raise InputValidationError(f"{name} must be >= 1")
        if not (self.q > 1.0):
            raise InputValidationError(f"q must exceed 1, got {self.q}")
        if not (self.q_prime > self.q):
            raise InputValidationError(
                f"q_prime must exceed q, got q_prime={self.q_prime} q={self.q}"
            )
        if not (0.0 < self.eps):
            raise InputValidationError(f"eps must be positive, got {self.eps}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise InputValidationError(f"h must be a positive real, got {self.h}")

    def to_json(self) -> dict:
        out = {
            "spec": spec_to_json(self.spec),
            "q": self.q,
            "q_prime": "inf" if math.isinf(self.q_prime) else self.q_prime,
            "eps": self.eps,
            "sigma2_list": list(self.sigma2_list),
            "h": self.h,
            "n_chains": self.n_chains,
            "n_iters": self.n_iters,
            "record_every": self.record_every,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        return out


def _json_q_prime(value, name: str) -> float:
    """The JSON ``q_prime`` field: ``"inf"`` or null mean infinity."""
    return math.inf if value in ("inf", None) else _json_float(value, name)


def config_from_json(obj: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON object (strict about field names)."""
    if not isinstance(obj, dict):
        raise InputValidationError("config JSON must be an object")
    data = dict(obj)
    if "spec" not in data:
        raise InputValidationError("config JSON missing required field 'spec'")
    spec = spec_from_json(data.pop("spec"))
    kwargs = {}
    if "output_dir" in data:
        kwargs["output_dir"] = str(data.pop("output_dir"))
    for name in ("q", "eps", "h"):
        if name in data:
            kwargs[name] = _json_float(data.pop(name), name)
    for name in ("n_chains", "n_iters", "record_every", "seed"):
        if name in data:
            kwargs[name] = _json_int(data.pop(name), name)
    if "q_prime" in data:
        kwargs["q_prime"] = _json_q_prime(data.pop("q_prime"), "q_prime")
    if "sigma2_list" in data:
        raw = data.pop("sigma2_list")
        if not isinstance(raw, (list, tuple)):
            raise InputValidationError(
                f"sigma2_list must be a list of numbers, got {raw!r}")
        kwargs["sigma2_list"] = tuple(_json_float(s, "sigma2_list") for s in raw)
    if data:
        raise InputValidationError(
            f"unknown config fields: {sorted(data)}"
        )
    return ExperimentConfig(spec=spec, **kwargs)


def _threads(n_tasks: int) -> int:
    """Worker threads for ``n_tasks`` legs: ``HEAVYTAIL_THREADS`` if set,
    else the usable cores, capped by the leg count."""
    raw = os.environ.get("HEAVYTAIL_THREADS", "")
    try:
        cap = int(raw) if raw else _usable_cores()
    except ValueError:
        raise InputValidationError(
            f"HEAVYTAIL_THREADS must be an integer, got {raw!r}"
        ) from None
    return max(1, min(cap, n_tasks))


# ---------------------------------------------------------------------------
# Spec construction from flags
# ---------------------------------------------------------------------------


def _spec_from_args(args: argparse.Namespace) -> PotentialSpec:
    """The spec the family flags name, parsed as :func:`spec_from_json`
    parses it (flags left unset are absent)."""
    return spec_from_json({
        "family": args.family, "d": args.d, "nu": args.nu,
        "alpha": args.alpha, "lambda": args.lam,
    })


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=list(FAMILY_TAGS))
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lam", type=float, default=1.0)


# ---------------------------------------------------------------------------
# Phase-transition pipeline
# ---------------------------------------------------------------------------


def coupling_delta0(spec: PotentialSpec, sigma2: float) -> float:
    """The initial-divergence scale the lower-bound theorems couple to sigma2.

    * log tails:        nu * ln(sigma2)
    * subexponential:   (b sigma2)^{alpha/(2-alpha)} / alpha
    * square (PI) case: b d sigma2 / 2
    """
    return spec.coupling_delta0(sigma2)


def lower_bound_threshold(spec: PotentialSpec, q: float, c: float = 1.0
                          ) -> BoundReport:
    """:func:`delta0_threshold` for a target at divergence order q.

    The ingredients are the normalizing constant, the order-2q/(q-1) radial
    moment, and the potential's value at the origin (1 for the
    subexponential family, 0 otherwise).  Raises
    :class:`MomentUndefinedError` when that moment diverges (log tails with
    nu <= 2q/(q-1)).
    """
    z = normalizing_constant(spec)
    pm = radial_moment(spec, 2.0 * q / (q - 1.0))
    v0 = float(spec.profile(0.0))
    return delta0_threshold(growth_params(spec), spec.d, q, z, pm, v0=v0, c=c)


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


def assemble_upper_bound(
    spec: PotentialSpec,
    q: float,
    q_prime: float,
    eps: float,
    sigma2: float,
) -> BoundReport:
    """Compose the LMC iteration upper bound from its ingredient bounds.

    The initialization divergences of every needed order are dominated by
    the sup-log-ratio bound; the order-2 divergence from the modified
    target comes from the dedicated calculator (unit horizon).
    """
    rinf = init_divergence_bound(spec, sigma2, kind="Rinf").value
    r2_hat = init_divergence_bound(spec, sigma2, kind="R2_hat", T=1.0).value
    query = BoundQuery(
        q=q,
        q_prime=q_prime,
        eps=eps,
        spec=spec,
        sigma2=sigma2,
        r_init={"2q-1": rinf, "qprime": rinf, "r2_hat": r2_hat},
    )
    beta = beta_for_spec(spec)
    m = modified_target_m(spec)
    return lmc_iteration_bound(query, beta, m)


_PHASE_HEADER = [
    "family", "alpha", "nu", "d", "h", "sigma2", "delta0_bound",
    "iters_measured", "iters_lower_bound", "iters_upper_bound",
]


def _phase_leg(
    spec: PotentialSpec, config: ExperimentConfig, sigma2: float, leg_seed: int,
    gate: dict,
) -> dict:
    """Run one (family, sigma2) leg and assemble its CSV row values.

    ``gate`` is the family's :func:`lower_bound_gate` at ``config.q``: a
    delta0 below its threshold makes the lower bound infeasible, and an
    unchecked gate (threshold None) leaves it ungated.  A start the upper
    bound's hypotheses exclude gets ``inf`` with the reason in the meta; an
    infeasible upper report (e.g. eps > 1/q) gets ``nan``, as an infeasible
    lower one does, with its reason in the meta.
    """
    g = growth_params(spec)
    threshold, thr_kind = phase_threshold(spec, config.q, config.eps, sigma2)
    init = gaussian_init(sigma2, spec.d, config.n_chains, config.h, seed=leg_seed)
    t0 = time.perf_counter()
    trace = run_chains(
        spec, init, config.n_iters, record_every=config.record_every,
        stop_below=threshold,
    )
    wall_s = time.perf_counter() - t0
    steps_run = int(trace.iters[-1])
    measured = iterations_to_threshold(trace, threshold)
    delta0 = coupling_delta0(spec, sigma2)
    lower = lower_bound_complexity(
        g, spec.d, delta0, h=config.h, nu=spec.tail_index,
        threshold=gate["delta0_threshold"],
    )
    if not spec.has_iteration_bound:
        # The iteration theorem's smoothness/growth regime covers the
        # subexponential family; the other rows carry no finite upper bound.
        upper_val, upper_reason = (
            math.inf, "outside the iteration theorem's growth regime")
    else:
        try:
            upper = assemble_upper_bound(
                spec, config.q, config.q_prime, config.eps, sigma2
            )
            upper_val, upper_reason = (
                upper.value if upper.feasible else math.nan, upper.infeasibility)
        except InputValidationError as exc:
            # A wide start outgrows the modified-target comparison (R2_hat,
            # unit horizon) and so establishes no upper bound, as a delta0
            # below the threshold establishes no lower bound.  Every other
            # input error still aborts the sweep.
            if not sigma2 > _MODIFIED_TARGET_WIDTH:
                raise
            upper_val, upper_reason = math.inf, str(exc)
    return {
        "family": spec.tag,
        "alpha": g.alpha,
        "nu": spec.tail_index,
        "d": spec.d,
        "h": config.h,
        "sigma2": sigma2,
        "delta0_bound": delta0,
        "iters_measured": measured,
        # an infeasible report (e.g. delta0 below the validity threshold)
        # establishes no bound; its value stays in the meta file
        "iters_lower_bound": lower.value if lower.feasible else math.nan,
        "iters_upper_bound": upper_val,
        "_meta": {
            "threshold": threshold,
            "threshold_kind": thr_kind,
            "leg_seed": leg_seed,
            "stopped_early": trace.stopped_early,
            # run telemetry: meta only, so phase.csv and phase.svg stay
            # byte-identical across reruns and thread counts
            "steps_run": steps_run,
            "stop_reason": "threshold" if trace.stopped_early else "n_iters",
            "wall_s": wall_s,
            "chain_steps_per_s": config.n_chains * steps_run / wall_s,
            "lower_value": lower.value,
            "lower_feasible": lower.feasible,
            "lower_infeasibility": lower.infeasibility,
            **gate,
            "upper": {"feasible": upper_reason is None,
                      "infeasibility": upper_reason},
        },
    }


def _fmt_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _phase_families(config: ExperimentConfig, only: Optional[Sequence[str]]
                    ) -> list[PotentialSpec]:
    """The family sweep at the config's dimension.

    Each registered family at its ``sweep_params`` (square-exponential,
    subexponential alpha = 1/2, and log-tailed nu = 2); the config's own spec
    overrides the matching slot's parameters.
    """
    d = config.spec.d
    trio = {tag: cls(d=d, **cls.sweep_params) for tag, cls in FAMILY_TAGS.items()}
    trio[spec_to_json(config.spec)["family"]] = config.spec
    names = list(only) if only else list(trio)
    unknown = [n for n in names if n not in trio]
    if unknown:
        raise InputValidationError(f"unknown families: {unknown}")
    return [trio[n] for n in names]


def cmd_phase_transition(config: ExperimentConfig,
                         families: Optional[Sequence[str]] = None) -> int:
    """Sweep sigma2 per family; emit phase.csv, phase.svg, phase_meta.json.

    Each finished leg prints one stderr line, in CSV row order, with its
    telemetry from phase_meta.json.
    """
    specs = _phase_families(config, families)
    # once per family: the threshold's quadrature costs as much as a short leg
    gates = [lower_bound_gate(spec, config.q) for spec in specs]
    legs = [
        (spec, sigma2, config.seed + 7919 * fi + 104729 * si, gate)
        for fi, (spec, gate) in enumerate(zip(specs, gates))
        for si, sigma2 in enumerate(config.sigma2_list)
    ]
    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, "phase.csv")
    rows: list[dict] = []
    failure: Optional[BaseException] = None
    with ThreadPoolExecutor(max_workers=_threads(len(legs))) as pool:
        futures = [
            pool.submit(_phase_leg, spec, config, sigma2, leg_seed, gate)
            for spec, sigma2, leg_seed, gate in legs
        ]
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_PHASE_HEADER)
            fh.flush()
            for fut in futures:  # deterministic order; partial CSV on error
                try:
                    row = fut.result()
                except HeavyTailError as exc:
                    failure = exc
                    break
                rows.append(row)
                writer.writerow([_fmt_cell(row[k]) for k in _PHASE_HEADER])
                fh.flush()
                meta = row["_meta"]
                print(f"leg {len(rows)}/{len(legs)} {row['family']} "
                      f"sigma2={row['sigma2']:g} "
                      f"steps_run={meta['steps_run']} "
                      f"stop_reason={meta['stop_reason']} "
                      f"wall_s={meta['wall_s']:.2f}",
                      file=sys.stderr, flush=True)
    if failure is not None:
        print(f"phase-transition leg failed: {failure}", file=sys.stderr)
        print(f"partial results flushed to {csv_path}", file=sys.stderr)
        return 1
    svg_path = os.path.join(config.output_dir, "phase.svg")
    with open(svg_path, "w") as fh:
        fh.write(_phase_svg(rows))
    meta_path = os.path.join(config.output_dir, "phase_meta.json")
    with open(meta_path, "w") as fh:
        json.dump(
            {
                "config": config.to_json(),
                "legs": [
                    {k: (None if isinstance(v, float) and math.isnan(v) else v)
                     for k, v in row["_meta"].items()}
                    for row in rows
                ],
            },
            fh, indent=2, sort_keys=True, default=_json_default,
        )
        fh.write("\n")
    print(csv_path)
    print(svg_path)
    return 0


def _json_default(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v).__name__}")


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_SVG_COLORS = {
    "gaussian": "#1f77b4",
    "sublinear": "#2ca02c",
    "gen_cauchy": "#d62728",
}

_SVG_W, _SVG_H = 640, 440
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 20, 50


def _phase_svg(rows: list[dict]) -> str:
    """Minimal deterministic log-log plot: iterations against divergence."""
    pts_by_family: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        x, y = row["delta0_bound"], row["iters_measured"]
        if y is None or not (isinstance(y, (int, float)) and y > 0):
            continue
        if not (x > 0 and math.isfinite(x)):
            continue
        pts_by_family.setdefault(row["family"], []).append(
            (math.log10(x), math.log10(float(y)))
        )
    all_pts = [p for pts in pts_by_family.values() for p in pts]
    if all_pts:
        xs, ys = zip(*all_pts)
        x_lo, x_hi = math.floor(min(xs)), math.ceil(max(xs) + 1e-9)
        y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys) + 1e-9)
    else:
        x_lo, x_hi, y_lo, y_hi = 0, 1, 0, 1
    x_hi = max(x_hi, x_lo + 1)
    y_hi = max(y_hi, y_lo + 1)
    plot_w = _SVG_W - _SVG_ML - _SVG_MR
    plot_h = _SVG_H - _SVG_MT - _SVG_MB

    def sx(lx: float) -> float:
        return _SVG_ML + plot_w * (lx - x_lo) / (x_hi - x_lo)

    def sy(ly: float) -> float:
        return _SVG_MT + plot_h * (1.0 - (ly - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_SVG_ML}" y1="{_SVG_MT + plot_h}" x2="{_SVG_ML + plot_w}" '
        f'y2="{_SVG_MT + plot_h}" stroke="black"/>',
        f'<line x1="{_SVG_ML}" y1="{_SVG_MT}" x2="{_SVG_ML}" '
        f'y2="{_SVG_MT + plot_h}" stroke="black"/>',
    ]
    for dec in range(x_lo, x_hi + 1):
        x = sx(dec)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_SVG_MT + plot_h}" x2="{x:.2f}" '
            f'y2="{_SVG_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_SVG_MT + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">1e{dec}</text>'
        )
    for dec in range(y_lo, y_hi + 1):
        y = sy(dec)
        parts.append(
            f'<line x1="{_SVG_ML - 5}" y1="{y:.2f}" x2="{_SVG_ML}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_SVG_ML - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">1e{dec}</text>'
        )
    parts.append(
        f'<text x="{_SVG_ML + plot_w / 2:.2f}" y="{_SVG_H - 10}" '
        f'font-size="13" text-anchor="middle">initial divergence bound</text>'
    )
    parts.append(
        f'<text x="18" y="{_SVG_MT + plot_h / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{_SVG_MT + plot_h / 2:.2f})">iterations to threshold</text>'
    )
    legend_y = _SVG_MT + 12
    for family in sorted(pts_by_family):
        pts = sorted(pts_by_family[family])
        color = _SVG_COLORS.get(family, "#444444")
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        for px, py in pts:
            parts.append(
                f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_SVG_ML + plot_w - 6}" y="{legend_y}" font-size="12" '
            f'text-anchor="end" fill="{color}">{family}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# sample / fp-evolve
# ---------------------------------------------------------------------------


def cmd_sample(config: ExperimentConfig) -> int:
    """Run chains for each start variance; write trace CSV + diagnostics."""
    os.makedirs(config.output_dir, exist_ok=True)
    for si, sigma2 in enumerate(config.sigma2_list):
        seed = config.seed + 104729 * si
        init = gaussian_init(sigma2, config.spec.d, config.n_chains, config.h,
                             seed=seed)
        trace = run_chains(config.spec, init, config.n_iters,
                           record_every=config.record_every)
        threshold, thr_kind = phase_threshold(
            config.spec, config.q, config.eps, sigma2
        )
        tag = f"{sigma2:g}"
        trace_path = os.path.join(config.output_dir, f"trace_sigma2_{tag}.csv")
        write_trace_csv(trace, trace_path)
        report = diagnostic_report(trace, config.spec, config.q, threshold)
        report["threshold_kind"] = thr_kind
        report["sigma2"] = sigma2
        report["seed"] = seed
        diag_path = os.path.join(config.output_dir, f"diagnostics_sigma2_{tag}.json")
        with open(diag_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        print(trace_path)
        print(diag_path)
    return 0


def cmd_fp_evolve(args: argparse.Namespace) -> int:
    """Evolve N(0, sigma2) under the 1D flow; write the trajectory CSV."""
    spec = _spec_from_args(args)
    grid = make_grid(
        spec,
        n_core=args.n_core,
        n_tail=args.n_tail,
        core_halfwidth=args.core_halfwidth,
    )
    rho0 = gaussian_on_grid(grid, args.sigma2)
    traj = fokker_planck_evolve_1d(
        spec, rho0, t_final=args.t_final, dt=args.dt,
        record_every=args.fp_record_every,
    )
    os.makedirs(args.output_dir, exist_ok=True)
    out = os.path.join(args.output_dir, "fp.csv")
    write_fp_csv(out, traj, spec, args.q)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _lower_bound_from_flags(p: argparse.Namespace) -> BoundReport:
    if p.b is not None:
        b = p.b
    elif p.alpha == 0.0 and p.nu is not None:
        b = p.d + p.nu
    else:
        raise InputValidationError(
            "--b is required (or --nu for the alpha = 0 regime)"
        )
    growth = GrowthParams(b=b, alpha=p.alpha)
    return lower_bound_complexity(
        growth, p.d, p.delta0, h=p.h, nu=p.nu, threshold=p.threshold, c=p.c
    )


def _diffusion_time_from_flags(p: argparse.Namespace) -> BoundReport:
    spec = _spec_from_args(p)
    # the order-inf start divergence dominates every order
    r0 = spec.start_renyi(math.inf, p.sigma2)[0]
    query = BoundQuery(
        q=p.q, q_prime=p.q_prime, eps=p.eps, spec=spec, sigma2=p.sigma2,
        r_init={"q": r0, "qprime": r0},
    )
    return diffusion_time_bound(query, beta_for_spec(spec))


#: ``bounds --thm`` selector -> (flags it requires, its calculator on the flags)
_BOUNDS = {
    "beta-cauchy": (("nu", "r"),
                    lambda p: beta_wpi_cauchy_report(p.nu, p.d, p.r)),
    "beta-sublinear": (("alpha", "r"), lambda p: beta_wpi_sublinear_report(
        p.alpha, p.d, p.r, gamma=p.gamma)),
    "lower": (("alpha", "delta0"), _lower_bound_from_flags),
    "delta0-threshold": ((), lambda p: lower_bound_threshold(
        _spec_from_args(p), p.q, c=p.c)),
    "h-max": ((), lambda p: step_size_upper_bound(
        _spec_from_args(p), p.q, p.eps)),
    "init": (("sigma2",), lambda p: init_divergence_bound(
        _spec_from_args(p), p.sigma2, kind=p.kind, T=p.T)),
    "warm-start": ((), lambda p: warm_start_divergence_bound(
        _spec_from_args(p), T=p.T, target=p.target)),
    "diffusion-time": (("sigma2",), _diffusion_time_from_flags),
    "lmc-iters": (("sigma2",), lambda p: assemble_upper_bound(
        _spec_from_args(p), p.q, p.q_prime, p.eps, p.sigma2)),
    "disc-h": (("s", "L", "T", "m", "r2_hat"), lambda p: disc_step_size(
        p.s, p.L, p.d, p.q, p.eps, p.T, p.m, p.r2_hat, p.n_guess)),
}


def _dispatch_bounds(thm: str, p: argparse.Namespace) -> BoundReport:
    if not isinstance(thm, str) or thm not in _BOUNDS:
        raise InputValidationError(f"unknown theorem selector {thm!r}")
    required, calculator = _BOUNDS[thm]
    _need(p, *required)
    return calculator(p)


def _need(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise InputValidationError(
            f"missing required flags for this theorem: "
            + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


def _bounds_json_fields() -> dict:
    """``bounds --json`` field -> converter, read off the ``bounds`` flags.

    Every flag but ``--thm`` and ``--json`` is a field; its converter follows
    the flag's argparse type, and a string field (None) passes as given, to
    be validated where it is used.
    """
    converters = {float: _json_float, int: _json_int,
                  _parse_qprime: _json_q_prime}
    parser = argparse.ArgumentParser(add_help=False)
    _add_bounds_flags(parser)
    return {action.dest: converters.get(action.type)
            for action in parser._actions
            if action.dest not in ("thm", "json")}


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.json is not None:
        try:
            payload = json.loads(args.json)
        except json.JSONDecodeError as exc:
            print(f"malformed JSON query: {exc}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict) or "thm" not in payload:
            print("JSON query must be an object with a 'thm' field",
                  file=sys.stderr)
            return 2
        thm = payload.pop("thm")
        fields = _bounds_json_fields()
        for key, val in payload.items():
            if key not in fields:
                print(f"unknown query field {key!r}", file=sys.stderr)
                return 2
            convert = fields[key]
            setattr(args, key, val if convert is None else convert(val, key))
    else:
        thm = args.thm
    if thm is None:
        print("either --thm or --json is required", file=sys.stderr)
        return 2
    report = _dispatch_bounds(thm, args)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _fp_suite() -> tuple[dict, dict]:
    """Flow-solver checks on the canonical log-tail decay experiment, as the
    clean and the falsify report, from one evolution of each flow.

    Mass conservation, monotone order-2 divergence, the decay-rate identity
    (compared at every interior record), and the moment ODE of a square
    target.  The falsification mode scales the identity's constant by 1e-6,
    which must break the match wherever the derivative is resolvable.
    """
    spec = GenCauchy(d=1, nu=2.0)
    grid = make_grid(spec, core_halfwidth=24.0, n_core=2048, n_tail=256)
    rho0 = gaussian_on_grid(grid, 4.0)
    traj = fokker_planck_evolve_1d(spec, rho0, t_final=1.0, dt=2e-4,
                                   record_every=250)
    stats = []
    for t, frame in zip(traj.times, traj.densities):
        f_q, g_q = fq_gq(frame, spec, 2.0)
        stats.append((float(t), math.log(f_q), f_q, g_q, frame.mass))
    gspec = Gaussian(d=1)
    ggrid = make_grid(gspec, core_halfwidth=6.0, n_core=1024, n_tail=128)
    gtraj = fokker_planck_evolve_1d(gspec, gaussian_on_grid(ggrid, 4.0),
                                    t_final=0.5, dt=2e-5, record_every=5000)

    def report(falsify: bool) -> dict:
        scale = _falsify_scale(falsify)
        entries = []
        for i, (t, r, f, g, mass) in enumerate(stats):
            entries.append({"kind": "mass", "t": t, "value": mass,
                            "violated": bool(abs(mass - 1.0) > 1e-8)})
            if i > 0:
                entries.append({
                    "kind": "monotone", "t": t, "value": r - stats[i - 1][1],
                    "violated": bool(r > stats[i - 1][1] + 1e-6),
                })
            if 0 < i < len(stats) - 1:
                t0, r0 = stats[i - 1][0], stats[i - 1][1]
                t2, r2 = stats[i + 1][0], stats[i + 1][1]
                deriv = (r2 - r0) / (t2 - t0)
                pred = -2.0 * scale * g / f
                if abs(deriv) > 1e-4:
                    rel = abs(deriv - pred) / abs(deriv)
                    entries.append({"kind": "decay-identity", "t": t,
                                    "value": rel, "violated": bool(rel > 0.05)})
        for t, frame in zip(gtraj.times, gtraj.densities):
            exact = 1.0 + 3.0 * math.exp(-2.0 * float(t))
            entries.append({
                "kind": "moment-ode", "t": float(t), "value": frame.m2 - exact,
                "violated": bool(abs(frame.m2 - exact) > 1e-3),
            })
        n_bad = sum(e["violated"] for e in entries)
        return {
            "check": "fp-falsify" if falsify else "fp",
            "passed": n_bad == 0,
            "falsify": falsify,
            "n_violations": n_bad,
            "entries": entries,
            "note": "grid-resolution checks; tolerances are stated per entry kind",
        }

    return report(False), report(True)


def _run_suite(suite: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """The suite's clean and falsify reports, from one numerics pass."""
    if suite == "fp":
        return _fp_suite()
    fset = default_test_functions()
    spec = _spec_from_args(args) if args.family else (
        Sublinear(d=1, alpha=0.5, lam=1.0) if suite == "weighted"
        else GenCauchy(d=1, nu=2.0))
    if suite == "wpi":
        r_grid = args.r_grid or [1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.7, 1.0]
        report = wpi_check(spec, beta_for_spec(spec), fset, r_grid)
    elif suite == "converse":
        report = converse_pi_check(spec, fset)
    else:
        report = weighted_pi_check(spec, fset)
    return report.to_dict(), report.falsified().to_dict()


def cmd_verify(args: argparse.Namespace) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    report_path = os.path.join(args.output_dir, f"verify_{args.suite}.json")
    report, counterpart = _run_suite(args.suite, args)
    if args.falsify:
        payload = {"falsify_only": counterpart}
        code = 1 if counterpart["n_violations"] >= 1 else 0
    else:
        payload = {"main": report, "falsify": counterpart}
        ok = report["n_violations"] == 0 and counterpart["n_violations"] >= 1
        code = 0 if ok else 1
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    print(report_path)
    return code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail-lmc",
        description="Langevin Monte Carlo on heavy-tailed targets: samplers, "
                    "explicit complexity bounds, and inequality verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its fields")
        _add_spec_flags(p)
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--q-prime", dest="q_prime", type=_parse_qprime,
                       default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--sigma2", type=_parse_floats, default=None,
                       help="comma-separated start variances")
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--n-chains", dest="n_chains", type=int, default=None)
        p.add_argument("--n-iters", dest="n_iters", type=int, default=None)
        p.add_argument("--record-every", dest="record_every", type=int,
                       default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", dest="output_dir", type=str, default=None)

    p_sample = sub.add_parser("sample", help="run LMC chains, write traces")
    add_config_flags(p_sample)

    p_phase = sub.add_parser("phase-transition",
                             help="initialization sweep per family")
    add_config_flags(p_phase)
    p_phase.add_argument("--families", type=str, default=None,
                         help="comma-separated subset of "
                              + ",".join(FAMILY_TAGS))

    _add_bounds_flags(sub.add_parser("bounds", help="evaluate one named bound"))

    p_verify = sub.add_parser("verify", help="run an inequality suite")
    p_verify.add_argument("suite", type=str,
                          choices=["wpi", "converse", "weighted", "fp"])
    _add_spec_flags(p_verify)
    p_verify.add_argument("--falsify", action="store_true",
                          help="run only the weakened-constant mode "
                               "(exits 1 when it produces violations)")
    p_verify.add_argument("--r-grid", dest="r_grid", type=_parse_floats,
                          default=None)
    p_verify.add_argument("--output-dir", dest="output_dir", type=str,
                          default=".")

    p_fp = sub.add_parser("fp-evolve", help="1D Fokker-Planck evolution")
    _add_spec_flags(p_fp)
    p_fp.add_argument("--sigma2", type=float, required=True)
    p_fp.add_argument("--q", type=float, default=2.0)
    p_fp.add_argument("--t-final", dest="t_final", type=float, required=True)
    p_fp.add_argument("--dt", type=float, required=True)
    p_fp.add_argument("--record-every", dest="fp_record_every", type=int,
                      default=None)
    p_fp.add_argument("--n-core", dest="n_core", type=int, default=1536)
    p_fp.add_argument("--n-tail", dest="n_tail", type=int, default=256)
    p_fp.add_argument("--core-halfwidth", dest="core_halfwidth", type=float,
                      default=None)
    p_fp.add_argument("--output-dir", dest="output_dir", type=str, default=".")
    return parser


def _add_bounds_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--thm", type=str, default=None, choices=list(_BOUNDS))
    p.add_argument("--json", type=str, default=None,
                   help="JSON query object with a 'thm' field")
    _add_spec_flags(p)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--q-prime", dest="q_prime", type=_parse_qprime,
                   default=math.inf)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--kind", type=str, default="Rinf",
                   choices=["Rinf", "KL", "R2_hat"])
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--target", type=str, default="pi", choices=["pi", "pi_hat"])
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--r2-hat", dest="r2_hat", type=float, default=None)
    p.add_argument("--n-guess", dest="n_guess", type=float, default=100.0)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_qprime(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                base = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputValidationError(f"malformed config JSON: {exc}") from None
    if args.family is not None:
        base["spec"] = spec_to_json(_spec_from_args(args))
    if "spec" not in base:
        raise InputValidationError(
            "a target spec is required: pass --family or a config file"
        )
    if args.q is not None:
        base["q"] = args.q
    if args.q_prime is not None:
        base["q_prime"] = args.q_prime
    if args.eps is not None:
        base["eps"] = args.eps
    if args.sigma2 is not None:
        base["sigma2_list"] = args.sigma2
    for name in ("h", "n_chains", "n_iters", "record_every", "seed",
                 "output_dir"):
        val = getattr(args, name)
        if val is not None:
            base[name] = val
    return config_from_json(base)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sample":
            return cmd_sample(_config_from_args(args))
        if args.command == "phase-transition":
            families = (
                [f.strip() for f in args.families.split(",") if f.strip()]
                if args.families else None
            )
            return cmd_phase_transition(_config_from_args(args), families)
        if args.command == "bounds":
            return cmd_bounds(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "fp-evolve":
            return cmd_fp_evolve(args)
        raise InputValidationError(f"unknown command {args.command!r}")
    except (InputValidationError, UnsupportedFamilyError,
            MomentUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeavyTailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
