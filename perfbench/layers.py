"""Traced entry points and the per-layer metrics computed from them.

The layer -> end-to-end map (which workload metric each figure should move)
is in README.md next to this file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import EntryPoint, SpanStats


def _fv_steps(traj) -> int:
    """Finite-volume steps taken, read off the returned trajectory."""
    times, dt = getattr(traj, "times", None), getattr(traj, "dt", None)
    if times is None or not dt:
        return 0
    return round(float(times[-1]) / dt)


ENTRY_POINTS = [
    EntryPoint("sampler.lmc_step", "heavytail_lmc.sampler", "lmc_step"),
    EntryPoint("sampler.run_chains", "heavytail_lmc.sampler", "run_chains"),
    EntryPoint("sampler.gaussian_init", "heavytail_lmc.sampler", "gaussian_init"),
    EntryPoint("targets.grad_potential", "heavytail_lmc.targets", "grad_potential"),
    EntryPoint("targets.radial_profile", "heavytail_lmc.targets", "radial_profile"),
    EntryPoint("targets.log_normalizing_constant", "heavytail_lmc.targets",
               "log_normalizing_constant"),
    # Only the calls the CLI makes; bounds also calls sigma2_eps internally.
    EntryPoint("diagnostics.sigma2_eps", "heavytail_lmc.cli", "sigma2_eps",
               package_wide=False),
    EntryPoint("diagnostics.iterations_to_threshold", "heavytail_lmc.cli",
               "iterations_to_threshold", package_wide=False),
    EntryPoint("bounds.init_divergence_bound", "heavytail_lmc.bounds",
               "init_divergence_bound"),
    EntryPoint("bounds.lmc_iteration_bound", "heavytail_lmc.bounds",
               "lmc_iteration_bound"),
    EntryPoint("bounds.lower_bound_complexity", "heavytail_lmc.bounds",
               "lower_bound_complexity"),
    EntryPoint("fi_verify.wpi_check", "heavytail_lmc.fi_verify", "wpi_check"),
    # scipy's quad as fi_verify calls it (not the quadratures in targets).
    EntryPoint("fi_verify.quad", "heavytail_lmc.fi_verify", "quad",
               package_wide=False, count_evals=True),
    EntryPoint("fi_verify.fokker_planck_evolve_1d", "heavytail_lmc.fi_verify",
               "fokker_planck_evolve_1d", steps=_fv_steps),
    EntryPoint("fi_verify.fq_gq", "heavytail_lmc.fi_verify", "fq_gq"),
    EntryPoint("fi_verify.pi_on_grid", "heavytail_lmc.fi_verify", "pi_on_grid"),
    EntryPoint("fi_verify.make_grid", "heavytail_lmc.fi_verify", "make_grid"),
]

#: (metric name, unit); the order BENCHMARK.json lists them in.
PER_LAYER = [
    ("sampler.lmc_step.calls", "count"),
    ("sampler.lmc_step.us_per_call", "us"),
    ("sampler.lmc_step.self_us_per_call", "us"),
    ("sampler.run_chains.self_s", "s"),
    ("sampler.gaussian_init.total_s", "s"),
    ("targets.grad_potential.calls", "count"),
    ("targets.grad_potential.us_per_call", "us"),
    ("targets.radial_profile.calls", "count"),
    ("targets.log_normalizing_constant.calls", "count"),
    ("targets.log_normalizing_constant.total_s", "s"),
    ("diagnostics.total_s", "s"),
    ("bounds.init_divergence_bound.total_s", "s"),
    ("bounds.lmc_iteration_bound.total_s", "s"),
    ("bounds.lower_bound_complexity.total_s", "s"),
    ("cli.sweep.concurrency", "ratio"),
    ("cli.sweep.steps_done_ratio", "ratio"),
    ("cli.sweep.thread_speedup", "ratio"),
    ("fi_verify.wpi_check.s_per_call", "s"),
    ("fi_verify.quad.calls", "count"),
    ("fi_verify.quad.total_s", "s"),
    ("fi_verify.quad.integrand_evals", "count"),
    ("fi_verify.quad.us_per_eval", "us"),
    ("fi_verify.fokker_planck_evolve_1d.steps", "count"),
    ("fi_verify.fokker_planck_evolve_1d.us_per_step", "us"),
    ("fi_verify.fq_gq.calls", "count"),
    ("fi_verify.fq_gq.us_per_call", "us"),
    ("fi_verify.pi_on_grid.calls", "count"),
    ("fi_verify.pi_on_grid.total_s", "s"),
    ("fi_verify.make_grid.total_s", "s"),
    ("env.philox_ns_per_normal", "ns"),
    ("env.sfc64_ns_per_normal", "ns"),
    ("env.nproc", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def pass_metrics(stats: dict[str, SpanStats], root_busy_s: float,
                 wall_s: float, sweep_steps: int) -> dict[str, float]:
    """Layer figures of one traced pass.

    ``sweep_steps`` is legs x n_iters on the sweep workload and 0 elsewhere;
    the ``cli.sweep`` ratios are 0 on the other workloads.
    """
    s = stats
    step, grad = s["sampler.lmc_step"], s["targets.grad_potential"]
    quad, fv = s["fi_verify.quad"], s["fi_verify.fokker_planck_evolve_1d"]
    fq = s["fi_verify.fq_gq"]
    return {
        "sampler.lmc_step.calls": step.calls,
        "sampler.lmc_step.us_per_call": _per(step.total_s, step.calls, 1e6),
        "sampler.lmc_step.self_us_per_call": _per(step.self_s, step.calls, 1e6),
        "sampler.run_chains.self_s": s["sampler.run_chains"].self_s,
        "sampler.gaussian_init.total_s": s["sampler.gaussian_init"].total_s,
        "targets.grad_potential.calls": grad.calls,
        "targets.grad_potential.us_per_call": _per(grad.total_s, grad.calls, 1e6),
        "targets.radial_profile.calls": s["targets.radial_profile"].calls,
        "targets.log_normalizing_constant.calls":
            s["targets.log_normalizing_constant"].calls,
        "targets.log_normalizing_constant.total_s":
            s["targets.log_normalizing_constant"].total_s,
        "diagnostics.total_s": (s["diagnostics.sigma2_eps"].total_s
                                + s["diagnostics.iterations_to_threshold"].total_s),
        "bounds.init_divergence_bound.total_s":
            s["bounds.init_divergence_bound"].total_s,
        "bounds.lmc_iteration_bound.total_s":
            s["bounds.lmc_iteration_bound"].total_s,
        "bounds.lower_bound_complexity.total_s":
            s["bounds.lower_bound_complexity"].total_s,
        "cli.sweep.concurrency": _per(root_busy_s, wall_s) if sweep_steps else 0.0,
        "cli.sweep.steps_done_ratio": _per(step.calls, sweep_steps),
        "fi_verify.wpi_check.s_per_call": _per(s["fi_verify.wpi_check"].total_s,
                                               s["fi_verify.wpi_check"].calls),
        "fi_verify.quad.calls": quad.calls,
        "fi_verify.quad.total_s": quad.total_s,
        "fi_verify.quad.integrand_evals": quad.evals,
        "fi_verify.quad.us_per_eval": _per(quad.total_s, quad.evals, 1e6),
        "fi_verify.fokker_planck_evolve_1d.steps": fv.steps,
        # self time: the up-front pi_on_grid call is excluded.
        "fi_verify.fokker_planck_evolve_1d.us_per_step": _per(fv.self_s, fv.steps, 1e6),
        "fi_verify.fq_gq.calls": fq.calls,
        "fi_verify.fq_gq.us_per_call": _per(fq.total_s, fq.calls, 1e6),
        "fi_verify.pi_on_grid.calls": s["fi_verify.pi_on_grid"].calls,
        "fi_verify.pi_on_grid.total_s": s["fi_verify.pi_on_grid"].total_s,
        "fi_verify.make_grid.total_s": s["fi_verify.make_grid"].total_s,
    }


def normals_ns(bit_generator, d: int = 4, n: int = 10_000, reps: int = 25,
               draws: int = 4) -> float:
    """Median ns per standard normal from one persistent generator, drawn in
    (n, d) blocks -- the drift workload's noise block shape."""
    gen = np.random.Generator(bit_generator(20110101))
    gen.standard_normal((n, d))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(draws):
            gen.standard_normal((n, d))
        samples.append((time.perf_counter() - t0) / (draws * n * d))
    return 1e9 * statistics.median(samples)
