"""Benchmark of heavytail_lmc: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload drift --seed 1 --seconds 28 --trace 0

Workloads: drift, sweep, verify, flow (see workloads.py and README.md).

``--trace 0`` measures set-up time in fresh processes, then runs full passes
of the workload while another pass fits in ``--seconds`` (at least two, so
every run compares the output bytes of two passes of the same code and
seed), checks every operation's output, and reports the end-to-end metrics
as medians over the passes.  Pass times are gated in units of a fixed
reference kernel timed around and within each pass (reference.py); raw
seconds are printed beside them.

``--trace 1`` runs untraced and traced passes in pairs (plus a one-thread
pass on sweep) and reports the per-layer metrics.  Traced and untraced
passes, and the one-thread and default-thread sweeps, must give the same
output bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every figure with its unit, the quartiles and sample counts, the
failed checks, and the environment.  Exit code 2 means no result: the
package or its dependencies could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
NAMES = ("drift", "sweep", "verify", "flow")
SETUP_REPS = 3
MIN_PASSES = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: The printed name of each workload's work rate in raw seconds.
WORK_METRIC = {"chain_steps": "chain_steps_per_s", "checks": "checks_per_s",
               "cell_steps": "cell_steps_per_s"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and build the
    workload's inputs, up to where the first timed call would start."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads; "
        "workloads.WORKLOADS[%r].inputs(%d)" % (SRC, HERE, name, seed)
    )
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def fits(t0: float, durations: list[float], seconds: float) -> bool:
    """Whether one more round of median duration ends within the window."""
    elapsed = time.perf_counter() - t0
    return elapsed + statistics.median(durations) <= seconds


def run_pass(workload, inputs, **kwargs):
    """One pass; an exception fails every operation of the pass."""
    from workloads import Op, PassResult

    t0 = time.perf_counter()
    try:
        return workload.run_pass(inputs, WORKDIR, **kwargs)
    except Exception as exc:  # the benchmark must report, not crash
        traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        ops = [Op("pass", False, "", f"{type(exc).__name__}: {exc}")
               for _ in range(workload.n_ops(inputs))]
        return PassResult(wall, 0, ops)


def mark_nondeterminism(passes) -> None:
    """Fail every op whose output digest differs from the first pass's."""
    ref = [op.digest for op in passes[0].ops]
    for p in passes[1:]:
        for i, op in enumerate(p.ops):
            if op.ok and i < len(ref) and ref[i] and op.digest != ref[i]:
                op.ok = False
                op.note = "output bytes differ from the first pass"


def environment(name: str, seed: int) -> dict:
    import numpy as np
    import scipy

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    threads = (str(workloads.nproc()) if name == "sweep"
               else os.environ.get("HEAVYTAIL_THREADS", "unset"))
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "nproc": workloads.nproc(),
        "HEAVYTAIL_THREADS": threads,
        "platform": platform.platform(),
    }


def untraced_run(workload, inputs, seconds: float, seed: int):
    import reference

    setup = measure_setup(workload.name, seed)
    passes, kernels, spans = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(t0, spans, seconds):
        t_span = time.perf_counter()
        sampler = reference.Sampler()
        sampler()
        passes.append(run_pass(workload, inputs, between=sampler))
        sampler.samples.append(reference.kernel_s())
        kernels.append(statistics.median(sampler.samples))
        spans.append(time.perf_counter() - t_span)
    mark_nondeterminism(passes)
    walls = [p.wall_s for p in passes]
    samples = {
        "setup_s": setup,
        "wall_ref": [w / k for w, k in zip(walls, kernels)],
        "work_per_ref": [p.work / p.wall_s * k for p, k in zip(passes, kernels)],
        "wall_s": walls,
        "work_per_s": [p.work / p.wall_s for p in passes],
        "reference_s": kernels,
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(samples["wall_ref"]), "ref"),
        "work_per_ref": (statistics.median(samples["work_per_ref"]), "1/ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return passes, metrics, samples


def traced_run(workload, inputs, seconds: float):
    import numpy as np

    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer(layers.ENTRY_POINTS)
    sweep_steps = (workload.n_legs * workload.n_iters
                   if workload.name == "sweep" else 0)
    untraced, traced, one_thread, per_pass, counts = [], [], [], [], []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while not rounds or fits(t0, rounds, seconds):
        t_round = time.perf_counter()
        untraced.append(run_pass(workload, inputs))
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(workload, inputs))
        per_pass.append(layers.pass_metrics(
            tracer.stats, tracer.root_busy_s, traced[-1].wall_s, sweep_steps))
        counts.append({k: (v.calls, v.evals, v.steps)
                       for k, v in tracer.stats.items()})
        if workload.name == "sweep":
            one_thread.append(run_pass(workload, inputs, threads=1))
        rounds.append(time.perf_counter() - t_round)
    passes = untraced + traced + one_thread
    mark_nondeterminism(passes)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics = {}
    for name, unit in layers.PER_LAYER:
        values = [m[name] for m in per_pass if name in m]
        if values:
            metrics[name] = (statistics.median(values), unit)
    metrics["cli.sweep.thread_speedup"] = (
        statistics.median(p.wall_s for p in one_thread) / untraced_wall
        if one_thread else 0.0, "ratio")
    metrics["env.philox_ns_per_normal"] = (layers.normals_ns(np.random.Philox), "ns")
    metrics["env.sfc64_ns_per_normal"] = (layers.normals_ns(np.random.SFC64), "ns")
    metrics["env.nproc"] = (workloads.nproc(), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced) / untraced_wall, "ratio")
    metrics = {name: metrics[name] for name, _ in layers.PER_LAYER}
    extra = {
        "absent_entry_points": tracer.absent,
        "counts_repeat": all(c == counts[0] for c in counts),
        "traced_passes": len(traced),
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "one_thread_wall_s": [p.wall_s for p in one_thread],
    }
    return passes, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment(args.workload, args.seed)
    inputs = workload.inputs(args.seed)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, extra = traced_run(workload, inputs, args.seconds)
            shown = metrics
        else:
            passes, metrics, samples = untraced_run(
                workload, inputs, args.seconds, args.seed)
            extra = {k: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
                     for k, v in samples.items()}
            # Raw seconds are printed but not gated: host drift moves them.
            shown = dict(metrics)
            shown["wall_s"] = (extra["wall_s"]["median"], "s")
            shown[WORK_METRIC[workload.work_unit]] = (
                extra["work_per_s"]["median"], "1/s")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    print_summary(workload.name, shown, len(ops), len(failed))
    for op in failed:
        print(f"FAILED {args.workload}: {op.name}: {op.note}")
    print(json.dumps({"env": env, "detail": extra, "info": passes[0].info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_summary(name: str, figures, attempted: int, failed: int) -> None:
    """Every figure by name and unit, then the share of failed operations."""
    for key, (value, unit) in figures.items():
        print(f"{name:7s} {key:44s} {value:14.6g} {unit}")
    print(f"{name:7s} {'fail_ratio':44s} "
          f"{failed / attempted:14.6g} ratio ({failed}/{attempted})")


if __name__ == "__main__":
    sys.exit(main())
