"""The benchmark's own tests: tiny workloads, output checks, tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import heavytail_lmc as hl  # noqa: E402
from heavytail_lmc import Gaussian, GenCauchy, Sublinear  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EntryPoint, Tracer  # noqa: E402

TINY = {
    "drift": workloads.Drift(specs=(Gaussian(d=1), GenCauchy(d=4, nu=1.0)),
                             n_chains=400, n_iters=20, record_every=10),
    "sweep": workloads.Sweep(n_chains=1000),
    "verify": workloads.Verify(suites=(GenCauchy(d=1, nu=2.0),)),
    "flow": workloads.Flow(cases=(
        workloads.FlowCase("cauchy", GenCauchy(d=1, nu=2.0), 256, 32, 24.0,
                           4.0, 0.02, 2e-4, 25),
        workloads.FlowCase("gauss", Gaussian(d=1), 256, 16, 6.0, 4.0, 0.01,
                           2e-5, 100, check_m2=True),
    )),
}


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, workdir):
    w = TINY[name]
    inputs = w.inputs(7)
    result = w.run_pass(inputs, workdir)
    assert [op.note for op in result.ops if not op.ok] == []
    assert len(result.ops) == w.n_ops(inputs)
    assert result.wall_s > 0 and result.work > 0


def test_drift_work_counts_every_chain_step(workdir):
    w = TINY["drift"]
    result = w.run_pass(w.inputs(3), workdir)
    assert result.work == 2 * 2 * w.n_chains * w.n_iters


def test_same_seed_same_inputs_and_bytes(workdir):
    w = TINY["drift"]
    assert w.inputs(5) == w.inputs(5) != w.inputs(6)
    first = w.run_pass(w.inputs(5), workdir)
    second = w.run_pass(w.inputs(5), workdir)
    assert [op.digest for op in first.ops] == [op.digest for op in second.ops]


def test_sweep_bytes_do_not_depend_on_thread_count(workdir):
    w = TINY["sweep"]
    argv = w.inputs(2)
    one = w.run_pass(argv, workdir, threads=1)
    two = w.run_pass(argv, workdir, threads=2)
    assert [op.digest for op in one.ops] == [op.digest for op in two.ops]


def test_sweep_rejects_wrong_crossings_and_failed_exit(workdir):
    w = TINY["sweep"]
    shifted = w.run_pass(w.inputs(2) + ["--eps", "0.5"], workdir)
    bad = [op.name for op in shifted.ops if not op.ok]
    assert len(bad) == 5 and all(n.startswith("gaussian") for n in bad)
    broken = w.run_pass(w.inputs(2) + ["--h", "-1"], workdir)
    assert len(broken.ops) == 15 and not any(op.ok for op in broken.ops)


def test_reference_sampler_runs_when_due_and_pauses_leave_the_wall(workdir):
    sampler = reference.Sampler(every_s=60.0)
    assert sampler() > 0.0 and sampler() == 0.0 and len(sampler.samples) == 1

    def pause():
        time.sleep(0.2)
        return 0.2

    w = TINY["flow"]
    t0 = time.perf_counter()
    result = w.run_pass(w.inputs(1), workdir, between=pause)
    assert time.perf_counter() - t0 - result.wall_s >= 0.2 * len(w.cases)


def test_differing_bytes_fail_the_operation():
    passes = [
        workloads.PassResult(1.0, 1, [workloads.Op("a", True, "x"),
                                      workloads.Op("b", True, "y")]),
        workloads.PassResult(1.0, 1, [workloads.Op("a", True, "x"),
                                      workloads.Op("b", True, "z")]),
    ]
    run.mark_nondeterminism(passes)
    assert [op.ok for op in passes[1].ops] == [True, False]


def test_gaussian_crossings_match_closed_form():
    got = [checks.gaussian_crossing(2, 0.01, s, 2.0, 1.0)
           for s in (4.0, 16.0, 64.0, 256.0, 1024.0)]
    assert got == [41, 121, 193, 262, 331]


def test_checks_reject_wrong_values():
    spec = Gaussian(d=4)
    exact = checks.ula_gaussian_m2(4, 1e-2, 4.0, 200)
    assert checks.drift_case(spec, 1e-2, 4.0, 200, exact + 0.01, 0.01) == ""
    assert checks.drift_case(spec, 1e-2, 4.0, 200, exact + 0.06, 0.01)
    assert checks.drift_case(GenCauchy(d=1, nu=1.0), 1e-2, 4.0, 200,
                             float("nan"), 0.1)

    assert checks.sweep_gaussian_row(2, 0.01, 4.0, 2.0, 1.0, 10, "50") == ""
    assert checks.sweep_gaussian_row(2, 0.01, 4.0, 2.0, 1.0, 10, "70")
    assert checks.sweep_gaussian_row(2, 0.01, 4.0, 2.0, 1.0, 10, "30")
    assert checks.sweep_gaussian_row(2, 0.01, 4.0, 2.0, 1.0, 10, "nan")

    cauchy, weak = GenCauchy(d=1, nu=2.0), Sublinear(d=1, alpha=0.3)
    assert checks.verify_report(cauchy, False, 1, 176, 176)
    assert checks.verify_report(cauchy, True, 0, 176, 176)
    assert checks.verify_report(cauchy, True, 3, 170, 176)
    assert checks.verify_report(weak, True, 0, 176, 176) == ""

    times, ok_mass, ok_r = [0.0, 0.5], [1.0, 1.0], [0.5, 0.4]
    m2 = [4.0, 1.0 + 3.0 * 2.718281828459045 ** -1.0]
    assert checks.flow_case(ok_mass, ok_r, times, m2, 4.0) == ""
    assert checks.flow_case([1.0, 1.0 + 1e-7], ok_r, times, None, 4.0)
    assert checks.flow_case(ok_mass, [0.4, 0.4 + 1e-9], times, None, 4.0)
    assert checks.flow_case(ok_mass, ok_r, times, [4.0, m2[1] + 2e-3], 4.0)


def test_tracer_counts_and_restores(workdir):
    w = TINY["drift"]
    original = hl.sampler.lmc_step
    tracer = Tracer(layers.ENTRY_POINTS)
    with tracer.installed():
        assert hl.sampler.lmc_step is not original
        w.run_pass(w.inputs(1), workdir)
    assert hl.sampler.lmc_step is original
    assert hl.sampler.grad_potential is hl.targets.grad_potential
    assert tracer.absent == []
    stats = tracer.stats
    n_steps = len(w.inputs(1)) * w.n_iters
    assert stats["sampler.lmc_step"].calls == n_steps
    assert stats["targets.grad_potential"].calls == n_steps
    assert stats["sampler.run_chains"].calls == len(w.inputs(1))
    step = stats["sampler.lmc_step"]
    assert 0.0 < step.child_s < step.total_s
    m = layers.pass_metrics(stats, tracer.root_busy_s, 1.0, 0)
    assert set(m) | {"cli.sweep.thread_speedup", "env.philox_ns_per_normal",
                     "env.sfc64_ns_per_normal", "env.nproc",
                     "trace.overhead_ratio"} == {n for n, _ in layers.PER_LAYER}


def test_tracer_counts_quad_integrand_evaluations(workdir):
    w = TINY["verify"]
    tracer = Tracer(layers.ENTRY_POINTS)
    with tracer.installed():
        w.run_pass(w.inputs(1), workdir)
    quad = tracer.stats["fi_verify.quad"]
    assert quad.calls == 2 * 3 * len(hl.default_test_functions())
    assert quad.evals > 21 * quad.calls
    assert hl.fi_verify.quad.__module__.startswith("scipy")


def test_absent_entry_points_are_reported_not_fatal(workdir):
    tracer = Tracer([
        EntryPoint("gone.fn", "heavytail_lmc.sampler", "no_such_function"),
        EntryPoint("gone.module", "heavytail_lmc.no_such_module", "f"),
        EntryPoint("sampler.lmc_step", "heavytail_lmc.sampler", "lmc_step"),
    ])
    w = TINY["drift"]
    with tracer.installed():
        w.run_pass(w.inputs(1), workdir)
    assert tracer.absent == ["gone.fn", "gone.module"]
    assert tracer.stats["sampler.lmc_step"].calls > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_ref", "work_per_ref", "peak_rss_mb"}
