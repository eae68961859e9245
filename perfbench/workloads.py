"""The benchmark's four workloads, run through heavytail_lmc's public API.

Each workload builds its inputs from the workload seed (``inputs``) and runs
one full pass over them (``run_pass``), returning a :class:`PassResult`:
the pass's wall time, the work it did, and one :class:`Op` per operation
with its output check and an output digest.  Digests of two passes of the
same code and seed must be equal; ``run.py`` compares them.

Package functions are looked up on the module objects at call time
(``hl.run_chains``, ``cli.main``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import heavytail_lmc as hl
from heavytail_lmc import cli
from heavytail_lmc import Gaussian, GenCauchy, Sublinear

import checks


@dataclass
class Op:
    """One operation of a pass: its check outcome and its output digest."""

    name: str
    ok: bool
    digest: str
    note: str = ""


@dataclass
class PassResult:
    wall_s: float
    work: float
    ops: list[Op]
    info: dict = field(default_factory=dict)


def no_pause() -> float:
    return 0.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# drift: criterion-1 chains, kernel-bound
# ---------------------------------------------------------------------------

C1_SPECS = (
    Gaussian(d=1), Gaussian(d=4),
    Sublinear(d=1, alpha=0.3), Sublinear(d=4, alpha=0.3),
    Sublinear(d=1, alpha=0.7), Sublinear(d=4, alpha=0.7),
    GenCauchy(d=1, nu=1.0), GenCauchy(d=4, nu=1.0),
    GenCauchy(d=1, nu=3.0), GenCauchy(d=4, nu=3.0),
)


@dataclass(frozen=True)
class Drift:
    """The criterion-1 grid: 10 specs x 2 step sizes, one case after another.

    ``n_iters`` is shortened from the acceptance test's 10^4 so that a pass
    fits a run several times; chains, record spacing and the grid are kept.
    """

    name = "drift"
    work_unit = "chain_steps"
    specs: tuple = C1_SPECS
    steps: tuple = (1e-3, 1e-2)
    sigma2: float = 4.0
    n_chains: int = 10_000
    n_iters: int = 200
    record_every: int = 100

    def inputs(self, seed: int) -> list[tuple]:
        return [
            (spec, h, 1_000_003 * seed + 1009 * si + 13 * hi + 1)
            for si, spec in enumerate(self.specs)
            for hi, h in enumerate(self.steps)
        ]

    def n_ops(self, cases: list[tuple]) -> int:
        return len(cases)

    def run_pass(self, cases: list[tuple], workdir: str,
                 between: Callable[[], float] = no_pause) -> PassResult:
        outcomes = []
        paused = 0.0
        t0 = time.perf_counter()
        for spec, h, case_seed in cases:
            paused += between()
            try:
                init = hl.gaussian_init(self.sigma2, spec.d, self.n_chains, h,
                                        case_seed)
                trace = hl.run_chains(spec, init, self.n_iters,
                                      record_every=self.record_every)
            except hl.ChainDivergenceError as exc:
                outcomes.append((spec, h, None, str(exc)))
            else:
                outcomes.append((spec, h, trace, ""))
        wall = time.perf_counter() - t0 - paused
        ops, work = [], 0
        for spec, h, trace, err in outcomes:
            name = f"{spec} h={h:g}"
            if trace is None:
                ops.append(Op(name, False, "", err))
                continue
            steps = int(trace.iters[-1])
            work += trace.n_chains * steps
            note = checks.drift_case(spec, h, self.sigma2, steps,
                                     trace.m2[-1], trace.se[-1])
            ops.append(Op(name, not note, _digest(
                trace.iters, trace.m2, trace.se, trace.dm2_next,
                trace.dm2_next_se, trace.final_positions), note))
        return PassResult(wall, work, ops)


# ---------------------------------------------------------------------------
# sweep: criterion-2 phase-transition sweep through the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """``heavytail-lmc phase-transition`` at the criterion-2 configuration.

    ``n_iters`` is shortened from 8e4 to just above the slowest square-case
    crossing (331), so the square legs still cross and are checked; the
    log-tailed legs run to the cap and the subexponential ones stop at 0.
    """

    name = "sweep"
    work_unit = "chain_steps"
    d: int = 2
    sigma2: tuple = (4.0, 16.0, 64.0, 256.0, 1024.0)
    h: float = 0.01
    n_chains: int = 10_000
    n_iters: int = 400
    record_every: int = 10
    q: float = 2.0
    eps: float = 1.0
    n_legs: int = 15

    def inputs(self, seed: int) -> list[str]:
        return [
            "phase-transition", "--family", "gaussian", "--d", str(self.d),
            "--sigma2", ",".join(f"{s:g}" for s in self.sigma2),
            "--h", f"{self.h:g}", "--n-chains", str(self.n_chains),
            "--n-iters", str(self.n_iters),
            "--record-every", str(self.record_every), "--seed", str(seed),
            "--q", f"{self.q:g}", "--eps", f"{self.eps:g}",
        ]

    def n_ops(self, argv: list[str]) -> int:
        return self.n_legs

    def run_pass(self, argv: list[str], workdir: str,
                 between: Callable[[], float] = no_pause,
                 threads: Optional[int] = None) -> PassResult:
        # One CLI call: there is no point between operations to pause at.
        out = os.path.join(workdir, "sweep")
        shutil.rmtree(out, ignore_errors=True)
        saved = os.environ.get("HEAVYTAIL_THREADS")
        os.environ["HEAVYTAIL_THREADS"] = str(threads or nproc())
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = cli.main(argv + ["--output-dir", out])
                wall = time.perf_counter() - t0
        finally:
            if saved is None:
                del os.environ["HEAVYTAIL_THREADS"]
            else:
                os.environ["HEAVYTAIL_THREADS"] = saved
        csv_bytes = _read(os.path.join(out, "phase.csv"))
        svg_bytes = _read(os.path.join(out, "phase.svg"))
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        lines = csv_bytes.decode().splitlines()[1:]
        if rc != 0 or len(rows) != self.n_legs:
            note = f"exit code {rc}, {len(rows)} of {self.n_legs} rows"
            return PassResult(wall, 0, [Op(f"leg {i}", False, "", note)
                                        for i in range(self.n_legs)])
        ops, work = [], 0
        for row, line in zip(rows, lines):
            # A leg stops at its first crossing, which is what iters_measured
            # records; a leg that never crosses runs all n_iters steps.
            crossed = row["iters_measured"] != "nan"
            steps = int(row["iters_measured"]) if crossed else self.n_iters
            work += self.n_chains * steps
            note = ""
            if row["family"] == "gaussian":
                note = checks.sweep_gaussian_row(
                    self.d, self.h, float(row["sigma2"]), self.q, self.eps,
                    self.record_every, row["iters_measured"])
            ops.append(Op(f"{row['family']} sigma2={row['sigma2']}", not note,
                          _digest(line.encode(), svg_bytes), note))
        return PassResult(wall, work, ops)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


# ---------------------------------------------------------------------------
# verify: criterion-4 weak-Poincare suites, quadrature-bound
# ---------------------------------------------------------------------------

C4_SUITES = (
    GenCauchy(d=1, nu=1.0), GenCauchy(d=1, nu=2.0), GenCauchy(d=1, nu=4.0),
    Sublinear(d=1, alpha=0.3), Sublinear(d=1, alpha=0.5),
    Sublinear(d=1, alpha=0.7),
)
C4_R_GRID = (1e-4, 1e-3, 1e-2, 0.1, 0.2, 0.4, 0.7, 1.0)


@dataclass(frozen=True)
class Verify:
    """``wpi_check`` per suite in clean then falsify mode, as ``verify wpi``.

    The checks are deterministic quadrature; the seed only fixes the order
    in which the suites run.
    """

    name = "verify"
    work_unit = "checks"
    suites: tuple = C4_SUITES
    r_grid: tuple = C4_R_GRID

    def inputs(self, seed: int) -> tuple:
        suites = list(self.suites)
        random.Random(seed).shuffle(suites)
        fset = hl.default_test_functions()
        return fset, [(spec, hl.beta_for_spec(spec)) for spec in suites]

    def n_ops(self, inputs: tuple) -> int:
        return 2 * len(inputs[1])

    def run_pass(self, inputs: tuple, workdir: str,
                 between: Callable[[], float] = no_pause) -> PassResult:
        fset, suites = inputs
        reports = []
        paused = 0.0
        t0 = time.perf_counter()
        for spec, beta in suites:
            for falsify in (False, True):
                paused += between()
                reports.append((spec, falsify, hl.wpi_check(
                    spec, beta, fset, list(self.r_grid), falsify=falsify)))
        wall = time.perf_counter() - t0 - paused
        ops, work, falsify_counts = [], 0, {}
        for spec, falsify, report in reports:
            work += len(report.entries)
            if falsify:
                falsify_counts[str(spec)] = report.n_violations
            note = checks.verify_report(spec, falsify, report.n_violations,
                                        len(report.entries),
                                        len(fset) * len(self.r_grid))
            ops.append(Op(f"{spec} {'falsify' if falsify else 'clean'}",
                          not note,
                          _digest(json.dumps(report.to_dict(), sort_keys=True)),
                          note))
        return PassResult(wall, work, ops, {"falsify_violations": falsify_counts})


# ---------------------------------------------------------------------------
# flow: 1D Fokker-Planck evolutions with grid functionals at every record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowCase:
    name: str
    spec: object
    n_core: int
    n_tail: int
    core_halfwidth: float
    sigma2: float
    t_final: float
    dt: float
    record_every: int
    check_m2: bool = False


FLOW_CASES = (
    FlowCase("gen_cauchy_nu2", GenCauchy(d=1, nu=2.0), 2048, 256, 24.0, 4.0,
             1.6, 2e-4, 250),
    FlowCase("sublinear_a0.5", Sublinear(d=1, alpha=0.5), 2048, 256, 24.0,
             4.0, 1.6, 2e-4, 250),
    FlowCase("gaussian_moment_ode", Gaussian(d=1), 1024, 128, 6.0, 4.0, 0.5,
             2e-5, 5000, check_m2=True),
)


@dataclass(frozen=True)
class Flow:
    """Grid, start density, evolution, then R_2 and (F_2, G_2) per record.

    The evolutions are deterministic; the seed only fixes their order.
    """

    name = "flow"
    work_unit = "cell_steps"
    cases: tuple = FLOW_CASES
    q: float = 2.0

    def inputs(self, seed: int) -> list[FlowCase]:
        cases = list(self.cases)
        random.Random(seed).shuffle(cases)
        return cases

    def n_ops(self, cases: list[FlowCase]) -> int:
        return len(cases)

    def run_pass(self, cases: list[FlowCase], workdir: str,
                 between: Callable[[], float] = no_pause) -> PassResult:
        results = []
        paused = 0.0
        t0 = time.perf_counter()
        for case in cases:
            paused += between()
            grid = hl.make_grid(case.spec, n_core=case.n_core,
                                n_tail=case.n_tail,
                                core_halfwidth=case.core_halfwidth)
            rho0 = hl.gaussian_on_grid(grid, case.sigma2)
            traj = hl.fokker_planck_evolve_1d(
                case.spec, rho0, t_final=case.t_final, dt=case.dt,
                record_every=case.record_every)
            renyi = [hl.renyi_quadrature(f, case.spec, self.q)
                     for f in traj.densities]
            fg = [hl.fq_gq(f, case.spec, self.q) for f in traj.densities]
            results.append((case, traj, renyi, fg))
        wall = time.perf_counter() - t0 - paused
        ops, work = [], 0
        for case, traj, renyi, fg in results:
            steps = round(float(traj.times[-1]) / traj.dt)
            work += len(traj.densities[0].nodes) * steps
            note = checks.flow_case(
                [f.mass for f in traj.densities], renyi,
                [float(t) for t in traj.times],
                [f.m2 for f in traj.densities] if case.check_m2 else None,
                case.sigma2)
            ops.append(Op(case.name, not note, _digest(
                traj.times, *(f.values for f in traj.densities), renyi, fg),
                note))
        return PassResult(wall, work, ops)


WORKLOADS = {w.name: w for w in (Drift(), Sweep(), Verify(), Flow())}
