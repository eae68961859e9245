#!/usr/bin/env python3
"""Evolve N(0, 4) toward the 1D log-tailed target and tabulate the decay.

Runs ``heavytail-lmc fp-evolve`` for the generalized-Cauchy target (d = 1,
nu = 2) from a gaussian start (its stdout goes to stderr), which writes the
trajectory CSV ``fp.csv`` (t, R_q, F_q, G_q, mass, m2) at q = 2.  From that
table the script prints

* the worst relative error of the decay identity dR_q/dt = -q G_q / F_q
  across all resolvable records, and
* for a ladder of divergence levels eps: the measured first time with
  R_2 <= eps next to the explicit diffusion-time bound evaluated with
  unit constants (the bound is loose by design; the point is domination).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from heavytail_lmc import (
    BoundQuery,
    GenCauchy,
    beta_for_spec,
    diffusion_time_bound,
    gaussian_on_grid,
    grid_r_inf,
    make_grid,
)
from heavytail_lmc.cli import main

SPEC = GenCauchy(d=1, nu=2.0)
SIGMA2 = 4.0
GRID = {"n_core": 2048, "n_tail": 256, "core_halfwidth": 24.0}


def run(out_dir: str, t_final: float, dt: float, record_every: int) -> int:
    argv = ["fp-evolve", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
            "--q", "2", f"--sigma2={SIGMA2!r}", f"--t-final={t_final!r}",
            f"--dt={dt!r}", f"--record-every={record_every}",
            f"--output-dir={out_dir}"]
    argv += [f"--{name.replace('_', '-')}={v}" for name, v in GRID.items()]
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    if code != 0:
        return code
    csv_path = os.path.join(out_dir, "fp.csv")
    times, rs, fs, gs = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                                   usecols=range(4), unpack=True)
    deriv = (rs[2:] - rs[:-2]) / (times[2:] - times[:-2])
    pred = -2.0 * gs[1:-1] / fs[1:-1]
    mask = np.abs(deriv) > 1e-4
    worst = float(np.max(np.abs(deriv[mask] - pred[mask]) / np.abs(deriv[mask])))
    print(f"records: {len(times)}, R_2 from {rs[0]:.4f} to {rs[-1]:.6f}")
    print(f"worst decay-identity relative error (|dR/dt| > 1e-4): {worst:.3%}")

    r2_0 = float(rs[0])
    # the t = 0 frame of the run above, rebuilt from the flags' grid
    rinf_0 = grid_r_inf(gaussian_on_grid(make_grid(SPEC, **GRID), SIGMA2), SPEC)
    beta = beta_for_spec(SPEC)
    print(f"{'eps':>8} {'t_measured':>12} {'time_bound':>14}")
    for eps in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01):
        crossed = times[rs <= eps]
        query = BoundQuery(q=2.0, q_prime=math.inf, eps=eps, spec=SPEC,
                           sigma2=SIGMA2, r_init={"q": r2_0, "qprime": rinf_0})
        bound = diffusion_time_bound(query, beta).value
        if crossed.size:
            t_star = float(crossed[0])
            ok = "ok" if t_star <= bound else "VIOLATION"
            print(f"{eps:8g} {t_star:12.4f} {bound:14.4f}  {ok}")
        else:
            print(f"{eps:8g} {'not reached':>12} {bound:14.4f}")
    print(csv_path)
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output-dir", default=".")
    ap.add_argument("--t-final", type=float, default=8.0)
    ap.add_argument("--dt", type=float, default=2e-4)
    ap.add_argument("--record-every", type=int, default=250)
    return ap.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run(args.output_dir, args.t_final, args.dt, args.record_every))
