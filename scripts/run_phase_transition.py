#!/usr/bin/env python3
"""Measure the subexponential power law of the initialization sweep.

The three-family sweep itself is ``heavytail-lmc phase-transition`` (the
criterion-2 tests run it at d=2 with five start variances and fit one curve
per family).  At that sweep the subexponential chains *start below* the
order-2 surrogate threshold (threshold ~4293 at eps=1 vs initial second
moment <= 2048), so their crossing times are identically 0 and the power law
is invisible.  Their coupling divergences (delta0 <= 16) also sit below the
lower bound's validity threshold (~32.92 at q=2), so those rows carry no
lower bound (``nan``).  This script runs the same family at starts large
enough to begin above the surrogate threshold, where the slope is
measurable.  Each start's lower bound is gated the same way: at
sigma2 = 8192 the divergence delta0 = 32.0 is still below 32.92, so that
start reports no bound; the two larger starts are checked for domination.
The starts run as one ``phase-transition`` sweep of that family (its
``phase.csv``, ``phase.svg`` and ``phase_meta.json`` land next to
``demo_sublinear.csv``; its stdout goes to stderr with the per-leg lines),
and the study is read off the sweep's files.  ``--demo-sublinear`` names
this study, the script's only mode.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from heavytail_lmc import Sublinear
from heavytail_lmc.cli import ExperimentConfig, cmd_phase_transition

SIGMA2S = (8192.0, 32768.0, 131072.0)


def _slope(x, y):
    return float(np.polyfit(x, y, 1)[0])


def run_demo_sublinear(out_dir: str, seed: int) -> int:
    spec = Sublinear(d=2, alpha=0.5, lam=1.0)
    config = ExperimentConfig(
        spec=spec, q=2.0, eps=1.0, sigma2_list=SIGMA2S, h=0.1, n_chains=400,
        n_iters=1_000_000, record_every=500, seed=seed, output_dir=out_dir,
    )
    # the sweep's own stdout (its output paths) joins its per-leg lines
    with contextlib.redirect_stdout(sys.stderr):
        code = cmd_phase_transition(config, ["sublinear"])
    if code != 0:
        return code
    with open(os.path.join(out_dir, "phase.csv"), newline="") as fh:
        measured_col = [row["iters_measured"] for row in csv.DictReader(fh)]
    with open(os.path.join(out_dir, "phase_meta.json")) as fh:
        legs = json.load(fh)["legs"]
    print(f"threshold = {legs[0]['threshold']:.6g} "
          f"({legs[0]['threshold_kind']}); h = {config.h}, "
          f"{config.n_chains} chains, <= {config.n_iters} iterations per start")
    rows = []
    for sigma2, cell, leg in zip(SIGMA2S, measured_col, legs):
        measured = None if cell == "nan" else int(cell)
        delta0 = spec.coupling_delta0(sigma2)
        lower = leg["lower_value"] if leg["lower_feasible"] else math.nan
        if not leg["lower_feasible"]:
            verdict = "no bound (δ0 below threshold)"
        elif measured is not None and measured >= lower:
            verdict = "ok"
        else:
            verdict = "NOT DOMINATED"
        rows.append((sigma2, delta0, measured, lower))
        print(f"  sigma2 = {sigma2:10g}  delta0 = {delta0:10.4g}  "
              f"iters = {measured}  lower_bound = {lower:10.4g}  {verdict}")
    if any(m is None or m <= 0 for _, _, m, _ in rows):
        print("a start never crossed; increase the iteration budget",
              file=sys.stderr)
        return 1
    slope = _slope(np.log([r[1] for r in rows]),
                   np.log([float(r[2]) for r in rows]))
    lb_exp = (2.0 - spec.alpha) ** 2 / (2.0 * spec.alpha)
    print(f"log-log slope of iterations against delta0: {slope:.4f} "
          f"(lower-bound exponent {lb_exp:.4g}; crossings must scale "
          f"at least this fast)")
    path = f"{out_dir}/demo_sublinear.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sigma2", "delta0_bound", "iters_measured",
                         "iters_lower_bound"])
        for sigma2, delta0, measured, lower in rows:
            writer.writerow([f"{sigma2:.12g}", f"{delta0:.12g}", measured,
                             f"{lower:.12g}"])
    print(path)
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output-dir", default=".")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--demo-sublinear", action="store_true",
                    help="the subexponential study at starts above the "
                         "surrogate threshold (the script's only mode)")
    return ap.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    os.makedirs(args.output_dir, exist_ok=True)
    sys.exit(run_demo_sublinear(args.output_dir, args.seed))
