#!/usr/bin/env python3
"""Fallback-rate experiment over graph size and schedule constants.

Runs the coupled construction on regular sequences d = ceil(log(n)^2) at a
range of sizes, optionally sweeping the zeta slack, and reports the fraction
of runs that hit the escape branch plus trace diagnostics (among them the
escape step as a fraction of the Poisson steps).  Writes one CSV
row per (n, zeta) cell, with the cell's wall time and the process's peak
resident set size so far (cells run in the order given, so list sizes in
ascending order to read each cell's own peak).

Example:
    python scripts/fallback_trend.py --sizes 500,1000,2000 --runs 20 \
        --zetas default,0.6,0.8 --out fallback_trend.csv
"""
from __future__ import annotations

import argparse
import csv
import resource
import sys
import time
from math import ceil, log

from degseq import (
    EtaDenominatorMode,
    RandomSource,
    SeqSampleMode,
    default_params,
    run_coupling,
    subgraph_check,
)
from degseq.deggen import regular_sequence


def run_cell(n: int, zeta: float | None, runs: int, seed: int) -> dict:
    start = time.perf_counter()
    deg = ceil(log(n) ** 2)
    gen = regular_sequence(n, deg)
    params = default_params(gen.degrees, zeta=zeta)
    fallbacks = 0
    eta_mins = []
    fallback_pm = []
    step_fracs = []
    pairs = []
    for run in range(runs):
        g_l, g, tr = run_coupling(
            gen.degrees,
            params,
            SeqSampleMode.ASYMPTOTIC,
            EtaDenominatorMode.CERTIFIED_BOUND,
            RandomSource(seed + n, run),
        )
        eta_mins.append(tr.eta_min)
        if tr.fallback:
            fallbacks += 1
            total = sum(gen.degrees.degrees)
            fallback_pm.append(1.0 - 2.0 * tr.edges_at_step_end / total)
            step_fracs.append(tr.fallback_step / tr.poisson_steps)
        else:
            pairs.append((g_l, g))
    _, violations = subgraph_check(pairs)
    return {
        "n": n,
        "degree": deg,
        "zeta": params.zeta,
        "zeta_prime": params.zeta_prime,
        "lambda_entry_01": params.big_lambda[(0, 1)],
        "runs": runs,
        "fallback_fraction": fallbacks / runs,
        "mean_eta_min": sum(eta_mins) / len(eta_mins),
        "mean_fallback_p_m": (
            sum(fallback_pm) / len(fallback_pm) if fallback_pm else ""
        ),
        "mean_escape_step_frac": (
            sum(step_fracs) / len(step_fracs) if step_fracs else ""
        ),
        "containment_violations": len(violations),
        "wall_s": round(time.perf_counter() - start, 2),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="500,1000,2000")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--zetas", default="default",
                        help="comma list; 'default' uses the schedule value")
    parser.add_argument("--seed", type=int, default=5505)
    parser.add_argument("--out", default="fallback_trend.csv")
    args = parser.parse_args()

    sizes = [int(x) for x in args.sizes.split(",")]
    zetas = [None if z.strip() == "default" else float(z) for z in args.zetas.split(",")]

    rows = []
    for zeta in zetas:
        for n in sizes:
            row = run_cell(n, zeta, args.runs, args.seed)
            rows.append(row)
            print(
                f"n={row['n']:5d} d={row['degree']:3d} zeta={row['zeta']:.3f} "
                f"fallback={row['fallback_fraction']:.2f} "
                f"mean eta_min={row['mean_eta_min']:.3f} "
                f"mean p_m at escape={row['mean_fallback_p_m']} "
                f"mean escape step fraction={row['mean_escape_step_frac']} "
                f"violations={row['containment_violations']} "
                f"wall={row['wall_s']}s peak_rss={row['peak_rss_mb']}MB"
            )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
