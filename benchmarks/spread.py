"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads couple-large,oracle-mid --seeds 1-10
                                 [--seconds 20] [--json PATH]

Runs `run.py --trace 0` once per workload and seed, one run at a time, and
prints for every end-to-end metric its median and the distance between its
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median.  A run that fails or reports `correct: false` is listed and
left out of the statistics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    res = json.loads(lines[-1])
    return res if res["correct"] else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--json", default=None, help="also write every run's metrics here")
    args = ap.parse_args(argv)
    record: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            res = run(workload, seed, args.seconds)
            if res is None:
                print(f"{workload} seed {seed}: failed or incorrect", flush=True)
                continue
            record.setdefault(workload, {})[seed] = res
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"{workload:15s} {name:16s} n={len(vals):2d} median={med:.6g} "
                  f"iqr/median={spread:.4f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
