"""Benchmark launcher for degseq.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker
processes (`worker.py`) with the BLAS and OpenMP thread variables set to 1
and `src` on PYTHONPATH.  With `--trace 0` the launcher runs the workload's
set-up in fresh processes (SETUPS), one of them followed by the timed
replicas and the others split between before and after it, and prints
the end-to-end metrics.  Their times are in reference seconds: each
worker samples the machine's speed while it runs (calibrate.py).  With
`--trace 1`
it runs one traced worker and prints the per-layer metrics.  Either way it
then runs `fidelity.py` in one more process: if a replay no longer writes
what `degseq.cli.main` writes, `correct` is false.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Outputs go to `.benchmark-out/` and are removed after the run, except the
traced run's spans.  See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("couple-large", "gnw-large", "replicas-small", "oracle-mid")
# cold set-ups per run, each in its own process; setup_s is their median.
# Half run before the timed phase and half after, so they sample the
# machine's speed over the whole run.  replicas-small times its set-ups in
# the timed phase's process instead.
SETUPS = {"couple-large": 5, "gnw-large": 3, "replicas-small": 1, "oracle-mid": 3}

END_TO_END_UNITS = {
    "replicas_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_fraction": "ratio",
}
LAYER_UNITS = {
    "randomness.source_init_us": "us",
    "randomness.uniform_ns": "ns/draw",
    "randomness.alias_draw_ns": "ns/draw",
    "randomness.poisson_us": "us/draw",
    "randomness.uniforms_per_replica": "count",
    "deggen.generate_s": "s",
    "graphs.tri_pairs_cold_s": "s",
    "graphs.w_build_s": "s",
    "graphs.dense_bytes": "bytes",
    "graphs.simplegraph_build_s": "s",
    "coupling.default_params_s": "s",
    "coupling.run_self_s": "s/replica",
    "coupling.candidate_steps_per_s": "1/s",
    "coupling.accept_ratio": "ratio",
    "coupling.escape_fraction": "ratio",
    "coupling.escape_step_frac": "ratio",
    "samplers.redraw_s": "s/replica",
    "samplers.redraw_uniforms_per_edge": "ratio",
    "samplers.restarts": "count",
    "samplers.gnw_s": "s/replica",
    "samplers.approx_p_s": "s/replica",
    "samplers.exact_gnd_s": "s/replica",
    "oracle.enumerate_cold_s": "s",
    "oracle.masks_per_s": "1/s",
    "oracle.family_size": "count",
    "oracle.marginals_s": "s",
    "oracle.uniform_sample_us": "us",
    "stats.check_s": "s/call",
    "io.edge_write_s": "s/file",
    "io.matrix_csv_s": "s",
    "io.family_write_s": "s",
    "io.bytes_written": "bytes",
    "runtime.gc_pause_s": "s",
    "runtime.trace_overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def fidelity(seed: int, env: dict, deadline: float) -> bool:
    """Run fidelity.py's reduced-size checks; True when every file matches."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "fidelity.py"), "--seed", str(seed)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"fidelity.py did not finish within {DEADLINE_S:.0f} s") from None
    for line in proc.stdout.splitlines():
        print(f"fidelity: {line}", file=sys.stderr)
    if proc.returncode not in (0, 1):
        raise WorkerError(f"fidelity.py exited with code {proc.returncode}")
    return proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "degseq" / "__init__.py").is_file():
        print(f"error: no degseq sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    run_dir = ROOT / ".benchmark-out" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    try:
        if args.trace:
            res = worker(common + ["--out", str(run_dir / "traced"), "--trace"], env, deadline)
            runs = [res]
        else:
            setup_only = [f"setup{k}" for k in range(SETUPS[args.workload] - 1)]
            half = len(setup_only) // 2
            runs = []
            for name in setup_only[:half] + ["main"] + setup_only[half:]:
                extra = [] if name == "main" else ["--setup-only"]
                runs.append(worker(common + ["--out", str(run_dir / name)] + extra, env,
                                   deadline))
            res = runs[half]
        replays_match = fidelity(args.seed, env, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + (not replays_match)
    correct = replays_match and all(r["exact_failures"] == 0 for r in runs)
    print(f"environment: {json.dumps(res['environment'], sort_keys=True)}")
    if args.trace:
        values = res.get("layers", {})
        units = LAYER_UNITS
    else:
        # the workers report times in reference seconds (calibrate.py)
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        correct = correct and len(setups) == len(runs) and "replicas" in res
        values = {
            "replicas_per_s": res["replicas"] / res["replica_s"] if res.get("replica_s") else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": res.get("peak_rss_mb", 0.0),
            "passed_fraction": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = END_TO_END_UNITS
        print(f"replicas timed: {res.get('replicas', 0)} in "
              f"{res.get('replica_measured_s', 0):.2f} s ({res.get('replica_s', 0):.2f} "
              "reference s); set-ups in reference s: "
              + ", ".join(f"{s:.4f}" for s in setups))
        print("speed factors (reference s per s; of the timed phase for the replicas' process): "
              + ", ".join(f"{r['speed']:.4f}" for r in runs if "speed" in r))
        print(f"failed_fraction: {failed}/{attempted}")
    correct = correct and set(values) == set(units)
    for name, unit in units.items():
        print(f"{name}: {values.get(name, float('nan')):.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
