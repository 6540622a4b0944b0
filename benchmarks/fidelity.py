"""Check that the benchmark's replays write what the `degseq` commands write.

    python3 benchmarks/fidelity.py [--seed N] [--runs R]

For each workload, at a reduced size of the same shape, every replay in
`replay.py` runs set-up, R replicas and finish, and `degseq.cli.main` runs
with the same flags and seed.  Every file must be byte-identical, except
`wall_time_s` in `metadata.json`.  Commands whose workload does not save
graphs run here with `--save-graphs` as well, so the replica outputs are
compared too.  The battery streams of replicas-small have no command of
their own; their C2 and C4 outputs are compared with the files of the
`sample-gnd` and `couple` runs that make the same calls.  Exits 1 on any
difference.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from degseq import cli, io  # noqa: E402

import replay  # noqa: E402


def commands(out: Path, seed: int) -> list:
    """Reduced-size replays, one group per workload."""
    small = "powerlaw(300,2.5,12,25)"
    return [
        # couple-large: regular(n, ceil(ln^2 n)) at n = 300
        replay.Couple(out / "couple-large", "regular(300,33)", seed, save_graphs=True),
        # gnw-large
        replay.SampleGnw(out / "gnw-large-sample-gnw", small, seed, save_graphs=True),
        replay.SeqApproxP(out / "gnw-large-seq-approx-p", small, seed, save_graphs=True),
        # oracle-mid
        replay.Oracle(out / "oracle-mid-oracle", "regular(6,2)", seed, family_size=None),
        replay.SampleGnd(out / "oracle-mid-gnd", "regular(6,2)", seed, mode="exact",
                         save_graphs=True),
        replay.Couple(out / "oracle-mid-couple", "regular(6,2)", seed, mode="exact",
                      denom="exact-max", save_graphs=True),
    ]


def compare(a: Path, b: Path, only: set[str] | None = None) -> list[str]:
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    if only is None and names_a != names_b:
        return [f"{a.name}: files differ: replay only {sorted(names_a - names_b)}, "
                f"command only {sorted(names_b - names_a)}"]
    if only is not None and not only <= names_b:
        return [f"{a.name}: the command did not write {sorted(only - names_b)}"]
    errors = []
    for name in sorted(only if only is not None else names_a):
        x, y = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "metadata.json":
            x, y = (_without_wall_time(v) for v in (x, y))
        if x != y:
            errors.append(f"{a.name}/{name} differs from the command's")
    return errors


def _without_wall_time(raw: bytes) -> dict:
    meta = json.loads(raw)
    meta.pop("wall_time_s", None)
    return meta


def check_command(cmd, runs: int, cli_out: Path) -> list[str]:
    cmd.setup()
    n = runs if cmd.has_replicas else 1
    for i in range(n if cmd.has_replicas else 0):
        cmd.replica(i)
    cmd.finish(n)
    code = cli.main(cmd.argv(n) + ["--out", str(cli_out)])
    if code != 0:
        return [f"{cmd.label}: degseq exited with {code}"]
    return compare(cmd.out, cli_out)


def check_stream(stream, runs: int, seed: int, replay_out: Path, cli_out: Path) -> list[str]:
    """Write a battery stream's outputs as the matching command would."""
    replay_out.mkdir(parents=True)
    stream.setup()
    written, traces = set(), []
    for i in range(runs):
        out = stream.replica(i)
        if isinstance(out, tuple):
            g_l, g, tr = out
            traces.append(tr.to_json_dict())
            pairs = [(f"run_{i:05d}_lower.edges", g_l), (f"run_{i:05d}_upper.edges", g)]
        else:
            pairs = [(f"run_{i:05d}.edges", out)]
        for name, graph in pairs:
            io.write_edge_list(replay_out / name, graph)
            written.add(name)
    if traces:
        io.write_trace_ndjson(replay_out / "traces.ndjson", traces)
        written.add("traces.ndjson")
    argv = stream.argv + ["--seed", str(seed), "--runs", str(runs), "--out", str(cli_out),
                          "--save-graphs"]
    code = cli.main(argv)
    if code != 0:
        return [f"{stream.label}: degseq exited with {code}"]
    return compare(replay_out, cli_out, only=written)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args(argv)
    work = ROOT / ".benchmark-out" / f"fidelity-{os.getpid()}"
    errors = []
    try:
        for cmd in commands(work / "replay", args.seed):
            errs = check_command(cmd, args.runs, work / "cli" / cmd.out.name)
            print(f"{'ok  ' if not errs else 'FAIL'} {cmd.label}")
            errors += errs
        for stream in (replay.ExactGndStream(args.seed), replay.ExactCoupleStream(args.seed)):
            name = stream.argv[0]
            errs = check_stream(stream, args.runs, args.seed, work / "replay" / f"battery-{name}",
                                work / "cli" / f"battery-{name}")
            print(f"{'ok  ' if not errs else 'FAIL'} {stream.label}")
            errors += errs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
