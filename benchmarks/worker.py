"""One benchmark workload, run in this process.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --out DIR
                                 [--setup-only | --trace]

`run.py` starts this script in a fresh process with the thread variables
set; run alone, it needs `src` on PYTHONPATH.  It prints its own result as
one JSON line on stdout and notes on stderr.  With `--setup-only` it stops
after set-up.  With `--trace` it records spans (see `tracing.py`) and
reports per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import calibrate
import degseq
import replay
import tracing
from degseq import graphs, randomness, stats

ROOT = Path(__file__).resolve().parent.parent
STAT_RUNS = 40_000   # replicas per stream that the statistical checks use
SETUP_EVERY = 100    # cycles between batches of interleaved set-ups (Workload.setup_batch)
# A statistic this far past THRESHOLDS fails the battery on its own.  On a
# correct program each is about 1e-4 (p-value) or 2e-9 (per edge or pair).
FAR_P = stats.THRESHOLDS.p_min / 100
FAR_Z = stats.THRESHOLDS.z_max + 1.5
FAR_BAND = 2.0   # covariance band multiple: 6 sigma at THRESHOLDS.sigma = 3


@dataclass
class Workload:
    name: str
    streams: list            # in set-up order
    cycle: list              # one replica of each per cycle
    trace_cycles: int        # cycles replayed under tracing
    probe: object            # stream whose degrees and lam the probes use
    min_cycles: int = 1
    # cold set-ups timed after every SETUP_EVERY cycles of the timed phase,
    # for a set-up too short to time once; setup_s is the median of all
    setup_batch: int = 0
    stat_checks: Callable[[dict], list[tuple[str, bool, bool, str]]] | None = None


def couple_large(out: Path, seed: int) -> Workload:
    cpl = replay.Couple(out / "couple", "regular(10000,85)", seed, save_graphs=True)
    # at least three replicas: where a run escapes moves its time by up to 15%
    return Workload("couple-large", [cpl], [cpl], trace_cycles=3, probe=cpl, min_cycles=3)


def gnw_large(out: Path, seed: int) -> Workload:
    spec = "powerlaw(3000,2.5,12,25)"
    gnw = replay.SampleGnw(out / "sample-gnw", spec, seed)
    sap = replay.SeqApproxP(out / "seq-approx-p", spec, seed)
    return Workload("gnw-large", [gnw, sap], [gnw, sap], trace_cycles=4, probe=sap)


def replicas_small(out: Path, seed: int) -> Workload:
    c1 = replay.PoissonizedStream(seed)
    c2 = replay.ExactGndStream(seed)
    c4 = replay.ExactCoupleStream(seed)

    def battery(outputs: dict) -> list[tuple[str, bool, bool, str]]:
        # the battery's C1, C2 and C4 statistics at THRESHOLDS:
        # (name, passed, far past THRESHOLDS, detail)
        def marginals(name, report):
            far = bool(report.exact_violations) or report.worst_abs_z >= FAR_Z
            return (name, report.passed(), far, f"worst |z| {report.worst_abs_z:.2f}, "
                    f"{len(report.exact_violations)} exact violations")

        def gof(name, report):
            return (name, report.passed(), report.p_value < FAR_P, f"p {report.p_value:.3g}")

        cov1 = stats.pairwise_covariance(outputs[c1])
        return [
            marginals("C1 marginals", stats.empirical_marginals(outputs[c1], c1.w_ref)),
            ("C1 covariance", cov1.passed(),
             any(abs(cov) > FAR_BAND * band for *_, cov, band in cov1.violations),
             f"{len(cov1.violations)} violations"),
            gof("C2 uniformity", stats.chi_square_gof(outputs[c2], c2.law)),
            marginals("C4 lower law",
                      stats.empirical_marginals([g_l for g_l, _, _ in outputs[c4]], c4.w_ref)),
            gof("C4 upper law", stats.chi_square_gof([g for _, g, _ in outputs[c4]], c4.law)),
        ]

    # pairwise_covariance needs 1e4 runs; 4e4 give the checks the power to
    # see a 10% error in C1's lam.  The statistics use the first 4e4 of each
    # stream, so memory does not grow with the replica count.  One
    # set-up takes under a millisecond, so set-ups are timed throughout the
    # timed phase, in the same drift of the machine's speed as the replicas.
    return Workload("replicas-small", [c1, c2, c4], [c1, c2, c4], trace_cycles=300,
                    probe=c1, min_cycles=STAT_RUNS, setup_batch=20, stat_checks=battery)


def oracle_mid(out: Path, seed: int) -> Workload:
    streams = []
    for spec, size in (("regular(8,3)", 19_355), ("regular(9,2)", 30_016)):
        tag = spec.replace("(", "-").replace(",", "-").rstrip(")")
        streams += [
            replay.Oracle(out / f"oracle-{tag}", spec, seed, family_size=size),
            replay.SampleGnd(out / f"gnd-{tag}", spec, seed, mode="exact"),
            replay.Couple(out / f"couple-{tag}", spec, seed, mode="exact", denom="exact-max"),
        ]
    cycle = [s for s in streams if s.has_replicas]
    return Workload("oracle-mid", streams, cycle, trace_cycles=6, probe=streams[2])


WORKLOADS = {
    "couple-large": couple_large,
    "gnw-large": gnw_large,
    "replicas-small": replicas_small,
    "oracle-mid": oracle_mid,
}


@dataclass
class Record:
    """Steps attempted and failed: set-ups, replicas and statistical checks."""

    attempted: int = 0
    failed: int = 0
    exact_failures: int = 0
    notes: list[str] = field(default_factory=list)

    def step(self, errors: list[str], exact: bool = True) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.exact_failures += exact
            if len(self.notes) < 30:
                self.notes.extend(errors[:3])

    def crash(self, what: str) -> None:
        self.step([f"{what} raised:\n{traceback.format_exc()}"])


@dataclass
class Phase:
    replicas: int = 0
    seconds: float = 0.0
    largest: graphs.SimpleGraph | None = None
    cycle_ends: list[tuple[int, float]] = field(default_factory=list)

    def rate(self, first: int = 0, stop: int | None = None) -> float:
        """Replicas per second over cycles first..stop-1 (all cycles by default)."""
        ends = [(0, 0.0)] + self.cycle_ends
        stop = len(self.cycle_ends) if stop is None else stop
        if stop <= first:
            return 0.0
        replicas = ends[stop][0] - ends[first][0]
        seconds = ends[stop][1] - ends[first][1]
        return replicas / seconds if seconds > 0 else 0.0


def run_phase(wl: Workload, done: Callable[[int, float], bool], rec: Record,
              tracer: tracing.Tracer | None = None, keep: dict | None = None,
              between: Callable[[], None] | None = None,
              clock: Callable[[], float] = time.perf_counter) -> Phase:
    """Run whole cycles of replicas until `done(cycles, replica_seconds)`.

    Only the replica calls are timed; each output is checked between them.
    Replica i of every stream draws from RandomSource(seed, i).  The phase
    stops early when every replica of a cycle raises.  `between` runs,
    untimed, after every SETUP_EVERY cycles.  `clock` times the replicas.
    """
    phase = Phase()
    cycles = 0
    crashed = 0
    while crashed < len(wl.cycle) and not done(cycles, phase.seconds):
        crashed = 0
        for s in wl.cycle:
            start = clock()
            try:
                if tracer is None:
                    out = s.replica(cycles)
                else:
                    tracer.replica = cycles
                    with tracer.span(f"replica {s.kind}"):
                        out = s.replica(cycles)
            except Exception:
                phase.seconds += clock() - start
                rec.crash(f"{s.label} replica {cycles}")
                crashed += 1
                continue
            phase.seconds += clock() - start
            phase.replicas += 1
            if tracer is None:
                rec.step(s.check(cycles, out))
            else:
                with tracer.paused():
                    rec.step(s.check(cycles, out))
            if keep is not None and cycles < STAT_RUNS:
                keep.setdefault(s, []).append(out)
            g = out[1] if isinstance(out, tuple) else out
            if phase.largest is None or g.num_edges > phase.largest.num_edges:
                phase.largest = g
        cycles += 1
        phase.cycle_ends.append((phase.replicas, phase.seconds))
        if between is not None and cycles % SETUP_EVERY == 0:
            between()
    if tracer is not None:
        tracer.replica = None
    return phase


def setup(wl: Workload, rec: Record) -> bool:
    """Set up every stream; commands without replicas write their files now."""
    for s in wl.streams:
        try:
            s.setup()
            if not s.has_replicas:
                s.finish(1)
        except Exception:
            rec.crash(f"{s.label} set-up")
            return False
    return True


def check_setup(wl: Workload, rec: Record) -> None:
    for s in wl.streams:
        rec.step(s.check_setup())


def finish(wl: Workload, cycles: int, rec: Record, outputs: dict | None) -> None:
    """Write the commands' closing files, then run the statistical checks.

    Each statistic that fails counts in `failed`.  One failure alone is the
    false alarm a correct program raises in about 3% of runs, so the battery
    as a whole fails, and sets `correct` to false, only when more than one
    statistic fails or one fails far past THRESHOLDS.
    """
    try:
        for s in wl.cycle:
            s.finish(cycles)
        checks = wl.stat_checks(outputs) if wl.stat_checks is not None else []
    except Exception:
        rec.crash("finish")
        return
    for name, passed, far, detail in checks:
        rec.step([] if passed else [f"statistical check {name} failed: {detail}"], exact=False)
        note(f"{name}: {'pass' if passed else 'FAR OFF' if far else 'FAIL'} ({detail})")
    if checks:
        failed = [name for name, passed, _, _ in checks if not passed]
        far = [name for name, _, far, _ in checks if far]
        broken = len(failed) > 1 or far
        rec.step([f"the battery fails: {', '.join(failed)} failed, {', '.join(far) or 'none'} "
                  "far past THRESHOLDS"] if broken else [])


def clear_caches() -> None:
    """Empty every functools cache in the degseq package, as a new process finds them."""
    for name, module in list(sys.modules.items()):
        if name == "degseq" or name.startswith("degseq."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# -- per-layer metrics ---------------------------------------------------------


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def probe(wl: Workload, seed: int, largest: graphs.SimpleGraph) -> dict:
    """Per-call costs measured directly on the workload's own inputs."""
    s = wl.probe
    lam = s.lam if hasattr(s, "lam") else s.params.lam
    k = 200
    start = time.perf_counter()
    for i in range(k):
        randomness.RandomSource(seed, i)
    init_us = (time.perf_counter() - start) / k * 1e6
    rng = randomness.RandomSource(seed, 10**6)
    k = 200_000
    start = time.perf_counter()
    for _ in range(k):
        rng.uniform()
    uniform_ns = (time.perf_counter() - start) / k * 1e9
    table = randomness.AliasTable(s.d.degrees)
    k = 100_000
    start = time.perf_counter()
    for _ in range(k):
        table.sample(rng)
    alias_ns = (time.perf_counter() - start) / k * 1e9
    k = 2000
    start = time.perf_counter()
    for _ in range(k):
        randomness.sample_poisson(lam, rng)
    poisson_us = (time.perf_counter() - start) / k * 1e6
    edges = list(largest.edges)
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        graphs.SimpleGraph(largest.n, frozenset(edges))
        builds.append(time.perf_counter() - start)
    return {
        "randomness.source_init_us": init_us,
        "randomness.uniform_ns": uniform_ns,
        "randomness.alias_draw_ns": alias_ns,
        "randomness.poisson_us": poisson_us,
        "graphs.simplegraph_build_s": statistics.median(builds),
    }


def layer_metrics(tr: tracing.Tracer, traced: Phase, untraced: Phase, probes: dict) -> dict:
    def dur(name, keep=lambda sp: True):
        return [sp.duration for sp in tr.named(name) if keep(sp)]

    replica_ids = {sp.id for sp in tr.spans if sp.name.startswith("replica ")}
    top = [sp for sp in tr.spans if sp.parent in replica_ids]
    couplings = tr.named("coupling.run_coupling")
    traces = [sp.extra["trace"] for sp in couplings]
    escaped = [t for t in traces if t.fallback]
    run_self = sum(sp.self_s for sp in couplings)
    redraws = tr.named("samplers.redraw")
    cold_enum = [sp for sp in tr.named("oracle.enumerate_graphs") if sp.extra["cold"]]
    enum_s = sum(sp.duration for sp in cold_enum)
    family = sum(sp.extra["family_size"] for sp in cold_enum)
    m = dict(probes)
    m.update({
        "randomness.uniforms_per_replica": _ratio(sum(sp.extra.get("draws", 0) for sp in top),
                                                  len(replica_ids)),
        "deggen.generate_s": sum(dur("deggen.generate")),
        "graphs.tri_pairs_cold_s": sum(dur("graphs.tri_pairs")),
        "graphs.w_build_s": sum(dur("graphs.w_build")),
        "graphs.dense_bytes": sum(sp.extra.get("dense_bytes", 0) for sp in tr.spans),
        "coupling.default_params_s": sum(dur("coupling.default_params")),
        "coupling.run_self_s": _ratio(run_self, len(couplings)),
        "coupling.candidate_steps_per_s": _ratio(sum(t.poisson_steps for t in traces), run_self),
        "coupling.accept_ratio": _ratio(
            sum(t.insertions_both + t.rejections_l_only for t in traces),
            sum(t.steps_total for t in traces)),
        "coupling.escape_fraction": _ratio(len(escaped), len(traces)),
        "coupling.escape_step_frac": _ratio(sum(t.fallback_step for t in escaped),
                                            sum(t.poisson_steps for t in escaped)),
        "samplers.redraw_s": _ratio(sum(sp.duration for sp in redraws), len(couplings)),
        "samplers.redraw_uniforms_per_edge": _ratio(sum(sp.extra["draws"] for sp in redraws),
                                                    sum(sp.extra["edges"] for sp in redraws)),
        "samplers.restarts": sum(sp.extra["restarts"] for sp in redraws),
        "samplers.gnw_s": _mean(dur("samplers.sample_gnw")),
        "samplers.approx_p_s": _mean(dur("samplers.seq_approx_p")),
        "samplers.exact_gnd_s": _mean(dur("samplers.seq_sample_d", lambda sp: sp.extra["exact"])),
        "oracle.enumerate_cold_s": enum_s,
        "oracle.masks_per_s": _ratio(family, enum_s),
        "oracle.family_size": family,
        "oracle.marginals_s": sum(dur("oracle.exact_edge_marginals")),
        "oracle.uniform_sample_us": _mean(dur("oracle.exact_uniform_sample")) * 1e6,
        "stats.check_s": _mean(dur("stats.check")),
        "io.edge_write_s": _mean(dur("io.write_edge_list")),
        "io.matrix_csv_s": sum(dur("io.write_matrix_csv")),
        "io.family_write_s": sum(dur("io.write_family")),
        "io.bytes_written": sum(sp.extra.get("bytes", 0) for sp in tr.spans),
        "runtime.gc_pause_s": tr.gc_pause_s,
        "runtime.trace_overhead_frac": 1.0 - _ratio(*overhead_rates(traced, untraced)),
    })
    return m


def overhead_rates(traced: Phase, untraced: Phase) -> tuple[float, float]:
    """Traced and untraced rates over the same replica cycles.

    The traced cycles run first after set-up, so the first cycle, which
    pays one-off costs such as the first collection of set-up's objects,
    is left out of both when there is more than one.
    """
    n = len(traced.cycle_ends)
    first = 1 if n > 1 else 0
    return traced.rate(first, n), untraced.rate(first, n)


# -- modes -----------------------------------------------------------------------


def measure(wl: Workload, spare: Workload, seconds: float, setup_only: bool) -> dict:
    """Untraced: time set-up, then replicas for `seconds` of replica time.

    With `wl.setup_batch`, `spare`, a second instance of the workload, is
    set up that many times between replica cycles, each time from empty
    degseq caches; `setup_s` is the median of those and the first set-up.
    A `calibrate.Meter` samples the machine's speed throughout.  Each
    set-up or batch of set-ups is scaled to reference seconds by the mean
    speed sampled from just before it to just after it, and the replicas
    by the mean speed sampled during the timed phase.  `replica_s` is in
    reference seconds and `replica_measured_s` in seconds.
    """
    rec = Record()
    setups: list[float] = []
    with calibrate.Meter() as meter:

        def timed_setups(w: Workload, count: int, cold: bool) -> bool:
            first = len(meter.speeds)
            meter.sample()
            times = []
            for _ in range(count):
                if cold:
                    clear_caches()
                start = meter.clock()
                if not setup(w, rec):
                    return False
                times.append(meter.clock() - start)
            meter.sample()
            setups.extend(t * meter.speed(first) for t in times)
            return True

        if not timed_setups(wl, 1, cold=False):
            return result(rec)
        check_setup(wl, rec)
        if setup_only:
            return result(rec, setup_s=setups[0], speed=meter.speed())
        outputs: dict | None = {} if wl.stat_checks else None
        first = len(meter.speeds)
        phase = run_phase(wl, lambda c, t: t >= seconds and c >= wl.min_cycles, rec,
                          keep=outputs, clock=meter.clock,
                          between=(lambda: timed_setups(spare, wl.setup_batch, cold=True))
                          if wl.setup_batch else None)
        phase_speed = meter.speed(first)
    peak = peak_rss_mb()
    finish(wl, phase.replicas // len(wl.cycle), rec, outputs)
    return result(rec, setup_s=statistics.median(setups), speed=phase_speed,
                  replicas=phase.replicas, replica_s=phase.seconds * phase_speed,
                  replica_measured_s=phase.seconds, peak_rss_mb=peak)


def trace(wl: Workload, seconds: float, seed: int, spans_path: Path) -> dict:
    """Traced set-up and fixed replica cycles, then the usual untraced phase."""
    rec = Record()
    tr = tracing.Tracer()
    tr.install()
    with tr.span("setup"):
        ok = setup(wl, rec)
    if not ok:
        tr.uninstall()
        return result(rec)
    with tr.paused():
        check_setup(wl, rec)
    for s in wl.cycle:
        s.rng_cls = tracing.CountingRandomSource
    traced = run_phase(wl, lambda c, t: c >= wl.trace_cycles, rec, tracer=tr)
    tr.uninstall()
    for s in wl.cycle:
        s.rng_cls = randomness.RandomSource
    outputs: dict | None = {} if wl.stat_checks else None
    least = max(wl.min_cycles, wl.trace_cycles)
    untraced = run_phase(wl, lambda c, t: t >= seconds and c >= least, rec, keep=outputs)
    tr.install()
    with tr.span("finish"):
        finish(wl, untraced.replicas // len(wl.cycle), rec, outputs)
    tr.uninstall()
    tr.write(spans_path)
    largest = traced.largest or graphs.SimpleGraph.empty(2)
    metrics = layer_metrics(tr, traced, untraced, probe(wl, seed, largest))
    if wl.name == "couple-large":
        accounted = (metrics["samplers.redraw_s"] + metrics["coupling.run_self_s"]
                     + 2 * metrics["io.edge_write_s"]) * traced.replicas
        note(f"redraw + run_coupling self + edge writes cover "
             f"{accounted / traced.seconds:.1%} of the traced replica time")
    rate_traced, rate_untraced = overhead_rates(traced, untraced)
    note(f"tracing overhead over the same cycles: untraced {rate_untraced:.4g} replicas/s, "
         f"traced {rate_traced:.4g} replicas/s ({metrics['runtime.trace_overhead_frac']:+.1%})")
    note(f"spans written to {spans_path} ({len(tr.spans)} spans)")
    return result(rec, layers=metrics, replicas=untraced.replicas + traced.replicas)


def result(rec: Record, **values) -> dict:
    for msg in rec.notes:
        note(msg)
    return {"attempted": rec.attempted, "failed": rec.failed,
            "exact_failures": rec.exact_failures, **values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if not Path(degseq.__file__).resolve().is_relative_to(ROOT / "src"):
        note(f"error: degseq was imported from {degseq.__file__}, not from {ROOT / 'src'}")
        return 3
    out = Path(args.out)
    wl = WORKLOADS[args.workload](out, args.seed)
    if args.trace:
        spans = ROOT / ".benchmark-out" / f"spans-{wl.name}.ndjson"
        res = trace(wl, args.seconds, args.seed, spans)
    else:
        spare = WORKLOADS[args.workload](out / "spare", args.seed)
        res = measure(wl, spare, args.seconds, args.setup_only)
    res["environment"] = environment(args.seed)
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
