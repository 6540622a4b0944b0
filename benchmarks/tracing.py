"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces public `degseq` functions, at each place a
caller looks them up, with wrappers that record a span: name, start, end,
parent span and replica id.  Spans stay in memory until `write()`.  A
layer's self time is its span minus the time its child spans cover.

Counts come from outside the program as well: `CountingRandomSource`
counts uniform draws, the escape-redraw wrapper passes in its own
`SamplerDiagnostics`, the `run_coupling` wrapper keeps each
`CouplingTrace`, and `gc.callbacks` time the collector's pauses.
"""
from __future__ import annotations

import contextlib
import gc
import json
import os
import time
from pathlib import Path

import degseq
from degseq import coupling, deggen, graphs, io, oracle, randomness, samplers, stats

MODULES = (degseq, coupling, deggen, graphs, io, oracle, randomness, samplers, stats)

# (module that defines it, function name, span name); the span name is the
# one used wherever the function is looked up, except for the overrides below
WRAPPED = [
    (deggen, "parse_generator_spec", "deggen.generate"),
    (graphs, "tri_pairs", "graphs.tri_pairs"),
    (graphs, "p_matrix", "graphs.w_build"),
    (graphs, "q_matrix", "graphs.w_build"),
    (graphs, "hadamard", "graphs.w_build"),
    (graphs, "f_c_transform", "graphs.w_build"),
    (coupling, "lambda_matrix", "coupling.lambda_matrix"),
    (coupling, "default_params", "coupling.default_params"),
    (coupling, "run_coupling", "coupling.run_coupling"),
    (samplers, "seq_sample_d", "samplers.seq_sample_d"),
    (samplers, "sample_gnw", "samplers.sample_gnw"),
    (samplers, "seq_approx_p", "samplers.seq_approx_p"),
    (oracle, "enumerate_graphs", "oracle.enumerate_graphs"),
    (oracle, "exact_edge_marginals", "oracle.exact_edge_marginals"),
    (oracle, "exact_uniform_sample", "oracle.exact_uniform_sample"),
    (stats, "empirical_marginals", "stats.check"),
    (stats, "pairwise_covariance", "stats.check"),
    (stats, "chi_square_gof", "stats.check"),
    (stats, "subgraph_check", "stats.check"),
    (io, "write_edge_list", "io.write_edge_list"),
    (io, "write_matrix_csv", "io.write_matrix_csv"),
    (io, "write_family", "io.write_family"),
    (io, "write_degree_file", "io.write_file"),
    (io, "write_trace_ndjson", "io.write_file"),
]
# the coupling's escape redraw is `seq_sample_d` as `degseq.coupling` sees it
OVERRIDES = {(coupling, "seq_sample_d"): "samplers.redraw"}
DENSE_ARRAY_SPANS = {"graphs.w_build", "coupling.lambda_matrix", "oracle.exact_edge_marginals"}
IO_WRITERS = {"io.write_edge_list", "io.write_matrix_csv", "io.write_family", "io.write_file"}


class CountingRandomSource(randomness.RandomSource):
    """A `RandomSource` that counts the uniforms it hands out; the stream is unchanged."""

    __slots__ = ("draws",)

    def __init__(self, seed: int, stream: int = 0):
        super().__init__(seed, stream)
        self.draws = 0

    def uniform(self) -> float:
        self.draws += 1
        return super().uniform()

    def uniforms(self, k: int):
        self.draws += k
        return super().uniforms(k)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "replica", "child_s", "extra")

    def __init__(self, sid, name, start, parent, replica):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.replica = replica
        self.child_s = 0.0
        self.extra: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.replica: int | None = None
        self.recording = False
        self.gc_pause_s = 0.0
        self._gc_start = None
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set[tuple] = set()

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield None
            return
        parent = self.stack[-1] if self.stack else None
        sp = Span(len(self.spans), name, 0.0, parent.id if parent else None, self.replica)
        self.spans.append(sp)
        self.stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child_s += sp.duration

    @contextlib.contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            cold = tracer._first_call(name, args, kwargs)
            # only the first tri_pairs call per n builds the tuple; later
            # calls are cache lookups and stay in the caller's self time
            if not tracer.recording or (name == "graphs.tri_pairs" and not cold):
                return fn(*args, **kwargs)
            if name == "samplers.redraw" and kwargs.get("diagnostics") is None:
                kwargs["diagnostics"] = samplers.SamplerDiagnostics()
            rng = _rng_arg(name, args, kwargs)
            draws0 = getattr(rng, "draws", 0)
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            sp.extra["draws"] = getattr(rng, "draws", 0) - draws0
            sp.extra["cold"] = cold
            tracer._annotate(sp, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _annotate(self, sp: Span, args, kwargs, result) -> None:
        name = sp.name
        if name in DENSE_ARRAY_SPANS:
            sp.extra["dense_bytes"] = int(result.tri.nbytes)
        elif name in IO_WRITERS:
            sp.extra["bytes"] = os.path.getsize(args[0])
        elif name == "samplers.redraw":
            sp.extra["restarts"] = kwargs["diagnostics"].restarts
            sp.extra["edges"] = result[0].num_edges
        elif name == "samplers.seq_sample_d":
            sp.extra["exact"] = args[1] is samplers.SeqSampleMode.EXACT_ORACLE
        elif name == "coupling.run_coupling":
            sp.extra["trace"] = result[2]
        elif name == "oracle.enumerate_graphs" and sp.extra["cold"]:
            sp.extra["family_size"] = len(result)

    def _first_call(self, name: str, args, kwargs) -> bool:
        """Whether this call fills a cache: tri_pairs per n, a family per sequence."""
        if name == "graphs.tri_pairs":
            key = ("tri_pairs", args[0])
        elif name == "oracle.enumerate_graphs" and len(args) == 1 and not (
            kwargs.get("forced") or kwargs.get("forbidden")
        ):
            key = ("family", tuple(graphs.DegreeSequence.of(args[0]).degrees))
        else:
            return False
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every lookup site of the functions in WRAPPED, and time gc pauses."""
        for home, fname, span_name in WRAPPED:
            original = getattr(home, fname)
            for mod in MODULES:
                if getattr(mod, fname, None) is original:
                    name = OVERRIDES.get((mod, fname), span_name)
                    self._patches.append((mod, fname, original))
                    setattr(mod, fname, self._wrap(original, name))
        gc.callbacks.append(self._on_gc)
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for mod, fname, original in reversed(self._patches):
            setattr(mod, fname, original)
        self._patches.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.recording:
                self.gc_pause_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    # -- output --------------------------------------------------------------

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "replica": s.replica,
                }) + "\n")


def _rng_arg(name: str, args, kwargs):
    """The RandomSource argument of a wrapped sampler call, if it has one."""
    if name in ("samplers.redraw", "samplers.seq_sample_d"):
        return args[2] if len(args) > 2 else kwargs.get("rng")
    if name == "samplers.sample_gnw":
        return args[1]
    if name == "samplers.seq_approx_p":
        return args[3]
    if name == "coupling.run_coupling":
        return args[4]
    if name == "oracle.exact_uniform_sample":
        return args[1]
    return None
