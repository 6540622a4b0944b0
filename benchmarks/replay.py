"""Replays of `degseq` commands, split so that set-up and replicas are timed apart.

Each class follows `degseq.cli.run_experiment` for one command:

* `setup()` is everything before the first replica, including the set-up
  files the command writes;
* `replica(i)` is one pass of the command's run loop, drawing from
  `RandomSource(seed, i)`;
* `finish(runs)` writes what the command writes after its loop.

Library calls go through module attributes (`samplers.seq_sample_d`, not a
bare name) so that `tracing.Tracer` can wrap them.  `fidelity.py` checks
that a replay writes the same bytes as `degseq.cli.main` with the same
flags and seed.  Each class also knows which properties its outputs must
have (`check`), which the benchmark counts as failures when they do not
hold.
"""
from __future__ import annotations

import json
import time
from math import sqrt
from pathlib import Path

import numpy as np

import degseq
from degseq import coupling, deggen, graphs, io, oracle, randomness, samplers, stats

PROB_MODES = {
    "exact": samplers.SeqSampleMode.EXACT_ORACLE,
    "asymptotic": samplers.SeqSampleMode.ASYMPTOTIC,
}
DENOM_MODES = {
    "exact-max": coupling.EtaDenominatorMode.EXACT_MAX,
    "certified-bound": coupling.EtaDenominatorMode.CERTIFIED_BOUND,
}


class Command:
    """One `degseq <kind> --degrees <spec> --seed <seed> ...` invocation."""

    kind = ""
    has_replicas = True

    def __init__(
        self,
        out: Path,
        degrees: str,
        seed: int,
        *,
        mode: str = "asymptotic",
        denom: str = "certified-bound",
        save_graphs: bool = False,
    ):
        self.out = Path(out)
        self.spec = degrees
        self.seed = seed
        self.mode = mode
        self.denom = denom
        self.save_graphs = save_graphs
        self.rng_cls = randomness.RandomSource
        self.label = f"{self.kind} {degrees}"

    def argv(self, runs: int) -> list[str]:
        """The `degseq.cli.main` arguments this replay reproduces, less `--out`."""
        args = [self.kind, "--degrees", self.spec, "--seed", str(self.seed),
                "--runs", str(runs), "--mode", self.mode, "--denom", self.denom]
        if self.save_graphs:
            args.append("--save-graphs")
        return args

    def rng(self, i: int) -> randomness.RandomSource:
        return self.rng_cls(self.seed, i)

    def setup(self) -> None:
        self.start = time.perf_counter()
        self.out.mkdir(parents=True, exist_ok=True)
        gen = deggen.parse_generator_spec(self.spec, self.seed)
        d = gen.degrees
        if not graphs.is_graphical(d):
            raise graphs.NonGraphicalError(f"degree sequence from {self.spec!r} is not graphical")
        io.write_degree_file(self.out / "degrees.txt", d)
        st = graphs.degree_stats(d)
        self.d = d
        self.meta = {
            "kind": self.kind,
            "degrees_source": self.spec,
            "even_sum_adjusted": gen.even_sum_adjusted,
            "n": d.n,
            "degree_sum": st.total,
            "max_degree": st.max,
            "min_degree": st.min,
            "top_degree_mass": st.top_sum,
            "seed": self.seed,
            "mode": self.mode,
        }
        self._setup()

    def finish(self, runs: int) -> None:
        meta = dict(self.meta)
        meta["runs"] = runs
        meta.update(self._finish(runs))
        meta["wall_time_s"] = time.perf_counter() - self.start
        meta["library_version"] = degseq.__version__
        (self.out / "metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    def _params(self) -> coupling.CouplingParams:
        return coupling.default_params(
            self.d, xi=None, zeta=None, zeta_prime=None, c_mult=3.0
        )

    def _save(self, name: str, g: graphs.SimpleGraph) -> None:
        if self.save_graphs:
            io.write_edge_list(self.out / name, g)

    def _setup(self) -> None:
        pass

    def _finish(self, runs: int) -> dict:
        return {}

    def check_setup(self) -> list[str]:
        return []

    def check(self, i: int, output) -> list[str]:
        return []

    # shared checks -------------------------------------------------------

    def _degrees_ok(self, g: graphs.SimpleGraph, what: str) -> list[str]:
        if g.degree_vector() != self.d.degrees:
            return [f"{self.label}: {what} degree vector differs from the target"]
        return []

    def _member_ok(self, g: graphs.SimpleGraph, what: str) -> list[str]:
        if self.mode != "exact":
            return []
        if not hasattr(self, "members"):
            self.members = frozenset(oracle.enumerate_graphs(self.d).masks)
        return member_errors(self, g, what)

    def _edge_count_ok(self, i: int, g: graphs.SimpleGraph,
                       w: graphs.SymmetricProbMatrix) -> list[str]:
        """The edge count of a G(n, W) draw: mean sum W, variance sum W(1 - W)."""
        z = (g.num_edges - float(w.tri.sum())) / sqrt(float((w.tri * (1.0 - w.tri)).sum()))
        if abs(z) >= stats.THRESHOLDS.z_max:
            return [f"{self.label}: run {i} edge count is {z:.2f} sd from sum W"]
        return []

    def _read_back_ok(self, name: str, g: graphs.SimpleGraph) -> list[str]:
        if self.save_graphs and io.read_edge_list(self.out / name, g.n) != g:
            return [f"{self.label}: {name} does not read back to the same graph"]
        return []


def _params_dict(params: coupling.CouplingParams) -> dict:
    return {
        "xi": params.xi,
        "zeta": params.zeta,
        "zeta_prime": params.zeta_prime,
        "lam": params.lam,
        "regime_warning": params.regime_warning,
    }


def member_errors(stream, g: graphs.SimpleGraph, what: str) -> list[str]:
    """An error unless g is one of the masks in `stream.members`."""
    if oracle.mask_of_edges(g.n, g.edges) not in stream.members:
        return [f"{stream.label}: {what} is not a member of its family"]
    return []


class Oracle(Command):
    """`degseq oracle`: enumeration, family file and exact marginals; no replicas."""

    kind = "oracle"
    has_replicas = False

    def __init__(self, out: Path, degrees: str, seed: int, *, family_size: int | None, **kw):
        super().__init__(out, degrees, seed, **kw)
        self.family_size = family_size

    def _setup(self) -> None:
        self.family = oracle.enumerate_graphs(self.d)
        io.write_family(self.out / "family.txt", self.family)
        self.marginals = oracle.exact_edge_marginals(self.d)
        io.write_matrix_csv(self.out / "marginals.csv", self.marginals)

    def _finish(self, runs: int) -> dict:
        return {"family_size": len(self.family)}

    def check_setup(self) -> list[str]:
        size = len(self.family)
        if self.family_size is not None and size != self.family_size:
            return [f"{self.label}: family has {size} members, expected {self.family_size}"]
        counts = oracle.edge_counts(self.family)
        marginal_rows = self.marginals.to_dense().sum(axis=1)
        errors = []
        for j, row in enumerate(tri_row_sums(self.d.n, counts)):
            if row != size * self.d[j] or abs(marginal_rows[j] - self.d[j]) > 1e-9 * self.d.n:
                errors.append(f"{self.label}: marginal row {j} does not sum to |family| * d_j")
        return errors


class SampleGnd(Command):
    """`degseq sample-gnd` without checkpoints: one `seq_sample_d` draw per replica."""

    kind = "sample-gnd"

    def _setup(self) -> None:
        self.prob = PROB_MODES[self.mode]
        self.diag = samplers.SamplerDiagnostics()

    def replica(self, i: int) -> graphs.SimpleGraph:
        g, _ = samplers.seq_sample_d(self.d, self.prob, self.rng(i), checkpoints=[],
                                     diagnostics=self.diag)
        self._save(f"run_{i:05d}.edges", g)
        return g

    def _finish(self, runs: int) -> dict:
        return {"restarts": self.diag.restarts, "checkpoints": []}

    def check(self, i: int, g) -> list[str]:
        return (self._degrees_ok(g, f"run {i}") + self._member_ok(g, f"run {i}")
                + self._read_back_ok(f"run_{i:05d}.edges", g))


class SampleGnw(Command):
    """`degseq sample-gnw` with the default `fc-p` matrix W = 1 - exp(-P).

    The command's marginal report for `--runs >= 100` is not replayed: at
    n = 3000 it needs a runs x 4.5M indicator matrix.
    """

    kind = "sample-gnw"

    def _setup(self) -> None:
        self.w = graphs.f_c_transform(graphs.p_matrix(self.d), 1.0)
        io.write_matrix_csv(self.out / "w_matrix.csv", self.w)

    def replica(self, i: int) -> graphs.SimpleGraph:
        g = samplers.sample_gnw(self.w, self.rng(i))
        self._save(f"run_{i:05d}.edges", g)
        return g

    def _finish(self, runs: int) -> dict:
        return {"w_kind": "fc-p"}

    def check(self, i: int, g) -> list[str]:
        return self._edge_count_ok(i, g, self.w) + self._read_back_ok(f"run_{i:05d}.edges", g)


class SeqApproxP(Command):
    """`degseq seq-approx-p`: Poissonized sampler with the schedule's lam and Lambda.

    As for `SampleGnw`, the `--runs >= 100` marginal report is not replayed.
    """

    kind = "seq-approx-p"

    def _setup(self) -> None:
        self.params = self._params()
        self.lam = self.params.lam
        self.w_ref = graphs.f_c_transform(
            graphs.hadamard(self.params.big_lambda, graphs.q_matrix(self.d)), self.lam
        )

    def replica(self, i: int) -> graphs.SimpleGraph:
        g = samplers.seq_approx_p(self.d, self.lam, self.params.big_lambda, self.rng(i))
        self._save(f"run_{i:05d}.edges", g)
        return g

    def _finish(self, runs: int) -> dict:
        return _params_dict(self.params) | {"lam_used": self.lam}

    def check(self, i: int, g) -> list[str]:
        return (self._edge_count_ok(i, g, self.w_ref)
                + self._read_back_ok(f"run_{i:05d}.edges", g))


class Couple(Command):
    """`degseq couple`: one coupled pair, its trace line and, with --save-graphs, two edge files."""

    kind = "couple"

    def _setup(self) -> None:
        self.params = self._params()
        self.prob = PROB_MODES[self.mode]
        self.denom_mode = DENOM_MODES[self.denom]
        self.traces: list[dict] = []
        self.pairs_kept: list = []
        self.fallbacks = 0

    def replica(self, i: int):
        g_l, g, tr = coupling.run_coupling(self.d, self.params, self.prob, self.denom_mode,
                                           self.rng(i))
        self.traces.append(tr.to_json_dict())
        if tr.fallback:
            self.fallbacks += 1
        else:
            self.pairs_kept.append((g_l, g))
        self._save(f"run_{i:05d}_lower.edges", g_l)
        self._save(f"run_{i:05d}_upper.edges", g)
        return g_l, g, tr

    def _finish(self, runs: int) -> dict:
        io.write_trace_ndjson(self.out / "traces.ndjson", self.traces)
        _, violations = stats.subgraph_check(self.pairs_kept)
        return _params_dict(self.params) | {
            "denom": self.denom,
            "fallback_fraction": self.fallbacks / runs,
            "non_fallback_runs": len(self.pairs_kept),
            "containment_violations": len(violations),
        }

    def check(self, i: int, output) -> list[str]:
        g_l, g, tr = output
        errors = self._degrees_ok(g, f"run {i} G") + self._member_ok(g, f"run {i} G")
        if not tr.fallback and not g_l.is_subgraph_of(g):
            errors.append(f"{self.label}: run {i} did not escape but G_L is not inside G")
        errors += self._read_back_ok(f"run_{i:05d}_lower.edges", g_l)
        errors += self._read_back_ok(f"run_{i:05d}_upper.edges", g)
        return errors


class BatteryStream:
    """A stream of the acceptance battery: one sampler call per replica, nothing kept.

    The battery has no command of its own.  The C2 and C4 streams make the
    same calls as `sample-gnd` and `couple` with the flags in `argv`, which
    `fidelity.py` checks; C1's constant Lambda has no command flag.
    """

    kind = "battery"
    has_replicas = True
    argv: list[str] = []

    def __init__(self, seed: int):
        self.seed = seed
        self.rng_cls = randomness.RandomSource

    def rng(self, i: int) -> randomness.RandomSource:
        return self.rng_cls(self.seed, i)

    def finish(self, runs: int) -> None:
        pass

    def check_setup(self) -> list[str]:
        return []

    def check(self, i: int, output) -> list[str]:
        return []


class PoissonizedStream(BatteryStream):
    """C1: `seq_approx_p` on (2,2,2,0) with lam = 2.4 and Lambda = 0.54."""

    label = "C1 seq_approx_p (2,2,2,0)"

    def setup(self) -> None:
        self.d = graphs.DegreeSequence((2, 2, 2, 0))
        self.lam = 2.4
        self.big_lambda = graphs.SymmetricProbMatrix.full(4, 0.54)
        self.w_ref = graphs.f_c_transform(
            graphs.hadamard(self.big_lambda, graphs.q_matrix(self.d)), self.lam
        )

    def replica(self, i: int) -> graphs.SimpleGraph:
        return samplers.seq_approx_p(self.d, self.lam, self.big_lambda, self.rng(i))


class ExactGndStream(BatteryStream):
    """C2 and C3: `seq_sample_d` in exact mode on (2,2,2,2)."""

    label = "C2 seq_sample_d exact (2,2,2,2)"
    argv = ["sample-gnd", "--degrees", "regular(4,2)", "--mode", "exact"]

    def setup(self) -> None:
        self.d = graphs.DegreeSequence((2, 2, 2, 2))
        self.members, self.law = uniform_law(self.d)

    def replica(self, i: int) -> graphs.SimpleGraph:
        return samplers.seq_sample_d(self.d, samplers.SeqSampleMode.EXACT_ORACLE, self.rng(i))[0]

    def check(self, i: int, g) -> list[str]:
        return member_errors(self, g, f"run {i}")


class ExactCoupleStream(BatteryStream):
    """C4: `run_coupling` exact/exact-max on (2,2,2,2) with zeta = zeta' = 0.1."""

    label = "C4 run_coupling exact (2,2,2,2)"
    argv = ["couple", "--degrees", "regular(4,2)", "--mode", "exact", "--denom", "exact-max",
            "--zeta", "0.1", "--zeta-prime", "0.1"]

    def setup(self) -> None:
        self.d = graphs.DegreeSequence((2, 2, 2, 2))
        self.params = coupling.default_params(self.d, zeta=0.1, zeta_prime=0.1)
        self.members, self.law = uniform_law(self.d)
        # the law of G_L, for the battery's marginal check
        self.w_ref = graphs.f_c_transform(
            graphs.hadamard(self.params.big_lambda, graphs.q_matrix(self.d)), self.params.lam
        )

    def replica(self, i: int):
        return coupling.run_coupling(
            self.d, self.params, samplers.SeqSampleMode.EXACT_ORACLE,
            coupling.EtaDenominatorMode.EXACT_MAX, self.rng(i),
        )

    def check(self, i: int, output) -> list[str]:
        g_l, g, tr = output
        errors = member_errors(self, g, f"run {i} G")
        if not tr.fallback and not g_l.is_subgraph_of(g):
            errors.append(f"{self.label}: run {i} did not escape but G_L is not inside G")
        return errors


def uniform_law(d: graphs.DegreeSequence) -> tuple[frozenset, dict]:
    """The family's masks, and the uniform law over its members that the battery tests."""
    fam = oracle.enumerate_graphs(d)
    return frozenset(fam.masks), {g: 1.0 / len(fam) for g in fam.members}


def tri_row_sums(n: int, tri: np.ndarray) -> list[int]:
    """Row sums, by vertex, of a symmetric matrix stored as its strict upper triangle."""
    rows = [0] * n
    for idx, (j, k) in enumerate(graphs.tri_pairs(n)):
        rows[j] += int(tri[idx])
        rows[k] += int(tri[idx])
    return rows
