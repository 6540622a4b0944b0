"""Experiment runner and command-line surface.

Each subcommand is an entry of `COMMANDS`, run in phases (see `Command`).
A run is configured by defaults, then an optional JSON config file, then
explicit flags (flags win).  Replicas use one random stream per replica
index, so re-running a config with the same seed reproduces every output
file byte for byte except the wall-time metadata field.

Exit codes: 0 success, 1 invalid configuration or argument (any ValueError),
2 non-graphical input sequence, 3 oracle cap exceeded, 4 I/O failure,
5 statistical acceptance failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import isnan
from pathlib import Path

from . import __version__, coupling, deggen, graphs, io, oracle, randomness, samplers, stats
from .acceptance import run_battery
from .graphs import NonGraphicalError, SymmetricProbMatrix
from .oracle import OracleCapError
from .samplers import SeqSampleMode

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NON_GRAPHICAL = 2
EXIT_ORACLE_CAP = 3
EXIT_IO = 4
EXIT_VERIFY_FAILED = 5

# w_kind -> the matrix W of `sample-gnw`
W_KINDS = {
    "p": lambda d: graphs.p_matrix(d),
    "chung-lu": lambda d: graphs.chung_lu_matrix(d.degrees),
    "fc-p": lambda d: graphs.f_c_transform(graphs.p_matrix(d), 1.0),
}


@dataclass
class ExperimentConfig:
    kind: str
    degrees: str | None = None
    runs: int = 1
    seed: int = 0
    out: str = "degseq-out"
    mode: str = "asymptotic"            # exact | asymptotic
    denom: str | None = None            # exact-max | certified-bound; null: the mode's own
    checkpoints: list[int] = field(default_factory=list)
    xi: float | None = None
    zeta: float | None = None
    zeta_prime: float | None = None
    c_mult: float = 3.0
    lam: float | None = None
    w_kind: str = "fc-p"                # p | chung-lu | fc-p
    save_graphs: bool = False

    def __post_init__(self) -> None:
        """Reject values of the wrong type or out of range, from flags and files alike."""
        if self.kind not in COMMANDS:
            raise ValueError(f"unknown command {self.kind!r}")
        if not _is_int(self.runs) or self.runs < 1:
            raise ValueError(f"runs must be an integer >= 1, got {self.runs!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.checkpoints, list) or not all(
            _is_int(m) and m >= 0 for m in self.checkpoints
        ):
            raise ValueError(f"checkpoints must be integers >= 0, got {self.checkpoints!r}")
        SeqSampleMode(self.mode)
        if self.denom is not None:
            coupling.EtaDenominatorMode(self.denom)
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if self.degrees is not None and not isinstance(self.degrees, str):
            raise ValueError(f"degrees must be a string or null, got {self.degrees!r}")
        # no schedule knob, slack or budget has a meaning below 0
        for name in ("xi", "zeta", "zeta_prime", "lam"):
            value = getattr(self, name)
            if value is not None and not _is_nonnegative(value):
                raise ValueError(f"{name} must be a finite number >= 0 or null, got {value!r}")
        if not _is_nonnegative(self.c_mult):
            raise ValueError(f"c_mult must be a finite number >= 0, got {self.c_mult!r}")
        if not isinstance(self.save_graphs, bool):
            raise ValueError(f"save_graphs must be true or false, got {self.save_graphs!r}")
        if self.w_kind not in W_KINDS:
            raise ValueError(f"w_kind must be one of {', '.join(W_KINDS)}, got {self.w_kind!r}")

    @staticmethod
    def from_sources(kind: str, config_path: str | None, flags: dict) -> "ExperimentConfig":
        values: dict = {"kind": kind}
        if config_path:
            raw = json.loads(Path(config_path).read_text())
            if not isinstance(raw, dict):
                raise ValueError("config file must hold a JSON object")
            known = {f.name for f in dataclasses.fields(ExperimentConfig)}
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(raw)
        for key, val in flags.items():
            if val is not None:
                values[key] = val
        values["kind"] = kind
        config = ExperimentConfig(**values)
        optional = {name for command in COMMANDS.values() for name in command.fields}
        unread = sorted((optional - set(COMMANDS[kind].fields)) & set(values))
        if unread:
            raise ValueError(f"{kind} does not read {', '.join(unread)}")
        return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_nonnegative(value) -> bool:
    # NaN and +-inf fail the bound; an int past the float range does too
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return 0 <= value <= sys.float_info.max


def run_experiment(config: ExperimentConfig) -> int:
    start = time.perf_counter()
    command = COMMANDS[config.kind](config)
    command.out.mkdir(parents=True, exist_ok=True)
    meta = {"kind": config.kind, "seed": config.seed} | command.preamble() | command.setup()
    if command.d is not None:
        io.write_degree_file(command.out / "degrees.txt", command.d)
    for i in range(config.runs if command.has_replicas else 0):
        command.replica(i)
    meta |= command.finish()
    meta["wall_time_s"] = time.perf_counter() - start
    meta["library_version"] = __version__
    (command.out / "metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return command.exit_code


class Command:
    """One command, in the phases `run_experiment` drives once it has made
    the output directory.  `preamble()` reads the degrees (a generator spec
    or a file); `setup()` checks every input, then writes the set-up files,
    and `run_experiment` then writes `degrees.txt`; `replica(i)` draws from
    `RandomSource(seed, i)`, writes its edge files and returns what it drew;
    `finish()` writes the closing files.  All but `replica` return metadata
    entries.  Library calls go through module attributes, so that they can
    be wrapped."""

    # the optional config fields it reads; giving it any other is an error
    fields: tuple[str, ...] = ()
    # the degrees `preamble` read, if the command reads any
    d: graphs.DegreeSequence | None = None
    has_replicas = True
    exit_code = EXIT_OK

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.out = Path(config.out)

    def preamble(self) -> dict:
        config = self.config
        if not config.degrees:
            raise ValueError("no degree source given (path or generator spec)")
        adjusted = False
        if "(" in config.degrees:
            gen = deggen.parse_generator_spec(config.degrees, config.seed)
            d, adjusted = gen.degrees, gen.even_sum_adjusted
        else:
            d = io.read_degree_file(config.degrees)
        if not graphs.is_graphical(d):
            raise NonGraphicalError(f"degree sequence from {config.degrees!r} is not graphical")
        self.d = d
        summary = graphs.degree_stats(d)
        return {
            "degrees_source": config.degrees,
            "even_sum_adjusted": adjusted,
            "n": d.n,
            "degree_sum": summary.total,
            "max_degree": summary.max,
            "min_degree": summary.min,
            "top_degree_mass": summary.top_sum,
            "runs": config.runs,
            "mode": config.mode,
        }

    def finish(self) -> dict:
        return {}

    def rng(self, i: int) -> randomness.RandomSource:
        return randomness.RandomSource(self.config.seed, i)

    def _save(self, name: str, g: graphs.SimpleGraph) -> None:
        if self.config.save_graphs:
            io.write_edge_list(self.out / name, g)

    def _prob_mode(self) -> SeqSampleMode:
        # the exact mode's family is enumerated, and its caps checked, in set-up
        mode = SeqSampleMode(self.config.mode)
        if mode is SeqSampleMode.EXACT_ORACLE:
            oracle.enumerate_graphs(self.d)
        return mode

    def _schedule(self) -> dict:
        """Set `params` to the slack schedule; its metadata entries."""
        c = self.config
        p = self.params = coupling.default_params(
            self.d, xi=c.xi, zeta=c.zeta, zeta_prime=c.zeta_prime, c_mult=c.c_mult
        )
        return {"xi": p.xi, "zeta": p.zeta, "zeta_prime": p.zeta_prime, "lam": p.lam,
                "regime_warning": p.regime_warning}


class Oracle(Command):
    """The enumerated family and its exact marginals; no replicas."""

    has_replicas = False

    def setup(self) -> dict:
        self.family = oracle.enumerate_graphs(self.d)
        io.write_family(self.out / "family.txt", self.family)
        self.marginals = oracle.exact_edge_marginals(self.d)
        io.write_matrix_csv(self.out / "marginals.csv", self.marginals)
        return {"family_size": len(self.family)}


class SampleGnd(Command):
    """`seq_sample_d`; a concentration report over any checkpoint snapshots."""

    fields = ("checkpoints", "xi")

    def setup(self) -> dict:
        samplers.check_checkpoints(self.d, self.config.checkpoints)
        self.mode = self._prob_mode()
        self.diag = samplers.SamplerDiagnostics()
        self.xi = self.config.xi if self.config.xi is not None else 0.2
        # one band per snapshot, in replica order; the snapshots themselves
        # are dropped as each replica ends
        self.bands: list[stats.CheckpointBand] = []
        return {"checkpoints": self.config.checkpoints}

    def replica(self, i: int) -> graphs.SimpleGraph:
        checkpoints = self.config.checkpoints
        g, snaps = samplers.seq_sample_d(
            self.d, self.mode, self.rng(i), checkpoints=checkpoints, diagnostics=self.diag
        )
        report = stats.degree_concentration_check(self.d, zip(checkpoints, snaps), self.xi)
        self.bands += report.bands
        self._save(f"run_{i:05d}.edges", g)
        return g

    def finish(self) -> dict:
        if self.bands:
            report = stats.ConcentrationReport(self.xi, self.bands)
            (self.out / "concentration.json").write_text(
                json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"
            )
        return {"restarts": self.diag.restarts}


class SampleGnw(Command):
    """G(n, W) per replica; with `--runs >= 100` the draws are kept for a
    per-edge marginal report against `reference()`, here W itself."""

    fields = ("w_kind",)

    def setup(self) -> dict:
        self.samples: list[graphs.SimpleGraph] = []
        self.w = W_KINDS[self.config.w_kind](self.d)
        io.write_matrix_csv(self.out / "w_matrix.csv", self.w)
        return {"w_kind": self.config.w_kind}

    def draw(self, rng: randomness.RandomSource) -> graphs.SimpleGraph:
        return samplers.sample_gnw(self.w, rng)

    def reference(self) -> SymmetricProbMatrix:
        return self.w

    def replica(self, i: int) -> graphs.SimpleGraph:
        g = self.draw(self.rng(i))
        if self.config.runs >= 100:
            self.samples.append(g)
        self._save(f"run_{i:05d}.edges", g)
        return g

    def finish(self) -> dict:
        if self.config.runs < 100:
            return {}
        report = stats.empirical_marginals(self.samples, self.reference())
        columns = report.frequency.tolist(), report.reference.tolist(), report.z.tolist()
        with open(self.out / "marginals.csv", "w") as fh:
            fh.write("i,j,frequency,reference,z\n")
            for (j, k), f, ref, z in zip(combinations(range(self.d.n), 2), *columns):
                fh.write(f"{j},{k},{f!r},{ref!r},{'' if isnan(z) else repr(z)}\n")
        return {"worst_abs_z": report.worst_abs_z}


class SeqApproxP(SampleGnw):
    """The Poissonized sampler: an independent-edge law like G(n, W), with the
    lower law in place of W, so `sample-gnw`'s loop and report serve it."""

    fields = ("xi", "zeta", "zeta_prime", "c_mult", "lam")

    def setup(self) -> dict:
        self.samples = []
        meta = self._schedule()
        self.lam = self.config.lam if self.config.lam is not None else self.params.lam
        randomness.check_poisson_mean(self.lam, "lam")
        return meta | {"lam_used": self.lam}

    def draw(self, rng: randomness.RandomSource) -> graphs.SimpleGraph:
        return samplers.seq_approx_p(self.d, self.lam, self.params.big_lambda, rng)

    def reference(self) -> SymmetricProbMatrix:
        # built only for the report, which reads every entry through `tri`
        return coupling.lower_law(self.d, self.params.big_lambda, self.lam)


class Couple(Command):
    """One coupled pair (G_L, G) and its trace line per replica."""

    fields = ("xi", "zeta", "zeta_prime", "c_mult")

    def setup(self) -> dict:
        given = self.config.denom and coupling.EtaDenominatorMode(self.config.denom)
        self.denom = coupling.own_denominator(SeqSampleMode(self.config.mode), given)
        self.prob = self._prob_mode()
        self.traces: list[dict] = []
        self.fallbacks = self.violations = 0
        return self._schedule() | {"denom": self.denom.value}

    def replica(self, i: int):
        g_l, g, tr = coupling.run_coupling(self.d, self.params, self.prob, self.denom, self.rng(i))
        self.traces.append(tr.to_json_dict())
        if tr.fallback:
            self.fallbacks += 1
        elif not g_l.is_subgraph_of(g):
            self.violations += 1
        self._save(f"run_{i:05d}_lower.edges", g_l)
        self._save(f"run_{i:05d}_upper.edges", g)
        return g_l, g, tr

    def finish(self) -> dict:
        io.write_trace_ndjson(self.out / "traces.ndjson", self.traces)
        runs = len(self.traces)
        return {
            "fallback_fraction": self.fallbacks / runs,
            "non_fallback_runs": runs - self.fallbacks,
            "containment_violations": self.violations,
        }


class VerifySuite(Command):
    """The acceptance battery, once; it reads no degrees."""

    has_replicas = False

    def preamble(self) -> dict:
        return {}

    def setup(self) -> dict:
        results = run_battery()
        report = [dataclasses.asdict(r) for r in results]
        (self.out / "acceptance_report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        passed = all(r.passed for r in results)
        self.exit_code = EXIT_OK if passed else EXIT_VERIFY_FAILED
        return {"passed": passed}


# the one list of commands, in the order `degseq --help` gives them
COMMANDS = {
    "sample-gnd": SampleGnd,
    "sample-gnw": SampleGnw,
    "seq-approx-p": SeqApproxP,
    "couple": Couple,
    "oracle": Oracle,
    "verify-suite": VerifySuite,
}


class _ArgumentParser(argparse.ArgumentParser):
    """A bad command line is a bad argument: `main` reports it in one line
    and exits 1, where argparse would print its usage and exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="degseq",
        description="Samplers and coupled construction for degree-constrained random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--degrees",
                       help="degree file path or generator spec, e.g. 'regular(2000,50)'")
        p.add_argument("--mode", choices=[m.value for m in SeqSampleMode])
        p.add_argument("--denom", choices=[m.value for m in coupling.EtaDenominatorMode])
        p.add_argument("--checkpoints", help="comma-separated snapshot edge counts, e.g. '1,2,10'")
        p.add_argument("--xi", type=float)
        p.add_argument("--zeta", type=float)
        p.add_argument("--zeta-prime", type=float)
        p.add_argument("--c-mult", type=float)
        p.add_argument("--lam", type=float)
        p.add_argument("--w-kind", choices=W_KINDS)
        p.add_argument("--save-graphs", action="store_true", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "checkpoints")}
        if args.checkpoints is not None:
            flags["checkpoints"] = [int(x) for x in args.checkpoints.split(",") if x.strip()]
        config = ExperimentConfig.from_sources(args.command, args.config, flags)
        return run_experiment(config)
    except NonGraphicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_GRAPHICAL
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
