"""Experiment runner and command-line surface.

Subcommands: sample-gnd, sample-gnw, seq-approx-p, couple, oracle,
verify-suite.  A run is configured by defaults, then an optional JSON config
file, then explicit flags (flags win).  Replicas use one random stream per
replica index, so re-running a config with the same seed reproduces every
output file byte for byte except the wall-time metadata field.

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
from pathlib import Path

from . import __version__
from .acceptance import run_battery
from .coupling import (
    EtaDenominatorMode,
    default_params,
    lower_law,
    run_coupling,
)
from .deggen import GeneratedSequence, parse_generator_spec
from .graphs import (
    DegreeSequence,
    NonGraphicalError,
    SymmetricProbMatrix,
    chung_lu_matrix,
    degree_stats,
    f_c_transform,
    is_graphical,
    p_matrix,
)
from .io import (
    read_degree_file,
    write_degree_file,
    write_edge_list,
    write_family,
    write_matrix_csv,
    write_trace_ndjson,
)
from .oracle import OracleCapError, enumerate_graphs, exact_edge_marginals
from .randomness import RandomSource
from .samplers import SamplerDiagnostics, SeqSampleMode, sample_gnw, seq_approx_p, seq_sample_d
from .stats import degree_concentration_check, empirical_marginals

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NON_GRAPHICAL = 2
EXIT_ORACLE_CAP = 3
EXIT_IO = 4
EXIT_VERIFY_FAILED = 5

W_KINDS = ("p", "chung-lu", "fc-p")

# fields only some commands read; giving a command one it does not read is an error
_SCHEDULE = ("xi", "zeta", "zeta_prime", "c_mult")
COMMAND_FIELDS = {"couple": _SCHEDULE, "seq-approx-p": _SCHEDULE + ("lam",),
                  "sample-gnd": ("checkpoints", "xi"), "sample-gnw": ("w_kind",),
                  "oracle": (), "verify-suite": ()}


@dataclass
class ExperimentConfig:
    kind: str
    degrees: str | None = None
    runs: int = 1
    seed: int = 0
    out: str = "degseq-out"
    mode: str = "asymptotic"            # exact | asymptotic
    denom: str = "certified-bound"      # exact-max | certified-bound
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
        if not _is_int(self.runs) or self.runs < 1:
            raise ValueError(f"runs must be an integer >= 1, got {self.runs!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.checkpoints, list) or not all(
            _is_int(m) and m >= 0 for m in self.checkpoints
        ):
            raise ValueError(f"checkpoints must be integers >= 0, got {self.checkpoints!r}")
        SeqSampleMode(self.mode)
        EtaDenominatorMode(self.denom)
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if self.degrees is not None and not isinstance(self.degrees, str):
            raise ValueError(f"degrees must be a string or null, got {self.degrees!r}")
        for name in ("xi", "zeta", "zeta_prime", "lam"):
            value = getattr(self, name)
            if value is not None and not _is_number(value):
                raise ValueError(f"{name} must be a number or null, got {value!r}")
        if not _is_number(self.c_mult):
            raise ValueError(f"c_mult must be a number, got {self.c_mult!r}")
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
        optional = set().union(*COMMAND_FIELDS.values())
        unread = sorted((optional - set(COMMAND_FIELDS.get(kind, ()))) & set(values))
        if unread:
            raise ValueError(f"{kind} does not read {', '.join(unread)}")
        return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def resolve_degrees(config: ExperimentConfig) -> tuple[DegreeSequence, str, bool]:
    """Degree sequence from a generator spec or a degree file."""
    if not config.degrees:
        raise ValueError("no degree source given (path or generator spec)")
    if "(" in config.degrees:
        gen: GeneratedSequence = parse_generator_spec(config.degrees, config.seed)
        return gen.degrees, config.degrees, gen.even_sum_adjusted
    return read_degree_file(config.degrees), config.degrees, False


def _schedule(config: ExperimentConfig, d: DegreeSequence):
    return default_params(
        d,
        xi=config.xi,
        zeta=config.zeta,
        zeta_prime=config.zeta_prime,
        c_mult=config.c_mult,
    )


def _write_metadata(out: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["library_version"] = __version__
    (out / "metadata.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def run_experiment(config: ExperimentConfig) -> int:
    start = time.perf_counter()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    if config.kind == "verify-suite":
        results = run_battery()
        report = [
            {
                "name": r.name,
                "passed": r.passed,
                "runtime_s": r.runtime_s,
                "details": r.details,
            }
            for r in results
        ]
        (out / "acceptance_report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n"
        )
        _write_metadata(
            out,
            {
                "kind": config.kind,
                "seed": config.seed,
                "passed": all(r.passed for r in results),
                "wall_time_s": time.perf_counter() - start,
            },
        )
        return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED

    d, source, adjusted = resolve_degrees(config)
    if not is_graphical(d):
        raise NonGraphicalError(f"degree sequence from {source!r} is not graphical")
    write_degree_file(out / "degrees.txt", d)
    stats = degree_stats(d)
    meta: dict = {
        "kind": config.kind,
        "degrees_source": source,
        "even_sum_adjusted": adjusted,
        "n": d.n,
        "degree_sum": stats.total,
        "max_degree": stats.max,
        "min_degree": stats.min,
        "top_degree_mass": stats.top_sum,
        "seed": config.seed,
        "runs": config.runs,
        "mode": config.mode,
    }

    if config.kind == "oracle":
        fam = enumerate_graphs(d)
        write_family(out / "family.txt", fam)
        marginals = exact_edge_marginals(d)
        write_matrix_csv(out / "marginals.csv", marginals)
        meta.update({"family_size": len(fam)})

    elif config.kind == "sample-gnd":
        mode = SeqSampleMode(config.mode)
        diag = SamplerDiagnostics()
        finals = []
        checkpoint_records = []
        for i in range(config.runs):
            rng = RandomSource(config.seed, i)
            g, snaps = seq_sample_d(
                d, mode, rng, checkpoints=config.checkpoints, diagnostics=diag
            )
            finals.append(g)
            checkpoint_records.extend(zip(config.checkpoints, snaps))
            if config.save_graphs:
                write_edge_list(out / f"run_{i:05d}.edges", g)
        meta.update({"restarts": diag.restarts, "checkpoints": config.checkpoints})
        if checkpoint_records:
            xi = config.xi if config.xi is not None else 0.2
            report = degree_concentration_check(d, checkpoint_records, xi)
            (out / "concentration.json").write_text(
                json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"
            )

    elif config.kind == "sample-gnw":
        w = _w_matrix(config, d)
        write_matrix_csv(out / "w_matrix.csv", w)
        samples = []
        for i in range(config.runs):
            g = sample_gnw(w, RandomSource(config.seed, i))
            samples.append(g)
            if config.save_graphs:
                write_edge_list(out / f"run_{i:05d}.edges", g)
        meta.update({"w_kind": config.w_kind})
        if config.runs >= 100:
            report = empirical_marginals(samples, w)
            _write_marginals_csv(out / "marginals.csv", report)
            meta.update({"worst_abs_z": report.worst_abs_z})

    elif config.kind == "seq-approx-p":
        params = _schedule(config, d)
        lam = config.lam if config.lam is not None else params.lam
        w_ref = lower_law(d, params.big_lambda, lam)
        samples = []
        for i in range(config.runs):
            g = seq_approx_p(d, lam, params.big_lambda, RandomSource(config.seed, i))
            samples.append(g)
            if config.save_graphs:
                write_edge_list(out / f"run_{i:05d}.edges", g)
        meta.update(_params_dict(params) | {"lam_used": lam})
        if config.runs >= 100:
            report = empirical_marginals(samples, w_ref)
            _write_marginals_csv(out / "marginals.csv", report)
            meta.update({"worst_abs_z": report.worst_abs_z})

    elif config.kind == "couple":
        params = _schedule(config, d)
        prob = SeqSampleMode(config.mode)
        denom = EtaDenominatorMode(config.denom)
        traces = []
        fallbacks = violations = 0
        for i in range(config.runs):
            rng = RandomSource(config.seed, i)
            g_l, g, tr = run_coupling(d, params, prob, denom, rng)
            traces.append(tr.to_json_dict())
            if tr.fallback:
                fallbacks += 1
            elif not g_l.is_subgraph_of(g):
                violations += 1
            if config.save_graphs:
                write_edge_list(out / f"run_{i:05d}_lower.edges", g_l)
                write_edge_list(out / f"run_{i:05d}_upper.edges", g)
        write_trace_ndjson(out / "traces.ndjson", traces)
        meta.update(
            _params_dict(params)
            | {
                "denom": config.denom,
                "fallback_fraction": fallbacks / config.runs,
                "non_fallback_runs": config.runs - fallbacks,
                "containment_violations": violations,
            }
        )
    else:
        raise ValueError(f"unknown experiment kind {config.kind!r}")

    meta["wall_time_s"] = time.perf_counter() - start
    _write_metadata(out, meta)
    return EXIT_OK


def _params_dict(params) -> dict:
    return {
        "xi": params.xi,
        "zeta": params.zeta,
        "zeta_prime": params.zeta_prime,
        "lam": params.lam,
        "regime_warning": params.regime_warning,
    }


def _w_matrix(config: ExperimentConfig, d: DegreeSequence) -> SymmetricProbMatrix:
    if config.w_kind == "p":
        return p_matrix(d)
    if config.w_kind == "chung-lu":
        return chung_lu_matrix(d.degrees)
    return f_c_transform(p_matrix(d), 1.0)


def _write_marginals_csv(path: Path, report) -> None:
    lines = ["i,j,frequency,reference,z\n"]
    for row in report.rows:
        z = "" if row.z is None else repr(row.z)
        lines.append(f"{row.edge[0]},{row.edge[1]},{row.frequency!r},{row.reference!r},{z}\n")
    path.write_text("".join(lines))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degseq",
        description="Samplers and coupled construction for degree-constrained random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sample-gnd", "sample-gnw", "seq-approx-p", "couple", "oracle", "verify-suite"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--degrees",
            default=None,
            help="degree file path or generator spec, e.g. 'regular(2000,50)'",
        )
        p.add_argument("--mode", choices=("exact", "asymptotic"), default=None)
        p.add_argument("--denom", choices=("exact-max", "certified-bound"), default=None)
        p.add_argument(
            "--checkpoints",
            default=None,
            help="comma-separated snapshot edge counts, e.g. '1,2,10'",
        )
        p.add_argument("--xi", type=float, default=None)
        p.add_argument("--zeta", type=float, default=None)
        p.add_argument("--zeta-prime", type=float, default=None)
        p.add_argument("--c-mult", type=float, default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--w-kind", choices=W_KINDS, default=None)
        p.add_argument("--save-graphs", action="store_true", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {
        "seed": args.seed,
        "runs": args.runs,
        "out": args.out,
        "degrees": args.degrees,
        "mode": args.mode,
        "denom": args.denom,
        "xi": args.xi,
        "zeta": args.zeta,
        "zeta_prime": args.zeta_prime,
        "c_mult": args.c_mult,
        "lam": args.lam,
        "w_kind": args.w_kind,
        "save_graphs": args.save_graphs,
    }
    try:
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
