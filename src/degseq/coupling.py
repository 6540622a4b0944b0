"""Coupled construction of an independent-edge graph inside a degree-constrained one.

`run_coupling` drives a Poissonized stream of degree-weighted candidate pairs
through both graphs at once.  The lower graph G_L keeps a step's pair with
probability Lambda_jk, as `seq_approx_p` does with the same stream, so it is
an independent-edge graph with entries 1 - exp(-lam * Lambda_jk * Q_jk).  The
upper graph G takes a fresh pair with probability eta = rho / denominator,
a thinning of its own sequential-insertion kernel, and is then completed by
that kernel, so it has the standalone sampler's law (in exact mode, uniform
on the graphs with the target degrees).  One coin decides both, so G_L is a
subgraph of G unless some fresh step had eta < Lambda_jk: an escape, which
is recorded and ends neither graph's path.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import isfinite, log, sqrt
from typing import Sequence

from .graphs import (
    DegreeSequence,
    InvariantError,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    acceptance_matrix,
    degree_stats,
    is_graphical,
    normalize_edge,
    q_matrix,
    f_c_transform,
    hadamard,
)
from .randomness import CandidateStream, RandomSource, alias_table, sample_poisson
from .samplers import DeadBaseError, EtaDenominatorMode, SeqSampleMode, make_kernel
# a module attribute `benchmarks/tracing.py` overrides; nothing here calls it
from .samplers import seq_sample_d  # noqa: F401

__all__ = [
    "EtaDenominatorMode",
    "CouplingParams",
    "CouplingTrace",
    "default_params",
    "lower_law",
    "rho",
    "eta_denominator",
    "run_coupling",
]


@dataclass(frozen=True)
class CouplingParams:
    """Schedule parameters: three vanishing slacks, the Poisson budget, and
    the per-pair lower-graph acceptance matrix."""

    xi: float
    zeta: float
    zeta_prime: float
    lam: float
    big_lambda: SymmetricProbMatrix
    regime_warning: bool = False


# the name `benchmarks/tracing.py` wraps; nothing in the package calls it
lambda_matrix = acceptance_matrix


def lower_law(d: DegreeSequence | Sequence[int], big_lambda: SymmetricProbMatrix,
              lam: float) -> SymmetricProbMatrix:
    """The lower graph's independent-edge law: entries 1 - exp(-lam * Lambda_jk * Q_jk)."""
    return f_c_transform(hadamard(big_lambda, q_matrix(d)), lam)


def default_params(
    d: DegreeSequence | Sequence[int],
    *,
    xi: float | None = None,
    zeta: float | None = None,
    zeta_prime: float | None = None,
    c_mult: float = 3.0,
) -> CouplingParams:
    """Concrete finite-n schedule.

    zeta' = max(||d||_1^(-1/4), sqrt(top_sum/||d||_1)); xi = (log n /
    (zeta' * min_degree))^(1/3) clamped to (0, 1/2]; zeta = min(1/2,
    c_mult * (top_sum/(zeta' ||d||_1) + xi)); then lam and Lambda follow the
    two defining identities.  Keyword overrides replace individual knobs
    before the dependent quantities are derived.  `regime_warning` is set
    when the sequence sits outside the regime the schedule is designed for
    (top_sum >= ||d||_1) or when any knob hit its clamp.
    """
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    for name, value in (("xi", xi), ("zeta", zeta), ("zeta_prime", zeta_prime), ("c_mult", c_mult)):
        if value is not None and not isfinite(value):
            raise ValueError(f"{name}={value} is not finite")
    stats = degree_stats(d)
    if stats.min == 0:
        raise ValueError("schedule undefined for zero minimum degree")
    total, _, dmin, top_sum = stats
    warning = top_sum >= total

    if zeta_prime is None:
        zeta_prime = max(total ** -0.25, sqrt(top_sum / total))
    if not 0.0 <= zeta_prime < 1.0:
        raise ValueError(f"zeta_prime={zeta_prime} outside [0, 1)")
    warning = warning or zeta_prime > 0.5

    if xi is None:
        if zeta_prime == 0.0:
            raise ValueError("xi override required when zeta_prime is 0")
        xi_raw = (log(d.n) / (zeta_prime * dmin)) ** (1.0 / 3.0)
        xi = min(0.5, xi_raw)
        warning = warning or xi_raw > 0.5
    if not 0.0 < xi <= 0.5:
        raise ValueError(f"xi={xi} outside (0, 1/2]")

    if zeta is None:
        if zeta_prime == 0.0:
            raise ValueError("zeta override required when zeta_prime is 0")
        zeta_raw = c_mult * (top_sum / (zeta_prime * total) + xi)
        zeta = min(0.5, zeta_raw)
        warning = warning or zeta_raw > 0.5
    if not 0.0 <= zeta < 1.0:
        raise ValueError(f"zeta={zeta} outside [0, 1)")

    lam = (1.0 - zeta_prime) * total / 2.0
    return CouplingParams(
        xi=xi,
        zeta=zeta,
        zeta_prime=zeta_prime,
        lam=lam,
        big_lambda=acceptance_matrix(d, zeta),
        regime_warning=warning,
    )


def rho(
    d: DegreeSequence | Sequence[int],
    state: SimpleGraph,
    jk: tuple[int, int],
    mode: SeqSampleMode,
) -> float:
    """Per-candidate acceptance weight: P(jk joins | state) / (d_j d_k)."""
    d = DegreeSequence.of(d)
    j, k = normalize_edge(*jk)
    if state.has_edge(j, k):
        raise ValueError(f"({j},{k}) already present in the state")
    if d[j] < 1 or d[k] < 1:
        raise ValueError("weight undefined for zero-degree endpoints")
    return make_kernel(d, mode, state).weight(j, k)


def eta_denominator(
    d: DegreeSequence | Sequence[int],
    state: SimpleGraph,
    denom_mode: EtaDenominatorMode,
    prob_mode: SeqSampleMode,
) -> float:
    """Normalizer for the per-step acceptance ratio.

    EXACT_MAX scans every non-edge and returns the true maximum weight.
    CERTIFIED_BOUND returns B = (max_h t_h/d_h)^2 / ||t||_1, valid only for
    the asymptotic weights, where B >= rho for every non-edge because
    rho = t_h t_l / (d_h d_l (||t||_1 + t_h t_l)) <= (t_h/d_h)(t_l/d_l)/||t||_1.
    """
    d = DegreeSequence.of(d)
    require_compatible(denom_mode, prob_mode)
    bound = make_kernel(d, prob_mode, state).denominator(denom_mode)
    if bound <= 0.0:
        raise ValueError("no eligible pair")
    return bound


def require_compatible(denom_mode: EtaDenominatorMode, prob_mode: SeqSampleMode) -> None:
    certified = denom_mode is EtaDenominatorMode.CERTIFIED_BOUND
    if certified and prob_mode is not SeqSampleMode.ASYMPTOTIC:
        raise ValueError("certified bound is only valid for asymptotic probabilities")


@dataclass
class CouplingTrace:
    """Per-run record of the coupled construction.

    The step loop partitions its iterations exactly as
    duplicate_hits + insertions_both + rejections_l_only + rejections_g
    = steps_total = poisson_steps, and the upper graph's edge count when the
    loop ended is edges_at_step_end = insertions_both + rejections_l_only.
    `fallback_step` is the first fresh step with eta < Lambda_jk, and
    `eta_min` the smallest eta of the fresh steps up to it (of all of them
    on a run that did not escape).  The final G has edges_at_step_end +
    completion_insertions edges.
    """

    poisson_steps: int = 0
    fallback: bool = False
    fallback_step: int | None = None
    steps_total: int = 0
    eta_min: float = 1.0
    rejections_g: int = 0
    rejections_l_only: int = 0
    duplicate_hits: int = 0
    insertions_both: int = 0
    edges_at_step_end: int = 0
    completion_insertions: int = 0
    completion_restarts: int = 0
    p_m_checkpoints: list[tuple[int, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=256)
def _auto_checkpoints(steps: int) -> frozenset[int]:
    """The steps at which a run of `steps` candidate steps records p_m: each
    tenth of the way, rounded, and at least step 1."""
    return frozenset(max(1, round(steps * i / 10)) for i in range(1, 11) if steps > 0)


def run_coupling(
    d: DegreeSequence | Sequence[int],
    params: CouplingParams,
    prob_mode: SeqSampleMode,
    denom_mode: EtaDenominatorMode,
    rng: RandomSource,
) -> tuple[SimpleGraph, SimpleGraph, CouplingTrace]:
    """Coupled sequential construction of (G_L, G).

    Runs a Poisson(lam) number of candidate steps, each a pair jk and one
    uniform u.  G_L takes the pair when u < Lambda_jk.  G takes it when it is
    fresh (not yet in G) and u < eta, with eta = rho / denominator.  After
    the step loop, G is completed to its full degree sequence with the
    matching sequential-insertion kernel.

    G_L is then exactly `seq_approx_p`'s graph on the same stream, and G is
    the kernel's own sampler: each step inserts a pair with probability
    proportional to d_j d_k rho_jk.  Neither law depends on the other graph.
    While eta >= Lambda_jk on every fresh step, u < Lambda_jk implies
    u < eta and G_L stays inside G.  The first fresh step with
    eta < Lambda_jk is an escape: it is recorded in the trace, not an
    error, and both graphs keep their paths.  The one coin per step keeps a
    fixed stream's escape indicator monotone in zeta.

    In asymptotic mode the loop may leave G with no completion; the kernel
    then gives up on it (`DeadBaseError`), G is completed from the empty
    graph instead, and the run counts as escaped, at the last step if it
    had not escaped before.
    """
    d = DegreeSequence.of(d)
    n = d.n
    if params.big_lambda.n != n:
        raise ValueError("params built for a different n")
    if not is_graphical(d):
        raise NonGraphicalError(f"{d.degrees} is not graphical")
    require_compatible(denom_mode, prob_mode)

    trace = CouplingTrace()
    total = d.total
    if total == 0:
        return SimpleGraph.empty(n), SimpleGraph.empty(n), trace

    steps = sample_poisson(params.lam, rng)
    trace.poisson_steps = trace.steps_total = steps
    checkpoint_at = _auto_checkpoints(steps)

    kernel = make_kernel(d, prob_mode)
    # both graphs hold edge keys j*n + k
    g_edges = kernel.edges
    l_edges: set[int] = set()
    # only an insertion changes the denominator
    denom = kernel.denominator(denom_mode)
    weight, insert, take_lower = kernel.weight, kernel.insert, l_edges.add
    duplicates = both = 0
    eta_min = 1.0
    escape = None
    stream = CandidateStream(alias_table(d.degrees), params.big_lambda, steps, rng)
    for step, (j, k, lam_jk, u) in enumerate(stream, 1):
        e = j * n + k
        if u < lam_jk:
            take_lower(e)
        if e in g_edges:
            duplicates += 1
        else:
            r = weight(j, k)
            # a candidate that can never join G gets eta = 0, which also
            # covers the saturated state where the true maximum vanishes
            eta = r / denom if r > 0.0 else 0.0
            if eta > 1.0 + 1e-9:
                raise InvariantError(f"eta = {eta} > 1: the denominator must dominate rho")
            if escape is None:
                if eta < eta_min:
                    eta_min = eta
                if eta < lam_jk:
                    escape = step
            if u < eta:
                insert(j, k)
                denom = kernel.denominator(denom_mode)
                if u < lam_jk:
                    both += 1
        if step in checkpoint_at:
            trace.p_m_checkpoints.append((step, (total - 2 * len(g_edges)) / total))

    # a fresh step G refused is neither a duplicate nor an insertion
    inserted = len(g_edges)
    trace.duplicate_hits, trace.insertions_both = duplicates, both
    trace.rejections_l_only = inserted - both
    trace.rejections_g = steps - duplicates - inserted
    trace.eta_min = eta_min
    trace.edges_at_step_end = inserted
    # G_L's set (and each name bound to it) goes before the completion grows G
    g_l = SimpleGraph(n, l_edges)
    del l_edges, g_edges, take_lower, weight, insert
    try:
        trace.completion_restarts = kernel.complete(rng)
    except DeadBaseError as dead:
        kernel = make_kernel(d, prob_mode)
        trace.completion_restarts = dead.restarts + kernel.complete(rng)
        if escape is None:
            escape = steps
    trace.completion_insertions = len(kernel.edges) - trace.edges_at_step_end
    g = SimpleGraph(n, kernel.edges)
    del kernel
    if escape is not None:
        trace.fallback, trace.fallback_step = True, escape
    elif not g_l.is_subgraph_of(g):
        raise InvariantError("lower graph is not a subgraph of the upper graph")
    return g_l, g, trace
