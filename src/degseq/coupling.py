"""Coupled construction of an independent-edge graph inside a degree-constrained one.

`run_coupling` drives a Poissonized stream of degree-weighted candidate pairs
through a three-way accept table so that, marginally, the lower graph is an
independent-edge graph with entries 1 - exp(-lam * Lambda_jk * Q_jk), the
upper graph is (in exact mode) a uniform graph with the target degree
sequence, and on runs that never hit the escape branch the lower graph is a
subgraph of the upper one.  The escape branch (`ind_sample`) redraws the two
graphs independently, preserving both marginal laws at the cost of
containment.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import log, sqrt
from typing import Sequence

from .graphs import (
    DegreeSequence,
    NonGraphicalError,
    ProductLambda,
    SimpleGraph,
    SymmetricProbMatrix,
    degree_stats,
    is_graphical,
    normalize_edge,
    q_matrix,
    f_c_transform,
    hadamard,
)
from .oracle import exact_uniform_sample, oracle_cap
from .randomness import AliasTable, RandomSource, sample_poisson
from .samplers import (
    EtaDenominatorMode,
    InvariantError,
    SeqSampleMode,
    accept_candidates,
    make_kernel,
    sample_gnw,
    seq_sample_d,
)

__all__ = [
    "EtaDenominatorMode",
    "CouplingParams",
    "CouplingTrace",
    "default_params",
    "lambda_matrix",
    "lower_law",
    "rho",
    "eta_denominator",
    "run_coupling",
    "ind_sample",
]


@dataclass(frozen=True)
class CouplingParams:
    """Schedule parameters: three vanishing slacks, the Poisson budget, and
    the per-pair lower-graph acceptance matrix."""

    xi: float
    zeta: float
    zeta_prime: float
    lam: float
    big_lambda: SymmetricProbMatrix | ProductLambda
    regime_warning: bool = False


def lambda_matrix(d: DegreeSequence | Sequence[int], zeta: float) -> SymmetricProbMatrix:
    """Acceptance matrix with entries (1 - zeta) * ||d||_1 / (||d||_1 + d_j d_k),
    stored dense; `default_params` holds the same entries in closed form."""
    lam = ProductLambda(d, zeta)
    return SymmetricProbMatrix(lam.n, lam.tri)


def lower_law(
    d: DegreeSequence | Sequence[int],
    big_lambda: SymmetricProbMatrix | ProductLambda,
    lam: float,
) -> SymmetricProbMatrix:
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
        big_lambda=ProductLambda(d, zeta),
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
    _require_compatible(denom_mode, prob_mode)
    bound = make_kernel(d, prob_mode, state).denominator(denom_mode)
    if bound <= 0.0:
        raise ValueError("no eligible pair")
    return bound


def _require_compatible(denom_mode: EtaDenominatorMode, prob_mode: SeqSampleMode) -> None:
    certified = denom_mode is EtaDenominatorMode.CERTIFIED_BOUND
    if certified and prob_mode is not SeqSampleMode.ASYMPTOTIC:
        raise ValueError("certified bound is only valid for asymptotic probabilities")


@dataclass
class CouplingTrace:
    """Per-run record of the coupled construction.

    The step loop partitions its iterations exactly as
    duplicate_hits + insertions_both + rejections_l_only + rejections_g
    = steps_total, and the upper graph's edge count when the loop ended is
    insertions_both + rejections_l_only.
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
    approx_g: bool = False
    p_m_checkpoints: list[tuple[int, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def ind_sample(
    d: DegreeSequence | Sequence[int],
    params: CouplingParams,
    rng: RandomSource,
) -> tuple[SimpleGraph, SimpleGraph]:
    """Independent pair (G_L, G): the escape branch of the coupling.

    G is drawn first (exactly, via the enumeration oracle, when n is within
    the cap; otherwise by the asymptotic sequential sampler), then G_L from
    its closed-form independent-edge law.  No containment relation holds.
    """
    d = DegreeSequence.of(d)
    g, _ = _redraw_upper(d, rng, oracle_cap())
    g_l = sample_gnw(lower_law(d, params.big_lambda, params.lam), rng)
    return g_l, g


def _redraw_upper(d: DegreeSequence, rng: RandomSource, cap: int) -> tuple[SimpleGraph, bool]:
    """G from its own law, and whether that law is only approximate: exact
    from the enumeration oracle when n is within the cap, otherwise the
    asymptotic sequential sampler."""
    if d.n <= cap:
        return exact_uniform_sample(d, rng, cap=cap), False
    g, _ = seq_sample_d(d, SeqSampleMode.ASYMPTOTIC, rng)
    return g, True


def _auto_checkpoints(steps: int) -> list[int]:
    if steps <= 0:
        return []
    return sorted({max(1, round(steps * i / 10)) for i in range(1, 11)})


def run_coupling(
    d: DegreeSequence | Sequence[int],
    params: CouplingParams,
    prob_mode: SeqSampleMode,
    denom_mode: EtaDenominatorMode,
    rng: RandomSource,
) -> tuple[SimpleGraph, SimpleGraph, CouplingTrace]:
    """Coupled sequential construction of (G_L, G).

    Runs a Poisson(lam) number of candidate steps.  A candidate pair already
    in G flips only the lower graph's acceptance coin.  A fresh pair is
    scored by eta = rho / denominator; a single uniform then decides between
    adding to both graphs (Lambda_jk), adding to G alone (eta - Lambda_jk),
    or rejecting (1 - eta).  One uniform per branch point keeps a fixed
    stream's fallback indicator monotone in zeta.  After the step loop, G is
    completed to its full degree sequence with the matching
    sequential-insertion kernel.

    When eta < Lambda_jk the coupled construction escapes (recorded in the
    trace, not an error): the lower graph finishes its candidate stream with
    acceptance coins alone, so that over the whole run every step applied
    the same add-with-probability-Lambda update and its independent-edge law
    holds exactly, unconditionally; the upper graph is redrawn independently
    from its own law as in `ind_sample`.  A fresh redraw of the lower graph
    would instead bias the overall mixture, because the escape event is
    correlated with the acceptance coins already spent.
    """
    d = DegreeSequence.of(d)
    n = d.n
    if params.big_lambda.n != n:
        raise ValueError("params built for a different n")
    if not is_graphical(d):
        raise NonGraphicalError(f"{d.degrees} is not graphical")
    _require_compatible(denom_mode, prob_mode)

    trace = CouplingTrace()
    total = d.total
    if total == 0:
        return SimpleGraph.empty(n), SimpleGraph.empty(n), trace

    steps = sample_poisson(params.lam, rng)
    trace.poisson_steps = steps
    checkpoint_at = set(_auto_checkpoints(steps))

    cap = oracle_cap()
    kernel = make_kernel(d, prob_mode, SimpleGraph.empty(n), cap=cap)
    # both graphs hold edge keys j*n + k
    g_edges = kernel.edges
    l_edges: set[int] = set()
    table = AliasTable(d.degrees)
    sample_pair, uniform, lam_of = table.sample_pair, rng.uniform, params.big_lambda.entry
    for step in range(1, steps + 1):
        j, k = sample_pair(rng)
        e = j * n + k
        lam_jk = lam_of(j, k)
        if e in g_edges:
            trace.duplicate_hits += 1
            if uniform() < lam_jk:
                l_edges.add(e)
        else:
            r = kernel.weight(j, k)
            # a candidate that can never join G gets eta = 0, which also
            # covers the saturated state where the true maximum vanishes
            eta = r / kernel.denominator(denom_mode) if r > 0.0 else 0.0
            if eta > 1.0 + 1e-9:
                raise InvariantError(f"eta = {eta} > 1: the denominator must dominate rho")
            trace.eta_min = min(trace.eta_min, eta)
            if eta < lam_jk:
                trace.fallback = True
                trace.fallback_step = step
                break
            u = uniform()
            if u < eta:
                kernel.insert(j, k)
                if u < lam_jk:
                    l_edges.add(e)
                    trace.insertions_both += 1
                else:
                    trace.rejections_l_only += 1
            else:
                trace.rejections_g += 1
        if step in checkpoint_at:
            trace.p_m_checkpoints.append((step, (total - 2 * len(g_edges)) / total))

    trace.edges_at_step_end = len(g_edges)
    if trace.fallback:
        trace.steps_total = trace.fallback_step
        # finish the lower graph's candidate stream: the escape step's pair
        # still gets its acceptance coin, then the remaining Poisson steps
        # run with coins alone, so the lower law holds exactly
        if uniform() < lam_jk:
            l_edges.add(e)
        accept_candidates(table, params.big_lambda, steps - trace.fallback_step, rng, l_edges)
        # G is redrawn from scratch: free the step loop's partial G first
        del kernel, g_edges
        g, trace.approx_g = _redraw_upper(d, rng, cap)
        return SimpleGraph(n, frozenset(l_edges)), g, trace

    # completion: extend G to its full degree sequence with the same kernel
    # the standalone sequential sampler uses
    trace.steps_total = steps
    trace.completion_restarts = kernel.complete(rng)
    trace.completion_insertions = len(kernel.edges) - trace.edges_at_step_end
    if not l_edges <= kernel.edges:
        raise InvariantError("lower graph is not a subgraph of the upper graph")
    return SimpleGraph(n, frozenset(l_edges)), SimpleGraph(n, frozenset(kernel.edges)), trace
