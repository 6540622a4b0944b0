"""Sequential random-graph generators.

Two families of samplers live here:

* independent-edge sampling of G(n, W), both directly and via the
  Poissonized sequential procedure (seq_approx_p);
* degree-sequence sampling of G(n, d) by sequential edge insertion
  (seq_sample_d), either with exact conditional probabilities from the
  enumeration oracle or with the asymptotic closed-form weights.

The insertion kernels are shared with the coupling engine.
"""
from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    InvariantError,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    is_graphical,
    tri_size,
    tri_to_key,
)
from .oracle import OracleKernel, enumerate_graphs
from .randomness import (
    CandidateStream,
    RandomSource,
    alias_table,
    check_poisson_mean,
    sample_poisson,
)

# the most uniforms one refill of `AsymptoticKernel.insert_step` asks for
_DRAW_BLOCK = 8192
# the dead ends in a row after which `AsymptoticKernel.complete` gives up on a
# non-empty base: well above the 23 that the completing bases of a 10^5-run
# sweep at n <= 9 took at most (see CHANGES.md)
DEAD_BASE_RESTARTS = 64

__all__ = [
    "DeadBaseError",
    "InvariantError",
    "SeqSampleMode",
    "SamplerDiagnostics",
    "sample_poisson",
    "sample_gnw",
    "seq_approx_p",
    "seq_sample_d",
]


class SeqSampleMode(Enum):
    EXACT_ORACLE = "exact"
    ASYMPTOTIC = "asymptotic"


class EtaDenominatorMode(Enum):
    EXACT_MAX = "exact-max"
    CERTIFIED_BOUND = "certified-bound"


class DeadBaseError(RuntimeError):
    """`complete` dead-ended `DEAD_BASE_RESTARTS` times in a row from the
    partial graph it began in, and left the kernel there."""

    def __init__(self, restarts: int):
        super().__init__(f"no completion of the base after {restarts} restarts")
        self.restarts = restarts


@dataclass
class SamplerDiagnostics:
    """Counters a caller may pass in to observe sampler internals."""

    restarts: int = 0


def sample_gnw(w: SymmetricProbMatrix, rng: RandomSource) -> SimpleGraph:
    """Include each pair (j,k) independently with probability W_{jk}."""
    u = rng.uniforms(tri_size(w.n))
    hits = np.flatnonzero(u < w.tri)
    return SimpleGraph(w.n, tri_to_key(w.n, hits))


def seq_approx_p(d: DegreeSequence | Sequence[int], lam: float,
                 big_lambda: SymmetricProbMatrix, rng: RandomSource) -> SimpleGraph:
    """Poissonized sequential sampler.

    Draws a Poisson(lam) number of candidate pairs, each proportional to
    d_j d_k, and keeps pair jk with probability Lambda_jk.  The output is an
    independent-edge graph whose marginal for jk equals
    1 - exp(-lam * Lambda_jk * Q_jk).
    """
    d = DegreeSequence.of(d)
    check_poisson_mean(lam, "lam")
    if big_lambda.n != d.n:
        raise ValueError("Lambda dimension does not match degree sequence")
    steps = sample_poisson(lam, rng)
    edges: set[int] = set()
    CandidateStream(alias_table(d.degrees), big_lambda, steps, rng).accept_rest(edges)
    return SimpleGraph(d.n, edges)


# ---------------------------------------------------------------------------
# Insertion kernels, shared with the coupling engine.  A kernel owns a partial
# graph G (`edges`, and `history` in insertion order, both of edge keys
# j*n + k) under the degrees d:
#   weight(j, k)       rho_jk = P(jk joins G | G) / (d_j d_k), jk a non-edge
#   denominator(mode)  a bound on rho over all non-edges (EtaDenominatorMode)
#   insert(j, k)       add jk to G
#   complete(rng)      extend G to degrees d; returns the dead-end restarts, or
#                      raises DeadBaseError for a G it gives up on
# Both take a pair in either order.  `oracle.OracleKernel` (whose empty state
# reads the family's masks in place, whose `insert` refilters its sub-family
# in one pass, and whose `complete` draws a uniform member containing G, adds
# its missing edges in uniform order at once and takes the member as G) and
# `AsymptoticKernel` implement it.  Both start at the empty graph; `make_kernel`
# builds them and reaches a given state by `insert` on its edges in ascending
# order, the samplers' path, so the state's edges head `history`.
# ---------------------------------------------------------------------------


class AsymptoticKernel:
    """Sequential insertion with closed-form remaining-degree weights.

    The weight of non-edge jk is t_j t_k / (||t||_1 + t_j t_k) / (d_j d_k),
    with t the remaining degrees.  Each accepted insertion samples a non-edge
    jk (t_j, t_k >= 1) with probability proportional to
    t_j t_k / (||t||_1 + t_j t_k), in phases (Bayati, Kim & Saberi 2010):
    proposals are two uniform draws from a stub list built from t_R, the
    remaining degrees at the last rebuild, and one uniform accepts a pair
    with probability (t_j/t_R[j]) (t_k/t_R[k]) (||t||_1 + 1) / (||t||_1 +
    t_j t_k).  The first two factors thin the proposal to the product law
    t_j t_k; the last is a constant-numerator renormalization of the target
    to that law, so proportionality is exact.  Nothing is removed from the
    stub list: it is rebuilt when ||t||_1 falls below 3/4 of its value at
    the last rebuild, so on average at least 9/16 of proposals survive it.

    Uniforms come in blocks from `rng.uniforms`, and each block is mapped
    to stub vertices by one numpy gather.  The loop reads a proposal's j and
    k from the mapped block and its coin from the block itself, by position,
    so a draw's role is still decided as the scalar loop decided it.  The
    block is local to one `insert_step` call: a rebuild of the stub list, and
    every return, hands its unread rest back with `rng.unread`, so the rng
    is left where one `rng.uniform()` per draw would leave it and the kernel
    holds no draw between calls.

    `complete` makes all of its insertions in one frame, one `insert_step`
    call per attempt; a plain `insert_step` makes one.  The stub list is
    built by the first of them.  The max-heap over t_h/d_h is built on the
    first certified-bound query and refreshed only when queried: `insert`
    never touches it, and since t only falls between restarts, a stale top
    entry overstates its ratio and is replaced by its current one.
    """

    __slots__ = ("d", "n", "t", "tsum", "edges", "history", "stubs", "t_r", "tsum_r", "heap")

    def __init__(self, d: Sequence[int]):
        self.d = d
        self.n = len(d)
        self.t = list(d)
        self.tsum = sum(d)
        self.edges: set[int] = set()
        self.history: list[int] = []
        self.stubs: np.ndarray | None = None
        self.t_r: list[int] = []
        self.tsum_r = 0
        # entries (-t_h/d_h, h, t_h) carry the t value they were made with,
        # so stale ones can be told apart
        self.heap: list[tuple[float, int, int]] | None = None

    def weight(self, j: int, k: int) -> float:
        prod = self.t[j] * self.t[k]
        return prod / (self.tsum + prod) / (self.d[j] * self.d[k]) if prod > 0 else 0.0

    def denominator(self, mode: EtaDenominatorMode) -> float:
        """EXACT_MAX: the largest weight over non-edges; CERTIFIED_BOUND:
        (max_h t_h/d_h)^2 / ||t||_1 (see `coupling.eta_denominator`).  Either
        is 0.0 when no non-edge has positive weight."""
        if mode is EtaDenominatorMode.CERTIFIED_BOUND:
            rmax = self._max_ratio()
            return rmax * rmax / self.tsum if self.tsum > 0 else 0.0
        return max((self.weight(j, k) for j, k in self._open_pairs()), default=0.0)

    def _max_ratio(self) -> float:
        t, d, heap = self.t, self.d, self.heap
        if heap is None:
            heap = self.heap = [(-t[h] / d[h], h, t[h]) for h in range(len(d)) if d[h] >= 1]
            heapq.heapify(heap)
        if not heap:
            return 0.0
        while heap[0][2] != t[heap[0][1]]:
            h = heap[0][1]
            heapq.heapreplace(heap, (-t[h] / d[h], h, t[h]))
        return -heap[0][0]

    def insert(self, j: int, k: int) -> None:
        e = j * self.n + k if j < k else k * self.n + j
        self.edges.add(e)
        self.history.append(e)
        t = self.t
        t[j] -= 1
        t[k] -= 1
        self.tsum -= 2

    def _open_pairs(self) -> Iterator[tuple[int, int]]:
        """The non-edges jk with t_j, t_k >= 1: every pair of positive weight."""
        n, edges = self.n, self.edges
        pos = [h for h, v in enumerate(self.t) if v > 0]
        for a, j in enumerate(pos):
            for k in pos[a + 1:]:
                if j * n + k not in edges:
                    yield j, k

    def eligible_pair_exists(self) -> bool:
        # O(n + max(d)^2): a vertex with t_h >= 1 has fewer than max(d)
        # neighbours, so the first row finds a non-edge when len(pos) > max(d)
        return next(self._open_pairs(), None) is not None

    def insert_step(self, rng: RandomSource, count: int = 1) -> int | None:
        """`count` accepted insertions in one frame; the key of the last edge
        inserted, or None as soon as no eligible pair remains (checked once
        512 proposals in a row have failed)."""
        n, t, edges, append = self.n, self.t, self.edges, self.history.append
        stubs, t_r, tsum, tsum_r = self.stubs, self.t_r, self.tsum, self.tsum_r
        # the block of uniforms, each one's stub vertex, the next to read and the end
        drawn, drawn_stubs, p, end = [], [], 0, 0
        e = None
        try:
            for owed in range(count, 0, -1):
                if tsum < 2:
                    return None
                if stubs is None or 4 * tsum < 3 * tsum_r:
                    # the block was mapped on the old list: refill, handing its rest back
                    end = p
                    # drop the old list first
                    stubs = self.stubs = None
                    t_r = self.t_r = list(t)
                    tsum_r = self.tsum_r = tsum
                    stubs = self.stubs = np.repeat(np.arange(len(t_r)), t_r)
                attempts = 0
                while True:
                    attempts += 1
                    if attempts > 512:
                        if not self.eligible_pair_exists():
                            return None
                        attempts = 0
                    if end - p < 3:
                        # at most 3 uniforms per insertion still owed
                        rng.unread(drawn[p:])
                        u = rng.uniforms(min(_DRAW_BLOCK, 3 * owed))
                        drawn, p, end = u.tolist(), 0, len(u)
                        # the vertex each uniform picks from the stub list
                        drawn_stubs = stubs[(u * len(stubs)).astype(np.intp)].tolist()
                    j = drawn_stubs[p]
                    k = drawn_stubs[p + 1]
                    tj, tk = t[j], t[k]
                    if j == k or not tj or not tk:
                        p += 2
                        continue
                    e = j * n + k if j < k else k * n + j
                    if e in edges:
                        p += 2
                        continue
                    prod = tj * tk
                    p += 3
                    if drawn[p - 1] * t_r[j] * t_r[k] * (tsum + prod) < prod * (tsum + 1):
                        break
                edges.add(e)
                append(e)
                t[j] = tj - 1
                t[k] = tk - 1
                self.tsum = tsum = tsum - 2
            return e
        finally:
            rng.unread(drawn[p:])

    def complete(self, rng: RandomSource) -> int:
        """Insert until every degree is met.  A run that paints itself into a
        corner (no weight-positive pair left, degrees unsaturated) restarts
        from the state `complete` began in; returns the number of restarts.
        A non-empty base may have no completion at all: after
        `DEAD_BASE_RESTARTS` restarts from one, raises `DeadBaseError`.  The
        empty base of a graphical d always has one and is never given up."""
        base_t = list(self.t)
        base_len = len(self.history)
        # a restart rewinds t, which the query-time heap cannot follow
        self.heap = None
        restarts = 0
        while self.tsum > 0:
            if self.insert_step(rng, count=self.tsum // 2) is None:
                restarts += 1
                self.edges.difference_update(self.history[base_len:])
                self.t[:] = base_t
                self.tsum = sum(base_t)
                del self.history[base_len:]
                self.stubs = None
                if base_len and restarts == DEAD_BASE_RESTARTS:
                    raise DeadBaseError(restarts)
        return restarts


def make_kernel(
    d: DegreeSequence,
    mode: SeqSampleMode,
    state: SimpleGraph | None = None,
) -> AsymptoticKernel | OracleKernel:
    """The insertion kernel for `mode`, at the empty graph or brought to the
    partial graph `state` by `insert` on each of its edges in ascending order.

    ValueError when `state` lies in no member of the family (exact) or gives
    a vertex more than its degree (asymptotic)."""
    if state is not None and state.n != d.n:
        raise ValueError(f"graph on {state.n} vertices vs sequence of length {d.n}")
    if mode is SeqSampleMode.EXACT_ORACLE:
        kernel = OracleKernel(enumerate_graphs(d))
    elif mode is SeqSampleMode.ASYMPTOTIC:
        kernel = AsymptoticKernel(d.degrees)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if state is None:
        return kernel
    try:
        for j, k in state.pairs():
            kernel.insert(j, k)
    except InvariantError:
        raise ValueError("conditioning event is empty") from None
    if mode is SeqSampleMode.ASYMPTOTIC:
        for h, (dh, th) in enumerate(zip(d.degrees, kernel.t)):
            if th < 0:
                raise ValueError(f"vertex {h}: partial degree {dh - th} exceeds target {dh}")
    return kernel


def check_checkpoints(d: DegreeSequence, checkpoints: Sequence[int]) -> list[int]:
    """The checkpoints as ints; TypeError for one that is not an integer (a
    bool or a float included), ValueError for one outside [0, ||d||_1 / 2]."""
    m_total = d.total // 2
    want = []
    for m in checkpoints:
        if isinstance(m, bool):
            raise TypeError(f"checkpoint {m!r} is not an integer")
        m = operator.index(m)
        if not 0 <= m <= m_total:
            raise ValueError(f"checkpoint {m} outside [0, {m_total}]")
        want.append(m)
    return want


def seq_sample_d(
    d: DegreeSequence | Sequence[int],
    mode: SeqSampleMode,
    rng: RandomSource,
    checkpoints: Sequence[int] = (),
    diagnostics: SamplerDiagnostics | None = None,
) -> tuple[SimpleGraph, list[SimpleGraph]]:
    """Build a graph with degree sequence d by sequential edge insertion.

    Returns the final graph plus a deep snapshot of the state after m
    insertions for each requested checkpoint m (in caller order).

    In EXACT_ORACLE mode the insertions follow the exact conditional edge
    probabilities (`OracleKernel.complete` draws them at once), so the final
    graph is an exact uniform draw and each checkpoint is an exact uniform
    m-edge partial graph.  In ASYMPTOTIC mode steps use the closed-form
    remaining-degree weights; the final law is only approximately uniform,
    and a run that paints itself into a corner (no weight-positive pair
    left, degrees unsaturated) restarts from scratch, counted in
    `diagnostics.restarts`.
    """
    d = DegreeSequence.of(d)
    if not is_graphical(d):
        raise NonGraphicalError(f"{d.degrees} is not graphical")
    want = check_checkpoints(d, checkpoints)
    kernel = make_kernel(d, mode)
    restarts = kernel.complete(rng)
    if diagnostics is not None:
        diagnostics.restarts += restarts
    order = kernel.history
    final = SimpleGraph(d.n, kernel.edges)
    return final, [SimpleGraph(d.n, order[:m]) for m in want]
