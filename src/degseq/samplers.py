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
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat, starmap
from typing import Iterable, Sequence

import numpy as np

from .graphs import (
    DegenerateSequenceError,
    DegreeSequence,
    Edge,
    NonGraphicalError,
    ProductLambda,
    SimpleGraph,
    SymmetricProbMatrix,
    is_graphical,
    remaining_degrees,
    tri_index,
    tri_pairs,
    tri_size,
    tri_to_key,
)
from .oracle import enumerate_graphs, mask_of_edges
from .randomness import AliasTable, RandomSource, sample_poisson

__all__ = [
    "SeqSampleMode",
    "SamplerDiagnostics",
    "sample_poisson",
    "sample_weighted_edge",
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


class InvariantError(RuntimeError):
    """A run broke an invariant its construction guarantees (a program fault)."""


@dataclass
class SamplerDiagnostics:
    """Counters a caller may pass in to observe sampler internals."""

    restarts: int = 0


def _require_two_positive(d: DegreeSequence) -> None:
    if sum(1 for x in d.degrees if x > 0) < 2:
        raise DegenerateSequenceError("need at least two positive degrees")


def sample_weighted_edge(d: DegreeSequence | Sequence[int], rng: RandomSource) -> Edge:
    """Unordered pair {j,k} drawn with probability proportional to d_j d_k."""
    d = DegreeSequence.of(d)
    _require_two_positive(d)
    return AliasTable(d.degrees).sample_pair(rng)


def sample_gnw(w: SymmetricProbMatrix, rng: RandomSource) -> SimpleGraph:
    """Include each pair (j,k) independently with probability W_{jk}."""
    u = rng.uniforms(tri_size(w.n))
    hits = np.flatnonzero(u < w.tri)
    return SimpleGraph(w.n, frozenset(tri_to_key(w.n, hits).tolist()))


def accept_candidates(
    alias: AliasTable,
    big_lambda: SymmetricProbMatrix | ProductLambda,
    steps: int,
    rng: RandomSource,
    edges: set[int],
) -> None:
    """Draw `steps` pairs proportional to d_j d_k; add each to the key set
    `edges` w.p. Lambda_jk."""
    sample_pair, uniform, lam_of, add = alias.sample_pair, rng.uniform, big_lambda.entry, edges.add
    n = big_lambda.n
    for _ in range(steps):
        j, k = sample_pair(rng)
        if uniform() < lam_of(j, k):
            add(j * n + k)


def seq_approx_p(
    d: DegreeSequence | Sequence[int],
    lam: float,
    big_lambda: SymmetricProbMatrix | ProductLambda,
    rng: RandomSource,
) -> SimpleGraph:
    """Poissonized sequential sampler.

    Draws a Poisson(lam) number of candidate pairs, each proportional to
    d_j d_k, and keeps pair jk with probability Lambda_jk.  The output is an
    independent-edge graph whose marginal for jk equals
    1 - exp(-lam * Lambda_jk * Q_jk).
    """
    d = DegreeSequence.of(d)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if big_lambda.n != d.n:
        raise ValueError("Lambda dimension does not match degree sequence")
    _require_two_positive(d)
    steps = sample_poisson(lam, rng)
    edges: set[int] = set()
    accept_candidates(AliasTable(d.degrees), big_lambda, steps, rng, edges)
    return SimpleGraph(d.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Insertion kernels, shared with the coupling engine.  A kernel owns a partial
# graph G (`edges`, and `history` in insertion order, both of edge keys
# j*n + k) under the degrees d:
#   weight(j, k)       rho_jk = P(jk joins G | G) / (d_j d_k), jk a non-edge
#   denominator(mode)  a bound on rho over all non-edges (EtaDenominatorMode)
#   insert(j, k)       add jk to G
#   complete(rng)      extend G to degrees d; returns the dead-end restarts
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

    `complete` makes all of its insertions in one frame, one `insert_step`
    call per attempt; a plain `insert_step` makes one.  The stub list is
    built by the first of them.  The max-heap over t_h/d_h is built on the
    first certified-bound query and refreshed only when queried: `insert`
    never touches it, and since t only falls between restarts, a stale top
    entry overstates its ratio and is replaced by its current one.
    """

    __slots__ = ("d", "n", "t", "tsum", "edges", "history", "stubs", "t_r", "tsum_r", "heap", "dmax")

    def __init__(self, d: Sequence[int], edges: set[int], t: list[int]):
        self.d = d
        self.n = len(d)
        self.t = t
        self.tsum = sum(t)
        self.edges = edges
        self.history: list[int] = []
        self.stubs: list[int] | None = None
        self.t_r: list[int] = []
        self.tsum_r = 0
        # entries (-t_h/d_h, h, t_h) carry the t value they were made with,
        # so stale ones can be told apart
        self.heap: list[tuple[float, int, int]] | None = None
        self.dmax = max(d)

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
        n, edges = self.n, self.edges
        pairs = ((j, k) for j in range(n) for k in range(j + 1, n) if j * n + k not in edges)
        return max((self.weight(j, k) for j, k in pairs), default=0.0)

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

    def eligible_pair_exists(self) -> bool:
        pos = [h for h, v in enumerate(self.t) if v > 0]
        if len(pos) < 2:
            return False
        # any vertex with t_h >= 1 has at most d_h - 1 < dmax neighbours,
        # so a large positive set always contains a non-adjacent pair
        if len(pos) > self.dmax:
            return True
        n, edges = self.n, self.edges
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                if pos[a] * n + pos[b] not in edges:
                    return True
        return False

    def insert_step(self, rng: RandomSource, count: int = 1) -> int | None:
        """`count` accepted insertions in one frame; the key of the last edge
        inserted, or None as soon as no eligible pair remains (checked once
        512 proposals in a row have failed)."""
        n, t, edges, uniform, append = self.n, self.t, self.edges, rng.uniform, self.history.append
        stubs, t_r, tsum, tsum_r = self.stubs, self.t_r, self.tsum, self.tsum_r
        size = 0 if stubs is None else len(stubs)
        e = None
        for _ in range(count):
            if tsum < 2:
                return None
            if stubs is None or 4 * tsum < 3 * tsum_r:
                # drop the old list first; one int object per vertex, shared by its stubs
                stubs = self.stubs = None
                t_r = self.t_r = list(t)
                tsum_r = self.tsum_r = tsum
                stubs = self.stubs = list(chain.from_iterable(map(repeat, range(len(t_r)), t_r)))
                size = len(stubs)
            attempts = 0
            while True:
                attempts += 1
                if attempts > 512:
                    if not self.eligible_pair_exists():
                        return None
                    attempts = 0
                j = stubs[int(uniform() * size)]
                k = stubs[int(uniform() * size)]
                tj, tk = t[j], t[k]
                if j == k or not tj or not tk:
                    continue
                e = j * n + k if j < k else k * n + j
                if e in edges:
                    continue
                prod = tj * tk
                if uniform() * t_r[j] * t_r[k] * (tsum + prod) < prod * (tsum + 1):
                    break
            edges.add(e)
            append(e)
            t[j] = tj - 1
            t[k] = tk - 1
            self.tsum = tsum = tsum - 2
        return e

    def complete(self, rng: RandomSource) -> int:
        """Insert until every degree is met.  A run that paints itself into a
        corner (no weight-positive pair left, degrees unsaturated) restarts
        from the state `complete` began in; returns the number of restarts."""
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
        return restarts


class OracleKernel:
    """Sequential insertion with exact conditional probabilities.

    Keeps the sub-family of enumerated graphs containing the current state;
    the weight of candidate edge jk is the fraction of those graphs that also
    contain jk, over d_j d_k.  Candidate counts are cached until the next
    insert.
    """

    __slots__ = ("d", "n", "pairs", "sub", "gmask", "edges", "history", "_counts")

    def __init__(self, d: Sequence[int], masks: Sequence[int], edges: Iterable[int]):
        self.d = d
        self.n = len(d)
        self.pairs = tri_pairs(self.n)
        self.edges = set(edges)
        self.history: list[int] = []
        self.gmask = mask_of_edges(self.n, self.edges)
        self.sub = [m for m in masks if m & self.gmask == self.gmask]
        if not self.sub:
            raise ValueError("conditioning event is empty")
        self._counts: dict[int, int] | None = None

    def candidate_counts(self) -> dict[int, int]:
        """bit -> number of compatible members containing that missing edge."""
        if self._counts is None:
            counts: dict[int, int] = {}
            g = self.gmask
            for mem in self.sub:
                rem = mem ^ g
                while rem:
                    low = rem & -rem
                    counts[low] = counts.get(low, 0) + 1
                    rem ^= low
            self._counts = counts
        return self._counts

    def weight(self, j: int, k: int) -> float:
        bit = 1 << tri_index(self.n, j, k)
        return self._weight(bit, self.candidate_counts().get(bit, 0))

    def denominator(self, mode: EtaDenominatorMode) -> float:
        """The largest weight over non-edges, or 0.0.  Exact weights have no
        closed-form bound, so every mode gets the exact maximum."""
        return max(starmap(self._weight, self.candidate_counts().items()), default=0.0)

    def _weight(self, bit: int, count: int) -> float:
        """Weight of the pair at `bit`, which `count` sub-family members contain."""
        j, k = self.pairs[bit.bit_length() - 1]
        return count / len(self.sub) / (self.d[j] * self.d[k])

    def insert(self, j: int, k: int) -> None:
        i = tri_index(self.n, j, k)
        e, bit = j * self.n + k, 1 << i
        self.edges.add(e)
        self.history.append(e)
        self.gmask |= bit
        g = self.gmask
        self.sub = [m for m in self.sub if m & bit]
        self._counts = None
        if not self.sub or any(m & g != g for m in self.sub):
            raise InvariantError(f"inserting ({j},{k}) left the enumerated sub-family")

    def insert_step(self, rng: RandomSource) -> int:
        counts = self.candidate_counts()
        if not counts:
            raise RuntimeError("no insertable edge; state is already saturated")
        total = sum(counts.values())
        r = rng.uniform() * total
        acc = 0.0
        chosen = -1
        for bit in sorted(counts):
            acc += counts[bit]
            if r < acc:
                chosen = bit
                break
        if chosen < 0:
            chosen = max(counts)
        j, k = self.pairs[chosen.bit_length() - 1]
        self.insert(j, k)
        return j * self.n + k

    def complete(self, rng: RandomSource) -> int:
        """Insert until G is a family member; exact weights never dead-end."""
        while self.candidate_counts():
            self.insert_step(rng)
        return 0


def make_kernel(
    d: DegreeSequence,
    mode: SeqSampleMode,
    state: SimpleGraph,
    cap: int | None = None,
) -> AsymptoticKernel | OracleKernel:
    """The insertion kernel for `mode`, holding the partial graph `state`."""
    if state.n != d.n:
        raise ValueError(f"graph on {state.n} vertices vs sequence of length {d.n}")
    if mode is SeqSampleMode.EXACT_ORACLE:
        return OracleKernel(d.degrees, enumerate_graphs(d, cap=cap).masks, state.edges)
    if mode is SeqSampleMode.ASYMPTOTIC:
        t, _ = remaining_degrees(d, state)
        return AsymptoticKernel(d.degrees, set(state.edges), list(t.degrees))
    raise ValueError(f"unknown mode {mode!r}")


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

    In EXACT_ORACLE mode every step uses the exact conditional edge
    probabilities, so the final graph is an exact uniform draw and each
    checkpoint is an exact uniform m-edge partial graph.  In ASYMPTOTIC mode
    steps use the closed-form remaining-degree weights; the final law is only
    approximately uniform, and a run that paints itself into a corner (no
    weight-positive pair left, degrees unsaturated) restarts from scratch,
    counted in `diagnostics.restarts`.
    """
    d = DegreeSequence.of(d)
    if not is_graphical(d):
        raise NonGraphicalError(f"{d.degrees} is not graphical")
    m_total = d.total // 2
    want = [int(m) for m in checkpoints]
    for m in want:
        if not 0 <= m <= m_total:
            raise ValueError(f"checkpoint {m} outside [0, {m_total}]")
    kernel = make_kernel(d, mode, SimpleGraph.empty(d.n))
    restarts = kernel.complete(rng)
    if diagnostics is not None:
        diagnostics.restarts += restarts
    order = kernel.history
    final = SimpleGraph(d.n, frozenset(kernel.edges))
    return final, [SimpleGraph(d.n, frozenset(order[:m])) for m in want]
