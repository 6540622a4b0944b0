"""Exact brute-force ground truth for small n.

Enumerates every simple graph with a prescribed degree sequence so that the
samplers can be checked against the true distributions.  Families are stored
as edge bitmasks; bit i corresponds to the i-th pair of `tri_pairs(n)`.
Integer counting is the source of truth; probabilities are derived doubles.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, starmap
from math import comb
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    InvariantError,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    normalize_edge,
    tri_index,
    tri_pairs,
    tri_size,
)

if TYPE_CHECKING:
    from .randomness import RandomSource
    from .samplers import EtaDenominatorMode

DEFAULT_CAP = 10
DEFAULT_FAMILY_CAP = 5_000_000
CAP_ENV_VAR = "DEGSEQ_ORACLE_CAP"


class OracleCapError(RuntimeError):
    """Raised when a request exceeds the configured enumeration cap."""


def oracle_cap() -> int:
    """Current vertex cap; overridable through the DEGSEQ_ORACLE_CAP env var."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    if not raw.strip().isdecimal():
        raise ValueError(f"{CAP_ENV_VAR} must be an integer >= 0, got {raw!r}")
    return int(raw)


def _check_cap(n: int, cap: int | None) -> None:
    limit = oracle_cap() if cap is None else cap
    if n > limit:
        raise OracleCapError(f"n={n} exceeds enumeration cap {limit}")


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, from low to high."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def bit_counts(masks: Iterable[int]) -> dict[int, int]:
    """Bit position -> the number of `masks` with that bit set."""
    # one loop rather than set_bits per mask: the exact kernel recounts after every insertion
    counts: dict[int, int] = {}
    get = counts.get
    for mask in masks:
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            counts[i] = get(i, 0) + 1
            mask ^= low
    return counts


def mask_of_edges(n: int, keys: Iterable[int]) -> int:
    """The bitmask of a set of edge keys j*n + k."""
    mask = 0
    for key in keys:
        mask |= 1 << tri_index(n, *divmod(key, n))
    return mask


def graph_of_mask(n: int, mask: int) -> SimpleGraph:
    pairs = tri_pairs(n)
    return SimpleGraph(n, frozenset(j * n + k for j, k in map(pairs.__getitem__, set_bits(mask))))


@dataclass(frozen=True)
class GraphFamily:
    """All graphs with a fixed degree sequence, as a deterministic mask list."""

    n: int
    degrees: tuple[int, ...]
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def members(self) -> list[SimpleGraph]:
        return [graph_of_mask(self.n, m) for m in self.masks]

    @cached_property
    def pair_counts(self) -> Mapping[int, int]:
        """Pair index -> the number of members with that edge; shared, so read only."""
        return MappingProxyType(bit_counts(self.masks))


def _backtrack_masks(n: int, degrees: Sequence[int]) -> list[int]:
    """Enumerate edge bitmasks realizing `degrees` via pairwise backtracking.

    Pairs are decided in lexicographic order with degree-feasibility pruning:
    a branch dies as soon as some vertex needs more edges than its undecided
    incident pairs can still provide.
    """
    pairs = tri_pairs(n)
    npairs = len(pairs)
    remaining = list(degrees)
    # undecided incident pair count per vertex
    capacity = [n - 1] * n
    out: list[int] = []

    def rec(idx: int, mask: int) -> None:
        if len(out) > DEFAULT_FAMILY_CAP:
            raise OracleCapError(f"family exceeds cap {DEFAULT_FAMILY_CAP}")
        if idx == npairs:
            if all(r == 0 for r in remaining):
                out.append(mask)
            return
        j, k = pairs[idx]
        capacity[j] -= 1
        capacity[k] -= 1
        # exclude branch first so masks come out roughly ascending; final
        # ordering is enforced by a sort in _cached_family.
        if remaining[j] <= capacity[j] and remaining[k] <= capacity[k]:
            rec(idx + 1, mask)
        if remaining[j] > 0 and remaining[k] > 0:
            remaining[j] -= 1
            remaining[k] -= 1
            if remaining[j] <= capacity[j] and remaining[k] <= capacity[k]:
                rec(idx + 1, mask | 1 << idx)
            remaining[j] += 1
            remaining[k] += 1
        capacity[j] += 1
        capacity[k] += 1

    rec(0, 0)
    return out


def raw_scan_masks(d: DegreeSequence | Sequence[int]) -> list[int]:
    """Independent cross-check: scan all 2^(n choose 2) edge subsets (n <= 6).

    Vectorized over the full subset range; kept deliberately separate from the
    backtracking implementation so the two can validate each other.
    """
    d = DegreeSequence.of(d)
    n = d.n
    if n > 6:
        raise OracleCapError("raw scan supported only for n <= 6")
    pairs = tri_pairs(n)
    npairs = len(pairs)
    masks = np.arange(1 << npairs, dtype=np.uint32)
    deg = np.zeros((1 << npairs, n), dtype=np.int8)
    for i, (j, k) in enumerate(pairs):
        bit = ((masks >> np.uint32(i)) & np.uint32(1)).astype(np.int8)
        deg[:, j] += bit
        deg[:, k] += bit
    hit = np.all(deg == np.asarray(d.degrees, dtype=np.int8), axis=1)
    return [int(m) for m in masks[hit]]


@lru_cache(maxsize=256)
def _cached_family(degrees: tuple[int, ...]) -> GraphFamily:
    """The whole family; the caller has already checked the vertex cap."""
    n = len(degrees)
    masks = _backtrack_masks(n, degrees)
    masks.sort()
    return GraphFamily(n, degrees, tuple(masks))


def enumerate_graphs(d: DegreeSequence | Sequence[int], cap: int | None = None) -> GraphFamily:
    """All graphs with degree sequence d, in ascending bitmask order.

    A non-graphical sequence yields an empty family (not an error).
    """
    d = DegreeSequence.of(d)
    _check_cap(d.n, cap)
    return _cached_family(d.degrees)


def exact_edge_marginals(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Entry (j,k) = fraction of the family containing edge jk."""
    d = DegreeSequence.of(d)
    fam = enumerate_graphs(d)
    if not fam.masks:
        raise NonGraphicalError(f"no graph realizes {d.degrees}; marginals undefined")
    counts = edge_counts(fam)
    return SymmetricProbMatrix(d.n, counts / len(fam))


def edge_counts(fam: GraphFamily) -> np.ndarray:
    """Integer count, per pair slot, of members containing that edge."""
    counts = np.zeros(tri_size(fam.n), dtype=np.int64)
    bits = fam.pair_counts
    counts[list(bits)] = list(bits.values())
    return counts


def exact_conditional_edge_prob(
    d: DegreeSequence | Sequence[int],
    h: SimpleGraph,
    jk: tuple[int, int],
) -> float:
    """P(jk present | graph contains h), over uniform graphs with degrees d."""
    d = DegreeSequence.of(d)
    if h.n != d.n:
        raise ValueError(f"graph on {h.n} vertices vs sequence of length {d.n}")
    j, k = normalize_edge(*jk)
    if h.has_edge(j, k):
        raise ValueError(f"edge ({j},{k}) already in the conditioning graph")
    kernel = OracleKernel(enumerate_graphs(d), h.edges)
    return kernel.candidate_counts().get(tri_index(d.n, j, k), 0) / len(kernel.sub)


def exact_uniform_sample(
    d: DegreeSequence | Sequence[int], rng, cap: int | None = None
) -> SimpleGraph:
    """Uniform draw from the enumerated family."""
    d = DegreeSequence.of(d)
    fam = enumerate_graphs(d, cap=cap)
    if not fam.masks:
        raise NonGraphicalError(f"no graph realizes {d.degrees}")
    return graph_of_mask(d.n, fam.masks[rng.below(len(fam))])


def exact_subgraph_law(d: DegreeSequence | Sequence[int], m: int) -> dict[SimpleGraph, float]:
    """Exact law of (uniform family member, then uniform m-edge subgraph).

    Aggregated over all (member, subset) pairs with integer counts; masses
    are exact up to one final float division.
    """
    d = DegreeSequence.of(d)
    fam = enumerate_graphs(d)
    if not fam.masks:
        raise NonGraphicalError(f"no graph realizes {d.degrees}")
    edges_per_member = d.total // 2
    if not 0 <= m <= edges_per_member:
        raise ValueError(f"m={m} outside [0, {edges_per_member}]")
    counts: dict[int, int] = {}
    for mask in fam.masks:
        for sub in combinations(set_bits(mask), m):
            sm = 0
            for b in sub:
                sm |= 1 << b
            counts[sm] = counts.get(sm, 0) + 1
    denom = len(fam) * comb(edges_per_member, m)
    return {
        graph_of_mask(d.n, mask): cnt / denom
        for mask, cnt in sorted(counts.items())
    }


class OracleKernel:
    """Insertion with exact conditional probabilities.

    Keeps the sub-family of enumerated graphs containing the current state;
    the weight of candidate edge jk is the fraction of those graphs that also
    contain jk, over d_j d_k.  Candidate counts are cached until the next
    insert.  `complete` draws a uniform compatible member and inserts its
    missing edges in uniform order, which is the law of exact one-edge steps.
    (The kernel interface is set out in `samplers`.)
    """

    __slots__ = ("d", "n", "pairs", "sub", "gmask", "edges", "history", "_counts")

    def __init__(self, family: GraphFamily, edges: Iterable[int]):
        self.d = family.degrees
        self.n = family.n
        self.pairs = tri_pairs(self.n)
        self.edges = set(edges)
        self.history: list[int] = []
        self.gmask = mask_of_edges(self.n, self.edges)
        self.sub = [m for m in family.masks if m & self.gmask == self.gmask]
        if not self.sub:
            raise ValueError("conditioning event is empty")
        # the empty state's counts are the family's, which it keeps
        self._counts = None if self.gmask else family.pair_counts

    def candidate_counts(self) -> Mapping[int, int]:
        """Pair index -> number of compatible members containing that missing edge."""
        if self._counts is None:
            self._counts = bit_counts(map(self.gmask.__xor__, self.sub))
        return self._counts

    def weight(self, j: int, k: int) -> float:
        i = tri_index(self.n, j, k)
        return self._weight(i, self.candidate_counts().get(i, 0))

    def denominator(self, mode: EtaDenominatorMode) -> float:
        """The largest weight over non-edges, or 0.0.  Exact weights have no
        closed-form bound, so every mode gets the exact maximum."""
        return max(starmap(self._weight, self.candidate_counts().items()), default=0.0)

    def _weight(self, i: int, count: int) -> float:
        """Weight of pair i, which `count` sub-family members contain."""
        j, k = self.pairs[i]
        return count / len(self.sub) / (self.d[j] * self.d[k])

    def insert(self, j: int, k: int) -> None:
        e, bit = j * self.n + k, 1 << tri_index(self.n, j, k)
        self.edges.add(e)
        self.history.append(e)
        self.gmask |= bit
        g = self.gmask
        self.sub = [m for m in self.sub if m & bit]
        self._counts = None
        if not self.sub or any(m & g != g for m in self.sub):
            raise InvariantError(f"inserting ({j},{k}) left the enumerated sub-family")

    def complete(self, rng: RandomSource) -> int:
        """Insert the missing edges of a uniform compatible member, in uniform
        order; returns 0, as nothing dead-ends.

        This is the law of inserting one exact conditional edge at a time:
        with c(H) the number of members containing H and r missing edges, the
        i-th step (from 0) takes e with probability c(G_i + e) / (c(G_i) (r - i)),
        and over an order the product telescopes to 1 / (c(G) r!)."""
        missing = set_bits(self.sub[rng.below(len(self.sub))] ^ self.gmask)
        for i in range(len(missing) - 1, 0, -1):
            a = rng.below(i + 1)
            missing[i], missing[a] = missing[a], missing[i]
        for i in missing:
            self.insert(*self.pairs[i])
        return 0
