"""Exact brute-force ground truth for small n.

Enumerates every simple graph with a prescribed degree sequence so that the
samplers can be checked against the true distributions.  Families are stored
as edge bitmasks; bit i corresponds to the i-th pair of `tri_pairs(n)`.
Integer counting is the source of truth; probabilities are derived doubles.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    normalize_edge,
    tri_index,
    tri_pairs,
    tri_size,
)

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
    return int(raw)


def _check_cap(n: int, cap: int | None) -> None:
    limit = oracle_cap() if cap is None else cap
    if n > limit:
        raise OracleCapError(f"n={n} exceeds enumeration cap {limit}")


def mask_of_edges(n: int, keys: Iterable[int]) -> int:
    """The bitmask of a set of edge keys j*n + k."""
    mask = 0
    for key in keys:
        mask |= 1 << tri_index(n, *divmod(key, n))
    return mask


def graph_of_mask(n: int, mask: int) -> SimpleGraph:
    pairs = tri_pairs(n)
    edges = []
    while mask:
        low = mask & -mask
        j, k = pairs[low.bit_length() - 1]
        edges.append(j * n + k)
        mask ^= low
    return SimpleGraph(n, frozenset(edges))


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
    for mask in fam.masks:
        m = mask
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
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
    fam = enumerate_graphs(d)
    hmask = mask_of_edges(d.n, h.edges)
    bit = 1 << tri_index(d.n, j, k)
    total = 0
    hit = 0
    for mask in fam.masks:
        if mask & hmask == hmask:
            total += 1
            if mask & bit:
                hit += 1
    if total == 0:
        raise ValueError("conditioning event is empty")
    return hit / total


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
        bits = []
        mm = mask
        while mm:
            low = mm & -mm
            bits.append(low.bit_length() - 1)
            mm ^= low
        for sub in combinations(bits, m):
            sm = 0
            for b in sub:
                sm |= 1 << b
            counts[sm] = counts.get(sm, 0) + 1
    denom = len(fam) * comb(edges_per_member, m)
    return {
        graph_of_mask(d.n, mask): cnt / denom
        for mask, cnt in sorted(counts.items())
    }
