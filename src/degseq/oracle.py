"""Exact brute-force ground truth for small n.

Enumerates every simple graph with a prescribed degree sequence, by vertex
elimination after counting the family, so that the samplers can be checked
against the true distributions.  Families are stored as edge bitmasks; bit i
corresponds to the i-th pair of `tri_pairs(n)`.
Integer counting is the source of truth; probabilities are derived doubles.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, groupby, starmap
from math import comb
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    InvariantError,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    key_to_tri,
    tri_pairs,
    tri_size,
)

if TYPE_CHECKING:
    from .randomness import RandomSource

# the most vertices the oracle enumerates: 45 pairs, so every family's
# masks fit one uint64 word
DEFAULT_CAP = 10
DEFAULT_FAMILY_CAP = 5_000_000
# masks per bit matrix: at regular(9,2), 1024 counted pairs as fast as 4096
# did, with a quarter of the transient memory
BIT_ROWS_CHUNK = 1024
# sub-families of more members are counted by `column_counts`: on the exact
# kernel's states at regular(8,3) and regular(9,2) (2-core VM), `bit_counts`
# takes 0.7-0.9 us a member and `column_counts` a near-fixed 11-14 us a call
# on 2-18 members: break-even at 15-16 members
BIT_COUNTS_MAX = 14


class OracleCapError(RuntimeError):
    """Raised when a request exceeds an enumeration cap."""


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
    # one loop rather than set_bits per mask: the exact kernel counts its
    # sub-families of at most BIT_COUNTS_MAX members here, where a bit
    # matrix's fixed cost would dominate
    counts: dict[int, int] = {}
    get = counts.get
    for mask in masks:
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            counts[i] = get(i, 0) + 1
            mask ^= low
    return counts


def bit_rows(masks: Sequence[int], width: int) -> Iterator[np.ndarray]:
    """Bits 0 .. width - 1 of each mask as a uint8 row, in matrices of at most
    `BIT_ROWS_CHUNK` rows.

    Masks are read as little-endian uint64 words: every family within
    `DEFAULT_CAP` vertices has at most 45 pairs, so width <= 64."""
    for start in range(0, len(masks), BIT_ROWS_CHUNK):
        part = masks[start:start + BIT_ROWS_CHUNK]
        raw = np.fromiter(part, dtype="<u8", count=len(part)).view(np.uint8)
        yield np.unpackbits(raw.reshape(len(part), 8), axis=1, count=width, bitorder="little")


def column_counts(masks: Sequence[int], width: int, drop: int = 0) -> dict[int, int]:
    """Bit position -> the number of `masks` with that bit set, over bits
    0 .. width - 1 less those set in `drop`; summed a bit matrix at a time."""
    counts = np.zeros(width, dtype=np.int64)
    for bits in bit_rows(masks, width):
        counts += bits.sum(axis=0, dtype=np.int64)
    counts[set_bits(drop)] = 0
    hit = np.flatnonzero(counts)
    return dict(zip(hit.tolist(), counts[hit].tolist()))


def mask_of_edges(n: int, keys: Iterable[int]) -> int:
    """The bitmask, a Python int, of edge keys j*n + k (an iterable or an array)."""
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    mask = 0
    for key in keys:
        mask |= 1 << key_to_tri(n, key)
    return mask


def graph_of_mask(n: int, mask: int) -> SimpleGraph:
    pairs = tri_pairs(n)
    return SimpleGraph(n, [j * n + k for j, k in map(pairs.__getitem__, set_bits(mask))])


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
        return MappingProxyType(column_counts(self.masks, tri_size(self.n)))


def _family_masks(degrees: tuple[int, ...]) -> list[int]:
    """Every edge bitmask realizing `degrees`, unsorted, by vertex elimination.

    Vertex v, in turn, takes its residual degree of neighbours among the
    higher vertices (`_choices`).  The residual degrees left after v (the
    tail) fix the completions, so each tail's list is built once and OR-ed
    onto every prefix that reaches it (`_completions`).  Distinct choices of
    vertex 0 leave distinct tails, none of them reached twice, so the lists
    start two vertices in.  The masks themselves are made last, after every
    list they come from, so that they lie together in memory: the exact
    kernels scan them at every step.
    """
    n = len(degrees)
    memo: dict[tuple[int, ...], list[int]] = {(): [0]}
    parts = [(p0 | p1, _completions(tail, n, memo))
             for p0, after0 in _choices(degrees, n) for p1, tail in _choices(after0, n)]
    return [prefix | c for prefix, completions in parts for c in completions]


def _choices(tail: tuple[int, ...], n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(bits, tail left) for each way the first vertex v of the residual
    degrees `tail` (of vertices n - len(tail) .. n - 1) can take its r
    neighbours among the higher vertices: an r-subset of those with residual
    degree left.  Its pairs (v, k), k > v, are row v of `tri_pairs(n)`,
    consecutive bits from the slot of (v, v + 1), so each choice is one
    shifted bit pattern.  The empty tail has one choice, of nothing."""
    if not tail:
        yield 0, ()
        return
    r, rest = tail[0], tail[1:]
    v = n - len(tail)
    base = key_to_tri(n, v * (n + 1) + 1) if v < n - 1 else 0  # row n - 1 is empty
    for chosen in combinations([i for i, x in enumerate(rest) if x], r):
        left = list(rest)
        pattern = 0
        for i in chosen:
            left[i] -= 1
            pattern |= 1 << i
        yield pattern << base, tuple(left)


def _completions(tail: tuple[int, ...], n: int,
                 memo: dict[tuple[int, ...], list[int]]) -> list[int]:
    """Every edge bitmask on the vertices of the residual degrees `tail`,
    memoised; a vertex with nothing left adds no bits, so shares its tail's list."""
    got = memo.get(tail)
    if got is None:
        if tail[0]:
            got = [pattern | c
                   for pattern, left in _choices(tail, n) for c in _completions(left, n, memo)]
        else:
            got = _completions(tail[1:], n, memo)
        memo[tail] = got
    return got


def count_graphs(d: DegreeSequence | Sequence[int]) -> int:
    """The number of labelled simple graphs with degree sequence d (0 if none).

    The enumeration's vertex elimination, counted only.  A labelled count
    depends on the multiset of degrees alone, so tails are memoised sorted,
    and the vertex eliminated is the one of largest residual degree.
    """
    d = DegreeSequence.of(d)
    return _count(tuple(sorted((x for x in d.degrees if x), reverse=True)), {(): 1})


def _count(tail: tuple[int, ...], memo: dict[tuple[int, ...], int]) -> int:
    """The count for the positive residual degrees `tail`, in descending order."""
    got = memo.get(tail)
    if got is None:
        groups = [(x, len(list(run))) for x, run in groupby(tail[1:])]
        got = memo[tail] = _spread(groups, tail[0], [], memo)
    return got


def _spread(groups: list[tuple[int, int]], left: int, kept: list[int],
            memo: dict[tuple[int, ...], int]) -> int:
    """The ways to give `left` more neighbours to the (degree x, multiplicity m)
    `groups`, each weighted by the count of the multiset it leaves; `kept`
    holds what the groups before them were left with, in descending order.

    Taking c of a group, in comb(m, c) ways that all leave the same multiset,
    lowers c of its entries to x - 1, still no less than the next group's x."""
    if not left:
        rest = kept + [x for x, m in groups for _ in range(m)]
        return _count(tuple(x for x in rest if x), memo)
    if not groups:
        return 0
    (x, m), later = groups[0], groups[1:]
    return sum(comb(m, c) * _spread(later, left - c, kept + [x] * (m - c) + [x - 1] * c, memo)
               for c in range(min(m, left) + 1))


def raw_scan_masks(d: DegreeSequence | Sequence[int]) -> list[int]:
    """Independent cross-check: scan all 2^(n choose 2) edge subsets (n <= 6).

    Vectorized over the full subset range; kept deliberately separate from the
    vertex elimination so the two can validate each other.
    """
    d = DegreeSequence.of(d)
    if d.n > 6:
        raise OracleCapError("raw scan supported only for n <= 6")
    masks, deg = _subset_degrees(d.n)
    hit = np.all(deg == np.asarray(d.degrees, dtype=np.int8), axis=1)
    return masks[hit].tolist()


@lru_cache(maxsize=7)
def _subset_degrees(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every edge subset on n <= 6 vertices as a uint32 mask, and its degree
    vector as a row; built once per n and read only."""
    pairs = tri_pairs(n)
    masks = np.arange(1 << len(pairs), dtype=np.uint32)
    deg = np.zeros((len(masks), n), dtype=np.int8)
    for i, (j, k) in enumerate(pairs):
        bit = ((masks >> np.uint32(i)) & np.uint32(1)).astype(np.int8)
        deg[:, j] += bit
        deg[:, k] += bit
    masks.flags.writeable = deg.flags.writeable = False
    return masks, deg


@lru_cache(maxsize=256)
def _cached_family(degrees: tuple[int, ...]) -> GraphFamily:
    """The whole family; the caller has already checked the vertex cap.

    The family is counted before any mask is built, unless the 2^(n choose 2)
    edge sets on n vertices are within the family cap, so no family passes it."""
    n = len(degrees)
    size = None
    if 1 << tri_size(n) > DEFAULT_FAMILY_CAP:
        size = count_graphs(degrees)
        if size > DEFAULT_FAMILY_CAP:
            raise OracleCapError(f"family of {size} graphs exceeds cap {DEFAULT_FAMILY_CAP}")
    masks = _family_masks(degrees)
    if size is not None and len(masks) != size:
        raise InvariantError(f"enumerated {len(masks)} graphs for {degrees}, counted {size}")
    masks.sort()
    return GraphFamily(n, degrees, tuple(masks))


def enumerate_graphs(d: DegreeSequence | Sequence[int]) -> GraphFamily:
    """All graphs with degree sequence d, in ascending bitmask order.

    A non-graphical sequence yields an empty family (not an error).
    """
    return _family(DegreeSequence.of(d))


def _family(d: DegreeSequence) -> GraphFamily:
    """d's family, or `OracleCapError` past `DEFAULT_CAP` or `DEFAULT_FAMILY_CAP`."""
    if d.n > DEFAULT_CAP:
        raise OracleCapError(f"n={d.n} exceeds enumeration cap {DEFAULT_CAP}")
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


def exact_uniform_sample(d: DegreeSequence | Sequence[int], rng) -> SimpleGraph:
    """Uniform draw from the enumerated family.  Either cap refuses, before
    any draw, in `_family`: `benchmarks/tracing.py` wraps `enumerate_graphs`
    and needs every call it times to return."""
    d = DegreeSequence.of(d)
    fam = _family(d)
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
    contain jk, over d_j d_k.  It starts at the empty graph, whose sub-family
    is the family's own mask tuple, not a copy, and whose counts are the
    family's `pair_counts`.
    `insert` keeps the members that contain the new state in one pass, so
    every kept member contains G by construction.  Candidate counts are
    cached until the next insert: a sub-family of more than `BIT_COUNTS_MAX`
    members is counted by `column_counts`, a smaller one by `bit_counts`, and
    both give the same integers.  `complete` draws a uniform compatible
    member and adds its missing edges in uniform order, which is the law of
    exact one-edge steps; it then takes that member as the state at once, as
    a full edge set names one member, and refilters nothing.
    (The kernel interface is set out in `samplers`.)
    """

    __slots__ = ("d", "n", "pairs", "sub", "gmask", "edges", "history", "_counts")

    def __init__(self, family: GraphFamily):
        self.d = family.degrees
        self.n = family.n
        self.pairs = tri_pairs(self.n)
        self.edges: set[int] = set()
        self.history: list[int] = []
        self.gmask = 0
        # the family's own tuple and counts, which the kernel keeps: insert
        # and complete replace sub, never mutate it
        self.sub = family.masks
        if not self.sub:
            raise ValueError("conditioning event is empty")
        self._counts = family.pair_counts

    def candidate_counts(self) -> Mapping[int, int]:
        """Pair index -> number of compatible members containing that missing edge."""
        if self._counts is None:
            if len(self.sub) > BIT_COUNTS_MAX:
                self._counts = column_counts(self.sub, len(self.pairs), self.gmask)
            else:
                self._counts = bit_counts(map(self.gmask.__xor__, self.sub))
        return self._counts

    def weight(self, j: int, k: int) -> float:
        i = key_to_tri(self.n, j * self.n + k if j < k else k * self.n + j)
        return self._weight(i, self.candidate_counts().get(i, 0))

    def denominator(self) -> float:
        """The largest weight over non-edges, or 0.0: exact weights have no
        closed-form bound."""
        return max(starmap(self._weight, self.candidate_counts().items()), default=0.0)

    def _weight(self, i: int, count: int) -> float:
        """Weight of pair i, which `count` sub-family members contain."""
        j, k = self.pairs[i]
        return count / len(self.sub) / (self.d[j] * self.d[k])

    def insert(self, j: int, k: int) -> None:
        e = j * self.n + k if j < k else k * self.n + j
        self.edges.add(e)
        self.history.append(e)
        g = self.gmask = self.gmask | 1 << key_to_tri(self.n, e)
        self.sub = [m for m in self.sub if m & g == g]
        self._counts = None
        if not self.sub:
            raise InvariantError(f"inserting ({j},{k}) left the enumerated sub-family")

    def complete(self, rng: RandomSource) -> int:
        """Insert the missing edges of a uniform compatible member, in uniform
        order; returns 0, as nothing dead-ends.

        This is the law of inserting one exact conditional edge at a time:
        with c(H) the number of members containing H and r missing edges, the
        i-th step (from 0) takes e with probability c(G_i + e) / (c(G_i) (r - i)),
        and over an order the product telescopes to 1 / (c(G) r!).  The edges
        go into `edges` and `history` in one step, and the state becomes the
        member itself, the one member that contains it."""
        member = self.sub[rng.below(len(self.sub))]
        missing = set_bits(member ^ self.gmask)
        for i in range(len(missing) - 1, 0, -1):
            a = rng.below(i + 1)
            missing[i], missing[a] = missing[a], missing[i]
        n = self.n
        keys = [j * n + k for j, k in map(self.pairs.__getitem__, missing)]
        self.edges.update(keys)
        self.history.extend(keys)
        self.gmask = member
        self.sub = [member]
        self._counts = None
        return 0
