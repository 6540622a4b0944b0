"""Core graph objects: degree sequences, simple graphs, symmetric probability matrices.

Vertices are 0-based everywhere (in memory and in every file format).
All objects are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class NonGraphicalError(ValueError):
    """Raised when a degree sequence admits no simple graph."""


class DegenerateSequenceError(ValueError):
    """Raised when a sequence has fewer than two positive degrees."""


# ---------------------------------------------------------------------------
# Degree sequences
# ---------------------------------------------------------------------------


class DegreeStats(NamedTuple):
    total: int   # ||d||_1
    max: int
    min: int
    top_sum: int  # sum of the largest `max` entries


@dataclass(frozen=True)
class DegreeSequence:
    """A vector of vertex degrees, index-sensitive (callers need not sort)."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.degrees)
        if n == 0:
            raise ValueError("degree sequence must be non-empty")
        for d in self.degrees:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"degrees must be ints, got {d!r}")
            if d < 0 or d >= n:
                raise ValueError(f"degree {d} outside [0, {n - 1}]")

    @staticmethod
    def of(seq: DegreeSequence | Sequence[int]) -> DegreeSequence:
        if isinstance(seq, DegreeSequence):
            return seq
        return DegreeSequence(tuple(int(x) for x in seq))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, i: int) -> int:
        return self.degrees[i]

    def __len__(self) -> int:
        return len(self.degrees)


def degree_stats(d: DegreeSequence | Sequence[int]) -> DegreeStats:
    """Return (sum, max, min, top_sum) computed on a descending-sorted copy.

    top_sum adds up the largest `max` entries; it is 0 for the all-zero
    sequence.  The caller's ordering is never modified.
    """
    d = DegreeSequence.of(d)
    ordered = sorted(d.degrees, reverse=True)
    top = ordered[0]
    return DegreeStats(
        total=sum(ordered),
        max=top,
        min=ordered[-1],
        top_sum=sum(ordered[:top]),
    )


def is_graphical(d: DegreeSequence | Sequence[int]) -> bool:
    """Erdos-Gallai test: does any simple graph realize this degree sequence?"""
    d = DegreeSequence.of(d)
    seq = sorted(d.degrees, reverse=True)
    if sum(seq) % 2 != 0:
        return False
    n = len(seq)
    prefix = 0
    # suffix_min[k] = sum_{i>k} min(k, seq[i]) computed via a split point:
    # entries >= k contribute k, entries < k contribute themselves.
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + seq[i]
    for k in range(1, n + 1):
        prefix += seq[k - 1]
        # first index >= k with seq[i] < k (seq is non-increasing)
        lo, hi = k, n
        while lo < hi:
            mid = (lo + hi) // 2
            if seq[mid] < k:
                hi = mid
            else:
                lo = mid + 1
        tail = k * (lo - k) + (suffix[lo] - suffix[n])
        if prefix > k * (k - 1) + tail:
            return False
    return True


# ---------------------------------------------------------------------------
# Simple graphs
# ---------------------------------------------------------------------------


Edge = tuple[int, int]


def normalize_edge(j: int, k: int) -> Edge:
    if j == k:
        raise ValueError(f"self-loop at vertex {j}")
    return (j, k) if j < k else (k, j)


def edge_key(n: int, j: int, k: int) -> int:
    """The key j*n + k of the edge {j, k} on n vertices, with j, k in either order."""
    j, k = normalize_edge(j, k)
    if not 0 <= j < k < n:
        raise ValueError(f"edge ({j},{k}) invalid for n={n}")
    return j * n + k


# up to this n, keys are checked by a subset test against every valid key,
# which costs less than numpy's per-call overhead on the small graphs of
# the oracle and the battery
_KEY_TABLE_MAX_N = 64


@lru_cache(maxsize=_KEY_TABLE_MAX_N + 1)
def _valid_keys(n: int) -> frozenset[int]:
    return frozenset(j * n + k for j in range(n) for k in range(j + 1, n))


@dataclass(frozen=True)
class SimpleGraph:
    """Labeled simple graph on the vertices {0..n-1}.

    Each edge {j, k}, j < k, is held as the integer key j*n + k; keys sort
    as the (j, k) pairs do.  `from_edges`, `has_edge` and `pairs` speak in
    pairs.  Keys may be any integer type; anything else is rejected.
    """

    n: int
    edges: frozenset[int]

    def __post_init__(self) -> None:
        # C-level passes over the keys, with no Python loop per edge
        edges, n = self.edges, self.n
        if not edges:
            return
        try:
            if n <= _KEY_TABLE_MAX_N:
                # operator.index raises TypeError on a non-integer key
                sum(map(operator.index, edges))
                if edges <= _valid_keys(n):
                    return
                keys = np.fromiter(edges, np.int64, len(edges))
            else:
                keys = np.fromiter(map(operator.index, edges), np.int64, len(edges))
        except (TypeError, OverflowError):
            raise ValueError(f"edge keys must be integers in [0, {n}^2)") from None
        j, k = np.divmod(keys, max(n, 1))
        bad = (keys < 0) | (j >= k)
        if bad.any():
            key = int(keys[bad.argmax()])
            raise ValueError(f"edge key {key} is not j*n + k with 0 <= j < k < n={n}")

    @staticmethod
    def empty(n: int) -> SimpleGraph:
        return SimpleGraph(n, frozenset())

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
        return SimpleGraph(n, frozenset(edge_key(n, j, k) for j, k in edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, j: int, k: int) -> bool:
        return edge_key(self.n, j, k) in self.edges

    def key_array(self) -> np.ndarray:
        """The edge keys as an int64 array, in set order."""
        return np.fromiter(self.edges, np.int64, len(self.edges))

    def pairs(self) -> list[Edge]:
        """The edges as (j, k) pairs, j < k, in ascending order."""
        j, k = np.divmod(np.sort(self.key_array()), self.n)
        return list(zip(j.tolist(), k.tolist()))

    def degree_vector(self) -> tuple[int, ...]:
        j, k = np.divmod(self.key_array(), self.n)
        return tuple(np.bincount(np.concatenate((j, k)), minlength=self.n).tolist())

    def is_subgraph_of(self, other: SimpleGraph) -> bool:
        return self.n == other.n and self.edges <= other.edges


def remaining_degrees(
    d: DegreeSequence | Sequence[int], h: SimpleGraph
) -> tuple[DegreeSequence, float]:
    """Degrees still missing from a partial graph, plus the remaining mass fraction.

    Returns (t, p_m) with t = d - deg(h) and p_m = (||d||_1 - 2m) / ||d||_1
    where m is the edge count of h.  Raises if h over-saturates any vertex.
    """
    d = DegreeSequence.of(d)
    if h.n != d.n:
        raise ValueError(f"graph on {h.n} vertices vs sequence of length {d.n}")
    hdeg = h.degree_vector()
    t = []
    for j, (dj, hj) in enumerate(zip(d.degrees, hdeg)):
        if hj > dj:
            raise ValueError(f"vertex {j}: partial degree {hj} exceeds target {dj}")
        t.append(dj - hj)
    total = d.total
    if total == 0:
        return DegreeSequence(tuple(t)), 0.0 if h.num_edges else 1.0
    p_m = (total - 2 * h.num_edges) / total
    return DegreeSequence(tuple(t)), p_m


# ---------------------------------------------------------------------------
# Symmetric probability matrices (upper-triangular dense storage)
# ---------------------------------------------------------------------------


def tri_size(n: int) -> int:
    return n * (n - 1) // 2


def tri_index(n: int, j: int, k: int) -> int:
    """Flat index of pair (j, k), j < k, in row-major upper-triangular order."""
    if not (0 <= j < k < n):
        raise ValueError(f"pair ({j},{k}) invalid for n={n}")
    return j * n - j * (j + 1) // 2 + (k - j - 1)


def key_to_tri(n: int, key: np.ndarray) -> np.ndarray:
    """Flat indices, in the order of `tri_index`, of valid edge keys j*n + k."""
    j = key // n
    return key - (j + 1) * (j + 2) // 2


def tri_to_key(n: int, idx: np.ndarray) -> np.ndarray:
    """Edge keys j*n + k of the pairs at flat indices `idx` (the inverse of `key_to_tri`)."""
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    j = np.searchsorted(rows * n - rows * (rows + 1) // 2, idx, side="right") - 1
    return idx + (j + 1) * (j + 2) // 2


@lru_cache(maxsize=64)
def tri_pairs(n: int) -> tuple[Edge, ...]:
    """All pairs (j, k), j < k, in the flat storage order."""
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


@dataclass(frozen=True, eq=False)
class SymmetricProbMatrix:
    """Symmetric n x n matrix of probabilities with zero diagonal.

    Only the strict upper triangle is stored (row-major).  Entries are
    validated into [0, 1] at construction; treat instances as immutable.
    """

    n: int
    tri: np.ndarray

    def __post_init__(self) -> None:
        if self.tri.shape != (tri_size(self.n),):
            raise ValueError(
                f"storage length {self.tri.shape} does not match n={self.n}"
            )
        # phrased so that a NaN entry, which fails every comparison, is rejected
        if self.tri.size and not (self.tri.min() >= 0.0 and self.tri.max() <= 1.0):
            raise ValueError("entries must lie in [0, 1]")
        self.tri.setflags(write=False)

    @staticmethod
    def zeros(n: int) -> SymmetricProbMatrix:
        return SymmetricProbMatrix(n, np.zeros(tri_size(n)))

    @staticmethod
    def full(n: int, value: float) -> SymmetricProbMatrix:
        return SymmetricProbMatrix(n, np.full(tri_size(n), float(value)))

    def __getitem__(self, jk: tuple[int, int]) -> float:
        j, k = jk
        if j == k:
            return 0.0
        return float(self.entry(*normalize_edge(j, k)))

    def entry(self, j: int, k: int) -> float:
        """Entry (j, k) for j < k, read from storage."""
        return self.tri[tri_index(self.n, j, k)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self.tri
        return out + out.T

    def max_entry(self) -> float:
        return float(self.tri.max()) if self.tri.size else 0.0


class ProductLambda:
    """The coupling's acceptance matrix Lambda in closed form, from O(n) numbers.

    Entry (j, k) is (1 - zeta) ||d||_1 / (||d||_1 + d_j d_k).  `entry`
    computes it on each read with the same operations, in the same order, as
    `tri`, so the two agree bit for bit.  `tri` builds the dense triangle on
    every access and keeps nothing, for callers that need all entries at once.
    """

    __slots__ = ("n", "d", "total", "num")

    def __init__(self, d: DegreeSequence | Sequence[int], zeta: float):
        d = DegreeSequence.of(d)
        if not 0.0 <= zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        self.n = d.n
        self.d = tuple(float(x) for x in d.degrees)
        total = float(d.total)
        self.num = (1.0 - zeta) * total
        # with every degree 0 the numerator is 0, and a unit denominator
        # makes every entry 0.0
        self.total = total if total > 0 else 1.0

    def __getitem__(self, jk: tuple[int, int]) -> float:
        j, k = jk
        if j == k:
            return 0.0
        return self.entry(*normalize_edge(j, k))

    def entry(self, j: int, k: int) -> float:
        """Entry (j, k) for j < k."""
        if not 0 <= j < k < self.n:
            raise ValueError(f"pair ({j},{k}) invalid for n={self.n}")
        return self.num / (self.total + self.d[j] * self.d[k])

    @property
    def tri(self) -> np.ndarray:
        vec = np.asarray(self.d)
        iu = np.triu_indices(self.n, k=1)
        return self.num / (self.total + vec[iu[0]] * vec[iu[1]])


def p_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Closed-form edge-probability proxy: entry (j,k) = d_j d_k / (||d||_1 + d_j d_k)."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    vec = np.asarray(d.degrees, dtype=float)
    total = vec.sum()
    iu = np.triu_indices(d.n, k=1)
    prod = vec[iu[0]] * vec[iu[1]]
    with np.errstate(invalid="ignore"):
        tri = np.where(prod > 0, prod / (total + prod), 0.0)
    return SymmetricProbMatrix(d.n, tri)


def q_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Edge-proposal distribution: entries proportional to d_j d_k, summing to 1."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    vec = np.asarray(d.degrees, dtype=float)
    iu = np.triu_indices(d.n, k=1)
    prod = vec[iu[0]] * vec[iu[1]]
    denom = prod.sum()
    if denom <= 0:
        raise DegenerateSequenceError(
            "sequence needs at least two positive degrees"
        )
    return SymmetricProbMatrix(d.n, prod / denom)


def chung_lu_matrix(w: Sequence[float]) -> SymmetricProbMatrix:
    """Expected-degree model matrix: entry (j,k) = min(w_j w_k / ||w||_1, 1)."""
    vec = np.asarray(list(w), dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise ValueError("need a vector of length >= 2")
    if np.any(vec < 0):
        raise ValueError("weights must be non-negative")
    total = vec.sum()
    if total <= 0:
        raise ValueError("all-zero weight vector")
    iu = np.triu_indices(vec.size, k=1)
    tri = np.minimum(vec[iu[0]] * vec[iu[1]] / total, 1.0)
    return SymmetricProbMatrix(vec.size, tri)


def f_c_transform(m: SymmetricProbMatrix, scale: float) -> SymmetricProbMatrix:
    """Entrywise 1 - exp(-scale * entry); maps [0,1] into [0,1) for finite scale."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    return SymmetricProbMatrix(m.n, -np.expm1(-scale * m.tri))


def hadamard(a: SymmetricProbMatrix, b: SymmetricProbMatrix) -> SymmetricProbMatrix:
    """Entrywise product of two matrices of the same dimension."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return SymmetricProbMatrix(a.n, a.tri * b.tri)
