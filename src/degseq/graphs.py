"""Core graph objects: degree sequences, simple graphs, symmetric probability matrices.

Vertices are 0-based everywhere (in memory and in every file format).  A
simple graph holds its edges as one sorted int64 array of keys j*n + k,
8 bytes an edge at every size.
All objects are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class NonGraphicalError(ValueError):
    """Raised when a degree sequence admits no simple graph."""


class DegenerateSequenceError(ValueError):
    """Raised when a sequence has fewer than two positive degrees."""


class InvariantError(RuntimeError):
    """A run broke an invariant its construction guarantees (a program fault)."""


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
    return _erdos_gallai(DegreeSequence.of(d).degrees)


# run_coupling and seq_sample_d test the sequence of every replica, about
# 9–14 ms a call at n = 1e4
@lru_cache(maxsize=8)
def _erdos_gallai(degrees: tuple[int, ...]) -> bool:
    seq = sorted(degrees, reverse=True)
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
# sets of up to this many keys are sorted by `sorted`, larger ones by numpy
_PY_SORT_MAX = 256


@lru_cache(maxsize=_KEY_TABLE_MAX_N + 1)
def _valid_keys(n: int) -> frozenset[int]:
    return frozenset(j * n + k for j in range(n) for k in range(j + 1, n))


def _key_bytes(n: int, edges: Iterable[int]) -> bytes:
    """The distinct keys of `edges` as sorted int64 bytes, or ValueError for a
    key that is not an integer j*n + k with 0 <= j < k < n."""
    if isinstance(edges, np.ndarray):
        return _array_key_bytes(n, edges)
    try:
        if not isinstance(edges, (set, frozenset)):
            edges = set(edges)
        if not edges:
            return b""
        # array() takes only ints, by __index__
        if len(edges) <= _PY_SORT_MAX:
            keys = array("q", sorted(edges))
        else:
            keys = array("q", edges)
            np.frombuffer(keys, np.int64).sort()
    except (TypeError, OverflowError):
        raise ValueError(f"edge keys must be integers in [0, {n}^2)") from None
    if n > _KEY_TABLE_MAX_N or not edges <= _valid_keys(n):
        _checked(n, np.frombuffer(keys, np.int64))
    return keys.tobytes()


def _array_key_bytes(n: int, edges: np.ndarray) -> bytes:
    if edges.ndim != 1 or not np.can_cast(edges.dtype, np.int64, "same_kind"):
        raise ValueError(f"edge keys must be integers in [0, {n}^2)")
    keys = edges.astype(np.int64, copy=False)
    # files this package writes, and `tri_to_key`, give their keys sorted
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        keys = np.unique(keys)
    return _checked(n, keys).tobytes()


def _checked(n: int, keys: np.ndarray) -> np.ndarray:
    j, k = np.divmod(keys, max(n, 1))
    bad = (keys < 0) | (j >= k)
    if bad.any():
        key = int(keys[bad.argmax()])
        raise ValueError(f"edge key {key} is not j*n + k with 0 <= j < k < n={n}")
    return keys


_setattr = object.__setattr__


class SimpleGraph:
    """Labeled simple graph on the vertices {0..n-1}.

    Each edge {j, k}, j < k, is held as the integer key j*n + k; keys sort
    as the (j, k) pairs do.  `edges` is the keys as one read-only, sorted,
    duplicate-free int64 array, 8 bytes an edge, and a graph hashes and
    compares by n and those bytes.  The constructor takes any iterable of
    integer keys (a set, a list with repeats, an integer array), collapses
    repeats and rejects anything else; `from_edges`, `has_edge` and `pairs`
    speak in pairs.  Code that builds a graph an edge at a time keeps a
    Python set of keys and hands it over at the end.
    """

    __slots__ = ("n", "_keys")

    def __init__(self, n: int, edges: Iterable[int] = ()):
        _setattr(self, "n", n)
        _setattr(self, "_keys", _key_bytes(n, edges))

    def __setattr__(self, name, value):
        raise AttributeError(f"SimpleGraph is immutable: cannot set {name!r}")

    def __reduce__(self):
        return SimpleGraph, (self.n, self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self._keys == other._keys

    def __hash__(self) -> int:
        return hash((self.n, self._keys))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.n}, {self.edges.tolist()})"

    @staticmethod
    @lru_cache(maxsize=64)
    def empty(n: int) -> SimpleGraph:
        # every sampler and coupling run starts from one
        return SimpleGraph(n)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
        return SimpleGraph(n, {edge_key(n, j, k) for j, k in edges})

    @property
    def edges(self) -> np.ndarray:
        """The edge keys, ascending, as a read-only int64 array."""
        return np.frombuffer(self._keys, np.int64)

    @property
    def num_edges(self) -> int:
        return len(self._keys) >> 3

    def has_edge(self, j: int, k: int) -> bool:
        key, keys = edge_key(self.n, j, k), self.edges
        i = keys.searchsorted(key)
        return bool(i < keys.size and keys[i] == key)

    def pairs(self) -> list[Edge]:
        """The edges as (j, k) pairs, j < k, in ascending order."""
        j, k = np.divmod(self.edges, self.n)
        return list(zip(j.tolist(), k.tolist()))

    def degree_vector(self) -> tuple[int, ...]:
        j, k = np.divmod(self.edges, self.n)
        return tuple(np.bincount(np.concatenate((j, k)), minlength=self.n).tolist())

    def is_subgraph_of(self, other: SimpleGraph) -> bool:
        if self.n != other.n:
            return False
        mine, theirs = self.edges, other.edges
        if not mine.size:
            return True
        if mine.size > theirs.size or mine[-1] > theirs[-1]:
            return False
        # every key of mine is at most theirs[-1], so each lands on an index of theirs
        return bool((theirs[theirs.searchsorted(mine)] == mine).all())


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


def tri_products(vec: np.ndarray) -> np.ndarray:
    """vec[j] * vec[k] for every pair j < k, in the flat storage order."""
    j, k = np.triu_indices(len(vec), k=1)
    return vec[j] * vec[k]


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

    def entries(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Entries (j, k) for index arrays with j < k, read from storage."""
        return self.tri[key_to_tri(self.n, j * self.n + k)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n, k=1)
        out[iu] = self.tri
        return out + out.T


class ProductLambda:
    """The coupling's acceptance matrix Lambda in closed form, from O(n) numbers.

    Entry (j, k) is (1 - zeta) ||d||_1 / (||d||_1 + d_j d_k).  `entry` and
    the array `entries` compute it on each read with the same operations, in
    the same order, as `tri`, so all three agree bit for bit.  `tri` builds the
    dense triangle on every access and keeps nothing, for callers that need
    all entries at once.
    """

    __slots__ = ("n", "d", "vec", "total", "num")

    def __init__(self, d: DegreeSequence | Sequence[int], zeta: float):
        d = DegreeSequence.of(d)
        if not 0.0 <= zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        self.n = d.n
        self.d = tuple(float(x) for x in d.degrees)
        self.vec = np.array(self.d)
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

    def entries(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Entries (j, k) for index arrays with j < k."""
        return self.num / (self.total + self.vec[j] * self.vec[k])

    @property
    def tri(self) -> np.ndarray:
        return self.num / (self.total + tri_products(self.vec))


def p_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Closed-form edge-probability proxy: entry (j,k) = d_j d_k / (||d||_1 + d_j d_k)."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    vec = np.asarray(d.degrees, dtype=float)
    total = vec.sum()
    prod = tri_products(vec)
    with np.errstate(invalid="ignore"):
        tri = np.where(prod > 0, prod / (total + prod), 0.0)
    return SymmetricProbMatrix(d.n, tri)


def q_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Edge-proposal distribution: entries proportional to d_j d_k, summing to 1."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    prod = tri_products(np.asarray(d.degrees, dtype=float))
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
    tri = np.minimum(tri_products(vec) / total, 1.0)
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
