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
from math import isfinite
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class NonGraphicalError(ValueError):
    """Raised when a degree sequence admits no simple graph."""


class DegenerateSequenceError(ValueError):
    """Raised when a sequence has fewer than two positive degrees (or weights)."""


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


# run_coupling and seq_sample_d test the sequence of every replica; a call
# costs tens of µs even at n = 4, a cached answer well under one
@lru_cache(maxsize=8)
def _erdos_gallai(degrees: tuple[int, ...]) -> bool:
    up = np.sort(np.array(degrees, dtype=np.int64))
    cum = np.concatenate(([0], np.cumsum(up[::-1])))  # prefix sums, largest first
    k = np.arange(1, len(up) + 1)
    # the first index >= k of a degree below k; from there on min(k, d) = d
    split = np.maximum(k, len(up) - np.searchsorted(up, k))
    tail = k * (split - k) + cum[-1] - cum[split]
    return bool(cum[-1] % 2 == 0 and (cum[1:] <= k * (k - 1) + tail).all())


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
    def empty(n: int) -> SimpleGraph:
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


# ---------------------------------------------------------------------------
# Symmetric probability matrices: vertex classes and one class table
# ---------------------------------------------------------------------------


def tri_size(n: int) -> int:
    return n * (n - 1) // 2


def key_to_tri(n: int, key: np.ndarray | int) -> np.ndarray | int:
    """Flat index, in row-major upper-triangular order, of edge key j*n + k, j < k:
    the one pair-to-slot map, for a Python int or an int64 array of valid keys.
    Row j starts at the slot of (j, j + 1), key j*(n + 1) + 1."""
    j = key // n
    return key - (j + 1) * (j + 2) // 2


def tri_to_key(n: int, idx: np.ndarray) -> np.ndarray:
    """Edge keys j*n + k of the pairs at flat indices `idx` (the inverse of `key_to_tri`)."""
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    j = np.searchsorted(key_to_tri(n, rows * (n + 1) + 1), idx, side="right") - 1
    return idx + (j + 1) * (j + 2) // 2


@lru_cache(maxsize=64)
def tri_pairs(n: int) -> tuple[Edge, ...]:
    """All pairs (j, k), j < k, in the flat storage order."""
    return tuple((j, k) for j in range(n) for k in range(j + 1, n))


@lru_cache(maxsize=16)
def _classes_of(values: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's class, its index among the distinct values in ascending
    order, and those values as floats."""
    distinct = sorted(set(values))
    index = {v: c for c, v in enumerate(distinct)}
    return np.array([index[v] for v in values], dtype=np.intp), np.array(distinct, dtype=float)


class SymmetricProbMatrix:
    """Symmetric n x n matrix of probabilities with zero diagonal.

    Vertex j has class cls[j], and entry (j, k), j != k, is table[cls[j],
    cls[k]] of a symmetric K x K table, validated into [0, 1].  The laws of a
    degree sequence have one class per distinct degree (a class of one vertex
    holds no pair, so its diagonal entry is never read); per-pair data, the
    strict upper triangle `tri` in row-major order, has a class per vertex.
    """

    __slots__ = ("n", "cls", "table", "_classes", "_tri")

    def __init__(self, n: int, tri: np.ndarray):
        if tri.shape != (tri_size(n),):
            raise ValueError(f"storage length {tri.shape} does not match n={n}")
        table = np.zeros((n, n))
        j, k = np.triu_indices(n, k=1)
        table[j, k] = table[k, j] = tri
        self._set(np.arange(n), table)

    @staticmethod
    def _of(cls: np.ndarray, table: np.ndarray) -> SymmetricProbMatrix:
        return object.__new__(SymmetricProbMatrix)._set(cls, table)

    def _set(self, cls: np.ndarray, table: np.ndarray) -> SymmetricProbMatrix:
        # phrased so that a NaN entry, which fails every comparison, is rejected
        if table.size and not (table.min() >= 0.0 and table.max() <= 1.0):
            raise ValueError("entries must lie in [0, 1]")
        cls.setflags(write=False)
        table.setflags(write=False)
        self.n, self.cls, self.table = len(cls), cls, table
        self._classes, self._tri = cls.tolist(), None
        return self

    @staticmethod
    def full(n: int, value: float) -> SymmetricProbMatrix:
        return SymmetricProbMatrix._of(np.zeros(n, np.intp), np.full((1, 1), float(value)))

    def __getitem__(self, jk: tuple[int, int]) -> float:
        j, k = jk
        if j == k and 0 <= j < self.n:
            return 0.0
        return self.entry(min(j, k), max(j, k))

    def entry(self, j: int, k: int) -> float:
        """Entry (j, k) for 0 <= j < k < n."""
        if not 0 <= j < k < self.n:
            raise ValueError(f"pair ({j},{k}) invalid for n={self.n}")
        return self.table.item(self._classes[j], self._classes[k])

    def entries(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Entries (j, k) for index arrays with j != k, equal to `entry` bit for bit."""
        return self.table.ravel()[self.cls[j] * len(self.table) + self.cls[k]]

    def row(self, j: int) -> np.ndarray:
        """Entries (j, k) for k = j + 1, ..., n - 1: row j of the triangle."""
        return self.table[self._classes[j], self.cls[j + 1:]]

    @property
    def tri(self) -> np.ndarray:
        """The strict upper triangle in row-major order, read-only: built on
        first read and kept."""
        if self._tri is None:
            # a row at a time, so the only O(n^2) array is the result
            n = self.n
            tri = np.empty(tri_size(n))
            for j in range(n - 1):
                start = key_to_tri(n, j * (n + 1) + 1)
                tri[start:start + n - 1 - j] = self.row(j)
            tri.setflags(write=False)
            self._tri = tri
        return self._tri

    def to_dense(self) -> np.ndarray:
        out = self.table[np.ix_(self.cls, self.cls)]
        np.fill_diagonal(out, 0.0)
        return out


def p_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Closed-form edge-probability proxy: entry (j,k) = d_j d_k / (||d||_1 + d_j d_k)."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    cls, vals = _classes_of(d.degrees)
    prod = np.multiply.outer(vals, vals)
    with np.errstate(invalid="ignore"):
        table = np.where(prod > 0, prod / (float(d.total) + prod), 0.0)
    return SymmetricProbMatrix._of(cls, table)


def q_matrix(d: DegreeSequence | Sequence[int]) -> SymmetricProbMatrix:
    """Edge-proposal distribution: entries proportional to d_j d_k, summing to 1."""
    d = DegreeSequence.of(d)
    if d.n < 2:
        raise ValueError("need n >= 2")
    # the sum of d_j d_k over pairs j < k, in integers
    denom = (d.total ** 2 - sum(x * x for x in d.degrees)) // 2
    if denom <= 0:
        raise DegenerateSequenceError("sequence needs at least two positive degrees")
    cls, vals = _classes_of(d.degrees)
    table = np.multiply.outer(vals, vals) / float(denom)
    # d_j^2 / denom may exceed 1 on a class of one vertex, which no pair reads
    lone = np.flatnonzero(np.bincount(cls) == 1)
    table[lone, lone] = 0.0
    return SymmetricProbMatrix._of(cls, table)


def acceptance_matrix(d: DegreeSequence | Sequence[int], zeta: float) -> SymmetricProbMatrix:
    """The coupling's acceptance matrix Lambda: entry (j, k) is
    (1 - zeta) ||d||_1 / (||d||_1 + d_j d_k)."""
    d = DegreeSequence.of(d)
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    total = float(d.total)
    # with every degree 0 the numerator is 0, and a unit denominator makes every entry 0.0
    num, total = (1.0 - zeta) * total, total if total > 0 else 1.0
    cls, vals = _classes_of(d.degrees)
    return SymmetricProbMatrix._of(cls, num / (total + np.multiply.outer(vals, vals)))


def chung_lu_matrix(w: Sequence[float]) -> SymmetricProbMatrix:
    """Expected-degree model matrix: entry (j,k) = min(w_j w_k / ||w||_1, 1)."""
    vec = np.asarray(list(w), dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise ValueError("need a vector of length >= 2")
    bad = ~(np.isfinite(vec) & (vec >= 0))
    if bad.any():
        raise ValueError(f"weights must be finite and >= 0, got {vec[bad][0]}")
    total = vec.sum()
    if total <= 0:
        raise ValueError("all-zero weight vector")
    cls, vals = _classes_of(tuple(vec.tolist()))
    return SymmetricProbMatrix._of(cls, np.minimum(np.multiply.outer(vals, vals) / total, 1.0))


def f_c_transform(m: SymmetricProbMatrix, scale: float) -> SymmetricProbMatrix:
    """Entrywise 1 - exp(-scale * entry); maps [0,1] into [0,1) for finite scale."""
    if not (isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    return SymmetricProbMatrix._of(m.cls, -np.expm1(-scale * m.table))


def hadamard(a: SymmetricProbMatrix, b: SymmetricProbMatrix) -> SymmetricProbMatrix:
    """Entrywise product of two matrices of the same dimension.  On different
    partitions the classes are the (a class, b class) pairs that occur."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.cls is b.cls:  # Lambda and Q of one sequence share their classes
        return SymmetricProbMatrix._of(a.cls, a.table * b.table)
    kb = len(b.table)
    cls, pairs = _classes_of(tuple(x * kb + y for x, y in zip(a._classes, b._classes)))
    ra, rb = np.divmod(pairs.astype(np.intp), kb)
    return SymmetricProbMatrix._of(cls, a.table[ra[:, None], ra] * b.table[rb[:, None], rb])
