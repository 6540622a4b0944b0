"""File formats.

Degree files: one non-negative integer per line, vertex = 0-based line number.
Graph files: one edge per line as "j k" with j < k, 0-based.  Readers take
  either order and skip blank lines and extra spaces or tabs.  numpy parses a
  plain graph file (digits, spaces, tabs, newlines); other files, and any
  file with a bad line, are read line by line, so every bad line gets the
  same ValueError from the same code.
Matrix files: CSV with header "i,j,value", strict upper triangle only.
Family files: edge-list blocks separated by blank lines, read line by line.
Trace files: one JSON object per line.
"""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    SimpleGraph,
    SymmetricProbMatrix,
    edge_key,
    key_to_tri,
    tri_pairs,
    tri_size,
)
from .oracle import GraphFamily, bit_rows


def read_degree_file(path: str | Path) -> DegreeSequence:
    degrees = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            degrees.append(int(line))
    return DegreeSequence(tuple(degrees))


def write_degree_file(path: str | Path, d: DegreeSequence | Sequence[int]) -> None:
    d = DegreeSequence.of(d)
    Path(path).write_text("".join(f"{x}\n" for x in d.degrees))


def read_edge_list(path: str | Path, n: int) -> SimpleGraph:
    """The graph of the "j k" lines of an edge file, taken in either order.

    A plain file is parsed by numpy; any other file, and one numpy refuses
    or with a bad pair, is read line by line, which raises ValueError for
    the first bad line.
    """
    if _is_plain(path):
        try:
            pairs = np.loadtxt(path, dtype=np.int64, ndmin=2)
        except ValueError:  # lines of unequal length, or a field past int64
            pairs = np.zeros((0, 0), np.int64)
        if pairs.shape[1] == 2:
            pairs.sort(axis=1)
            lo, hi = pairs.T
            if ((lo < hi) & (hi < n)).all():
                return SimpleGraph(n, lo * n + hi)
    keys, _ = _edge_lines(path, n)
    return SimpleGraph(n, keys)


# a plain edge file holds only digits, spaces, tabs and newlines: numpy
# splits it into the same lines and fields as `str.splitlines` and
# `str.split` do, where it would not at, say, "\x0c" or "\x85"
_PLAIN_BYTES = b"0123456789 \t\n"


def _is_plain(path: str | Path) -> bool:
    """Whether the file is plain and has a non-blank line."""
    raw = Path(path).read_bytes()
    return bool(raw.strip()) and not raw.translate(None, _PLAIN_BYTES)


def _edge_lines(path: str | Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The key of the edge on each non-blank "j k" line of the file, taken in
    either order, and the number of edges before each blank line; ValueError
    for the first bad line."""
    keys, cuts = [], []
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if fields:
            j, k = fields
            keys.append(edge_key(n, int(j), int(k)))
        else:
            cuts.append(len(keys))
    return np.array(keys, dtype=np.int64), np.array(cuts, dtype=np.int64)


def write_edge_list(path: str | Path, g: SimpleGraph) -> None:
    Path(path).write_text(_edge_block(g))


def _edge_block(g: SimpleGraph) -> str:
    # keys j*n + k, which a graph holds sorted, order edges as the (j, k) pairs do
    n, keys = g.n, g.edges
    heads, tails = _vertex_labels(n)
    lines = np.empty((len(keys), 2), dtype=object)
    lines[:, 0] = heads[keys // n]
    lines[:, 1] = tails[keys % n]
    return "".join(lines.ravel().tolist())


@lru_cache(maxsize=8)
def _vertex_labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's label as the first ("j ") and the second ("k\n") field
    of an edge line, in read-only object arrays indexed by vertex."""
    heads = np.array([f"{v} " for v in range(n)], dtype=object)
    tails = np.array([f"{v}\n" for v in range(n)], dtype=object)
    heads.setflags(write=False)
    tails.setflags(write=False)
    return heads, tails


def write_matrix_csv(path: str | Path, m: SymmetricProbMatrix) -> None:
    # row-major over j < k; one row's lines are built from the class table at
    # a time, so memory stays O(n) however large the triangle
    n = m.n
    with open(path, "w") as fh:
        fh.write("i,j,value\n")
        for j in range(n - 1):
            fh.write("".join(f"{j},{k},{v!r}\n"
                             for k, v in zip(range(j + 1, n), m.row(j).tolist())))


def read_matrix_csv(path: str | Path) -> SymmetricProbMatrix:
    # numpy parses the rows after the header into one array, so memory is a
    # few times the triangle's, not the text's
    with open(path) as fh:
        if fh.readline().strip() != "i,j,value":
            raise ValueError("expected header 'i,j,value'")
        # numpy only warns on a file with no rows, so look for one first
        rows_at = fh.tell()
        if not any(line.strip() for line in fh):
            raise ValueError("matrix file has no rows after its header")
        fh.seek(rows_at)
        # a ValueError unless every row has 3 fields
        rows, cols, value = np.loadtxt(fh, delimiter=",", ndmin=2, unpack=True)
    i, j = rows.astype(np.int64), cols.astype(np.int64)
    if not ((i == rows) & (j == cols)).all():
        raise ValueError("pair indices must be integers")
    if not ((0 <= i) & (i < j)).all():
        raise ValueError("matrix files carry the strict upper triangle only")
    n = int(j.max()) + 1
    keys = i * n + j
    pairs = len(np.unique(keys))
    # a file written by write_matrix_csv lists every pair of its n once
    if not len(keys) == pairs == tri_size(n):
        raise ValueError(f"expected each of the {tri_size(n)} pairs of n={n} once, "
                         f"got {len(keys)} rows for {pairs} pairs")
    tri = np.empty(tri_size(n))
    tri[key_to_tri(n, keys)] = value
    return SymmetricProbMatrix(n, tri)


def write_family(path: str | Path, fam: GraphFamily) -> None:
    # bit i of a mask is pair i of the row-major order, so a member's set
    # bits from low to high give its edges sorted; every member has the same
    # number of edges, and a blank line goes before every block but the first
    lines = np.array([f"{j} {k}\n" for j, k in tri_pairs(fam.n)], dtype=object)
    edges = sum(fam.degrees) // 2
    with open(path, "w") as fh:
        for chunk, bits in enumerate(bit_rows(fam.masks, len(lines))):
            blocks = np.full((len(bits), 1 + edges), "\n", dtype=object)
            blocks[:, 1:] = lines[bits.nonzero()[1]].reshape(len(bits), edges)
            if not chunk:
                blocks[0, 0] = ""
            fh.write("".join(blocks.ravel().tolist()))


def read_family_edge_lists(path: str | Path, n: int) -> list[SimpleGraph]:
    # each blank line ends a block; the text after the last one is a block too
    keys, cuts = _edge_lines(path, n)
    return [SimpleGraph(n, part) for part in np.split(keys, cuts)]


def write_trace_ndjson(path: str | Path, traces: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for record in traces:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
