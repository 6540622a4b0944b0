"""File formats.

Degree files: one non-negative integer per line, vertex = 0-based line number.
Graph files: one edge per line as "j k" with j < k, 0-based.
Matrix files: CSV with header "i,j,value", strict upper triangle only.
Family files: edge-list blocks separated by blank lines.
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
    keys, _ = _edge_lines(path, n)
    return SimpleGraph(n, keys)


# a plain edge file holds only digits, spaces, tabs and newlines; numpy
# parses it a chunk of whole lines at a time, so its temporary arrays stay a
# few MB whatever the file's size
_PLAIN_BYTES = b"0123456789 \t\n"
_PARSE_CHUNK = 1 << 20


def _edge_lines(path: str | Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The key of the edge on each non-blank "j k" line of the file, taken in
    either order, and the number of edges before each blank line.

    A plain file is parsed with numpy from its bytes.  Any other file, and any
    file with a bad line, is read line by line as text, which raises
    ValueError for the first bad line.
    """
    raw = Path(path).read_bytes()
    if not raw.translate(None, _PLAIN_BYTES):
        parsed = _plain_edge_lines(raw, n)
        if parsed is not None:
            return parsed
    keys, cuts = [], []
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if fields:
            j, k = fields
            keys.append(edge_key(n, int(j), int(k)))
        else:
            cuts.append(len(keys))
    return np.array(keys, dtype=np.int64), np.array(cuts, dtype=np.int64)


def _plain_edge_lines(raw: bytes, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_edge_lines` of a plain file, or None if a line is bad or a field is
    over 18 digits long."""
    keys, cuts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    edges = start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _PARSE_CHUNK) + 1 or len(raw)
        data = np.frombuffer(raw, np.uint8, stop - start, start)
        start = stop
        # a field is a run of digits; its value is read digit by digit
        step = np.diff((data >= 48).view(np.int8), prepend=0, append=0)
        starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
        length = ends - starts
        newlines = np.flatnonzero(data == 10)
        lines = len(newlines) + (data[-1] != 10)
        width = np.bincount(np.searchsorted(newlines, starts), minlength=lines)
        blank = width == 0
        if not (blank | (width == 2)).all() or length.max(initial=0) > 18:
            return None
        value = np.zeros(len(starts), dtype=np.int64)
        for i in range(length.max(initial=0)):
            more = length > i
            value[more] = 10 * value[more] + (data[starts[more] + i] - 48)
        lo, hi = np.minimum(value[0::2], value[1::2]), np.maximum(value[0::2], value[1::2])
        if not ((lo < hi) & (hi < n)).all():
            return None
        keys.append(lo * n + hi)
        cuts.append(edges + np.cumsum(width)[blank] // 2)
        edges += len(lo)
    return np.concatenate(keys), np.concatenate(cuts)


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
        # a ValueError unless there are rows, each of 3 fields
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
