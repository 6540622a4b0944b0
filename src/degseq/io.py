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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    DegreeSequence,
    SimpleGraph,
    SymmetricProbMatrix,
    edge_key,
    tri_index,
    tri_pairs,
    tri_size,
)
from .oracle import GraphFamily


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
    return SimpleGraph(n, frozenset(_edge_keys(Path(path).read_text().splitlines(), n)))


def _edge_keys(lines: Iterable[str], n: int) -> Iterator[int]:
    """The key of the edge on each non-blank "j k" line, taken in either order."""
    for line in lines:
        fields = line.split()
        if fields:
            j, k = fields
            yield edge_key(n, int(j), int(k))


def write_edge_list(path: str | Path, g: SimpleGraph) -> None:
    Path(path).write_text(_edge_block(g))


def _edge_block(g: SimpleGraph) -> str:
    # keys j*n + k order edges as the (j, k) pairs do
    n = g.n
    keys = np.sort(g.key_array())
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
    lines = ["i,j,value\n"]
    for idx, (j, k) in enumerate(tri_pairs(m.n)):
        lines.append(f"{j},{k},{float(m.tri[idx])!r}\n")
    Path(path).write_text("".join(lines))


def read_matrix_csv(path: str | Path) -> SymmetricProbMatrix:
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0].strip() != "i,j,value":
        raise ValueError("expected header 'i,j,value'")
    entries: dict[tuple[int, int], float] = {}
    n = 0
    for line in rows[1:]:
        line = line.strip()
        if not line:
            continue
        i, j, value = line.split(",")
        i, j = int(i), int(j)
        if not 0 <= i < j:
            raise ValueError("matrix files carry the strict upper triangle only")
        entries[(i, j)] = float(value)
        n = max(n, j + 1)
    tri = np.zeros(tri_size(n))
    for (i, j), v in entries.items():
        tri[tri_index(n, i, j)] = v
    return SymmetricProbMatrix(n, tri)


def write_family(path: str | Path, fam: GraphFamily) -> None:
    # bit i of a mask is pair i of the row-major order, so reading the bits
    # from low to high gives each member's edges sorted
    lines = [f"{j} {k}\n" for j, k in tri_pairs(fam.n)]
    blocks = []
    for mask in fam.masks:
        block = []
        while mask:
            low = mask & -mask
            block.append(lines[low.bit_length() - 1])
            mask ^= low
        blocks.append("".join(block))
    Path(path).write_text("\n".join(blocks))


def read_family_edge_lists(path: str | Path, n: int) -> list[SimpleGraph]:
    # each blank line ends a block; the text after the last one is a block too
    graphs = []
    block: list[str] = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            block.append(line)
        else:
            graphs.append(SimpleGraph(n, frozenset(_edge_keys(block, n))))
            block = []
    graphs.append(SimpleGraph(n, frozenset(_edge_keys(block, n))))
    return graphs


def write_trace_ndjson(path: str | Path, traces: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for record in traces:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
