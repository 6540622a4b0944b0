import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq import DegreeSequence, RandomSource, SimpleGraph, enumerate_graphs, q_matrix
from degseq.acceptance import _all_tuples
from degseq.graphs import tri_size
from degseq.io import (
    _edge_block,
    read_degree_file,
    read_edge_list,
    read_family_edge_lists,
    read_matrix_csv,
    write_degree_file,
    write_edge_list,
    write_family,
    write_matrix_csv,
    write_trace_ndjson,
)


def test_degree_file_roundtrip(tmp_path):
    path = tmp_path / "d.txt"
    write_degree_file(path, (3, 1, 1, 1))
    assert path.read_text() == "3\n1\n1\n1\n"
    assert read_degree_file(path).degrees == (3, 1, 1, 1)


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    g = SimpleGraph.from_edges(4, [(2, 0), (1, 3)])
    write_edge_list(path, g)
    assert path.read_text() == "0 2\n1 3\n"
    assert read_edge_list(path, 4) == g


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 120))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return SimpleGraph.from_edges(n, draw(st.lists(pair, max_size=300)))


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_edge_list_sorted_numerically(tmp_path_factory, g):
    # from n = 11 on, "10 2" sorts before "2 3" as a string but after it as a pair
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    write_edge_list(path, g)
    assert path.read_text() == "".join(f"{j} {k}\n" for j, k in g.pairs())
    assert read_edge_list(path, g.n) == g


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    # from n = 11 on, row 10 sorts before row 2 as a string but not as a pair
    for degrees in [(2, 1, 1), (3, 1, 2, 2, 4, 1, 1, 2, 3, 5, 2)]:
        m = q_matrix(degrees)
        write_matrix_csv(path, m)
        text = path.read_text()
        assert text.startswith("i,j,value\n")
        assert len(text.splitlines()) == 1 + tri_size(m.n)  # header + upper triangle
        back = read_matrix_csv(path)
        assert back.n == m.n
        assert np.array_equal(back.tri, m.tri)


def test_matrix_csv_rejects_nan(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("i,j,value\n0,1,nan\n")
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
        read_matrix_csv(path)


def test_matrix_csv_rejects_lower_triangle(tmp_path):
    path = tmp_path / "bad.csv"
    # a negative row index once wrapped round to another row: -2 to row 0
    for line in ("1,0,0.5", "-2,1,0.5"):
        path.write_text(f"i,j,value\n{line}\n")
        with pytest.raises(ValueError, match="strict upper triangle"):
            read_matrix_csv(path)


def test_family_roundtrip(tmp_path):
    path = tmp_path / "family.txt"
    fam = enumerate_graphs((2, 2, 2, 2))
    write_family(path, fam)
    blocks = path.read_text().split("\n\n")
    assert len(blocks) == 3
    back = read_family_edge_lists(path, 4)
    assert back == fam.members


def _reference_block(g):
    # the reference formula: sort the integer keys j*n + k, format one line each
    n = g.n
    return "".join(f"{x // n} {x % n}\n" for x in sorted(g.edges))


@pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 1000, 10_000])
def test_edge_block_matches_reference(n):
    rng = RandomSource(17, n)
    size = min(tri_size(n), 3000)
    edges = {
        (j, k) if j < k else (k, j)
        for j, k in ((rng.below(n), rng.below(n)) for _ in range(size))
        if j != k
    }
    for g in (SimpleGraph.from_edges(n, edges), SimpleGraph.empty(n),
              SimpleGraph.from_edges(n, [(n - 1, 0)])):
        assert _edge_block(g) == _reference_block(g)


def test_family_matches_member_blocks(tmp_path):
    path = tmp_path / "family.txt"
    sequences = [(2,) * 6, (3,) * 8] + [
        degrees for n in range(1, 7) for degrees in _all_tuples(n, min(3, n - 1))
    ]
    for degrees in sequences:
        fam = enumerate_graphs(degrees)
        write_family(path, fam)
        expected = "\n".join(_reference_block(member) for member in fam.members)
        assert path.read_text() == expected, degrees


def test_trace_ndjson(tmp_path):
    import json

    path = tmp_path / "t.ndjson"
    write_trace_ndjson(path, [{"b": 1, "a": 2}, {"a": 3, "b": 4}])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"a": 2, "b": 1}
    assert lines[0].index('"a"') < lines[0].index('"b"')  # sorted keys


@pytest.mark.parametrize("text,message", [
    ("0 1 2\n", "too many values to unpack"),
    ("0\n", "not enough values to unpack"),
    ("a b\n", "invalid literal for int"),
    ("1.5 2\n", "invalid literal for int"),
    ("0 1\n1 1\n", "self-loop at vertex 1"),
    ("0 9\n", r"edge \(0,9\) invalid for n=4"),
    ("2 -1\n", r"edge \(-1,2\) invalid for n=4"),
])
def test_readers_reject_bad_lines(tmp_path, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    for read in (read_edge_list, read_family_edge_lists):
        with pytest.raises(ValueError, match=message):
            read(path, 4)


def test_readers_accept_loose_lines(tmp_path):
    # reversed pairs, duplicates, padding and whitespace-only separators
    path = tmp_path / "loose.edges"
    path.write_text("  2 0 \n0 2\n \t\n3 1")
    assert read_edge_list(path, 4) == SimpleGraph.from_edges(4, [(0, 2), (1, 3)])
    assert read_family_edge_lists(path, 4) == [
        SimpleGraph.from_edges(4, [(0, 2)]), SimpleGraph.from_edges(4, [(1, 3)])
    ]
