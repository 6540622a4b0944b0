import os
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degseq.io
from degseq import (
    DegreeSequence,
    RandomSource,
    SimpleGraph,
    enumerate_graphs,
    p_matrix,
    q_matrix,
)
from degseq.graphs import edge_key, tri_size
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


def test_matrix_csv_bytes_match_one_joined_string(tmp_path):
    # reference: every line of the file joined into one string
    m = q_matrix((3, 1, 2, 2, 4, 1, 1, 2, 3, 5, 2))
    j, k = np.triu_indices(m.n, k=1)
    lines = [f"{a},{b},{v!r}\n" for a, b, v in zip(j.tolist(), k.tolist(), m.tri.tolist())]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_bytes() == ("i,j,value\n" + "".join(lines)).encode()


def test_matrix_csv_write_memory_is_a_row_not_the_file(tmp_path):
    # the n = 1000 p-matrix is a 14.4 MB file; holding its lines at once
    # peaked at about 99 MB
    m = p_matrix((10,) * 1000)
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "w.csv", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_matrix_csv_read_memory_is_the_triangle_not_the_text(tmp_path):
    # the same 14.4 MB file: reading its lines and a dict of its pairs
    # peaked at about 311 MB; numpy's parse of it peaks near 46 MB
    m = p_matrix((10,) * 1000)
    write_matrix_csv(tmp_path / "w.csv", m)
    tracemalloc.start()
    try:
        back = read_matrix_csv(tmp_path / "w.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.tri, m.tri)
    assert peak < 100_000_000


@pytest.mark.parametrize("body", ["0.5,1,0.5\n", "0,1\n", "0,1,0.5,2\n", "0,1,x\n"],
                         ids=["fractional-index", "two-fields", "four-fields", "bad-value"])
def test_matrix_csv_rejects_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("i,j,value\n" + body)
    with pytest.raises(ValueError):
        read_matrix_csv(path)


@pytest.mark.parametrize("body", ["", "\n", "\n \n"], ids=["header-only", "blank-line", "blank-lines"])
def test_matrix_csv_rejects_a_file_without_rows(tmp_path, body):
    # numpy once warned of no data, then unpacking its empty array failed
    path = tmp_path / "empty.csv"
    path.write_text("i,j,value\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix file has no rows after its header$"):
            read_matrix_csv(path)


def test_matrix_csv_rejects_nan(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("i,j,value\n0,1,nan\n")
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
        read_matrix_csv(path)


@pytest.mark.parametrize("body", [
    "0,5,0.5\n0,5,0.7\n",                  # one pair of n = 6, twice; 14 pairs missing
    "0,1,0.5\n0,2,0.5\n",                  # n = 3 without the pair (1,2)
    "0,1,0.5\n0,2,0.5\n1,2,0.5\n0,1,0.7\n",  # every pair of n = 3, one of them twice
], ids=["one-pair-twice", "pair-missing", "complete-plus-repeat"])
def test_matrix_csv_rejects_missing_or_repeated_pairs(tmp_path, body):
    path = tmp_path / "partial.csv"
    path.write_text("i,j,value\n" + body)
    with pytest.raises(ValueError, match="pairs of n="):
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


def test_family_matches_member_blocks(tmp_path, monkeypatch):
    path = tmp_path / "family.txt"
    # regular(12,1)'s 10395 masks have 66 bits and fill several bit matrices
    monkeypatch.setenv("DEGSEQ_ORACLE_CAP", "12")
    sequences = [(2,) * 6, (3,) * 8, (1,) * 12] + [
        degrees for n in range(1, 7) for degrees in product(range(min(3, n - 1) + 1), repeat=n)
    ]
    for degrees in sequences:
        fam = enumerate_graphs(degrees)
        write_family(path, fam)
        expected = "\n".join(_reference_block(member) for member in fam.members)
        text = path.read_text()
        if text != expected:
            # report where, rather than have pytest diff a megabyte of text
            at = len(os.path.commonprefix([text, expected]))
            pytest.fail(f"{degrees}: first difference at character {at} of {len(expected)}: "
                        f"{text[at - 20:at + 20]!r} against {expected[at - 20:at + 20]!r}")


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
    # plain files (digits and whitespace) whose bad line comes after good ones
    ("0 1\n2\n", "not enough values to unpack"),
    ("0 1\n\n2 3 0\n", "too many values to unpack"),
    ("0 1\n3\t3\n", "self-loop at vertex 3"),
    ("0 1\n4 0\n", r"edge \(0,4\) invalid for n=4"),
    ("0 99999999999999999999999\n", r"edge \(0,99999999999999999999999\) invalid"),
    ("0 1\r\n2 x\r\n", "invalid literal for int"),
])
def test_readers_reject_bad_lines(tmp_path, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    for read in (read_edge_list, read_family_edge_lists):
        with pytest.raises(ValueError, match=message):
            read(path, 4)


def reference_read(text, n):
    """The graphs of a family file, read line by line."""
    graphs, block = [], []
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            graphs.append(SimpleGraph(n, frozenset(block)))
            block = []
            continue
        j, k = fields
        block.append(edge_key(n, int(j), int(k)))
    return graphs + [SimpleGraph(n, frozenset(block))]


# lines of an edge file: mostly plain edges and blank lines, which the
# numpy parse reads, and now and then a line only the text parse reads
# ("+1", "1_0", a no-break space) or a bad one
PLAIN_GAPS = st.sampled_from(["", " ", "  ", "\t", " \t"])
VERTICES = st.integers(0, 4).map(str)
PLAIN_EDGE = st.tuples(PLAIN_GAPS, VERTICES, PLAIN_GAPS.filter(bool), VERTICES, PLAIN_GAPS).filter(
    lambda t: t[1] != t[3]).map("".join)
FIELDS = st.one_of(VERTICES, st.sampled_from(["007", "+1", "-1", "1_0", "x", "1.0", "0" * 19 + "2"]))
GAPS = st.one_of(PLAIN_GAPS, st.sampled_from(["\x0c", "\u00a0"]))
ODD_LINE = st.one_of(
    st.tuples(GAPS, FIELDS, GAPS.filter(bool), FIELDS, GAPS).map("".join),  # "j k"
    st.tuples(GAPS, FIELDS, GAPS).map("".join),  # one field
    GAPS,  # blank
)
LINES = st.one_of(PLAIN_EDGE, PLAIN_EDGE, PLAIN_EDGE, PLAIN_GAPS, ODD_LINE)


@given(st.lists(LINES, max_size=12), st.sampled_from(["\n", "\n", "\r\n", "\r"]),
       st.booleans())
@example(["0 1", "", "2 3", "", "", "1 4"], "\n", True)  # blocks between blank lines
@example([], "\n", False)  # numpy warns on a file with no data, and is never
@example([" \t", ""], "\n", True)  # handed an empty or blank-only one
@example(["0\x0c1"], "\n", True)  # two lines to splitlines, one line of two
@example(["0\x851"], "\n", True)  # fields to numpy: kept out of numpy
@settings(max_examples=300, deadline=None)
def test_readers_match_the_line_by_line_reader(tmp_path_factory, lines, end, last_end):
    # plain files take the numpy parse, the others the text one; either way
    # the graphs, or the ValueError message, are those of a line-by-line read
    text = end.join(lines) + (end if last_end else "")
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    path.write_bytes(text.encode())
    try:
        want = reference_read(path.read_text(), 5)
    except ValueError as exc:
        for read in (read_edge_list, read_family_edge_lists):
            with pytest.raises(ValueError) as got:
                read(path, 5)
            assert str(got.value) == str(exc)
        return
    assert read_family_edge_lists(path, 5) == want
    union = frozenset().union(*(g.edges for g in want))
    assert read_edge_list(path, 5) == SimpleGraph(5, union)


def test_read_edge_list_memory_is_a_few_arrays_of_its_edges(tmp_path):
    # a couple-large edge file: 430k edges at n = 1e4, 4.2 MB of text; the
    # digit-by-digit parse this reader replaced peaked at 41 MB
    n = 10_000
    keys = np.sort(np.random.default_rng(5).choice(tri_size(n), 430_000, replace=False))
    g = SimpleGraph(n, degseq.graphs.tri_to_key(n, keys))
    path = tmp_path / "g.edges"
    write_edge_list(path, g)
    tracemalloc.start()
    try:
        back = read_edge_list(path, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak < 30_000_000, peak


def test_readers_accept_loose_lines(tmp_path):
    # reversed pairs, duplicates, padding and whitespace-only separators
    path = tmp_path / "loose.edges"
    path.write_text("  2 0 \n0 2\n \t\n3 1")
    assert read_edge_list(path, 4) == SimpleGraph.from_edges(4, [(0, 2), (1, 3)])
    assert read_family_edge_lists(path, 4) == [
        SimpleGraph.from_edges(4, [(0, 2)]), SimpleGraph.from_edges(4, [(1, 3)])
    ]


def test_read_graph_keeps_int64_keys(tmp_path):
    # the reader hands its parsed key array to the graph: 8 bytes an edge,
    # where a frozenset of int keys kept about 70
    n = 2000
    keys = np.random.default_rng(3).choice(tri_size(n), 20_000, replace=False)
    path = tmp_path / "g.edges"
    write_edge_list(path, SimpleGraph(n, set(degseq.graphs.tri_to_key(n, keys).tolist())))
    read_edge_list(path, n)
    tracemalloc.start()
    try:
        g = read_edge_list(path, n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 20_000
    assert kept / g.num_edges <= 16, kept / g.num_edges
