"""Edge-list and npz I/O tests."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    coalesce_edges,
    load_npz,
    read_edge_list,
    save_npz,
    write_edge_list,
)
from repro.graph import io as graph_io
from repro.kernels import IndexWidthError


@pytest.fixture
def sample() -> Graph:
    return Graph.from_edges([0, 1, 2, 3], [1, 2, 0, 3], [1.0, 2.5, 3.0, 0.5])


class TestEdgeList:
    def test_roundtrip_buffer(self, sample):
        buf = io.StringIO()
        write_edge_list(sample, buf)
        buf.seek(0)
        g = read_edge_list(buf)
        assert g.num_vertices == sample.num_vertices
        assert np.allclose(g.weights, sample.weights)

    def test_roundtrip_file(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        g = read_edge_list(path)
        assert g.total_weight == pytest.approx(sample.total_weight)

    def test_unweighted_lines(self):
        g = read_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.num_edges == 2
        assert g.edge_weight(0, 1) == 1.0

    def test_comments_and_blanks_skipped(self):
        g = read_edge_list(io.StringIO("# header\n\n0 1 2.0\n# trailing\n"))
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 2.0

    def test_bad_column_count_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(io.StringIO("0 1 2 3\n"))

    def test_num_vertices_override(self):
        g = read_edge_list(io.StringIO("0 1\n"), num_vertices=10)
        assert g.num_vertices == 10

    def test_write_without_weights(self, sample):
        buf = io.StringIO()
        write_edge_list(sample, buf, write_weights=False)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert all(len(l.split()) == 2 for l in lines)

    @pytest.mark.parametrize(
        "rows, cause",
        [
            ("0 x", "line 3: vertex id 'x' is not an integer"),
            ("3.0 1", "line 3: vertex id '3.0' is not an integer"),
            ("-1 2", "line 3: vertex id -1 is negative"),
            ("0 1 abc", "line 3: weight 'abc' is not a number"),
            ("0 1 2 3", "line 3: expected 2 or 3 columns, got 4"),
            ("0 1\n1 2\n2 x", "line 5: vertex id 'x' is not an integer"),
            ("0 1 1.0\n1 -4 1.0", "line 4: vertex id -4 is negative"),
            ("0 1 1.0\n1 2 1,5", "line 4: weight '1,5' is not a number"),
        ],
    )
    def test_malformed_line_names_its_number(self, tmp_path, rows, cause):
        text = f"# header\n\n{rows}\n7 8\n"
        path = tmp_path / "bad.txt"
        path.write_text(text)
        for source in (io.StringIO(text), path):
            with pytest.raises(ValueError) as exc:
                read_edge_list(source)
            assert str(exc.value) == cause

    def test_ids_checked_against_num_vertices(self):
        with pytest.raises(ValueError) as exc:
            read_edge_list(io.StringIO("# header\n\n0 1\n4 12\n"), num_vertices=10)
        assert str(exc.value) == "line 4: vertex id 12 is not below num_vertices=10"

    @pytest.mark.skipif(not graph_io._C_PARSER, reason="numpy before 2.4")
    def test_uniform_rows_skip_the_line_loop(self, monkeypatch):
        def line_loop(*args):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(graph_io, "_parse_lines", line_loop)
        g = read_edge_list(io.StringIO("# header\n\n0 1 2.5\n1 2 0.5\n"))
        assert g.edge_weight(0, 1) == 2.5 and g.num_edges == 2
        g = read_edge_list(io.StringIO("0 1\n\n  1\t2 \n"))
        assert g.num_edges == 2


# --------------------------------------------------------------------- #
# The C parser against the line loop
# --------------------------------------------------------------------- #


def _line_loop(lines, num_vertices=None):
    """The reference: the line loop's graph, or its error message."""
    try:
        src, dst, wt = graph_io._parse_lines(lines, "#", 1, num_vertices)
    except ValueError as exc:
        return str(exc)
    return Graph.from_edges(src, dst, wt, num_vertices=num_vertices)


def _read(source, num_vertices=None):
    try:
        return read_edge_list(source, num_vertices=num_vertices)
    except ValueError as exc:
        return str(exc)


def assert_identical(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Graph), got
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


PLAIN_ID = st.integers(0, 40).map(str)
PYTHON_ONLY_ID = st.sampled_from(["1_000", "1_0", "0_3", "+3", "+0"])
BAD_ID = st.sampled_from(["x", "-1", "3.0", "1e3", "0x1", "99999999999999999999"])
WEIGHT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1e6).map(lambda w: f"{w:.10g}"),
    st.floats(1e-9, 1e9).map(lambda w: f"{w:e}"),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "Infinity", "1e400", "-0.0", ".5", "5."]),
)
PYTHON_ONLY_WEIGHT = st.sampled_from(["1_0.5", "1_000"])
BAD_WEIGHT = st.sampled_from(["abc", "1,5", "0x1p3", "nan(1)", "1.0j"])
FILLER = st.sampled_from(["", "   ", "\t", "# mid-file comment", "#"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text in the shapes both reader paths must agree on."""
    style = draw(st.sampled_from(["plain", "plain", "python-only", "bad"]))
    columns = draw(st.sampled_from([2, 3, "mixed"]))
    ids = st.one_of(PLAIN_ID, PYTHON_ONLY_ID) if style == "python-only" else PLAIN_ID
    weights = (
        st.one_of(WEIGHT, PYTHON_ONLY_WEIGHT) if style == "python-only" else WEIGHT
    )
    fillers = draw(st.booleans())
    eol = st.sampled_from(["\n", "\r\n"])
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    lines = [draw(st.sampled_from(["# header", "", "  # indented"]))
             for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(1, 12))):
        if fillers and draw(st.integers(0, 4)) == 0:
            lines.append(draw(FILLER))
        ncols = draw(st.sampled_from([2, 3])) if columns == "mixed" else columns
        fields = [draw(ids), draw(ids)] + ([draw(weights)] if ncols == 3 else [])
        lines.append(draw(st.sampled_from(["", " "])) + draw(sep).join(fields))
    if style == "bad":
        row = draw(st.integers(0, len(lines)))
        bad = draw(st.one_of(
            st.tuples(BAD_ID, PLAIN_ID).map(" ".join),
            st.tuples(PLAIN_ID, PLAIN_ID, BAD_WEIGHT).map(" ".join),
            st.sampled_from(["7", "1 2 3 4"]),
        ))
        lines.insert(row, bad)
    return "".join(line + draw(eol) for line in lines)


class TestReaderPathsAgree:
    """``read_edge_list`` equals the line loop bit for bit, or fails alike."""

    @given(text=edge_list_texts(), num_vertices=st.sampled_from([None, 30]))
    @settings(max_examples=200, deadline=None)
    def test_generated_texts(self, tmp_path_factory, text, num_vertices):
        want = _line_loop(io.StringIO(text), num_vertices)
        assert_identical(_read(io.StringIO(text), num_vertices), want)
        path = tmp_path_factory.mktemp("edges") / "g.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            want = _line_loop(fh, num_vertices)
        assert_identical(_read(path, num_vertices), want)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_lfr_round_trip(self, small_lfr, tmp_path, weighted):
        graph = small_lfr.graph
        if weighted:
            src, dst, _ = graph.edge_arrays()
            weights = np.random.default_rng(7).uniform(0.1, 9.0, src.size)
            graph = Graph.from_edges(src, dst, weights, num_vertices=graph.num_vertices)
        path = tmp_path / "lfr.txt"
        write_edge_list(graph, path, write_weights=weighted)
        with open(path, encoding="utf-8") as fh:
            want = _line_loop(fh)
        got = read_edge_list(path)
        assert_identical(got, want)
        assert np.array_equal(got.indptr, graph.indptr)
        assert np.array_equal(got.indices, graph.indices)
        buf = io.StringIO()
        write_edge_list(got, buf, write_weights=weighted)
        assert buf.getvalue() == path.read_text()


def _lexsort_coalesce(src, dst, weight):
    """The CSR build's grouping before the one-sort key: ``np.lexsort``."""
    order = np.lexsort((dst, src))
    src, dst, weight = src[order], dst[order], weight[order]
    new = np.ones(src.size, dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    sums = np.zeros(int(new.sum()))
    np.add.at(sums, np.cumsum(new) - 1, weight)
    keep = np.flatnonzero(new)
    return src[keep], dst[keep], sums


class TestCsrBuild:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 400),
        span=st.sampled_from([3, 300, 1 << 16, 70_000, 1 << 31]),
        offset=st.sampled_from([0, -5, 1 << 20]),
    )
    @settings(max_examples=80, deadline=None)
    def test_coalesce_matches_lexsort_grouping(self, seed, size, span, offset):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, span, size) + offset
        dst = rng.integers(0, span, size) + offset
        # Repeat some pairs so the per-pair sums depend on their fold order.
        dup = rng.integers(0, size, size // 2)
        src = np.concatenate([src, src[dup]])
        dst = np.concatenate([dst, dst[dup]])
        weight = rng.standard_normal(src.size) * 10.0 ** rng.integers(-8, 8, src.size)
        got = coalesce_edges(src, dst, weight)
        want = _lexsort_coalesce(src, dst, weight)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_too_wide_for_one_key_raises(self):
        ids = np.array([0, 1 << 40], dtype=np.int64)
        with pytest.raises(IndexWidthError):
            coalesce_edges(ids, ids, np.ones(2))


class TestNpz:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        g = load_npz(path)
        assert g.num_vertices == sample.num_vertices
        assert np.array_equal(g.indptr, sample.indptr)
        assert np.array_equal(g.indices, sample.indices)
        assert np.allclose(g.weights, sample.weights)

    def test_roundtrip_with_loops(self, tmp_path):
        g0 = Graph.from_edges([0, 1, 1], [0, 1, 2], [2.0, 1.0, 3.0])
        path = tmp_path / "loops.npz"
        save_npz(g0, path)
        g = load_npz(path)
        assert g.total_weight == pytest.approx(g0.total_weight)
        assert np.allclose(g.self_loop_adjacency(), g0.self_loop_adjacency())
