import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwcut import graph as graph_module
from rwcut.errors import InvalidInputError, ParseError, ResourceError
from rwcut.graph import (
    EVEN,
    ODD,
    UNCLASSIFIED,
    Tripartition,
    WeightedGraph,
    conductance,
    cut_value,
    load_graph,
    orient,
    prefix_cut_metrics,
    read_partition,
    sample_vertex_by_degree,
    sweep,
    write_partition,
)

from conftest import complete_graph, cycle_graph, dump_text, make_graph, random_graph
from oracles import cut_metrics


def _edges(g):
    """Each undirected edge of g once as (u, v, w) with u < v, as Python scalars."""
    return zip(*(a.tolist() for a in g.edge_arrays()))


class TestLoad:
    def test_single_edge(self):
        g = load_graph(io.StringIO("0 1 1.0"))
        assert g.n == 2
        assert g.total_weight == 2.0
        assert list(g.degrees) == [1.0, 1.0]

    def test_triangle_degrees(self):
        g = load_graph(io.StringIO("0 1\n1 2\n0 2\n"))
        assert g.n == 3
        assert g.total_weight == 6.0
        assert g.degrees.max() == 2.0

    def test_duplicate_edges_merge(self):
        g = load_graph(io.StringIO("0 1 1\n0 1 1\n"))
        assert g.nbr.size == 2  # one undirected edge stored twice
        assert g.total_weight == 4.0
        nb, wt = g.neighbors(0)
        assert list(wt) == [2.0]

    def test_comments_and_blanks(self):
        g = load_graph(io.StringIO("# header\n\n0 1 2.5  # trailing\n"))
        assert g.total_weight == 5.0

    def test_isolated_vertices_allowed(self):
        g = load_graph(io.StringIO("0 3 1\n"))
        assert g.n == 4
        assert g.degrees[1] == 0.0

    @pytest.mark.parametrize("text", ["0 0 1\n", "0 1 0\n", "0 1 -2\n", "0\n", "a b\n"])
    def test_bad_lines(self, text):
        with pytest.raises(ParseError):
            load_graph(io.StringIO(text))

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        g = random_graph(17, 0.3, rng, weighted=True)
        g2 = load_graph(io.StringIO(dump_text(g)))
        assert g == g2
        # load_graph sizes n as the largest id plus one, so trailing vertices
        # without edges do not come back.
        edges = [(0, 1, 1.0), (1, 2, 1.0)]
        g3 = load_graph(io.StringIO(dump_text(WeightedGraph.from_edges(5, edges))))
        assert g3 == WeightedGraph.from_edges(3, edges)

    def test_dump_writes_one_line_per_edge_across_blocks(self, monkeypatch):
        g = random_graph(17, 0.3, np.random.default_rng(7), weighted=True)
        expected = "".join(f"{u} {v} {w!r}\n" for u, v, w in _edges(g))
        monkeypatch.setattr(graph_module, "_DUMP_BLOCK", 4)
        assert dump_text(g) == expected

    @pytest.mark.parametrize("w", ["inf", "nan", "-inf"])
    def test_non_finite_weight_named(self, w):
        with pytest.raises(ParseError, match="line 1: non-finite weight"):
            load_graph(io.StringIO(f"0 1 {w}\n"))
        with pytest.raises(ParseError, match=r"edge \(0, 1\) has non-finite weight"):
            WeightedGraph.from_edges(2, [(0, 1, float(w))])

    def test_from_edges_names_first_bad_edge(self):
        with pytest.raises(ParseError, match=r"\(2, 5\) with n=4"):
            WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 5, 1.0), (3, 3, 1.0)])
        with pytest.raises(ParseError, match="non-positive weight -1.0"):
            WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, -1.0), (9, 1, 1.0)])

    def test_pair_keys_must_fit_int64(self):
        with pytest.raises(ResourceError, match="too large"):
            WeightedGraph.from_edges(3_037_000_500, [(0, 1, 1.0)])

    def test_degrees_summed_per_row(self):
        # A running sum over all rows would round the light rows at the heavy
        # edge's scale.
        g = make_graph(5, [(0, 1, 1e12), (2, 3, 0.1), (3, 4, 0.2)])
        assert g.degrees[3] == 0.1 + 0.2
        assert g.degrees[2] == 0.1

    def test_one_large_id_allocates_nothing_of_its_size(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="too large for 1 edges"):
                load_graph(io.StringIO("0 1000000000\n"))
            with pytest.raises(ResourceError, match="too large for 1 edges"):
                WeightedGraph.from_edges(10**9, [(0, 1, 1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_vertex_count_bound(self):
        n = 2 * 2 + 2**20
        g = WeightedGraph.from_edges(n, [(0, 1, 1.0), (n - 2, n - 1, 1.0)])
        assert g.n == n and g.degrees[n - 1] == 1.0
        with pytest.raises(ResourceError, match="at most 2 \\* edges \\+ 1048576"):
            WeightedGraph.from_edges(n + 1, [(0, 1, 1.0), (n - 2, n - 1, 1.0)])

    @pytest.mark.parametrize("text", ["0 1 2.5\n1 2 0.5\n0 1 1e-3\n",
                                      "# c\n0 1\r\n\n1 2  # c\r\n",
                                      "\t3 1 +7 \n"])
    def test_plain_files_skip_the_line_reader(self, monkeypatch, text):
        expected = graph_module._load_lines(text)

        def refuse(_):
            raise AssertionError("line reader used")

        monkeypatch.setattr(graph_module, "_load_lines", refuse)
        assert load_graph(io.StringIO(text)) == expected

    @pytest.mark.parametrize("text", ["", "\n \t\n", "# only\n", "  # c\r\n#\n"])
    def test_no_edges_is_the_empty_graph_without_warnings(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_graph(io.StringIO(text))
        assert g.n == 0


@pytest.mark.parametrize("read", [load_graph, read_partition])
def test_non_utf8_input_is_a_parse_error(tmp_path, read):
    path = tmp_path / "f.txt"
    path.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read(str(path))
    with pytest.raises(ParseError, match="not UTF-8"):
        read(io.BytesIO(b"\xff"))


def _reference_csr(n, edges):
    """The CSR of (u, v, w) edges built in pure Python: parallel edges summed
    from 0.0 in input order, each row sorted by neighbour."""
    merged = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + w
    rows = [[] for _ in range(n)]
    for (u, v), w in merged.items():
        rows[u].append((v, w))
        rows[v].append((u, w))
    indptr, nbr, wt = [0], [], []
    for row in rows:
        for v, w in sorted(row):
            nbr.append(v)
            wt.append(w)
        indptr.append(len(nbr))
    return n, indptr, nbr, wt


@st.composite
def _edge_sets(draw):
    """(n, edges) with some ids above every endpoint left isolated; the edges
    in canonical order (distinct, sorted by pair, as dump_graph writes them),
    shuffled, each listed twice, or as drawn, with repeats."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=25))
    order = draw(st.sampled_from(["canonical", "shuffled", "twice", "as drawn"]))
    if order == "canonical":
        pairs = sorted({(min(p), max(p)) for p in pairs})
    elif order == "shuffled":
        pairs = draw(st.permutations(sorted(set(pairs))))
    elif order == "twice":
        pairs = draw(st.permutations(pairs + pairs))
    weight = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0]))
    edges = [(u, v, draw(weight)) if draw(st.booleans()) else (v, u, draw(weight))
             for u, v in pairs]
    return n + draw(st.integers(0, 3)), edges


class TestFromArraysMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_edge_sets())
    @example((3, []))
    @example((4, [(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3), (2, 1, 1.0)]))
    def test_same_csr(self, case):
        n, edges = case
        u, v, w = (np.array([e[k] for e in edges], dtype=dt)
                   for k, dt in enumerate((np.int64, np.int64, np.float64)))
        g = WeightedGraph.from_arrays(n, u, v, w)
        assert g.indptr.dtype == g.nbr.dtype == np.int64
        assert (g.n, g.indptr.tolist(), g.nbr.tolist(), g.wt.tolist()) == _reference_csr(n, edges)


def _reference_load(text):
    """The line-by-line edge-list reader, as load_graph ran before it read
    whole columns with numpy: the reference for accepted graphs and error
    messages."""
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u}-{v} (laziness is implicit)")
        if not np.isfinite(w):
            raise ParseError(f"line {lineno}: non-finite weight {w}")
        if not (w > 0.0):
            raise ParseError(f"line {lineno}: non-positive weight {w}")
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    return WeightedGraph.from_edges(max_id + 1, edges)


def _outcome(load, text):
    try:
        g = load(text)
    except (ParseError, ResourceError) as exc:
        return type(exc).__name__, str(exc)
    return g.n, g.indptr.tolist(), g.nbr.tolist(), g.wt.tolist()


def _unwarned(outcome, *args):
    """outcome(*args) under a filter that lets every warning pass, as the
    default filters let a DeprecationWarning pass; none may escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(*args)
    assert caught == []
    return got


_PLAIN_ID = st.integers(0, 43).map(lambda k: str(k) if k <= 40 else ["+2", "007", "-0"][k - 41])
_PLAIN_WEIGHT = st.one_of(st.floats(1e-3, 1e3).map(repr),
                          st.sampled_from(["1", ".5", "5.", "+1e3", "2E-1", "3"]))
_ODD_FIELD = st.one_of(
    st.text("0123456789-+_.e", min_size=1, max_size=6),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1e-400", "0", "-1", "\u0663",
                     str(2**20 + 5), str(10**9), str(2**63 - 1), str(2**63),
                     str(-(2**63) - 1), str(10**30)]),
)
_PLAIN_SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
_ODD_SPACE = st.sampled_from(["\x0c", "\x1c", "\x85", "\u2028", "\xa0"])
_PLAIN_BREAK = st.sampled_from(["\n", "\r\n"])
_ODD_BREAK = st.sampled_from(["\r", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def _edge_list_texts(draw):
    """Edge lists, half of them plain; the others mix in odd fields, spaces,
    line breaks and widths, each at its own rate."""
    noisy = draw(st.booleans())

    def pick(plain, odd):
        rate = draw(st.sampled_from([0.0, 0.1, 0.5])) if noisy else 0.0
        return lambda: draw(odd if draw(st.floats(0, 1)) < rate else plain)

    ident, weight = pick(_PLAIN_ID, _ODD_FIELD), pick(_PLAIN_WEIGHT, _ODD_FIELD)
    space, brk = pick(_PLAIN_SPACE, _ODD_SPACE), pick(_PLAIN_BREAK, _ODD_BREAK)
    width = pick(st.just(draw(st.sampled_from([2, 3]))), st.sampled_from([1, 2, 3, 4]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["edge"] * 4 + ["blank", "comment"]))
        line = draw(st.sampled_from(["", "", " ", "\t"]))
        if kind == "edge":
            fields = [ident() if k < 2 else weight() for k in range(width())]
            line += space().join(fields)
            if draw(st.booleans()):
                line += space()
        if kind == "comment" or draw(st.integers(0, 4)) == 0:
            line += "#" + weight()
        lines.append(line + brk())
    return "".join(lines)


class TestReaderMatchesLineReader:
    @settings(max_examples=400, deadline=None)
    @given(_edge_list_texts())
    @example("0 1 2\n1 2\n")
    @example("1_0 2 3\n")
    @example("0 1 1_0.5\n")
    @example("\u0663 1 2\n")
    @example("0 1\x0c1 2\n")
    @example("0 1 2\u2028\n")
    @example("0\xa01 2\n")
    @example("0 1\r1 2\r")
    @example("0 1\r\n-1 2\r\n")
    @example("0 1 2\n1 1 2\n")
    @example("0 1 nan\n")
    @example("0 1 0\n")
    @example("0 1 1e400\n")
    @example("0 9223372036854775808\n")
    @example("0 1\n1.0 2\n")
    @example("1e3 2\n")
    def test_same_graph_or_same_error(self, text):
        got = _unwarned(_outcome, lambda t: load_graph(io.StringIO(t)), text)
        assert got == _outcome(_reference_load, text)


def _reference_read_partition(text, n):
    """The line-by-line partition reader, as read_partition ran before it
    read whole columns with numpy: the reference for accepted sets and error
    messages."""
    left = set()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("L", "R"):
            raise ParseError(f"line {lineno}: expected 'vertex L|R'")
        try:
            v = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if n is not None and not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range with n={n}")
        if v in seen:
            raise ParseError(f"line {lineno}: vertex {v} listed twice")
        seen.add(v)
        if parts[1] == "L":
            left.add(v)
    return frozenset(left)


def _partition_outcome(read, text):
    try:
        return sorted(read(text))
    except ParseError as exc:
        return str(exc)


_PLAIN_VERTEX = st.integers(0, 14).map(lambda k: str(k) if k <= 11 else ["+5", "007", "-0"][k - 12])
_ODD_PART_FIELD = st.one_of(
    st.text("0123456789-+_.LR", min_size=1, max_size=4),
    st.sampled_from(["LL", "RL", "l", "-1", "99", "1.0", "#", "\u0663", "L\x00",
                     str(2**63), str(-(2**63) - 1)]),
)


@st.composite
def _partition_texts(draw):
    """Partition files, half of them plain; the others mix in odd fields,
    spaces, line breaks and widths, each at its own rate."""
    noisy = draw(st.booleans())

    def pick(plain, odd):
        rate = draw(st.sampled_from([0.0, 0.1, 0.5])) if noisy else 0.0
        return lambda: draw(odd if draw(st.floats(0, 1)) < rate else plain)

    ident, side = pick(_PLAIN_VERTEX, _ODD_PART_FIELD), pick(st.sampled_from("LR"), _ODD_PART_FIELD)
    space, brk = pick(_PLAIN_SPACE, _ODD_SPACE), pick(_PLAIN_BREAK, _ODD_BREAK)
    width = pick(st.just(2), st.sampled_from([1, 3]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        line = draw(st.sampled_from(["", "", " ", "\t"]))
        if draw(st.integers(0, 5)):
            line += space().join(ident() if k == 0 else side() for k in range(width()))
            if draw(st.booleans()):
                line += space()
        lines.append(line + brk())
    return "".join(lines)


class TestPartitionReaderMatchesLineReader:
    @settings(max_examples=400, deadline=None)
    @given(_partition_texts(), st.one_of(st.none(), st.integers(0, 14)))
    @example("0 LL\n", None)
    @example("0 L\n+5 R\n007 L\n", 8)
    @example("0 L\r1 R\x0c2 L\u2028", 3)
    @example("0 L\n1 R\n0 R\n", None)
    @example("0 L\n3 R\n", 3)
    @example("-1 L\n0 R\n", 3)
    @example("0 L R\n", None)
    @example(" \t\n", 2)
    @example("1.0 L\n", None)
    @example("0 L\n1.5 L\n", None)
    @example("1e3 L\n", None)
    @example("0 L\x00\n", None)
    def test_same_set_or_same_error(self, text, n):
        got = _unwarned(_partition_outcome, lambda t: read_partition(io.StringIO(t), n), text)
        assert got == _partition_outcome(lambda t: _reference_read_partition(t, n), text)

    @pytest.mark.parametrize("text", ["0 L\n1 R\n", "+5 L\r\n007 R\n\n", "  2 R \t\n0 L"])
    def test_plain_files_skip_the_line_reader(self, monkeypatch, text):
        expected = _reference_read_partition(text, 9)

        def refuse(*_):
            raise AssertionError("line reader used")

        monkeypatch.setattr(graph_module, "_read_partition_lines", refuse)
        assert read_partition(io.StringIO(text), 9) == expected


@pytest.mark.parametrize("read, text, error", [
    (load_graph, "0 1\n1.0 2\n", "line 2: invalid literal for int() with base 10: '1.0'"),
    (read_partition, "0 L\n1e3 L\n", "line 2: invalid literal for int() with base 10: '1e3'"),
])
def test_loadtxt_warning_goes_to_the_line_reader(monkeypatch, read, text, error):
    # numpy 1.23 to 1.26 read an integer field such as "1.0" through float,
    # with only a DeprecationWarning.
    loadtxt = np.loadtxt

    def lenient(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt([line.replace("1.0", "1").replace("1e3", "1000") for line in lines],
                       **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)
    with pytest.raises(ParseError) as info:
        _unwarned(read, io.StringIO(text))
    assert str(info.value) == error


class TestInduced:
    def test_matches_from_edges_of_induced_edge_list(self):
        rng = np.random.default_rng(13)
        for weighted in (False, True):
            for _ in range(20):
                g = random_graph(15, 0.35, rng, weighted=weighted)
                keep = rng.permutation(g.n)[: int(rng.integers(0, g.n + 1))]
                sub, ids = g.induced(keep)
                pos = {int(old): new for new, old in enumerate(ids)}
                edges = [(pos[u], pos[v], w) for u, v, w in _edges(g)
                         if u in pos and v in pos]
                assert np.array_equal(ids, np.unique(keep))
                assert sub == WeightedGraph.from_edges(ids.size, edges)


class TestCutMetrics:
    def test_triangle_example(self, triangle):
        m = cut_metrics(triangle, {0}, {1})
        assert (m.good, m.cross, m.inc) == (1.0, 2.0, 3.0)
        assert m.cut == 2.0

    def test_empty_sets(self, triangle):
        m = cut_metrics(triangle, set(), set())
        assert (m.good, m.cross, m.inc, m.cut) == (0.0, 0.0, 0.0, 0.0)

    def test_four_cycle_opposite(self):
        g = cycle_graph(4)
        m = cut_metrics(g, {0}, {2})
        assert (m.good, m.cross, m.inc) == (0.0, 4.0, 4.0)
        assert m.cut == 2.0

    def test_overlap_rejected(self, triangle):
        with pytest.raises(InvalidInputError):
            cut_metrics(triangle, {0, 1}, {1, 2})

    def test_identity_cut_le_inc(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_graph(12, 0.4, rng, weighted=True)
            verts = list(rng.permutation(g.n))
            a = set(verts[:4])
            b = set(verts[4:7])
            m = cut_metrics(g, a, b)
            assert m.cut == pytest.approx(m.good + m.cross / 2.0)
            assert m.cut <= m.inc + 1e-12
            assert m.inc >= m.good + m.cross - 1e-12
            assert m.inc <= g.edge_weight_total() + 1e-12


class TestConductance:
    def test_k4_single_vertex(self):
        assert conductance(complete_graph(4), {0}) == pytest.approx(0.5)

    def test_single_edge(self, single_edge):
        assert conductance(single_edge, {0}) == pytest.approx(0.5)

    def test_disconnected_triangles(self):
        g = make_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                           (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        assert conductance(g, {0, 1, 2}) == 0.0

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(10, 0.5, rng, weighted=True)
            k = int(rng.integers(1, g.n))
            s = set(rng.permutation(g.n)[:k].tolist())
            c = conductance(g, s)
            assert 0.0 <= c <= 1.0
            comp = set(range(g.n)) - s
            if g.degrees[list(s)].sum() == g.degrees[list(comp)].sum():
                assert c == pytest.approx(conductance(g, comp))

    def test_repeated_ids_count_once(self):
        path = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        assert conductance(path, [0, 1, 1]) == conductance(path, [0, 1])
        assert conductance(path, [0, 1, 1]) == pytest.approx(1.0 / 6.0)

    def test_rejects_empty_and_full(self, triangle):
        with pytest.raises(InvalidInputError):
            conductance(triangle, set())
        with pytest.raises(InvalidInputError):
            conductance(triangle, {0, 1, 2})


class TestCutValue:
    def test_single_edge(self, single_edge):
        assert cut_value(single_edge, {0}) == 1.0

    def test_triangle(self, triangle):
        assert cut_value(triangle, {0}) == pytest.approx(2.0 / 3.0)

    def test_empty_left(self, triangle):
        assert cut_value(triangle, set()) == 0.0

    def test_complement_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(11, 0.4, rng, weighted=True)
            k = int(rng.integers(0, g.n + 1))
            left = set(rng.permutation(g.n)[:k].tolist())
            right = set(range(g.n)) - left
            assert cut_value(g, left) == pytest.approx(cut_value(g, right))


class TestSampling:
    def test_star_center_frequency(self):
        g = make_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        rng = np.random.default_rng(123)
        hits = sum(sample_vertex_by_degree(g, rng) == 0 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_regular_uniform(self):
        g = cycle_graph(5)
        rng = np.random.default_rng(9)
        counts = np.zeros(5)
        for _ in range(50_000)            :
            counts[sample_vertex_by_degree(g, rng)] += 1
        assert np.all(np.abs(counts / 50_000 - 0.2) < 0.01)

    def test_empty_graph_rejected(self):
        g = WeightedGraph.from_edges(3, [])
        with pytest.raises(InvalidInputError):
            sample_vertex_by_degree(g, np.random.default_rng(0))


class TestPartitionIO:
    def test_round_trip(self):
        buf = io.StringIO()
        write_partition({0, 2}, 4, buf)
        assert buf.getvalue() == "0 L\n1 R\n2 L\n3 R\n"
        assert read_partition(io.StringIO(buf.getvalue())) == frozenset({0, 2})

    def test_one_write(self, tmp_path):
        calls = []

        class Sink:
            def write(self, text):
                calls.append(text)

        write_partition(frozenset({1, 7}), 3, Sink())  # 7 is not below n
        assert calls == ["0 R\n1 L\n2 R\n"]
        path = tmp_path / "p.txt"
        write_partition([1], 3, str(path))
        assert path.read_text() == calls[0]

    @pytest.mark.parametrize("text", ["0 L\n3 R\n", "-1 L\n0 R\n"])
    def test_ids_outside_n_rejected(self, text):
        with pytest.raises(ParseError, match="line [12]: vertex -?[13] out of range"):
            read_partition(io.StringIO(text), 3)
        read_partition(io.StringIO(text))


class TestTripartition:
    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_graph(14, 0.35, rng, weighted=True)
            part = Tripartition(g)
            verts = rng.permutation(g.n)[: int(rng.integers(2, g.n))]
            sides = np.where(rng.random(verts.size) < 0.5, EVEN, ODD)
            a, b = sorted(rng.integers(0, verts.size + 1, size=2))
            for v, side in zip(verts[:a], sides[:a]):
                part.classify(int(v), int(side))
            part.classify(verts[a:b], sides[a:b])  # one side per vertex
            part.classify(verts[b:], EVEN)  # one side for all
            ref = cut_metrics(g, set(map(int, part.even_vertices())),
                              set(map(int, part.odd_vertices())))
            assert part.good == pytest.approx(ref.good)
            assert part.cross == pytest.approx(ref.cross)
            assert part.inc == pytest.approx(ref.inc)
            assert part.classified_count == verts.size
            assert part.classified_volume == pytest.approx(g.degrees[verts].sum())

    def test_no_reclassification(self, triangle):
        part = Tripartition(triangle)
        part.classify(0, EVEN)
        with pytest.raises(InvalidInputError):
            part.classify(0, ODD)
        with pytest.raises(InvalidInputError, match="vertex 0 already"):
            part.classify(np.array([1, 0]), ODD)

    def test_array_form_validation(self, triangle):
        part = Tripartition(triangle)
        with pytest.raises(InvalidInputError, match="vertex 1 classified twice"):
            part.classify(np.array([1, 2, 1]), EVEN)
        with pytest.raises(InvalidInputError, match="EVEN or ODD, got 0"):
            part.classify(np.array([1, 2]), np.array([EVEN, 0]))
        assert part.classified_count == 0 and not part.side.any()
        part.classify(np.array([], dtype=np.int64), EVEN)
        assert part.classified_count == 0


def _metrics_by_edge(g, label):
    """good/cross/inc of a labelling, one undirected edge at a time."""
    good = cross = inc = 0.0
    for u, v, w in _edges(g):
        a, b = label[u] != 0, label[v] != 0
        if a or b:
            inc += w
        if a != b:
            cross += w
        if a and b and label[u] != label[v]:
            good += w
    return good, cross, inc


@st.composite
def _sweeps(draw):
    n = draw(st.integers(2, 12))
    integer = draw(st.booleans())
    weight = (st.integers(1, 4).map(float) if integer
              else st.floats(0.01, 5.0, allow_nan=False))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = [(u, v, draw(weight)) for u, v in chosen]
    g = WeightedGraph.from_edges(n, edges)
    label = np.array(draw(st.lists(st.sampled_from([0, 0, EVEN, ODD]),
                                   min_size=n, max_size=n)), dtype=np.int8)
    free = [v for v in range(n) if label[v] == 0]
    order = draw(st.permutations(free))[: draw(st.integers(0, len(free)))]
    sides = draw(st.lists(st.sampled_from([EVEN, ODD]),
                          min_size=len(order), max_size=len(order)))
    return g, integer, label, np.array(order, dtype=np.int64), np.array(sides)


class TestPrefixCutMetrics:
    @settings(max_examples=300, deadline=None)
    @given(_sweeps())
    def test_matches_per_edge_reference(self, case):
        g, integer, label, order, sides = case
        before = label.copy()
        got = prefix_cut_metrics(g, order, sides, label)
        assert np.array_equal(label, before)  # the labelling is not modified
        base = np.array(_metrics_by_edge(g, label))
        step = label.copy()
        for k, (v, side) in enumerate(zip(order, sides)):
            step[v] = side
            want = np.array(_metrics_by_edge(g, step)) - base
            for arr, ref in zip(got, want):
                if integer:
                    assert arr[k] == ref
                else:
                    assert arr[k] == pytest.approx(ref, rel=0.0, abs=1e-9)

    def test_unlabelled_default_and_scalar_side(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 4), (0, 3, 8)])
        good, cross, inc = prefix_cut_metrics(g, [1, 3], ODD)
        assert list(good) == [0.0, 0.0]
        assert list(cross) == [3.0, 15.0]
        assert list(inc) == [3.0, 15.0]
        # The same prefixes as a sweep: key descending, ties by smaller id,
        # cut at size, with the prefix volumes.
        order, good, cross, inc, vol = sweep(g, [0.5, 2.0, 0.5, 2.0], ODD, size=3)
        assert list(order) == [1, 3, 0]
        assert list(good) == [0.0, 0.0, 0.0]
        assert list(cross) == [3.0, 15.0, 6.0]
        assert list(inc) == [3.0, 15.0, 15.0]
        assert list(vol) == [3.0, 15.0, 24.0]


class TestOrient:
    @staticmethod
    def labelled(side):
        return lambda nbr: side[nbr] != UNCLASSIFIED

    def test_tie_keeps_sides(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1)])
        side = np.array([EVEN, 0, ODD], dtype=np.int8)
        sides = np.array([EVEN], dtype=np.int8)
        assert list(orient(g, [1], sides, side, self.labelled(side))) == [EVEN]

    def test_flips_when_the_flip_cuts_more(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)])
        side = np.array([EVEN, 0, 0, ODD], dtype=np.int8)
        sides = np.array([EVEN, ODD], dtype=np.int8)
        # straight cuts 0 against the placed 0 and 3, flipped cuts 2
        assert list(orient(g, [1, 2], sides, side, self.labelled(side))) == [ODD, EVEN]
        side[3] = EVEN  # now 1 either way: a tie
        assert list(orient(g, [1, 2], sides, side, self.labelled(side))) == [EVEN, ODD]

    def test_unplaced_neighbours_do_not_count(self):
        g = make_graph(3, [(0, 1, 5), (1, 2, 1)])
        side = np.array([EVEN, 0, ODD], dtype=np.int8)
        sides = np.array([EVEN], dtype=np.int8)
        assert list(orient(g, [1], sides, side, self.labelled(side))) == [ODD]
        # vertex 0 keeps its label but is not placed: only the edge to 2 counts
        assert list(orient(g, [1], sides, side, lambda nbr: nbr == 2)) == [EVEN]

    def test_reads_only_the_group_rows(self):
        n = 1 << 20
        g = WeightedGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))
        side = np.zeros(n, dtype=np.int8)
        side[[0, 4]] = EVEN
        tracemalloc.start()
        try:
            got = orient(g, np.array([1, 3]), np.array([EVEN, EVEN], dtype=np.int8),
                         side, self.labelled(side))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(got) == [ODD, ODD]
        assert peak < 64 * 2**10  # an n-sized array would be 1 MiB or more


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(2, 12))
    weight = st.one_of(st.integers(1, 4).map(float),
                       st.floats(1e-6, 1e6, allow_nan=False),
                       st.sampled_from([0.1, 0.2, 0.3]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return WeightedGraph.from_edges(n, [(u, v, draw(weight)) for u, v in chosen])


class TestAliasTable:
    @settings(max_examples=300, deadline=None)
    @given(_weighted_graphs())
    def test_rows_imply_edge_probabilities(self, g):
        cnt, prob, alias = g.alias_table()
        assert np.array_equal(cnt, np.diff(g.indptr))
        if prob is None:  # every entry keeps its own neighbour
            prob, alias = np.ones(g.nbr.size), g.nbr
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        for v in range(g.n):
            lo, hi = g.indptr[v], g.indptr[v + 1]
            implied = np.zeros(g.n)
            np.add.at(implied, g.nbr[lo:hi], prob[lo:hi] / cnt[v])
            np.add.at(implied, alias[lo:hi], (1.0 - prob[lo:hi]) / cnt[v])
            want = np.zeros(g.n)
            want[g.nbr[lo:hi]] = g.wt[lo:hi] / g.degrees[v]
            assert np.abs(implied - want).max() <= 1e-12

    def test_equal_weights_need_no_alias(self):
        g = complete_graph(5)
        assert g.alias_table()[1:] == (None, None)
        assert g.alias_table() is g.alias_table()
        # Rows 0 and 2 are uneven; the equal-weight rows 1 and 3 keep every entry.
        g = make_graph(4, [(0, 1, 1), (0, 2, 3), (1, 2, 1), (2, 3, 1)])
        _, prob, alias = g.alias_table()
        for v in (1, 3):
            lo, hi = g.indptr[v], g.indptr[v + 1]
            assert np.all(prob[lo:hi] == 1.0)
            assert np.array_equal(alias[lo:hi], g.nbr[lo:hi])
