import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwcut.errors import InvalidInputError, ParseError
from rwcut.graph import (
    EVEN,
    ODD,
    Tripartition,
    WeightedGraph,
    conductance,
    cut_metrics,
    cut_value,
    dumps_graph,
    load_graph,
    prefix_cut_metrics,
    read_partition,
    sample_vertex_by_degree,
    write_partition,
)

from conftest import complete_graph, cycle_graph, make_graph, random_graph


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
        assert g.max_degree == 2.0

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
        g2 = load_graph(io.StringIO(dumps_graph(g)))
        assert g == g2

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


class TestInduced:
    def test_matches_from_edges_of_induced_edge_list(self):
        rng = np.random.default_rng(13)
        for weighted in (False, True):
            for _ in range(20):
                g = random_graph(15, 0.35, rng, weighted=weighted)
                keep = rng.permutation(g.n)[: int(rng.integers(0, g.n + 1))]
                sub, ids = g.induced(keep)
                pos = {int(old): new for new, old in enumerate(ids)}
                edges = [(pos[u], pos[v], w) for u, v, w in g.edges()
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
            if g.volume(s) == g.volume(comp):
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
            assert part.classified_volume == pytest.approx(g.volume(verts))

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
    for u, v, w in g.edges():
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
