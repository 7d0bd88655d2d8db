"""Weighted graphs, loop enumeration, and the loop-span algebra."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import element_oracle as oracle
from planaralg import (
    DegreeMismatchError,
    EigenvectorViolationError,
    InclusionData,
    Loop,
    NotMarkovError,
    PlanarElement,
    RadicalScalar,
    ValidationError,
    analyze,
    build_graph,
    close_group,
    expect,
    fixed_dims_report,
    fixed_space_basis,
    loop_space_dim,
    verify_temperley_lieb,
)
from planaralg import graph as graph_module, radical
from planaralg.markov import canonical_trace_weights, markov_index
from planaralg.radical import sqrt_of_int
from conftest import CORPUS, MARKOV_CORPUS, corpus_entry, generated_markov_inclusions
from test_elements import edges_only

COEFF_POOL = (
    RadicalScalar.one(),
    RadicalScalar.from_rational(Fraction(-1)),
    RadicalScalar.from_rational(Fraction(1, 2)),
    sqrt_of_int(2),
    RadicalScalar.monomial(Fraction(-1, 3), {2: 1}),
)


def scaled_unions() -> list[InclusionData]:
    """Disjoint unions of two generated inclusions of one index, the first
    scaled by 7 and the second by 11: components with their own scales."""
    by_index: dict[int, list[InclusionData]] = {}
    for inc in generated_markov_inclusions():
        by_index.setdefault(markov_index(inc), []).append(inc)
    unions = []
    for same in by_index.values():
        for x, y in zip(same[::2], same[1::2]):
            m = [list(row) + [0] * y.cols for row in x.m] + [[0] * x.cols + list(row) for row in y.m]
            unions.append(InclusionData([7 * n for n in x.a] + [11 * n for n in y.a], m))
    return unions


def random_element(rng: random.Random, loops, count=3) -> PlanarElement:
    degree = loops[0].degree
    terms = {}
    for _ in range(rng.randint(1, count)):
        terms[rng.choice(loops)] = rng.choice(COEFF_POOL)
    return PlanarElement(degree, terms)


class TestLoop:
    def test_rows(self):
        loop = Loop(0, (7, 8, 9, 10))
        assert loop.degree == 2
        assert loop.top() == (7, 8)
        assert loop.bottom() == (10, 9)

    def test_from_paths_roundtrip(self):
        loop = Loop.from_paths(1, (3, 4), (5, 6))
        assert loop.edges == (3, 4, 6, 5)
        assert loop.top() == (3, 4)
        assert loop.bottom() == (5, 6)

    def test_rejects_odd_length(self):
        with pytest.raises(ValidationError):
            Loop(0, (1, 2, 3))

    def test_from_paths_rejects_unequal(self):
        with pytest.raises(ValidationError):
            Loop.from_paths(0, (1,), (2, 3))

    def test_canonical_order(self):
        loops = [Loop(1, (0, 0)), Loop(0, (1, 1)), Loop(0, (0, 0))]
        assert sorted(loops) == [Loop(0, (0, 0)), Loop(0, (1, 1)), Loop(1, (0, 0))]

    def test_order_hash_and_equality_follow_base_then_edges(self):
        rng = random.Random(2000)
        loops = [
            Loop(rng.randrange(3), tuple(rng.randrange(4) for _ in range(2 * rng.randrange(4))))
            for _ in range(300)
        ]
        assert sorted(loops) == sorted(loops, key=lambda l: (l.base, l.edges))
        for x, y in zip(loops, loops[1:] + loops[:1]):
            same = (x.base, x.edges) == (y.base, y.edges)
            assert (x == y) is same
            assert (x < y) is ((x.base, x.edges) < (y.base, y.edges))
            rebuilt = Loop(base=x.base, edges=tuple(list(x.edges)))
            assert rebuilt == x and hash(rebuilt) == hash(x)
        assert len(set(loops)) == len({(l.base, l.edges) for l in loops})

    def test_repr(self):
        assert repr(Loop(2, (0, 1))) == "Loop(base=2, edges=(0, 1))"
        assert repr(Loop.from_paths(0, (), ())) == "Loop(base=0, edges=())"

    def test_rejects_odd_length_by_keyword(self):
        with pytest.raises(ValidationError):
            Loop(base=0, edges=(4,))

    def test_degree_zero_rows(self):
        point = Loop(3, ())
        assert point.degree == 0
        assert point.top() == ()
        assert point.bottom() == ()
        assert Loop.from_paths(3, (), ()) == point

    def test_immutable(self):
        loop = Loop(0, (0, 0))
        with pytest.raises(AttributeError):
            loop.base = 1
        with pytest.raises(AttributeError):
            loop.edges = ()
        with pytest.raises(AttributeError):
            loop.note = "x"
        assert loop == Loop(0, (0, 0))


class TestGraphConstruction:
    def test_rejects_non_markov(self):
        with pytest.raises(NotMarkovError):
            build_graph(corpus_entry("skew-C2-in-M2xC").inclusion())

    def test_two_point_weights(self, graphs):
        g = graphs("C-in-C2")
        assert [str(w) for w in g.weights_a] == ["1"]
        assert [str(w) for w in g.weights_b] == ["1/2 * 2^(2/4)"] * 2
        assert str(g.gamma) == "1 * 2^(2/4)"
        assert g.r == 2

    def test_full_matrix_weights(self, graphs):
        g = graphs("C-in-M2")
        assert [str(w) for w in g.weights_a] == ["1"]
        assert [str(w) for w in g.weights_b] == ["1"]
        assert g.gamma == 2

    def test_mixed_weights(self, graphs):
        g = graphs("C-in-C2xM2")
        assert str(g.gamma) == "1 * 2^(2/4) * 3^(2/4)"
        inv_sqrt6 = sqrt_of_int(6).invert()
        assert g.weights_b == (inv_sqrt6, inv_sqrt6, 2 * inv_sqrt6)

    def test_weights_are_block_dimensions_over_root_of_total(self):
        # The graph takes each weight as the root of the Markov trace weight
        # a_i^2 / dim A; it equals a_i times the inverse root of dim A, the
        # defining form, and the point at lower vertex i weighs a_i^2 / dim A,
        # on the corpus and the 300 generated inclusions, and on scaled
        # copies of them, whose weights do not change.
        for inc in [entry.inclusion() for entry in MARKOV_CORPUS] + generated_markov_inclusions():
            g = build_graph(inc)
            for side, weights in ((inc.a, g.weights_a), (inc.b, g.weights_b)):
                inv_root = sqrt_of_int(side.total_dim).invert()
                assert weights == tuple(RadicalScalar.from_rational(n) * inv_root for n in side)
            assert [g.point_weight(i) for i in range(g.num_a)] == canonical_trace_weights(inc.a)
            scaled = build_graph(InclusionData([7 * n for n in inc.a], inc.m))
            assert (scaled.weights_a, scaled.weights_b) == (g.weights_a, g.weights_b)

    def test_edges_row_major_with_parallel_copies(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        assert [(e.id, e.src, e.dst) for e in g.edges] == [
            (0, 0, 0),
            (1, 0, 0),
            (2, 1, 1),
            (3, 1, 1),
        ]
        assert g.edges_up(0) == (0, 1)
        assert g.step(1).attach[1] == (2, 3)
        assert [e.id for e in g.edges if (e.src, e.dst) == (1, 1)] == [2, 3]
        assert [e.id for e in g.edges if (e.src, e.dst) == (0, 1)] == []

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_eigenvector_identity_holds_exactly(self, graphs, entry):
        g = graphs(entry.name)
        for i in range(g.num_a):
            total = RadicalScalar.zero()
            for eid in g.edges_up(i):
                total = total + g.weights_b[g.edge(eid).dst]
            assert total == g.gamma * g.weights_a[i]
        for j in range(g.num_b):
            total = RadicalScalar.zero()
            for eid in g.step(1).attach[j]:
                total = total + g.weights_a[g.edge(eid).src]
            assert total == g.gamma * g.weights_b[j]

    def test_spin_sum_check_fires_under_a_wrong_index(self, monkeypatch):
        # Under the index 2r each squared spin b_j / (a_i sqrt(2r)) is off by
        # sqrt(2), and the squared spins out of a vertex sum to sqrt(r / 2),
        # not to the gamma sqrt(2r) of that index.
        monkeypatch.setattr(graph_module, "markov_index", lambda inc: 2 * markov_index(inc))
        for entry in MARKOV_CORPUS:
            with pytest.raises(EigenvectorViolationError, match="lower vertex 0: squared spins sum to"):
                build_graph(entry.inclusion())

    def test_builds_without_factoring_a_total_dimension(self, monkeypatch):
        # The graph factors r and the ratios b_j / a_i, never dim A or dim B.
        # On these disconnected graphs dim A = a_0^2 + a_1^2 is a product of
        # a 17- and an 18-digit prime (first and third) or a prime above the
        # Miller-Rabin bound (second): with every rough factorization made to
        # raise, the graph, its Temperley-Lieb relations and the trivial
        # group's dimensions still come out, and only the vertex weights,
        # which no operation reads, need dim A's factors.
        class Factored(Exception):
            pass

        def refuse(n, budget):
            raise Factored(n)

        monkeypatch.setattr(radical, "_factor_rough", refuse)
        found, unprovable = [2005404244037659, 153140607935796386], [1080733131607, 1679200834282]
        for a, m in ((found, [[1, 0], [0, 1]]), (unprovable, [[1, 0], [0, 1]]), (found, [[2, 0], [0, 2]])):
            inc = InclusionData(a, m)
            g = build_graph(inc)
            assert all(check.passed for check in verify_temperley_lieb(g, 1))
            assert fixed_dims_report(close_group(g, []), 6) == list(itertools.islice(oracle.loop_space_dims(inc), 7))
            with pytest.raises(Factored):
                g.weights_a


class TestSpin:
    def test_two_point_spins(self, graphs):
        g = graphs("C-in-C2")
        up = g.spin_factor(0, "up")
        assert str(up) == "1/2 * 2^(3/4)"
        assert float(up) == pytest.approx(2 ** (-1 / 4), rel=1e-15)
        assert str(g.spin_factor(0, "down")) == "1 * 2^(1/4)"

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_spin_pairs_cancel(self, graphs, entry):
        g = graphs(entry.name)
        for e in g.edges:
            up = g.spin_factor(e.id, "up")
            down = g.spin_factor(e.id, "down")
            assert up * down == 1
            assert g.step(0).spin_sq[e.id] == up * up

    def test_squared_spins_are_weight_ratios(self):
        # The graph forms each squared spin as b_j / (a_i gamma); it equals
        # the ratio of vertex weights (b_j / sqrt(dim B)) / (a_i / sqrt(dim A))
        # on the corpus, the 300 generated inclusions and disjoint unions of
        # two of them whose components are scaled by 7 and by 11.
        unions = scaled_unions()
        assert len(unions) == 147
        for inc in [entry.inclusion() for entry in MARKOV_CORPUS] + generated_markov_inclusions() + unions:
            g = build_graph(inc)
            weights_a, weights_b = g.weights_a, g.weights_b
            for e in g.edges:
                ratio = weights_b[e.dst] * weights_a[e.src].invert()
                assert g.step(0).spin_sq[e.id] == ratio
                assert g.step(1).spin_sq[e.id] == ratio.invert()

    def test_parallel_edges_share_their_spins(self, monkeypatch):
        # Work count: the construction takes one square root per (lower,
        # upper) pair with an edge, besides gamma's: 2 on a=[1], m=[[1000]],
        # where one per edge took 1,003.
        # The parallel edges share one value of each spin.
        calls = Counter()
        real = RadicalScalar.sqrt

        def counting(self):
            calls["sqrt"] += 1
            return real(self)

        monkeypatch.setattr(RadicalScalar, "sqrt", counting)
        g = build_graph(InclusionData([1], [[1000]]))
        assert calls == {"sqrt": len({(e.src, e.dst) for e in g.edges}) + 1} == {"sqrt": 2}
        for table in (*g.step(0)[2:], *g.step(1)[2:]):
            assert len(table) == 1000 and len(set(map(id, table))) == 1
        assert g.spin_factor(999, "up") == g.step(1).spin_sq[999] == 1

    def test_rejects_bad_direction(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError):
            g.spin_factor(0, "sideways")

    def test_step_table_is_the_up_down_alternation(self, graphs):
        # The step at an even position goes up, at an odd one down, and it
        # holds the same edges, ends and spins as the named directions.
        for entry in MARKOV_CORPUS:
            g = graphs(entry.name)
            for pos in range(4):
                step = g.step(pos)
                assert step is g.step(pos + 2)
                up = pos % 2 == 0
                direction = "up" if up else "down"
                vertices = g.num_a if up else g.num_b
                assert step.attach == tuple(
                    tuple(e.id for e in g.edges if (e.src if up else e.dst) == v) for v in range(vertices)
                )
                assert step.end == tuple(e.dst if up else e.src for e in g.edges)
                assert step.spin == tuple(g.spin_factor(e.id, direction) for e in g.edges)
                assert step.spin_sq == tuple(s * s for s in step.spin)

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_point_weights_sum_to_one(self, graphs, entry):
        g = graphs(entry.name)
        total = RadicalScalar.zero()
        for i in range(g.num_a):
            total = total + g.point_weight(i)
        assert total == 1

    def test_point_weight_values(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        assert g.point_weight(0) == Fraction(1, 2)
        assert g.point_weight(1) == Fraction(1, 2)


def recursive_paths(g, base: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Reference enumerator: depth-first, each path with the vertex it ends at."""
    out: list[tuple[tuple[int, ...], int]] = []
    path: list[int] = []

    def extend(pos: int, vertex: int) -> None:
        if pos == k:
            out.append((tuple(path), vertex))
            return
        up = pos % 2 == 0
        for edge in g.edges:
            if (edge.src if up else edge.dst) == vertex:
                path.append(edge.id)
                extend(pos + 1, edge.dst if up else edge.src)
                path.pop()

    extend(0, base)
    return out


class TestPathBuilder:
    """`rows` and `paths_from` against the depth-first reference and
    the dense path counts of the oracle, on every corpus graph;
    inclusions that are not Markov contribute their edges only."""

    @staticmethod
    def graph(graphs, entry):
        return graphs(entry.name) if entry.markov else edges_only(entry.name)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_matches_recursive_enumerator(self, graphs, entry):
        g = self.graph(graphs, entry)
        for k in range(7):
            walks = {b: recursive_paths(g, b, k) for b in range(g.num_a)}
            rows = g.rows(k)
            assert oracle.path_ids(g, k) == [(b, *p) for b, found in walks.items() for p, _ in found]
            assert rows.where == [(b, v) for b, found in walks.items() for _, v in found]
            for base, found in walks.items():
                assert g.paths_from(base, k) == [p for p, _ in found]
                assert all(oracle.path_end(g, base, p) == v for p, v in found)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_counts_per_base_and_endpoint(self, graphs, entry):
        g, inc = self.graph(graphs, entry), entry.inclusion()
        for k, counts in zip(range(7), oracle.path_counts(inc)):
            width = g.num_b if k % 2 else g.num_a
            for base in range(g.num_a):
                ends = Counter(oracle.path_end(g, base, p) for p in g.paths_from(base, k))
                assert counts[base] == [ends[v] for v in range(width)]
            assert sum(n * n for row in counts for n in row) == loop_space_dim(inc, k)

    def test_rejects_bad_base_and_length(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError, match="no lower vertex 1"):
            g.paths_from(1, 2)
        for read in (g.rows, lambda k: g.paths_from(0, k), lambda k: g.cup_cap(k, RadicalScalar.one())):
            with pytest.raises(ValidationError, match="path length must be nonnegative"):
                read(-1)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_reads_leave_the_graph_as_built(self, name):
        # A graph holds only hashable values, all set in `__init__`, and no
        # read adds, replaces or grows one: each read walks its paths anew.
        # The vertex weights and the edge records are not among them; a read
        # forms them, the edges from the step tables.
        g = build_graph(corpus_entry(name).inclusion())
        built = dict(vars(g))
        hash(tuple(built.values()))
        assert not {"weights_a", "weights_b", "edges"} & built.keys()
        assert g.weights_a == g.weights_a and g.weights_a is not g.weights_a
        assert g.edges == g.edges and g.edges is not g.edges
        for read in (g.rows, lambda k: g.paths_from(0, k), g.enumerate_loops, g.unit):
            read(3)
        g.cup_cap(1, RadicalScalar.one())
        verify_temperley_lieb(g, 2)
        fixed_space_basis(close_group(g, []), 3)
        assert vars(g).keys() == built.keys()
        assert all(getattr(g, name) is value for name, value in built.items())
        hash(tuple(vars(g).values()))
        assert g.rows(3) == g.rows(3) and g.rows(3) is not g.rows(3)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_cup_cap_matches_the_oracle(self, graphs, name):
        # The oracle's Jones projection, bounce by bounce over loops, is the
        # cup-cap times 1/gamma; any other scale multiplies every coefficient.
        g = graphs(name)
        for k in range(4):
            projection = oracle.jones_projection(g, k).terms
            assert projection
            for scale in (RadicalScalar.one(), g.gamma.invert()):
                expected = {loop: c * g.gamma * scale for loop, c in projection.items()}
                assert g.cup_cap(k, scale) == PlanarElement(k + 2, expected)


class TestGeneratedCorpus:
    def test_loops_rows_and_fixed_dims(self):
        # On each inclusion: the loops are sorted and as many as the trace
        # formula counts, each class lists its ids by reversed path, and the
        # trivial group's fixed dimensions, closed walks of the fixed
        # subgraph's Gram matrix, equal the dense matrix count of loops.
        inclusions = generated_markov_inclusions()
        assert len(inclusions) == 300
        assert {analyze(inc).r for inc in inclusions} == {*range(1, 13), *range(15, 19), 24}
        for inc in inclusions:
            g = build_graph(inc)
            for k in range(4):
                loops = g.enumerate_loops(k)
                assert loops == sorted(loops) and len(loops) == loop_space_dim(inc, k)
                paths, classes = oracle.path_ids(g, k), g.rows(k).classes
                for ids in classes.values():
                    assert ids == sorted(ids, key=lambda r: paths[r][:0:-1])
            dims = list(itertools.islice(oracle.loop_space_dims(inc), 7))
            assert fixed_dims_report(close_group(g, []), 6) == dims


class TestPathsAndLoops:
    def test_paths_from(self, graphs):
        g = graphs("C-in-C2")
        assert g.paths_from(0, 0) == [()]
        assert g.paths_from(0, 1) == [(0,), (1,)]
        assert g.paths_from(0, 2) == [(0, 0), (1, 1)]

    def test_path_end_alternates(self, graphs):
        g = graphs("C-in-C2")
        assert oracle.path_end(g, 0, ()) == 0
        assert oracle.path_end(g, 0, (1,)) == 1  # upper vertex index
        assert oracle.path_end(g, 0, (1, 1)) == 0

    def test_two_point_degree_one_loops(self, graphs):
        g = graphs("C-in-C2")
        assert g.enumerate_loops(1) == [Loop(0, (0, 0)), Loop(0, (1, 1))]

    def test_parallel_edge_degree_one_loops(self, graphs):
        g = graphs("C-in-M2")
        assert g.enumerate_loops(1) == [
            Loop(0, (0, 0)),
            Loop(0, (0, 1)),
            Loop(0, (1, 0)),
            Loop(0, (1, 1)),
        ]

    def test_degree_zero_loops_are_points(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        assert g.enumerate_loops(0) == [Loop(0, ()), Loop(1, ())]
        assert g.point(1) == Loop(1, ())

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_loop_counts_match_trace_formula(self, graphs, entry):
        g = graphs(entry.name)
        inc = entry.inclusion()
        for k in range(4):
            loops = g.enumerate_loops(k)
            assert len(loops) == loop_space_dim(inc, k)
            assert len(set(loops)) == len(loops)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_enumeration_is_canonically_sorted(self, graphs, entry):
        # Strictly increasing, so sorted and without repeats; the loops of
        # C-in-M3 at degree 6 (531,441) are compared as they stream.
        g = TestPathBuilder.graph(graphs, entry)
        for k in range(7):
            loops = g.iter_loops(k)
            previous = next(loops)
            for loop in loops:
                assert previous < loop
                previous = loop

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_enumerated_loops_are_valid(self, graphs, entry):
        # Each loop's top and bottom rows are paths of the depth-first
        # reference out of its base, and they end at one vertex.
        g = graphs(entry.name)
        for k in range(3):
            walks = [dict(recursive_paths(g, b, k)) for b in range(g.num_a)]
            for loop in g.iter_loops(k):
                ends = walks[loop.base]
                assert loop.top() in ends and loop.bottom() in ends
                assert ends[loop.top()] == ends[loop.bottom()]

    def test_bad_walks_are_not_loops(self, graphs):
        g = graphs("C-in-C2")
        loops = set(g.iter_loops(1))
        assert Loop(0, (0, 1)) not in loops  # rows end at different tops
        assert Loop(1, (0, 0)) not in loops  # no such base
        assert Loop(0, (0, 5)) not in loops  # no such edge
        assert Loop(0, (-1, -1)) not in loops  # no such edge
        assert Loop(0, (len(g.edges), len(g.edges))) not in loops  # no such edge
        assert Loop(0, (1, 1)) in loops


class TestElementAlgebra:
    def test_zero_coefficients_dropped(self):
        loop = Loop(0, (0, 0))
        x = PlanarElement(1, {loop: RadicalScalar.zero()})
        assert x.is_zero()
        assert x == PlanarElement(1)

    def test_degree_guard(self):
        with pytest.raises(DegreeMismatchError):
            PlanarElement(2, {Loop(0, (0, 0)): RadicalScalar.one()})
        x = PlanarElement.basis(Loop(0, (0, 0)))
        y = PlanarElement.basis(Loop(0, (0, 0, 0, 0)))
        with pytest.raises(DegreeMismatchError):
            x + y
        with pytest.raises(DegreeMismatchError):
            x * y

    def test_add_sub_neg(self):
        a = PlanarElement.basis(Loop(0, (0, 0)))
        b = PlanarElement.basis(Loop(0, (1, 1)))
        assert (a + b) - b == a
        assert a + (-a) == PlanarElement(1)
        assert (a - b).terms[Loop(0, (1, 1))] == RadicalScalar.from_rational(-1)

    def test_scaling(self):
        a = PlanarElement.basis(Loop(0, (0, 0)))
        assert 2 * a == a + a
        assert a.scaled(Fraction(1, 2)) + a.scaled(Fraction(1, 2)) == a
        assert (a * sqrt_of_int(2)).terms[Loop(0, (0, 0))] == sqrt_of_int(2)

    def test_matrix_unit_product(self):
        # On the parallel-edge graph the degree-1 loops are the four matrix
        # units indexed by (bottom row, top row).
        e01 = PlanarElement.basis(Loop.from_paths(0, (0,), (1,)))
        e10 = PlanarElement.basis(Loop.from_paths(0, (1,), (0,)))
        assert e01 * e10 == PlanarElement.basis(Loop.from_paths(0, (1,), (1,)))
        assert e10 * e01 == PlanarElement.basis(Loop.from_paths(0, (0,), (0,)))
        assert (e01 * e01).is_zero()

    @pytest.mark.parametrize("name", ["C-in-M2", "central-C2-in-M2xM2"])
    def test_unit_is_neutral(self, graphs, name):
        g = graphs(name)
        rng = random.Random(11)
        for k in (1, 2):
            unit = g.unit(k)
            loops = g.enumerate_loops(k)
            for _ in range(20):
                x = random_element(rng, loops)
                assert unit * x == x
                assert x * unit == x

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3"])
    def test_associativity_fuzz(self, graphs, name):
        g = graphs(name)
        rng = random.Random(23)
        loops = g.enumerate_loops(2)
        for _ in range(50):
            x, y, z = (random_element(rng, loops) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_distributivity_fuzz(self, graphs):
        g = graphs("C-in-M2")
        rng = random.Random(37)
        loops = g.enumerate_loops(1)
        for _ in range(50):
            x, y, z = (random_element(rng, loops) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


class TestTrustedConstructor:
    """Operations build their results without the checks of the public
    constructor; cancelled terms must still vanish."""

    def assert_zero(self, x: PlanarElement, k: int) -> None:
        assert x.is_zero()
        assert x.terms == {}
        assert x == PlanarElement(k)

    def test_difference_with_itself(self, graphs):
        rng = random.Random(5)
        x = random_element(rng, graphs("C-in-C2xM2").enumerate_loops(2), count=6)
        self.assert_zero(x - x, 2)
        self.assert_zero(x + (-x), 2)

    def test_scaled_by_zero(self, graphs):
        x = random_element(random.Random(6), graphs("C-in-M2").enumerate_loops(2), count=4)
        self.assert_zero(x.scaled(0), 2)
        self.assert_zero(x.scaled(RadicalScalar.zero()), 2)
        self.assert_zero(0 * x, 2)

    def test_cancelling_product(self):
        # With rows p and q out of one base to one endpoint, loops multiply as
        # matrix units: (E_pp + E_pq)(E_pp - E_qp) = E_pp - E_pp = 0.
        p, q = (0, 0), (1, 1)

        def unit(bottom, top):
            return PlanarElement.basis(Loop.from_paths(0, top, bottom))

        x = unit(p, p) + unit(p, q)
        y = unit(p, p) - unit(q, p)
        self.assert_zero(x * y, 2)

    def test_cancelling_expectation(self, graphs):
        g = graphs("C-in-C2xM2")
        # Edges 2 and 3 are parallel, so both loops contract to (0, (2, 2)).
        first, second = Loop(0, (2, 2, 2, 2)), Loop(0, (2, 3, 3, 2))
        assert {first, second} <= set(g.iter_loops(2))
        w1 = g.step(1).spin_sq[2]
        w2 = g.step(1).spin_sq[3]
        x = PlanarElement(2, {first: w2, second: -w1})
        assert not x.is_zero()
        self.assert_zero(expect(g, x), 1)

    def test_public_constructor_still_checks(self):
        with pytest.raises(DegreeMismatchError):
            PlanarElement(1, {Loop(0, (0, 0, 0, 0)): RadicalScalar.one()})
        loop = Loop(0, (0, 0))
        x = PlanarElement(1, {loop: 3, Loop(0, (1, 1)): Fraction(1, 2), Loop(0, (2, 2)): 0})
        assert x.terms == {
            loop: RadicalScalar.from_rational(3),
            Loop(0, (1, 1)): RadicalScalar.from_rational(Fraction(1, 2)),
        }
        assert all(type(c) is RadicalScalar for c in x.terms.values())
