"""Weighted graphs, loop enumeration, and the loop-span algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from planaralg import (
    DegreeMismatchError,
    EigenvectorViolationError,
    Loop,
    NotMarkovError,
    PlanarElement,
    RadicalScalar,
    ValidationError,
    build_graph,
    expect,
    loop_space_dim,
)
from planaralg.radical import sqrt_of_int
from conftest import MARKOV_CORPUS, corpus_entry

COEFF_POOL = (
    RadicalScalar.one(),
    RadicalScalar.from_rational(Fraction(-1)),
    RadicalScalar.from_rational(Fraction(1, 2)),
    sqrt_of_int(2),
    RadicalScalar.monomial(Fraction(-1, 3), {2: 1}),
)


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

    def test_edges_row_major_with_parallel_copies(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        assert [(e.id, e.src, e.dst) for e in g.edges] == [
            (0, 0, 0),
            (1, 0, 0),
            (2, 1, 1),
            (3, 1, 1),
        ]
        assert g.edges_up(0) == (0, 1)
        assert g.edges_down(1) == (2, 3)
        assert g.edges_between(1, 1) == (2, 3)
        assert g.edges_between(0, 1) == ()

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
            for eid in g.edges_down(j):
                total = total + g.weights_a[g.edge(eid).src]
            assert total == g.gamma * g.weights_b[j]

    def test_eigenvector_check_fires_on_corrupt_weights(self):
        g = build_graph(corpus_entry("C-in-C2").inclusion())
        g.weights_a = (RadicalScalar.from_rational(2),)
        with pytest.raises(EigenvectorViolationError):
            g._verify_eigenvector()


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
            assert g.spin_factor_sq(e.id, "up") == up * up
            ratio = g.weights_b[e.dst] * g.weights_a[e.src].invert()
            assert g.spin_factor_sq(e.id, "up") == ratio

    def test_rejects_bad_direction(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError):
            g.spin_factor(0, "sideways")

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


class TestPathsAndLoops:
    def test_paths_from(self, graphs):
        g = graphs("C-in-C2")
        assert g.paths_from(0, 0) == [()]
        assert g.paths_from(0, 1) == [(0,), (1,)]
        assert g.paths_from(0, 2) == [(0, 0), (1, 1)]

    def test_path_end_alternates(self, graphs):
        g = graphs("C-in-C2")
        assert g.path_end(0, ()) == 0
        assert g.path_end(0, (1,)) == 1  # upper vertex index
        assert g.path_end(0, (1, 1)) == 0

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

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_enumeration_is_canonically_sorted(self, graphs, entry):
        g = graphs(entry.name)
        for k in range(4):
            loops = g.enumerate_loops(k)
            assert loops == sorted(loops)

    @pytest.mark.parametrize("entry", MARKOV_CORPUS, ids=lambda e: e.name)
    def test_enumerated_loops_are_valid(self, graphs, entry):
        g = graphs(entry.name)
        for k in range(3):
            for loop in g.iter_loops(k):
                assert g.is_valid_loop(loop)

    def test_is_valid_loop_rejects_bad_walks(self, graphs):
        g = graphs("C-in-C2")
        assert not g.is_valid_loop(Loop(0, (0, 1)))  # rows end at different tops
        assert not g.is_valid_loop(Loop(1, (0, 0)))  # no such base
        assert not g.is_valid_loop(Loop(0, (0, 5)))  # no such edge
        assert g.is_valid_loop(Loop(0, (1, 1)))


class TestElementAlgebra:
    def test_zero_coefficients_dropped(self):
        loop = Loop(0, (0, 0))
        x = PlanarElement(1, {loop: RadicalScalar.zero()})
        assert x.is_zero()
        assert x == PlanarElement.zero(1)

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
        assert a + (-a) == PlanarElement.zero(1)
        assert (a - b).coefficient(Loop(0, (1, 1))) == RadicalScalar.from_rational(-1)

    def test_scaling(self):
        a = PlanarElement.basis(Loop(0, (0, 0)))
        assert 2 * a == a + a
        assert a.scaled(Fraction(1, 2)) + a.scaled(Fraction(1, 2)) == a
        assert (a * sqrt_of_int(2)).coefficient(Loop(0, (0, 0))) == sqrt_of_int(2)

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
        assert x == PlanarElement.zero(k)

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
        assert g.is_valid_loop(first) and g.is_valid_loop(second)
        w1 = g.spin_factor_sq(2, "down")
        w2 = g.spin_factor_sq(3, "down")
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


class TestRendering:
    def test_render_loop(self, graphs):
        g = graphs("C-in-C2")
        assert g.render_loop(Loop(0, (0, 0))) == "a0 -e0-> b0 -e0-> a0"
        assert g.render_loop(Loop(0, (1, 1))) == "a0 -e1-> b1 -e1-> a0"

    def test_render_loop_parallel(self, graphs):
        g = graphs("C-in-M2")
        line = g.render_loop(Loop(0, (0, 1, 1, 0)))
        assert line == "a0 -e0-> b0 -e1-> a0 -e1-> b0 -e0-> a0"

    def test_render_element_sorted(self, graphs):
        g = graphs("C-in-C2")
        x = PlanarElement(
            1,
            {
                Loop(0, (1, 1)): RadicalScalar.one(),
                Loop(0, (0, 0)): RadicalScalar.from_rational(Fraction(1, 2)),
            },
        )
        lines = g.render_element(x)
        assert lines == [
            "(1/2) * a0 -e0-> b0 -e0-> a0",
            "(1) * a0 -e1-> b1 -e1-> a0",
        ]
