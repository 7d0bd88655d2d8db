"""Partition vectors on C in C^n: a third count of the S_n fixed points, and
the noncrossing span as the algebra of the Jones projections.

A degree-k loop of C in C^n goes up and straight back down k times, so it is
the tuple of its up-edges, read at even positions, in [n]^k.  A partition pi
of the k positions gives the 0/1 vector T_pi of the tuples that are constant
on each block of pi.  The T_pi over all partitions span the fixed points of
S_n; over noncrossing partitions they span the Temperley-Lieb algebra
(Banica, "Symmetries of a generic coaction", Math. Ann. 314, 1999).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from planaralg import (
    Loop,
    PlanarElement,
    close_group,
    expect,
    fixed_dims_report,
    include,
    jones_projection,
    make_automorphism,
    shift,
)
from test_symmetry import stirling2

Vector = dict[tuple[int, ...], Fraction]


class Echelon:
    """Exact row echelon form over the rationals, grown one vector at a time."""

    def __init__(self):
        self.rows: dict[tuple[int, ...], Vector] = {}  # pivot -> row with 1 at the pivot

    def add(self, vector: Vector) -> bool:
        """Adds the vector; True when it was not already in the span."""
        v = {key: Fraction(c) for key, c in vector.items() if c}
        while v:
            pivot = min(v)
            row = self.rows.get(pivot)
            if row is None:
                scale = v[pivot]
                self.rows[pivot] = {key: c / scale for key, c in v.items()}
                return True
            factor = v[pivot]
            for key, c in row.items():
                value = v.get(key, 0) - factor * c
                if value:
                    v[key] = value
                else:
                    v.pop(key, None)
        return False


def rank(vectors) -> int:
    echelon = Echelon()
    for vector in vectors:
        echelon.add(vector)
    return len(echelon.rows)


def set_partitions(k: int):
    """Every partition of range(k), as the block label of each position,
    labels in order of first appearance."""

    def grow(prefix, blocks):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for label in range(blocks + 1):
            yield from grow(prefix + [label], max(blocks, label + 1))

    return grow([], 0)


def is_noncrossing(labels: tuple[int, ...]) -> bool:
    return not any(
        labels[a] == labels[c] != labels[b] == labels[d]
        for a, b, c, d in itertools.combinations(range(len(labels)), 4)
    )


def partition_vector(labels: tuple[int, ...], n: int) -> Vector:
    """T_pi: one for each tuple in [n]^k that is constant on every block."""
    values = itertools.product(range(n), repeat=max(labels, default=-1) + 1)
    return {tuple(value[b] for b in labels): Fraction(1) for value in values}


def as_vector(x) -> Vector:
    return {loop.edges[::2]: c.as_fraction() for loop, c in x.terms.items()}


def as_element(vector: Vector, k: int) -> PlanarElement:
    """The inverse of `as_vector`: each tuple is the loop that goes up and
    straight back down along its edges."""
    return PlanarElement(k, {Loop(0, tuple(e for u in t for e in (u, u))): c for t, c in vector.items()})


def symmetric_group(g, n: int):
    cycle = make_automorphism(g, [0], [*range(1, n), 0])
    flip = make_automorphism(g, [0], [1, 0, *range(2, n)])
    return close_group(g, [cycle, flip])


def catalan(k: int) -> int:
    return len([p for p in set_partitions(k) if is_noncrossing(p)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_loops_are_up_edge_tuples(graphs, n):
    g = graphs(f"C-in-C{n}")
    for k in range(4):
        loops = g.enumerate_loops(k)
        assert all(loop.edges[::2] == loop.edges[1::2] for loop in loops)
        assert sorted(loop.edges[::2] for loop in loops) == list(itertools.product(range(n), repeat=k))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_group_dims_are_partition_ranks(graphs, n):
    # A third count of the S_n fixed points, beside Burnside and orbits.
    g = graphs(f"C-in-C{n}")
    group = symmetric_group(g, n)
    ranks = [rank(partition_vector(p, n) for p in set_partitions(k)) for k in range(6)]
    assert fixed_dims_report(group, 5) == ranks
    # The T_pi of partitions into at most n blocks are independent.
    assert ranks == [sum(max(p, default=-1) < n for p in set_partitions(k)) for k in range(6)]
    # Their number is sum over j <= n of S(k, j), the Stirling numbers of the
    # second kind (Banica and Speicher, arXiv:0808.2628): a closed form that
    # the walk meets far beyond the degrees the ranks can reach.
    stirling_sums = [sum(stirling2(k, j) for j in range(n + 1)) for k in range(61)]
    assert stirling_sums[:6] == ranks
    assert fixed_dims_report(group, 60) == stirling_sums


def test_partition_counts():
    assert [len(list(set_partitions(k))) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def jones_algebra(g, k: int) -> Echelon:
    """The span of the algebra that 1 and the Jones projections e_j
    (j <= k - 2), included to degree k, generate: words, grown one
    generator at a time on the right until the span stops growing."""
    generators = []
    for j in range(k - 1):
        e = jones_projection(g, j)
        while e.degree < k:
            e = include(g, e)
        generators.append(e)
    echelon = Echelon()
    frontier = [g.unit(k)]
    echelon.add(as_vector(frontier[0]))
    while frontier:
        grown = []
        for word in frontier:
            for e in generators:
                product = word * e
                if echelon.add(as_vector(product)):
                    grown.append(product)
        frontier = grown
    return echelon


@pytest.mark.parametrize("k, dim", [(2, 2), (3, 5), (4, 14), (5, 42)])
def test_jones_algebra_is_noncrossing_span(graphs, k, dim):
    # On C in C^4 the graph eigenvalue is 2, so every coefficient is rational.
    n = 4
    algebra = jones_algebra(graphs("C-in-C4"), k)
    noncrossing = [partition_vector(p, n) for p in set_partitions(k) if is_noncrossing(p)]
    assert len(algebra.rows) == dim == catalan(k)
    assert rank(noncrossing) == dim
    assert rank([*algebra.rows.values(), *noncrossing]) == dim


@pytest.mark.parametrize("noncrossing_only", [True, False])
def test_partition_spans_are_planar_subalgebras(graphs, noncrossing_only):
    # On C in C^4 up to degree 4, the noncrossing span (Temperley-Lieb) and
    # the span of all partitions (the S_4 fixed points) contain the products,
    # include, shift and expect images of their T_pi, by exact membership.
    n, kmax = 4, 4
    g = graphs("C-in-C4")
    basis, spans = {}, {}
    for k in range(kmax + 1):
        partitions = [p for p in set_partitions(k) if is_noncrossing(p) or not noncrossing_only]
        basis[k] = [as_element(partition_vector(p, n), k) for p in partitions]
        spans[k] = Echelon()
        for x in basis[k]:
            spans[k].add(as_vector(x))

    def inside(x) -> bool:
        # `add` grows the span exactly when the vector is not in it.
        return not spans[x.degree].add(as_vector(x))

    for k, xs in basis.items():
        assert all(inside(x * y) for x in xs for y in xs)
        if k + 1 <= kmax:
            assert all(inside(include(g, x)) for x in xs)
        if k + 2 <= kmax:
            assert all(inside(shift(g, x)) for x in xs)
        if k >= 1:
            assert all(inside(expect(g, x)) for x in xs)
    # The crossing partition of four points is outside the noncrossing span.
    assert spans[4].add(partition_vector((0, 1, 0, 1), n)) == noncrossing_only
