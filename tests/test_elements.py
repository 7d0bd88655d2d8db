"""Integer matrix-row elements against the dict-of-loop reference.

Every operation on `PlanarElement` is compared with `element_oracle`,
which rewrites loops one by one, through `terms`, `==` and `trace`.  The
inputs are seeded random elements whose loops come from a few shared paths,
so that products meet, sums and products cancel, and coefficients carry
several radical parts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

import element_oracle as oracle
from planaralg import (
    BipartiteGraph,
    Edge,
    GraphAutomorphism,
    Loop,
    PlanarElement,
    RadicalScalar,
    act,
    close_group,
    expect,
    include,
    jones_projection,
    make_automorphism,
    reynolds,
    shift,
    trace,
)
from planaralg.graph import Step
from conftest import corpus_entry

MARKOV_GRAPHS = ("C-in-C2", "C-in-C3", "C2-in-M2", "C-in-C2xM2")
DEGREES = (0, 1, 2, 3, 4)
SEEDS = range(6)


def edges_only(name: str) -> BipartiteGraph:
    """The edges of an inclusion that is not Markov and its path steps,
    without weights or spins: loops, `include` and `shift` read nothing
    else."""
    entry = corpus_entry(name)
    g = object.__new__(BipartiteGraph)
    pairs = [(i, j) for i, row in enumerate(entry.m) for j, count in enumerate(row) for _ in range(count)]
    g.edges = tuple(Edge(eid, i, j) for eid, (i, j) in enumerate(pairs))
    g.num_a, g.num_b = len(entry.m), len(entry.m[0])
    ups = tuple(tuple(e.id for e in g.edges if e.src == i) for i in range(g.num_a))
    downs = tuple(tuple(e.id for e in g.edges if e.dst == j) for j in range(g.num_b))
    g._steps = (
        Step(ups, tuple(e.dst for e in g.edges), (), ()),
        Step(downs, tuple(e.src for e in g.edges), (), ()),
    )
    return g


def radical_pool(g) -> list[RadicalScalar]:
    """One, the index root and the spins of the graph."""
    return [RadicalScalar.one(), g.gamma] + [
        g.spin_factor(e.id, d) for e in g.edges for d in ("up", "down")
    ]


# For the inclusion that is not Markov: one, sqrt(5/2) and (5/2)^(1/4).
SKEW_POOL = [
    RadicalScalar.one(),
    RadicalScalar.monomial(1, {5: 2, 2: -2}),
    RadicalScalar.monomial(1, {5: 1, 2: -1}),
]


def draw_coefficient(rng: random.Random, pool) -> RadicalScalar:
    """A pool value times a signed rational; one in four is a sum of two."""
    value = RadicalScalar.zero()
    for _ in range(2 if rng.random() < 0.25 else 1):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
        value = value + rng.choice(pool) * q
    return value


def shared_loops(rng: random.Random, g, k: int) -> list[Loop]:
    """Loops between a few random paths of degree k, so products meet."""
    paths = [(b, p) for b in range(g.num_a) for p in g.paths_from(b, k)]
    chosen = rng.sample(paths, min(len(paths), 4))
    return [
        Loop.from_paths(b, top, bottom)
        for b, top in chosen
        for c, bottom in chosen
        if b == c and g.path_end(b, top) == g.path_end(c, bottom)
    ]


def random_element(rng: random.Random, loops, pool, degree: int) -> PlanarElement:
    """Up to six terms; one in eight is empty."""
    if rng.random() < 0.125:
        return PlanarElement.zero(degree)
    count = rng.randint(1, 6)
    return PlanarElement(degree, {rng.choice(loops): draw_coefficient(rng, pool) for _ in range(count)})


def assert_normal(x: PlanarElement) -> None:
    """The stored normal form: positive denominator, based paths of the
    element's degree, nonzero integer numerators, one-entry rows as pairs,
    no empty row or key, and no factor common to the denominator and every
    numerator."""
    assert type(x._den) is int and x._den > 0
    values = []
    for rows in x._num.values():
        assert rows
        for row, entries in rows.items():
            assert len(row) == x.degree + 1
            # A one-entry row is a bare (column, numerator) pair.
            if type(entries) is tuple:
                entries = dict([entries])
            else:
                assert type(entries) is dict and len(entries) > 1
            for col, n in entries.items():
                assert len(col) == x.degree + 1 and col[0] == row[0]
                assert type(n) is int and n != 0
                values.append(n)
    assert gcd(x._den, *values) == 1
    if not values:
        assert x._den == 1


def agree(x: PlanarElement, ref: oracle.RefElement) -> None:
    assert_normal(x)
    assert x.degree == ref.degree
    assert x.terms == ref.terms
    assert x.support() == sorted(ref.terms)
    assert x.is_zero() == (not ref.terms)
    for loop, coeff in ref.terms.items():
        assert x.coefficient(loop) == coeff
    # Equality is the comparison of stored forms; it must match the terms.
    assert x == PlanarElement(x.degree, ref.terms)


def cases(g, pool, degrees=DEGREES):
    for k in degrees:
        for seed in SEEDS:
            rng = random.Random(f"{k}:{seed}")
            loops = shared_loops(rng, g, k)
            yield k, rng, [random_element(rng, loops, pool, k) for _ in range(3)]


def check_algebra(g, pool) -> None:
    for k, rng, (x, y, z) in cases(g, pool):
        rx, ry, rz = (oracle.RefElement.of(e) for e in (x, y, z))
        agree(x + y, rx + ry)
        agree(x - y, rx - ry)
        agree(-x, -rx)
        agree(x * y, rx * ry)
        agree(x * y * z, rx * ry * rz)
        s = draw_coefficient(rng, pool)
        agree(x.scaled(s), rx.scaled(s))
        agree(x * s, rx.scaled(s))
        agree(x.scaled(0), oracle.RefElement(k, {}))
        assert (x * y == y * x) == ((rx * ry).terms == (ry * rx).terms)
        assert (x == y) == (rx.terms == ry.terms)
        # Values with the same numerators over another denominator differ.
        assert (x == x.scaled(Fraction(1, 2))) == x.is_zero()
        assert (x * y) * z == x * (y * z)
        # Cancelling: a difference with itself and a sum with part of its negative.
        agree(x - x, oracle.RefElement(k, {}))
        w = x + y.scaled(-1)
        agree(w + y, rx)


@pytest.mark.parametrize("name", MARKOV_GRAPHS)
def test_algebra_matches_oracle(graphs, name):
    g = graphs(name)
    check_algebra(g, radical_pool(g))


def test_algebra_matches_oracle_without_markov():
    check_algebra(edges_only("skew-C2-in-M2xC"), SKEW_POOL)


@pytest.mark.parametrize("name", MARKOV_GRAPHS)
def test_generators_match_oracle(graphs, name):
    g = graphs(name)
    pool = radical_pool(g)
    for k, rng, (x, y, _) in cases(g, pool):
        rx, ry = oracle.RefElement.of(x), oracle.RefElement.of(y)
        agree(include(g, x), oracle.include(g, rx))
        if k <= 2:
            agree(shift(g, x), oracle.shift(g, rx))
        if k >= 1:
            agree(expect(g, x), oracle.expect(g, rx))
            agree(expect(g, x + y), oracle.expect(g, rx + ry))
        assert trace(g, x) == oracle.trace(g, rx)
        assert trace(g, x * y) == oracle.trace(g, rx * ry)
    for k in range(3):
        agree(jones_projection(g, k), oracle.jones_projection(g, k))


def test_edge_generators_match_oracle_without_markov():
    g = edges_only("skew-C2-in-M2xC")
    for k, _, (x, _, _) in cases(g, SKEW_POOL):
        rx = oracle.RefElement.of(x)
        agree(include(g, x), oracle.include(g, rx))
        if k <= 2:
            agree(shift(g, x), oracle.shift(g, rx))


def raw_maps(rng: random.Random, g, count: int) -> list[GraphAutomorphism]:
    """Arbitrary self-maps of the vertex and edge sets, most of them not
    permutations, so images of distinct loops can meet and cancel."""
    return [
        GraphAutomorphism(
            tuple(rng.randrange(g.num_a) for _ in range(g.num_a)),
            tuple(rng.randrange(g.num_b) for _ in range(g.num_b)),
            tuple(rng.randrange(len(g.edges)) for _ in g.edges),
        )
        for _ in range(count)
    ]


def loop_keeping_maps(rng: random.Random, g, count: int) -> list[GraphAutomorphism]:
    """Seeded permutations of the vertex and edge sets that send loops to
    loops (the edge condition), each drawn again until it does; most of
    them not automorphisms."""
    maps = []
    while len(maps) < count:
        candidate = GraphAutomorphism(*(tuple(rng.sample(range(n), n)) for n in (g.num_a, g.num_b, len(g.edges))))
        if oracle.edge_condition(g, candidate):
            maps.append(candidate)
    return maps


def check_act(g, pool, autos=()) -> None:
    for k, rng, (x, y, _) in cases(g, pool):
        rx, ry = oracle.RefElement.of(x), oracle.RefElement.of(y)
        maps = raw_maps(rng, g, 3)
        for auto in [*autos, *maps]:
            agree(act(auto, x), oracle.act(auto, rx))
            agree(act(auto, x - y), oracle.act(auto, rx - ry))
        # Seeded permutations that map loops to loops generate a group, read
        # unchecked (the skew graph has no weights); images of one loop under
        # its elements meet, and the one-pass average must add them up.
        group = oracle.raw_group(g, loop_keeping_maps(rng, g, 2))
        agree(reynolds(group, x - y), oracle.reynolds(group, rx - ry))
        if autos:
            group = close_group(g, autos)
            agree(reynolds(group, x - y), oracle.reynolds(group, rx - ry))


def test_act_matches_oracle(graphs):
    g = graphs("C-in-C2xM2")
    autos = [
        make_automorphism(g, [0], [1, 0, 2], [1, 0, 2, 3]),
        make_automorphism(g, [0], [0, 1, 2], [0, 1, 3, 2]),
    ]
    check_act(g, radical_pool(g), autos)
    check_act(edges_only("skew-C2-in-M2xC"), SKEW_POOL)


def test_act_merges_colliding_images(graphs):
    # Both edges to the M2 block go to edge 2, so the two loops meet and cancel.
    g = graphs("C-in-C2xM2")
    squash = GraphAutomorphism((0,), (0, 1, 2), (0, 1, 2, 2))
    x = PlanarElement(1, {Loop(0, (2, 2)): 1, Loop(0, (3, 3)): -1, Loop(0, (0, 0)): 5})
    assert act(squash, x) == PlanarElement(1, {Loop(0, (0, 0)): 5})


@pytest.mark.parametrize("name", MARKOV_GRAPHS)
def test_empty_elements(graphs, name):
    g = graphs(name)
    for k in range(4):
        zero = PlanarElement.zero(k)
        x = random_element(random.Random(k), g.enumerate_loops(k), radical_pool(g), k)
        for result in (zero + zero, -zero, zero * zero, zero * x, x * zero, zero.scaled(g.gamma)):
            assert_normal(result)
            assert result == zero and result.terms == {}
        assert include(g, zero) == PlanarElement.zero(k + 1)
        assert shift(g, zero) == PlanarElement.zero(k + 2)
        assert trace(g, zero) == 0
        if k:
            assert expect(g, zero) == PlanarElement.zero(k - 1)


def test_cancelling_product_with_radical_parts(graphs):
    # Over two parallel edges p and q, with E_bt the loop of bottom row b and
    # top row t: (E_pp + gamma E_pq)(gamma E_pp - E_qp) = gamma E_pp - gamma E_pp,
    # the two gamma parts come from different pairs of keys and cancel.
    g = graphs("C-in-C2xM2")
    p, q = (2,), (3,)

    def unit(bottom, top, c):
        return PlanarElement(1, {Loop.from_paths(0, top, bottom): c})

    x = unit(p, p, 1) + unit(p, q, g.gamma)
    y = unit(p, p, g.gamma) - unit(q, p, 1)
    product = x * y
    assert_normal(product)
    assert product.is_zero()
    assert (oracle.RefElement.of(x) * oracle.RefElement.of(y)).terms == {}


def test_product_makes_no_scalar_products(graphs, monkeypatch):
    # Work count, not timing: products multiply integer numerators and look
    # the radical parts up once per pair of keys, so no RadicalScalar is
    # multiplied (a product of Jones projections here has 2,304 term pairs).
    g = graphs("C-in-C2xM2")
    e4 = jones_projection(g, 4)
    calls = 0
    mul = RadicalScalar.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting)
    monkeypatch.setattr(RadicalScalar, "__rmul__", counting)
    assert e4 * e4 == e4
    assert calls == 0


def test_rows_left_with_one_entry_become_pairs(graphs):
    # Cancelling one of two entries in a row leaves a one-entry row, stored
    # as a pair, so the result equals the element built from the other entry.
    g = graphs("C-in-C2xM2")
    p, q = (2,), (3,)
    a, b = Loop.from_paths(0, p, p), Loop.from_paths(0, q, p)
    x = PlanarElement(1, {a: 1, b: 2})
    total = x + PlanarElement(1, {b: -2})
    assert_normal(total)
    assert total == PlanarElement(1, {a: 1})
    y = x.scaled(g.gamma) - PlanarElement(1, {a: g.gamma})
    assert_normal(y)
    assert y == PlanarElement(1, {b: 2 * g.gamma})


def test_elements_built_from_loops_share_paths_and_numerators(graphs):
    # Sparse elements over the same loops hold one object per based path
    # and per numerator.
    g = graphs("C-in-C2xM2")
    loops = g.enumerate_loops(2)[:5]
    x = PlanarElement(2, {loop: 1000 for loop in loops})
    y = PlanarElement(2, {loop: 1000 for loop in reversed(loops)})

    def objects(e):
        found = set()
        for rows in e._num.values():
            for row, entries in rows.items():
                pairs = [entries] if type(entries) is tuple else entries.items()
                found.update(id(obj) for c, n in pairs for obj in (row, c, n))
        return found

    assert objects(x) == objects(y)
    # The unit and the Jones projection, built from the graph's paths, hold
    # the same objects as the elements built from their loops.
    for e in (g.unit(2), jones_projection(g, 0)):
        assert objects(e) == objects(PlanarElement(2, e.terms))
