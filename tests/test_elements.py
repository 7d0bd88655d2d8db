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
from element_oracle import identity_automorphism
from planaralg import (
    BipartiteGraph,
    GraphAutomorphism,
    Loop,
    PlanarElement,
    RadicalScalar,
    ResourceLimitError,
    ValidationError,
    act,
    close_group,
    expect,
    fixed_space_basis,
    include,
    jones_projection,
    jones_projection_raw,
    make_automorphism,
    reynolds,
    shift,
    trace,
)
import planaralg.graph as graph_module
from planaralg.graph import CODE_POINTS, Step, decode_path
from conftest import CORPUS_GROUPS, MARKOV_CORPUS, corpus_entry

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
    g.num_a, g.num_b = len(entry.m), len(entry.m[0])
    ups = tuple(tuple(e for e, (src, _) in enumerate(pairs) if src == i) for i in range(g.num_a))
    downs = tuple(tuple(e for e, (_, dst) in enumerate(pairs) if dst == j) for j in range(g.num_b))
    g._steps = (
        Step(ups, tuple(dst for _, dst in pairs), (), ()),
        Step(downs, tuple(src for src, _ in pairs), (), ()),
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
        if b == c and oracle.path_end(g, b, top) == oracle.path_end(g, c, bottom)
    ]


def random_element(rng: random.Random, loops, pool, degree: int) -> PlanarElement:
    """Up to six terms; one in eight is empty."""
    if rng.random() < 0.125:
        return PlanarElement(degree)
    count = rng.randint(1, 6)
    return PlanarElement(degree, {rng.choice(loops): draw_coefficient(rng, pool) for _ in range(count)})


def assert_normal(x: PlanarElement) -> None:
    """The stored normal form: positive denominator, based paths of the
    element's degree as `str` keys whose columns share their row's base code
    point, nonzero integer numerators, one-entry rows as pairs, no empty row
    or key, and no factor common to the denominator and every numerator."""
    assert type(x._den) is int and x._den > 0
    values = []
    for rows in x._num.values():
        assert rows
        for row, entries in rows.items():
            assert type(row) is str and len(row) == x.degree + 1
            # A one-entry row is a bare (column, numerator) pair.
            if type(entries) is tuple:
                entries = dict([entries])
            else:
                assert type(entries) is dict and len(entries) > 1
            for col, n in entries.items():
                assert type(col) is str and len(col) == x.degree + 1 and col[0] == row[0]
                assert type(n) is int and n != 0
                values.append(n)
    assert gcd(x._den, *values) == 1
    if not values:
        assert x._den == 1


def agree(x: PlanarElement, ref: oracle.RefElement) -> None:
    assert_normal(x)
    assert x.degree == ref.degree
    assert x.terms == ref.terms
    assert x.is_zero() == (not ref.terms)
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
        # The involution reverses every loop: (x y)* = y* x*, x + x* and
        # x x* are self-adjoint, and x is exactly when x* == x.
        star, ystar = (PlanarElement(k, r.adjoint().terms) for r in (rx, ry))
        agree(ystar * star, (rx * ry).adjoint())
        assert x.is_self_adjoint() == (star == x)
        assert (x + star).is_self_adjoint() and (x * star).is_self_adjoint()
        assert (x + star + y).is_self_adjoint() == (y == ystar)
        blocks = x.diagonal_sums(lambda p: (ord(p[0]), oracle.path_end(g, ord(p[0]), decode_path(p[1:]))))
        assert blocks == oracle.diagonal_sums(g, rx)


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
    # The columns (0, 2) and (0, 3) of the row (0, 2) meet too, and they
    # add up, cancel or leave a common factor.
    for coeffs in ((1, 2, 3), (1, -1, 4), (g.gamma, 1, -g.gamma), (2, 4, 6)):
        terms = dict(zip([Loop(0, (2, 2)), Loop(0, (3, 2)), Loop(0, (3, 3))], coeffs))
        x = PlanarElement(1, terms) + PlanarElement(1, {Loop(0, (0, 0)): Fraction(1, 2)})
        agree(act(squash, x), oracle.act(squash, oracle.RefElement.of(x)))


def test_relabel_drops_paths_without_images(graphs):
    # At odd degrees the paths that end at the M2 vertex, one block per
    # degree, have no image, and every other path keeps itself: the loops
    # left may share a factor with the denominator, and a radical key may
    # lose every loop.
    g = graphs("C-in-C2xM2")

    def images(p):
        return [] if len(p) % 2 == 0 and p[-1] in "\x02\x03" else [p]

    a, b, c = Loop(0, (0, 0)), Loop(0, (2, 2)), Loop(0, (3, 2))
    handmade = [
        PlanarElement(1, {a: Fraction(1, 2), b: Fraction(1, 3)}),
        PlanarElement(1, {a: 1, b: g.gamma}),
        PlanarElement(1, {b: g.gamma, c: 1}),
    ]
    seeded = [x for _, _, parts in cases(g, radical_pool(g), degrees=(1, 2, 3)) for x in parts]
    for x in handmade + seeded:
        agree(x._relabel(x.degree, images), oracle.relabel(oracle.RefElement.of(x), x.degree, images))
    assert handmade[0]._relabel(1, images) == PlanarElement(1, {a: Fraction(1, 2)})
    assert handmade[2]._relabel(1, images).is_zero()


def law_element(rng: random.Random, loops, pool) -> PlanarElement:
    """100 loops, each with a pool value times a signed rational."""
    return PlanarElement(
        loops[0].degree,
        {loop: rng.choice(pool) * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for loop in rng.sample(loops, 100)},
    )


def test_products_of_many_keyed_elements(graphs):
    # Elements of degree 4 on C-in-C2xM2 with 100 terms over at least five
    # radical keys, multiplied with each other and, on either side, with
    # Jones projections of one and two keys: products run both through the
    # index of the right rows across keys and through one walk per key.
    g = graphs("C-in-C2xM2")
    rng, loops, pool = random.Random(45), g.enumerate_loops(4), radical_pool(g)
    for _ in range(2):
        x, y, z = (law_element(rng, loops, pool) for _ in range(3))
        assert min(len(e._num) for e in (x, y, z)) >= 5
        rx, ry, rz = (oracle.RefElement.of(e) for e in (x, y, z))
        agree(x * y, rx * ry)
        agree(x * y * z, rx * ry * rz)
        for e in (include(g, jones_projection(g, 1)), jones_projection(g, 2)):
            re = oracle.RefElement.of(e)
            agree(e * x, re * rx)
            agree(x * e, rx * re)
        agree(include(g, x), oracle.include(g, rx))
        agree(shift(g, x), oracle.shift(g, rx))


def test_injective_relabels_skip_the_normal_form_pass(graphs, monkeypatch):
    # Work count: `include`, `shift` and `act` by an automorphism send
    # distinct loops to distinct loops with the same numerators, so on every
    # Markov corpus graph they store a normal element with no `_store`
    # pass.  The average over a nontrivial group sends the unit's rows to
    # more images than there are rows in their orbit, so images meet: its
    # one `_relabel`, which also divides by the group order, runs `_store`
    # once.
    store = graph_module._store
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return store(*args)

    def stores(build):
        """build() and the number of `_store` calls it made."""
        nonlocal calls
        calls = 0
        monkeypatch.setattr(graph_module, "_store", counting)
        try:
            return build(), calls
        finally:
            monkeypatch.setattr(graph_module, "_store", store)

    group_gens = {name: gens for name, _, gens in CORPUS_GROUPS}
    relabels = averages = 0
    for entry in MARKOV_CORPUS:
        g = graphs(entry.name)
        autos = [make_automorphism(g, *gen) for gen in group_gens.get(entry.name, ())]
        rng, pool = random.Random(entry.name), radical_pool(g)
        for k in range(3):
            loops = g.enumerate_loops(k)
            x = PlanarElement(k, {loop: draw_coefficient(rng, pool) for loop in rng.sample(loops, min(8, len(loops)))})
            rx = oracle.RefElement.of(x)
            runs = [(lambda: include(g, x), oracle.include(g, rx)), (lambda: shift(g, x), oracle.shift(g, rx))]
            runs += [(lambda a=a: act(a, x), oracle.act(a, rx)) for a in autos or [identity_automorphism(g)]]
            for build, ref in runs:
                result, count = stores(build)
                assert count == 0
                agree(result, ref)
                relabels += 1
            if autos:
                group, y = close_group(g, autos), g.unit(k) + x
                average, count = stores(lambda: reynolds(group, y))
                assert count == 1
                agree(average, oracle.reynolds(group, oracle.RefElement.of(y)))
                averages += 1
    assert (relabels, averages) == (105, 18)


def widened(g, bases, edges) -> BipartiteGraph:
    """A copy of g, assembled without `__init__`, whose lower vertex i is
    bases[i] and whose edge e is edges[e] (both ascending), with isolated
    lower vertices and unused edge ids in between and the same spins: the
    graph that `include`, `shift`, `expect` and the oracle read."""
    w = object.__new__(BipartiteGraph)
    w.num_a, w.num_b = max(bases) + 1, g.num_b
    width = max(edges) + 1

    def by_edge(values, fill=None) -> tuple:
        """Edge id -> value, fill at the unused ids."""
        column = [fill] * width
        for f, value in enumerate(values):
            column[edges[f]] = value
        return tuple(column)

    up, down = g.step(0), g.step(1)
    lower = [()] * w.num_a
    for i, out in enumerate(up.attach):
        lower[bases[i]] = tuple(edges[f] for f in out)
    upper = tuple(tuple(edges[f] for f in out) for out in down.attach)
    # `contract_last` reads the denominators of every squared spin.
    one = RadicalScalar.one()
    w._steps = (
        Step(tuple(lower), by_edge(up.end), by_edge(up.spin), by_edge(up.spin_sq, one)),
        Step(upper, by_edge(bases[v] for v in down.end), by_edge(down.spin), by_edge(down.spin_sq, one)),
    )
    return w


def widen(x: PlanarElement, bases, edges) -> PlanarElement:
    """The element of the widened graph with the terms of x."""
    return PlanarElement(
        x.degree, {Loop(bases[l.base], tuple(edges[e] for e in l.edges)): c for l, c in x.terms.items()}
    )


def widen_map(auto: GraphAutomorphism, w, bases, edges) -> GraphAutomorphism:
    """The vertex and edge maps of auto on the widened graph's ids, the
    identity on the ids in between."""
    perm_a, perm_e = list(range(w.num_a)), list(range(len(w.step(0).end)))
    for i, image in enumerate(auto.perm_a):
        perm_a[bases[i]] = bases[image]
    for f, image in enumerate(auto.perm_e):
        perm_e[edges[f]] = edges[image]
    return GraphAutomorphism(tuple(perm_a), auto.perm_b, tuple(perm_e))


# Ids of 256 and more, so that paths are two- and four-byte strings, and
# edge ids in 0xD800-0xDFFF, so that they hold lone surrogate code points.
# (`shift` reads every lower vertex, so the bases stay below 0x200.)
WIDE = (
    ("C2-in-M2", (0x100, 0x1FF), (0x100, 0xDFFF), [([1, 0], [0], [1, 0])]),
    ("C-in-C2xM2", (0x17F,), (0x100, 0xD800, 0xDBFF, 0x10000), [([0], [1, 0, 2], [1, 0, 2, 3]), ([0], [0, 1, 2], [0, 1, 3, 2])]),
)


@pytest.mark.parametrize(("name", "bases", "edges", "autos"), WIDE, ids=[w[0] for w in WIDE])
def test_wide_ids_match_oracle(graphs, name, bases, edges, autos):
    g = graphs(name)
    w = widened(g, bases, edges)
    autos = [widen_map(make_automorphism(g, *auto), w, bases, edges) for auto in autos]
    for k, rng, parts in cases(g, radical_pool(g), degrees=(0, 1, 2, 3)):
        x, y, z = (widen(e, bases, edges) for e in parts)
        rx, ry, rz = (oracle.RefElement.of(e) for e in (x, y, z))
        agree(x * y, rx * ry)
        agree(x * y * z - z, rx * ry * rz - rz)
        agree(include(w, x), oracle.include(w, rx))
        if k <= 2:
            agree(shift(w, x), oracle.shift(w, rx))
        if k >= 1:
            agree(expect(w, x + y), oracle.expect(w, rx + ry))
        for auto in [*autos, widen_map(raw_maps(rng, g, 1)[0], w, bases, edges)]:
            agree(act(auto, x - y), oracle.act(auto, rx - ry))


@pytest.mark.parametrize(
    "loop",
    [
        Loop(0, (-1, -1)),
        Loop(-1, ()),
        Loop(0, (1.5, 1.5)),
        Loop(0, ("a", "a")),
        Loop(0, (CODE_POINTS, 0)),
        Loop(CODE_POINTS, ()),
        Loop(0, (1 << 70, 0)),
    ],
    ids=["negative-edge", "negative-base", "float", "str", "past-code-points", "base-past-code-points", "huge"],
)
def test_refuses_ids_that_are_not_code_points(loop):
    with pytest.raises(ValidationError, match="path ids must be integers"):
        PlanarElement(loop.degree, {loop: 1})


def test_surrogate_and_largest_code_points_are_ids():
    # Graph-less products over bases and edges at the ends of the range.
    top = CODE_POINTS - 1
    loops = [Loop(b, (e, f)) for b in (0xD800, top) for e in (0xDFFF, top) for f in (0xDFFF, top)]
    x = PlanarElement(1, {loop: i + 1 for i, loop in enumerate(loops)})
    y = PlanarElement(1, {loop: 2 - i for i, loop in enumerate(loops)})
    agree(x * y, oracle.RefElement.of(x) * oracle.RefElement.of(y))
    assert x.terms[Loop(top, (top, top))] == 8


@pytest.mark.parametrize("too_many", ["num_a", "edges"])
def test_refuses_graphs_past_the_code_points(too_many):
    # Assembled without `__init__` and never walked: rows(k) and every
    # element builder refuse before they read a vertex or an edge.
    g = object.__new__(BipartiteGraph)
    g.num_a, g.gamma = (CODE_POINTS + 1 if too_many == "num_a" else 1), RadicalScalar.one()
    ends = range(CODE_POINTS + 1) if too_many == "edges" else ()
    g._steps = (Step((), ends, (), ()), Step((), ends, (), ()))
    x = PlanarElement(1, {Loop(0, (0, 0)): 1})
    group = oracle.RawGroup(g, (), ())
    builders = [
        lambda: g.rows(2),
        lambda: g.paths_from(0, 2),
        lambda: g.enumerate_loops(2),
        lambda: g.unit(2),
        lambda: g.cup_cap(0, RadicalScalar.one()),
        lambda: jones_projection(g, 0),
        lambda: jones_projection_raw(g, 0),
        lambda: include(g, x),
        lambda: shift(g, x),
        lambda: reynolds(group, x),
        lambda: fixed_space_basis(group, 2),
        lambda: act(GraphAutomorphism(range(g.num_a), (), ends), x),
    ]
    for build in builders:
        with pytest.raises(ResourceLimitError, match=f"{CODE_POINTS + 1} vertices or edges"):
            build()


@pytest.mark.parametrize("name", MARKOV_GRAPHS)
def test_empty_elements(graphs, name):
    g = graphs(name)
    for k in range(4):
        zero = PlanarElement(k)
        x = random_element(random.Random(k), g.enumerate_loops(k), radical_pool(g), k)
        for result in (zero + zero, -zero, zero * zero, zero * x, x * zero, zero.scaled(g.gamma)):
            assert_normal(result)
            assert result == zero and result.terms == {}
        assert include(g, zero) == PlanarElement(k + 1)
        assert shift(g, zero) == PlanarElement(k + 2)
        assert trace(g, zero) == 0
        if k:
            assert expect(g, zero) == PlanarElement(k - 1)


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


def test_elements_built_across_a_clear_of_the_shared_table(graphs, monkeypatch):
    # The shared table is cleared when it holds _SHARED_MAX entries, so the
    # elements built before and after a clear hold different objects for
    # equal paths and numerators; they still add, multiply and compare as
    # the oracle does.
    g = graphs("C-in-C2xM2")
    monkeypatch.setattr(graph_module, "_SHARED", {})
    monkeypatch.setattr(graph_module, "_SHARED_MAX", 16)
    rng, loops, pool = random.Random(41), g.enumerate_loops(2), radical_pool(g)
    built, sizes = [], []
    for _ in range(12):
        sizes.append(len(graph_module._SHARED))
        terms = {rng.choice(loops): draw_coefficient(rng, pool) for _ in range(6)}
        built.append((PlanarElement(2, terms), oracle.RefElement(2, terms)))
    assert any(after < before for before, after in zip(sizes, sizes[1:]))
    for (x, rx), (y, ry) in zip(built, built[1:] + built[:1]):
        agree(x, rx)
        agree(x + y, rx + ry)
        agree(x * y, rx * ry)
        assert (x == y) == (rx.terms == ry.terms)
