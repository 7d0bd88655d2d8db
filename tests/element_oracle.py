"""Reference loop algebra: elements as plain dicts from loops to scalars.

This is the straightforward implementation that `PlanarElement` replaced:
every term is a `Loop` with a `RadicalScalar` coefficient, products walk
all pairs of terms and build each product loop, and the generating
operations rewrite loops one by one.  It is slow and obviously faithful to
the definitions in `planaralg.tangles`, so the tests compare the integer
matrix-row elements with it, operation by operation.  The dense path
counts of an inclusion, one matrix product per degree, are the reference
for the loop space dimensions that `planaralg.markov` counts as closed
walks of a Gram matrix.

`verify_temperley_lieb` here is the relation checker as first written,
the reference for `planaralg.verify_temperley_lieb`: every relation is
compared as written, two products per far commute and two triple products
per adjacent pair, and every trace is the repeated expectation of `trace`.

Not a test module (no `test_` prefix): pytest does not collect it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterator, NamedTuple

from planaralg import (
    BipartiteGraph,
    GraphAutomorphism,
    InclusionData,
    Loop,
    PlanarElement,
    RadicalScalar,
    RelationCheck,
    tangles,
)
from planaralg.graph import decode_path, encode_path

Terms = dict[Loop, RadicalScalar]


def path_end(g, base: int, path: tuple[int, ...]) -> int:
    """Endpoint vertex index of an alternating path out of a lower vertex:
    a lower index for even lengths, an upper index for odd lengths."""
    return g.step(len(path) - 1).end[path[-1]] if path else base


def path_counts(inc: InclusionData) -> Iterator[list[list[int]]]:
    """The dense count of paths: P_0 = I, P_1 = P_0 m, P_2 = P_1 m^t, ...,
    where P_k[b][v] counts the length-k paths from small-side vertex b to
    vertex v, on the small side for even k and the big side for odd k; one
    matrix product per degree."""
    mt = tuple(zip(*inc.m))
    counts = [[int(b == v) for v in range(inc.rows)] for b in range(inc.rows)]
    for k in count():
        yield counts
        columns = mt if k % 2 == 0 else inc.m
        counts = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in counts]


def loop_space_dims(inc: InclusionData) -> Iterator[int]:
    """Loop space dimensions of degree 0, 1, 2, ... from the dense path
    counts: the pairs of length-k paths with common ends."""
    return (sum(n * n for row in counts for n in row) for counts in path_counts(inc))


class RefElement:
    """A degree and a dict of nonzero coefficients."""

    def __init__(self, degree: int, terms: Terms):
        self.degree = degree
        self.terms = {loop: c for loop, c in terms.items() if c}

    @classmethod
    def of(cls, x: PlanarElement) -> RefElement:
        return cls(x.degree, x.terms)

    def __add__(self, other: RefElement) -> RefElement:
        assert self.degree == other.degree
        merged = dict(self.terms)
        for loop, coeff in other.terms.items():
            _add_term(merged, loop, coeff)
        return RefElement(self.degree, merged)

    def __neg__(self) -> RefElement:
        return RefElement(self.degree, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other: RefElement) -> RefElement:
        return self + (-other)

    def __mul__(self, other: RefElement) -> RefElement:
        """Matrix-unit product: the top row of the left factor must equal the
        bottom row of the right factor; the product keeps the left bottom row
        and the right top row."""
        h = self.degree
        assert h == other.degree
        out: Terms = {}
        for left, lc in self.terms.items():
            for right, rc in other.terms.items():
                if left.base == right.base and left.top() == right.bottom():
                    _add_term(out, Loop.from_paths(left.base, right.top(), left.bottom()), lc * rc)
        return RefElement(h, out)

    def scaled(self, scalar: RadicalScalar) -> RefElement:
        return RefElement(self.degree, {l: c * scalar for l, c in self.terms.items()})

    def adjoint(self) -> RefElement:
        """The involution: each loop read backwards, its two rows swapped,
        with its coefficient, a real number."""
        return RefElement(self.degree, {Loop.from_paths(l.base, l.bottom(), l.top()): c for l, c in self.terms.items()})


def _add_term(acc: Terms, loop: Loop, coeff: RadicalScalar) -> None:
    prev = acc.get(loop)
    acc[loop] = coeff if prev is None else prev + coeff


def include(g, x: RefElement) -> RefElement:
    k = x.degree
    out: Terms = {}
    for loop, coeff in x.terms.items():
        end = path_end(g, loop.base, loop.top())
        for eid in g.step(k).attach[end]:
            grown = Loop.from_paths(loop.base, loop.top() + (eid,), loop.bottom() + (eid,))
            _add_term(out, grown, coeff)
    return RefElement(k + 1, out)


def shift(g, x: RefElement) -> RefElement:
    out: Terms = {}
    for loop, coeff in x.terms.items():
        for down_eid in g.edges_up(loop.base):
            for up_eid in g.step(1).attach[g.edge(down_eid).dst]:
                prefix = (up_eid, down_eid)
                grown = Loop.from_paths(g.edge(up_eid).src, prefix + loop.top(), prefix + loop.bottom())
                _add_term(out, grown, coeff)
    return RefElement(x.degree + 2, out)


def expect(g, x: RefElement) -> RefElement:
    d = x.degree
    assert d >= 1
    out: Terms = {}
    for loop, coeff in x.terms.items():
        top, bottom = loop.top(), loop.bottom()
        if top[-1] != bottom[-1]:
            continue
        weight = g.step(d - 1).spin_sq[top[-1]]
        _add_term(out, Loop.from_paths(loop.base, top[:-1], bottom[:-1]), coeff * weight)
    return RefElement(d - 1, out)


def jones_projection(g, k: int) -> RefElement:
    direction = "up" if k % 2 == 0 else "down"
    scale = g.gamma.invert()
    out: Terms = {}
    for base in range(g.num_a):
        for path in g.paths_from(base, k):
            end = path_end(g, base, path)
            attachable = g.step(k).attach[end]
            for bottom_eid in attachable:
                for top_eid in attachable:
                    coeff = g.spin_factor(top_eid, direction) * g.spin_factor(bottom_eid, direction)
                    loop = Loop.from_paths(base, path + (top_eid, top_eid), path + (bottom_eid, bottom_eid))
                    _add_term(out, loop, coeff * scale)
    return RefElement(k + 2, out)


def diagonal_sums(g, x: RefElement) -> dict[tuple[int, int], RadicalScalar]:
    """The coefficients of the loops with equal rows, summed per (base,
    endpoint) block; blocks without such a loop left out."""
    sums: dict[tuple[int, int], RadicalScalar] = {}
    for loop, coeff in x.terms.items():
        if loop.top() == loop.bottom():
            block = (loop.base, path_end(g, loop.base, loop.top()))
            sums[block] = sums.get(block, RadicalScalar.zero()) + coeff
    return sums


def trace(g, x: RefElement) -> RadicalScalar:
    k = x.degree
    reduced = x
    for _ in range(k):
        reduced = expect(g, reduced)
    total = RadicalScalar.zero()
    for loop, coeff in reduced.terms.items():
        total = total + coeff * g.point_weight(loop.base)
    return total * g.gamma.invert() ** k


def verify_temperley_lieb(g, kmax: int) -> list[RelationCheck]:
    """The checks of `planaralg.verify_temperley_lieb`, in its order, each
    formed as the relation reads: e e == e; the trace of e_k by repeated
    expectation; low high low and high low high against their multiples;
    low e_l == e_l low.  Products are PlanarElement products, and the
    traces are formed on the dict-of-loops element."""
    proj = {k: tangles.jones_projection(g, k) for k in range(kmax + 1)}
    inv_r = g.gamma.invert() ** 2
    checks = []
    for k in range(kmax + 1):
        e = proj[k]
        checks.append(RelationCheck("idempotent", (k,), e * e == e))
        checks.append(RelationCheck("trace", (k,), trace(g, RefElement.of(e)) == inv_r))
    bounces, far_commutes = [], []
    for k in range(kmax):
        low = tangles.include(g, proj[k])
        high = proj[k + 1]
        bounces.append(RelationCheck("bounce-low", (k, k + 1), low * high * low == low.scaled(inv_r)))
        bounces.append(RelationCheck("bounce-high", (k + 1, k), high * low * high == high.scaled(inv_r)))
        for l in range(k + 2, kmax + 1):
            low = tangles.include(g, low)
            far_commutes.append(RelationCheck("far-commute", (k, l), low * proj[l] == proj[l] * low))
    return checks + bounces + far_commutes


def act(auto, x: RefElement) -> RefElement:
    """Linear extension of the edgewise action: images that meet add up."""
    out: Terms = {}
    for loop, coeff in x.terms.items():
        image = Loop(auto.perm_a[loop.base], tuple(auto.perm_e[e] for e in loop.edges))
        _add_term(out, image, coeff)
    return RefElement(x.degree, out)


def relabel(x: RefElement, degree: int, images) -> RefElement:
    """Each loop, with bottom row r and top row c read as based paths,
    becomes the degree-`degree` loops with bottom row images(r)[i] and top
    row images(c)[i], one by one: images that meet add up."""
    out: Terms = {}
    for loop, coeff in x.terms.items():
        row, col = (encode_path((loop.base, *half)) for half in (loop.bottom(), loop.top()))
        for bottom, top in zip(images(row), images(col)):
            _add_term(out, Loop.from_paths(ord(bottom[0]), decode_path(top[1:]), decode_path(bottom[1:])), coeff)
    return RefElement(degree, out)


def reynolds(group, x: RefElement) -> RefElement:
    """The sum of the images under every group element, over the order."""
    total = RefElement(x.degree, {})
    for element in group.elements:
        total = total + act(element, x)
    return total.scaled(RadicalScalar.from_rational(Fraction(1, group.order)))


class RawGroup(NamedTuple):
    """The group that maps generate, unchecked: what the loop oracles and
    `reynolds` read (graph, generators, elements, order), for maps that
    close_group refuses and for graphs without weights."""

    graph: BipartiteGraph
    generators: tuple
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def identity_automorphism(g: BipartiteGraph) -> GraphAutomorphism:
    """The identity of g: every vertex and edge to itself."""
    return GraphAutomorphism(tuple(range(g.num_a)), tuple(range(g.num_b)), tuple(range(len(g.edges))))


def raw_group(g, gens) -> RawGroup:
    identity = identity_automorphism(g)
    elements, frontier = {identity}, [identity]
    while frontier:
        frontier = {h.compose(gen) for h in frontier for gen in gens} - elements
        elements |= frontier
    return RawGroup(g, tuple(gens), tuple(sorted(elements)))


def path_ids(g, k: int) -> list[tuple[int, ...]]:
    """The graph's based paths of length k, `g.rows(k).paths` in id order,
    each as the int tuple (base, e1, ..., ek)."""
    return [decode_path(p) for p in g.rows(k).paths]


def row_images(group, k: int) -> list[list[int]]:
    """The ids of the images of the graph's rows of degree k under the group
    elements, images[element][row], built by induction on the degree: a row
    of degree d + 1 is a row of degree d, its parent, extended by one edge,
    and its image extends the parent's image by the edge's image
    (docs/closure-multiply-and-burnside.md, section 9, Lemma 5).  The ids
    of each degree are keyed by (parent id, last edge), read off the graph's
    paths, so no image is looked up by its path."""
    g = group.graph
    images = [h.perm_a for h in group.elements]
    parents = {(b,): b for b in range(g.num_a)}
    for d in range(1, k + 1):
        paths = path_ids(g, d)
        ids = {(parents[p[:-1]], p[-1]): r for r, p in enumerate(paths)}
        images = [[ids[im[r], h.perm_e[f]] for r, f in ids] for im, h in zip(images, group.elements)]
        parents = {p: r for r, p in enumerate(paths)}
    return images


def includes_commute(g, gen, k: int) -> bool:
    """Include's edge condition (I) at degree k: the generator sends the edges
    attached at each row's endpoint onto those attached at its image's
    (docs/equivariance-include-expect-shift.md, section 3)."""
    a, e, attach, end = gen.perm_a, gen.perm_e, g.step(k).attach, g.step(k - 1).end
    ends = zip(range(g.num_a), a) if k == 0 else ((v, end[e[l]]) for l, v in enumerate(end))
    return all(sorted(map(e.__getitem__, attach[v])) == list(attach[w]) for v, w in ends)


def edge_condition(g, gen) -> bool:
    """Shift's edge condition (S): (I) at degrees 0 and 1.  Incidence implies
    it, and it makes perm_a and perm_e send every loop of every degree to a
    loop (docs/closure-multiply-and-burnside.md, section 2); close_group
    checks incidence and the weights instead."""
    return includes_commute(g, gen, 0) and includes_commute(g, gen, 1)
