"""Finite symmetry groups of inclusion graphs and their fixed loop spaces.

A group element is an automorphism: it permutes lower vertices, upper
vertices, and edges compatibly and preserves vertex weights; it acts on
loops edgewise and on elements linearly.  make_automorphism is the one
check of that.  close_group, the only builder of a GroupAction, runs it
on each generator, and a copy of a group runs close_group again, so every
group maps loops to loops and every routine that reads the group takes it
as given.  The fixed space in each degree is spanned by orbit sums, its
dimension is the orbit count, which Burnside's lemma gives as a count of
closed walks of the Gram matrix of each element's fixed subgraph, formed
once for each orbit of fixed subgraphs under the group and counted by the
same counter as the loop space dimensions of markov, and the verification
routine reports that the fixed spaces form a subalgebra closed under the
generating annular operations and that those operations commute with the
action, which holds for every group accepted.
"""

from __future__ import annotations

from functools import cache
from numbers import Integral
from operator import eq
from typing import Callable, NamedTuple

from .errors import (
    GroupTooLargeError,
    InvalidAutomorphismError,
    NotAbelianError,
    PlanarAlgError,
    ValidationError,
)
from .graph import BipartiteGraph, Loop, Path, PlanarElement, check_path_ids, encode_path
from .markov import _closed_walks, _gram, analyze

DEFAULT_GROUP_LIMIT = 10080


class GraphAutomorphism(NamedTuple):
    """Vertex and edge permutations, in one-line notation."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    perm_e: tuple[int, ...]

    def compose(self, then: GraphAutomorphism) -> GraphAutomorphism:
        """First self, then the other."""
        return GraphAutomorphism(
            tuple(map(then.perm_a.__getitem__, self.perm_a)),
            tuple(map(then.perm_b.__getitem__, self.perm_b)),
            tuple(map(then.perm_e.__getitem__, self.perm_e)),
        )


def _check_permutation(perm: tuple[int, ...], size: int, label: str) -> None:
    if not all(type(x) is int or isinstance(x, Integral) and not isinstance(x, bool) for x in perm):
        raise InvalidAutomorphismError(f"{label} has an entry that is not an integer: {perm}")
    if len(perm) != size or sorted(perm) != list(range(size)):
        raise InvalidAutomorphismError(f"{label} is not a permutation of 0..{size - 1}: {perm}")


def make_automorphism(
    g: BipartiteGraph,
    perm_a,
    perm_b,
    perm_e=None,
) -> GraphAutomorphism:
    """Validate permutation data against a graph: the one check of a group
    element, which close_group runs on each generator.

    Each map must be a permutation of its vertex or edge list, every edge
    must go to an edge between the images of its endpoints (incidence), and
    every vertex to one of the same weight, that is of the same block
    dimension (InvalidAutomorphismError).
    perm_e may be omitted for simple graphs, where it is determined by the
    vertex permutations; with parallel edges it must be supplied.
    """
    perm_a = tuple(perm_a)
    perm_b = tuple(perm_b)
    _check_permutation(perm_a, g.num_a, "perm_a")
    _check_permutation(perm_b, g.num_b, "perm_b")

    pairs = list(zip(g.step(1).end, g.step(0).end))  # edge id -> (lower, upper)
    if perm_e is None:
        if any(count > 1 for row in g.inclusion._sparse.values() for count in row.values()):
            raise InvalidAutomorphismError("graph has parallel edges; perm_e must be given explicitly")
        between = {pair: e for e, pair in enumerate(pairs)}  # (lower, upper) -> its one edge
        derived = []
        for e, (i, j) in enumerate(pairs):
            image = between.get((perm_a[i], perm_b[j]))
            if image is None:
                raise InvalidAutomorphismError(
                    f"vertex permutations send edge {e} to the pair (a{perm_a[i]}, b{perm_b[j]}) which has no edge"
                )
            derived.append(image)
        perm_e = tuple(derived)
    else:
        perm_e = tuple(perm_e)
    _check_permutation(perm_e, len(pairs), "perm_e")

    for e, (f, (i, j)) in enumerate(zip(perm_e, pairs)):
        if pairs[f] != (perm_a[i], perm_b[j]):
            raise InvalidAutomorphismError(f"edge {e} maps to edge {int(f)} with incompatible endpoints")
    # A weight n / sqrt(dim) is equal across blocks of one side exactly when
    # the block dimensions n are, so the integers decide it.
    for side, dims, perm in (("a", g.inclusion.a, perm_a), ("b", g.inclusion.b, perm_b)):
        for i, target in enumerate(perm):
            if dims[i] != dims[target]:
                raise InvalidAutomorphismError(f"weight changes along {side}{i} -> {side}{target}")
    return GraphAutomorphism(perm_a, perm_b, perm_e)


class GroupAction:
    """A finite group of automorphisms of a graph, together with the graph;
    close_group is its only builder, so every instance is a closed group of
    checked automorphisms.  Immutable, so the one table it keeps cannot go
    stale: for each orbit of its elements' fixed subgraphs, the fixed bases
    and the Gram matrix of one of them, for the fixed dimensions, a
    function of the graph, the generators and the elements.  The counts
    that read it return the same values in any order and number of calls."""

    __slots__ = ("graph", "generators", "elements", "_fixed")

    def __new__(cls, *args, **kwargs):
        raise TypeError("GroupAction is built only by close_group(graph, generators)")

    def __setattr__(self, name, value):
        raise AttributeError("GroupAction is immutable")

    def __reduce__(self):
        # A copy checks and closes the generators again, up to the group's order.
        return close_group, (self.graph, self.generators, self.order)

    @property
    def order(self) -> int:
        return len(self.elements)


def _fixed_subgraphs(g: BipartiteGraph, generators, elements) -> tuple:
    """One pair (fixed lower vertices, fixed edges counted per bundle) from
    each orbit of the elements' pairs under the generators, as (bases,
    gram, count): count elements have a pair in the orbit, and gram is the
    Gram matrix F F^t of the fixed edges' multiplicity matrix F on its
    smaller side, empty when no edge is fixed.  The m_ij parallel edges
    from lower vertex i to upper vertex j are one bundle, a run of
    consecutive ids, and only a bundle whose two ends an element fixes can
    hold its fixed edges.  A generator sigma maps the pair of h onto that of
    sigma h sigma^-1, which fixes as many loops at every degree, so the
    orbit's elements share one count (docs/closure-multiply-and-burnside.md,
    section 5)."""
    bundles, first = [], 0  # (i, j, first id, end id) in id order
    for i, row in g.inclusion._sparse.items():
        for j, count in row.items():
            bundles.append((i, j, first, first + count))
            first += count
    shared = {}
    for h in elements:
        a, b, e = h
        bases = tuple([v for v, image in enumerate(a) if v == image])
        fixed = [(i, j, sum(map(eq, e[lo:hi], range(lo, hi)))) for i, j, lo, hi in bundles if a[i] == i and b[j] == j]
        key = (bases, frozenset([bundle for bundle in fixed if bundle[2]]))
        shared[key] = shared.get(key, 0) + 1
    table = []
    while shared:
        key, n = shared.popitem()
        pending = [key]
        while pending:
            bases, fixed = pending.pop()
            for sigma in generators:
                a, b = sigma.perm_a, sigma.perm_b
                image = (tuple(sorted([a[v] for v in bases])), frozenset([(a[i], b[j], c) for i, j, c in fixed]))
                if image in shared:
                    n += shared.pop(image)
                    pending.append(image)
        bases, fixed = key
        matrix = {}  # lower vertex -> upper vertex -> the fixed edges between them
        for i, j, c in fixed:
            matrix.setdefault(i, {})[j] = c
        table.append((bases, _gram(matrix), n))
    return tuple(table)


def close_group(
    g: BipartiteGraph,
    generators,
    limit: int = DEFAULT_GROUP_LIMIT,
) -> GroupAction:
    """The only builder of a GroupAction: closes a generator list under
    composition, identity included.

    Each generator, read in turn from the iterable, must be a
    GraphAutomorphism that make_automorphism accepts, with its perm_b: a
    weight-preserving graph automorphism (InvalidAutomorphismError, with
    make_automorphism's messages).  Incidence gives include's edge
    condition at degrees 0 and 1, so the group maps every loop of every
    degree to a loop (docs/closure-multiply-and-burnside.md, section 2).
    Raises GroupTooLargeError as soon as the element count would pass the
    limit, which a copy of the group sets to its order, and ValidationError
    for a limit below 1, which not even the identity fits under.
    """
    if limit < 1:
        raise ValidationError(f"group limit must be at least 1, got {limit}")
    gens = []
    for gen in generators:
        if not isinstance(gen, GraphAutomorphism):
            raise ValidationError("generators must be GraphAutomorphism instances")
        gens.append(make_automorphism(g, *gen))
    found = [GraphAutomorphism(tuple(range(g.num_a)), tuple(range(g.num_b)), tuple(range(len(g.step(0).end))))]
    seen = set(found)
    for element in found:  # breadth first: found grows while it is walked
        for gen in gens:
            candidate = element.compose(gen)
            if candidate not in seen:
                if len(seen) + 1 > limit:
                    raise GroupTooLargeError(f"group closure exceeds limit {limit}")
                seen.add(candidate)
                found.append(candidate)
    # Tuples of (perm_a, perm_b, perm_e): sorted by the three maps in turn.
    elements = tuple(sorted(seen))
    group = object.__new__(GroupAction)
    for name, value in zip(GroupAction.__slots__, (g, tuple(gens), elements, _fixed_subgraphs(g, gens, elements))):
        object.__setattr__(group, name, value)
    return group


def act_loop(auto: GraphAutomorphism, loop: Loop) -> Loop:
    # The image has as many edges as the loop, so Loop's check is skipped.
    return tuple.__new__(Loop, (auto.perm_a[loop[0]], tuple(map(auto.perm_e.__getitem__, loop[1]))))


def _path_images(elements) -> Callable[[Path], list[Path]]:
    """The map that sends a based path to its images under the elements, in
    order: the base through perm_a, each edge through perm_e."""
    maps = []
    for h in elements:
        check_path_ids(len(h.perm_a), len(h.perm_e))
        maps.append((encode_path(h.perm_a), encode_path(h.perm_e)))
    return lambda p: [a[ord(p[0])] + p[1:].translate(e) for a, e in maps]


def act(auto: GraphAutomorphism, x: PlanarElement) -> PlanarElement:
    """Linear extension of the edgewise loop action, degree-preserving: an
    algebra automorphism for a graph automorphism."""
    return x._relabel(x.degree, _path_images((auto,)))


def reynolds(group: GroupAction, x: PlanarElement) -> PlanarElement:
    """Group averaging: the exact projection onto the fixed space, in one
    pass that sends each path to its images under all group elements."""
    g = group.graph
    check_path_ids(g.num_a, len(g.step(0).end))
    return x._relabel(x.degree, _path_images(group.elements), group.order)


def fixed_space_basis(group: GroupAction, k: int) -> list[PlanarElement]:
    """Unnormalized orbit sums of degree-k loops, in canonical order of each
    orbit's first loop: a basis of the fixed space.  The loops are walked
    in the order of iter_loops, as the (row, column) pairs of path strings
    of `_loop_rows`, and each loop that no earlier orbit holds starts a new
    orbit, its images under the group elements (`_path_images` of both
    paths), each of them one loop of the sum, with no loop decoded
    (docs/closure-multiply-and-burnside.md, sections 1 and 2).  It keeps
    nothing on the group."""
    images = cache(_path_images(group.elements))
    (paths, where), classes = group.graph._loop_rows(k)
    basis, seen = [], set()
    for top, key in zip(paths, where):
        for bottom in classes[key]:
            if (bottom, top) not in seen:
                # A loop is the pair (row, column) = (bottom, top) of its paths.
                orbit = dict.fromkeys(zip(images(bottom), images(top)))
                seen.update(orbit)
                basis.append(PlanarElement._of_paths(k, orbit))
    return basis


def fixed_dims_report(group: GroupAction, kmax: int) -> list[int]:
    """Fixed-space dimensions for degrees 0..kmax by Burnside's lemma: the
    average number of loops an element fixes.  An element fixes [b; t; u]
    exactly when it fixes b and every edge of t and u, so it fixes its
    fixed bases at degree 0 and, at degree k >= 1, the pairs of length-k
    paths with common ends in its fixed subgraph: trace (F F^t)^k, F the
    multiplicity matrix of its fixed edges.  Elements whose fixed subgraphs
    lie in one orbit fix as many, so each orbit's Gram matrix, formed once
    per group, gives its closed walks to kmax, one sparse product for every
    two degrees, and an orbit with no fixed edge adds to degree 0 only
    (docs/closure-multiply-and-burnside.md, section 5)."""
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    totals = [0] * (kmax + 1)
    for bases, gram, count in group._fixed:
        totals[0] += count * len(bases)
        if gram:
            for k, walks in zip(range(1, kmax + 1), _closed_walks(gram)):
                totals[k] += count * walks
    order = group.order
    dims = [total // order for total in totals]
    if [dim * order for dim in dims] != totals:
        raise PlanarAlgError("internal: fixed-point count is not divisible by the group order")
    return dims


def is_centrally_ergodic(group: GroupAction) -> tuple[bool, bool]:
    """Transitivity of the action on lower and upper vertices.

    Only meaningful when the small algebra is central in the big one, so
    other inclusions are rejected.
    """
    if not analyze(group.graph.inclusion).is_abelian:
        raise NotAbelianError("central ergodicity needs a central small algebra")
    orbit_a = {h.perm_a[0] for h in group.elements}
    orbit_b = {h.perm_b[0] for h in group.elements}
    return len(orbit_a) == group.graph.num_a, len(orbit_b) == group.graph.num_b


class SubalgebraCheck(NamedTuple):
    name: str
    degree: int
    passed: bool


class SubalgebraReport(NamedTuple):
    kmax: int
    group_order: int
    checks: tuple[SubalgebraCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_planar_subalgebra(group: GroupAction, kmax: int) -> SubalgebraReport:
    """Exact verification that the fixed spaces form a planar subalgebra.

    Per degree up to kmax: closure under multiply, include, expect and
    shift, invariance of the Jones projections, and, per generator,
    equivariance of multiply, include, expect and shift.  close_group
    accepts only groups that map every loop to a loop, and every such group
    passes every check (docs/closure-multiply-and-burnside.md, sections 3,
    4 and 8; docs/equivariance-multiply.md), so the report is formed
    without computing a verdict, building an element or reading a row.
    It lists the closure checks of every degree first.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    # tuple.__new__ builds each check without NamedTuple's Python-level
    # __new__; one degree's equivariance block serves every generator.
    new, check, copies = tuple.__new__, SubalgebraCheck, len(group.generators)
    closure, equivariance = [], []
    for k in range(kmax + 1):
        closure.append(new(check, ("closure-multiply", k, True)))
        if k < kmax:
            closure.append(new(check, ("closure-include", k, True)))
        if k >= 1:
            closure.append(new(check, ("closure-expect", k, True)))
        if k + 2 <= kmax:
            closure.append(new(check, ("closure-shift", k, True)))
        if k >= 2:
            closure.append(new(check, ("projection-invariant", k, True)))
        block = [new(check, ("equivariance-multiply", k, True)), new(check, ("equivariance-include", k, True))]
        if k >= 1:
            block.append(new(check, ("equivariance-expect", k, True)))
        block.append(new(check, ("equivariance-shift", k, True)))
        equivariance += block * copies
    return SubalgebraReport(kmax, group.order, tuple(closure + equivariance))
