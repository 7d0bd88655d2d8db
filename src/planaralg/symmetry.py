"""Finite symmetry groups of inclusion graphs and their fixed loop spaces.

An automorphism permutes lower vertices, upper vertices, and edges
compatibly and preserves vertex weights; it acts on loops edgewise and on
elements linearly.  The fixed space in each degree is spanned by orbit
sums, its dimension is the orbit count, and the verification routine checks
in exact arithmetic that the fixed spaces really form a subalgebra closed
under the generating annular operations and that those operations commute
with the action.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from numbers import Integral
from typing import Iterator, NamedTuple

from .errors import (
    GroupTooLargeError,
    InvalidAutomorphismError,
    NotAbelianError,
    PlanarAlgError,
    ValidationError,
)
from .graph import BipartiteGraph, Loop, PathTable, PlanarElement
from .markov import analyze
from .radical import RadicalScalar, packed_numerators

DEFAULT_GROUP_LIMIT = 10080


class GraphAutomorphism(NamedTuple):
    """Vertex and edge permutations, in one-line notation."""

    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    perm_e: tuple[int, ...]

    def compose(self, then: GraphAutomorphism) -> GraphAutomorphism:
        """First self, then the other."""
        return GraphAutomorphism(
            tuple(then.perm_a[i] for i in self.perm_a),
            tuple(then.perm_b[j] for j in self.perm_b),
            tuple(then.perm_e[e] for e in self.perm_e),
        )

    def is_identity(self) -> bool:
        return (
            self.perm_a == tuple(range(len(self.perm_a)))
            and self.perm_b == tuple(range(len(self.perm_b)))
            and self.perm_e == tuple(range(len(self.perm_e)))
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
    """Validate permutation data against a graph.

    perm_e may be omitted for simple graphs, where it is determined by the
    vertex permutations; with parallel edges it must be supplied.
    """
    perm_a = tuple(perm_a)
    perm_b = tuple(perm_b)
    _check_permutation(perm_a, g.num_a, "perm_a")
    _check_permutation(perm_b, g.num_b, "perm_b")

    if perm_e is None:
        if any(entry > 1 for row in g.inclusion.m for entry in row):
            raise InvalidAutomorphismError(
                "graph has parallel edges; perm_e must be given explicitly"
            )
        derived = []
        for edge in g.edges:
            images = g.edges_between(perm_a[edge.src], perm_b[edge.dst])
            if not images:
                raise InvalidAutomorphismError(
                    f"vertex permutations send edge {edge.id} to the pair "
                    f"(a{perm_a[edge.src]}, b{perm_b[edge.dst]}) which has no edge"
                )
            derived.append(images[0])
        perm_e = tuple(derived)
    else:
        perm_e = tuple(perm_e)
    _check_permutation(perm_e, len(g.edges), "perm_e")

    for edge in g.edges:
        image = g.edge(perm_e[edge.id])
        if image.src != perm_a[edge.src] or image.dst != perm_b[edge.dst]:
            raise InvalidAutomorphismError(
                f"edge {edge.id} maps to edge {image.id} with incompatible endpoints"
            )
    for i, target in enumerate(perm_a):
        if g.weights_a[i] != g.weights_a[target]:
            raise InvalidAutomorphismError(f"weight changes along a{i} -> a{target}")
    for j, target in enumerate(perm_b):
        if g.weights_b[j] != g.weights_b[target]:
            raise InvalidAutomorphismError(f"weight changes along b{j} -> b{target}")
    return GraphAutomorphism(perm_a, perm_b, perm_e)


def identity_automorphism(g: BipartiteGraph) -> GraphAutomorphism:
    return GraphAutomorphism(
        tuple(range(g.num_a)), tuple(range(g.num_b)), tuple(range(len(g.edges)))
    )


class GroupAction:
    """A finite automorphism group together with the graph it acts on; its
    elements are closed under composition with each generator (close_group).
    Immutable, so the tables it keeps for the fixed-point routines cannot go
    stale (docs/closure-multiply-and-burnside.md, section 12)."""

    __slots__ = ("graph", "generators", "elements", "_levels", "_cols", "_cup_caps")

    def __init__(
        self,
        graph: BipartiteGraph,
        generators: tuple[GraphAutomorphism, ...],
        elements: tuple[GraphAutomorphism, ...],
    ):
        for name, value in zip(self.__slots__, (graph, generators, elements, [], [], {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GroupAction is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def _level(self, k: int) -> _Level:
        """The graph's rows of degree k and their images under elements + generators."""
        g, levels, maps = self.graph, self._levels, self.elements + self.generators
        g.rows(k)  # rejects k < 0
        if not levels:
            levels.append(_Level(*g.rows(0), [h.perm_a[: g.num_a] for h in maps]))
        while len(levels) <= k:
            levels.append(_extend(g.rows(len(levels)), levels[-1], maps))
        return levels[k]

    def _composition(self) -> list[list[int]]:
        """cols[j][i] is the index of elements[i].compose(generators[j])."""
        if not self._cols:
            index = {h: i for i, h in enumerate(self.elements)}
            self._cols.extend([[index[h.compose(gen)] for h in self.elements] for gen in self.generators])
        return self._cols

    def _cup_cap_terms(self, k: int) -> dict[tuple[int, int], int]:
        """`g.cup_caps(k - 2)`, on the ids of the graph's rows, coefficients packed."""
        if k not in self._cup_caps:
            caps = self.graph.cup_caps(k - 2)
            self._cup_caps[k] = dict(zip(caps, packed_numerators(list(caps.values()), len(caps))))
        return self._cup_caps[k]


def close_group(
    g: BipartiteGraph,
    generators,
    limit: int = DEFAULT_GROUP_LIMIT,
) -> GroupAction:
    """Close a generator list under composition, identity included.

    Generators need not be bijective or preserve incidence, but the first n
    entries of each map must lie in 0..n-1 (InvalidAutomorphismError).
    Raises GroupTooLargeError as soon as the element count would pass the limit.
    """
    gens = tuple(generators)
    for gen in gens:
        if not isinstance(gen, GraphAutomorphism):
            raise ValidationError("generators must be GraphAutomorphism instances")
        for label, size in (("perm_a", g.num_a), ("perm_b", g.num_b), ("perm_e", len(g.edges))):
            head = getattr(gen, label)[:size]
            if len(head) < size or not all(isinstance(x, Integral) and 0 <= x < size for x in head):
                raise InvalidAutomorphismError(
                    f"{label} does not map 0..{size - 1} into itself: {head}"
                )
    seen = {identity_automorphism(g)}
    frontier = [identity_automorphism(g)]
    while frontier:
        nxt = []
        for element in frontier:
            for gen in gens:
                candidate = element.compose(gen)
                if candidate not in seen:
                    if len(seen) + 1 > limit:
                        raise GroupTooLargeError(f"group closure exceeds limit {limit}")
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    # Tuples of (perm_a, perm_b, perm_e): sorted by the three maps in turn.
    return GroupAction(g, gens, tuple(sorted(seen)))


def act_loop(auto: GraphAutomorphism, loop: Loop) -> Loop:
    # The image has as many edges as the loop, so Loop's check is skipped.
    return tuple.__new__(Loop, (auto.perm_a[loop[0]], tuple(map(auto.perm_e.__getitem__, loop[1]))))


def act(auto: GraphAutomorphism, x: PlanarElement) -> PlanarElement:
    """Linear extension of the edgewise loop action, degree-preserving.  An
    algebra automorphism for a graph automorphism; close_group also accepts
    maps that send two loops to one, and their images add up."""
    perm_a, edge = auto.perm_a, auto.perm_e.__getitem__
    return x.relabel(x.degree, lambda p: [(perm_a[p[0]], *map(edge, p[1:]))])


def reynolds(group: GroupAction, x: PlanarElement) -> PlanarElement:
    """Group averaging: the exact projection onto the fixed space, in one
    pass that sends each path to its images under all group elements."""
    maps = [(h.perm_a, h.perm_e.__getitem__) for h in group.elements]
    images = x.relabel(x.degree, lambda p: [(a[p[0]], *map(e, p[1:])) for a, e in maps])
    return images.scaled(Fraction(1, group.order))


# The graph's rows of one degree (`BipartiteGraph.rows`) and their images under
# a list of maps: images[map][row] is an id.  `ids` is the graph's, or a copy that
# adds the images that are not rows, interned after them as (id without the last
# edge, last edge), so two are equal exactly when their ids are
# (docs/closure-multiply-and-burnside.md).
_Level = namedtuple("_Level", (*PathTable._fields, "images"))


def _extend(rows: PathTable, level: _Level, maps) -> _Level:
    """The next degree: its rows, and the ids of each row's image, one map at a time."""
    ids = dict(rows.ids)
    intern, edge_maps = ids.setdefault, [h.perm_e for h in maps]
    images = [[intern((im[r], e[f]), len(ids)) for r, f in rows.ids] for im, e in zip(level.images, edge_maps)]
    return _Level(ids if len(ids) > len(rows.ids) else rows.ids, rows.where, rows.classes, images)


def _loop_order(level: _Level) -> Iterator[tuple[int, int]]:
    """The degree's loops as (top id, bottom id) in the order of `iter_loops`."""
    return ((t, s) for t, key in enumerate(level.where) for s in level.classes[key])


def _orbits(level: _Level, images: list[list[int]]) -> Iterator[tuple[tuple[int, int], list[tuple[int, int]]]]:
    """For each orbit, in `_loop_order`, its first loop and that loop's images
    under the maps; under maps that are not bijective orbits can overlap."""
    seen = set()
    for t, s in _loop_order(level):
        if (t, s) not in seen:
            orbit = [(im[t], im[s]) for im in images]
            seen.update(orbit)
            yield (t, s), orbit


def _orbit_images(group: GroupAction, k: int) -> Iterator[list[Loop]]:
    """`_orbits` of the group elements: the images of each first loop, read as loops."""
    level, paths = group._level(k), group.graph.paths(k)
    for (t, s), _ in _orbits(level, level.images[: group.order]):
        first = Loop(paths[t][0], paths[t][1:] + paths[s][:0:-1])
        yield [act_loop(h, first) for h in group.elements]


def fixed_space_basis(group: GroupAction, k: int) -> list[PlanarElement]:
    """Unnormalized orbit sums of degree-k loops, in canonical order of each
    orbit's first loop.  For groups of bijective maps they are a basis of
    the fixed space.  Under maps that are not bijective, orbits can overlap,
    the orbit sums need not be fixed, and which orbit sums appear depends on
    the order of the loop walk; so can the verifier's closure-expect verdict,
    which reads the same orbits (docs/closure-multiply-and-burnside.md)."""
    one = RadicalScalar.one()
    return [PlanarElement(k, dict.fromkeys(images, one)) for images in _orbit_images(group, k)]


def _burnside_count(group: GroupAction, level: _Level) -> int:
    """Burnside's count on the level's rows: an element fixes the loop of
    rows (t, u) exactly when it fixes both rows."""
    total = 0
    for im in level.images[: group.order]:
        for rows in level.classes.values():
            fixed = sum(im[r] == r for r in rows)
            total += fixed * fixed
    if total % group.order:
        raise PlanarAlgError("internal: fixed-point count is not divisible by the group order")
    return total // group.order


def burnside_dim(group: GroupAction, k: int) -> int:
    """Fixed-space dimension as the average number of fixed loops, counted on
    rows: an element fixes [b; t; u] exactly when it fixes the rows (b, t)
    and (b, u) (docs/closure-multiply-and-burnside.md)."""
    return _burnside_count(group, group._level(k))


def _orbit_count(group: GroupAction, level: _Level) -> int:
    """The loop orbits of a permutation group that maps loops to loops,
    counted on the level's rows by base and endpoint: the orbit of a row r
    holds one loop orbit per orbit of Stab(r) on r's class
    (docs/closure-multiply-and-burnside.md)."""
    images = level.images[: group.order]
    count, covered = 0, set()
    for rows in level.classes.values():
        for r in (r for r in rows if r not in covered):
            covered.update(im[r] for im in images)
            stabilizer = [im for im in images if im[r] == r]
            count += len({min(im[u] for im in stabilizer) for u in rows})
    return count


def fixed_dims_report(group: GroupAction, kmax: int) -> list[int]:
    """Fixed-space dimensions for degrees 0..kmax, counted two ways: by
    Burnside's lemma on paths and by orbits on rows.

    Both counts assume a group of permutations that maps loops to loops;
    close_group does not check that, so every element is checked here
    first, and every generator on each degree's rows.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    g = group.graph
    for element in group.elements:
        _check_permutation(element.perm_a, g.num_a, "perm_a")
        _check_permutation(element.perm_b, g.num_b, "perm_b")
        _check_permutation(element.perm_e, len(g.edges), "perm_e")
    dims = []
    for k, level in enumerate(map(group._level, range(kmax + 1))):
        # A generator sends every loop to a loop exactly when it maps each
        # class of rows into one class (docs/closure-multiply-and-burnside.md).
        n = len(level.where)
        for im in level.images[group.order :]:
            for rows in level.classes.values():
                targets = {level.where[x] if x < n else None for x in map(im.__getitem__, rows)}
                if len(targets) > 1 or None in targets:
                    raise InvalidAutomorphismError(f"a generator sends a degree-{k} loop to a non-loop")
        by_count = _burnside_count(group, level)
        by_orbits = _orbit_count(group, level)
        if by_count != by_orbits:
            raise PlanarAlgError(
                f"internal: degree {k} fixed dimension mismatch {by_count} != {by_orbits}"
            )
        dims.append(by_count)
    return dims


def is_centrally_ergodic(group: GroupAction) -> tuple[bool, bool]:
    """Transitivity of the action on lower and upper vertices.

    Only meaningful when the small algebra is central in the big one, so
    other inclusions are rejected.
    """
    if not analyze(group.graph.inclusion).is_abelian:
        raise NotAbelianError("central ergodicity needs a central small algebra")
    orbit_a = {0}
    orbit_b = {0}
    for element in group.elements:
        orbit_a.update(element.perm_a[i] for i in list(orbit_a))
        orbit_b.update(element.perm_b[j] for j in list(orbit_b))
    # One BFS round suffices: the element list is the whole group.
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


def _sums(pairs) -> dict:
    """Key -> sum of the integers paired with it."""
    out = {}
    for key, w in pairs:
        out[key] = out[key] + w if key in out else w
    return out


def verify_planar_subalgebra(group: GroupAction, kmax: int) -> SubalgebraReport:
    """Exact verification that the fixed spaces form a planar subalgebra.

    Per degree up to kmax, in one pass and without building an element:
    orbit sums multiply back into the fixed space, decided as injectivity of
    every generator on every orbit; include and shift send them to
    invariants, decided as that and every generator's include or shift
    equivariance; expect sends them to invariants and the Jones idempotents
    are invariant, decided as push-forwards of positive weights on loops
    (docs/closure-multiply-and-burnside.md); and every generating operation
    commutes with the action on the loop basis, decided on (base, path) rows
    for products (docs/equivariance-multiply.md) and on last edges and bases
    for the others (docs/equivariance-include-expect-shift.md).  The cup-cap
    terms and shift's prefixes are the graph's own (`cup_caps`,
    `shift_prefixes`), the ones `tangles` applies.  The report lists the
    closure checks of every degree first.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    g = group.graph
    # Include, expect and shift equivariance are the edge conditions of Lemmas
    # I, E and S (docs/equivariance-include-expect-shift.md), read on every base
    # and edge.  Expect's also needs e injective on the last edges of each class
    # of rows; shift's compares the sets of prefixes that shift puts at each
    # base, the same at every degree.
    prefixes = [sorted(g.shift_prefixes(b)) for b in range(g.num_a)]
    shifts_commute = [
        all(
            sorted((a[c], e[w], e[d]) for c, w, d in ts) == prefixes[a[b]]
            for b, ts in enumerate(prefixes)
        )
        for a, e in ((gen.perm_a, gen.perm_e) for gen in group.generators)
    ]
    cols = group._composition()
    # Both steps' squared spins, packed once: no orbit has more than |G| loops.
    packed = {id(w): packed_numerators(w, group.order) for w in (g.step(0).spin_sq, g.step(1).spin_sq)}
    closure, equivariance = [], []
    for k, level in enumerate(map(group._level, range(kmax + 1))):
        # (parent id, last edge) of every id of degree k, rows and images, and
        # the last edges of each class of rows.
        parts = list(level.ids)
        lasts = [{parts[r][1] for r in rows} for rows in level.classes.values()] if k else []
        # Rows of degree k end with the step at position k - 1; include adds
        # the step at k.
        attach = g.step(k).attach
        _, end, _, weight = g.step(k - 1)
        includes_commute = []
        for gen, im, shift_ok in zip(group.generators, level.images[group.order :], shifts_commute):
            a, e = gen.perm_a, gen.perm_e
            equivariance.append(SubalgebraCheck("equivariance-multiply", k, len(set(im)) == len(im)))
            ends = zip(range(g.num_a), a) if k == 0 else ((v, end[e[l]]) for l, v in enumerate(end))
            ok = all(sorted(map(e.__getitem__, attach[v])) == list(attach[w]) for v, w in ends)
            includes_commute.append(ok)
            equivariance.append(SubalgebraCheck("equivariance-include", k, ok))
            if k >= 1:
                ok = all(w == weight[e[l]] for l, w in enumerate(weight))
                ok = ok and all(len({e[f] for f in fs}) == len(fs) for fs in lasts)
                equivariance.append(SubalgebraCheck("equivariance-expect", k, ok))
            equivariance.append(SubalgebraCheck("equivariance-shift", k, shift_ok))
        # One walk over the loops: every generator is injective on every orbit,
        # and pushes the positive weights that expect gives the truncations of
        # the orbit's loops onto themselves (docs/closure-multiply-and-burnside.md).
        injective, expect_ok = True, k >= 1
        numerators = packed[id(weight)]
        for _, orbit in _orbits(level, level.images[: group.order]):
            at = {x: i for i, x in enumerate(orbit)}
            injective = injective and all(len({orbit[c[i]] for i in at.values()}) == len(at) for c in cols)
            if expect_ok:
                cut = {}
                for x in at:
                    (t, f), (s, f2) = parts[x[0]], parts[x[1]]
                    if f == f2:
                        cut[x] = ((t, s), numerators[f])
                weighted = _sums(cut.values())
                expect_ok = all(
                    _sums((cut[orbit[c[at[x]]]][0], w) for x, (_, w) in cut.items()) == weighted for c in cols
                )
        # Orbit sums and their include and shift images are 0/1 elements, invariant
        # exactly when each generator permutes their terms (docs/closure-multiply-and-burnside.md).
        closure.append(SubalgebraCheck("closure-multiply", k, injective))
        if k + 1 <= kmax:
            closure.append(SubalgebraCheck("closure-include", k, injective and all(includes_commute)))
        if k >= 1:
            closure.append(SubalgebraCheck("closure-expect", k, expect_ok))
        if k + 2 <= kmax:
            closure.append(SubalgebraCheck("closure-shift", k, injective and all(shifts_commute)))
        if k >= 2:
            # The terms of the raw cup-cap of degree k, which jones_projection
            # scales, have positive coefficients: pushed forward by each
            # generator, on the ids of their rows.
            terms = group._cup_cap_terms(k)
            ok = all(
                _sums(((im[t], im[s]), c) for (t, s), c in terms.items()) == terms
                for im in level.images[group.order :]
            )
            closure.append(SubalgebraCheck("projection-invariant", k, ok))

    return SubalgebraReport(kmax=kmax, group_order=group.order, checks=tuple(closure + equivariance))
