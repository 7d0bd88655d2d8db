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

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GroupTooLargeError,
    InvalidAutomorphismError,
    NotAbelianError,
    PlanarAlgError,
    ValidationError,
)
from .graph import BipartiteGraph, Loop, PlanarElement
from .markov import analyze
from .radical import RadicalScalar
from .tangles import expect, include, jones_projection, shift

DEFAULT_GROUP_LIMIT = 10080


@dataclass(frozen=True)
class GraphAutomorphism:
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
    """A finite automorphism group together with the graph it acts on."""

    def __init__(
        self,
        graph: BipartiteGraph,
        generators: tuple[GraphAutomorphism, ...],
        elements: tuple[GraphAutomorphism, ...],
    ):
        self.graph = graph
        self.generators = generators
        self.elements = elements

    @property
    def order(self) -> int:
        return len(self.elements)


def close_group(
    g: BipartiteGraph,
    generators,
    limit: int = DEFAULT_GROUP_LIMIT,
) -> GroupAction:
    """Close a generator list under composition, identity included.

    Raises GroupTooLargeError as soon as the element count would pass the limit.
    """
    gens = tuple(generators)
    for gen in gens:
        if not isinstance(gen, GraphAutomorphism):
            raise ValidationError("generators must be GraphAutomorphism instances")
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
    ordered = tuple(sorted(seen, key=lambda e: (e.perm_a, e.perm_b, e.perm_e)))
    return GroupAction(g, gens, ordered)


def act_loop(auto: GraphAutomorphism, loop: Loop) -> Loop:
    return Loop(auto.perm_a[loop.base], tuple(map(auto.perm_e.__getitem__, loop.edges)))


def act(auto: GraphAutomorphism, x: PlanarElement) -> PlanarElement:
    """Linear extension of the edgewise loop action; a degree-preserving
    algebra automorphism."""
    return PlanarElement._normal(x.degree, {act_loop(auto, l): c for l, c in x.terms.items()})


def reynolds(group: GroupAction, x: PlanarElement) -> PlanarElement:
    """Group averaging: the exact projection onto the fixed space."""
    total = PlanarElement.zero(x.degree)
    for element in group.elements:
        total = total + act(element, x)
    return total.scaled(Fraction(1, group.order))


def fixed_space_basis(group: GroupAction, k: int) -> list[PlanarElement]:
    """Unnormalized orbit sums of degree-k loops, ordered by the canonical
    least loop of each orbit."""
    basis = []
    seen: set[Loop] = set()
    for loop in group.graph.iter_loops(k):
        if loop in seen:
            continue
        orbit = {act_loop(element, loop) for element in group.elements}
        seen.update(orbit)
        basis.append(PlanarElement(k, {l: RadicalScalar.one() for l in orbit}))
    return basis


def burnside_dim(group: GroupAction, k: int) -> int:
    """Fixed-space dimension as the average number of fixed loops."""
    total = 0
    for loop in group.graph.iter_loops(k):
        for element in group.elements:
            if act_loop(element, loop) == loop:
                total += 1
    if total % group.order:
        raise PlanarAlgError("internal: fixed-point count is not divisible by the group order")
    return total // group.order


def fixed_dims_report(group: GroupAction, kmax: int) -> list[int]:
    """Fixed-space dimensions for degrees 0..kmax, counted two ways.

    Both counts assume a group of permutations; close_group does not check
    its generators, so every element is checked here first.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    g = group.graph
    for element in group.elements:
        _check_permutation(element.perm_a, g.num_a, "perm_a")
        _check_permutation(element.perm_b, g.num_b, "perm_b")
        _check_permutation(element.perm_e, len(g.edges), "perm_e")
    dims = []
    for k in range(kmax + 1):
        by_count = burnside_dim(group, k)
        by_orbits = len(fixed_space_basis(group, k))
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


@dataclass(frozen=True)
class SubalgebraCheck:
    name: str
    degree: int
    passed: bool


@dataclass(frozen=True)
class SubalgebraReport:
    kmax: int
    group_order: int
    checks: tuple[SubalgebraCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _invariant(group: GroupAction, x: PlanarElement) -> bool:
    return all(act(gen, x) == x for gen in group.generators)


def _multiplicative(auto: GraphAutomorphism, rows: list[tuple[int, tuple[int, ...]]]) -> bool:
    """Whether act(auto, x * y) == act(auto, x) * act(auto, y) for all basis
    loops x, y of one degree, given that degree's (base, path) rows.

    Loops multiply as matrix units indexed by rows and act relabels rows, so
    this holds exactly when the relabeling of rows is injective; the proof
    is in docs/equivariance-multiply.md.
    """
    images = {(auto.perm_a[b], tuple(map(auto.perm_e.__getitem__, p))) for b, p in rows}
    return len(images) == len(rows)


def verify_planar_subalgebra(group: GroupAction, kmax: int) -> SubalgebraReport:
    """Exact verification that the fixed spaces form a planar subalgebra.

    Per degree up to kmax: orbit sums multiply back into the fixed space;
    inclusion, expectation, and shift send orbit sums to invariants; the
    Jones idempotents are invariant; and every generating operation
    commutes with the group action on the full loop basis.  Multiplication
    is checked on the (base, path) rows of the loop basis rather than on
    all pairs of loops; docs/equivariance-multiply.md proves the two
    checks agree.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    g = group.graph
    checks: list[SubalgebraCheck] = []
    bases = {k: fixed_space_basis(group, k) for k in range(kmax + 1)}
    loop_elems = {
        k: [PlanarElement.basis(l) for l in g.iter_loops(k)] for k in range(kmax + 1)
    }

    for k in range(kmax + 1):
        basis = bases[k]
        ok = all(_invariant(group, x * y) for x in basis for y in basis)
        checks.append(SubalgebraCheck("closure-multiply", k, ok))
        if k + 1 <= kmax:
            ok = all(_invariant(group, include(g, x)) for x in basis)
            checks.append(SubalgebraCheck("closure-include", k, ok))
        if k >= 1:
            ok = all(_invariant(group, expect(g, x)) for x in basis)
            checks.append(SubalgebraCheck("closure-expect", k, ok))
        if k + 2 <= kmax:
            ok = all(_invariant(group, shift(g, x)) for x in basis)
            checks.append(SubalgebraCheck("closure-shift", k, ok))
        if k >= 2:
            ok = _invariant(group, jones_projection(g, k - 2))
            checks.append(SubalgebraCheck("projection-invariant", k, ok))

    for k in range(kmax + 1):
        elems = loop_elems[k]
        rows = [(b, p) for b in range(g.num_a) for p in g.paths_from(b, k)]
        for gen in group.generators:
            ok = _multiplicative(gen, rows)
            checks.append(SubalgebraCheck("equivariance-multiply", k, ok))
            ok = all(act(gen, include(g, x)) == include(g, act(gen, x)) for x in elems)
            checks.append(SubalgebraCheck("equivariance-include", k, ok))
            if k >= 1:
                ok = all(act(gen, expect(g, x)) == expect(g, act(gen, x)) for x in elems)
                checks.append(SubalgebraCheck("equivariance-expect", k, ok))
            ok = all(act(gen, shift(g, x)) == shift(g, act(gen, x)) for x in elems)
            checks.append(SubalgebraCheck("equivariance-shift", k, ok))

    return SubalgebraReport(kmax=kmax, group_order=group.order, checks=tuple(checks))
