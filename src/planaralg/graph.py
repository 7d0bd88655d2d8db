"""Bipartite inclusion graphs, based loops, and exact loop-span elements.

The graph of an inclusion has one lower vertex per small block, one upper
vertex per big block, and m_ij parallel edges between lower vertex i and
upper vertex j.  Edge ids are assigned in row-major matrix order, parallel
copies last, so ids are stable and reports are reproducible.

A loop of degree k is the edge-id sequence (e_1, ..., e_2k) of a closed
walk based at a lower vertex, alternating upward and downward steps.  In
the box picture the first k edges are the top row read left to right and
the remaining k edges are the bottom row read right to left; equivalently,
both rows are length-k paths out of the base meeting at a common endpoint.
The span of degree-k loops with radical-scalar coefficients is the degree-k
piece of the loop algebra, and loops multiply like matrix units indexed by
(bottom path, top path).

Vertex weights are block dimension over the square root of total algebra
dimension on each side; the construction checks, in exact arithmetic, that
this weight vector is an eigenvector of the adjacency with eigenvalue equal
to the square root of the index.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Mapping

from .errors import DegreeMismatchError, EigenvectorViolationError, ValidationError
from .markov import InclusionData, markov_index
from .radical import RadicalScalar, sqrt_of_int, sum_scalars

SpinDirection = Literal["up", "down"]


@dataclass(frozen=True)
class Edge:
    id: int
    src: int  # lower vertex (small-side block index)
    dst: int  # upper vertex (big-side block index)


class Loop(namedtuple("Loop", "base edges")):
    """A based closed walk; ordering is the canonical (base, edges) order.

    A tuple, so hashing, equality and ordering run in C.
    """

    __slots__ = ()

    def __new__(cls, base: int, edges: tuple[int, ...]) -> Loop:
        if len(edges) % 2:
            raise ValidationError("a loop has an even number of edges")
        return tuple.__new__(cls, (base, edges))

    @property
    def degree(self) -> int:
        return len(self.edges) // 2

    def top(self) -> tuple[int, ...]:
        """First half: the top row of the box, a path out of the base."""
        return self.edges[: self.degree]

    def bottom(self) -> tuple[int, ...]:
        """Second half reversed: the bottom row read as a path out of the base."""
        return self.edges[self.degree :][::-1]

    @classmethod
    def from_paths(cls, base: int, top: tuple[int, ...], bottom: tuple[int, ...]) -> Loop:
        if len(top) != len(bottom):
            raise ValidationError("top and bottom paths must have equal length")
        return tuple.__new__(cls, (base, top + bottom[::-1]))


class PlanarElement:
    """Finite radical-scalar combination of loops of one common degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[Loop, RadicalScalar] | None = None):
        if degree < 0:
            raise ValidationError("degree must be nonnegative")
        clean: dict[Loop, RadicalScalar] = {}
        if terms:
            for loop, coeff in terms.items():
                if loop.degree != degree:
                    raise DegreeMismatchError(
                        f"loop of degree {loop.degree} in an element of degree {degree}"
                    )
                if not isinstance(coeff, RadicalScalar):
                    coeff = RadicalScalar.from_rational(coeff)
                if coeff:
                    clean[loop] = coeff
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PlanarElement is immutable")

    @classmethod
    def _normal(cls, degree: int, terms: dict[Loop, RadicalScalar]) -> PlanarElement:
        """Trusted constructor for terms whose loops all have this degree and
        whose coefficients are RadicalScalars: drops zero coefficients and
        skips the checks of __init__."""
        out = _new(cls)
        _set_degree(out, degree)
        _set_terms(out, {l: c for l, c in terms.items() if c})
        return out

    @classmethod
    def zero(cls, degree: int) -> PlanarElement:
        return cls(degree)

    @classmethod
    def basis(cls, loop: Loop) -> PlanarElement:
        return cls(loop.degree, {loop: RadicalScalar.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Loop]:
        return sorted(self.terms)

    def coefficient(self, loop: Loop) -> RadicalScalar:
        return self.terms.get(loop, RadicalScalar.zero())

    def __add__(self, other) -> PlanarElement:
        if not isinstance(other, PlanarElement):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(f"adding degrees {self.degree} and {other.degree}")
        merged = dict(self.terms)
        for loop, coeff in other.terms.items():
            prev = merged.get(loop)
            merged[loop] = coeff if prev is None else prev + coeff
        return PlanarElement._normal(self.degree, merged)

    def __neg__(self) -> PlanarElement:
        return PlanarElement._normal(self.degree, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other) -> PlanarElement:
        if not isinstance(other, PlanarElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> PlanarElement:
        if isinstance(other, PlanarElement):
            return self._compose(other)
        if isinstance(other, (RadicalScalar, int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other) -> PlanarElement:
        if isinstance(other, (RadicalScalar, int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, scalar) -> PlanarElement:
        if not isinstance(scalar, RadicalScalar):
            scalar = RadicalScalar.from_rational(scalar)
        return PlanarElement._normal(self.degree, {l: c * scalar for l, c in self.terms.items()})

    def _compose(self, other: PlanarElement) -> PlanarElement:
        """Matrix-unit product: the top row of the left factor must equal the
        bottom row of the right factor; the product keeps the left bottom row
        and the right top row."""
        h = self.degree
        if h != other.degree:
            raise DegreeMismatchError(f"multiplying degrees {h} and {other.degree}")
        # Right factors by (base, bottom row), each with its top row.
        by_bottom: dict[tuple[int, tuple[int, ...]], list[tuple[tuple[int, ...], RadicalScalar]]] = {}
        for (base, edges), coeff in other.terms.items():
            by_bottom.setdefault((base, edges[h:][::-1]), []).append((edges[:h], coeff))
        out: dict[Loop, RadicalScalar] = {}
        for (base, edges), lc in self.terms.items():
            left_tail = edges[h:]
            for right_top, rc in by_bottom.get((base, edges[:h]), ()):
                product = _new_tuple(Loop, (base, right_top + left_tail))
                coeff = lc * rc
                prev = out.get(product)
                out[product] = coeff if prev is None else prev + coeff
        return PlanarElement._normal(h, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarElement):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"PlanarElement(degree={self.degree}, 0)"
        body = " + ".join(f"({self.terms[l]})*{l.base}:{l.edges}" for l in self.support())
        return f"PlanarElement(degree={self.degree}, {body})"


_new = object.__new__
_new_tuple = tuple.__new__
_set_degree = PlanarElement.degree.__set__
_set_terms = PlanarElement.terms.__set__


class BipartiteGraph:
    """Weighted bipartite graph of a Markov inclusion with integer index."""

    def __init__(self, inclusion: InclusionData):
        self.inclusion = inclusion
        self.r = markov_index(inclusion)
        self.num_a = inclusion.rows
        self.num_b = inclusion.cols
        self.gamma = sqrt_of_int(self.r)

        inv_sqrt_dim_a = sqrt_of_int(inclusion.a.total_dim).invert()
        inv_sqrt_dim_b = sqrt_of_int(inclusion.b.total_dim).invert()
        self.weights_a = tuple(RadicalScalar.from_rational(n) * inv_sqrt_dim_a for n in inclusion.a)
        self.weights_b = tuple(RadicalScalar.from_rational(n) * inv_sqrt_dim_b for n in inclusion.b)

        edges = []
        for i, row in enumerate(inclusion.m):
            for j, count in enumerate(row):
                for _ in range(count):
                    edges.append(Edge(len(edges), i, j))
        self.edges = tuple(edges)
        self._up = tuple(
            tuple(e.id for e in edges if e.src == i) for i in range(self.num_a)
        )
        self._down = tuple(
            tuple(e.id for e in edges if e.dst == j) for j in range(self.num_b)
        )

        self._verify_eigenvector()

        spin_up = []
        for e in self.edges:
            ratio = self.weights_b[e.dst] * self.weights_a[e.src].invert()
            spin_up.append(ratio.sqrt())
        self._spin_up = tuple(spin_up)
        self._spin_down = tuple(s.invert() for s in spin_up)
        self._spin_up_sq = tuple(s * s for s in self._spin_up)
        self._spin_down_sq = tuple(s * s for s in self._spin_down)

        total = sum_scalars(w * w for w in self.weights_a)
        normalizer = total.invert()
        self._point_weight = tuple(w * w * normalizer for w in self.weights_a)

    def _verify_eigenvector(self) -> None:
        # Exact check with zero tolerance; a failure here is a bug, not input.
        for i in range(self.num_a):
            total = sum_scalars(self.weights_b[self.edges[e].dst] for e in self._up[i])
            if total != self.gamma * self.weights_a[i]:
                raise EigenvectorViolationError(
                    f"lower vertex {i}: edge weight sum {total} != gamma * {self.weights_a[i]}"
                )
        for j in range(self.num_b):
            total = sum_scalars(self.weights_a[self.edges[e].src] for e in self._down[j])
            if total != self.gamma * self.weights_b[j]:
                raise EigenvectorViolationError(
                    f"upper vertex {j}: edge weight sum {total} != gamma * {self.weights_b[j]}"
                )

    # -- edges and spins ----------------------------------------------------

    def edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def edges_up(self, i: int) -> tuple[int, ...]:
        """Ids of edges leaving lower vertex i, ascending."""
        return self._up[i]

    def edges_down(self, j: int) -> tuple[int, ...]:
        """Ids of edges arriving at upper vertex j, ascending."""
        return self._down[j]

    def edges_between(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(e for e in self._up[i] if self.edges[e].dst == j)

    def spin_factor(self, eid: int, direction: SpinDirection) -> RadicalScalar:
        """Spin of traversing an edge: up is sqrt(top weight / bottom weight),
        down is the reciprocal; the two multiply to one."""
        if direction == "up":
            return self._spin_up[eid]
        if direction == "down":
            return self._spin_down[eid]
        raise ValidationError(f"direction must be 'up' or 'down', got {direction!r}")

    def spin_factor_sq(self, eid: int, direction: SpinDirection) -> RadicalScalar:
        if direction == "up":
            return self._spin_up_sq[eid]
        if direction == "down":
            return self._spin_down_sq[eid]
        raise ValidationError(f"direction must be 'up' or 'down', got {direction!r}")

    def point_weight(self, i: int) -> RadicalScalar:
        """Weight of the degree-0 point loop at lower vertex i under the
        normalized evaluation: squared vertex weight over the total."""
        return self._point_weight[i]

    # -- paths and loops ------------------------------------------------------

    def path_end(self, base: int, path: tuple[int, ...]) -> int:
        """Endpoint vertex index of an alternating path out of a lower vertex:
        a lower index for even lengths, an upper index for odd lengths."""
        if not path:
            return base
        last = self.edges[path[-1]]
        return last.dst if len(path) % 2 else last.src

    def paths_from(self, base: int, k: int) -> list[tuple[int, ...]]:
        """All alternating edge-id paths of length k out of a lower vertex,
        in lexicographic edge-id order."""
        if not 0 <= base < self.num_a:
            raise ValidationError(f"no lower vertex {base}")
        if k < 0:
            raise ValidationError("path length must be nonnegative")
        out: list[tuple[int, ...]] = []
        path: list[int] = []

        def extend(pos: int, vertex: int) -> None:
            if pos == k:
                out.append(tuple(path))
                return
            if pos % 2 == 0:
                for eid in self._up[vertex]:
                    path.append(eid)
                    extend(pos + 1, self.edges[eid].dst)
                    path.pop()
            else:
                for eid in self._down[vertex]:
                    path.append(eid)
                    extend(pos + 1, self.edges[eid].src)
                    path.pop()

        extend(0, base)
        return out

    def iter_loops(self, k: int) -> Iterator[Loop]:
        """Degree-k loops in canonical order: by base, then by edge sequence."""
        for base in range(self.num_a):
            tops = self.paths_from(base, k)
            ends = [self.path_end(base, t) for t in tops]
            reversed_bottoms: dict[int, list[tuple[int, ...]]] = {}
            for path, end in zip(tops, ends):
                reversed_bottoms.setdefault(end, []).append(tuple(reversed(path)))
            for group in reversed_bottoms.values():
                group.sort()
            for top, end in zip(tops, ends):
                for rev_bottom in reversed_bottoms[end]:
                    yield Loop(base, top + rev_bottom)

    def enumerate_loops(self, k: int) -> list[Loop]:
        return list(self.iter_loops(k))

    def is_valid_loop(self, loop: Loop) -> bool:
        vertex = loop.base
        if not 0 <= vertex < self.num_a:
            return False
        for pos, eid in enumerate(loop.edges):
            if not 0 <= eid < len(self.edges):
                return False
            edge = self.edges[eid]
            if pos % 2 == 0:
                if edge.src != vertex:
                    return False
                vertex = edge.dst
            else:
                if edge.dst != vertex:
                    return False
                vertex = edge.src
        return vertex == loop.base

    def unit(self, k: int) -> PlanarElement:
        """Multiplicative unit of degree k: all loops with equal rows."""
        terms = {}
        for base in range(self.num_a):
            for path in self.paths_from(base, k):
                terms[Loop.from_paths(base, path, path)] = RadicalScalar.one()
        return PlanarElement(k, terms)

    def point(self, i: int) -> Loop:
        return Loop(i, ())

    def render_loop(self, loop: Loop) -> str:
        """Human-readable walk: "a0 -e1-> b2 -e0-> a1 ..."."""
        parts = [f"a{loop.base}"]
        for pos, eid in enumerate(loop.edges):
            edge = self.edges[eid]
            target = f"b{edge.dst}" if pos % 2 == 0 else f"a{edge.src}"
            parts.append(f"-e{eid}-> {target}")
        return " ".join(parts)

    def render_element(self, x: PlanarElement) -> list[str]:
        """One line per term, canonical loop order."""
        return [f"({x.terms[l]}) * {self.render_loop(l)}" for l in x.support()]


def build_graph(inc: InclusionData) -> BipartiteGraph:
    """Weighted graph of a Markov inclusion; NotMarkov when the inclusion
    is not Markov with integer index."""
    return BipartiteGraph(inc)
