"""The generating annular operations on loop elements.

Everything here is linear in each loop argument, so the definitions are
given on basis loops written as (top row / bottom row), both rows read as
paths out of the base:

  multiply          glue two boxes: left top row must equal right bottom
                    row; keeps left bottom and right top.
  include           append one extra through-string at the right: every
                    edge attachable at the common endpoint of the two rows
                    is adjoined to both rows.
  shift             prepend two through-strings at the left: a downward
                    edge at the base and an upward edge into its upper
                    vertex, the same prefix on both rows; the new base is
                    the lower end of the prepended upward edge.
  expect            contract the last column: the two last edges must agree
                    and are removed, contributing the squared spin of the
                    traversal direction of the removed position.
  jones_projection  the cup-cap element: over every path and every pair of
                    edges attachable at its endpoint, bounce one edge up and
                    back on each row, weighted by the two spins; normalized
                    by the inverse graph eigenvalue to be an idempotent.
  trace             contract everything: repeated expectation down to
                    degree zero, then the normalized point evaluation,
                    scaled by the inverse eigenvalue power.

Programs are linear pipelines over these generators with an explicit count
of closed circles; running a program multiplies by eigenvalue^circles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegreeMismatchError, TangleProgramError, ValidationError
from .graph import BipartiteGraph, Loop, PlanarElement
from .radical import RadicalScalar

_STEP_RE = re.compile(r"^([1MIJUE])(\d+)$")


def _add_term(acc: dict[Loop, RadicalScalar], loop: Loop, coeff: RadicalScalar) -> None:
    prev = acc.get(loop)
    acc[loop] = coeff if prev is None else prev + coeff


def identity(x: PlanarElement) -> PlanarElement:
    return x


def multiply(x: PlanarElement, y: PlanarElement) -> PlanarElement:
    """Box gluing; same as x * y."""
    return x * y


def include(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Unital algebra morphism from degree k to degree k+1."""
    k = x.degree
    out: dict[Loop, RadicalScalar] = {}
    for (base, edges), coeff in x.terms.items():
        end = g.path_end(base, edges[:k])
        attachable = g.edges_up(end) if k % 2 == 0 else g.edges_down(end)
        # Distinct (loop, edge) pairs give distinct loops, so no term merges.
        for eid in attachable:
            out[Loop(base, edges[:k] + (eid, eid) + edges[k:])] = coeff
    return PlanarElement._normal(k + 1, out)


def shift(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Injective unital algebra morphism from degree k to degree k+2."""
    k = x.degree
    out: dict[Loop, RadicalScalar] = {}
    for (base, edges), coeff in x.terms.items():
        for down_eid in g.edges_up(base):
            upper = g.edge(down_eid).dst
            for up_eid in g.edges_down(upper):
                # The same prefix on both rows; no two terms meet.
                out[Loop(g.edge(up_eid).src, (up_eid, down_eid) + edges + (down_eid, up_eid))] = coeff
    return PlanarElement._normal(k + 2, out)


def expect(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Conditional expectation from degree k+1 onto degree k."""
    d = x.degree
    if d < 1:
        raise DegreeMismatchError("expectation needs degree at least 1")
    direction = "up" if d % 2 == 1 else "down"
    out: dict[Loop, RadicalScalar] = {}
    for (base, edges), coeff in x.terms.items():
        # The last edges of the two rows sit in the middle of the edge list.
        if edges[d - 1] != edges[d]:
            continue
        weight = g.spin_factor_sq(edges[d], direction)
        _add_term(out, Loop(base, edges[: d - 1] + edges[d + 1 :]), coeff * weight)
    return PlanarElement._normal(d - 1, out)


def jones_projection_raw(g: BipartiteGraph, k: int) -> PlanarElement:
    """The cup-cap element of degree k+2, before normalization."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    direction = "up" if k % 2 == 0 else "down"
    out: dict[Loop, RadicalScalar] = {}
    for base in range(g.num_a):
        for path in g.paths_from(base, k):
            end = g.path_end(base, path)
            attachable = g.edges_up(end) if k % 2 == 0 else g.edges_down(end)
            for bottom_eid in attachable:
                bottom_spin = g.spin_factor(bottom_eid, direction)
                for top_eid in attachable:
                    coeff = g.spin_factor(top_eid, direction) * bottom_spin
                    _add_term(
                        out,
                        Loop.from_paths(
                            base,
                            path + (top_eid, top_eid),
                            path + (bottom_eid, bottom_eid),
                        ),
                        coeff,
                    )
    return PlanarElement._normal(k + 2, out)


def jones_projection(g: BipartiteGraph, k: int) -> PlanarElement:
    """The degree-(k+2) Jones idempotent: cup-cap over the graph eigenvalue."""
    return jones_projection_raw(g, k).scaled(g.gamma.invert())


def trace(g: BipartiteGraph, x: PlanarElement) -> RadicalScalar:
    """Normalized exact trace: unit maps to one, products commute inside."""
    k = x.degree
    reduced = x
    for _ in range(k):
        reduced = expect(g, reduced)
    total = RadicalScalar.zero()
    for loop, coeff in reduced.terms.items():
        total = total + coeff * g.point_weight(loop.base)
    return total * g.gamma.invert() ** k


@dataclass(frozen=True)
class TangleStep:
    """One generator application; k is the generator's own subscript."""

    tag: str  # one of 1 M I J U E
    k: int

    def __post_init__(self):
        if self.tag not in ("1", "M", "I", "J", "U", "E"):
            raise ValidationError(f"unknown step tag {self.tag!r}")
        if self.k < 0:
            raise ValidationError("step degree must be nonnegative")

    @property
    def input_degree(self) -> int | None:
        if self.tag == "E":
            return None
        return self.k + 1 if self.tag == "U" else self.k

    @property
    def output_degree(self) -> int:
        return {"1": self.k, "M": self.k, "I": self.k + 1, "J": self.k + 2, "U": self.k, "E": self.k + 2}[
            self.tag
        ]

    def __str__(self) -> str:
        return f"{self.tag}{self.k}"


@dataclass(frozen=True)
class TangleProgram:
    """Pipeline of generator steps plus a count of closed circles."""

    steps: tuple[TangleStep, ...]
    circles: int = field(default=0)

    def __post_init__(self):
        if self.circles < 0:
            raise ValidationError("circle count must be nonnegative")

    @classmethod
    def parse(cls, text: str, circles: int = 0) -> TangleProgram:
        """Comma-separated tags with subscripts, e.g. "I2,U2,M2"."""
        steps = []
        for token in text.split(","):
            token = token.strip()
            match = _STEP_RE.match(token)
            if match is None:
                raise ValidationError(f"bad program step {token!r}")
            steps.append(TangleStep(match.group(1), int(match.group(2))))
        return cls(tuple(steps), circles)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.steps)


def run_program(
    g: BipartiteGraph, program: TangleProgram, inputs: Sequence[PlanarElement]
) -> PlanarElement:
    """Evaluate the pipeline left to right.

    The running element starts as the first input (or as a fresh Jones
    projection when the program opens with an E step); multiplication steps
    consume one further input each.  Degrees are checked at every step and
    all inputs must be used.
    """
    if not program.steps:
        raise TangleProgramError("empty program")
    queue = list(inputs)

    def next_input(wanted: int, at: str) -> PlanarElement:
        if not queue:
            raise TangleProgramError(f"{at}: program needs another input of degree {wanted}")
        value = queue.pop(0)
        if value.degree != wanted:
            raise DegreeMismatchError(f"{at}: input has degree {value.degree}, needs {wanted}")
        return value

    current: PlanarElement | None = None
    for idx, step in enumerate(program.steps):
        where = f"step {idx} ({step})"
        if step.tag == "E":
            if current is not None:
                raise TangleProgramError(f"{where}: projection step only opens a program")
            current = jones_projection(g, step.k)
            continue
        if current is None:
            current = next_input(step.input_degree, where)
        elif current.degree != step.input_degree:
            raise DegreeMismatchError(
                f"{where}: running degree {current.degree}, step needs {step.input_degree}"
            )
        if step.tag == "1":
            pass
        elif step.tag == "M":
            current = current * next_input(step.k, where)
        elif step.tag == "I":
            current = include(g, current)
        elif step.tag == "J":
            current = shift(g, current)
        elif step.tag == "U":
            current = expect(g, current)
    if queue:
        raise TangleProgramError(f"{len(queue)} unused program input(s)")
    assert current is not None
    return current.scaled(g.gamma**program.circles)


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of one defining-relation check among Jones idempotents."""

    relation: str
    indices: tuple[int, ...]
    passed: bool


def _embed(g: BipartiteGraph, x: PlanarElement, degree: int) -> PlanarElement:
    while x.degree < degree:
        x = include(g, x)
    return x


def verify_temperley_lieb(g: BipartiteGraph, kmax: int) -> list[RelationCheck]:
    """Exact checks of the diagram-algebra relations for e_0 .. e_kmax.

    Idempotency and normalized traces for each index; the two bounce
    relations for adjacent indices (lower index embedded upward); and
    commutation for indices two or more apart.
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    proj = {k: jones_projection(g, k) for k in range(kmax + 1)}
    inv_r = RadicalScalar.from_rational(1) * g.gamma.invert() ** 2
    checks = []
    for k in range(kmax + 1):
        e = proj[k]
        checks.append(RelationCheck("idempotent", (k,), e * e == e))
        checks.append(RelationCheck("trace", (k,), trace(g, e) == inv_r))
    for k in range(kmax):
        low = _embed(g, proj[k], k + 3)
        high = proj[k + 1]
        checks.append(
            RelationCheck("bounce-low", (k, k + 1), low * high * low == low.scaled(inv_r))
        )
        checks.append(
            RelationCheck("bounce-high", (k + 1, k), high * low * high == high.scaled(inv_r))
        )
    for k in range(kmax + 1):
        for l in range(k + 2, kmax + 1):
            far = _embed(g, proj[k], l + 2)
            checks.append(RelationCheck("far-commute", (k, l), far * proj[l] == proj[l] * far))
    return checks
