"""The generating annular operations on loop elements.

Everything here is linear in each loop argument, so the definitions are
given on basis loops written as (top row / bottom row), both rows read as
paths out of the base:

  x * y             glue two boxes: left top row must equal right bottom
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
  trace             contract everything: the normalized point evaluation
                    of the repeated expectation down to degree zero, scaled
                    by the inverse eigenvalue power.  It sends a loop off
                    the diagonal to zero and a diagonal loop to a weight of
                    its (base, endpoint) block, so it is formed as one sum
                    of the diagonal per block, with no contraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import ValidationError
from .graph import BipartiteGraph, Path, PlanarElement, check_path_ids, encode_path
from .radical import RadicalScalar, sum_scalars


def include(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Unital algebra morphism from degree k to degree k+1."""
    check_path_ids(g.num_a, len(g.step(0).end))
    k = x.degree
    attach = [encode_path(out) for out in g.step(k).attach]
    # The vertex that a path's last code point reaches; every path of a
    # block ends at the block's endpoint.
    ends = g.step(k - 1).end if k else range(g.num_a)
    return x._relabel(k + 1, lambda p: [p + e for e in attach[ends[ord(p[-1])]]])


def shift(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Injective unital algebra morphism from degree k to degree k+2."""
    check_path_ids(g.num_a, len(g.step(0).end))

    @cache
    def prefixes(base: str) -> list[Path]:
        """The encoded prefixes at a base code point, built on first use."""
        return [encode_path(t) for t in g.shift_prefixes(ord(base))]

    # The same prefix on both rows, at a new base; no two terms meet.
    return x._relabel(x.degree + 2, lambda p: [prefix + p[1:] for prefix in prefixes(p[0])])


def expect(g: BipartiteGraph, x: PlanarElement) -> PlanarElement:
    """Conditional expectation from degree k+1 onto degree k."""
    return x.contract_last(g.step(x.degree - 1).spin_sq)


def jones_projection_raw(g: BipartiteGraph, k: int) -> PlanarElement:
    """The cup-cap element of degree k+2, before normalization."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return g.cup_cap(k, RadicalScalar.one())


def jones_projection(g: BipartiteGraph, k: int) -> PlanarElement:
    """The degree-(k+2) Jones idempotent: cup-cap over the graph eigenvalue."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return g.cup_cap(k, g.gamma.invert())


def trace(g: BipartiteGraph, x: PlanarElement) -> RadicalScalar:
    """Normalized exact trace: unit maps to one, products commute inside.

    Formula (T) of docs/trace-normalization.md, summed per block: k
    expectations and the point evaluation send a diagonal degree-k loop of
    the block (v, z) to gamma^(-k) (eta(z) / eta(v)) w_v and every other
    loop to zero.  eta(z) / eta(v) is a_z / a_v for a lower endpoint and
    b_z / (gamma a_v) for an upper one, so each block's weight is the
    rational w_v dims_z / (a_v r^ceil(k/2)), formed once per block
    (docs/temperley-lieb-adjoint.md, section 7)."""
    k = x.degree
    # The vertex that a path's last code point reaches, as in `include`.
    ends = g.step(k - 1).end if k else range(g.num_a)
    sums = x.diagonal_sums(lambda p: (ord(p[0]), ends[ord(p[-1])]))
    a = g.inclusion.a
    dims = g.inclusion.b if k % 2 else a  # of the endpoints: upper vertices at odd k
    power = g.r ** ((k + 1) // 2)
    return sum_scalars(total * (g.point_weight(v) * Fraction(dims[z], a[v] * power)) for (v, z), total in sums.items())


class RelationCheck(NamedTuple):
    """Outcome of one defining-relation check among Jones idempotents."""

    relation: str
    indices: tuple[int, ...]
    passed: bool


def verify_temperley_lieb(g: BipartiteGraph, kmax: int) -> list[RelationCheck]:
    """Exact checks of the diagram-algebra relations for e_0 .. e_kmax.

    Idempotency and normalized traces for each index; the two bounce
    relations for adjacent indices (lower index embedded upward); and
    commutation for indices two or more apart.  Each e_k is included one
    degree at a time, and the far-commute checks of e_k reuse the chain
    that starts at its bounce embedding; only the current link is kept.

    e_k, and every element these checks form from e_j and its inclusions
    with j >= k, is a direct sum of one block per length-k prefix path,
    and the block depends only on the prefix's endpoint.  So the
    idempotent check of e_k and the bounces of (k, k + 1) run on the rows
    of one prefix per endpoint (`_prefix_representatives`), restricted by
    `PlanarElement._restricted`, and give the verdicts of the whole
    elements (docs/temperley-lieb-blocks.md).  The traces and far commutes
    read whole elements.

    Every e_k is self-adjoint and `include` commutes with the involution,
    so with X = low e_l the other product e_l low is X*: a far commute
    holds exactly when X is self-adjoint, tested on X's accumulated rows
    before any normal-form pass.  The two bounces share A = low high:
    low high low = A low and high low high = high A, each compared with
    low / r or high / r on the stored forms, with no copy built when r
    divides the product's denominator.  So a check up to kmax forms
    (kmax + 1) + 3 kmax + kmax (kmax - 1) / 2 products, and `trace` forms
    none (docs/temperley-lieb-adjoint.md).
    """
    if kmax < 0:
        raise ValidationError("kmax must be nonnegative")
    proj = {k: jones_projection(g, k) for k in range(kmax + 1)}
    reps = {k: _prefix_representatives(g, k) for k in range(kmax + 1)}
    inv_r = g.gamma.invert() ** 2
    checks = []
    for k in range(kmax + 1):
        e = proj[k]._restricted(reps[k], k)
        checks.append(RelationCheck("idempotent", (k,), e * e == e))
        checks.append(RelationCheck("trace", (k,), trace(g, proj[k]) == inv_r))
    bounces, far_commutes = [], []
    for k in range(kmax):
        # The full embedding starts the far-commute chain; the bounces read
        # its representative blocks.
        chain = include(g, proj[k])
        low = chain._restricted(reps[k], k)
        high = proj[k + 1]._restricted(reps[k], k)
        shared = low * high
        bounces.append(RelationCheck("bounce-low", (k, k + 1), (shared * low)._is_quotient(low, g.r)))
        bounces.append(RelationCheck("bounce-high", (k + 1, k), (high * shared)._is_quotient(high, g.r)))
        for l in range(k + 2, kmax + 1):
            chain = include(g, chain)
            far_commutes.append(RelationCheck("far-commute", (k, l), chain._product_is_self_adjoint(proj[l])))
    return checks + bounces + far_commutes


def _prefix_representatives(g: BipartiteGraph, k: int) -> set[Path]:
    """One based path of length k per endpoint: the first of `g.rows(k)`
    that reaches it."""
    paths, where = g.rows(k)
    first: dict[int, Path] = {}
    for path, (_, end) in zip(paths, where):
        first.setdefault(end, path)
    return set(first.values())
