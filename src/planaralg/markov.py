"""Unital inclusions of multi-matrix algebras.

An inclusion is described by the block dimension vector of the small
algebra and a nonnegative integer inclusion matrix; the block dimensions of
the big algebra are derived, never supplied.  The module classifies
inclusions (Markov condition, integer index, centrality of the small
algebra), iterates the tower of basic constructions, counts the loop space
dimensions as closed walks of the Gram matrix F F^t on the smaller side of
a multiplicity matrix F (the one counter of the inclusion's loops and of
each fixed subgraph's), and checks the spectral norms of alternating words
in the inclusion matrix against the exact index powers.

Validation reads each matrix entry once, into the sparse map {i: {j: m_ij}}
of the nonzero entries (rows in order, columns ascending); every later
reader, here and in graph and symmetry, word norms included, takes the
matrix from that map; the dense m serves only equality, hashing, to_dict.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, islice
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Sequence

from .errors import NotMarkovError, ResourceLimitError, ValidationError

if TYPE_CHECKING:
    from .radical import RadicalScalar

WordStart = Literal["m", "mt"]

POWER_ITERATIONS = 200
POWER_TOLERANCE = 1e-14


class AlgebraDims(tuple):
    """Block dimensions (n_1, ..., n_s) of a multi-matrix algebra: a tuple of
    positive integers, one per block."""

    __slots__ = ()

    def __new__(cls, blocks: Sequence[int]) -> AlgebraDims:
        blocks = tuple(blocks)
        if not blocks:
            raise ValidationError("an algebra needs at least one block")
        for n in blocks:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValidationError(f"block dimension {n!r} is not a positive integer")
        return tuple.__new__(cls, blocks)

    def __repr__(self) -> str:
        return f"AlgebraDims(blocks={tuple(self)!r})"

    @property
    def total_dim(self) -> int:
        """Dimension of the algebra as a vector space: sum of squares."""
        return sum(n * n for n in self)


class InclusionData(NamedTuple("InclusionData", [("a", AlgebraDims), ("m", tuple[tuple[int, ...], ...])])):
    """A unital inclusion: the named tuple (a, m) of the small-side blocks
    and the inclusion matrix.

    m has one row per small block and one column per big block; entry (i, j)
    counts how many copies of small block i sit inside big block j, so the
    big block dimensions b are the column sums weighted by a.  b, derived
    on first read, and the sparse map `_sparse` are kept in the instance
    dict; neither is a field.
    """

    def __new__(cls, a: AlgebraDims | Sequence[int], m: Sequence[Sequence[int]]) -> InclusionData:
        if not isinstance(a, AlgebraDims):
            a = AlgebraDims(a)
        rows = tuple(tuple(row) for row in m)
        if len(rows) != len(a):
            raise ValidationError(f"matrix has {len(rows)} rows for {len(a)} blocks")
        if not rows or not rows[0]:
            raise ValidationError("inclusion matrix must be non-empty")
        columns = range(len(rows[0]))
        sparse = {}
        for i, row in enumerate(rows):
            if len(row) != len(columns):
                raise ValidationError("inclusion matrix rows have unequal lengths")
            # A row of plain ints is checked whole; any other row entry by entry.
            if not set(map(type, row)) <= {int} or min(row) < 0:
                for entry in row:
                    if isinstance(entry, bool) or not isinstance(entry, int) or entry < 0:
                        raise ValidationError(f"matrix entry {entry!r} is not a nonnegative integer")
            sparse[i] = {j: row[j] for j in compress(columns, row)}
        for i, row in sparse.items():
            if not row:
                raise ValidationError(f"row {i} of the inclusion matrix is zero")
        zero_columns = set(columns).difference(*sparse.values())
        if zero_columns:
            raise ValidationError(f"column {min(zero_columns)} of the inclusion matrix is zero")
        self = tuple.__new__(cls, (a, rows))
        self.__dict__["_sparse"] = sparse
        return self

    @classmethod
    def _make(cls, values) -> InclusionData:
        return cls(*values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}")

    @cached_property
    def b(self) -> AlgebraDims:
        """Big-side blocks, derived once: b_j = sum_i m_ij * a_i."""
        b = [0] * self.cols
        for i, row in self._sparse.items():
            for j, count in row.items():
                b[j] += count * self.a[i]
        return AlgebraDims(b)

    @property
    def rows(self) -> int:
        return len(self.m)

    @property
    def cols(self) -> int:
        return len(self.m[0])

    @classmethod
    def from_dict(cls, data: dict) -> InclusionData:
        """JSON document {"a": [...], "m": [[...]]}; "b" is derived and rejected."""
        if not isinstance(data, dict):
            raise ValidationError("inclusion document must be a JSON object")
        if "b" in data:
            raise ValidationError('"b" is derived from "a" and "m"; do not supply it')
        extra = set(data) - {"a", "m"}
        if extra:
            raise ValidationError(f"unknown keys in inclusion document: {sorted(extra)}")
        if "a" not in data or "m" not in data:
            raise ValidationError('inclusion document needs keys "a" and "m"')
        a = data["a"]
        m = data["m"]
        if not isinstance(a, list) or not isinstance(m, list) or not all(isinstance(r, list) for r in m):
            raise ValidationError('"a" must be a list and "m" a list of lists')
        return cls(a, m)

    def to_dict(self) -> dict:
        return {"a": list(self.a), "m": [list(row) for row in self.m]}


class MarkovReport(NamedTuple):
    """Classification of one inclusion.

    r is the exact dimension ratio dim B / dim A whether or not the
    inclusion is Markov.  index_violation records a Markov inclusion whose
    ratio failed integrality; it is a theorem that this cannot happen, so a
    True here means corrupted input handling, not mathematics.
    """

    is_markov: bool
    r: Fraction
    is_abelian: bool
    index_violation: bool


def canonical_trace_weights(dims: AlgebraDims) -> list[Fraction]:
    """Weight of each block under the trace induced by the left regular
    representation: n_i^2 / sum_j n_j^2."""
    total = dims.total_dim
    return [Fraction(n * n, total) for n in dims]


def _markov_defect(inc: InclusionData, r: Fraction) -> tuple[int, int, Fraction] | None:
    """The first small block i whose (m b)_i differs from r a_i, with both
    values, or None when the inclusion is Markov with ratio r."""
    b = inc.b
    for i, row in inc._sparse.items():
        mb = sum([count * b[j] for j, count in row.items()])
        if mb != r * inc.a[i]:
            return i, mb, r * inc.a[i]
    return None


def analyze(inc: InclusionData) -> MarkovReport:
    """Classify the inclusion; never raises, findings live in the report."""
    r = Fraction(inc.b.total_dim, inc.a.total_dim)
    is_markov = _markov_defect(inc, r) is None
    # The small algebra is central exactly when its blocks are one-dimensional
    # and each big block meets one of them: as no column is zero, when the
    # nonzero entries are as many as the columns.
    is_abelian = all(n == 1 for n in inc.a) and sum(map(len, inc._sparse.values())) == inc.cols
    violation = is_markov and r.denominator != 1
    return MarkovReport(is_markov=is_markov, r=r, is_abelian=is_abelian, index_violation=violation)


def markov_index(inc: InclusionData) -> int:
    """The integer index of a Markov inclusion; NotMarkov, with a witness, otherwise."""
    report = analyze(inc)
    if not report.is_markov:
        i, mb, ra = _markov_defect(inc, report.r)
        raise NotMarkovError(f"inclusion is not Markov at small block {i}: (m b)_{i} = {mb}, r a_{i} = {ra}")
    if report.r.denominator != 1:
        raise NotMarkovError(f"Markov ratio {report.r} is not an integer")
    return int(report.r)


def jones_tower(inc: InclusionData, depth: int) -> list[AlgebraDims]:
    """Block dimensions along the iterated basic construction.

    Returns [A, B, A_1, B_1, ..., A_depth, B_depth]: two entries per level,
    A_k = r^k A and B_k = r^k B, r the integer index: the basic
    construction of A ⊂ B is B ⊂ A_1 with the transposed matrix, whose
    derived blocks are r times A's.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    r = markov_index(inc) if depth > 0 else 1
    sides = (inc.a, inc.b)
    return [AlgebraDims(tuple(r**k * n for n in dims)) for k in range(depth + 1) for dims in sides]


def _gram(rows: dict[int, dict[int, int]]) -> dict[int, tuple[tuple[int, int], ...]]:
    """G = F F^t for the multiplicity map rows = {i: {j: F_ij}} of nonzero
    entries, on the side with fewer vertices that have an edge (the lower
    side on a tie), as {x: ((y, G_xy), ...)}: G_xy = sum over z of
    F_xz F_yz, one multiply-add for each pair of edges at one vertex z of
    the other side."""
    upper = {}
    for i, row in rows.items():
        for j, n in row.items():
            upper.setdefault(j, []).append((i, n))
    gram = {}
    for star in upper.values() if len(rows) <= len(upper) else [row.items() for row in rows.values()]:
        for x, n in star:
            acc = gram.setdefault(x, {})
            for y, m in star:
                acc[y] = acc.get(y, 0) + n * m
    return {x: tuple(acc.items()) for x, acc in gram.items()}


def _closed_walks(gram: dict[int, tuple[tuple[int, int], ...]]) -> Iterator[int]:
    """trace G^k for k = 1, 2, ...: trace G sums the diagonal, and with
    H = G^j for j >= 1, trace G^(2j) = sum of H_xy^2 and trace G^(2j + 1) =
    sum of H_xy (H G)_xy, since G is symmetric, so one sparse product H G
    serves two degrees."""
    power = {x: dict(row) for x, row in gram.items()}
    yield sum([row.get(x, 0) for x, row in power.items()])
    while True:
        yield sum([h * h for row in power.values() for h in row.values()])
        product = {}
        for x, row in power.items():
            acc = product[x] = {}
            for z, h in row.items():
                for y, n in gram[z]:
                    acc[y] = acc.get(y, 0) + h * n
        yield sum([h * product[x].get(y, 0) for x, row in power.items() for y, h in row.items()])
        power = product


def loop_space_dims(inc: InclusionData) -> Iterator[int]:
    """Loop space dimensions of degree 0, 1, 2, ...: the lower vertex count,
    then trace (m m^t)^k = trace (m^t m)^k, the pairs of length-k paths with
    common ends, counted as closed walks of the Gram matrix on the side with
    fewer vertices, one sparse product for every two degrees."""
    return chain([inc.rows], _closed_walks(_gram(inc._sparse)))


def loop_space_dim(inc: InclusionData, k: int) -> int:
    """Number of closed walks of length 2k based at small-side vertices.

    Exact integer trace of (m m^t)^k; this is the dimension of the span of
    based loops of degree k before any enumeration happens, so callers can
    budget enumeration work in advance.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return next(islice(loop_space_dims(inc), k, None))


def word_norm(inc: InclusionData, length: int, starts_with: WordStart = "m") -> tuple[float, RadicalScalar]:
    """Spectral norm of the alternating word of the given length.

    Returns (numeric, exact): the numeric value comes from power iteration
    on W W^t, the exact one is r^(length/2) as a radical scalar.  Refuses
    with ResourceLimitError, before any float work, when the squared norm
    of W W^t v would overflow a float: at most r^(2 length) times the rows
    of the start vector v = (1, ..., 1).  Logarithms keep the check from
    building the huge power itself.
    """
    if length < 1:
        raise ValidationError("word length must be positive")
    if starts_with not in ("m", "mt"):
        raise ValidationError(f"word must start with 'm' or 'mt', got {starts_with!r}")
    r = markov_index(inc)
    if 2 * length * math.log2(r) + math.log2(inc.rows) >= sys.float_info.max_exp - 1:
        raise ResourceLimitError(
            f"word of length {length} leaves float range: "
            f"{inc.rows} * r^{2 * length} >= 2^{sys.float_info.max_exp - 1}"
        )

    # Only word norms need radicals and numpy; both are deferred to keep
    # start-up cheap, radicals first so their compilation does not add to
    # the memory numpy holds.
    from .radical import RadicalScalar, sqrt_of_int

    import numpy as np

    m = np.zeros((inc.rows, inc.cols))
    for i, columns in inc._sparse.items():
        m[i, list(columns)] = list(columns.values())
    factors = []
    use_m = starts_with == "m"
    for _ in range(length):
        factors.append(m if use_m else m.T)
        use_m = not use_m
    word = factors[0]
    for f in factors[1:]:
        word = word @ f

    gram = word @ word.T
    v = np.ones(gram.shape[0])
    top = 0.0
    for _ in range(POWER_ITERATIONS):
        w = gram @ v
        scale = float(np.linalg.norm(w))
        if scale == 0.0:
            top = 0.0
            break
        v = w / scale
        estimate = float(v @ (gram @ v))
        if top and abs(estimate - top) <= POWER_TOLERANCE * abs(estimate):
            top = estimate
            break
        top = estimate
    numeric = math.sqrt(top)

    exact = RadicalScalar.from_rational(r ** (length // 2))
    if length % 2:
        exact = exact * sqrt_of_int(r)
    return numeric, exact
