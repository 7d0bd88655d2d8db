"""Bipartite inclusion graphs, based loops, and exact loop-span elements.

The graph of an inclusion has one lower vertex per small block, one upper
vertex per big block, and m_ij parallel edges between lower vertex i and
upper vertex j.  Edge ids are assigned in row-major matrix order, parallel
copies last, so ids are stable and reports are reproducible.  The two step
tables (`Step`) are the one record of the edges; `edges` and `edge` form
`Edge` records from them on each read, for callers outside the package.

A loop of degree k is the edge-id sequence (e_1, ..., e_2k) of a closed
walk based at a lower vertex, alternating upward and downward steps.  In
the box picture the first k edges are the top row read left to right and
the remaining k edges are the bottom row read right to left; equivalently,
both rows are length-k paths out of the base meeting at a common endpoint.
`BipartiteGraph.step(pos)` is the one definition of that alternation, and
`rows(k)`, which walks them anew on each call, the one enumerator of based
paths.  `unit(k)` and the cup-cap `cup_cap(k, scale)` build their elements
straight from those paths, and `_loop_rows(k)` sorts them into their
(base, endpoint) classes, for `iter_loops(k)` and for the orbit sums of
`fixed_space_basis`, which `PlanarElement._of_paths` builds from path
strings.  The graph keeps only what its constructor builds.
The span of degree-k loops with radical-scalar coefficients is the degree-k
piece of the loop algebra, and loops multiply like matrix units indexed by
(bottom path, top path), so that piece is a direct sum of full matrix
algebras, one for each (base, endpoint) pair (Jones, *The planar algebra of
a bipartite graph*, 2000).

`PlanarElement` stores exactly that: one common denominator and, for each
radical part of the coefficients, the integer numerators as sparse matrix
rows indexed by based paths, a row of one entry held as a bare (column,
numerator) pair.  A based path is a `Path`, the string with one code point
per id, so path keys hash once; `Loop` and the path readers other than
`rows` give int tuples.  The blocks are implicit in the rows, so an element
needs no graph.  Products are sparse integer matrix products that write a
row's first entry as a pair, `contract_last` contracts the last column
(`expect`), `is_self_adjoint` compares each entry with its mirror image and
`diagonal_sums` adds up the diagonal by blocks (the Temperley-Lieb checks
and `trace`).  The Temperley-Lieb checks also read stored rows through three
private methods: `_is_quotient` compares x with y / r on the stored forms,
`_product_is_self_adjoint` tests a product's rows before the normal-form
pass (docs/temperley-lieb-adjoint.md, section 9), and `_restricted` keeps
the rows of some length-k prefixes, for the checks on one prefix block per
endpoint (docs/temperley-lieb-blocks.md).  The private
`_relabel` sends rows and columns to lists of image paths and writes the
image rows in stored form; its callers (`include`, `shift`, the group
action and its average) keep its rule that the paths of one block have
image lists of one length.  Besides the element's own arithmetic, these
are the only code that reads stored rows.  The normal form (no zeros, no
common factor) makes `==` a comparison of dicts.

An edge from lower vertex i up to upper vertex j has squared spin
b_j / (a_i gamma), gamma the root of the index, and down the reciprocal;
the construction checks exactly that the squared spins out of every vertex
sum to gamma, the condition that `expect`, `trace` and the cup-cap use.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from .errors import DegreeMismatchError, EigenvectorViolationError, ResourceLimitError, ValidationError
from .markov import InclusionData, canonical_trace_weights, markov_index
from .radical import RadicalKey, RadicalScalar, _key_product, _reduced, sqrt_of_int

SpinDirection = Literal["up", "down"]


class Edge(NamedTuple):
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

    @classmethod
    def _make(cls, values) -> Loop:
        return cls(*values)

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


class Step(NamedTuple):
    """One step of an alternating path: up (lower to upper vertex) at even
    positions, down at odd ones."""

    attach: tuple[tuple[int, ...], ...]  # vertex -> ids of the edges leaving it, ascending
    end: tuple[int, ...]  # edge id -> the vertex the step reaches
    spin: tuple[RadicalScalar, ...]  # edge id -> spin of the traversal
    spin_sq: tuple[RadicalScalar, ...]  # edge id -> its square


# A based path: the str whose code points are the base vertex and then the
# edge ids, chr(base) + chr(e1) + ... + chr(ek).  A str caches its hash, so
# the dict lookups of products hash each path once, and its order, slices
# and concatenations are those of the int tuple (base, e1, ..., ek).  Ids
# are below CODE_POINTS; `encode_path` and `decode_path` convert.
Path = str
CODE_POINTS = 0x110000


def encode_path(ids: Sequence[int]) -> Path:
    """The path whose code points are ids, (base, e1, ..., ek) or any run
    of edge ids; ValidationError for an id outside 0..CODE_POINTS - 1."""
    try:
        return "".join(map(chr, ids))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"path ids must be integers in 0..{CODE_POINTS - 1}, got {tuple(ids)}") from None


def decode_path(path: Path) -> tuple[int, ...]:
    """The ids of a path, or of any slice of one, as ints."""
    return tuple(map(ord, path))


def check_path_ids(*counts: int) -> None:
    """ResourceLimitError unless ids 0..n-1 are code points for each count n
    of vertices or edges."""
    if max(counts) > CODE_POINTS:
        raise ResourceLimitError(f"{max(counts)} vertices or edges: a path holds ids below {CODE_POINTS}")


class PathTable(NamedTuple):
    """The based paths of one length as ids 0..n-1, in lexicographic order."""

    paths: list[Path]  # id -> chr(base) + chr(e1) + ... + chr(ek)
    where: list[tuple[int, int]]  # id -> (base, endpoint)


# The numerators of one radical key as sparse matrix rows: the loop with
# bottom row b and top row t out of a base is the matrix unit in the row of
# the based path (base, *b) and the column of (base, *t).  A row with one
# entry is stored as the pair (column, numerator), a longer row as a dict
# column -> numerator: the rows of sparse elements mostly hold one entry,
# and the pair takes 56 bytes where a one-entry dict takes 224 (CPython
# 3.11).  Operations accumulate rows as dicts, products as pairs until a
# second entry meets them, and `_store` stores them in normal form;
# `_relabel` writes its rows in stored form (see `PlanarElement`).
Row = tuple[Path, int] | dict[Path, int]
Rows = dict[Path, Row]
AccRows = dict[Path, dict[Path, int]]

# One object for each based path and each numerator that `_integer_rows` has
# stored, shared by all elements built from coefficients: callers hold many
# sparse elements over the same paths and small numerators.  It changes no
# value, only which of equal objects an element holds, and it is cleared
# when it reaches _SHARED_MAX entries.
_SHARED: dict[Path | int, Path | int] = {}
_SHARED_MAX = 1 << 16


class PlanarElement:
    """Finite radical-scalar combination of loops of one common degree.

    Stored as integers: one positive denominator `_den` for the whole
    element and, for each reduced radical key (see `radical`), the
    numerators as sparse matrix rows: `_num[key][row]` is the pair
    (column, n) for a row with one entry and the dict {column: n} for a
    longer row.  Rows and columns are based paths, `Path` strings: the loop
    (base, top + reversed(bottom)) sits in the row of (base, *bottom) and
    the column of (base, *top), so loops multiply as matrix units and a
    product is a sparse matrix product per left key.  Normal form: no zero
    numerator, no empty row or key, a pair for every one-entry row and
    gcd(_den, all numerators) == 1.  Loops are linearly independent and so
    are reduced radical keys, so every element has exactly one normal form
    and `==` compares the dicts directly.  A map that sends distinct loops
    to distinct loops and keeps each numerator keeps all four conditions,
    which is why `_relabel` stores such an image as written.

    `terms` is a derived view, loop -> RadicalScalar.  A loop's base and
    edge ids must be ints in 0..CODE_POINTS - 1 (ValidationError).
    """

    __slots__ = ("degree", "_den", "_num")

    def __init__(self, degree: int, terms: Mapping[Loop, RadicalScalar] | None = None):
        if degree < 0:
            raise ValidationError("degree must be nonnegative")
        entries = []
        for loop, coeff in (terms or {}).items():
            if loop.degree != degree:
                raise DegreeMismatchError(
                    f"loop of degree {loop.degree} in an element of degree {degree}"
                )
            if not isinstance(coeff, RadicalScalar):
                coeff = RadicalScalar.from_rational(coeff)
            ids = encode_path((loop[0], *loop[1]))
            entries.append((ids[0] + ids[:degree:-1], ids[: degree + 1], coeff))
        _store(self, degree, *_integer_rows(entries))

    def __setattr__(self, name, value):
        raise AttributeError("PlanarElement is immutable")

    def __reduce__(self):
        return PlanarElement, (self.degree, self.terms)

    @classmethod
    def _normal(cls, degree: int, den: int, num: dict[RadicalKey, Rows]) -> PlanarElement:
        """Trusted constructor over integer rows that the caller built and
        hands over (see `_store`)."""
        return _store(_new(cls), degree, den, num)

    @classmethod
    def _of_paths(cls, degree: int, pairs: Iterable[tuple[Path, Path]]) -> PlanarElement:
        """The sum, each coefficient one, of the loops in row r and column c
        for the distinct pairs (r, c) of based paths of length degree."""
        one = RadicalScalar.one()
        return cls._normal(degree, *_integer_rows([(row, col, one) for row, col in pairs]))

    @classmethod
    def basis(cls, loop: Loop) -> PlanarElement:
        return cls(loop.degree, {loop: RadicalScalar.one()})

    @property
    def terms(self) -> dict[Loop, RadicalScalar]:
        by_loop: dict[Loop, dict[RadicalKey, int]] = {}
        for key, rows in self._num.items():
            for row, entries in rows.items():
                base, tail = ord(row[0]), row[:0:-1]
                for col, n in _pairs(entries):
                    by_loop.setdefault(_new_tuple(Loop, (base, decode_path(col[1:] + tail))), {})[key] = n
        return {loop: _reduced(self._den, num) for loop, num in by_loop.items()}

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other) -> PlanarElement:
        if not isinstance(other, PlanarElement):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeMismatchError(f"adding degrees {self.degree} and {other.degree}")
        den = lcm(self._den, other._den)
        num: dict[RadicalKey, AccRows] = {}
        for part in (self, other):
            scale = den // part._den
            for key, rows in part._num.items():
                target = num.setdefault(key, {})
                for row, entries in rows.items():
                    _add_row(target, row, _pairs(entries), scale)
        return PlanarElement._normal(self.degree, den, num)

    def __neg__(self) -> PlanarElement:
        return self.scaled(-1)

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
        num: dict[RadicalKey, AccRows] = {}
        for k1, rows in self._num.items():
            for k2, n2 in scalar._num.items():
                key, factor = _key_product(k1, k2)
                target = num.setdefault(key, {})
                for row, entries in rows.items():
                    _add_row(target, row, _pairs(entries), n2 * factor)
        return PlanarElement._normal(self.degree, self._den * scalar._den, num)

    def _compose(self, other: PlanarElement) -> PlanarElement:
        """Matrix-unit product: the top row of the left factor must equal the
        bottom row of the right factor; the product keeps the left bottom row
        and the right top row.  The rows of `_product`, with one normal-form
        pass."""
        return PlanarElement._normal(self.degree, self._den * other._den, self._product(other))

    def _product(self, other: PlanarElement) -> dict[RadicalKey, Rows]:
        """The integer rows of self * other over the denominator
        self._den * other._den, accumulated and not yet in normal form: a
        row's first entry is written as a pair and a second one that meets
        it makes it a dict, and an entry may have cancelled to 0.  One
        sparse integer matrix product for each left key, each key product
        formed once.  With K right keys, the right rows are indexed by path
        across them when K - 1 times the left rows exceeds twice the right
        rows, so each left entry is looked up once; otherwise (always when
        K = 1) the left rows are walked once per right key.  Indexing a
        right row costs about what two walks of a left row save."""
        if self.degree != other.degree:
            raise DegreeMismatchError(f"multiplying degrees {self.degree} and {other.degree}")
        right = other._num
        index: dict[Path, list[tuple[int, Row]]] | None = None
        if (len(right) - 1) * sum(map(len, self._num.values())) > 2 * sum(map(len, right.values())):
            # Path -> (key slot, its right row as stored) for each key that has the row.
            index = {}
            for slot, rows2 in enumerate(right.values()):
                for mid, entries in rows2.items():
                    index.setdefault(mid, []).append((slot, entries))
        num: dict[RadicalKey, Rows] = {}
        for k1, rows1 in self._num.items():
            # Key slot -> (result rows, folded integer); a left key times
            # distinct right keys gives distinct reduced keys.
            slots = []
            for k2 in right:
                key, factor = _key_product(k1, k2)
                slots.append((num.setdefault(key, {}), factor))
            if index is None:
                for (target, factor), rows2 in zip(slots, right.values()):
                    for row, entries in rows1.items():
                        acc = target.get(row)
                        # `_pairs`, written out: this is the innermost loop.
                        for mid, n1 in (entries,) if entries.__class__ is tuple else entries.items():
                            found = rows2.get(mid)
                            if found is None:
                                continue
                            n1 *= factor
                            if acc is None:
                                acc = target[row] = (
                                    (found[0], n1 * found[1])
                                    if found.__class__ is tuple
                                    else {c: n1 * n2 for c, n2 in found.items()}
                                )
                                continue
                            if acc.__class__ is tuple:
                                acc = target[row] = dict((acc,))
                            for c, n2 in (found,) if found.__class__ is tuple else found.items():
                                acc[c] = acc.get(c, 0) + n1 * n2
                continue
            for row, entries in rows1.items():
                for mid, n1 in (entries,) if entries.__class__ is tuple else entries.items():
                    hits = index.get(mid)
                    if hits is None:
                        continue
                    for slot, found in hits:
                        target, factor = slots[slot]
                        n = n1 * factor
                        acc = target.get(row)
                        if acc is None:
                            target[row] = (
                                (found[0], n * found[1])
                                if found.__class__ is tuple
                                else {c: n * n2 for c, n2 in found.items()}
                            )
                            continue
                        if acc.__class__ is tuple:
                            acc = target[row] = dict((acc,))
                        for c, n2 in (found,) if found.__class__ is tuple else found.items():
                            acc[c] = acc.get(c, 0) + n * n2
        return num

    def _relabel(self, degree: int, images: Callable[[Path], list[Path]], divisor: int = 1) -> PlanarElement:
        """The degree-`degree` element in which the loop in row r and column c
        becomes the sum over i of the loops in row images(r)[i] and column
        images(c)[i], divided by `divisor`.  `images` must send the paths of
        one (base, endpoint) block to lists of one length; its result for
        each path is reused.

        Each image row is written in stored form with its source row's
        numerators.  When no two image rows meet, no two columns of a row
        have one image and every path has an image, distinct loops go to
        distinct loops, so with divisor 1 the image of a normal element is
        normal as written.  Otherwise the loops that meet add up, or the
        divisor enters the denominator, and `_store` runs."""
        seen: dict[Path, list[Path]] = {}
        num: dict[RadicalKey, Rows] = {}
        met = divisor != 1
        for key, rows in self._num.items():
            out = num[key] = {}
            for row, entries in rows.items():
                targets = seen.get(row) or seen.setdefault(row, images(row))
                if not targets:
                    met = True
                elif entries.__class__ is tuple:
                    col, n = entries
                    for target, c in zip(targets, seen.get(col) or seen.setdefault(col, images(col))):
                        image = (c, n)
                        if out.setdefault(target, image) is not image:
                            met = True
                            _meet(out, target, image)
                else:
                    cols = [(seen.get(c) or seen.setdefault(c, images(c)), n) for c, n in entries.items()]
                    for i, target in enumerate(targets):
                        image = {}
                        for col, n in cols:
                            image[col[i]] = n
                        if len(image) < len(cols):
                            # Two columns of the row have one image.
                            met = True
                            image = {}
                            for col, n in cols:
                                image[col[i]] = image.get(col[i], 0) + n
                        if out.setdefault(target, image) is not image:
                            met = True
                            _meet(out, target, image)
        if met:
            return PlanarElement._normal(degree, self._den * divisor, num)
        return _fill(_new(PlanarElement), degree, self._den, num)

    def contract_last(self, weights: Sequence[RadicalScalar]) -> PlanarElement:
        """Contraction of the last column, one degree down: a loop whose two
        rows end in the same edge e becomes weights[e] times the loop with
        both last edges removed, and every other loop is dropped."""
        if self.degree < 1:
            raise DegreeMismatchError("expectation needs degree at least 1")
        wden = lcm(*(w._den for w in weights))
        num: dict[RadicalKey, AccRows] = {}
        for key, rows in self._num.items():
            for row, entries in rows.items():
                last = row[-1]
                kept = [(col[:-1], n) for col, n in _pairs(entries) if col[-1] == last]
                if not kept:
                    continue
                weight = weights[ord(last)]
                scale = wden // weight._den
                for wkey, wn in weight._num.items():
                    out_key, factor = _key_product(key, wkey)
                    _add_row(num.setdefault(out_key, {}), row[:-1], kept, wn * factor * scale)
        return PlanarElement._normal(self.degree - 1, self._den * wden, num)

    def is_self_adjoint(self) -> bool:
        """Whether x* == x: the involution swaps the row and the column of
        each loop and keeps its real coefficient, so x is self-adjoint when
        every key's matrix is symmetric (docs/temperley-lieb-adjoint.md,
        section 1), the test `_symmetric` on the stored rows.  Builds no
        second element."""
        return _symmetric(self._num)

    def _product_is_self_adjoint(self, other: PlanarElement) -> bool:
        """Whether self * other is self-adjoint, tested on the rows of
        `_product` with no normal-form pass."""
        return _symmetric(self._product(other))

    def _is_quotient(self, other: PlanarElement, r: int) -> bool:
        """Whether self == other / r, for a positive integer r.  When r
        divides self's denominator, r self has normal form (self._den / r,
        self's numerators), so the stored forms are compared as they are;
        otherwise other / r is formed (docs/temperley-lieb-adjoint.md,
        section 9)."""
        if self._den % r:
            return self == other.scaled(Fraction(1, r))
        return self.degree == other.degree and other._den == self._den // r and other._num == self._num

    def _restricted(self, prefixes: set[Path], k: int) -> PlanarElement:
        """The element of the rows whose first k + 1 code points, the base
        and k edges, lie in prefixes, with one normal-form pass on copies of
        the kept dict rows, so self's rows are never changed
        (docs/temperley-lieb-blocks.md)."""
        num: dict[RadicalKey, Rows] = {}
        for key, rows in self._num.items():
            num[key] = {
                row: entries if entries.__class__ is tuple else dict(entries)
                for row, entries in rows.items()
                if row[: k + 1] in prefixes
            }
        return PlanarElement._normal(self.degree, self._den, num)

    def diagonal_sums(self, block: Callable[[Path], Hashable]) -> dict[Hashable, RadicalScalar]:
        """block(p) -> the sum of the coefficients of the diagonal loops, both
        rows one path p, over the paths p of that block; a block without a
        diagonal loop is left out."""
        num: dict[Hashable, dict[RadicalKey, int]] = {}
        for key, rows in self._num.items():
            for row, entries in rows.items():
                n = (entries[1] if entries[0] == row else 0) if entries.__class__ is tuple else entries.get(row, 0)
                if n:
                    acc = num.setdefault(block(row), {})
                    acc[key] = acc.get(key, 0) + n
        return {b: _reduced(self._den, {key: n for key, n in acc.items() if n}) for b, acc in num.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarElement):
            return NotImplemented
        return self.degree == other.degree and self._den == other._den and self._num == other._num

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return f"PlanarElement(degree={self.degree}, 0)"
        body = " + ".join(f"({terms[l]})*{l.base}:{l.edges}" for l in sorted(terms))
        return f"PlanarElement(degree={self.degree}, {body})"


_new = object.__new__
_new_tuple = tuple.__new__
_set_degree = PlanarElement.degree.__set__
_set_den = PlanarElement._den.__set__
_set_num = PlanarElement._num.__set__


def _integer_rows(
    entries: Sequence[tuple[Path, Path, RadicalScalar]],
) -> tuple[int, dict[RadicalKey, AccRows]]:
    """The common denominator and the accumulated integer rows of the element
    with coefficient c in row r and column s for each (r, s, c) of entries,
    whose (r, s) pairs are distinct; every path and numerator is interned
    in `_SHARED`."""
    den = lcm(*(c._den for _, _, c in entries))
    num: dict[RadicalKey, AccRows] = {}
    shared = _SHARED
    if len(shared) >= _SHARED_MAX:
        shared.clear()
    for row, col, coeff in entries:
        row, col = shared.setdefault(row, row), shared.setdefault(col, col)
        scale = den // coeff._den
        for key, n in coeff._num.items():
            n *= scale
            num.setdefault(key, {}).setdefault(row, {})[col] = shared.setdefault(n, n)
    return den, num


def _symmetric(num: dict[RadicalKey, Rows]) -> bool:
    """Whether every key's matrix of rows is symmetric, on stored rows or on
    the accumulated rows of `_product`: an entry that cancelled to 0 counts
    as absent, and the denominator does not enter."""
    for rows in num.values():
        for row, entries in rows.items():
            # `_pairs`, written out: every entry is read.
            for col, n in (entries,) if entries.__class__ is tuple else entries.items():
                if not n:
                    continue
                mirror = rows.get(col)
                if mirror is None or (mirror != (row, n) if mirror.__class__ is tuple else mirror.get(row) != n):
                    return False
    return True


def _pairs(row: Row) -> Iterable[tuple[Path, int]]:
    """The (column, numerator) pairs of a stored row."""
    return (row,) if row.__class__ is tuple else row.items()


def _add_row(rows: AccRows, row: Path, pairs: Iterable[tuple[Path, int]], scale: int) -> None:
    """rows[row] += scale * pairs, where rows is being accumulated for a
    result: a row of an operand is never changed."""
    acc = rows.get(row)
    if acc is None:
        rows[row] = {c: scale * n for c, n in pairs}
    else:
        for c, n in pairs:
            acc[c] = acc.get(c, 0) + scale * n


def _meet(rows: Rows, row: Path, image: Row) -> None:
    """rows[row] += image, where rows is being built for a result: a pair
    there becomes a dict."""
    acc = rows[row]
    if acc.__class__ is tuple:
        acc = rows[row] = dict((acc,))
    for c, n in _pairs(image):
        acc[c] = acc.get(c, 0) + n


def _store(out: PlanarElement, degree: int, den: int, num: dict[RadicalKey, Rows]) -> PlanarElement:
    """Stores integer rows, which the caller hands over, in `out` in normal
    form.  Each row is an accumulated dict or a (column, numerator) pair
    with a nonzero numerator.  Drops zero numerators, rows left empty by
    them and empty keys, stores one-entry rows as pairs, and divides out the
    common factor in place."""
    g = den
    for key in list(num):
        rows = num[key]
        for row in list(rows):
            entries = rows[row]
            if entries.__class__ is tuple:
                if g != 1:
                    g = gcd(g, entries[1])
                continue
            if not all(entries.values()):
                entries = {c: n for c, n in entries.items() if n}
                if not entries:
                    del rows[row]
                    continue
                rows[row] = entries
            if g != 1:
                g = gcd(g, *entries.values())
            if len(entries) == 1:
                rows[row] = entries.popitem()
        if not rows:
            del num[key]
    if g != 1:
        den //= g
        for rows in num.values():
            for row, entries in rows.items():
                if entries.__class__ is tuple:
                    rows[row] = (entries[0], entries[1] // g)
                else:
                    for c, n in entries.items():
                        entries[c] = n // g
    return _fill(out, degree, den, num)


def _fill(out: PlanarElement, degree: int, den: int, num: dict[RadicalKey, Rows]) -> PlanarElement:
    """Sets the slots of `out` to rows already in normal form."""
    _set_degree(out, degree)
    _set_den(out, den)
    _set_num(out, num)
    return out


class BipartiteGraph:
    """Weighted bipartite graph of a Markov inclusion with integer index; its edges live in the `Step` tables."""

    def __init__(self, inclusion: InclusionData):
        self.inclusion = inclusion
        self.r = markov_index(inclusion)
        self.num_a = inclusion.rows
        self.num_b = inclusion.cols
        self.gamma = sqrt_of_int(self.r)
        self._point_weight = tuple(map(RadicalScalar.from_rational, canonical_trace_weights(inclusion.a)))

        # The edge from lower vertex i up to upper vertex j has squared spin
        # b_j / (a_i gamma): no total dimension enters, so only r and b_j / a_i
        # are factored.  Parallel edges share their spins: the exact arithmetic
        # runs once per (lower, upper) pair with an edge, not once per edge.
        inv_gamma = self.gamma.invert()
        sums = ([RadicalScalar.zero()] * self.num_a, [RadicalScalar.zero()] * self.num_b)
        # Vertex -> ids of the edges out of it (one list's ints serve both ends),
        # edge id -> end, spin and squared spin of the up, then the down step.
        ups, downs = [[] for _ in range(self.num_a)], [[] for _ in range(self.num_b)]
        columns = ([], [], [], [], [], [])
        for i, row in inclusion._sparse.items():
            for j, count in row.items():
                up_sq = RadicalScalar.from_rational(Fraction(inclusion.b[j], inclusion.a[i])) * inv_gamma
                up, down_sq = up_sq.sqrt(), up_sq.invert()
                ids = list(range(len(columns[0]), len(columns[0]) + count))
                ups[i] += ids
                downs[j] += ids
                for column, value in zip(columns, (j, up, up_sq, i, up.invert(), down_sq)):
                    column += [value] * count
                sums[0][i] += up_sq * count
                sums[1][j] += down_sq * count
        # Jones's condition, exactly: the squared spins out of each vertex sum
        # to gamma.  Every Markov inclusion passes, so a failure is a bug.
        for side, totals in zip(("lower", "upper"), sums):
            for v, total in enumerate(totals):
                if total != self.gamma:
                    raise EigenvectorViolationError(f"{side} vertex {v}: squared spins sum to {total}, not gamma")
        up_columns, down_columns = map(tuple, columns[:3]), map(tuple, columns[3:])
        self._steps = (Step(tuple(map(tuple, ups)), *up_columns), Step(tuple(map(tuple, downs)), *down_columns))

    @property
    def weights_a(self) -> tuple[RadicalScalar, ...]:
        """Lower vertex weights a_i / sqrt(dim A), formed on each read: no operation reads them."""
        return tuple(w.sqrt() for w in self._point_weight)

    @property
    def weights_b(self) -> tuple[RadicalScalar, ...]:
        """Upper vertex weights b_j / sqrt(dim B), formed on each read."""
        return tuple(RadicalScalar.from_rational(w).sqrt() for w in canonical_trace_weights(self.inclusion.b))

    # -- edges and spins ----------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The `Edge` records, formed on each read from the step tables: no operation reads them."""
        return tuple(map(Edge, range(len(self._steps[0].end)), self._steps[1].end, self._steps[0].end))

    def edge(self, eid: int) -> Edge:
        return Edge(eid, self._steps[1].end[eid], self._steps[0].end[eid])

    def step(self, pos: int) -> Step:
        """The step at position pos of a path out of a lower vertex: the up
        step at even positions, the down step at odd ones."""
        return self._steps[pos % 2]

    def edges_up(self, i: int) -> tuple[int, ...]:
        """Ids of edges leaving lower vertex i, ascending."""
        return self._steps[0].attach[i]

    def spin_factor(self, eid: int, direction: SpinDirection) -> RadicalScalar:
        """Spin of traversing an edge: up is sqrt(top weight / bottom weight),
        down is the reciprocal; the two multiply to one."""
        if direction not in ("up", "down"):
            raise ValidationError(f"direction must be 'up' or 'down', got {direction!r}")
        return self._steps[direction == "down"].spin[eid]

    def point_weight(self, i: int) -> RadicalScalar:
        """Weight of the degree-0 point loop at lower vertex i under the
        normalized evaluation: the Markov trace weight a_i^2 / dim A, the
        squared vertex weight."""
        return self._point_weight[i]

    # -- paths and loops ------------------------------------------------------

    def rows(self, k: int) -> PathTable:
        """The based paths of length k as `Path` strings, walked anew on
        every call: those of length k + 1 are those of length k in id order,
        each extended by the edges step k attaches at its end, ascending.
        ResourceLimitError when an id of the graph is not a code point."""
        if k < 0:
            raise ValidationError("path length must be nonnegative")
        check_path_ids(self.num_a, len(self._steps[0].end))
        bases = range(self.num_a)
        paths, where = list(encode_path(bases)), [(b, b) for b in bases]
        for pos in range(k):
            attach, end, _, _ = self.step(pos)
            out = [encode_path(ids) for ids in attach]  # vertex -> its edges' code points
            paths = [p + f for p, (_, v) in zip(paths, where) for f in out[v]]
            where = [(ord(p[0]), end[ord(p[-1])]) for p in paths]
        return PathTable(paths, where)

    def paths_from(self, base: int, k: int) -> list[tuple[int, ...]]:
        """All alternating edge-id paths of length k out of a lower vertex,
        in lexicographic edge-id order."""
        if not 0 <= base < self.num_a:
            raise ValidationError(f"no lower vertex {base}")
        return [decode_path(p[1:]) for p in self.rows(k).paths if ord(p[0]) == base]

    def _loop_rows(self, k: int) -> tuple[PathTable, dict[tuple[int, int], list[Path]]]:
        """The paths of length k, and the paths of each (base, endpoint)
        class by reversed path, from one sort of all of them: the degree-k
        loops in canonical order are each path in id order as the top row
        (the column) with the paths of its class as bottom rows (the rows)."""
        table = self.rows(k)
        classes = {key: [] for key in table.where}
        for _, key, path in sorted(zip([p[:0:-1] for p in table.paths], table.where, table.paths)):
            classes[key].append(path)
        return table, classes

    def iter_loops(self, k: int) -> Iterator[Loop]:
        """Degree-k loops in canonical order (`_loop_rows`)."""
        (paths, where), classes = self._loop_rows(k)
        bottoms = {key: [decode_path(p[:0:-1]) for p in rows] for key, rows in classes.items()}
        for path, key in zip(paths, where):
            base, top = ord(path[0]), decode_path(path[1:])
            # Both rows have length k, so Loop's check is skipped.
            for bottom in bottoms[key]:
                yield tuple.__new__(Loop, (base, top + bottom))

    def enumerate_loops(self, k: int) -> list[Loop]:
        return list(self.iter_loops(k))

    def unit(self, k: int) -> PlanarElement:
        """Multiplicative unit of degree k: all loops with equal rows."""
        one = RadicalScalar.one()
        return PlanarElement._normal(k, *_integer_rows([(p, p, one) for p in self.rows(k).paths]))

    def cup_cap(self, k: int, scale: RadicalScalar) -> PlanarElement:
        """The cup-cap element of degree k + 2 times scale: spin(t) spin(u) scale
        in row p u u and column p t t, for p of length k and u and t attachable
        at p's end."""
        paths, where = self.rows(k)
        attach, _, spin, _ = self.step(k)
        # Vertex -> (u u, t t, coefficient) for u, then t, attachable there: one product each.
        bounces = [
            [(encode_path((u, u)), encode_path((t, t)), spin[t] * spin[u] * scale) for u in out for t in out]
            for out in attach
        ]
        entries = [(p + uu, p + tt, c) for p, (_, end) in zip(paths, where) for uu, tt, c in bounces[end]]
        return PlanarElement._normal(k + 2, *_integer_rows(entries))

    def shift_prefixes(self, base: int) -> list[tuple[int, int, int]]:
        """The prefixes (new base, up edge w, down edge d) that shift puts on
        rows at a base: d leaves the base, w enters d's upper vertex."""
        up, down = self._steps
        return [(down.end[w], w, d) for d in up.attach[base] for w in down.attach[up.end[d]]]

    def point(self, i: int) -> Loop:
        return Loop(i, ())


def build_graph(inc: InclusionData) -> BipartiteGraph:
    """Weighted graph of a Markov inclusion; NotMarkov when the inclusion
    is not Markov with integer index."""
    return BipartiteGraph(inc)
