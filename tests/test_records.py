"""The frozen record types: constructor, repr, equality, hash, immutability
and validation messages, pinned independently of how the types are built,
and the messages that refuse a negative degree; the exact values' refusals
of assignment and of operands of another type."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from planaralg import (
    AlgebraDims,
    Edge,
    GraphAutomorphism,
    InclusionData,
    Loop,
    MarkovReport,
    PlanarElement,
    RadicalScalar,
    RelationCheck,
    SubalgebraReport,
    ValidationError,
    build_graph,
    jones_projection,
    jones_projection_raw,
    jones_tower,
    loop_space_dim,
)
from planaralg.symmetry import SubalgebraCheck
from conftest import MARKOV_CORPUS, corpus_entry


def _report(passed: bool) -> SubalgebraReport:
    return SubalgebraReport(kmax=1, group_order=2, checks=(SubalgebraCheck("closure-multiply", 0, passed),))


# (build, build with one field changed, the pinned repr, the field to assign)
RECORDS = {
    "AlgebraDims": (
        lambda: AlgebraDims([1, 2]),
        lambda: AlgebraDims([2, 1]),
        "AlgebraDims(blocks=(1, 2))",
        "total_dim",
    ),
    "InclusionData": (
        lambda: InclusionData([1, 1], [[1, 0], [1, 2]]),
        lambda: InclusionData([1, 1], [[1, 0], [2, 2]]),
        "InclusionData(a=AlgebraDims(blocks=(1, 1)), m=((1, 0), (1, 2)))",
        "m",
    ),
    "MarkovReport": (
        lambda: MarkovReport(is_markov=True, r=Fraction(2), is_abelian=True, index_violation=False),
        lambda: MarkovReport(True, Fraction(5, 2), True, False),
        "MarkovReport(is_markov=True, r=Fraction(2, 1), is_abelian=True, index_violation=False)",
        "r",
    ),
    "Edge": (
        lambda: Edge(3, 0, 1),
        lambda: Edge(id=3, src=0, dst=2),
        "Edge(id=3, src=0, dst=1)",
        "dst",
    ),
    "GraphAutomorphism": (
        lambda: GraphAutomorphism((0,), (1, 0), (1, 0)),
        lambda: GraphAutomorphism(perm_a=(0,), perm_b=(1, 0), perm_e=(0, 1)),
        "GraphAutomorphism(perm_a=(0,), perm_b=(1, 0), perm_e=(1, 0))",
        "perm_e",
    ),
    "SubalgebraCheck": (
        lambda: SubalgebraCheck("closure-expect", 2, True),
        lambda: SubalgebraCheck(name="closure-expect", degree=2, passed=False),
        "SubalgebraCheck(name='closure-expect', degree=2, passed=True)",
        "passed",
    ),
    "SubalgebraReport": (
        lambda: _report(True),
        lambda: _report(False),
        "SubalgebraReport(kmax=1, group_order=2, "
        "checks=(SubalgebraCheck(name='closure-multiply', degree=0, passed=True),))",
        "checks",
    ),
    "RelationCheck": (
        lambda: RelationCheck("bounce-low", (0, 1), True),
        lambda: RelationCheck(relation="bounce-low", indices=(1, 0), passed=True),
        "RelationCheck(relation='bounce-low', indices=(0, 1), passed=True)",
        "indices",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    build, _, text, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_instances_are_equal_and_hash_alike(name):
    build, other, _, _ = RECORDS[name]
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert build() != other() and not build() == other()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_instances_are_immutable(name):
    build, _, text, field = RECORDS[name]
    x = build()
    value = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, value)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    assert getattr(x, field) == value
    assert repr(x) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_are_equal(name):
    build, _, text, _ = RECORDS[name]
    x = build()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == text


@pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
def test_exact_values_copy_and_pickle(graphs, name):
    g = graphs(name)
    projection = jones_projection(g, 1)
    scalars = [g.gamma, g.gamma.invert(), RadicalScalar.zero(), *projection.terms.values()]
    for x in scalars + [projection, PlanarElement(2)]:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)
            if isinstance(x, RadicalScalar):
                assert hash(y) == hash(x)


def test_inclusion_hash_ignores_the_derived_big_side():
    x, y = RECORDS["InclusionData"][0](), RECORDS["InclusionData"][0]()
    assert x.b == AlgebraDims([2, 2])
    assert x == y and hash(x) == hash(y)
    with pytest.raises(AttributeError):
        x.b = AlgebraDims([1])
    assert x.b == AlgebraDims([2, 2])


def test_algebra_dims_reads_as_its_blocks():
    dims = AlgebraDims((3, 1, 2))
    assert (len(dims), list(dims), dims[0], dims[-1], dims.total_dim) == (3, [3, 1, 2], 3, 2, 14)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AlgebraDims([]), "an algebra needs at least one block"),
        (lambda: AlgebraDims([1, 0]), "block dimension 0 is not a positive integer"),
        (lambda: AlgebraDims([True]), "block dimension True is not a positive integer"),
        (lambda: AlgebraDims([1.0]), "block dimension 1.0 is not a positive integer"),
        (lambda: InclusionData([1], [[1], [1]]), "matrix has 2 rows for 1 blocks"),
        (lambda: InclusionData([1], [[]]), "inclusion matrix must be non-empty"),
        (lambda: InclusionData([1, 1], [[1, 0], [1]]), "inclusion matrix rows have unequal lengths"),
        (lambda: InclusionData([1], [[-1]]), "matrix entry -1 is not a nonnegative integer"),
        (lambda: InclusionData([1], [[False]]), "matrix entry False is not a nonnegative integer"),
        (lambda: InclusionData([1, 1], [[1], [0]]), "row 1 of the inclusion matrix is zero"),
        (lambda: InclusionData([1], [[1, 0]]), "column 1 of the inclusion matrix is zero"),
        (lambda: InclusionData([0], [[1]]), "block dimension 0 is not a positive integer"),
        # _make, and _replace through it, build through the checking constructor;
        # these inputs carry ids, so the ids of the inputs above stay as they are.
        pytest.param(
            lambda: InclusionData([1], [[1]])._replace(m=[[0]]),
            "row 0 of the inclusion matrix is zero",
            id="InclusionData._replace",
        ),
        pytest.param(
            lambda: Loop(0, (1, 2))._replace(edges=(1,)),
            "a loop has an even number of edges",
            id="Loop._replace",
        ),
        pytest.param(lambda: Loop._make((0, (5,))), "a loop has an even number of edges", id="Loop._make"),
        # Past the interpreter's int-to-str digit limit.
        (lambda: RadicalScalar.parse("1 * " + "7" * 5000 + "^(1/4)"), "radical factor has too many digits"),
        (lambda: RadicalScalar.parse("1 + * 2^(1/4)"), "empty term in scalar text: '1 + * 2^(1/4)'"),
        (lambda: RadicalScalar.parse(""), "empty term in scalar text: ''"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


C_IN_C2 = corpus_entry("C-in-C2").inclusion()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PlanarElement(-1), "degree must be nonnegative"),
        (lambda: jones_projection(build_graph(C_IN_C2), -1), "k must be nonnegative"),
        (lambda: jones_projection_raw(build_graph(C_IN_C2), -1), "k must be nonnegative"),
        (lambda: jones_tower(C_IN_C2, -1), "depth must be nonnegative"),
        (lambda: loop_space_dim(C_IN_C2, -1), "k must be nonnegative"),
    ],
    ids=["PlanarElement", "jones_projection", "jones_projection_raw", "jones_tower", "loop_space_dim"],
)
def test_negative_degrees_are_refused(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [PlanarElement.basis(Loop(0, (0, 0))), RadicalScalar.parse("2 * 3^(2/4)")])
def test_exact_values_are_immutable(value):
    for name in (*value.__slots__, "note"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, 1)


def _outcome(apply, value):
    """apply(value), or TypeError when it raises that."""
    try:
        return apply(value)
    except TypeError:
        return TypeError


# (the method that returns NotImplemented for a str, an expression that calls it)
ELEMENT_REFUSALS = {
    "__add__": lambda x: x + "a",
    "__sub__": lambda x: x - "a",
    "__mul__": lambda x: x * "a",
    "__rmul__": lambda x: "a" * x,
    "__eq__": lambda x: x == "a",
}
SCALAR_REFUSALS = {
    "__add__": lambda x: x + "a",
    "__sub__": lambda x: x - "a",
    "__rsub__": lambda x: "a" - x,
    "__mul__": lambda x: x * "a",
    "__pow__": lambda x: x ** "a",
    "__eq__": lambda x: x == "a",
}


@pytest.mark.parametrize("method", sorted(ELEMENT_REFUSALS))
def test_element_operators_refuse_other_operands(method):
    x = PlanarElement.basis(Loop(0, (0, 0)))
    assert getattr(x, method)("a") is NotImplemented
    assert _outcome(ELEMENT_REFUSALS[method], x) is (False if method == "__eq__" else TypeError)


@pytest.mark.parametrize("method", sorted(SCALAR_REFUSALS))
def test_scalar_operators_refuse_other_operands(method):
    x = RadicalScalar.parse("2 * 3^(2/4)")
    assert getattr(x, method)("a") is NotImplemented
    assert _outcome(SCALAR_REFUSALS[method], x) is (False if method == "__eq__" else TypeError)
