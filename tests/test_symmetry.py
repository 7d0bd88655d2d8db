"""Graph symmetries: group closure, averaging, fixed spaces, verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from planaralg import (
    GraphAutomorphism,
    GroupTooLargeError,
    InclusionData,
    InvalidAutomorphismError,
    Loop,
    NotAbelianError,
    PlanarElement,
    RadicalScalar,
    ValidationError,
    act,
    act_loop,
    build_graph,
    burnside_dim,
    close_group,
    fixed_dims_report,
    fixed_space_basis,
    identity_automorphism,
    include,
    is_centrally_ergodic,
    make_automorphism,
    reynolds,
    verify_planar_subalgebra,
)
from planaralg.symmetry import SubalgebraCheck
from conftest import corpus_entry
from test_graph import random_element


@pytest.fixture(scope="module")
def two_point_swap(graphs):
    g = graphs("C-in-C2")
    return g, make_automorphism(g, [0], [1, 0])


@pytest.fixture(scope="module")
def three_point_cycle(graphs):
    g = graphs("C-in-C3")
    return g, make_automorphism(g, [0], [1, 2, 0])


@pytest.fixture(scope="module")
def parallel_edge_swap(graphs):
    g = graphs("C-in-M2")
    return g, make_automorphism(g, [0], [0], [1, 0])


@pytest.fixture(scope="module")
def mixed_blocks_graph():
    # Two one-dimensional small blocks, big blocks (1, 1, 2); the two
    # one-dimensional big blocks can be swapped together with the small ones.
    return build_graph(InclusionData([1, 1], [[1, 0, 1], [0, 1, 1]]))


class TestMakeAutomorphism:
    def test_identity(self, graphs):
        g = graphs("C-in-C2")
        auto = identity_automorphism(g)
        assert auto.is_identity()
        assert make_automorphism(g, [0], [0, 1]) == auto

    def test_derives_edge_permutation(self, two_point_swap):
        g, swap = two_point_swap
        assert swap.perm_e == (1, 0)
        assert swap.perm_b == (1, 0)

    def test_swap_on_mixed_blocks(self, mixed_blocks_graph):
        g = mixed_blocks_graph
        auto = make_automorphism(g, [1, 0], [1, 0, 2])
        # edges: 0: a0-b0, 1: a0-b2, 2: a1-b1, 3: a1-b2
        assert auto.perm_e == (2, 3, 0, 1)

    def test_compose_order(self, three_point_cycle):
        g, cycle = three_point_cycle
        twice = cycle.compose(cycle)
        assert twice.perm_b == (2, 0, 1)
        assert cycle.compose(twice).is_identity()

    def test_rejects_non_permutation(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0], [0, 0])
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0, 1], [0, 1])

    def test_rejects_incidence_breaking_vertex_maps(self, mixed_blocks_graph):
        # Swapping only the small blocks sends edge a0-b0 to a1-b0, which
        # does not exist.
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(mixed_blocks_graph, [1, 0], [0, 1, 2])

    def test_rejects_incompatible_edge_permutation(self, graphs):
        g = graphs("C-in-M2")
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0], [0], [0, 0])

    def test_multigraph_requires_explicit_edges(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [1, 0], [1, 0])
        auto = make_automorphism(g, [1, 0], [1, 0], [2, 3, 0, 1])
        assert auto.perm_e == (2, 3, 0, 1)


class TestCloseGroup:
    def test_two_element_group(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        assert group.order == 2
        assert group.elements[0].is_identity()

    def test_symmetric_group_closure(self, graphs):
        g = graphs("C-in-C3")
        cycle = make_automorphism(g, [0], [1, 2, 0])
        flip = make_automorphism(g, [0], [1, 0, 2])
        group = close_group(g, [cycle, flip])
        assert group.order == 6

    def test_empty_generators_give_trivial_group(self, graphs):
        g = graphs("C-in-C2")
        group = close_group(g, [])
        assert group.order == 1

    def test_limit_enforced(self, graphs):
        g = graphs("C-in-C3")
        cycle = make_automorphism(g, [0], [1, 2, 0])
        flip = make_automorphism(g, [0], [1, 0, 2])
        with pytest.raises(GroupTooLargeError):
            close_group(g, [cycle, flip], limit=3)

    def test_rejects_non_automorphism_generators(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError):
            close_group(g, [(0, 1)])


class TestAction:
    def test_act_loop(self, two_point_swap):
        g, swap = two_point_swap
        assert act_loop(swap, Loop(0, (0, 0))) == Loop(0, (1, 1))
        assert act_loop(swap, Loop(0, (0, 0, 1, 1))) == Loop(0, (1, 1, 0, 0))

    def test_act_is_algebra_map(self, parallel_edge_swap):
        g, swap = parallel_edge_swap
        rng = random.Random(41)
        loops = g.enumerate_loops(2)
        for _ in range(25):
            x = random_element(rng, loops)
            y = random_element(rng, loops)
            assert act(swap, x * y) == act(swap, x) * act(swap, y)
            assert act(swap, x + y) == act(swap, x) + act(swap, y)

    def test_reynolds_two_point(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        averaged = reynolds(group, PlanarElement.basis(Loop(0, (0, 0))))
        half = RadicalScalar.from_rational(Fraction(1, 2))
        assert averaged.terms == {Loop(0, (0, 0)): half, Loop(0, (1, 1)): half}

    def test_reynolds_is_projection(self, three_point_cycle):
        g, cycle = three_point_cycle
        group = close_group(g, [cycle])
        rng = random.Random(43)
        loops = g.enumerate_loops(2)
        for _ in range(20):
            x = random_element(rng, loops)
            p = reynolds(group, x)
            assert reynolds(group, p) == p
            for gen in group.generators:
                assert act(gen, p) == p


class TestFixedSpaces:
    def test_two_point_dims(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        assert fixed_dims_report(group, 3) == [1, 1, 2, 4]

    def test_three_point_dims(self, three_point_cycle):
        g, cycle = three_point_cycle
        group = close_group(g, [cycle])
        assert fixed_dims_report(group, 3) == [1, 1, 3, 9]

    def test_full_symmetric_group_dims(self, graphs):
        g = graphs("C-in-C3")
        cycle = make_automorphism(g, [0], [1, 2, 0])
        flip = make_automorphism(g, [0], [1, 0, 2])
        group = close_group(g, [cycle, flip])
        assert fixed_dims_report(group, 2) == [1, 1, 2]

    def test_parallel_edge_dims(self, parallel_edge_swap):
        g, swap = parallel_edge_swap
        group = close_group(g, [swap])
        assert fixed_dims_report(group, 2) == [1, 2, 8]

    def test_trivial_group_fixes_everything(self, graphs):
        g = graphs("C-in-C2")
        group = close_group(g, [])
        assert fixed_dims_report(group, 3) == [1, 2, 4, 8]

    def test_basis_is_orbit_sums(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        basis = fixed_space_basis(group, 2)
        assert len(basis) == 2
        one = RadicalScalar.one()
        assert basis[0].terms == {Loop(0, (0, 0, 0, 0)): one, Loop(0, (1, 1, 1, 1)): one}
        assert basis[1].terms == {Loop(0, (0, 0, 1, 1)): one, Loop(0, (1, 1, 0, 0)): one}

    def test_rejects_maps_that_are_not_permutations(self, graphs):
        # close_group takes raw automorphisms unchecked; counting fixed
        # loops under them must refuse, not fail an internal check.
        g = graphs("C-in-C2")
        group = close_group(g, [GraphAutomorphism((0,), (0, 0), (0, 0))])
        with pytest.raises(InvalidAutomorphismError, match="perm_b"):
            fixed_dims_report(group, 2)
        group = close_group(g, [GraphAutomorphism((0,), (1, 0), (0, 0))])
        with pytest.raises(InvalidAutomorphismError, match="perm_e"):
            fixed_dims_report(group, 2)

    @pytest.mark.parametrize("k", range(6))
    def test_burnside_matches_orbit_count(self, three_point_cycle, k):
        g, cycle = three_point_cycle
        group = close_group(g, [cycle])
        assert burnside_dim(group, k) == len(fixed_space_basis(group, k))


class TestErgodicity:
    def test_transitive_action(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        assert is_centrally_ergodic(group) == (True, True)

    def test_trivial_group_is_not_transitive(self, graphs):
        g = graphs("C-in-C2")
        group = close_group(g, [])
        assert is_centrally_ergodic(group) == (True, False)

    def test_rejects_noncentral_inclusion(self, graphs):
        g = graphs("C2-in-M2")
        group = close_group(g, [])
        with pytest.raises(NotAbelianError):
            is_centrally_ergodic(group)


class TestSubalgebraVerification:
    @pytest.mark.parametrize("kmax", [1, 2])
    def test_two_point_swap_passes(self, two_point_swap, kmax):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        report = verify_planar_subalgebra(group, kmax)
        assert report.all_passed
        assert report.group_order == 2
        assert report.kmax == kmax
        assert report.checks

    def test_parallel_edge_swap_passes(self, parallel_edge_swap):
        g, swap = parallel_edge_swap
        group = close_group(g, [swap])
        report = verify_planar_subalgebra(group, 2)
        assert report.all_passed

    def test_mixed_blocks_swap_passes(self, mixed_blocks_graph):
        g = mixed_blocks_graph
        auto = make_automorphism(g, [1, 0], [1, 0, 2])
        group = close_group(g, [auto])
        report = verify_planar_subalgebra(group, 2)
        assert report.all_passed

    def test_check_names(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        report = verify_planar_subalgebra(group, 2)
        names = {c.name for c in report.checks}
        assert names == {
            "closure-multiply",
            "closure-include",
            "closure-expect",
            "closure-shift",
            "projection-invariant",
            "equivariance-multiply",
            "equivariance-include",
            "equivariance-expect",
            "equivariance-shift",
        }

    def test_rejects_negative_kmax(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        with pytest.raises(ValidationError):
            verify_planar_subalgebra(group, -1)

    def test_fixed_elements_multiply_into_fixed_space(self, three_point_cycle):
        # Spot check beyond the packaged verifier: orbit sums of the cycle
        # action stay invariant under products and inclusion.
        g, cycle = three_point_cycle
        group = close_group(g, [cycle])
        basis = fixed_space_basis(group, 1)
        for x in basis:
            for y in basis:
                product = x * y
                assert act(cycle, product) == product
                grown = include(g, product)
                assert act(cycle, grown) == grown


def pairwise_multiplicative(group, kmax: int) -> list[SubalgebraCheck]:
    """The equivariance-multiply checks by brute force, one product per pair
    of basis loops; the oracle for the per-path check in the verifier."""
    g = group.graph
    checks = []
    for k in range(kmax + 1):
        elems = [PlanarElement.basis(l) for l in g.iter_loops(k)]
        for gen in group.generators:
            ok = all(
                act(gen, x * y) == act(gen, x) * act(gen, y) for x in elems for y in elems
            )
            checks.append(SubalgebraCheck("equivariance-multiply", k, ok))
    return checks


def _raw_map(rng: random.Random, size: int) -> tuple[int, ...]:
    """Identity, a permutation, or an arbitrary self-map of 0..size-1."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(range(size))
    if kind == 1:
        return tuple(rng.sample(range(size), size))
    return tuple(rng.randrange(size) for _ in range(size))


# (graph, kmax) for the seeded raw generator sets; the pairwise oracle is
# quadratic in the loop count, so the six-index graph stops at degree 2.
RAW_CASES = (("C-in-C2", 3), ("C2-in-M2", 3), ("C-in-C2xM2", 2), ("C-in-C3", 3))


def _oracle_cases(graphs):
    """Valid groups on corpus graphs, then seeded raw generator tuples that
    close_group accepts without validation."""
    valid = (
        ("C-in-C2", 3, [([0], [1, 0], None)]),
        ("C-in-C3", 3, [([0], [1, 2, 0], None), ([0], [1, 0, 2], None)]),
        ("C-in-M2", 3, [([0], [0], [1, 0])]),
        ("C2-in-M2", 3, [([1, 0], [0], None)]),
        ("C-in-C2xM2", 2, [([0], [1, 0, 2], [1, 0, 2, 3]), ([0], [0, 1, 2], [0, 1, 3, 2])]),
        ("central-C2-in-M2xM2", 2, [([1, 0], [1, 0], [2, 3, 0, 1])]),
    )
    for name, kmax, gens in valid:
        g = graphs(name)
        yield close_group(g, [make_automorphism(g, *gen) for gen in gens]), kmax
    rng = random.Random(20090)
    for index in range(40):
        name, kmax = RAW_CASES[index % len(RAW_CASES)]
        g = graphs(name)
        gens = [
            GraphAutomorphism(
                _raw_map(rng, g.num_a), _raw_map(rng, g.num_b), _raw_map(rng, len(g.edges))
            )
            for _ in range(rng.randint(1, 2))
        ]
        yield close_group(g, gens), kmax


class TestEquivarianceMultiply:
    def test_matches_pairwise_oracle(self, graphs):
        verdicts = []
        for group, kmax in _oracle_cases(graphs):
            report = verify_planar_subalgebra(group, kmax)
            found = [c for c in report.checks if c.name == "equivariance-multiply"]
            assert found == pairwise_multiplicative(group, kmax)
            verdicts.extend(c.passed for c in found)
        # Both verdicts occur, so agreement is not vacuous.
        assert verdicts.count(False) >= 10
        assert verdicts.count(True) >= 10

    def test_degree_zero_follows_perm_a(self, graphs):
        g = graphs("C2-in-M2")
        for perm_a, injective in (((0, 1), True), ((1, 0), True), ((0, 0), False), ((1, 1), False)):
            group = close_group(g, [GraphAutomorphism(perm_a, (0,), (0, 1))])
            report = verify_planar_subalgebra(group, 0)
            (check,) = [c for c in report.checks if c.name == "equivariance-multiply"]
            assert check.passed is injective
            assert [check] == pairwise_multiplicative(group, 0)

    def test_products_are_closure_products_only(self, graphs, monkeypatch):
        # Work count, not timing: the pairwise check would add |loops_k|^2
        # products per generator and degree (over 10^5 here).
        g = graphs("C-in-C4")
        group = close_group(
            g, [make_automorphism(g, [0], [1, 0, 2, 3]), make_automorphism(g, [0], [1, 2, 3, 0])]
        )
        kmax = 4
        expected = sum(len(fixed_space_basis(group, k)) ** 2 for k in range(kmax + 1))
        calls = 0
        compose = PlanarElement._compose

        def counting(self, other):
            nonlocal calls
            calls += 1
            return compose(self, other)

        monkeypatch.setattr(PlanarElement, "_compose", counting)
        report = verify_planar_subalgebra(group, kmax)
        assert report.all_passed
        assert calls == expected == 256
