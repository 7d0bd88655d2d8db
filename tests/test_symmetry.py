"""Graph symmetries: group closure, averaging, fixed spaces, verification."""

from __future__ import annotations

import ast
import contextlib
import copy
import functools
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import element_oracle as oracle
from element_oracle import edge_condition, identity_automorphism, includes_commute, raw_group
from planaralg import (
    BipartiteGraph,
    GraphAutomorphism,
    GroupAction,
    GroupTooLargeError,
    InclusionData,
    InvalidAutomorphismError,
    Loop,
    NotAbelianError,
    PlanarAlgError,
    PlanarElement,
    RadicalScalar,
    ValidationError,
    act,
    act_loop,
    build_graph,
    close_group,
    expect,
    fixed_dims_report,
    fixed_space_basis,
    include,
    is_centrally_ergodic,
    jones_projection,
    jones_projection_raw,
    make_automorphism,
    reynolds,
    shift,
    sum_scalars,
    trace,
    verify_planar_subalgebra,
)
from planaralg import graph, symmetry
from planaralg.symmetry import SubalgebraCheck, SubalgebraReport
from conftest import CORPUS_GROUPS, MARKOV_CORPUS, corpus_entry, generated_markov_inclusions
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
        assert auto == GraphAutomorphism((0,), (0, 1), (0, 1))
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
        assert cycle.compose(twice) == identity_automorphism(g)

    def test_rejects_non_permutation(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0], [0, 0])
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0, 1], [0, 1])
        with pytest.raises(InvalidAutomorphismError, match="not an integer"):
            make_automorphism(g, [0], [1.0, 0.0])

    def test_integer_entries(self, graphs):
        # Entries of type int pass at once; bool and float entries are still
        # refused with the same message, by make_automorphism and by
        # close_group, and other int subclasses are still integers.
        class Index(int):
            pass

        g = graphs("C-in-C2")
        for entries in ((True, False), (1.0, 0.0)):
            with pytest.raises(InvalidAutomorphismError) as refused:
                make_automorphism(g, [0], entries)
            assert str(refused.value) == f"perm_b has an entry that is not an integer: {entries}"
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(g, [GraphAutomorphism((0,), (True, False), (1, 0))])
        assert str(refused.value) == "perm_b has an entry that is not an integer: (True, False)"
        auto = make_automorphism(g, [Index(0)], [Index(1), Index(0)])
        assert auto.perm_b == (1, 0)
        assert fixed_dims_report(close_group(g, [auto]), 2) == [1, 1, 2]

    def test_rejects_incidence_breaking_vertex_maps(self, mixed_blocks_graph):
        # Swapping only the small blocks sends edge a0-b0 to a1-b0, which
        # does not exist.
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(mixed_blocks_graph, [1, 0], [0, 1, 2])

    def test_derived_edge_map_names_the_missing_pair(self, mixed_blocks_graph):
        # Edges: 0 = a0-b0, 1 = a0-b2, 2 = a1-b1, 3 = a1-b2.  Swapping the
        # small blocks alone sends edge 0 to the pair (a1, b0), which has no
        # edge to derive its image from.
        with pytest.raises(InvalidAutomorphismError) as refused:
            make_automorphism(mixed_blocks_graph, [1, 0], [0, 1, 2])
        assert str(refused.value) == "vertex permutations send edge 0 to the pair (a1, b0) which has no edge"

    def test_rejects_incompatible_edge_permutation(self, graphs):
        g = graphs("C-in-M2")
        with pytest.raises(InvalidAutomorphismError):
            make_automorphism(g, [0], [0], [0, 0])

    def test_multigraph_requires_explicit_edges(self, graphs):
        g = graphs("central-C2-in-M2xM2")
        with pytest.raises(InvalidAutomorphismError, match="^graph has parallel edges; perm_e must be given explicitly$"):
            make_automorphism(g, [1, 0], [1, 0])
        auto = make_automorphism(g, [1, 0], [1, 0], [2, 3, 0, 1])
        assert auto.perm_e == (2, 3, 0, 1)


def test_groups_and_their_counts_build_no_edge_records(graphs, monkeypatch):
    # Work count: the step tables are the graph's one edge record, so the
    # graph, the closures (trivial, and Z2xZ2 on C-in-C2xM2 with its swap of
    # the two parallel edges), the fixed dimensions, the verifier and the
    # ergodicity test construct no `Edge`.
    built = Counter()
    real = graph.Edge

    def counting(*args, **kwargs):
        built["Edge"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(graph, "Edge", counting)
    gens = dict((name, gens) for name, _, gens in CORPUS_GROUPS)["C-in-C2xM2"]
    for name, generators in (("C-in-C2", []), ("central-C2-in-M2xM2", []), ("C-in-C2xM2", gens)):
        g = build_graph(corpus_entry(name).inclusion())
        group = close_group(g, [make_automorphism(g, *gen) for gen in generators])
        assert group.order == 4 ** bool(generators)
        fixed_dims_report(group, 4)
        assert verify_planar_subalgebra(group, 2).all_passed
        is_centrally_ergodic(group)
    assert built == Counter()
    assert len(graphs("C-in-C2").edges) == 2 and built == {"Edge": 2}


class TestCloseGroup:
    def test_two_element_group(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        assert group.order == 2
        assert group.elements[0] == identity_automorphism(g)

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

    @pytest.mark.parametrize("name", ["elements", "generators", "graph"])
    def test_group_is_immutable(self, two_point_swap, name):
        # The group keeps tables computed from these, so none may change.
        g, swap = two_point_swap
        group = close_group(g, [swap])
        with pytest.raises(AttributeError):
            setattr(group, name, getattr(group, name))
        with pytest.raises(AttributeError):
            group.extra = None

    def test_limit_enforced(self, graphs):
        g = graphs("C-in-C3")
        cycle = make_automorphism(g, [0], [1, 2, 0])
        flip = make_automorphism(g, [0], [1, 0, 2])
        with pytest.raises(GroupTooLargeError):
            close_group(g, [cycle, flip], limit=3)

    def test_limit_below_one_refused(self, two_point_swap):
        # The identity alone is a group of order 1, so no limit below 1 can
        # hold; at 1 the trivial group closes and the swap's does not.
        g, swap = two_point_swap
        for limit in (0, -1):
            with pytest.raises(ValidationError, match="group limit must be at least 1"):
                close_group(g, [], limit=limit)
        assert close_group(g, [], limit=1).order == 1
        with pytest.raises(GroupTooLargeError):
            close_group(g, [swap], limit=1)

    def test_rejects_non_automorphism_generators(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError):
            close_group(g, [(0, 1)])

    def test_rejects_maps_that_leave_the_graph(self, graphs):
        # C-in-C2 has one lower vertex, two upper vertices and two edges.
        g = graphs("C-in-C2")
        for gen, label in (
            (GraphAutomorphism((), (0, 1), (0, 1)), "perm_a"),
            (GraphAutomorphism((0,), (1,), (0, 1)), "perm_b"),
            (GraphAutomorphism((0,), (0, 1), (1,)), "perm_e"),
            (GraphAutomorphism((1, 0), (0, 1), (0, 1)), "perm_a"),
            (GraphAutomorphism((0,), (0, 2, 1), (0, 1)), "perm_b"),
            (GraphAutomorphism((0,), (0, 1), (-1, 0)), "perm_e"),
        ):
            with pytest.raises(InvalidAutomorphismError, match=label):
                close_group(g, [gen])

    def test_refuses_raw_maps_within_the_graph(self, graphs):
        # Maps that merge vertices or edges, or carry entries past the first
        # n, are not permutations: close_group refuses them with the message
        # that make_automorphism gives.
        g = graphs("C-in-C2")
        for gen, message in (
            (GraphAutomorphism((0,), (0, 0), (1, 1)), "perm_b is not a permutation of 0..1: (0, 0)"),
            (GraphAutomorphism((0, 7), (1, 0, 9), (1, 0, 5)), "perm_a is not a permutation of 0..0: (0, 7)"),
            (GraphAutomorphism((0,), (1, 0), (0, 0)), "perm_e is not a permutation of 0..1: (0, 0)"),
        ):
            with pytest.raises(InvalidAutomorphismError) as refused:
                close_group(g, [gen])
            assert str(refused.value) == message

    def test_ragged_maps_are_refused_or_run(self, graphs):
        # Seeded maps shorter or longer than the vertex and edge lists,
        # naming vertices and edges that may not exist: close_group refuses
        # each set that is not made of permutations mapping loops to loops
        # up front, and every later call returns, never an IndexError.
        rng = random.Random(7)
        refused = 0
        for index in range(300):
            name, kmax = RAW_CASES[index % len(RAW_CASES)]
            g = graphs(name)
            gens = [
                GraphAutomorphism(
                    _ragged_map(rng, g.num_a), _ragged_map(rng, g.num_b), _ragged_map(rng, len(g.edges))
                )
                for _ in range(rng.randint(1, 2))
            ]
            try:
                group = close_group(g, gens)
            except InvalidAutomorphismError:
                refused += 1
                continue
            assert verify_planar_subalgebra(group, kmax).all_passed
            assert fixed_dims_report(group, kmax) == every_loop_fixed_dims(group, kmax)
        assert 10 <= refused <= 299

    def test_refuses_a_map_that_keeps_loops_of_degree_one_only(self):
        # On the complete bipartite graph K(2, 2) (edges e0 = a0-b0,
        # e1 = a0-b1, e2 = a1-b0, e3 = a1-b1), swapping e0 and e1 alone keeps
        # the edges at each base and so every loop of degree 0 and 1, but
        # sends the degree-2 loop [a0; e0 e2; e0 e2] to a walk that leaves b1
        # along e2, which ends at b0.  close_group refuses it, since e0 and
        # e1 end at different upper vertices; it used to accept it, and the
        # group average then put terms on such walks.
        g = build_graph(InclusionData([1, 1], [[1, 1], [1, 1]]))
        gen = GraphAutomorphism((0, 1), (0, 1), (1, 0, 2, 3))
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(g, [gen])
        assert str(refused.value) == "edge 0 maps to edge 1 with incompatible endpoints"
        assert includes_commute(g, gen, 0) and not includes_commute(g, gen, 1)
        assert kept_degree(g, [gen], 2) == 1
        loop, loops = Loop(0, (0, 2, 2, 0)), set(g.iter_loops(2))
        assert loop in loops
        assert act_loop(gen, loop) == Loop(0, (1, 2, 2, 1))
        assert Loop(0, (1, 2, 2, 1)) not in loops
        averaged = oracle.reynolds(raw_group(g, [gen]), oracle.RefElement.of(g.unit(2)))
        assert len(averaged.terms) == 12
        assert sum(l not in loops for l in averaged.terms) == 4

    def test_checks_the_edge_condition_once_per_generator(self, graphs, monkeypatch):
        # Work count: close_group runs make_automorphism's check, whose
        # incidence test gives include's edge condition at degrees 0 and 1,
        # once for each generator, and no reader of the group checks it
        # again; neither the verifier nor the fixed dimensions walk the
        # graph's paths, and fixed_space_basis walks them once.
        calls = Counter()
        real, rows = symmetry.make_automorphism, BipartiteGraph.rows

        def counting(g, *maps):
            calls["check"] += 1
            return real(g, *maps)

        def counting_rows(self, k):
            calls["rows"] += 1
            return rows(self, k)

        g = graphs("C-in-C4")
        gens = [make_automorphism(g, [0], [1, 0, 2, 3]), make_automorphism(g, [0], [1, 2, 3, 0])]
        monkeypatch.setattr(symmetry, "make_automorphism", counting)
        monkeypatch.setattr(BipartiteGraph, "rows", counting_rows)
        group = close_group(g, gens)
        assert calls == {"check": 2}
        assert verify_planar_subalgebra(group, 4).all_passed
        assert calls == {"check": 2}
        assert fixed_dims_report(group, 4) == [1, 1, 2, 5, 15]
        assert calls == {"check": 2}
        assert len(fixed_space_basis(group, 3)) == 5
        assert calls == {"check": 2, "rows": 1}

    def test_refuses_a_weight_changing_swap(self, graphs):
        # The swap of the two components of C-M2-in-M2xM4 keeps incidence
        # and every loop, but sends a0 (block C) to a1 (block M2): no algebra
        # automorphism induces it, and the trace of the point at a0 is 1/5,
        # of its image 4/5.  close_group refuses it as make_automorphism does.
        g = graphs("C-M2-in-M2xM4")
        swap = GraphAutomorphism((1, 0), (1, 0), (2, 3, 0, 1))
        assert edge_condition(g, swap) and kept_degree(g, [swap], 4) == 4
        points = [trace(g, PlanarElement.basis(Loop(b, ()))) for b in (0, 1)]
        assert points == [RadicalScalar.from_rational(Fraction(1, 5)), RadicalScalar.from_rational(Fraction(4, 5))]
        for check in (lambda: close_group(g, [swap]), lambda: make_automorphism(g, *swap)):
            with pytest.raises(InvalidAutomorphismError) as refused:
                check()
            assert str(refused.value) == "weight changes along a0 -> a1"

    def test_copies_and_pickles_rebuild_the_group(self, graphs, monkeypatch):
        # A copy goes through close_group(graph, generators, order), which
        # checks the generators, closes them and builds the fixed-subgraph
        # table again; the group reads the same.  The limit is the group's
        # order, so S4 copies with the default limit patched below 24, as a
        # group closed under a raised limit= does.
        g = graphs("C-in-C4")
        gens = [make_automorphism(g, [0], [1, 0, 2, 3]), make_automorphism(g, [0], [1, 2, 3, 0])]
        cases = [(close_group(g, gens), 4), *_oracle_cases(graphs)]
        monkeypatch.setattr(symmetry, "DEFAULT_GROUP_LIMIT", 23)
        monkeypatch.setattr(close_group, "__defaults__", (23,))
        with pytest.raises(GroupTooLargeError):
            close_group(g, gens)
        s4 = close_group(g, gens, limit=24)
        for group, kmax in [(s4, 4), *cases]:
            seen = (group.order, group.elements, group.generators, fixed_dims_report(group, kmax))
            for other in (copy.copy(group), copy.deepcopy(group), pickle.loads(pickle.dumps(group))):
                assert type(other) is GroupAction
                assert (other.order, other.elements, other.generators, fixed_dims_report(other, kmax)) == seen
        assert fixed_dims_report(pickle.loads(pickle.dumps(s4)), 4) == [1, 1, 2, 5, 15]

    def test_close_group_is_the_only_builder(self, graphs):
        # Three element lists on C-in-C2xM2 that are no closed group of
        # checked automorphisms: with a map that sends edge 0 to edge 2
        # across the wrong ends, the swap of the two lines without the
        # identity, and no element.  A direct call refuses each, and any
        # other; close_group refuses the map and closes the swap.
        g = graphs("C-in-C2xM2")
        refused = GraphAutomorphism((0,), (0, 1, 2), (2, 1, 0, 3))
        swap = make_automorphism(g, [0], [1, 0, 2], [1, 0, 2, 3])
        identity = identity_automorphism(g)
        for gens, elements in [((), (identity, refused)), ((swap,), (swap,)), ((), ())]:
            with pytest.raises(TypeError, match="only by close_group"):
                GroupAction(g, gens, elements)
        with pytest.raises(TypeError, match="only by close_group"):
            GroupAction()
        with pytest.raises(InvalidAutomorphismError) as caught:
            close_group(g, [refused])
        assert str(caught.value) == "edge 0 maps to edge 2 with incompatible endpoints"
        group = close_group(g, [swap])
        assert group.elements == (identity, swap)
        assert fixed_dims_report(group, 3) == [1, 5, 26, 140]
        assert verify_planar_subalgebra(group, 3).all_passed

    def test_weights_are_compared_as_block_dimensions(self, graphs, monkeypatch):
        # A weight n / sqrt(dim) is equal across the blocks of one side exactly
        # when their dimensions n are, so make_automorphism decides it on the
        # integers.  With RadicalScalar's comparisons and arithmetic made to
        # raise, every closure case closes again and its counts, report and
        # ergodicity come out, and the component swap above is still refused
        # by weight.
        cases = [
            (group.graph, group.generators, kmax, fixed_dims_report(group, kmax)) for group, kmax in _closure_cases(graphs)
        ]
        components = graphs("C-M2-in-M2xM4")

        def radical(*args):
            raise RuntimeError("radical arithmetic")

        for name in ("__eq__", "__ne__", "__mul__", "__add__", "sqrt", "invert"):
            monkeypatch.setattr(RadicalScalar, name, radical)
        for g, gens, kmax, dims in cases:
            group = close_group(g, gens)
            assert fixed_dims_report(group, kmax) == dims
            assert verify_planar_subalgebra(group, kmax).all_passed
            with contextlib.suppress(NotAbelianError):
                is_centrally_ergodic(group)
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(components, [GraphAutomorphism((1, 0), (1, 0), (2, 3, 0, 1))])
        assert str(refused.value) == "weight changes along a0 -> a1"


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
        # Maps that are not bijective are refused when the group is closed,
        # before any count, not by an internal check.
        g = graphs("C-in-C2")
        with pytest.raises(InvalidAutomorphismError, match="perm_b"):
            close_group(g, [GraphAutomorphism((0,), (0, 0), (0, 0))])
        with pytest.raises(InvalidAutomorphismError, match="perm_e"):
            close_group(g, [GraphAutomorphism((0,), (1, 0), (0, 0))])

    def test_rejects_maps_that_send_loops_to_non_loops(self, graphs):
        # Permutations of every vertex and edge set, but edge 0 (a0-b0) goes
        # to edge 2 (a0-b2) and back: the degree-1 loop [a0; e0; e0] stays
        # a loop, [a0; e2; e3] does not, and the two counts would disagree.
        # close_group refuses the map, alone or beside an automorphism, since
        # it breaks incidence, so no routine that reads a group's rows meets it.
        g = graphs("C-in-C2xM2")
        gen = GraphAutomorphism((0,), (0, 1, 2), (2, 1, 0, 3))
        assert kept_degree(g, [gen], 1) == 0
        for gens in ([gen], [make_automorphism(g, [0], [1, 0, 2], [1, 0, 2, 3]), gen]):
            with pytest.raises(InvalidAutomorphismError) as refused:
                close_group(g, gens)
            assert str(refused.value) == "edge 0 maps to edge 2 with incompatible endpoints"

    @pytest.mark.parametrize(
        "read",
        [
            lambda group: fixed_dims_report(group, 2),
            lambda group: fixed_space_basis(group, 2),
            lambda group: verify_planar_subalgebra(group, 2),
        ],
        ids=["fixed_dims_report", "fixed_space_basis", "verify_planar_subalgebra"],
    )
    def test_every_reader_refuses_maps_that_send_loops_to_non_loops(self, graphs, read):
        # The map of the test above never reaches a routine that reads the
        # group's rows: close_group refuses it before the reader runs.  The
        # automorphism that swaps b0 and b1 with their edges keeps every
        # loop, and each reader reads its group at the same degree.
        g = graphs("C-in-C2xM2")
        with pytest.raises(InvalidAutomorphismError, match=REFUSED):
            read(close_group(g, [GraphAutomorphism((0,), (0, 1, 2), (2, 1, 0, 3))]))
        read(close_group(g, [GraphAutomorphism((0,), (1, 0, 2), (1, 0, 2, 3))]))

    def test_counts_maps_that_keep_loops(self, graphs):
        # Swapping b0 and b1 with their edges.  The same edge map with b0
        # and b1 left in place also sends every loop to a loop, but breaks
        # incidence, and close_group refuses it.
        g = graphs("C-in-C2xM2")
        group = close_group(g, [GraphAutomorphism((0,), (1, 0, 2), (1, 0, 2, 3))])
        assert fixed_dims_report(group, 3) == [1, 5, 26, 140]
        with pytest.raises(InvalidAutomorphismError, match=REFUSED):
            close_group(g, [GraphAutomorphism((0,), (0, 1, 2), (1, 0, 2, 3))])

    @pytest.mark.parametrize("n, dims", [(3, [1, 1, 2, 5, 14, 41]), (4, [1, 1, 2, 5, 15, 51])])
    def test_symmetric_group_dims_are_stirling_sums(self, graphs, n, dims):
        # S_N on C-in-C^N fixes, in degree k, one orbit sum per partition of
        # k positions into at most N blocks: the sum of S(k, j) for j <= N.
        g = graphs(f"C-in-C{n}")
        cycle = make_automorphism(g, [0], [*range(1, n), 0])
        flip = make_automorphism(g, [0], [1, 0, *range(2, n)])
        group = close_group(g, [cycle, flip])
        assert [sum(stirling2(k, j) for j in range(n + 1)) for k in range(6)] == dims
        assert fixed_dims_report(group, 5) == dims

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_symmetric_group_keeps_one_fixed_subgraph_per_orbit(self, graphs, n):
        # S_N on C-in-C^N: a permutation fixes the base and the edges of its
        # fixed points, and conjugates fix sets of one size, any size but
        # N - 1.  So the group keeps N fixed subgraphs, not the 2^N - N
        # distinct ones (4, not 12, for S4), their counts sum to |G|, and the
        # dimensions are still the Stirling sums.
        g = graphs(f"C-in-C{n}") if n <= 5 else build_graph(InclusionData([1], [[1] * n]))
        cycle = make_automorphism(g, [0], [*range(1, n), 0])
        flip = make_automorphism(g, [0], [1, 0, *range(2, n)])
        group = close_group(g, [cycle, flip])
        assert len(group._fixed) == n
        assert sum(count for _, _, count in group._fixed) == group.order
        assert fixed_dims_report(group, 12) == [sum(stirling2(k, j) for j in range(n + 1)) for k in range(13)]

    @pytest.mark.parametrize("k", range(6))
    def test_burnside_matches_orbit_count(self, three_point_cycle, k):
        g, cycle = three_point_cycle
        group = close_group(g, [cycle])
        assert fixed_dims_report(group, k)[k] == len(fixed_space_basis(group, k))

    @pytest.mark.parametrize("reader", [fixed_space_basis, fixed_dims_report])
    def test_readers_reject_negative_degree(self, two_point_swap, reader):
        g, swap = two_point_swap
        with pytest.raises(ValidationError):
            reader(close_group(g, [swap]), -1)


@functools.cache
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n things into k blocks."""
    if n == k:
        return 1
    if n == 0 or k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


class TestErgodicity:
    def test_transitive_action(self, two_point_swap):
        g, swap = two_point_swap
        group = close_group(g, [swap])
        assert is_centrally_ergodic(group) == (True, True)

    def test_trivial_group_is_not_transitive(self, graphs):
        g = graphs("C-in-C2")
        group = close_group(g, [])
        assert is_centrally_ergodic(group) == (True, False)

    def test_intransitive_group_on_upper_vertices(self, graphs):
        # The swap of b0 and b1 on C-in-C4: the orbit of b0 is {b0, b1}.
        g = graphs("C-in-C4")
        group = close_group(g, [make_automorphism(g, [0], [1, 0, 2, 3])])
        assert group.order == 2
        assert is_centrally_ergodic(group) == (True, False)

    def test_perm_b_is_the_one_perm_e_induces(self, graphs):
        # On C-in-C2 the raw map that swaps the edges and keeps b0 and b1 has
        # the fixed dimensions of the swap, [1, 1, 2, 4], but would report
        # the action on upper vertices intransitive: close_group refuses it,
        # and the swap, with the perm_b its perm_e induces, is transitive.
        g = graphs("C-in-C2")
        raw = GraphAutomorphism((0,), (0, 1), (1, 0))
        assert every_loop_fixed_dims(raw_group(g, [raw]), 3) == [1, 1, 2, 4]
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(g, [raw])
        assert str(refused.value) == "edge 0 maps to edge 1 with incompatible endpoints"
        group = close_group(g, [make_automorphism(g, [0], [1, 0])])
        assert fixed_dims_report(group, 3) == [1, 1, 2, 4]
        assert is_centrally_ergodic(group) == (True, True)

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


def listed_report(group, kmax: int) -> SubalgebraReport:
    """The subalgebra report built from two lists of (name, degree) pairs,
    closure then equivariance, with one equivariance block per generator
    and degree: the oracle for the verifier's one-pass build."""
    closure, equivariance = [], []
    for k in range(kmax + 1):
        for _ in group.generators:
            equivariance += [("equivariance-multiply", k), ("equivariance-include", k)]
            if k >= 1:
                equivariance.append(("equivariance-expect", k))
            equivariance.append(("equivariance-shift", k))
        closure.append(("closure-multiply", k))
        if k + 1 <= kmax:
            closure.append(("closure-include", k))
        if k >= 1:
            closure.append(("closure-expect", k))
        if k + 2 <= kmax:
            closure.append(("closure-shift", k))
        if k >= 2:
            closure.append(("projection-invariant", k))
    checks = tuple(SubalgebraCheck(name, k, True) for name, k in closure + equivariance)
    return SubalgebraReport(kmax=kmax, group_order=group.order, checks=checks)


def test_report_matches_listed_oracle(graphs, two_point_swap, three_point_cycle, parallel_edge_swap, mixed_blocks_graph):
    # The one-pass report equals the oracle's, tuple for tuple (names,
    # degrees, verdicts and order), at every kmax from 0 to 12 on every
    # group the suite closes: the trivial group of each corpus graph and of
    # the disjoint union, the module's fixtures, S_3 to S_7, and the
    # closure cases (corpus groups and seeded groups).
    groups = [close_group(g, []) for g in [graphs(entry.name) for entry in MARKOV_CORPUS] + [union_graph()]]
    groups += [close_group(g, [gen]) for g, gen in (two_point_swap, three_point_cycle, parallel_edge_swap)]
    groups.append(close_group(mixed_blocks_graph, [make_automorphism(mixed_blocks_graph, [1, 0], [1, 0, 2])]))
    for n in range(3, 8):
        g = graphs(f"C-in-C{n}") if n <= 5 else build_graph(InclusionData([1], [[1] * n]))
        groups.append(close_group(g, [make_automorphism(g, [0], [*range(1, n), 0]), make_automorphism(g, [0], [1, 0, *range(2, n)])]))
    groups += [group for group, _ in _closure_cases(graphs)]
    for group in groups:
        for kmax in range(13):
            report = verify_planar_subalgebra(group, kmax)
            assert report == listed_report(group, kmax)
            assert type(report) is SubalgebraReport
            assert all(type(check) is SubalgebraCheck for check in report.checks)
    assert Counter(len(group.generators) for group in groups) == {0: len(MARKOV_CORPUS) + 1, 1: 74, 2: 76}


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


def _ragged_map(rng: random.Random, size: int) -> tuple[int, ...]:
    """A map one entry short (if size > 1) to two entries long, with entries
    below the larger of its length and size."""
    length = size + rng.choice((-1, 0, 1, 2) if size > 1 else (0, 1, 2))
    return tuple(rng.randrange(max(length, size)) for _ in range(length))


# (graph, kmax) for the seeded generator sets; the pairwise oracle is
# quadratic in the loop count, so the six-index graphs stop at degree 2.
RAW_CASES = (("C-in-C2", 3), ("C2-in-M2", 3), ("C-in-C2xM2", 2), ("C-in-C3", 3))

# A disjoint union of two Markov inclusions of index 6 (blocks (2, 2) and
# (1, 1)), and a permutation of its vertices and edges that sends every loop
# of degree 0 and 1 to a loop but not every loop of degree 2, and moves edge
# weights: perm_e sends e0 (squared spin 2/3 sqrt 3) to e1 (1/3 sqrt 3).
# close_group refuses it, since it breaks incidence; on the loop oracles, its
# group fails closure-expect(1).
UNION = InclusionData([2, 2, 1, 1], [[1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]])
UNION_GENERATOR = GraphAutomorphism((0, 3, 1, 2), (1, 4, 0, 5, 2, 3), (1, 0, 6, 7, 3, 2, 5, 4))
# A second such permutation: it also moves edge weights, but keeps the weight
# sum of every orbit of each base's stabiliser on the edges at that base.
UNION_REVERSAL = GraphAutomorphism((3, 2, 1, 0), (1, 0, 3, 5, 4, 2), (6, 7, 5, 4, 2, 3, 1, 0))

# The end of close_group's refusal of a permutation that breaks incidence,
# which every permutation that sends a loop to a non-loop does.
REFUSED = "with incompatible endpoints"


@functools.cache
def union_graph():
    return build_graph(UNION)


def _permutation(rng: random.Random, size: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(size), size))


def induced_perm_b(g, gen) -> tuple[int, ...]:
    """The map on upper vertices that perm_e induces: each upper vertex goes
    to the upper end of the image of an edge at it.  Where the edge condition
    (S) holds it is a permutation, and with it the maps keep incidence."""
    return tuple(g.edge(gen.perm_e[g.step(1).attach[j][0]]).dst for j in range(g.num_b))


def keeps_weights(g, gen) -> bool:
    return all(
        weights[i] == weights[target]
        for weights, perm in ((g.weights_a, gen.perm_a), (g.weights_b, gen.perm_b))
        for i, target in enumerate(perm)
    )


def _permutation_generator(rng: random.Random, g) -> GraphAutomorphism:
    """Seeded permutations of the vertices and edges: perm_e is uniform, or
    sends the edges at each lower vertex b to those at perm_a[b] (when their
    numbers agree), so that more of the maps keep loops.  perm_b is drawn
    uniformly, then replaced by the one perm_e induces wherever the edge
    condition (S) holds, so exactly the maps that keep loops keep incidence.
    Weights are not kept."""
    perm_a = _permutation(rng, g.num_a)
    ups = [g.edges_up(i) for i in range(g.num_a)]
    if rng.randrange(2) and all(len(ups[i]) == len(ups[j]) for i, j in enumerate(perm_a)):
        perm_e = [0] * len(g.edges)
        for i, j in enumerate(perm_a):
            for f, image in zip(ups[i], rng.sample(ups[j], len(ups[j]))):
                perm_e[f] = image
    else:
        perm_e = _permutation(rng, len(g.edges))
    gen = GraphAutomorphism(perm_a, _permutation(rng, g.num_b), tuple(perm_e))
    return gen._replace(perm_b=induced_perm_b(g, gen)) if edge_condition(g, gen) else gen


def kept_degree(g, gens, cap: int) -> int:
    """The highest degree d <= cap such that every generator sends every
    loop of degree d or lower to a loop, tested loop by loop with act_loop
    and membership in iter_loops; degree 0 always passes."""
    for k in range(1, cap + 1):
        loops = set(g.iter_loops(k))
        if not all(act_loop(gen, l) in loops for l in loops for gen in gens):
            return k - 1
    return cap


def _seeded_sets(graphs, seed: int, count: int):
    """Seeded sets of one or two permutation generators, each with its graph
    and the graph's kmax: the graphs of RAW_CASES and, every fifth set, the
    disjoint union at kmax 2."""
    rng = random.Random(seed)
    for index in range(count):
        name, kmax = RAW_CASES[index % len(RAW_CASES)]
        g, kmax = (union_graph(), 2) if index % 5 == 4 else (graphs(name), kmax)
        yield g, [_permutation_generator(rng, g) for _ in range(rng.randint(1, 2))], kmax


def _seeded_groups(graphs, seed: int, count: int, cap: int = 3):
    """The groups of the seeded sets that close_group accepts, each at its
    graph's kmax (and cap); sets whose group passes 200 elements are skipped."""
    for g, gens, kmax in _seeded_sets(graphs, seed, count):
        try:
            group = close_group(g, gens, limit=200)
        except (InvalidAutomorphismError, GroupTooLargeError):
            continue
        yield group, min(kmax, cap)


@pytest.mark.parametrize("seed, count, accepted, refused", [(20090, 40, 22, 18), (20091, 200, 113, 87)])
def test_seeded_sets_are_accepted_and_refused(graphs, seed, count, accepted, refused):
    # The oracle cases take only the seeded sets that close_group accepts;
    # both outcomes occur, so the oracle comparisons are not vacuous, and no
    # set passes the limit.  Every refused set breaks incidence.
    outcomes = Counter()
    for g, gens, _ in _seeded_sets(graphs, seed, count):
        try:
            close_group(g, gens, limit=200)
            outcomes["accepted"] += 1
        except InvalidAutomorphismError as exc:
            assert str(exc).endswith(REFUSED)
            outcomes["refused"] += 1
    assert outcomes == {"accepted": accepted, "refused": refused}


def test_close_group_accepts_exactly_the_sets_that_keep_loops_and_weights(graphs):
    # Over seeded sets on every Markov corpus graph and the disjoint union:
    # the edge condition (S), read on the edges, holds exactly when the
    # generators keep the loops of degree 2, tested loop by loop, and then
    # they keep those of degree 4 (the proof of Theorem V in
    # docs/closure-multiply-and-burnside.md, section 2, gives the second);
    # close_group accepts exactly the sets whose generators satisfy (S) and
    # keep the weights, and refuses the others by incidence or by weight.
    # The check comes before the closure, so a set whose group passes the
    # limit was accepted.
    rng = random.Random(20094)
    pool = [graphs(entry.name) for entry in MARKOV_CORPUS] + [union_graph()]
    outcomes = Counter()
    for index in range(132):
        g = pool[index % len(pool)]
        gens = [_permutation_generator(rng, g) for _ in range(rng.randint(1, 2))]
        keeps_loops = all(edge_condition(g, gen) for gen in gens)
        assert keeps_loops == (kept_degree(g, gens, 2) == 2)
        assert not keeps_loops or kept_degree(g, gens, 4) == 4
        try:
            close_group(g, gens, limit=200)
            outcome = "accepted"
        except GroupTooLargeError:
            outcome = "accepted"
        except InvalidAutomorphismError as exc:
            outcome = "incidence" if str(exc).endswith(REFUSED) else "weights"
            assert outcome == "incidence" or str(exc).startswith("weight changes along")
        assert (outcome == "accepted") == (keeps_loops and all(keeps_weights(g, gen) for gen in gens))
        assert (outcome == "incidence") == (not keeps_loops)
        outcomes[outcome] += 1
    assert outcomes == {"accepted": 93, "incidence": 35, "weights": 4}


def _oracle_cases(graphs):
    """Groups of automorphisms on corpus graphs, then the seeded permutation
    groups that close_group accepts, each at its graph's kmax."""
    for name, kmax, gens in CORPUS_GROUPS:
        g = graphs(name)
        yield close_group(g, [make_automorphism(g, *gen) for gen in gens]), kmax
    yield from _seeded_groups(graphs, 20090, 40)


class TestEquivarianceMultiply:
    def test_matches_pairwise_oracle(self, graphs):
        verdicts = []
        for group, kmax in _oracle_cases(graphs):
            report = verify_planar_subalgebra(group, kmax)
            found = [c for c in report.checks if c.name == "equivariance-multiply"]
            assert found == pairwise_multiplicative(group, kmax)
            verdicts.extend(c.passed for c in found)
        # Every generator permutes the rows, so every check passes
        # (docs/equivariance-multiply.md), by products too.
        assert len(verdicts) >= 100 and all(verdicts)

    def test_degree_zero_follows_perm_a(self, graphs):
        # A perm_a that merges two bases would send two orthogonal points to
        # one idempotent, and one that swaps the bases of C2-in-M2 but not
        # its edges sends loops to non-loops and breaks incidence;
        # close_group refuses both.
        g = graphs("C2-in-M2")
        for perm_a, perm_e in (((0, 1), (0, 1)), ((1, 0), (1, 0))):
            group = close_group(g, [GraphAutomorphism(perm_a, (0,), perm_e)])
            report = verify_planar_subalgebra(group, 0)
            (check,) = [c for c in report.checks if c.name == "equivariance-multiply"]
            assert check.passed
            assert [check] == pairwise_multiplicative(group, 0)
        with pytest.raises(InvalidAutomorphismError, match=REFUSED):
            close_group(g, [GraphAutomorphism((1, 0), (0,), (0, 1))])
        for perm_a in ((0, 0), (1, 1)):
            with pytest.raises(InvalidAutomorphismError, match="perm_a is not a permutation"):
                close_group(g, [GraphAutomorphism(perm_a, (0,), (0, 1))])


def every_loop_equivariance(group, kmax: int, multiply) -> list[SubalgebraCheck]:
    """The equivariance checks with include, expect and shift decided on
    every basis loop; the oracle for the edge conditions in the verifier.
    ``multiply`` gives the equivariance-multiply check that opens each
    (degree, generator) block, so that positions compare too."""
    g = group.graph
    multiply = iter(multiply)
    checks = []
    for k in range(kmax + 1):
        elems = [PlanarElement.basis(l) for l in g.iter_loops(k)]
        for gen in group.generators:
            checks.append(next(multiply))
            ok = all(act(gen, include(g, x)) == include(g, act(gen, x)) for x in elems)
            checks.append(SubalgebraCheck("equivariance-include", k, ok))
            if k >= 1:
                ok = all(act(gen, expect(g, x)) == expect(g, act(gen, x)) for x in elems)
                checks.append(SubalgebraCheck("equivariance-expect", k, ok))
            ok = all(act(gen, shift(g, x)) == shift(g, act(gen, x)) for x in elems)
            checks.append(SubalgebraCheck("equivariance-shift", k, ok))
    return checks


def _imported_modules(path: Path) -> set[str]:
    """Every module a file imports from, as a dotted name inside the
    package: `from .graph import Loop` gives "graph", `from . import
    tangles` gives "tangles"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("planaralg.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("planaralg").lstrip(".")
            if module:
                found.add(module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_symmetry_imports_nothing_from_tangles():
    # The verifier decides every check on loops, rows and edges; without the
    # generating operations in reach, element work cannot quietly return.
    source = Path(__file__).resolve().parent.parent / "src" / "planaralg" / "symmetry.py"
    modules = _imported_modules(source)
    assert {"errors", "graph", "markov"} <= modules
    assert not any(m == "tangles" or m.startswith("tangles.") for m in modules)


@pytest.mark.parametrize("module", ["tangles", "symmetry"])
def test_operations_leave_element_storage_to_graph(module):
    # Element rows and scalar numerators stay behind graph.py and radical.py,
    # so a new storage format touches only those: the operations here go
    # through PlanarElement's public methods.
    source = Path(__file__).resolve().parent.parent / "src" / "planaralg" / f"{module}.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    private_imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").removeprefix("planaralg").lstrip(".") in ("graph", "radical")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private_imports == []
    storage = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_num", "_den", "_normal")
    ]
    assert storage == []


@pytest.mark.parametrize("module", ["tangles", "symmetry"])
def test_operations_leave_the_up_down_step_to_graph(module):
    # Which edges, ends and spins a path position uses is decided by
    # BipartiteGraph.step alone: no direction literal and no per-direction
    # edge or spin accessor here, so the parity rule cannot drift.
    source = Path(__file__).resolve().parent.parent / "src" / "planaralg" / f"{module}.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    literals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("up", "down")
    ]
    assert literals == []
    accessors = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("edges_up", "spin_factor")
    ]
    assert accessors == []


def test_tangles_builds_the_cup_cap_from_no_loops():
    # The graph builds the cup-cap straight from its paths, so tangles.py
    # neither imports `Loop` nor builds loops from paths.
    source = Path(__file__).resolve().parent.parent / "src" / "planaralg" / "tangles.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "PlanarElement" in imported and "Loop" not in imported
    assert "from_paths" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_one_automorphism_check():
    # A group element is checked in one place: symmetry.py defines no second
    # edge test, close_group calls make_automorphism, and each of the
    # incidence and weight refusals is raised from one place in src/.
    package = Path(__file__).resolve().parent.parent / "src" / "planaralg"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    functions = {node.name: node for node in trees["symmetry.py"].body if isinstance(node, ast.FunctionDef)}
    assert "_includes_commute" not in functions
    assert "make_automorphism" in {n.id for n in ast.walk(functions["close_group"]) if isinstance(n, ast.Name)}
    raised = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                text = "".join(c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str))
                raised.update(phrase for phrase in ("incompatible endpoints", "weight changes along") if phrase in text)
    assert raised == {"incompatible endpoints": 1, "weight changes along": 1}


def test_cup_cap_and_shift_prefixes_have_one_definition(graphs, monkeypatch):
    # Work count: jones_projection_raw reads one cup-cap definition and shift
    # one prefix definition.
    calls = Counter()
    for name in ("cup_cap", "shift_prefixes"):
        real = getattr(BipartiteGraph, name)

        def counting(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(BipartiteGraph, name, counting)
    g = graphs("C-in-C2xM2")
    jones_projection_raw(g, 1)
    shift(g, g.unit(1))
    # One cup-cap call, and one prefix call for the graph's one base.
    assert calls == {"cup_cap": 1, "shift_prefixes": 1}


def test_reports_and_counts_do_no_work(graphs, monkeypatch):
    # Work property, not timing: every group that close_group accepts passes
    # every check, and the count takes closed walks of the group's Gram
    # matrices (docs/closure-multiply-and-burnside.md, sections 8 and 5).  So with
    # every path reader, element operation and action made to raise, the
    # graph is built and each group closed again, and with composition made
    # to raise too, the report and the count still come out, on every
    # closure case and on the trivial group of C-in-C at kmax 1000.
    cases = [(group.graph, group.generators, kmax) for group, kmax in _closure_cases(graphs)]

    def work(*args, **kwargs):
        raise RuntimeError("work done")

    for owner, names in (
        (BipartiteGraph, ("rows", "iter_loops", "unit", "cup_cap", "shift_prefixes")),
        (PlanarElement, ("__init__", "__mul__", "__add__", "_relabel")),
        (symmetry, ("act", "fixed_space_basis")),
    ):
        for name in names:
            monkeypatch.setattr(owner, name, work)
    cases.append((build_graph(corpus_entry("C-in-C").inclusion()), (), 1000))
    cases = [(close_group(g, gens), kmax) for g, gens, kmax in cases]
    monkeypatch.setattr(GraphAutomorphism, "compose", work)
    for group, kmax in cases:
        assert verify_planar_subalgebra(group, kmax).all_passed
        dims = fixed_dims_report(group, kmax)
    assert dims == [1] * 1001
    # The patches see work where there is some.
    with pytest.raises(RuntimeError, match="work done"):
        fixed_space_basis(group, 1)


class TestEquivarianceIncludeExpectShift:
    def test_matches_every_loop_oracle(self, graphs):
        # Every equivariance check of every accepted report passes on every
        # loop too, in the same position.
        passed = []
        for group, kmax in _closure_cases(graphs):
            report = verify_planar_subalgebra(group, kmax)
            multiply = [c for c in report.checks if c.name == "equivariance-multiply"]
            expected = every_loop_equivariance(group, kmax, multiply)
            head, tail = report.checks[: -len(expected)], report.checks[-len(expected) :]
            assert list(tail) == expected
            assert not any(c.name.startswith("equivariance-") for c in head)
            passed += [c.passed for c in expected]
        assert len(passed) >= 1000 and all(passed)

    @staticmethod
    def _failures(g, gens, kmax):
        """The failing lemma checks of the every-loop oracle as (family,
        degree), for generators that close_group refuses."""
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(g, gens)
        assert str(refused.value).endswith(REFUSED)
        group = raw_group(g, gens)
        expected = every_loop_equivariance(group, kmax, pairwise_multiplicative(group, kmax))
        return {
            (c.name.removeprefix("equivariance-"), c.degree)
            for c in expected
            if not c.passed and c.name != "equivariance-multiply"
        }

    def test_lemma_i_merged_edge_at_endpoint(self, graphs):
        # Sending both edges of C2-in-M2 to e0 would make include attach e0
        # twice at b0; close_group refuses the map.  Among permutations, the
        # base swap that keeps the edges fails include at degree 0: it sends
        # a0, where e0 is attachable, to a1, where e1 is.  Shift fails with
        # it, and close_group refuses it.
        g = graphs("C2-in-M2")
        with pytest.raises(InvalidAutomorphismError, match="perm_e"):
            close_group(g, [GraphAutomorphism((0, 1), (0,), (0, 0))])
        assert self._failures(g, [GraphAutomorphism((1, 0), (0,), (0, 1))], 0) == {("include", 0), ("shift", 0)}

    def test_lemma_e_weight_changing_map(self, graphs):
        # The disjoint-union generator keeps every loop of degree 0 and 1 a
        # loop but sends e0 to e1, whose squared spin differs, so expect
        # fails at degree 1 while include passes at degree 0; close_group
        # refuses it.
        g = union_graph()
        assert g.step(0).spin_sq[0] != g.step(0).spin_sq[1]
        failures = self._failures(g, [UNION_GENERATOR], 1)
        assert ("expect", 1) in failures
        assert ("include", 0) not in failures

    def test_lemma_s_merged_prefix_triples(self, graphs):
        # Sending both bases of C2-in-M2 to a0 and both edges to e0 would
        # merge the prefixes that shift puts at a0; close_group refuses the
        # map.  The disjoint-union generator keeps include at degree 0 (each
        # base's edges go onto the edges at its image) but not the prefixes
        # at each base, so at degree 0 shift is the only failing lemma check;
        # close_group refuses it too.
        with pytest.raises(InvalidAutomorphismError, match="perm_a"):
            close_group(graphs("C2-in-M2"), [GraphAutomorphism((0, 0), (0,), (0, 0))])
        assert self._failures(union_graph(), [UNION_GENERATOR], 0) == {("shift", 0)}


def pairwise_closure_multiply(group, kmax: int) -> list[SubalgebraCheck]:
    """The closure-multiply checks by products: every product of two orbit
    sums must be invariant under every generator.  The oracle for the orbit
    injectivity test in the verifier."""
    checks = []
    for k in range(kmax + 1):
        basis = fixed_space_basis(group, k)
        ok = all(
            act(gen, z) == z for z in (x * y for x in basis for y in basis) for gen in group.generators
        )
        checks.append(SubalgebraCheck("closure-multiply", k, ok))
    return checks


def element_closure(group, kmax: int) -> list[SubalgebraCheck]:
    """The closure checks by elements: closure-multiply by products of orbit
    sums, then include, expect and shift applied to every orbit sum and the
    Jones idempotents, each result tested for invariance under every
    generator.  The oracle for the closure block of the verifier, which
    writes every check as passed."""
    g = group.graph
    multiply = iter(pairwise_closure_multiply(group, kmax))

    def invariant(x):
        return all(act(gen, x) == x for gen in group.generators)

    checks = []
    for k in range(kmax + 1):
        checks.append(next(multiply))
        basis = fixed_space_basis(group, k)
        if k + 1 <= kmax:
            checks.append(SubalgebraCheck("closure-include", k, all(invariant(include(g, x)) for x in basis)))
        if k >= 1:
            checks.append(SubalgebraCheck("closure-expect", k, all(invariant(expect(g, x)) for x in basis)))
        if k + 2 <= kmax:
            checks.append(SubalgebraCheck("closure-shift", k, all(invariant(shift(g, x)) for x in basis)))
        if k >= 2:
            checks.append(SubalgebraCheck("projection-invariant", k, invariant(jones_projection(g, k - 2))))
    return checks


def loop_orbit_images(group, k: int, backward: bool = False):
    """For each degree-k orbit, in canonical order of its first loop, the
    images of that loop under the group elements, in element order: the
    walk over `iter_loops` that fixed_space_basis makes too, so the basis
    is checked by `assert_orbit_sum_basis` instead.  With `backward`, the
    walk runs over `iter_loops` reversed, and meets the same orbits in
    another order."""
    seen = set()
    loops = list(group.graph.iter_loops(k))
    for loop in reversed(loops) if backward else loops:
        if loop not in seen:
            images = [act_loop(element, loop) for element in group.elements]
            seen.update(images)
            yield images


def prefix_shift_verdicts(group) -> list[bool]:
    """Shift's edge condition (S) per generator, read on shift's prefixes:
    the generator sends the triples (c, w, d) of `shift_prefixes` at every
    base onto those at the base's image.  The oracle for the condition that
    close_group reads as include's at degrees 0 and 1."""
    g = group.graph
    prefixes = [sorted(g.shift_prefixes(b)) for b in range(g.num_a)]
    return [
        all(sorted((a[c], e[w], e[d]) for c, w, d in ts) == prefixes[a[b]] for b, ts in enumerate(prefixes))
        for a, e in ((gen.perm_a, gen.perm_e) for gen in group.generators)
    ]


def radical_sums(pairs) -> dict:
    """Key -> exact RadicalScalar sum of the weights paired with it."""
    out = {}
    for key, w in pairs:
        out[key] = out[key] + w if key in out else w
    return out


def loop_walk_report(group, kmax: int, backward: bool = False):
    """The verifier as it was before it read stabilisers: every check read
    off the walk over loops `loop_orbit_images`, (base, *path) rows and
    `act_loop` images of the cup-cap terms; closure-multiply as injectivity
    on every orbit through a composition table of the group, closure-expect
    and projection-invariant as push-forwards summed in RadicalScalar
    (`radical_sums`), equivariance-shift on shift's prefixes.  The oracle
    for the verifier's passed checks, and for the failing checks of groups
    that close_group refuses."""
    g = group.graph
    shifts_commute = prefix_shift_verdicts(group)
    index = {h: i for i, h in enumerate(group.elements)}
    cols = [[index[h.compose(gen)] for h in group.elements] for gen in group.generators]
    closure, equivariance = [], []
    for k in range(kmax + 1):
        classes = {}
        for r, key in zip(oracle.path_ids(g, k), g.rows(k).where):
            classes.setdefault(key, []).append(r)
        rows = [r for rs in classes.values() for r in rs]
        attach = g.step(k).attach
        _, end, _, weight = g.step(k - 1)
        includes_commute = []
        for gen, shift_ok in zip(group.generators, shifts_commute):
            a, e = gen.perm_a, gen.perm_e
            images = {(a[r[0]], *map(e.__getitem__, r[1:])) for r in rows}
            equivariance.append(SubalgebraCheck("equivariance-multiply", k, len(images) == len(rows)))
            ends = zip(range(g.num_a), a) if k == 0 else ((v, end[e[l]]) for l, v in enumerate(end))
            ok = all(sorted(map(e.__getitem__, attach[v])) == list(attach[w]) for v, w in ends)
            includes_commute.append(ok)
            equivariance.append(SubalgebraCheck("equivariance-include", k, ok))
            if k >= 1:
                ok = all(w == weight[e[l]] for l, w in enumerate(weight))
                ok = ok and all(len({e[r[-1]] for r in rs}) == len({r[-1] for r in rs}) for rs in classes.values())
                equivariance.append(SubalgebraCheck("equivariance-expect", k, ok))
            equivariance.append(SubalgebraCheck("equivariance-shift", k, shift_ok))
        injective, expect_ok = True, k >= 1
        for orbit in loop_orbit_images(group, k, backward):
            at = {x: i for i, x in enumerate(orbit)}
            injective = injective and all(len({orbit[c[i]] for i in at.values()}) == len(at) for c in cols)
            if expect_ok:
                cut = {}
                for x in at:
                    b, es = x
                    if es[k - 1] == es[k]:
                        cut[x] = ((b, es[: k - 1] + es[k + 1 :]), weight[es[k]])
                weighted = radical_sums(cut.values())
                expect_ok = all(
                    radical_sums((cut[orbit[c[at[x]]]][0], w) for x, (_, w) in cut.items()) == weighted
                    for c in cols
                )
        closure.append(SubalgebraCheck("closure-multiply", k, injective))
        if k + 1 <= kmax:
            closure.append(SubalgebraCheck("closure-include", k, injective and all(includes_commute)))
        if k >= 1:
            closure.append(SubalgebraCheck("closure-expect", k, expect_ok))
        if k + 2 <= kmax:
            closure.append(SubalgebraCheck("closure-shift", k, injective and all(shifts_commute)))
        if k >= 2:
            cup_cap = jones_projection_raw(g, k - 2).terms
            ok = all(
                radical_sums((act_loop(gen, x), c) for x, c in cup_cap.items()) == cup_cap
                for gen in group.generators
            )
            closure.append(SubalgebraCheck("projection-invariant", k, ok))
    return SubalgebraReport(kmax=kmax, group_order=group.order, checks=tuple(closure + equivariance))


def loop_walk_basis(group, k: int, backward: bool = False) -> list[PlanarElement]:
    one = RadicalScalar.one()
    return [PlanarElement(k, dict.fromkeys(images, one)) for images in loop_orbit_images(group, k, backward)]


def _sorted_reprs(elements) -> list[str]:
    return sorted(map(repr, elements))


def assert_orbit_sum_basis(group, k: int) -> None:
    """The properties that determine fixed_space_basis(group, k) without
    `act_loop`: each sum has coefficients one and is fixed by the path-level
    `act` of every generator, so its support is a union of orbits; the
    supports partition the loops, and there are as many as Burnside's count
    of orbits, so each is one orbit; and their first loops come in the
    order of `iter_loops`."""
    basis, loops = fixed_space_basis(group, k), list(group.graph.iter_loops(k))
    one = RadicalScalar.one()
    assert all(c == one for x in basis for c in x.terms.values())
    assert all(act(gen, x) == x for gen in group.generators for x in basis)
    supports = [set(x.terms) for x in basis]
    assert sum(map(len, supports)) == len(loops) and set().union(*supports) == set(loops)
    assert len(basis) == fixed_dims_report(group, k)[k]
    position = {loop: i for i, loop in enumerate(loops)}
    firsts = [min(map(position.__getitem__, support)) for support in supports]
    assert firsts == sorted(firsts)


class TestRowIdWalk:
    @staticmethod
    def _agree(group, kmax: int, backward: bool = False) -> SubalgebraReport:
        report = verify_planar_subalgebra(group, kmax)
        assert report == loop_walk_report(group, kmax, backward)
        for k in range(kmax + 1):
            if backward:
                # The same orbits as the loop walk meets in another order.
                assert _sorted_reprs(fixed_space_basis(group, k)) == _sorted_reprs(loop_walk_basis(group, k, True))
            else:
                assert_orbit_sum_basis(group, k)
        return report

    def test_matches_loop_walk_on_closure_cases(self, graphs):
        reports = [self._agree(group, kmax) for group, kmax in _closure_cases(graphs)]
        passed = [c.passed for report in reports for c in report.checks]
        assert len(reports) == 141 and len(passed) >= 1000 and all(passed)

    def test_matches_loop_walk_backwards_on_closure_cases(self, graphs):
        # The verifier walks no loops; the oracle walking them backwards
        # meets every orbit of a group all the same.
        reports = [self._agree(group, kmax, True) for group, kmax in _closure_cases(graphs)]
        passed = [c.passed for report in reports for c in report.checks]
        assert len(reports) == 141 and len(passed) >= 1000 and all(passed)

    def test_orbit_sums_on_seeded_automorphism_groups(self, graphs):
        # Below each graph's kmax: C-in-M3 has 6,561 loops of degree 4.
        cases = 0
        for group, kmax in _seeded_automorphism_groups(graphs, 20095, 40):
            for k in range(kmax):
                assert_orbit_sum_basis(group, k)
            cases += 1
        assert cases == 40

    def test_matches_loop_walk_on_raw_generators(self, graphs):
        # Every single raw generator of central-C2-in-M2xM2, the graph where
        # closure-expect depended on the walk's order: close_group refuses the
        # 4,000 that are not permutations and the 88 permutations that break
        # incidence, the 80 that send a loop of degree 1 or 2 to a non-loop
        # and 8 that keep every loop with a perm_b that perm_e does not
        # induce; the 8 automorphisms it accepts keep the loops up to degree 3
        # and agree with the loop walk in both orders.
        g = graphs("central-C2-in-M2xM2")
        groups, refused = [], Counter()
        for gen in _single_raw_generators(g):
            try:
                groups.append(close_group(g, [gen]))
            except InvalidAutomorphismError as exc:
                incidence = str(exc).endswith(REFUSED)
                refused[incidence, incidence and kept_degree(g, [gen], 2) == 2] += 1
                assert not incidence or edge_condition(g, gen) == (kept_degree(g, [gen], 2) == 2)
        assert (refused, len(groups)) == ({(False, False): 4000, (True, False): 80, (True, True): 8}, 8)
        for group in groups:
            assert kept_degree(g, group.generators, 3) == 3
            for backward in (False, True):
                assert self._agree(group, 3, backward).all_passed

    def test_basis_matches_the_loop_walk_on_corpus_groups(self, graphs):
        # The orbit sums built from path strings equal those built from
        # decoded loops and `act_loop`, in the same order, one degree past
        # each group's checks.
        for name, kmax, gens in CORPUS_GROUPS:
            g = graphs(name)
            group = close_group(g, [make_automorphism(g, *gen) for gen in gens])
            for k in range(kmax + 2):
                assert fixed_space_basis(group, k) == loop_walk_basis(group, k)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_walk_order_is_iter_loops_order(self, graphs, name):
        # Under the trivial group every orbit is one loop, and
        # fixed_space_basis meets the orbits in the order of `iter_loops`.
        g = graphs(name)
        group = close_group(g, [])
        for k in range(5):
            assert [sorted(x.terms) for x in fixed_space_basis(group, k)] == [[loop] for loop in g.iter_loops(k)]


def _closure_cases(graphs):
    """The oracle cases, then the seeded permutation groups of 200 more sets
    that close_group accepts, at degrees the pairwise oracle can afford."""
    yield from _oracle_cases(graphs)
    yield from _seeded_groups(graphs, 20091, 200, cap=2)


class TestClosureMultiply:
    def test_matches_pairwise_oracle(self, graphs):
        verdicts = []
        for group, kmax in _closure_cases(graphs):
            report = verify_planar_subalgebra(group, kmax)
            found = [c for c in report.checks if c.name == "closure-multiply"]
            assert found == pairwise_closure_multiply(group, kmax)
            verdicts.extend(c.passed for c in found)
        # Lemma M: every check passes, by products too.
        assert len(verdicts) >= 100 and all(verdicts)

    def test_overlapping_orbit_map_is_refused(self, graphs):
        # Merging the two edges of C-in-C2 into e0 gave the monoid {1, m},
        # whose orbits of [a0; e0; e0] and [a0; e1; e1] overlapped and whose
        # orbit sums were not all fixed; close_group refuses the map.
        g = graphs("C-in-C2")
        with pytest.raises(InvalidAutomorphismError) as refused:
            close_group(g, [GraphAutomorphism((0,), (0, 0), (0, 0))])
        assert str(refused.value) == "perm_b is not a permutation of 0..1: (0, 0)"


def refused_verdicts(g, gens, kmax: int) -> dict[tuple[str, int], bool]:
    """The loop-walk oracle's verdicts, by (name, degree), on the group of
    generators that close_group refuses."""
    with pytest.raises(InvalidAutomorphismError) as refused:
        close_group(g, gens)
    assert str(refused.value).endswith(REFUSED)
    return {(c.name, c.degree): c.passed for c in loop_walk_report(raw_group(g, gens), kmax).checks}


class TestDisjointUnion:
    """The disjoint-union group: a permutation group that keeps loops up to
    degree 1 and fails a closure check there, which close_group refuses."""

    def test_fixed_dims(self):
        group = raw_group(union_graph(), [UNION_GENERATOR])
        assert group.order == 12
        assert every_loop_fixed_dims(group, 1) == [2, 3]
        with pytest.raises(InvalidAutomorphismError, match="degree-2 loop"):
            every_loop_fixed_dims(group, 2)
        with pytest.raises(InvalidAutomorphismError, match=REFUSED):
            close_group(union_graph(), [UNION_GENERATOR])

    def test_closure_expect_fails(self):
        verdicts = refused_verdicts(union_graph(), [UNION_GENERATOR], 1)
        assert [key for key, passed in verdicts.items() if not passed] == [
            ("closure-expect", 1),
            ("equivariance-shift", 0),
            ("equivariance-include", 1),
            ("equivariance-expect", 1),
            ("equivariance-shift", 1),
        ]

    @pytest.mark.parametrize(
        "stabilizer, flipped",
        [("trivial", UNION_REVERSAL), ("whole", UNION_GENERATOR)],
    )
    def test_closure_expect_reads_base_stabilizers(self, stabilizer, flipped):
        # Lemma E at the bases, with H = Stab(b), gives closure-expect(1)
        # on the loop-walk oracle for both refused generators.
        # UNION_GENERATOR fails it; the reversal fails equivariance-expect(1)
        # but passes it.  Both verdicts tell Stab(b) from a wrong H: with
        # every H the trivial group, the check is equivariance-expect(1), and
        # the reversal's verdict flips; with every H the whole group, each
        # sum runs over an orbit of the group, which every generator keeps,
        # and UNION_GENERATOR's verdict flips.
        for gen, expected in ((UNION_GENERATOR, False), (UNION_REVERSAL, True)):
            verdicts = refused_verdicts(union_graph(), [gen], 1)
            assert verdicts[("closure-expect", 1)] is expected
            assert not verdicts[("equivariance-expect", 1)]
            group = raw_group(union_graph(), [gen])
            base_stabilizer = lambda b: [h for h in group.elements if h.perm_a[b] == b]
            assert lemma_e_at_bases(group, base_stabilizer) is expected
            identity = [identity_automorphism(group.graph)]
            wrong = (lambda b: identity) if stabilizer == "trivial" else (lambda b: group.elements)
            assert lemma_e_at_bases(group, wrong) is (expected != (gen is flipped))

    def test_is_not_an_automorphism(self):
        # perm_e sends e0 (a0-b0) to e1 (a0-b1) and e2 (a1-b0) to e6
        # (a3-b4), so no vertex map fits it, and it moves the edge weights
        # that every automorphism keeps.
        g = union_graph()
        with pytest.raises(InvalidAutomorphismError, match="incompatible endpoints"):
            make_automorphism(g, *UNION_GENERATOR)
        spin_sq = g.step(0).spin_sq
        assert [spin_sq[f] for f in UNION_GENERATOR.perm_e] != list(spin_sq)


def lemma_e_at_bases(group, stabilizer) -> bool:
    """Lemma E at the bases with H = stabilizer(b), a list of elements, for
    each base b: every generator keeps the sum of squared spins of every
    H-orbit on the edges at b (docs/closure-multiply-and-burnside.md,
    section 6)."""
    attach, _, _, weight = group.graph.step(0)
    for b in range(group.graph.num_a):
        orbits = {frozenset(h.perm_e[f] for h in stabilizer(b)) for f in attach[b]}
        for orbit in orbits:
            total = sum_scalars(weight[f] for f in orbit)
            if any(sum_scalars(weight[gen.perm_e[f]] for f in orbit) != total for gen in group.generators):
                return False
    return True


def test_verdicts_do_not_depend_on_loop_order(graphs):
    # The orbits of a group partition the loops, so the loop-walk oracle
    # reads the same report walking either way, and the verifier, which
    # walks no loops, reads it too; the backward walk meets the orbits in
    # another order in many cases, so that is not vacuous.
    reordered = 0
    for group, kmax in _closure_cases(graphs):
        report = verify_planar_subalgebra(group, kmax)
        assert loop_walk_report(group, kmax) == report == loop_walk_report(group, kmax, True)
        for k in range(kmax + 1):
            forward, backward = (list(loop_orbit_images(group, k, way)) for way in (False, True))
            assert sorted(map(frozenset, forward), key=sorted) == sorted(map(frozenset, backward), key=sorted)
            reordered += forward != backward[::-1]
    assert reordered >= 100


def test_walk_order_witness_is_refused(graphs):
    # On central-C2-in-M2xM2 the raw map that swaps the bases and sends e1
    # and e3 to e2 passed closure-expect(1) walking the loops forwards and
    # failed it walking them backwards; close_group refuses it.  The
    # disjoint-union group fails closure-expect(1) in both walk orders, and
    # close_group refuses it too.
    with pytest.raises(InvalidAutomorphismError, match="perm_b"):
        close_group(graphs("central-C2-in-M2xM2"), [GraphAutomorphism((1, 0), (0, 0), (0, 2, 0, 2))])
    assert not refused_verdicts(union_graph(), [UNION_GENERATOR], 1)[("closure-expect", 1)]
    group = raw_group(union_graph(), [UNION_GENERATOR])
    for report in (loop_walk_report(group, 1), loop_walk_report(group, 1, True)):
        assert [c.passed for c in report.checks if c.name == "closure-expect"] == [False]


def test_accepted_groups_fail_no_check(graphs):
    # The chain of docs/closure-multiply-and-burnside.md, section 8, read on
    # the oracles rather than the verifier: a group that close_group accepts
    # keeps include's condition at degrees 0 and 1, hence shift's, hence
    # include's and expect's at every degree, closure-expect and the Jones
    # idempotents, so every check of its report passes on the elements and
    # the loops, in every position.
    passed = Counter()
    for group, kmax in _closure_cases(graphs):
        report = verify_planar_subalgebra(group, kmax)
        multiply = [c for c in report.checks if c.name == "equivariance-multiply"]
        expected = element_closure(group, kmax) + every_loop_equivariance(group, kmax, multiply)
        assert list(report.checks) == expected
        for c in expected:
            passed[c.name, c.passed] += 1
    assert {passed for _, passed in passed} == {True}
    assert len(passed) == 9 and min(passed.values()) >= 100


def test_shift_matches_prefix_oracle(graphs):
    # Shift's edge condition is include's at degrees 0 and 1, which
    # incidence implies; the prefix triples that shift applies decide it
    # too.  Every generator of the closure cases keeps the prefixes, and of
    # seeded single permutation generators on every Markov corpus graph and
    # the disjoint union, close_group accepts exactly those that keep them
    # and the weights.
    for group, _ in _closure_cases(graphs):
        assert all(prefix_shift_verdicts(group))
    rng = random.Random(20093)
    pool = [graphs(entry.name) for entry in MARKOV_CORPUS] + [union_graph()]
    outcomes = Counter()
    for index in range(300):
        g = pool[index % len(pool)]
        gen = _permutation_generator(rng, g)
        try:
            close_group(g, [gen])
            accepted = True
        except InvalidAutomorphismError:
            accepted = False
        assert prefix_shift_verdicts(raw_group(g, [gen])) == [edge_condition(g, gen)]
        assert accepted == (edge_condition(g, gen) and keeps_weights(g, gen))
        outcomes[accepted] += 1
    assert outcomes == {True: 211, False: 89}


def _checked_report(group, kmax: int):
    """The verifier's report, after checking that its closure block equals
    the element oracle's and comes before every equivariance check."""
    report = verify_planar_subalgebra(group, kmax)
    expected = element_closure(group, kmax)
    head, tail = report.checks[: len(expected)], report.checks[len(expected) :]
    assert list(head) == expected
    assert all(c.name.startswith("equivariance-") for c in tail)
    return report


def _single_raw_generators(g):
    """Every GraphAutomorphism whose maps send each vertex and edge list into
    itself: one raw generator per combination of self-maps."""
    maps = [itertools.product(range(n), repeat=n) for n in (g.num_a, g.num_b, len(g.edges))]
    return [GraphAutomorphism(*gen) for gen in itertools.product(*maps)]


class TestClosureIncludeShift:
    def test_matches_element_oracle(self, graphs):
        verdicts = {}
        for group, kmax in _closure_cases(graphs):
            for c in _checked_report(group, kmax).checks:
                if not c.name.startswith("equivariance-"):
                    verdicts.setdefault(c.name, []).append(c.passed)
        # Every closure check of every accepted report passes on the
        # elements too: closure-multiply, -include and -shift by Lemmas M and
        # R, closure-expect and projection-invariant by the chain of section
        # 8 of docs/closure-multiply-and-burnside.md.
        assert len(verdicts) == 5
        assert all(all(passed) and len(passed) >= 100 for passed in verdicts.values())

    @pytest.mark.parametrize("name, count", [("C-in-C2", 16), ("C-in-M2", 4), ("C2-in-M2", 16)])
    def test_every_single_raw_generator(self, graphs, name, count):
        # close_group refuses every raw generator that is not a permutation,
        # and every permutation that breaks incidence: on C-in-C2 the two
        # that keep every loop but carry a perm_b that perm_e does not
        # induce, on C2-in-M2 the two that send a loop of degree 0 or 1 to a
        # non-loop.  Each automorphism it accepts keeps the loops up to
        # degree 3 and runs against the element oracle there.
        g = graphs(name)
        gens = _single_raw_generators(g)
        assert len(gens) == count
        groups, refused = [], 0
        for gen in gens:
            try:
                groups.append(close_group(g, [gen]))
            except InvalidAutomorphismError as exc:
                if str(exc).endswith(REFUSED):
                    assert edge_condition(g, gen) == (kept_degree(g, [gen], 2) == 2)
                    refused += 1
        assert (len(groups), refused) == {"C-in-C2": (2, 2), "C-in-M2": (2, 0), "C2-in-M2": (2, 2)}[name]
        for group in groups:
            assert kept_degree(g, group.generators, 3) == 3
            assert _checked_report(group, 3).all_passed

    def test_non_injective_generator_fails_include(self, graphs):
        # Merging the two edges of C-in-C2 left an orbit sum short of a term
        # under include; close_group refuses the map.
        with pytest.raises(InvalidAutomorphismError, match="perm_b"):
            close_group(graphs("C-in-C2"), [GraphAutomorphism((0,), (0, 0), (0, 0))])

    def test_non_injective_generator_fails_shift(self, graphs):
        # Sending both bases of central-C2-in-M2xM2 to a0 merged the orbit
        # {a1, a0} of points and its shifted orbit sum; close_group refuses
        # the map.
        with pytest.raises(InvalidAutomorphismError, match="perm_a"):
            close_group(graphs("central-C2-in-M2xM2"), [GraphAutomorphism((0, 0), (0, 0), (0, 1, 0, 1))])

    def test_edge_condition_fails_include(self, graphs):
        # Sending both edges of C2-in-M2 to e0 attached e0 at a1; close_group
        # refuses the map.  The base swap that keeps the edges fails
        # include's edge condition at degree 0, and close_group refuses it
        # too; on the loop-walk oracle at kmax 0, equivariance-include fails
        # while closure-multiply passes and no closure-include is reported.
        g = graphs("C2-in-M2")
        with pytest.raises(InvalidAutomorphismError, match="perm_e"):
            close_group(g, [GraphAutomorphism((0, 1), (0,), (0, 0))])
        verdicts = refused_verdicts(g, [GraphAutomorphism((1, 0), (0,), (0, 1))], 0)
        assert verdicts[("closure-multiply", 0)]
        assert not verdicts[("equivariance-include", 0)]
        assert ("closure-include", 0) not in verdicts

    @pytest.mark.parametrize("perm_a, perm_e", [((1, 0), (0, 1)), ((0, 1), (1, 0))])
    def test_shift_pins_the_base(self, graphs, perm_a, perm_e):
        # C2-in-M2 has edges e0 = a0-b0 and e1 = a1-b0.  Moving the bases but
        # not the edges, or the edges but not the bases, sends shift's bounce
        # prefix (d, d) at base b to a loop whose base a(b) is not the lower
        # end of its first edge e(d): shift's edge condition fails, on the
        # prefix triples and on the loop-walk oracle at kmax 0, and
        # close_group refuses the map.
        g = graphs("C2-in-M2")
        gen = GraphAutomorphism(perm_a, (0,), perm_e)
        verdicts = refused_verdicts(g, [gen], 0)
        assert verdicts[("closure-multiply", 0)]
        assert not verdicts[("equivariance-shift", 0)]
        assert prefix_shift_verdicts(raw_group(g, [gen])) == [False]

    def test_closure_expect_is_not_read_off_other_verdicts(self):
        # On the disjoint union, two permutation generators that keep loops up
        # to degree 1 both fail equivariance-expect(1) on the loop-walk
        # oracle, and have the same verdicts on every other check, yet
        # closure-expect(1) fails for one and passes for the other.
        # close_group refuses both, since neither keeps the loops of degree 2.
        g = union_graph()
        outcomes = []
        for gen in (UNION_GENERATOR, UNION_REVERSAL):
            verdicts = refused_verdicts(g, [gen], 1)
            assert kept_degree(g, [gen], 2) == 1
            assert not verdicts[("equivariance-expect", 1)]
            outcomes.append(verdicts[("closure-expect", 1)])
            rest = {key: v for key, v in verdicts.items() if key[0] not in ("closure-expect", "equivariance-expect")}
            outcomes.append(rest)
        assert outcomes[0] is False and outcomes[2] is True
        assert outcomes[1] == outcomes[3]


def every_loop_fixed_dims(group, kmax: int) -> list[int]:
    """fixed_dims_report on loops: every generator's image of every loop is
    tested for membership in iter_loops, and each element's fixed loops are counted
    one by one.  The oracle for the row test and the Burnside count on
    paths."""
    g = group.graph
    for element in group.elements:
        for perm, size, label in (
            (element.perm_a, g.num_a, "perm_a"),
            (element.perm_b, g.num_b, "perm_b"),
            (element.perm_e, len(g.edges), "perm_e"),
        ):
            if sorted(perm) != list(range(size)):
                raise InvalidAutomorphismError(f"{label} is not a permutation of 0..{size - 1}: {perm}")
    dims = []
    for k in range(kmax + 1):
        loops = set(g.iter_loops(k))
        for gen in group.generators:
            if not all(act_loop(gen, l) in loops for l in loops):
                raise InvalidAutomorphismError(f"a generator sends a degree-{k} loop to a non-loop")
        fixed = sum(act_loop(h, l) == l for l in g.iter_loops(k) for h in group.elements)
        assert fixed % group.order == 0
        dims.append(fixed // group.order)
    return dims


def _outcome(call):
    try:
        return call()
    except InvalidAutomorphismError as exc:
        return str(exc)


class TestFixedDimsOnPaths:
    def test_matches_every_loop_oracle(self, graphs):
        # Each case at its degree and one degree on: every accepted group
        # maps every loop to a loop, so both give dimensions.
        outcomes = 0
        for group, kmax in _closure_cases(graphs):
            for degree in (kmax, kmax + 1):
                assert fixed_dims_report(group, degree) == every_loop_fixed_dims(group, degree)
                outcomes += 1
        assert outcomes >= 200

    @pytest.mark.parametrize(
        "perm_e, expected",
        [((1, 0, 2, 3), [1, 5, 26, 140]), ((2, 1, 0, 3), "a generator sends a degree-1 loop to a non-loop")],
    )
    def test_incidence_breaking_maps(self, graphs, perm_e, expected):
        # The two maps of TestFixedSpaces, on the every-loop oracle: one keeps
        # every loop a loop, and the automorphism with the perm_b its perm_e
        # induces has the same dimensions; the other sends a degree-1 loop to
        # a non-loop.  close_group refuses both, since both break incidence.
        g = graphs("C-in-C2xM2")
        gens = [GraphAutomorphism((0,), (0, 1, 2), perm_e)]
        assert _outcome(lambda: every_loop_fixed_dims(raw_group(g, gens), 3)) == expected
        with pytest.raises(InvalidAutomorphismError, match=REFUSED):
            close_group(g, gens)
        if edge_condition(g, gens[0]):
            automorphism = gens[0]._replace(perm_b=induced_perm_b(g, gens[0]))
            assert fixed_dims_report(close_group(g, [automorphism]), 3) == expected

    def test_count_not_divisible_by_the_order_is_internal(self, graphs):
        # Burnside's total at each degree is a multiple of |G|; a table whose
        # counts do not sum to the order breaks that, and the count raises
        # the internal error instead of rounding.
        g = graphs("C-in-C3")
        group = close_group(g, [make_automorphism(g, [0], [1, 2, 0])])
        assert fixed_dims_report(group, 3) == [1, 1, 3, 9]
        bases, gram, count = group._fixed[0]
        object.__setattr__(group, "_fixed", ((bases, gram, count + 1), *group._fixed[1:]))
        with pytest.raises(PlanarAlgError, match="not divisible by the group order"):
            fixed_dims_report(group, 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_symmetric_groups(self, graphs, n):
        g = graphs(f"C-in-C{n}")
        cycle = make_automorphism(g, [0], [*range(1, n), 0])
        flip = make_automorphism(g, [0], [1, 0, *range(2, n)])
        group = close_group(g, [cycle, flip])
        dims = [sum(stirling2(k, j) for j in range(n + 1)) for k in range(6)]
        assert fixed_dims_report(group, 5) == every_loop_fixed_dims(group, 5) == dims

    def test_walk_is_linear_in_kmax(self, monkeypatch):
        # Work count: on a fresh C-in-C with the trivial group, the count at
        # kmax K builds no table of paths and forms the (K - 1) // 2 sparse
        # products G^2, G^3, ... that its traces need, one for every two
        # degrees, of the group's one Gram matrix G, the 1 x 1 matrix (1);
        # each product reads its one row once.
        calls = Counter()

        class CountedGram(dict):
            def __getitem__(self, x):
                calls["rows"] += 1
                return dict.__getitem__(self, x)

        g = build_graph(corpus_entry("C-in-C").inclusion())
        group = close_group(g, [])
        counted = tuple((bases, CountedGram(gram), count) for bases, gram, count in group._fixed)
        object.__setattr__(group, "_fixed", counted)

        def counting_tables(*args):
            calls["tables"] += 1
            return table(*args)

        table = graph.PathTable
        monkeypatch.setattr(graph, "PathTable", counting_tables)
        assert fixed_dims_report(group, 1000) == [1] * 1001
        assert calls == {"rows": 499}
        assert fixed_dims_report(group, 999)[999] == 1
        assert calls == {"rows": 998}

    def test_walk_stops_where_the_fixed_paths_die(self, two_point_swap, monkeypatch):
        # The swap of C-in-C2 fixes the base and no edge, so its orbit has an
        # empty Gram matrix and forms no product: it adds its one fixed base
        # at degree 0 and nothing after.  The identity's Gram matrix is the
        # 1 x 1 matrix (2) on the one lower vertex, the smaller side, and it
        # forms 39 // 2 products.
        g, swap = two_point_swap
        group = close_group(g, [swap])
        reads, walked = Counter(), []

        class CountedGram(dict):
            def __getitem__(self, x):
                reads[id(self)] += 1
                return dict.__getitem__(self, x)

        def recording(gram):
            walked.append(gram)
            return walks(gram)

        walks = symmetry._closed_walks
        monkeypatch.setattr(symmetry, "_closed_walks", recording)
        counted = tuple((bases, CountedGram(gram), count) for bases, gram, count in group._fixed)
        object.__setattr__(group, "_fixed", counted)
        assert fixed_dims_report(group, 40) == [1] + [2 ** (k - 1) for k in range(1, 41)]
        assert sorted(map(dict, (gram for _, gram, _ in counted)), key=len) == [{}, {0: ((0, 2),)}]
        assert walked == [{0: ((0, 2),)}]
        assert sorted(reads[id(gram)] for _, gram, _ in counted) == [0, 19]

    def test_one_entry_per_orbit_of_fixed_subgraphs(self, graphs):
        # The group's table against the orbits of the elements' pairs (fixed
        # bases, fixed edges counted per (lower, upper) bundle) under
        # conjugation, found here from every element rather than from the
        # generators: one entry per orbit, with its number of fixed bases and
        # the number of elements in the orbit.  The last case, Z2xZ2 swapping
        # two pairs of the four parallel edges of a=[1], m=[[4]], has two
        # elements that fix different copies, two each, and is not conjugate:
        # they share one entry, where their fixed edge sets would give two.
        bundle = build_graph(InclusionData([1], [[4]]))
        swaps = close_group(bundle, [make_automorphism(bundle, [0], [0], p) for p in ([1, 0, 2, 3], [0, 1, 3, 2])])
        cases = 0
        for group, _ in [*_oracle_cases(graphs), *_seeded_automorphism_groups(graphs, 20095, 40), (swaps, 4)]:
            ends = list(zip(group.graph.step(1).end, group.graph.step(0).end))  # edge id -> (lower, upper)
            pairs = Counter(
                (
                    tuple(b for b, image in enumerate(h.perm_a) if b == image),
                    frozenset(Counter(ends[f] for f, image in enumerate(h.perm_e) if f == image).items()),
                )
                for h in group.elements
            )
            orbits = {
                frozenset(
                    (tuple(sorted(s.perm_a[b] for b in bases)), frozenset(((s.perm_a[i], s.perm_b[j]), c) for (i, j), c in counts))
                    for s in group.elements
                )
                for bases, counts in pairs
            }
            expected = sorted((len(next(iter(orbit))[0]), sum(pairs[pair] for pair in orbit)) for orbit in orbits)
            assert sorted((len(bases), count) for bases, _, count in group._fixed) == expected
            cases += 1
        assert cases == 69
        assert sorted(count for _, _, count in swaps._fixed) == [1, 1, 2]
        assert fixed_dims_report(swaps, 4) == [row_burnside_count(swaps, k) for k in range(5)]

    def test_fixed_edges_are_counted_in_bundles_with_fixed_ends(self, graphs, monkeypatch):
        # Work count: an element's fixed edges can lie only in a bundle whose
        # two ends it fixes, so only those bundles' edges are compared, one
        # `operator.eq` call each.  On C-in-C2xM2 (bundles of 1, 1 and 2
        # edges) under Z2xZ2, swapping b0 and b1 and the two parallel edges:
        # 4 + 2 + 4 + 2, where comparing every bundle would take 16.
        calls = 0

        def counting_eq(x, y):
            nonlocal calls
            calls += 1
            return x == y

        monkeypatch.setattr(symmetry, "eq", counting_eq)
        g = graphs("C-in-C2xM2")
        gens = [make_automorphism(g, [0], [1, 0, 2], [1, 0, 2, 3]), make_automorphism(g, [0], [0, 1, 2], [0, 1, 3, 2])]
        group = close_group(g, gens)
        assert calls == 12
        assert sorted(count for _, _, count in group._fixed) == [1, 1, 1, 1]
        assert fixed_dims_report(group, 3) == [row_burnside_count(group, k) for k in range(4)]

    def test_trivial_group_keeps_the_gram_matrix_of_the_inclusion(self):
        # The identity fixes every edge, so the one entry of the trivial
        # group holds F F^t for the inclusion matrix F read from lower to
        # upper vertices, on the side with fewer vertices, the lower one on a
        # tie: M M^t, or M^t M with more lower vertices.  On the generated
        # inclusions; on 8 square ones M M^t and M^t M differ.
        for inc in generated_markov_inclusions():
            ((bases, gram, count),) = close_group(build_graph(inc), [])._fixed
            f = inc.m if inc.rows <= inc.cols else tuple(zip(*inc.m))
            products = {x: {y: sum(map(int.__mul__, f[x], f[y])) for y in range(len(f))} for x in range(len(f))}
            assert {x: dict(row) for x, row in gram.items()} == {
                x: {y: n for y, n in row.items() if n} for x, row in products.items()
            }
            assert (bases, count) == (tuple(range(inc.rows)), 1)

    def test_one_table_of_paths_per_graph(self, monkeypatch):
        # Work count: each reader of the graph's paths (the loops, the cup-cap
        # of degree m + 2 from the rows of length m, the unit and the fixed
        # basis) walks exactly one `rows` table per call, into a table of its
        # own; the loop readers and the basis sort the rows into their
        # classes once, the cup-cap and the unit not at all, and the graph
        # and the group are left as they were.  On fresh graphs: the trivial
        # group of C-in-C at degree 1000, S4 on C-in-C4.
        calls, rows, table = Counter(), BipartiteGraph.rows, graph.PathTable

        def counting_sorted(*args, **kwargs):
            calls["sorts"] += 1
            return sorted(*args, **kwargs)

        def counting_rows(self, k):
            calls["rows", k] += 1
            return rows(self, k)

        def counting_table(*args):
            calls["tables"] += 1
            return table(*args)

        one = RadicalScalar.one()
        s4 = [([0], [1, 0, 2, 3]), ([0], [1, 2, 3, 0])]
        for name, k, gens in (("C-in-C", 1000, []), ("C-in-C4", 6, s4)):
            g = build_graph(corpus_entry(name).inclusion())
            group = close_group(g, [make_automorphism(g, *gen) for gen in gens])
            built = dict(vars(g))
            kept = [getattr(group, slot) for slot in group.__slots__]
            n = len(rows(g, k).paths)
            readers = (
                (lambda: g.enumerate_loops(k), k, 1),
                (lambda: list(g.iter_loops(k)), k, 1),
                (lambda: g.cup_cap(k - 2, one), k - 2, 0),
                (lambda: jones_projection_raw(g, k - 2), k - 2, 0),
                (lambda: g.unit(k), k, 0),
                (lambda: fixed_space_basis(group, k), k, 1),
            )
            with monkeypatch.context() as patch:
                patch.setattr(BipartiteGraph, "rows", counting_rows)
                patch.setattr(graph, "PathTable", counting_table)
                patch.setattr(graph, "sorted", counting_sorted, raising=False)
                for read, degree, sorts in readers:
                    calls.clear()
                    read()
                    assert calls == Counter({("rows", degree): 1, "tables": 1, "sorts": sorts})
            assert vars(g).keys() == built.keys() and all(vars(g)[key] is value for key, value in built.items())
            assert all(getattr(group, slot) is value for slot, value in zip(group.__slots__, kept))
            assert group.__slots__ == ("graph", "generators", "elements", "_fixed")
        assert len(fixed_space_basis(group, 6)) == 187

    def test_row_orbit_count(self, graphs):
        # The Burnside count against the orbit count on rows and the loop
        # orbits: on every permutation group of the oracle cases that keeps
        # loops, and on seeded groups of automorphisms with stabilisers that
        # move rows, among them Z2xZ2 swapping the parallel edges of
        # C-in-C2xM2 and the Z2 that moves the base of C2-in-M2.  At degrees
        # 9-11 of S4 on C-in-C4, which the loop walk is too slow to reach, the
        # orbit count and the Stirling sums are the independent checks.
        cases = [
            (group, min(kmax, 5))
            for group, kmax in _closure_cases(graphs)
            if isinstance(_outcome(lambda: every_loop_fixed_dims(group, kmax)), list)
        ]
        c2m2, c2 = graphs("C-in-C2xM2"), graphs("C2-in-M2")
        cases.append(
            (
                close_group(
                    c2m2,
                    [make_automorphism(c2m2, [0], [1, 0, 2], [1, 0, 2, 3]), make_automorphism(c2m2, [0], [0, 1, 2], [0, 1, 3, 2])],
                ),
                5,
            )
        )
        cases.append((close_group(c2, [make_automorphism(c2, [1, 0], [0])]), 5))
        rng = random.Random(20092)
        autos = {name: _automorphisms(graphs(name)) for name, _ in SEEDED_GROUP_GRAPHS}
        for index in range(30):
            name, kmax = SEEDED_GROUP_GRAPHS[index % len(SEEDED_GROUP_GRAPHS)]
            gens = rng.sample(autos[name], rng.randint(1, 2))
            cases.append((close_group(graphs(name), gens), kmax))
        moving = 0
        for group, kmax in cases:
            for k in range(kmax + 1):
                count = stabiliser_orbit_count(group, k)
                assert fixed_dims_report(group, k)[k] == count == len(list(loop_orbit_images(group, k)))
                moving += _stabilizer_moves_a_row(group, k)
        assert moving >= 20
        g = graphs("C-in-C4")
        s4 = close_group(g, [make_automorphism(g, [0], [1, 0, 2, 3]), make_automorphism(g, [0], [1, 2, 3, 0])])
        for k in range(9, 12):
            assert fixed_dims_report(s4, k)[k] == stabiliser_orbit_count(s4, k) == sum(stirling2(k, j) for j in range(5))


def stabiliser_orbit_count(group, k: int) -> int:
    """The degree-k loop orbits counted on rows with their stabilisers, not
    by fixed points: one row r chosen per orbit of rows holds one loop orbit
    per orbit of Stab(r) on its class (docs/closure-multiply-and-burnside.md,
    section 9), counted once per stabiliser and class."""
    images, classes = oracle.row_images(group, k), oracle.row_classes(group.graph, k)
    fixing = [[] for _ in images[0]]
    for i, im in enumerate(images):
        for r, image in enumerate(im):
            if image == r:
                fixing[r].append(i)
    count, covered, counted = 0, set(), {}
    for key, rows in classes.items():
        for r in (r for r in rows if r not in covered):
            covered.update(im[r] for im in images)
            pair = (tuple(fixing[r]), key)
            if pair not in counted:
                stabilizer = [images[h] for h in fixing[r]]
                counted[pair] = len({min(im[u] for im in stabilizer) for u in rows})
            count += counted[pair]
    return count


def row_burnside_count(group, k: int) -> int:
    """The degree-k fixed-space dimension by Burnside's lemma on the graph's
    rows, the count src/ made before it counted fixed subgraphs: an element
    fixes [b; t; u] exactly when it fixes the rows (b, t) and (b, u), and a
    row exactly when the row's image id is its own (Lemma 5), so it fixes
    the sum over classes of (fixed rows of the class)^2 loops.  It compares
    |G| x |rows of degree k| ids, exponential in k."""
    images, classes = oracle.row_images(group, k), oracle.row_classes(group.graph, k).values()
    total = sum(sum(im[r] == r for r in rows) ** 2 for im in images for rows in classes)
    assert total % group.order == 0
    return total // group.order


def _seeded_automorphism_groups(graphs, seed: int, count: int):
    """Groups of one or two automorphisms drawn from every automorphism of
    the graphs of SEEDED_GROUP_GRAPHS, each with its graph's kmax."""
    rng = random.Random(seed)
    autos = {name: _automorphisms(graphs(name)) for name, _ in SEEDED_GROUP_GRAPHS}
    for index in range(count):
        name, kmax = SEEDED_GROUP_GRAPHS[index % len(SEEDED_GROUP_GRAPHS)]
        yield close_group(graphs(name), rng.sample(autos[name], rng.randint(1, 2))), kmax


class TestRowBurnsideOracle:
    # The count on fixed subgraphs against the row count it replaced.

    @staticmethod
    def _agree(group, kmax: int) -> None:
        dims = fixed_dims_report(group, kmax)
        assert dims == [row_burnside_count(group, k) for k in range(kmax + 1)]
        assert [fixed_dims_report(group, k)[k] for k in range(kmax + 1)] == dims

    def test_matches_on_oracle_cases(self, graphs):
        cases = 0
        for group, kmax in _oracle_cases(graphs):
            self._agree(group, kmax + 1)
            cases += 1
        assert cases == 28

    def test_matches_on_seeded_sets(self, graphs):
        # Seeded permutation sets, of which close_group refuses some, and
        # seeded groups of automorphisms; every accepted group is compared,
        # one degree past its graph's kmax.
        outcomes = Counter()
        for g, gens, kmax in _seeded_sets(graphs, 20091, 200):
            try:
                group = close_group(g, gens, limit=200)
            except InvalidAutomorphismError:
                outcomes["refused"] += 1
                continue
            outcomes["accepted"] += 1
            self._agree(group, kmax + 1)
        for group, kmax in _seeded_automorphism_groups(graphs, 20095, 40):
            outcomes["automorphisms"] += 1
            self._agree(group, kmax)
        assert outcomes == {"accepted": 113, "refused": 87, "automorphisms": 40}

    def test_symmetric_group_to_degree_sixty(self, graphs):
        # S4 on C-in-C4 fixes, in degree k, the sum of S(k, j) for j <= 4
        # orbit sums; the row count agrees as far as it is quick (degree 9).
        g = graphs("C-in-C4")
        s4 = close_group(g, [make_automorphism(g, [0], [1, 0, 2, 3]), make_automorphism(g, [0], [1, 2, 3, 0])])
        dims = fixed_dims_report(s4, 60)
        assert dims == [sum(stirling2(k, j) for j in range(5)) for k in range(61)]
        assert dims[:10] == [row_burnside_count(s4, k) for k in range(10)]


# (graph, kmax) for the seeded automorphism groups of the row orbit count.
SEEDED_GROUP_GRAPHS = (
    ("C-in-C4", 5),
    ("C-in-C3", 5),
    ("C-in-M3", 4),
    ("C-in-C2xM2", 4),
    ("central-C2-in-M2xM2", 3),
)


def _automorphisms(g) -> list[GraphAutomorphism]:
    """Every automorphism of a small graph: each vertex and edge permutation
    that make_automorphism accepts."""
    found = []
    for maps in itertools.product(
        *(itertools.permutations(range(n)) for n in (g.num_a, g.num_b, len(g.edges)))
    ):
        with contextlib.suppress(InvalidAutomorphismError):
            found.append(make_automorphism(g, *maps))
    return found


def _stabilizer_moves_a_row(group, k: int) -> bool:
    """Whether an element fixes a degree-k row and moves another row with
    the same base and endpoint, so the row count needs stabilisers."""
    g = group.graph
    classes = {}
    for r, key in zip(oracle.path_ids(g, k), g.rows(k).where):
        classes.setdefault(key, []).append(r)
    for rows in classes.values():
        for h in group.elements:
            if {(h.perm_a[r[0]], *map(h.perm_e.__getitem__, r[1:])) == r for r in rows} == {True, False}:
                return True
    return False
