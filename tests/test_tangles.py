"""Generating operations: frozen expansions, algebra laws, relation checks."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from planaralg import (
    BipartiteGraph,
    DegreeMismatchError,
    InclusionData,
    Loop,
    PlanarElement,
    RadicalScalar,
    RelationCheck,
    ValidationError,
    build_graph,
    expect,
    include,
    jones_projection,
    jones_projection_raw,
    shift,
    trace,
    verify_temperley_lieb,
)
from planaralg import tangles
from planaralg.graph import decode_path, encode_path
from planaralg.radical import sqrt_of_int
import element_oracle as oracle
from conftest import MARKOV_CORPUS, TL_TRIO
from test_graph import random_element

ROOT2 = sqrt_of_int(2)
HALF_ROOT2 = RadicalScalar.parse("1/2 * 2^(2/4)")


def basis(base, top, bottom):
    return PlanarElement.basis(Loop.from_paths(base, tuple(top), tuple(bottom)))


class TestInclude:
    def test_single_edge_expansion(self, graphs):
        # Two-point graph: the only attachable edge at the top endpoint is
        # the one just used, so the image of a diagonal loop is one loop.
        g = graphs("C-in-C2")
        image = include(g, basis(0, (0,), (0,)))
        assert image == basis(0, (0, 0), (0, 0))

    def test_parallel_edge_expansion(self, graphs):
        # Both parallel edges attach at the shared upper vertex.
        g = graphs("C-in-M2")
        image = include(g, basis(0, (0,), (0,)))
        assert image == basis(0, (0, 0), (0, 0)) + basis(0, (0, 1), (0, 1))

    def test_even_degree_attaches_upward(self, graphs):
        g = graphs("C-in-C2")
        image = include(g, basis(0, (0, 0), (0, 0)))
        assert image == (
            basis(0, (0, 0, 0), (0, 0, 0)) + basis(0, (0, 0, 1), (0, 0, 1))
        )

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_unital(self, graphs, name):
        g = graphs(name)
        for k in range(3):
            assert include(g, g.unit(k)) == g.unit(k + 1)

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3"])
    def test_morphism_fuzz(self, graphs, name):
        g = graphs(name)
        rng = random.Random(5)
        for k in (1, 2):
            loops = g.enumerate_loops(k)
            for _ in range(25):
                x = random_element(rng, loops)
                y = random_element(rng, loops)
                assert include(g, x * y) == include(g, x) * include(g, y)
                assert include(g, x + y) == include(g, x) + include(g, y)


class TestShift:
    def test_two_point_expansion(self, graphs):
        # Prepending (up, down) with both traversals of each edge at the base.
        g = graphs("C-in-C2")
        image = shift(g, PlanarElement.basis(g.point(0)))
        assert image == (
            PlanarElement.basis(Loop(0, (0, 0, 0, 0)))
            + PlanarElement.basis(Loop(0, (1, 1, 1, 1)))
        )

    def test_reads_the_prefixes_of_the_element_bases_only(self, monkeypatch):
        # Work count: on C^64 in C^64 (a = [1]*64, m the identity) an element
        # at one base asks for that base's prefixes once, not for all 64.
        n = 64
        g = build_graph(InclusionData([1] * n, [[int(i == j) for j in range(n)] for i in range(n)]))
        calls = []
        real = BipartiteGraph.shift_prefixes
        monkeypatch.setattr(BipartiteGraph, "shift_prefixes", lambda self, base: calls.append(base) or real(self, base))
        assert shift(g, PlanarElement.basis(Loop(5, (5, 5)))) == PlanarElement.basis(Loop(5, (5,) * 6))
        assert calls == [5]

    def test_parallel_edge_expansion(self, graphs):
        # Up and down prefix edges are chosen independently here.
        g = graphs("C-in-M2")
        image = shift(g, PlanarElement.basis(g.point(0)))
        expected = PlanarElement(2)
        for up in (0, 1):
            for down in (0, 1):
                expected = expected + PlanarElement.basis(
                    Loop(0, (up, down, down, up))
                )
        assert image == expected

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_unital(self, graphs, name):
        g = graphs(name)
        for k in range(2):
            assert shift(g, g.unit(k)) == g.unit(k + 2)

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3"])
    def test_morphism_fuzz(self, graphs, name):
        g = graphs(name)
        rng = random.Random(7)
        for k in (1, 2):
            loops = g.enumerate_loops(k)
            for _ in range(25):
                x = random_element(rng, loops)
                y = random_element(rng, loops)
                assert shift(g, x * y) == shift(g, x) * shift(g, y)

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_injective_on_basis(self, graphs, name):
        # Images of distinct basis loops have disjoint supports, so the map
        # is injective on the whole degree-k space.
        g = graphs(name)
        for k in (0, 1, 2):
            seen = set()
            for loop in g.iter_loops(k):
                image = shift(g, PlanarElement.basis(loop))
                support = set(image.terms)
                assert support
                assert not (support & seen)
                seen |= support

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_commutes_with_include(self, graphs, name):
        # shift prepends at the base and include appends at the endpoint,
        # so the two strings they add never meet.
        g = graphs(name)
        rng = random.Random(46)
        for k in (0, 1, 2):
            loops = g.enumerate_loops(k)
            for _ in range(10):
                x = random_element(rng, loops)
                assert shift(g, include(g, x)) == include(g, shift(g, x))


class TestExpect:
    def test_degree_one_contracts_upward(self, graphs):
        g = graphs("C-in-C2")
        image = expect(g, basis(0, (0,), (0,)))
        assert image == PlanarElement.basis(g.point(0)).scaled(HALF_ROOT2)

    def test_degree_two_contracts_downward(self, graphs):
        g = graphs("C-in-C2")
        image = expect(g, basis(0, (0, 0), (0, 0)))
        assert image == basis(0, (0,), (0,)).scaled(ROOT2)

    def test_mismatched_last_column_vanishes(self, graphs):
        g = graphs("C-in-M2")
        x = PlanarElement.basis(Loop(0, (0, 1, 0, 1)))
        assert x.terms  # valid loop with different last edges per row
        assert expect(g, x) == PlanarElement(1)

    def test_rejects_degree_zero(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(DegreeMismatchError):
            expect(g, PlanarElement.basis(g.point(0)))

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_unit_contracts_to_scaled_unit(self, graphs, name):
        g = graphs(name)
        for k in range(3):
            assert expect(g, g.unit(k + 1)) == g.unit(k).scaled(g.gamma)

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_undoes_include_up_to_gamma(self, graphs, name):
        # The squared spins of the edges that include attaches at a vertex
        # sum to gamma, so contracting the added column gives gamma x.
        g = graphs(name)
        rng = random.Random(47)
        for k in (0, 1, 2):
            loops = g.enumerate_loops(k)
            for _ in range(10):
                x = random_element(rng, loops)
                assert expect(g, include(g, x)) == x.scaled(g.gamma)

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3"])
    def test_bimodule_law_fuzz(self, graphs, name):
        g = graphs(name)
        rng = random.Random(13)
        for k in (1, 2):
            low = g.enumerate_loops(k)
            high = g.enumerate_loops(k + 1)
            for _ in range(20):
                a = random_element(rng, low)
                b = random_element(rng, low)
                y = random_element(rng, high)
                lhs = expect(g, include(g, a) * y * include(g, b))
                assert lhs == a * expect(g, y) * b


class TestJonesProjection:
    def test_two_point_coefficients(self, graphs):
        g = graphs("C-in-C2")
        e0 = jones_projection(g, 0)
        expected = {
            Loop(0, (t, t, b, b)): RadicalScalar.from_rational(Fraction(1, 2))
            for t in (0, 1)
            for b in (0, 1)
        }
        assert e0.terms == expected

    def test_three_point_coefficients(self, graphs):
        g = graphs("C-in-C3")
        e0 = jones_projection(g, 0)
        assert len(e0.terms) == 9
        third = RadicalScalar.from_rational(Fraction(1, 3))
        assert all(c == third for c in e0.terms.values())

    def test_raw_is_unnormalized(self, graphs):
        g = graphs("C-in-C2")
        assert jones_projection_raw(g, 1) == jones_projection(g, 1).scaled(g.gamma)

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_idempotent_and_trace(self, graphs, name):
        g = graphs(name)
        for k in (0, 1):
            e = jones_projection(g, k)
            assert e * e == e
            assert trace(g, e) == Fraction(1, g.r)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS if sum(map(sum, e.m)) <= 6])
    def test_projection_and_shift_reprs_are_pinned(self, graphs, name):
        # The digests were recorded when jones_projection_raw and shift each
        # built their own cup-cap terms and prefixes; reading both off the
        # graph keeps every element.
        g = graphs(name)
        rng = random.Random(2000)
        lines = [repr(jones_projection(g, k)) for k in range(4)]
        for k in range(3):
            loops = g.enumerate_loops(k)
            lines += [repr(shift(g, random_element(rng, loops, count=4))) for _ in range(3)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GENERATOR_PINS[name]

    def test_markov_property(self, graphs):
        # Multiplying an embedded element by the next projection divides the
        # trace by the index, exactly.
        for name in ("C-in-C2", "C-in-M2"):
            g = graphs(name)
            rng = random.Random(17)
            for k in (0, 1):
                e = jones_projection(g, k)
                loops = g.enumerate_loops(k)
                for _ in range(10):
                    x = random_element(rng, loops)
                    embedded = include(g, include(g, x))
                    assert trace(g, embedded * e) * g.r == trace(g, x)


# SHA-256 of the Jones projections e_0..e_3 and of shift on nine seeded
# elements, per Markov corpus graph.
GENERATOR_PINS = {
    "C-in-C": "8020ad8dc491d043ab17941eb2e4fac5078a57c12daa1d91f964b71e2c140cc5",
    "C-in-C2": "28811db5e1ff5ebe81564100cf3762f2776371fd63d07425aa6d1784d4ac1139",
    "C-in-C3": "d2f0c754238c85f457fc5fb080d50384e72cbf8cf4fb2f18e50fc0fc7af9a779",
    "C-in-C4": "40bb59b8f9fd4b8fbfa8616ab1c16acc3b3d7c05af45881ce136023f65602b84",
    "C-in-C5": "da464b7c154e9fd5f4604bfab32a491ad7e0e0ad37c23557f007dba520cf115e",
    "C-in-M2": "12b75ad8dde4fdbcb42f4717609fc30c29503224c9484c731a758fc09aa15f2c",
    "C-in-M3": "e624e6cd255a0df7828f7bdd582caf8348cb777708e31c27e5e2d2d2a902e10d",
    "central-C2-in-M2xM2": "3f13487b69fe4623602450c392c7b044d97c407a3f1a3f9b9a4e1d37f846e97b",
    "C2-in-M2": "a406a798bdcce0bb9eae35a4e0e5d48e54eab194caf81fba18a0e5cbad64d33b",
    "C-in-C2xM2": "c660cb792452ec110f5fcd9e170e66bb38e26f64134621fe88250f9eaaa082f4",
    "C-M2-in-M2xM4": "3f13487b69fe4623602450c392c7b044d97c407a3f1a3f9b9a4e1d37f846e97b",
}


class TestTrace:
    @pytest.mark.parametrize("name", TL_TRIO)
    def test_unit_has_trace_one(self, graphs, name):
        g = graphs(name)
        for k in range(4):
            assert trace(g, g.unit(k)) == 1

    def test_frozen_values(self, graphs):
        g = graphs("C-in-C2")
        assert trace(g, basis(0, (0,), (0,))) == Fraction(1, 2)
        g2 = graphs("C-in-M2")
        assert trace(g2, PlanarElement.basis(Loop(0, (0, 1)))) == 0

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3"])
    def test_commutes_fuzz(self, graphs, name):
        g = graphs(name)
        rng = random.Random(19)
        loops = g.enumerate_loops(2)
        for _ in range(30):
            x = random_element(rng, loops)
            y = random_element(rng, loops)
            assert trace(g, x * y) == trace(g, y * x)

    def test_compatible_with_expectation(self, graphs):
        g = graphs("C-in-M2")
        rng = random.Random(29)
        loops = g.enumerate_loops(2)
        for _ in range(20):
            x = random_element(rng, loops)
            assert trace(g, x) == trace(g, expect(g, x).scaled(g.gamma.invert()))

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_invariant_under_embeddings(self, graphs, name):
        # The point-evaluation weights are the unique normalization that
        # keeps the trace unchanged under both embeddings.
        g = graphs(name)
        rng = random.Random(31)
        for k in (0, 1, 2):
            loops = g.enumerate_loops(k)
            for _ in range(15):
                x = random_element(rng, loops)
                assert trace(g, include(g, x)) == trace(g, x)
                assert trace(g, shift(g, x)) == trace(g, x)


class TestRelations:
    @pytest.mark.parametrize("name", TL_TRIO)
    def test_all_relations_hold(self, graphs, name):
        g = graphs(name)
        checks = verify_temperley_lieb(g, 2)
        assert len(checks) == 11
        assert all(c.passed for c in checks)
        names = {c.relation for c in checks}
        assert names == {"idempotent", "trace", "bounce-low", "bounce-high", "far-commute"}

    def test_rejects_negative_kmax(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(ValidationError):
            verify_temperley_lieb(g, -1)

    def test_products_reuse_reduced_keys(self, graphs):
        # Scalar products look their radical parts up in a cache, so the
        # monomial reduction runs once per distinct pair of parts, not once
        # per product: thousands of products here, a few dozen reductions.
        from planaralg import radical

        g = graphs("C-in-C2xM2")
        radical._key_product.cache_clear()
        checks = verify_temperley_lieb(g, 4)
        assert checks and all(c.passed for c in checks)
        assert radical._key_product.cache_info().misses <= 100

    def test_projections_are_included_along_one_chain(self, graphs, monkeypatch):
        # Work count: each e_k is included one degree at a time and its
        # far-commute checks reuse the chain, kmax + kmax(kmax-1)/2 inclusions
        # in all; embedding from scratch for every check took 20 here.
        from planaralg import tangles

        calls = 0
        original = tangles.include

        def counting(g, x):
            nonlocal calls
            calls += 1
            return original(g, x)

        monkeypatch.setattr(tangles, "include", counting)
        checks = verify_temperley_lieb(graphs("C-in-C2"), 4)
        assert calls == 10
        assert all(c.passed for c in checks)
        expected = [(r, (k,)) for k in range(5) for r in ("idempotent", "trace")]
        for k in range(4):
            expected += [("bounce-low", (k, k + 1)), ("bounce-high", (k + 1, k))]
        expected += [("far-commute", (k, l)) for k in range(5) for l in range(k + 2, 5)]
        assert [(c.relation, c.indices) for c in checks] == expected

    def test_products_per_check(self, graphs, monkeypatch):
        # Work count: one product per idempotent, three per adjacent pair
        # (the bounces share low high) and one per far commute (the other
        # order is the adjoint), (kmax + 1) + 3 kmax + kmax (kmax - 1) / 2
        # in all, 40 at kmax 6 where comparing each relation as written took
        # 61; `trace` contracts nothing.  The product accumulator is
        # counted: a far commute tests its rows with no normal-form pass.
        products, contractions = 0, 0
        product, contract_last = PlanarElement._product, PlanarElement.contract_last

        def counting_product(x, y):
            nonlocal products
            products += 1
            return product(x, y)

        def counting_contract_last(x, weights):
            nonlocal contractions
            contractions += 1
            return contract_last(x, weights)

        monkeypatch.setattr(PlanarElement, "_product", counting_product)
        monkeypatch.setattr(PlanarElement, "contract_last", counting_contract_last)
        g = graphs("C-in-C2")
        for kmax in range(7):
            products = 0
            checks = verify_temperley_lieb(g, kmax)
            assert all(c.passed for c in checks)
            assert products == (kmax + 1) + 3 * kmax + kmax * (kmax - 1) // 2
        assert products == 40 and contractions == 0
        x = random_element(random.Random(3), g.enumerate_loops(3), count=6)
        assert trace(g, x) == oracle.trace(g, oracle.RefElement.of(x))
        assert contractions == 0

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_matches_the_oracle(self, graphs, name):
        # The checks as the relations read, two products per far commute,
        # four per adjacent pair and traces by repeated expectation, give
        # the same list: relations, indices, verdicts and order.
        g = graphs(name)
        assert verify_temperley_lieb(g, 4) == oracle.verify_temperley_lieb(g, 4)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_projections_and_their_inclusions_are_self_adjoint(self, graphs, name):
        # The premise of the far-commute check: e_k* = e_k, and include
        # commutes with the involution.  A single loop off the diagonal,
        # and each inclusion of it, is not self-adjoint, so the test can
        # fail; C-in-C has no such loop.
        g = graphs(name)
        for k in range(3):
            x = jones_projection(g, k)
            for _ in range(3):
                assert x.is_self_adjoint()
                x = include(g, x)
        off_diagonal = [l for k in (1, 2, 3) for l in g.iter_loops(k) if l.top() != l.bottom()]
        assert off_diagonal or name == "C-in-C"
        for loop in off_diagonal[:1]:
            x = PlanarElement.basis(loop)
            for _ in range(3):
                assert not x.is_self_adjoint()
                x = include(g, x)

    @pytest.mark.parametrize("name", ["C-in-M2", "C-in-C3", "C-in-C2xM2"])
    def test_far_commute_reads_the_involution(self, graphs, name):
        # For self-adjoint y, y e_l == e_l y exactly when y e_l is
        # self-adjoint: both verdicts occur on y = s + s* and on the
        # inclusions of e_0.
        g = graphs(name)
        rng = random.Random(41)
        verdicts = []
        for l in (2, 3):
            e = jones_projection(g, l)
            loops = g.enumerate_loops(l + 2)
            low = jones_projection(g, 0)
            for _ in range(l):
                low = include(g, low)
            ys = [low]
            for _ in range(10):
                s = random_element(rng, loops, count=4)
                ys.append(s + PlanarElement(l + 2, oracle.RefElement.of(s).adjoint().terms))
            for y in ys:
                assert y.is_self_adjoint()
                verdicts.append((y * e).is_self_adjoint())
                assert verdicts[-1] == (y * e == e * y)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_trace_by_blocks_matches_repeated_expectation(self, graphs, name):
        # Formula (T) summed per (base, endpoint) block against the
        # oracle's k contractions, on seeded elements of degrees 0-4.
        g = graphs(name)
        rng = random.Random(43)
        values = set()
        for k in range(5):
            loops = g.enumerate_loops(k)
            diagonal = [l for l in loops if l.top() == l.bottom()]
            for _ in range(6):
                x = random_element(rng, loops, count=6) + random_element(rng, diagonal, count=6)
                values.add(trace(g, x))
                assert trace(g, x) == oracle.trace(g, oracle.RefElement.of(x))
        assert len(values) > 5


def _representatives(g, k) -> dict[int, tuple[int, ...]]:
    """Endpoint -> the representative prefix of `verify_temperley_lieb` that
    reaches it, as ids (base, e1, ..., ek)."""
    paths, where = g.rows(k)
    ends = {path: end for path, (_, end) in zip(paths, where)}
    return {ends[p]: decode_path(p) for p in tangles._prefix_representatives(g, k)}


def _prefix_blocks(x: PlanarElement, k: int) -> dict[tuple[int, ...], dict]:
    """Length-k prefix -> its block of x: (row suffix, column suffix) ->
    coefficient, the rows and columns as ids (base, e1, ...)."""
    blocks = {}
    for loop, coeff in x.terms.items():
        row, col = (loop.base, *loop.bottom()), (loop.base, *loop.top())
        assert row[: k + 1] == col[: k + 1]
        blocks.setdefault(row[: k + 1], {})[row[k + 1 :], col[k + 1 :]] = coeff
    return blocks


class TestRepresentativeBlocks:
    """The idempotent and bounce checks read one prefix block per endpoint
    (docs/temperley-lieb-blocks.md)."""

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_matches_the_full_check(self, graphs, name):
        # The checks on whole elements give the same list at every kmax up
        # to 6: relations, indices, verdicts and order.
        g = graphs(name)
        for kmax in range(7):
            assert verify_temperley_lieb(g, kmax) == oracle.verify_temperley_lieb_full(g, kmax)

    @pytest.mark.parametrize("name", [e.name for e in MARKOV_CORPUS])
    def test_projection_blocks_depend_on_the_endpoint_only(self, graphs, name):
        # The lemma's premise: each entry of e_k has a row and a column with
        # one length-k prefix, and the block of every prefix is that of its
        # endpoint's representative with the prefix swapped.  There is one
        # representative per endpoint, the first path that reaches it.
        g = graphs(name)
        for k in range(5):
            paths, where = g.rows(k)
            reps = _representatives(g, k)
            assert len(tangles._prefix_representatives(g, k)) == len(reps) == len({end for _, end in where})
            firsts = {}
            for path, (_, end) in zip(paths, where):
                firsts.setdefault(end, decode_path(path))
            assert reps == firsts
            blocks = _prefix_blocks(jones_projection(g, k), k)
            assert set(blocks) == {decode_path(p) for p in paths}
            for path, (_, end) in zip(paths, where):
                assert blocks[decode_path(path)] == blocks[reps[end]]

    def test_restricted_keeps_the_blocks_in_normal_form(self, graphs):
        # Half a loop of the block of (0, 0) and a row of two loops of the
        # block of (0, 1) on C-in-M2: the restriction to (0, 1) has
        # denominator 1, and its source keeps its terms.
        g = graphs("C-in-M2")
        terms = {
            Loop.from_paths(0, (0, 0), (0, 0)): Fraction(1, 2),
            Loop.from_paths(0, (1, 0), (1, 0)): 1,
            Loop.from_paths(0, (1, 1), (1, 0)): 1,
        }
        x = PlanarElement(2, terms)
        before = x.terms
        kept = x._restricted({encode_path((0, 1))}, 1)
        assert kept == PlanarElement(2, {loop: 1 for loop in list(terms)[1:]})
        assert x.terms == before and x == PlanarElement(2, terms)
        assert x._restricted({encode_path((0, 0)), encode_path((0, 1))}, 1) == x
        assert x._restricted(set(), 1).is_zero()
        for k in range(1, 4):
            e = jones_projection(g, k)
            before = e.terms
            reps = tangles._prefix_representatives(g, k)
            assert e._restricted(reps, k).terms.keys() < before.keys()
            assert e.terms == before

    @pytest.mark.parametrize("name", ["C-in-C2xM2", "C2-in-M2", "C-M2-in-M2xM4"])
    def test_a_defect_on_a_representative_block_fails_both_checks(self, graphs, monkeypatch, name):
        # e_k plus a diagonal loop of one representative block, for every
        # representative: the checks on blocks and on whole elements give
        # the same list, in which the idempotent relation of e_k fails.
        g = graphs(name)
        real = tangles.jones_projection
        failing = set()
        for k in (1, 2):
            for rep in _representatives(g, k).values():
                e = real(g, k)
                loop = next(l for l in e.terms if l.top() == l.bottom() and (l.base, *l.top()[:k]) == rep)
                defect = e + PlanarElement.basis(loop)
                monkeypatch.setattr(tangles, "jones_projection", lambda g, j: defect if j == k else real(g, j))
                checks = verify_temperley_lieb(g, 3)
                assert checks == oracle.verify_temperley_lieb_full(g, 3)
                assert RelationCheck("idempotent", (k,), False) in checks
                failing.update((c.relation, c.indices) for c in checks if not c.passed)
        assert {relation for relation, _ in failing} >= {"idempotent", "trace", "bounce-low", "bounce-high"}
