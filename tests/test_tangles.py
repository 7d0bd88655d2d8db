"""Generating operations: frozen expansions, algebra laws, programs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from planaralg import (
    DegreeMismatchError,
    Loop,
    PlanarElement,
    RadicalScalar,
    TangleProgram,
    TangleProgramError,
    TangleStep,
    ValidationError,
    expect,
    identity,
    include,
    jones_projection,
    jones_projection_raw,
    multiply,
    run_program,
    shift,
    trace,
    verify_temperley_lieb,
)
from planaralg.radical import sqrt_of_int
from conftest import TL_TRIO
from test_graph import random_element

ROOT2 = sqrt_of_int(2)
HALF_ROOT2 = RadicalScalar.parse("1/2 * 2^(2/4)")


def basis(base, top, bottom):
    return PlanarElement.basis(Loop.from_paths(base, tuple(top), tuple(bottom)))


class TestIdentityMultiply:
    def test_identity_is_noop(self):
        x = PlanarElement.basis(Loop(0, (0, 1)))
        assert identity(x) is x

    def test_multiply_matches_operator(self, graphs):
        g = graphs("C-in-M2")
        rng = random.Random(3)
        loops = g.enumerate_loops(2)
        for _ in range(20):
            x = random_element(rng, loops)
            y = random_element(rng, loops)
            assert multiply(x, y) == x * y


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

    def test_parallel_edge_expansion(self, graphs):
        # Up and down prefix edges are chosen independently here.
        g = graphs("C-in-M2")
        image = shift(g, PlanarElement.basis(g.point(0)))
        expected = PlanarElement.zero(2)
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
                support = set(image.support())
                assert support
                assert not (support & seen)
                seen |= support


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
        assert expect(g, x) == PlanarElement.zero(1)

    def test_rejects_degree_zero(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(DegreeMismatchError):
            expect(g, PlanarElement.basis(g.point(0)))

    @pytest.mark.parametrize("name", TL_TRIO)
    def test_unit_contracts_to_scaled_unit(self, graphs, name):
        g = graphs(name)
        for k in range(3):
            assert expect(g, g.unit(k + 1)) == g.unit(k).scaled(g.gamma)

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


class TestPrograms:
    def test_step_validation(self):
        with pytest.raises(ValidationError):
            TangleStep("X", 1)
        with pytest.raises(ValidationError):
            TangleStep("I", -1)
        assert TangleStep("U", 2).input_degree == 3
        assert TangleStep("E", 0).input_degree is None
        assert TangleStep("J", 1).output_degree == 3

    def test_parse_and_str_roundtrip(self):
        for text in ("I1,U1", "E0,M2", "J0", "11,M1,I1"):
            program = TangleProgram.parse(text)
            assert str(program) == text
            assert TangleProgram.parse(str(program)) == program

    def test_parse_rejects_bad_tokens(self):
        for text in ("", "Q1", "I", "I1;U1", "I-1"):
            with pytest.raises(ValidationError):
                TangleProgram.parse(text)

    def test_negative_circles_rejected(self):
        with pytest.raises(ValidationError):
            TangleProgram.parse("I1", circles=-1)

    def test_empty_program_rejected(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(TangleProgramError):
            run_program(g, TangleProgram(()), [])

    def test_include_then_contract_scales(self, graphs):
        g = graphs("C-in-C2")
        x = basis(0, (0,), (0,))
        result = run_program(g, TangleProgram.parse("I1,U1"), [x])
        assert result == x.scaled(g.gamma)

    def test_multiply_consumes_aux_input(self, graphs):
        g = graphs("C-in-M2")
        x = PlanarElement.basis(Loop.from_paths(0, (0,), (1,)))
        y = PlanarElement.basis(Loop.from_paths(0, (1,), (0,)))
        assert run_program(g, TangleProgram.parse("M1"), [x, y]) == x * y

    def test_projection_opens_program(self, graphs):
        g = graphs("C-in-C2")
        assert run_program(g, TangleProgram.parse("E0"), []) == jones_projection(g, 0)
        y = g.unit(2)
        assert run_program(g, TangleProgram.parse("E0,M2"), [y]) == jones_projection(g, 0) * y

    def test_projection_mid_program_rejected(self, graphs):
        g = graphs("C-in-C2")
        x = basis(0, (0,), (0,))
        with pytest.raises(TangleProgramError):
            run_program(g, TangleProgram.parse("I1,E1"), [x])

    def test_circles_scale_by_eigenvalue(self, graphs):
        g = graphs("C-in-C2")
        x = basis(0, (0,), (0,))
        result = run_program(g, TangleProgram.parse("11", circles=2), [x])
        assert result == x.scaled(2)

    def test_wrong_input_degree(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(DegreeMismatchError):
            run_program(g, TangleProgram.parse("M1"), [g.unit(2), g.unit(1)])

    def test_steps_check_running_degree(self, graphs):
        g = graphs("C-in-C2")
        x = basis(0, (0,), (0,))
        with pytest.raises(DegreeMismatchError) as err:
            run_program(g, TangleProgram.parse("I1,J1"), [x])
        assert "step 1" in str(err.value)

    def test_missing_input(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(TangleProgramError):
            run_program(g, TangleProgram.parse("M1"), [g.unit(1)])

    def test_unused_input_rejected(self, graphs):
        g = graphs("C-in-C2")
        with pytest.raises(TangleProgramError):
            run_program(g, TangleProgram.parse("11"), [g.unit(1), g.unit(1)])


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

    def test_products_reuse_reduced_keys(self, graphs, monkeypatch):
        # Scalar products look their radical parts up in a cache, so the
        # monomial reduction runs once per distinct pair of parts, not once
        # per product: thousands of products here, a few dozen reductions.
        from planaralg import radical

        g = graphs("C-in-C2xM2")
        calls = 0
        reduce_monomial = radical._reduce_monomial

        def counting(*args):
            nonlocal calls
            calls += 1
            return reduce_monomial(*args)

        radical._key_product.cache_clear()
        monkeypatch.setattr(radical, "_reduce_monomial", counting)
        checks = verify_temperley_lieb(g, 4)
        assert checks and all(c.passed for c in checks)
        assert calls <= 100
