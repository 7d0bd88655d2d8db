"""Exact scalar ring: construction, arithmetic laws, radicals, rendering."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planaralg import (
    Loop,
    NotInvertibleError,
    NotRepresentableError,
    PlanarElement,
    RadicalScalar,
    ResourceLimitError,
    ValidationError,
)
from planaralg import radical
from planaralg.radical import _factorint, _is_prime, sqrt_of_int, sum_scalars

HALF = Fraction(1, 2)


def random_monomial(rng: random.Random) -> RadicalScalar:
    coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if coeff == 0:
        coeff = Fraction(1)
    exps = {p: rng.randint(0, 7) for p in (2, 3, 5) if rng.random() < 0.6}
    return RadicalScalar.monomial(coeff, exps)


def random_scalar(rng: random.Random) -> RadicalScalar:
    total = RadicalScalar.zero()
    for _ in range(rng.randint(1, 3)):
        total = total + random_monomial(rng)
    return total


class TestConstruction:
    def test_zero_and_one(self):
        assert RadicalScalar.zero() == 0
        assert RadicalScalar.one() == 1
        assert RadicalScalar.zero() != RadicalScalar.one()

    def test_from_rational(self):
        x = RadicalScalar.from_rational(Fraction(3, 4))
        assert x.as_fraction() == Fraction(3, 4)
        assert float(x) == 0.75

    @pytest.mark.parametrize("value", [0.1, Decimal("0.1"), "1/2"], ids=["float", "Decimal", "str"])
    def test_refuses_inexact_values(self, value):
        # Only exact rationals are read: 0.1 would otherwise become
        # 3602879701896397/36028797018963968, and "1/2" a parsed Fraction.
        # Elements built or scaled with such a value are refused too.
        for build in (
            lambda: RadicalScalar.from_rational(value),
            lambda: RadicalScalar.monomial(value, {2: 1}),
            lambda: RadicalScalar({(): value}),
            lambda: PlanarElement(0, {Loop(0, ()): value}),
            lambda: PlanarElement.basis(Loop(0, ())).scaled(value),
        ):
            with pytest.raises(ValidationError) as refused:
                build()
            assert str(refused.value) == f"{value!r} is not an exact rational"
        assert RadicalScalar.from_rational(Fraction(1, 10)) == RadicalScalar.monomial(Fraction(1, 10), {})

    def test_monomial_rejects_composite_base(self):
        for build in (
            lambda: RadicalScalar.monomial(Fraction(1), {4: 1}),
            lambda: RadicalScalar({((4, 1),): 1}),
        ):
            with pytest.raises(ValidationError) as refused:
                build()
            assert str(refused.value) == "radical base 4 is not a prime integer"

    def test_monomial_rejects_nonprime_base(self):
        with pytest.raises(ValidationError):
            RadicalScalar.monomial(Fraction(1), {1: 1})

    def test_exponent_normalization(self):
        # 2^(5/4) folds one whole power of 2 into the coefficient.
        x = RadicalScalar.monomial(Fraction(1), {2: 5})
        assert x == RadicalScalar.monomial(Fraction(2), {2: 1})
        assert str(x) == "2 * 2^(1/4)"
        assert RadicalScalar({((2, 5),): 1}) == x
        # An exponent, like a base, is an int and not a bool; only those fold
        # into the normal form.
        for e in (1.5, True, "1", Fraction(1)):
            for build in (lambda: RadicalScalar.monomial(1, {2: e}), lambda: RadicalScalar({((2, e),): 1})):
                with pytest.raises(ValidationError) as refused:
                    build()
                assert str(refused.value) == f"radical exponent {e!r} is not an integer"

    def test_full_power_collapses_to_rational(self):
        x = RadicalScalar.monomial(Fraction(1, 3), {3: 4})
        assert x.as_fraction() == Fraction(1)

    def test_sqrt_of_int(self):
        assert sqrt_of_int(1) == 1
        two = sqrt_of_int(2)
        assert two * two == 2
        assert sqrt_of_int(4) == 2
        assert sqrt_of_int(12) == RadicalScalar.monomial(Fraction(2), {3: 2})
        with pytest.raises(NotRepresentableError):
            sqrt_of_int(0)


class TestArithmetic:
    def test_add_cancels(self):
        x = RadicalScalar.monomial(Fraction(2, 3), {2: 2})
        assert x + (-x) == RadicalScalar.zero()
        assert x - x == 0

    def test_mul_merges_exponents(self):
        root2 = RadicalScalar.monomial(Fraction(1), {2: 2})
        fourth = RadicalScalar.monomial(Fraction(1), {2: 1})
        assert fourth * fourth == root2
        assert root2 * root2 == 2

    def test_cross_prime_product(self):
        root2 = sqrt_of_int(2)
        root3 = sqrt_of_int(3)
        assert root2 * root3 == sqrt_of_int(6)

    def test_rational_coercion(self):
        x = sqrt_of_int(2)
        assert 2 * x == x + x
        assert x * HALF + x * HALF == x
        assert x + 0 == x

    def test_pow(self):
        x = RadicalScalar.monomial(Fraction(1, 2), {2: 3})
        assert x**0 == 1
        assert x**3 == x * x * x

    def test_pow_negative(self):
        x = RadicalScalar.monomial(Fraction(3), {2: 2})
        assert x**-2 == x.invert() * x.invert()

    @pytest.mark.parametrize("seed", range(5))
    def test_ring_axioms_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            x, y, z = (random_scalar(rng) for _ in range(3))
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_sum_scalars(self):
        rng = random.Random(99)
        parts = [random_scalar(rng) for _ in range(6)]
        total = RadicalScalar.zero()
        for p in parts:
            total = total + p
        assert sum_scalars(parts) == total


class TestSqrtInvert:
    def test_sqrt_even_exponents(self):
        x = RadicalScalar.monomial(Fraction(9, 4), {2: 2})
        s = x.sqrt()
        assert s * s == x
        assert s == RadicalScalar.monomial(Fraction(3, 2), {2: 1})

    @pytest.mark.parametrize("seed", range(3))
    def test_sqrt_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            exps = {p: 2 * rng.randint(0, 3) for p in (2, 3, 5)}
            x = RadicalScalar.monomial(coeff, exps)
            s = x.sqrt()
            assert s * s == x

    def test_sqrt_rejects_sum(self):
        x = 1 + sqrt_of_int(2)
        with pytest.raises(NotRepresentableError):
            x.sqrt()

    def test_sqrt_rejects_negative(self):
        with pytest.raises(NotRepresentableError):
            RadicalScalar.from_rational(Fraction(-2)).sqrt()

    def test_sqrt_rejects_odd_exponent(self):
        x = RadicalScalar.monomial(Fraction(1), {2: 1})
        with pytest.raises(NotRepresentableError):
            x.sqrt()

    def test_invert_monomial(self):
        x = RadicalScalar.monomial(Fraction(2, 3), {2: 3, 5: 1})
        assert x * x.invert() == 1

    def test_invert_rejects_sum(self):
        with pytest.raises(NotInvertibleError):
            (1 + sqrt_of_int(2)).invert()

    def test_invert_rejects_zero(self):
        with pytest.raises(NotInvertibleError):
            RadicalScalar.zero().invert()

    @pytest.mark.parametrize("seed", range(3))
    def test_invert_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            x = random_monomial(rng)
            assert x * x.invert() == 1
            assert x.invert().invert() == x


class TestRendering:
    def test_render_examples(self):
        assert str(RadicalScalar.zero()) == "0"
        assert str(RadicalScalar.from_rational(Fraction(-3, 2))) == "-3/2"
        assert str(sqrt_of_int(2)) == "1 * 2^(2/4)"
        x = RadicalScalar.monomial(Fraction(1, 2), {2: 3}) + 1
        assert str(x) == "1 + 1/2 * 2^(3/4)"

    def test_parse_examples(self):
        assert RadicalScalar.parse("0") == 0
        assert RadicalScalar.parse("7/3") == Fraction(7, 3)
        assert RadicalScalar.parse("1 * 2^(2/4)") == sqrt_of_int(2)
        assert RadicalScalar.parse("1 * 2^(2/4) * 3^(2/4)") == sqrt_of_int(6)

    def test_parse_negative_exponent(self):
        x = RadicalScalar.parse("1 * 2^(-1/4)")
        assert x == RadicalScalar.monomial(Fraction(1), {2: 1}).invert()

    @pytest.mark.parametrize("seed", range(3))
    def test_roundtrip_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            x = random_scalar(rng)
            assert RadicalScalar.parse(str(x)) == x

    def test_parse_rejects_bad_denominator(self):
        with pytest.raises(ValidationError):
            RadicalScalar.parse("1 * 2^(1/3)")

    def test_parse_rejects_composite_base(self):
        with pytest.raises(ValidationError):
            RadicalScalar.parse("1 * 4^(1/4)")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            RadicalScalar.parse("two plus two")


class TestFloatExport:
    def test_known_values(self):
        assert float(sqrt_of_int(2)) == pytest.approx(math.sqrt(2), rel=1e-15)
        x = RadicalScalar.monomial(Fraction(1, 2), {2: 3})
        assert float(x) == pytest.approx(2 ** (3 / 4) / 2, rel=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicative_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            x = random_scalar(rng)
            y = random_scalar(rng)
            expect = float(x) * float(y)
            got = float(x * y)
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))

    @pytest.mark.parametrize("seed", range(3))
    def test_additive_fuzz(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            x = random_scalar(rng)
            y = random_scalar(rng)
            expect = float(x) + float(y)
            got = float(x + y)
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


class TestEqualityHash:
    def test_rational_hash_matches_fraction(self):
        assert hash(RadicalScalar.from_rational(Fraction(3))) == hash(Fraction(3))
        assert hash(RadicalScalar.from_rational(Fraction(5, 7))) == hash(Fraction(5, 7))

    def test_equal_values_equal_hash(self):
        rng = random.Random(7)
        for _ in range(50):
            parts = [random_monomial(rng) for _ in range(3)]
            x = (parts[0] + parts[1]) + parts[2]
            y = parts[2] + (parts[1] + parts[0])
            assert x == y
            assert hash(x) == hash(y)

    def test_eq_against_numbers(self):
        assert RadicalScalar.from_rational(Fraction(4, 2)) == 2
        assert sqrt_of_int(2) != 2
        assert RadicalScalar.zero() != "0"


# -- dict-of-Fraction reference -------------------------------------------------
# A value as {radical part: nonzero Fraction}, combined term by term with
# Fraction coefficients: the representation and the operations RadicalScalar
# used before it stored integer numerators over one denominator.


def ref_reduce(coeff: Fraction, exps: dict[int, int]) -> tuple[tuple, Fraction]:
    """Fold whole prime powers into the coefficient; exponents land in 1..3."""
    parts = []
    for p, e in exps.items():
        whole, rem = divmod(e, 4)
        coeff *= Fraction(p) ** whole
        if rem:
            parts.append((p, rem))
    return tuple(sorted(parts)), coeff


def ref_monomial(coeff: Fraction, exps: dict[int, int]) -> dict:
    key, folded = ref_reduce(Fraction(coeff), exps)
    return {key: folded} if folded else {}


def ref_add(a: dict, b: dict) -> dict:
    merged = dict(a)
    for key, coeff in b.items():
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return {key: c for key, c in merged.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            exps = dict(k1)
            for p, e in k2:
                exps[p] = exps.get(p, 0) + e
            key, coeff = ref_reduce(c1 * c2, exps)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {key: c for key, c in out.items() if c}


def ref_neg(a: dict) -> dict:
    return {key: -c for key, c in a.items()}


def ref_str(a: dict) -> str:
    if not a:
        return "0"
    return " + ".join(
        " * ".join([str(a[key])] + [f"{p}^({e}/4)" for p, e in key]) for key in sorted(a)
    )


def general_mul(x: RadicalScalar, y: RadicalScalar) -> RadicalScalar:
    return RadicalScalar(ref_mul(x.terms, y.terms))


def general_add(x: RadicalScalar, y: RadicalScalar) -> RadicalScalar:
    return RadicalScalar(ref_add(x.terms, y.terms))


def assert_normal_form(value: RadicalScalar) -> None:
    assert type(value._den) is int and value._den > 0
    for key, num in value._num.items():
        assert type(num) is int and num != 0
        assert list(key) == sorted(key)
        assert len({p for p, _ in key}) == len(key)
        assert all(1 <= e <= 3 for _, e in key)
    assert math.gcd(value._den, *value._num.values()) == 1
    for coeff in value.terms.values():
        assert type(coeff) is Fraction and coeff != 0


_fractions = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
_rationals = _fractions.map(RadicalScalar.from_rational)
_monomials = st.builds(
    RadicalScalar.monomial,
    _fractions.filter(bool),
    st.dictionaries(st.sampled_from((2, 3, 5)), st.integers(-7, 7), max_size=3),
)
_scalars = st.lists(st.one_of(_rationals, _monomials), max_size=3).map(sum_scalars)


class TestRationalFastPath:
    """Rational values, once on a path of their own, against the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p=_fractions, q=_fractions)
    def test_rational_results_match_general_path(self, p, q):
        x, y = RadicalScalar.from_rational(p), RadicalScalar.from_rational(q)
        for fast, general, exact in (
            (x * y, general_mul(x, y), p * q),
            (x + y, general_add(x, y), p + q),
            (p - y, general_add(x, -y), p - q),
        ):
            assert fast.terms == general.terms
            assert fast == general
            assert hash(fast) == hash(general) == hash(exact)
            assert fast == exact
            assert_normal_form(fast)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=_fractions)
    def test_zero_sums(self, p):
        q = RadicalScalar.from_rational(p)
        for total in (q + (-q), q - q, q + RadicalScalar.from_rational(-p)):
            assert not total
            assert total == RadicalScalar.zero()
            assert total.terms == {}
            assert hash(total) == hash(RadicalScalar.zero())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(x=_scalars, y=_scalars)
    def test_mixed_results_stay_normal(self, x, y):
        one = RadicalScalar.one()
        for fast, general in (
            (x * y, general_mul(x, y)),
            (x + y, general_add(x, y)),
            (1 - x, general_add(one, -x)),
        ):
            assert fast.terms == general.terms
            assert fast == general
            assert hash(fast) == hash(general)
            assert_normal_form(fast)
        assert_normal_form(-x)
        assert (-x).terms == {key: -c for key, c in x.terms.items()}


_small_fractions = st.sampled_from(
    [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
)
# 1-4 monomials over the primes 2, 3, 5 with small coefficients, so that
# products carry past exponent 3 and terms of sums and products cancel.
_term_lists = st.lists(
    st.tuples(
        _small_fractions,
        st.dictionaries(st.sampled_from((2, 3, 5)), st.integers(-3, 7), max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def ref_from_terms(terms) -> dict:
    total: dict = {}
    for coeff, exps in terms:
        total = ref_add(total, ref_monomial(coeff, exps))
    return total


def scalar_from_terms(terms) -> RadicalScalar:
    return sum_scalars(RadicalScalar.monomial(coeff, exps) for coeff, exps in terms)


class TestIntegerNumerators:
    """Integer numerators over one denominator against the dict-of-Fraction
    reference, operation by operation."""

    def check(self, value: RadicalScalar, expected: dict) -> None:
        assert_normal_form(value)
        assert value.terms == expected
        assert value == RadicalScalar(expected)
        assert hash(value) == hash(RadicalScalar(expected))
        assert str(value) == ref_str(expected)
        assert RadicalScalar.parse(str(value)) == value
        rational = set(expected) <= {()}
        assert value.is_rational() == rational
        if rational:
            q = expected.get((), Fraction(0))
            assert value.as_fraction() == q
            assert value == q
            assert hash(value) == hash(q)
        else:
            with pytest.raises(NotRepresentableError):
                value.as_fraction()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(xs=_term_lists, ys=_term_lists, opposite=st.booleans())
    def test_operations_match_reference(self, xs, ys, opposite):
        a = ref_from_terms(xs)
        x = scalar_from_terms(xs)
        self.check(x, a)
        if opposite:
            b, y = ref_neg(a), RadicalScalar(ref_neg(a))
        else:
            b, y = ref_from_terms(ys), scalar_from_terms(ys)
        self.check(y, b)
        self.check(x + y, ref_add(a, b))
        self.check(x * y, ref_mul(a, b))
        self.check(x - y, ref_add(a, ref_neg(b)))
        self.check(-x, ref_neg(a))
        assert (x == y) == (a == b)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            # a carry: 2^(3/4) * 2^(3/4) = 2 * 2^(2/4)
            ([(Fraction(1), {2: 3})], [(Fraction(3, 2), {2: 3})]),
            # (1 + 2^(2/4)) (1 - 2^(2/4)) = -1: radical terms cancel to a rational
            ([(Fraction(1), {}), (Fraction(1), {2: 2})], [(Fraction(1), {}), (Fraction(-1), {2: 2})]),
            # four terms each, with carries on every prime
            (
                [(Fraction(1, 2), {2: 1}), (Fraction(2, 3), {3: 3}), (Fraction(-1), {5: 2}), (Fraction(3), {2: 3, 3: 1})],
                [(Fraction(2), {2: 3}), (Fraction(-3, 2), {3: 1}), (Fraction(1, 3), {5: 2, 2: 1}), (Fraction(1), {})],
            ),
        ],
        ids=["carry", "radical-to-rational", "four-terms"],
    )
    def test_hard_cases(self, xs, ys):
        a, b = ref_from_terms(xs), ref_from_terms(ys)
        x, y = scalar_from_terms(xs), scalar_from_terms(ys)
        self.check(x * y, ref_mul(a, b))
        self.check(x + y, ref_add(a, b))
        self.check(x - x, {})
        self.check(x + (-x), {})


def trial_division_factorint(n: int) -> dict[int, int]:
    """Slow reference factorization for the in-house factorizer."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def strong_probable_prime(n: int, base: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
# Composite, yet a strong probable prime to bases 2, 3, 5 and 7.
PSEUDOPRIME_2357 = 3215031751
# Composite, yet a strong probable prime to every prime base up to 37
# (psi_12); the base 41 exposes it.
PSEUDOPRIME_TO_37 = 318665857834031151167461
# The Mersenne prime 2^89 - 1 lies above 3.3e24, where the thirteen fixed
# Miller-Rabin bases no longer prove primality.
PRIME_ABOVE_BOUND = 2**89 - 1


class TestFactorizer:
    def test_zero_and_one(self):
        assert _factorint(1) == {}
        assert not _is_prime(0)
        assert not _is_prime(1)
        with pytest.raises(ValueError):
            _factorint(0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_integers_match_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            n = rng.randrange(1, 10**9)
            expected = trial_division_factorint(n)
            assert _factorint(n) == expected
            assert _is_prime(n) == (expected == {n: 1})

    def test_random_semiprimes_above_trial_limit(self):
        # Both factors above the trial-division primes, so rho splits them.
        rng = random.Random(7)
        primes = [p for p in range(1000, 8000) if trial_division_factorint(p) == {p: 1}]
        for _ in range(200):
            p, q = rng.choice(primes), rng.choice(primes)
            assert _factorint(p * q) == trial_division_factorint(p * q)

    @pytest.mark.parametrize(
        "n",
        [2**61, 3**40, 997**5, 1009**4, 1000003**3, (1009 * 1013) ** 2, (10007 * 1000003) ** 2],
    )
    def test_prime_powers_and_squared_semiprimes(self, n):
        assert _factorint(n) == trial_division_factorint(n)

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers(self, n):
        assert pow(2, n - 1, n) == 1 or math.gcd(2, n) > 1
        assert not _is_prime(n)
        assert _factorint(n) == trial_division_factorint(n)

    def test_strong_pseudoprime_to_small_bases(self):
        n = PSEUDOPRIME_2357
        assert all(strong_probable_prime(n, b) for b in (2, 3, 5, 7))
        assert not _is_prime(n)
        assert _factorint(n) == {151: 1, 751: 1, 28351: 1}

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        n = PSEUDOPRIME_TO_37
        assert n < radical._MR_PROVEN_BELOW
        assert all(strong_probable_prime(n, b) for b in radical._SMALL_PRIMES[:12])
        assert not _is_prime(n)
        assert _factorint(n) == {399165290221: 1, 798330580441: 1}
        with pytest.raises(ValidationError):
            RadicalScalar.monomial(Fraction(1), {n: 1})

    def test_composite_and_non_integer_radical_bases_rejected(self):
        for base in (4, 561, 41041, PSEUDOPRIME_2357, 2.0, True):
            with pytest.raises(ValidationError):
                RadicalScalar.monomial(Fraction(1), {base: 1})

    def test_prime_above_proven_bound_refused(self):
        n = PRIME_ABOVE_BOUND
        assert n > radical._MR_PROVEN_BELOW
        with pytest.raises(ResourceLimitError):
            _is_prime(n)
        with pytest.raises(ResourceLimitError):
            _factorint(n)
        with pytest.raises(ResourceLimitError):
            sqrt_of_int(n)
        with pytest.raises(ResourceLimitError):
            RadicalScalar.monomial(Fraction(1), {n: 1})

    def test_composite_above_proven_bound_factored(self):
        # Miller-Rabin proofs of compositeness hold at any size.
        n = 2**89 + 1
        expected = {3: 1, 179: 1, 62020897: 1, 18584774046020617: 1}
        assert math.prod(p**e for p, e in expected.items()) == n
        assert _factorint(n) == expected

    def test_budget_exhaustion_refused(self, monkeypatch):
        n = 1000037 * 1000039
        monkeypatch.setattr(radical, "_ROUGH_CACHE", {})
        monkeypatch.setattr(radical, "FACTOR_BUDGET", 200)
        with pytest.raises(ResourceLimitError):
            _factorint(n)
        with pytest.raises(ResourceLimitError):
            sqrt_of_int(n)
        monkeypatch.undo()
        assert _factorint(n) == {1000037: 1, 1000039: 1}

    def test_powers_of_large_primes_need_no_rho(self, monkeypatch):
        # Rho would need about sqrt(q) steps to split q^2; roots are taken instead.
        p, q = 10000000019, 10000000000000061
        monkeypatch.setattr(radical, "_ROUGH_CACHE", {})
        monkeypatch.setattr(radical, "FACTOR_BUDGET", 0)
        assert _factorint(2 * q**2) == {2: 1, q: 2}
        assert _factorint(p**6 * 3**4) == {3: 4, p: 6}
        assert _factorint(1013**10) == {1013: 10}

    @pytest.mark.parametrize("square_first", [False, True])
    def test_semiprime_and_its_square_share_rho_work(self, monkeypatch, square_first):
        # The root of x^2 goes through the cache, so whichever of x and 2 x^2
        # comes second needs no rho step.
        x = 1000037 * 1000039
        monkeypatch.setattr(radical, "_ROUGH_CACHE", {})
        first, second = (2 * x**2, x) if square_first else (x, 2 * x**2)
        _factorint(first)
        monkeypatch.setattr(radical, "FACTOR_BUDGET", 0)
        assert _factorint(second) == trial_division_factorint(second)

    def test_rough_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(radical, "_ROUGH_CACHE", {})
        monkeypatch.setattr(radical, "_ROUGH_CACHE_SIZE", 2)
        for p in (1000003, 1000033, 1000037):
            assert _factorint(p) == {p: 1}
        assert list(radical._ROUGH_CACHE) == [1000033, 1000037]

    def test_budget_admits_eleven_by_seventeen_digit_semiprime(self):
        p, q = 10000000019, 10000000000000061
        assert _factorint(p * q) == {p: 1, q: 1}
