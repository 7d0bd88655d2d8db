"""Exact scalars: finite sums of rational multiples of fourth roots of primes.

Every coefficient produced by the loop calculus lives in the ring generated
over the rationals by expressions  p^(1/4)  for primes p: squared spins are
rationals over the square root of the integer index and spin factors take
one further square root, so quarter-integer exponents suffice and nothing
in the package ever needs a deeper root.

A value is stored as one positive integer denominator and a map  radical
part -> nonzero integer numerator, where the radical part is a sorted tuple
of (prime, exponent numerator) pairs and the exponent denominator is fixed
at 4.  Normal form: exponent numerators are reduced to {1, 2, 3} with whole
prime powers folded into the numerator, equal radical parts are merged, zero
numerators dropped, and the denominator shares no factor with all the
numerators.  Distinct reduced monomials are linearly independent over the
rationals, so the normal form is unique and `x == y` compares it directly.
Products of two radical parts are looked up in a cache (`_key_product`), so
the ring operations do integer arithmetic and one gcd per result.  Every
value is formed from integers by one constructor, `_reduced`; the mapping
constructor sums its terms as `monomial`s and checks its input as they do.

That independence needs prime bases, so factorizations must be exact: the
factorizer below proves every factor it returns prime, or refuses with
ResourceLimitError when it cannot do so within its effort budget.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Rational
from typing import Iterable, Mapping, Union

from .errors import NotInvertibleError, NotRepresentableError, ResourceLimitError, ValidationError

# Sorted ((prime, exponent numerator), ...) with numerators in 1..3.
RadicalKey = tuple[tuple[int, int], ...]

RationalLike = Union[int, Fraction]

_MONOMIAL_RE = re.compile(r"^(\d+)\^\((-?\d+)/4\)$")

# -- integer factorization ------------------------------------------------------

_TRIAL_LIMIT = 1000


def _primes_below(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)
# Miller-Rabin with the thirteen prime bases up to 41 is proven correct for
# every n below this bound, psi_13 (Sorenson and Webster, 2015); above it a
# passing n is only a probable prime.  The twelve bases up to 37 would not
# do: psi_12 = 318665857834031151167461 is composite and passes them all.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard-Brent rho steps allowed for the factorization of one integer, so
# separately for the numerator and the denominator of a rational and for
# each integer of a document.
# A prime factor p turns up after a few times sqrt(p) steps: for 382 primes
# just below 10^11 times a 17-digit prime the largest count was 3.2 million
# (median 0.8 million).  The budget bounds a refusal at about 4 s of one
# 2-core Xeon VM's time (~0.5 us per step).
FACTOR_BUDGET = 1 << 23
_RHO_BATCH = 128


def _is_prime(n: int) -> bool:
    """Primality, proven; refuses a probable prime above the proven bound."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise ResourceLimitError(f"cannot prove {n} prime: above the Miller-Rabin bound")
    return True


def _rho_factor(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of the odd composite n by Pollard-Brent rho.

    Returns (factor, steps used); refuses before taking more than `budget`
    steps.  Differences are multiplied in batches so one gcd serves
    _RHO_BATCH steps; a batch that overshoots is replayed step by step.
    """
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > budget:
            raise ResourceLimitError(
                f"factoring {n} needs more than the {budget} rho steps left"
            )

    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            while True:
                spend(1)
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                if g > 1:
                    break
        if g != n:
            return g, steps
    raise AssertionError(f"{n} is not an odd composite")


def _perfect_power(m: int) -> tuple[int, int]:
    """(root, k) with m == root**k for the smallest prime k that fits, else (m, 1).

    Only for m free of primes below _TRIAL_LIMIT, whose roots exceed it.
    Rho would need about sqrt(q) steps to split q^2, so powers are taken
    apart here first.
    """
    for k in _SMALL_PRIMES:
        if _TRIAL_LIMIT**k >= m:
            break
        # Newton's method from above converges to floor(m^(1/k)).
        x = 1 << -(-m.bit_length() // k)
        while True:
            y = ((k - 1) * x + m // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
        if x**k == m:
            return x, k
    return m, 1


def _factorint(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer: prime -> exponent.

    Trial division by the primes below _TRIAL_LIMIT, then _factor_rough on
    what is left, with FACTOR_BUDGET rho steps for this integer; every
    factor is proven prime.  Raises ResourceLimitError instead of guessing.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    if n > 1:
        for p, e in _factor_rough(n, [FACTOR_BUDGET]):
            factors[p] = factors.get(p, 0) + e
    return factors


# Rough parts and their roots repeat: `analyze` takes six roots of one index
# for its odd word norms, and the edges at one graph vertex share its block
# dimension in their ratios.  The oldest entry is dropped first.
_ROUGH_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}
_ROUGH_CACHE_SIZE = 256


def _factor_rough(n: int, budget: list[int]) -> tuple[tuple[int, int], ...]:
    """Factorization of an n > 1 free of primes below _TRIAL_LIMIT.

    Perfect powers are factored through their roots, which go through the
    cache too, so x and x^2 share work; Pollard-Brent rho splits the rest.
    budget[0] holds the rho steps left for the whole integer being factored
    and is spent in place.
    """
    # No prime below _TRIAL_LIMIT divides n, so below its square n is prime.
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        return ((n, 1),)
    if n in _ROUGH_CACHE:
        return _ROUGH_CACHE[n]
    factors: dict[int, int] = {}
    pending = [(n, 1)]
    while pending:
        m, e = pending.pop()
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or _is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        root, k = _perfect_power(m)
        if k > 1:
            for p, f in _factor_rough(root, budget):
                factors[p] = factors.get(p, 0) + e * k * f
            continue
        d, used = _rho_factor(m, budget[0])
        budget[0] -= used
        pending += [(d, e), (m // d, e)]
    if len(_ROUGH_CACHE) >= _ROUGH_CACHE_SIZE:
        del _ROUGH_CACHE[next(iter(_ROUGH_CACHE))]
    _ROUGH_CACHE[n] = result = tuple(factors.items())
    return result


def _fold(exps: Mapping[int, int]) -> tuple[RadicalKey, int, int]:
    """Reduced radical part of  prod p^(e/4)  with the whole prime powers
    folded out of it as the integer ratio n/d; exponents land in 1..3."""
    parts, n, d = [], 1, 1
    for p, e in exps.items():
        whole, rem = divmod(e, 4)
        if whole > 0:
            n *= p**whole
        elif whole < 0:
            d *= p**-whole
        if rem:
            parts.append((p, rem))
    return tuple(sorted(parts)), n, d


@lru_cache(maxsize=4096)
def _key_product(k1: RadicalKey, k2: RadicalKey) -> tuple[RadicalKey, int]:
    """Reduced radical part of the product of two radical parts, with the
    integer folded out of it (numerators are 1..3, so each prime folds out
    at most one whole power)."""
    exps = dict(k1)
    for p, e in k2:
        exps[p] = exps.get(p, 0) + e
    key, n, _ = _fold(exps)
    return key, n


def _exact(q):
    """q itself if it is an exact rational (int, Fraction, ...); a float, a
    Decimal or a string is refused, where Fraction would read a float's
    binary value or parse the string."""
    if not isinstance(q, Rational):
        raise ValidationError(f"{q!r} is not an exact rational")
    return q


class RadicalScalar:
    """Immutable exact number of the form  sum_t (n_t / den) * prod_p p^(e/4)."""

    __slots__ = ("_den", "_num")

    def __new__(cls, terms: Mapping[RadicalKey, RationalLike] | None = None) -> RadicalScalar:
        total = cls.zero()
        for key, coeff in (terms or {}).items():
            term = cls.monomial(coeff, {})
            for p, e in key:
                term = term * cls.monomial(1, {p: e})
            total = total + term
        return total

    def __setattr__(self, name, value):
        raise AttributeError("RadicalScalar is immutable")

    def __reduce__(self):
        return _reduced, (self._den, self._num)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> RadicalScalar:
        return _reduced(1, {})

    @classmethod
    def one(cls) -> RadicalScalar:
        return cls.from_rational(1)

    @classmethod
    def from_rational(cls, q: RationalLike) -> RadicalScalar:
        q = Fraction(_exact(q))
        return _reduced(q.denominator, {(): q.numerator} if q else {})

    @classmethod
    def monomial(cls, coeff: RationalLike, exps: Mapping[int, int]) -> RadicalScalar:
        """coeff * prod p^(e/4) for a map prime -> exponent numerator."""
        for p, e in exps.items():
            if isinstance(p, bool) or not isinstance(p, int) or not _is_prime(p):
                raise ValidationError(f"radical base {p!r} is not a prime integer")
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValidationError(f"radical exponent {e!r} is not an integer")
        q = Fraction(_exact(coeff))
        key, n, d = _fold(exps)
        return _reduced(q.denominator * d, {key: q.numerator * n} if q else {})

    @classmethod
    def parse(cls, text: str) -> RadicalScalar:
        """Inverse of str(): "q * p^(a/4) * ..." terms joined by " + "."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        total = cls.zero()
        for part in text.split(" + "):
            tokens = [t.strip() for t in part.strip().split("*")]
            if not tokens or not tokens[0]:
                raise ValidationError(f"empty term in scalar text: {text!r}")
            try:
                coeff = Fraction(tokens[0])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad coefficient {tokens[0]!r}") from exc
            exps: dict[int, int] = {}
            for tok in tokens[1:]:
                match = _MONOMIAL_RE.match(tok)
                if match is None:
                    raise ValidationError(f"bad radical factor {tok!r}")
                try:
                    p, e = int(match.group(1)), int(match.group(2))
                except ValueError as exc:  # past the interpreter's int-to-str digit limit
                    raise ValidationError("radical factor has too many digits") from exc
                exps[p] = exps.get(p, 0) + e
            total = total + cls.monomial(coeff, exps)
        return total

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[RadicalKey, Fraction]:
        return {k: Fraction(n, self._den) for k, n in self._num.items()}

    def is_rational(self) -> bool:
        return not self._num or (len(self._num) == 1 and () in self._num)

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; error when radicals survive."""
        if not self.is_rational():
            raise NotRepresentableError(f"{self} is irrational")
        return Fraction(self._num.get((), 0), self._den)

    def to_float(self) -> float:
        total = 0.0
        for key, n in self._num.items():
            value = n / self._den
            for p, e in key:
                value *= float(p) ** (e / 4.0)
            total += value
        return total

    def __float__(self) -> float:
        return self.to_float()

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> RadicalScalar | None:
        if isinstance(other, RadicalScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalScalar.from_rational(other)
        return None

    def __add__(self, rhs) -> RadicalScalar:
        if rhs.__class__ is not RadicalScalar:
            rhs = self._coerce(rhs)
            if rhs is None:
                return NotImplemented
        da, db = self._den, rhs._den
        g = gcd(da, db)
        sa, sb = db // g, da // g
        num = {k: n * sa for k, n in self._num.items()}
        for k, n in rhs._num.items():
            total = num.get(k, 0) + n * sb
            if total:
                num[k] = total
            else:
                del num[k]
        return _reduced(da * sa, num)

    __radd__ = __add__

    def __neg__(self) -> RadicalScalar:
        return _reduced(self._den, {k: -n for k, n in self._num.items()})

    def __sub__(self, other) -> RadicalScalar:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> RadicalScalar:
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, rhs) -> RadicalScalar:
        if rhs.__class__ is not RadicalScalar:
            rhs = self._coerce(rhs)
            if rhs is None:
                return NotImplemented
        num: dict[RadicalKey, int] = {}
        for k1, n1 in self._num.items():
            for k2, n2 in rhs._num.items():
                key, factor = _key_product(k1, k2)
                total = num.get(key, 0) + n1 * n2 * factor
                if total:
                    num[key] = total
                else:
                    del num[key]
        return _reduced(self._den * rhs._den, num)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RadicalScalar:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = RadicalScalar.one()
        for _ in range(n):
            result = result * self
        return result

    def sqrt(self) -> RadicalScalar:
        """Exact square root of a single positive term with even exponents."""
        if len(self._num) != 1:
            raise NotRepresentableError(f"sqrt of non-monomial {self}")
        (key, n), = self._num.items()
        if n < 0:
            raise NotRepresentableError(f"sqrt of negative term {self}")
        if any(e % 2 for _, e in key):
            raise NotRepresentableError(f"sqrt of {self} needs an eighth root")
        exps = {p: e // 2 for p, e in key}
        for sign, m in ((2, n), (-2, self._den)):
            for p, e in _factorint(m).items():
                exps[p] = exps.get(p, 0) + sign * e
        new_key, num, den = _fold(exps)
        return _reduced(den, {new_key: num})

    def invert(self) -> RadicalScalar:
        """Exact reciprocal of a single nonzero term."""
        if not self._num:
            raise NotInvertibleError("inverse of zero")
        if len(self._num) != 1:
            raise NotInvertibleError(f"inverse of non-monomial {self}")
        (key, n), = self._num.items()
        new_key, num, den = _fold({p: -e for p, e in key})
        return _reduced(abs(n) * den, {new_key: (1 if n > 0 else -1) * self._den * num})

    # -- equality and display ------------------------------------------------

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._den == rhs._den and self._num == rhs._num

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self._den, frozenset(self._num.items())))

    def __str__(self) -> str:
        if not self._num:
            return "0"
        rendered = []
        for key in sorted(self._num):
            parts = [str(Fraction(self._num[key], self._den))]
            parts.extend(f"{p}^({e}/4)" for p, e in key)
            rendered.append(" * ".join(parts))
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"RadicalScalar({str(self)!r})"


_new = object.__new__
_set_den = RadicalScalar._den.__set__
_set_num = RadicalScalar._num.__set__


def _reduced(den: int, num: dict[RadicalKey, int]) -> RadicalScalar:
    """The one constructor of a value: wraps nonzero integer numerators over
    a positive denominator and divides out their common factor."""
    g = gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {k: n // g for k, n in num.items()}
    out = _new(RadicalScalar)
    _set_den(out, den)
    _set_num(out, num)
    return out


def sqrt_of_int(n: int) -> RadicalScalar:
    """Convenience: exact square root of a positive integer."""
    if n <= 0:
        raise NotRepresentableError(f"sqrt of non-positive integer {n}")
    return RadicalScalar.from_rational(n).sqrt()


def sum_scalars(values: Iterable[RadicalScalar]) -> RadicalScalar:
    total = RadicalScalar.zero()
    for v in values:
        total = total + v
    return total
