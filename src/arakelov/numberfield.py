"""Arithmetic base fields: places, normalized absolute values, divisors.

Supported fields are the rationals and quadratic fields Q(sqrt{D}) for
squarefree D from a documented class-number-one allowlist, so that every
finitely generated torsion-free module over the ring of integers is free.

Normalization of absolute values follows the product-formula convention:
finite places scale the module of the local ring by the residue field size,
real places carry the usual absolute value, and the complex place carries the
*square* of the modulus.  Finite-place values are exact rationals; archimedean
values use floats (except where the value happens to be rational, e.g. the
complex place, where ``|x|_v`` equals the field norm of ``x``).

No workload or CLI command reads the divisors (``absolute_value``,
``divisor``, ``AdelicDivisor``).  They stay as the paper's arithmetic curve
X, the places of K at which bundles are metrized, and the acceptance suite
checks the product formula with them on 500 elements (criterion 7).

The number theory on rational primes is done here, in pure Python:

- ``_is_prime``: trial division by the primes up to 41, then Miller-Rabin
  on those 13 bases, which is proven deterministic below
  3 317 044 064 679 887 385 961 981 (Sorenson and Webster, Math. Comp. 86,
  2017).  From there up it is the Baillie-PSW test, a base-2 Miller-Rabin
  round and a strong Lucas test with Selfridge's parameters (Baillie and
  Wagstaff, Math. Comp. 35, 1980).  No composite is known to pass BPSW, and
  none does below 2**64, but that is not proven for larger n; sympy's
  ``isprime`` uses the same rule in the same range.
- ``_next_prime``: ``_is_prime`` on the odd numbers that follow.
- Quadratic residues by Euler's criterion, and square roots mod an odd
  prime by Tonelli-Shanks, both proven.
- ``_prime_support``: trial division by the same small primes, then
  Pollard's rho in Brent's form (Brent, BIT 20, 1980) on what is left,
  splitting each factor until ``_is_prime`` accepts it.  A factor it
  returns is always a divisor; only its running time is heuristic, about
  the fourth root of the input per split.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InvalidDescriptorError, ZeroElementError

__all__ = [
    "IMAGINARY_CLASS_NUMBER_ONE",
    "REAL_CLASS_NUMBER_ONE",
    "AdelicDivisor",
    "NumberField",
    "Place",
    "QuadElement",
    "absolute_value",
    "adelic_ball_volume",
    "ball_volume",
    "divisor",
    "make_field",
    "quadratic_field",
    "rational_field",
]

# Imaginary quadratic fields of class number one (complete list).
IMAGINARY_CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

# Real quadratic fields Q(sqrt{D}) of class number one for squarefree D < 50.
# Kept short and checkable rather than exhaustive; larger D are rejected.
REAL_CLASS_NUMBER_ONE = (2, 3, 5, 6, 7, 11, 13, 14, 17, 19, 21, 22, 23, 29,
                         31, 33, 37, 38, 41, 43, 46, 47)

Rational = Union[int, Fraction]

_DESCRIPTOR_RE = re.compile(r"^Q(?:\(sqrt\{(-?\d+)\}\))?$")


@dataclass(frozen=True)
class QuadElement:
    """Element a + b*w of a quadratic field in exact coordinates over the
    integral basis {1, w}."""

    a: Fraction
    b: Fraction

    def __repr__(self):
        return f"({self.a} + {self.b}*w)"


FieldElement = Union[Fraction, QuadElement]


@dataclass(frozen=True)
class Place:
    """A place of the base field.

    kind is "finite", "real" or "complex".  For finite places ``p`` is the
    residue characteristic and ``tag`` distinguishes the primes above p
    (split primes are tagged 0/1 by increasing Hensel root).  For real places
    ``tag`` is the embedding index; ``p`` is 0 at infinite places.
    """

    kind: str
    p: int = 0
    tag: int = 0

    def sort_key(self):
        order = {"finite": 0, "real": 1, "complex": 2}
        return (order[self.kind], self.p, self.tag)


@dataclass(frozen=True)
class NumberField:
    """The rational field or a quadratic field, with its invariants.

    ``discriminant`` is the absolute value; ``signed_discriminant`` keeps the
    sign for splitting computations.  ``omega_is_half`` records whether the
    integral basis is {1, (1+sqrt D)/2} (D = 1 mod 4) or {1, sqrt D}.
    """

    descriptor: str
    D: int | None
    degree: int
    real_places: int
    complex_places: int
    discriminant: int
    signed_discriminant: int
    omega_is_half: bool

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_rational(self) -> bool:
        return self.D is None

    def infinite_places(self) -> tuple[Place, ...]:
        real = tuple(Place("real", 0, i) for i in range(self.real_places))
        cplx = tuple(Place("complex", 0, i) for i in range(self.complex_places))
        return real + cplx

    def splitting(self, p: int) -> str:
        """Return "split", "inert" or "ramified" for the rational prime p;
        ValueError unless p is a prime int."""
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if self.is_rational():
            return "inert"
        disc = self.signed_discriminant
        if disc % p == 0:
            return "ramified"
        if p == 2:
            # disc odd here, i.e. D = 1 mod 4
            return "split" if self.D % 8 == 1 else "inert"
        # Euler's criterion
        return "split" if pow(disc, (p - 1) // 2, p) == 1 else "inert"

    @lru_cache(maxsize=None, typed=True)
    def primes_above(self, p: int) -> tuple[dict, ...]:
        """Primes above p as dicts with keys tag, e, f and (if split) root,
        cached on (field, p); ValueError unless p is a prime int."""
        kind = self.splitting(p)
        if self.is_rational():
            return ({"tag": 0, "e": 1, "f": 1},)
        if kind == "ramified":
            return ({"tag": 0, "e": 2, "f": 1},)
        if kind == "inert":
            return ({"tag": 0, "e": 1, "f": 2},)
        s, q = self.omega_minpoly()
        if p == 2:
            roots = [0, 1]  # t^2 - t + even splits as t(t-1) mod 2
        else:
            disc = (s * s - 4 * q) % p
            r = _sqrt_mod(disc, p)
            inv2 = pow(2, -1, p)
            roots = sorted({(s + r) * inv2 % p, (s - r) * inv2 % p})
        return tuple({"tag": i, "e": 1, "f": 1, "root": root}
                     for i, root in enumerate(roots))

    # ------------------------------------------------------------------
    # elements
    # ------------------------------------------------------------------
    def element(self, a: Rational, b: Rational = 0) -> FieldElement:
        a = Fraction(a)
        b = Fraction(b)
        if self.is_rational():
            if b != 0:
                raise ValueError("rational field elements have one coordinate")
            return a
        return QuadElement(a, b)

    def coerce(self, x) -> FieldElement:
        if isinstance(x, QuadElement):
            if self.is_rational():
                raise ValueError("quadratic element over the rational field")
            return x
        return self.element(Fraction(x))

    def is_zero(self, x) -> bool:
        x = self.coerce(x)
        if isinstance(x, QuadElement):
            return x.a == 0 and x.b == 0
        return x == 0

    def omega_minpoly(self) -> tuple[int, int]:
        """Coefficients (s, q) with w**2 = s*w - q."""
        if self.is_rational():
            raise ValueError("the rational field has no quadratic generator")
        if self.omega_is_half:
            return 1, (1 - self.D) // 4
        return 0, -self.D

    def add(self, x, y) -> FieldElement:
        x, y = self.coerce(x), self.coerce(y)
        if isinstance(x, QuadElement):
            return QuadElement(x.a + y.a, x.b + y.b)
        return x + y

    def sub(self, x, y) -> FieldElement:
        x, y = self.coerce(x), self.coerce(y)
        if isinstance(x, QuadElement):
            return QuadElement(x.a - y.a, x.b - y.b)
        return x - y

    def mul(self, x, y) -> FieldElement:
        x, y = self.coerce(x), self.coerce(y)
        if isinstance(x, QuadElement):
            s, q = self.omega_minpoly()
            # (a1 + b1 w)(a2 + b2 w) with w^2 = s w - q
            a = x.a * y.a - q * x.b * y.b
            b = x.a * y.b + x.b * y.a + s * x.b * y.b
            return QuadElement(a, b)
        return x * y

    def conj(self, x) -> FieldElement:
        """The nontrivial field automorphism (identity over Q)."""
        x = self.coerce(x)
        if isinstance(x, QuadElement):
            s, _ = self.omega_minpoly()
            # conj(w) = s - w
            return QuadElement(x.a + s * x.b, -x.b)
        return x

    def norm(self, x) -> Fraction:
        x = self.coerce(x)
        if isinstance(x, QuadElement):
            s, q = self.omega_minpoly()
            return x.a * x.a + s * x.a * x.b + q * x.b * x.b
        return x * x

    def trace(self, x) -> Fraction:
        x = self.coerce(x)
        if isinstance(x, QuadElement):
            s, _ = self.omega_minpoly()
            return 2 * x.a + s * x.b
        return 2 * x

    def divide(self, x, y) -> FieldElement:
        """Exact field division x / y."""
        x, y = self.coerce(x), self.coerce(y)
        if isinstance(x, QuadElement):
            n = self.norm(y)
            if n == 0:
                raise ZeroDivisionError("division by zero field element")
            z = self.mul(x, self.conj(y))
            return QuadElement(z.a / n, z.b / n)
        return x / y

    def omega_embeddings(self) -> tuple[complex, ...]:
        """Image of w at each infinite place, aligned with infinite_places()."""
        if self.is_rational():
            raise ValueError("the rational field has no quadratic generator")
        root = math.sqrt(abs(self.D))
        if self.D > 0:
            if self.omega_is_half:
                return ((1.0 + root) / 2.0, (1.0 - root) / 2.0)
            return (root, -root)
        if self.omega_is_half:
            return (complex(0.5, root / 2.0),)
        return (complex(0.0, root),)

    def embed(self, x, place_index: int = 0):
        """Embed a field element at the given infinite place (by index)."""
        x = self.coerce(x)
        if isinstance(x, QuadElement):
            w = self.omega_embeddings()[place_index]
            return float(x.a) + float(x.b) * w
        return float(x)

    def integral_basis(self) -> tuple[FieldElement, ...]:
        """Module basis of the ring of integers: (1,) or (1, w)."""
        if self.is_rational():
            return (Fraction(1),)
        return (self.element(1), self.element(0, 1))

    def fundamental_unit(self) -> FieldElement:
        """Fundamental unit of a real quadratic ring, normalized > 1.

        Found by scanning the w-coefficient upward: among units above 1 the
        coefficient of w grows strictly with the power, so the first b > 0
        admitting integral a with a^2 + s*a*b + q*b^2 = +-1 is fundamental.
        """
        if self.is_rational() or self.D < 0:
            raise ValueError("only real quadratic rings have one")
        s, q = self.omega_minpoly()
        b = 0
        while True:
            b += 1
            found = []
            for n in (1, -1):
                disc = s * s * b * b - 4 * (q * b * b - n)
                if disc < 0:
                    continue
                r = math.isqrt(disc)
                if r * r != disc or (r - s * b) % 2:
                    continue
                a = Fraction(-s * b + r, 2)
                u = self.element(a, b)
                if abs(self.embed(u, 0)) < 1:
                    u = self.element(-a - s * b, b)  # the conjugate-inverse
                if self.embed(u, 0) < 0:
                    u = self.element(-u.a, -u.b)
                found.append(u)
            if found:
                return min(found, key=lambda u: self.embed(u, 0))

    def torsion_units(self) -> tuple[FieldElement, ...]:
        """Roots of unity in the ring of integers."""
        if self.is_rational():
            return (Fraction(1), Fraction(-1))
        if self.D > 0:
            return (self.element(1), self.element(-1))
        units = []
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                if a == b == 0:
                    continue
                x = self.element(a, b)
                if self.norm(x) == 1:
                    units.append(x)
        return tuple(units)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def rational_field() -> NumberField:
    return NumberField(
        descriptor="Q", D=None, degree=1, real_places=1, complex_places=0,
        discriminant=1, signed_discriminant=1, omega_is_half=False,
    )


def quadratic_field(D: int) -> NumberField:
    """Quadratic field Q(sqrt{D}) for squarefree D from the allowlist."""
    if D in (0, 1):
        raise InvalidDescriptorError(f"D={D} does not define a quadratic field")
    allowed = IMAGINARY_CLASS_NUMBER_ONE if D < 0 else REAL_CLASS_NUMBER_ONE
    if D not in allowed:
        raise InvalidDescriptorError(
            f"D={D} is outside the class-number-one allowlist {allowed}")
    omega_is_half = D % 4 == 1
    signed_disc = D if omega_is_half else 4 * D
    return NumberField(
        descriptor=f"Q(sqrt{{{D}}})",
        D=D,
        degree=2,
        real_places=2 if D > 0 else 0,
        complex_places=0 if D > 0 else 1,
        discriminant=abs(signed_disc),
        signed_discriminant=signed_disc,
        omega_is_half=omega_is_half,
    )


def make_field(descriptor: str) -> NumberField:
    """Build a field from its descriptor string, "Q" or "Q(sqrt{D})"."""
    m = _DESCRIPTOR_RE.match(descriptor.strip())
    if not m:
        raise InvalidDescriptorError(
            f"malformed field descriptor {descriptor!r}; expected 'Q' or 'Q(sqrt{{D}}')'")
    if m.group(1) is None:
        return rational_field()
    return quadratic_field(int(m.group(1)))


# ----------------------------------------------------------------------
# rational primes
# ----------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the least strong pseudoprime to every base in _SMALL_PRIMES
_MR_BOUND = 3317044064679887385961981


def _as_int(n) -> int:
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"{n} is not an integer")


def _split_twos(m: int) -> tuple[int, int]:
    """(s, d) with m = 2^s d and d odd, for m > 0."""
    s = (m & -m).bit_length() - 1
    return s, m >> s


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: is the odd n > 2 a strong probable prime to
    base a?"""
    s, d = _split_twos(n - 1)
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D is the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.  For odd
    n > 2 with no prime factor below 43."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def half(x):
        return (x + n if x & 1 else x) // 2 % n

    s, d = _split_twos(n + 1)
    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n) -> bool:
    """Primality of the int n (see the module docstring for the rule and
    where it is proven); ValueError for anything else, bool included."""
    n = _as_int(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # and every base below is less than n
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _next_prime(n: int) -> int:
    """The least prime above the int n."""
    if n < 2:
        return 2
    n = n + 1 | 1
    while not _is_prime(n):
        n += 2
    return n


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, for a quadratic residue a
    prime to p (Tonelli-Shanks)."""
    s, q = _split_twos(p - 1)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # the least i with t^(2^i) = 1
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard's rho in Brent's
    form, x -> x^2 + c from x = 2, with c = 1, 2, ... until one splits)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_support(n: int) -> set[int]:
    """The primes dividing the nonzero int n."""
    n = abs(n)
    support = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            support.add(p)
            while n % p == 0:
                n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _is_prime(m):
            support.add(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return support


# ----------------------------------------------------------------------
# finite places
# ----------------------------------------------------------------------

def _lift_root(s: int, q: int, p: int, r0: int, K: int) -> int:
    """Hensel-lift a simple root of t^2 - s t + q from mod p to mod p**K."""
    r = r0 % p
    mod = p
    target = p ** K
    while mod < target:
        mod = min(mod * mod, target)
        deriv = (2 * r - s) % mod
        inv = pow(deriv, -1, mod)
        r = (r - (r * r - s * r + q) * inv) % mod
    return r


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _ord_integral(field: NumberField, p: int, tag: int, c: int, e: int) -> int:
    """ord at the tagged prime above p of the integral element c + e*w."""
    data = field.primes_above(p)[tag]
    norm = int(field.norm(field.element(c, e)))
    if norm == 0:
        raise ZeroElementError("zero element has no valuation")
    cap = _int_valuation(abs(norm), p)
    if cap == 0:
        return 0
    if data["e"] == 2:  # ramified
        return cap
    if data["f"] == 2:  # inert
        vc = cap if c == 0 else _int_valuation(c, p)
        ve = cap if e == 0 else _int_valuation(e, p)
        return min(vc, ve)
    # split
    s, q = field.omega_minpoly()
    K = cap + 1
    r = _lift_root(s, q, p, data["root"], K)
    val = (c + e * r) % (p ** K)
    if val == 0:
        return cap  # cannot exceed cap = v_p(norm)
    return min(_int_valuation(val, p), cap)


def _clear_denominators(field: NumberField, x: FieldElement) -> tuple[int, int, int]:
    """Write x = (c + e*w)/m with integers c, e, m > 0."""
    if isinstance(x, QuadElement):
        m = math.lcm(x.a.denominator, x.b.denominator)
        return int(x.a * m), int(x.b * m), m
    m = x.denominator
    return int(x * m), 0, m


def _finite_abs(field: NumberField, place: Place, x: FieldElement) -> Fraction:
    p, tag = place.p, place.tag
    c, e, m = _clear_denominators(field, x)
    vm = _int_valuation(m, p) if m % p == 0 else 0
    if field.is_rational():
        vc = _int_valuation(c, p) if c % p == 0 else 0
        return Fraction(p) ** (vm - vc)
    data = field.primes_above(p)[tag]
    ord_total = _ord_integral(field, p, tag, c, e) - data["e"] * vm
    return Fraction(p) ** (-data["f"] * ord_total)


# ----------------------------------------------------------------------
# absolute values and divisors
# ----------------------------------------------------------------------

def absolute_value(field: NumberField, place: Place, element) -> Union[Fraction, float]:
    """Normalized absolute value |x|_v.

    Finite places return exact rationals.  Real places return the usual
    absolute value (exact over Q); the complex place returns the squared
    modulus, which equals the field norm and is returned exactly.
    """
    x = field.coerce(element)
    if field.is_zero(x):
        raise ZeroElementError("the zero element has no absolute value data")
    if place.kind == "finite":
        return _finite_abs(field, place, x)
    if place.kind == "real":
        if field.is_rational():
            return abs(x)
        return abs(field.embed(x, place.tag))
    # complex place: squared modulus = field norm (nonnegative for D < 0)
    return field.norm(x)


def divisor(field: NumberField, element) -> "AdelicDivisor":
    """Adelic divisor of a nonzero field element: its absolute values at the
    finitely many places where they differ from 1."""
    x = field.coerce(element)
    if field.is_zero(x):
        raise ZeroElementError("the zero element has no divisor")
    entries = {}
    c, e, m = _clear_denominators(field, x)
    if field.is_rational():
        support = _prime_support(c) | _prime_support(m)
        for p in support:
            place = Place("finite", p, 0)
            v = _finite_abs(field, place, x)
            if v != 1:
                entries[place] = v
    else:
        norm_num = abs(int(field.norm(field.element(c, e))))
        support = _prime_support(norm_num) | _prime_support(m)
        for p in sorted(support):
            for data in field.primes_above(p):
                place = Place("finite", p, data["tag"])
                v = _finite_abs(field, place, x)
                if v != 1:
                    entries[place] = v
    for place in field.infinite_places():
        v = absolute_value(field, place, x)
        if v != 1:
            entries[place] = v
    items = tuple(sorted(entries.items(), key=lambda kv: kv[0].sort_key()))
    return AdelicDivisor(entries=items)


@dataclass(frozen=True)
class AdelicDivisor:
    """Finite-support map from places to absolute values (1 elsewhere)."""

    entries: tuple[tuple[Place, Union[Fraction, float]], ...]

    def support(self) -> tuple[Place, ...]:
        return tuple(p for p, _ in self.entries)

    def value(self, place: Place) -> Union[Fraction, float]:
        for p, v in self.entries:
            if p == place:
                return v
        return Fraction(1)

    def product(self) -> Union[Fraction, float]:
        """Product over all places; exact while every factor is rational."""
        exact = Fraction(1)
        rest = 1.0
        has_float = False
        for _, v in self.entries:
            if isinstance(v, Fraction):
                exact *= v
            else:
                rest *= v
                has_float = True
        return float(exact) * rest if has_float else exact


# ----------------------------------------------------------------------
# canonical volumes
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n via the two-step recursion."""
    if n <= 0:
        raise ValueError("dimension must be positive")
    if n == 1:
        return 2.0
    if n == 2:
        return math.pi
    return ball_volume(n - 2) * 2.0 * math.pi / n


def adelic_ball_volume(field: NumberField, n: int) -> float:
    """Canonical volume of the rank-n adelic unit-ball product: V_n per real
    place and 2^n V_2n per complex place (doubled Lebesgue measure)."""
    if n <= 0:
        raise ValueError("rank must be positive")
    r1, r2 = field.real_places, field.complex_places
    vol = ball_volume(n) ** r1
    if r2:
        vol *= (2.0 ** n * ball_volume(2 * n)) ** r2
    return vol
