import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import arakelov

from arakelov.errors import InvalidDescriptorError
from arakelov.numberfield import (
    IMAGINARY_CLASS_NUMBER_ONE,
    REAL_CLASS_NUMBER_ONE,
    Place,
    _is_prime,
    _next_prime,
    _prime_support,
    _sqrt_mod,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    absolute_value,
    adelic_ball_volume,
    ball_volume,
    divisor,
    make_field,
)

from tests.oracles import (
    BALL_VOLUME_TABLE,
    FUNDAMENTAL_UNIT_XY,
    STRONG_LUCAS_PSEUDOPRIMES,
    STRONG_PSEUDOPRIMES,
    prime_sieve,
    primes_above_reference,
)

ALL_FIELDS = ("Q",) + tuple(f"Q(sqrt{{{D}}})" for D in
                            IMAGINARY_CLASS_NUMBER_ONE + REAL_CLASS_NUMBER_ONE)

# is_prime's corpus beyond the sieve: Carmichael numbers, the strong
# pseudoprimes, two Mersenne primes above the Miller-Rabin range, and
# composites there
PRIME_CORPUS = {
    561: False, 41041: False,
    **{n: False for n in STRONG_PSEUDOPRIMES},
    2 ** 89 - 1: True, 2 ** 127 - 1: True,
    (2 ** 61 - 1) * (2 ** 89 - 1): False, (2 ** 89 - 1) ** 2: False,
}


def test_descriptor_parsing():
    assert make_field("Q").degree == 1
    assert make_field(" Q(sqrt{-1}) ").discriminant == 4
    assert make_field("Q(sqrt{-1})").signed_discriminant == -4
    assert make_field("Q(sqrt{5})").discriminant == 5
    assert make_field("Q(sqrt{2})").discriminant == 8
    for bad in ("Q(i)", "Q(sqrt(5))", "Q[sqrt{5}]", "sqrt{5}", ""):
        with pytest.raises(InvalidDescriptorError):
            make_field(bad)


def test_allowlist_enforced():
    for D in (-5, 10, 15, -23):
        with pytest.raises(InvalidDescriptorError):
            make_field(f"Q(sqrt{{{D}}})")
    for D in IMAGINARY_CLASS_NUMBER_ONE + REAL_CLASS_NUMBER_ONE:
        # squarefree, so the allowlist alone refuses D = 4 and D = 8
        assert all(D % (k * k) for k in range(2, math.isqrt(abs(D)) + 1))
        make_field(f"Q(sqrt{{{D}}})")
    with pytest.raises(InvalidDescriptorError):
        make_field("Q(sqrt{4})")  # not squarefree
    with pytest.raises(InvalidDescriptorError):
        make_field("Q(sqrt{1})")


def test_signature_and_places():
    Qi = make_field("Q(sqrt{-1})")
    assert (Qi.real_places, Qi.complex_places, Qi.degree) == (0, 1, 2)
    K5 = make_field("Q(sqrt{5})")
    assert (K5.real_places, K5.complex_places, K5.degree) == (2, 0, 2)
    Q = make_field("Q")
    assert (Q.real_places, Q.complex_places, Q.degree) == (1, 0, 1)


def test_element_arithmetic_and_norm():
    K = make_field("Q(sqrt{5})")
    w = K.element(0, 1)
    s, q = K.omega_minpoly()
    assert K.mul(w, w) == K.add(K.mul(K.element(s), w), K.element(-q))
    x = K.element(3, -2)
    y = K.element(Fraction(1, 2), 1)
    assert K.norm(K.mul(x, y)) == K.norm(x) * K.norm(y)
    assert K.trace(K.add(x, y)) == K.trace(x) + K.trace(y)
    assert K.mul(x, K.divide(y, x)) == y
    with pytest.raises(ZeroDivisionError):
        K.divide(y, K.element(0))


ARITHMETIC_FIELDS = ("Q", "Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})",
                     "Q(sqrt{5})", "Q(sqrt{46})")


def random_element(K, rng):
    coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
              for _ in range(K.degree)]
    return K.element(*coords)


@pytest.mark.parametrize("desc", ARITHMETIC_FIELDS)
def test_one_formula_arithmetic(desc):
    # integral bases {1, sqrt D} and {1, (1 + sqrt D)/2}, both signs of D,
    # and Q as the case b = 0
    K = make_field(desc)
    rng = random.Random(41)
    places = range(len(K.infinite_places()))
    for _ in range(200):
        x, y = random_element(K, rng), random_element(K, rng)
        if K.is_zero(y):
            continue
        if K.is_rational():
            plain = [(K.add(x, y), x + y), (K.sub(x, y), x - y),
                     (K.mul(x, y), x * y), (K.conj(x), x),
                     (K.norm(x), x * x), (K.trace(x), 2 * x),
                     (K.divide(x, y), x / y)]
            for got, want in plain:
                assert type(got) is Fraction and got == want, (x, y)
        conj = K.conj(x)
        assert K.coords(K.mul(x, conj)) == (K.norm(x), 0)[:K.degree]
        assert K.coords(K.add(x, conj)) == (K.trace(x), 0)[:K.degree]
        assert K.conj(conj) == x
        assert K.divide(K.mul(x, y), y) == x
        for i in places:
            want = K.embed(x, i) * K.embed(y, i)
            assert abs(K.embed(K.mul(x, y), i) - want) <= 1e-9 * max(
                1.0, abs(want)), (desc, x, y, i)


def test_embeddings_match_minpoly():
    for desc in ("Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{13})"):
        K = make_field(desc)
        s, q = K.omega_minpoly()
        for emb in K.omega_embeddings():
            assert abs(emb * emb - (s * emb - q)) < 1e-12


def test_integral_basis():
    Q = make_field("Q")
    assert Q.integral_basis() == (Fraction(1),)
    K = make_field("Q(sqrt{-7})")
    one, w = K.integral_basis()
    assert one == K.element(1) and w == K.element(0, 1)


def test_fundamental_units_against_table():
    for D, (x, y) in FUNDAMENTAL_UNIT_XY.items():
        K = make_field(f"Q(sqrt{{{D}}})")
        eps = K.fundamental_unit()
        expected = float(x) + float(y) * math.sqrt(D)
        assert abs(K.embed(eps, 0) - expected) < 1e-9, (D, eps)
        assert abs(K.norm(eps)) == 1
        assert eps.a.denominator == eps.b.denominator == 1
    with pytest.raises(ValueError):
        make_field("Q(sqrt{-1})").fundamental_unit()


def test_splitting_and_primes_above():
    Qi = make_field("Q(sqrt{-1})")
    assert Qi.splitting(5) == "split"
    assert Qi.splitting(3) == "inert"
    assert Qi.splitting(2) == "ramified"
    above = Qi.primes_above(5)
    assert len(above) == 2
    K5 = make_field("Q(sqrt{5})")
    assert K5.splitting(11) == "split"
    assert K5.splitting(2) == "inert"
    assert K5.splitting(5) == "ramified"


def test_splitting_refuses_what_is_not_a_prime_int():
    for desc in ("Q", "Q(sqrt{-1})", "Q(sqrt{5})"):
        K = make_field(desc)
        for bad in (0, 1, 4, 9, -3, 5.0, True):
            with pytest.raises(ValueError):
                K.splitting(bad)
            with pytest.raises(ValueError):
                K.primes_above(bad)


def test_primes_above_match_a_root_scan():
    primes = [p for p, prime in enumerate(prime_sieve(2000)) if prime]
    for desc in ALL_FIELDS:
        K = make_field(desc)
        for p in primes:
            assert K.primes_above(p) == primes_above_reference(K, p), (desc, p)


def test_is_prime_matches_a_sieve():
    sieve = prime_sieve(10 ** 5)
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if sieve[n]]
    assert not any(_is_prime(n) for n in range(-5, 0))
    assert [_next_prime(n) for n in range(-2, 10 ** 4)] == \
        [next(p for p in range(n + 1, 10 ** 5) if sieve[p])
         for n in range(-2, 10 ** 4)]


def test_is_prime_on_pseudoprimes_and_large_primes():
    for n, base in STRONG_PSEUDOPRIMES.items():
        # each passes every Miller-Rabin round up to its base
        assert all(_strong_probable_prime(n, a)
                   for a in range(2, base + 1) if _is_prime(a)), n
    for n, prime in PRIME_CORPUS.items():
        assert _is_prime(n) is prime, n
    for bad in (True, False, 5.0, "5", None):
        with pytest.raises(ValueError, match="is not an integer"):
            _is_prime(bad)


def test_strong_lucas_test_matches_the_pseudoprime_list():
    # odd n with no prime factor below 43, the test's domain
    sieve = prime_sieve(10 ** 5)
    passed = [n for n in range(43, 10 ** 5, 2)
              if all(n % p for p in range(3, 42, 2) if sieve[p])
              and _strong_lucas_probable_prime(n)]
    assert [n for n in passed if not sieve[n]] == list(STRONG_LUCAS_PSEUDOPRIMES)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    corpus = list(PRIME_CORPUS) + [rng.randrange(10 ** rng.randint(2, 40))
                                   for _ in range(500)]
    for n in corpus:
        assert _is_prime(n) == sympy.isprime(n), n


def test_sqrt_mod_matches_a_root_scan():
    for p in range(3, 2000, 2):
        if not _is_prime(p):
            continue
        roots = {}
        for r in range(1, p):
            roots.setdefault(r * r % p, set()).add(r)
        for a, rs in roots.items():
            assert _sqrt_mod(a, p) in rs, (a, p)
            assert _sqrt_mod(a + 3 * p, p) in rs, (a, p)


def test_prime_support_matches_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    corpus = [rng.randrange(1, 10 ** 24) for _ in range(40)]
    corpus += [100000000003 * 999999999989, 1000003 ** 2 * 1000033 ** 3,
               -2 ** 10 * 3 * 43 ** 2, 1]
    for n in corpus:
        assert _prime_support(n) == set(sympy.factorint(abs(n))), n


def test_import_loads_neither_sympy_nor_mpmath():
    src = str(Path(arakelov.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, arakelov; "
            "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_product_formula():
    for desc in ("Q", "Q(sqrt{-1})", "Q(sqrt{5})", "Q(sqrt{-3})"):
        K = make_field(desc)
        for x in (K.element(Fraction(3, 4)), K.element(7),
                  K.element(2, 1) if not K.is_rational() else K.element(5)):
            div = divisor(K, x)
            prod = 1.0
            for place in div.support():
                prod *= float(absolute_value(K, place, x))
            assert abs(prod - 1.0) < 1e-9, (desc, x)


def p_exponent(value, p):
    """k with value = p^k, for a Fraction that is a power of p."""
    n, d, k = value.numerator, value.denominator, 0
    while n % p == 0:
        n, k = n // p, k + 1
    while d % p == 0:
        d, k = d // p, k - 1
    assert n == d == 1, (value, p)
    return k


def test_rational_divisor_matches_factorint():
    sympy = pytest.importorskip("sympy")
    Q = make_field("Q")
    rng = random.Random(19)
    corpus = [Fraction(rng.randint(-10 ** 9, 10 ** 9) or 1,
                       rng.randint(1, 10 ** 6)) for _ in range(60)]
    corpus += [Fraction(2 ** 40, 3 ** 7), Fraction(-1), Fraction(1, 1024)]
    for x in corpus:
        want = {}
        for n, sign in ((x.numerator, 1), (x.denominator, -1)):
            for p, v in sympy.factorint(abs(n)).items():
                want[Place("finite", p, 0)] = Fraction(p) ** (-sign * v)
        div = divisor(Q, x)
        assert {place: v for place, v in div.entries
                if place.kind == "finite"} == want, x
        assert div.value(Place("real")) == abs(x)


def test_quadratic_divisor_sums_to_the_norm_valuation():
    # at each rational p, sum over the primes above p of f ord equals
    # v_p(N(x)): split, inert and ramified primes, and p = 2, all occur
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for desc in ("Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{5})"):
        K = make_field(desc)
        kinds, primes = set(), set()
        corpus = [K.element(p) for p in (2, 3, 5, 7, 11, 13)]
        corpus += [K.element(Fraction(rng.randint(-300, 300),
                                      rng.randint(1, 40)),
                             rng.randint(1, 300)) for _ in range(60)]
        for x in corpus:
            N = abs(K.norm(x))
            want = dict(sympy.factorint(N.numerator))
            for p, v in sympy.factorint(N.denominator).items():
                want[p] = want.get(p, 0) - v
            div = divisor(K, x)
            assert list(div.support()) == sorted(div.support(),
                                                 key=Place.sort_key)
            got = {}
            for place, value in div.entries:
                if place.kind == "finite":
                    # |x|_P = p^(-f ord_P x)
                    got[place.p] = got.get(place.p, 0) - p_exponent(value,
                                                                    place.p)
            assert got == {p: v for p, v in want.items() if v}, (desc, x)
            kinds |= {K.splitting(p) for p in got}
            primes |= set(got)
        assert kinds == {"split", "inert", "ramified"} and 2 in primes, desc


def test_divisor_of_a_large_rational_prime_is_quick():
    # Pollard's rho splits p^2 slowly; the divisor factors the content p of
    # the numerator apart from the norm of the rest, which is 1 over Q
    p = 100000000003
    Q, Qi = make_field("Q"), make_field("Q(sqrt{-1})")
    for K, x in ((Q, Fraction(p, 7)), (Qi, Fraction(p, 7)),
                 (Qi, Qi.element(p * 10 ** 12, p))):
        start = time.perf_counter()
        div = divisor(K, x)
        assert time.perf_counter() - start < 0.1, (K, x)
        assert p in {place.p for place in div.support()}


def test_ball_volumes():
    for n, v in BALL_VOLUME_TABLE.items():
        assert abs(ball_volume(n) - v) < 1e-12
    Q = make_field("Q")
    assert abs(adelic_ball_volume(Q, 3) - ball_volume(3)) < 1e-15
    Qi = make_field("Q(sqrt{-1})")
    # one complex place with doubled measure: 2^n V_{2n}
    assert abs(adelic_ball_volume(Qi, 2) - 4 * ball_volume(4)) < 1e-12
    K5 = make_field("Q(sqrt{5})")
    assert abs(adelic_ball_volume(K5, 2) - ball_volume(2) ** 2) < 1e-12
