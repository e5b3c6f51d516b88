import math
from fractions import Fraction

import pytest
import sympy

from arakelov.errors import InvalidDescriptorError
from arakelov.numberfield import (
    IMAGINARY_CLASS_NUMBER_ONE,
    REAL_CLASS_NUMBER_ONE,
    absolute_value,
    adelic_ball_volume,
    ball_volume,
    divisor,
    make_field,
)

from tests.oracles import BALL_VOLUME_TABLE, FUNDAMENTAL_UNIT_XY


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
        assert all(e == 1 for e in sympy.factorint(abs(D)).values())
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
