"""Exact integer/rational linear algebra and quadratic-ring reduction."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from arakelov.errors import UnsupportedFieldError
from arakelov.intlinalg import (
    NORM_EUCLIDEAN_D,
    QSurd,
    det,
    hnf,
    hnf_with_transform,
    inverse,
    is_primitive_vector,
    kernel_rows,
    ok_gcd,
    ok_kernel_rows,
    ok_saturation_rows,
    rank,
    rat_det,
    rat_inverse,
    rat_rank,
    right_kernel_rows,
    saturation_rows,
)
from arakelov.numberfield import make_field
from tests.oracles import ok_is_primitive_vector


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def random_unimodular(rng, m, steps=20):
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(steps):
        i, j = rng.sample(range(m), 2)
        q = rng.randint(-3, 3)
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col))
             for col in zip(*B)] for row in A]


def test_hnf_transform_identity():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        H, U = hnf_with_transform(A)
        assert matmul(U, A) == H
        assert abs(rat_det(U)) == 1


def test_hnf_shape():
    rng = random.Random(12)
    for _ in range(50):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        H = hnf(A)
        pivots = []
        for row in H:
            j = next(k for k, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(pivots)
        # entries above each pivot reduced into [0, pivot)
        for r, j in enumerate(pivots):
            for i in range(r):
                assert 0 <= H[i][j] < H[r][j]


def test_hnf_is_row_space_invariant():
    rng = random.Random(13)
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        A = random_matrix(rng, m, n)
        U = random_unimodular(rng, m)
        assert hnf(matmul(U, A)) == hnf(A)


def test_kernels():
    rng = random.Random(14)
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = random_matrix(rng, m, n, bound=4)
        for u in kernel_rows(A):
            assert all(x == 0 for row in matmul([u], A) for x in row)
        for v in right_kernel_rows(A, n):
            assert all(x == 0 for row in matmul(A, [[x] for x in v]) for x in row)
        # rank-nullity for the left kernel
        assert len(kernel_rows(A)) == m - len(hnf(A))


def test_kernel_is_saturated():
    A = [[2, 4], [1, 2], [3, 6]]
    ker = kernel_rows(A)
    assert hnf(ker, 3) == hnf(saturation_rows(ker, 3), 3)


def test_saturation_examples():
    assert saturation_rows([[2, 4]], 2) == [[1, 2]]
    assert saturation_rows([[2, 0], [0, 2]], 2) == [[1, 0], [0, 1]]
    assert saturation_rows([[6, 10, 0]], 3) == [[3, 5, 0]]


def test_saturation_contains_rows_with_trivial_quotient():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        A = random_matrix(rng, k, n, bound=6)
        S = saturation_rows(A, n)
        assert len(S) == len(hnf(A, n))
        # A's rows lie in the span of S over Q
        combined = hnf(S + A, n)
        assert combined == hnf(S, n)
        # saturating twice changes nothing
        assert saturation_rows(S, n) == S


def test_primitivity():
    assert is_primitive_vector([2, 3])
    assert not is_primitive_vector([2, 4])
    assert not is_primitive_vector([0, 0])


def test_rational_det_and_inverse():
    rng = random.Random(18)
    assert rat_det([[Fraction(1, 2), 0], [7, Fraction(3)]]) == Fraction(3, 2)
    assert rat_det([[1, 2], [2, 4]]) == 0
    for _ in range(30):
        n = rng.randint(1, 5)
        M = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]
        d = rat_det(M)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                rat_inverse(M)
            continue
        Minv = rat_inverse(M)
        I = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert matmul(M, Minv) == I
        assert rat_det(Minv) == 1 / d
    # the same elimination over Q, Q(i) and Q(sqrt 5) agrees with sympy
    for delta in (None, -1, 5):
        root = sympy.sqrt(delta) if delta else 0

        def to_sympy(x):
            if isinstance(x, QSurd):
                return to_sympy(x.a) + to_sympy(x.b) * root
            x = Fraction(x)
            return sympy.Rational(x.numerator, x.denominator)

        def same(x, y):
            return sympy.simplify(to_sympy(x) - y) == 0

        for _ in range(12):
            m = rng.randint(1, 4)
            n = m if rng.random() < 0.5 else rng.randint(1, 4)
            M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(m)]
            if delta:
                M = [[QSurd(x, Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            delta) for x in row] for row in M]
            if m > 1 and rng.random() < 0.3:
                M[-1] = [2 * x for x in M[0]]  # force a dependent row
            S = sympy.Matrix([[to_sympy(x) for x in row] for row in M])
            r = S.rank(simplify=True)
            assert rank([row[:] for row in M], n) == r
            if delta is None:
                assert rat_rank(M, n) == r
            if m != n:
                continue
            assert same(det([row[:] for row in M]), S.det())
            if r < n:
                with pytest.raises(ZeroDivisionError):
                    inverse([row[:] for row in M])
                continue
            Minv, Sinv = inverse([row[:] for row in M]), S.inv()
            assert all(same(Minv[i][j], Sinv[i, j])
                       for i in range(n) for j in range(n))


EUCLIDEAN_FIELDS = [f"Q(sqrt{{{D}}})" for D in (-11, -7, -3, -2, -1, 2, 3, 5, 13)]


@pytest.mark.parametrize("descriptor", EUCLIDEAN_FIELDS)
def test_euclidean_gcd(descriptor):
    K = make_field(descriptor)
    rng = random.Random(19)
    for _ in range(25):
        x = K.element(rng.randint(-9, 9), rng.randint(-9, 9))
        y = K.element(rng.randint(-9, 9), rng.randint(-9, 9))
        if K.is_zero(x) and K.is_zero(y):
            continue
        g = ok_gcd(K, x, y)
        assert not K.is_zero(g)
        for z in (x, y):
            if not K.is_zero(z):
                assert K.is_integral(K.divide(z, g))
        # the norm of a common divisor divides both element norms
        ng = abs(K.norm(g))
        for z in (x, y):
            if not K.is_zero(z):
                assert abs(K.norm(z)) % ng == 0


def test_non_euclidean_field_rejected():
    K = make_field("Q(sqrt{-19})")
    assert K.D not in NORM_EUCLIDEAN_D
    with pytest.raises(UnsupportedFieldError):
        ok_gcd(K, K.element(2), K.element(3))


def test_ring_primitivity():
    K = make_field("Q(sqrt{-1})")
    i = K.element(0, 1)
    one_plus_i = K.element(1, 1)
    assert ok_is_primitive_vector(K, [K.element(2), K.element(3)])
    assert ok_is_primitive_vector(K, [one_plus_i, K.element(1)])
    # both entries divisible by 1+i
    assert not ok_is_primitive_vector(K, [one_plus_i, K.element(2)])
    assert not ok_is_primitive_vector(K, [K.element(1, -1), one_plus_i])
    assert ok_is_primitive_vector(K, [i, K.element(0)])


def test_ring_kernel():
    K = make_field("Q(sqrt{-1})")
    rng = random.Random(20)
    for _ in range(20):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        A = [[K.element(rng.randint(-3, 3), rng.randint(-3, 3))
              for _ in range(n)] for _ in range(m)]
        ker = ok_kernel_rows(K, A, n)
        for u in ker:
            for j in range(n):
                acc = K.element(0)
                for i in range(m):
                    acc = K.add(acc, K.mul(u[i], A[i][j]))
                assert K.is_zero(acc)


def test_ring_saturation():
    K = make_field("Q(sqrt{-1})")
    one_plus_i = K.element(1, 1)
    row = [one_plus_i, K.mul(one_plus_i, K.element(2))]
    sat = ok_saturation_rows(K, [row], 2)
    assert len(sat) == 1
    # the saturated generator is (1, 2) up to a unit
    u = sat[0][0]
    assert abs(K.norm(u)) == 1
    ratio = K.divide(sat[0][1], u)
    assert ratio == K.element(2)
    # full-rank input saturates to the whole module
    full = ok_saturation_rows(K, [[K.element(2), K.element(0)],
                                  [K.element(0), one_plus_i]], 2)
    assert len(full) == 2
    det = K.sub(K.mul(full[0][0], full[1][1]), K.mul(full[0][1], full[1][0]))
    assert abs(K.norm(det)) == 1


def test_rational_saturation_via_ring_wrapper():
    K = make_field("Q")
    sat = ok_saturation_rows(K, [[2, 4]], 2)
    assert sat == [[Fraction(1), Fraction(2)]]


def test_gauss_integer_gcd_value():
    K = make_field("Q(sqrt{-1})")
    # gcd(1+i, 2) is 1+i up to a unit since 2 = -i (1+i)^2
    g = ok_gcd(K, K.element(1, 1), K.element(2))
    assert abs(K.norm(g)) == 2
    g2 = ok_gcd(K, K.element(0), K.element(3, 1))
    assert abs(K.norm(g2)) == 10
    assert math.gcd(10, 4) == 2
