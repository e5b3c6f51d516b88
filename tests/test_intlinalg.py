"""Exact integer/rational linear algebra and quadratic-ring reduction."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from arakelov.bundle import make_bundle, tensor
from arakelov.errors import InvalidMetricError, UnsupportedFieldError
from arakelov.intlinalg import (
    NORM_EUCLIDEAN_D,
    QSurd,
    _definite_det,
    _scaled,
    det,
    hnf,
    hnf_with_transform,
    inverse,
    kernel_rows,
    ok_gcd,
    ok_kernel_rows,
    ok_saturation_rows,
    rank,
    rat_det,
    rat_inverse,
    right_kernel_rows,
    saturation_rows,
)
from arakelov.numberfield import make_field
from tests.oracles import (
    det_reference,
    inverse_reference,
    is_primitive_vector,
    ok_is_primitive_vector,
    positive_definite_reference,
    random_pd_fraction_gram,
    rank_reference,
    restrict_scalars_reference,
    sampler_bundles,
    trace_gram_reference,
)


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
    # the empty and the zero vectors are not primitive; signs do not matter
    assert not is_primitive_vector(())
    assert not is_primitive_vector((0,))
    assert is_primitive_vector((-1,))
    assert is_primitive_vector((0, 0, -1))
    assert is_primitive_vector((-6, 10, 15))
    assert not is_primitive_vector((-6, 0, 9))
    assert not is_primitive_vector((4, -6, -10))
    assert is_primitive_vector((Fraction(-3), Fraction(4)))


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
                q = K.divide(z, g)
                assert q.a.denominator == q.b.denominator == 1
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


# ---------------------------------------------------------------- Bareiss
# The fraction-free elimination against the textbook Fraction one.

def parts(x):
    """A field element as comparable exact parts: a Fraction, or the
    (a, b) pair of a + b sqrt(delta)."""
    if hasattr(x, "delta"):
        return Fraction(x.a), Fraction(x.b)
    return Fraction(x)


def parts_matrix(M):
    return None if M is None else [[parts(x) for x in row] for row in M]


def inverse_or_none(M):
    try:
        return inverse(M)
    except ZeroDivisionError:
        return None


def definite(M):
    """Sylvester's verdict as make_bundle reaches it: _definite_det on the
    primitive integer A of M = c A."""
    return _definite_det(_scaled(M)[0]) is not None


def assert_matches_reference(M):
    """rank and, for a square M, det, inverse and (when M is symmetric or
    Hermitian) the Sylvester verdict agree with the Fraction elimination."""
    m, n = len(M), len(M[0])
    assert rank(M, n) == rank_reference(M, n)
    if m != n:
        return
    assert parts(det(M)) == parts(det_reference(M))
    assert parts_matrix(inverse_or_none(M)) == \
        parts_matrix(inverse_reference(M))
    if all(parts(M[i][j]) == adjoint(M[j][i])
           for i in range(n) for j in range(n)):
        assert definite(M) == positive_definite_reference(M)


def adjoint(x):
    """parts of the complex conjugate of x; over Q and real quadratic
    fields, parts of x itself."""
    if hasattr(x, "delta") and x.delta < 0:
        return Fraction(x.a), -Fraction(x.b)
    return parts(x)


def test_bareiss_matches_reference_on_float_read_grams():
    # hecke_unimodular scales by the float p^(-2/n) and random_bundle by a
    # float t^2, so the exact Grams carry dyadic denominators above 2^64
    Q = make_field("Q")
    grams, dens = [], []
    bundles = list(sampler_bundles(Q, (3, 4, 5), 8, 41))
    for E in bundles:
        (g,) = E.gram_real
        grams.append(g)
        grams.append(
            trace_gram_reference(restrict_scalars_reference(E).place_forms))
    for E, F in zip(bundles, bundles[1:4]):
        grams.append(tensor(E, F).gram_real[0])
    for K in (make_field("Q(sqrt{5})"), make_field("Q(sqrt{2})")):
        for E in sampler_bundles(K, (2, 3), 3, 42):
            grams.extend(E.gram_real)
            grams.append(trace_gram_reference(
                restrict_scalars_reference(E).place_forms))
    for g in grams:
        dens.append(max(Fraction(x).denominator for row in g for x in row))
        M = [list(row) for row in g]
        assert_matches_reference(M)
        assert definite(M)
        # rat_det reads floats exactly, as the reference does
        assert rat_det(g) == det_reference(g)
    assert sum(d > 2 ** 64 for d in dens) >= len(dens) // 2


@pytest.mark.parametrize("descriptor", ["Q(sqrt{-1})", "Q(sqrt{-3})"])
def test_bareiss_matches_reference_on_hermitian_grams(descriptor):
    K = make_field(descriptor)
    for E in sampler_bundles(K, (2, 3, 4, 5), 8, 43):
        (g,) = E.gram_complex
        H = [[QSurd(a, b, -1) for a, b in zip(ra, rb)]
             for ra, rb in zip(*g)]
        assert_matches_reference(H)
        assert definite(H)
        d = det(H)
        assert d.b == 0 and d.a > 0  # a Hermitian determinant is real
        assert d.a == det_reference(H).a


def psd_singular(rng, n, k, delta=None):
    """V V^* for n rows of which row k - 1 lies in the span of the rows
    before it (the zero row when k = 1): the leading minors of size >= k
    are exactly 0 and the ones below it positive.  With delta = -1 the
    rows are Gaussian and the result is Hermitian."""
    def entry():
        if delta is None:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    while True:
        V = [[entry() for _ in range(n)] for _ in range(n)]
        coeffs = [rng.randint(-2, 2) for _ in range(k - 1)]
        if delta is None:
            V[k - 1] = [sum((c * v[j] for c, v in zip(coeffs, V)), Fraction(0))
                        for j in range(n)]
            G = matmul(V, [list(col) for col in zip(*V)])
            if rank_reference(G[:k - 1], n) == k - 1:
                return G
            continue
        V[k - 1] = [tuple(sum((c * v[j][t] for c, v in zip(coeffs, V)),
                              Fraction(0)) for t in (0, 1))
                    for j in range(n)]
        # H_ij = sum_t conj(V_it) V_jt
        H = [[QSurd(sum(V[i][t][0] * V[j][t][0] + V[i][t][1] * V[j][t][1]
                        for t in range(n)),
                    sum(V[i][t][0] * V[j][t][1] - V[i][t][1] * V[j][t][0]
                        for t in range(n)), -1)
              for j in range(n)] for i in range(n)]
        if rank_reference(H[:k - 1], n) == k - 1:
            return H


def test_bareiss_boundary_inputs():
    rng = random.Random(44)
    for n in range(1, 6):
        for k in range(1, n + 1):
            for delta in (None, -1):
                M = psd_singular(rng, n, k, delta)
                assert_matches_reference(M)
                assert not definite(M)
                assert parts(det(M)) in (0, (0, 0))
                assert rank(M, n) < n
    # indefinite: V D V^T with one negative entry in D
    for _ in range(40):
        n = rng.randint(1, 5)
        V = random_matrix(rng, n, n, 4)
        D = [rng.choice([1, 2, 3]) for _ in range(n)]
        D[rng.randrange(n)] = -rng.randint(1, 3)
        M = [[Fraction(sum(V[i][t] * D[t] * V[j][t] for t in range(n)), 4)
              for j in range(n)] for i in range(n)]
        assert_matches_reference(M)
        assert not definite(M)
    # rectangular, with dependent rows, over Q, Q(sqrt 5) and Q(sqrt -3)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        delta = rng.choice([None, 5, -3])

        def entry():
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if delta is None:
                return x
            return QSurd(x, Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                         delta)

        M = [[entry() for _ in range(n)] for _ in range(m)]
        for i in range(1, m):
            if rng.random() < 0.4:
                c = rng.randint(-3, 3)
                j = rng.randrange(i)
                M[i] = [x * c for x in M[j]]
        assert_matches_reference(M)
    # the rows of an upper triangular U shuffled: the elimination must swap
    # rows, and det = sign(shuffle) * prod(diag U)
    for _ in range(40):
        n = rng.randint(2, 5)
        U = [[Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
              if i == j else (Fraction(rng.randint(-3, 3)) if j > i else 0)
              for j in range(n)] for i in range(n)]
        order = list(range(n))
        while order == sorted(order):
            rng.shuffle(order)
        M = [U[i] for i in order]
        inversions = sum(a > b for i, a in enumerate(order)
                         for b in order[i + 1:])
        assert det(M) == (-1) ** inversions * math.prod(
            U[i][i] for i in range(n))
        assert_matches_reference(M)


def test_make_bundle_rejects_what_the_reference_rejects():
    rng = random.Random(45)
    Q, K = make_field("Q"), make_field("Q(sqrt{-1})")
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        kind = rng.choice(["pd", "singular", "indefinite", "hermitian"])
        if kind == "hermitian":
            H = psd_singular(rng, n, rng.randint(1, n), -1)
            if rng.random() < 0.5:  # shift to positive definite
                H = [[QSurd(x.a + (5 if i == j else 0), x.b, -1)
                      for j, x in enumerate(row)] for i, row in enumerate(H)]
            grams = [[complex(float(x.a), float(x.b)) for x in row]
                     for row in H]
            # the complex floats read back as the exact parts
            expected = positive_definite_reference(
                [[QSurd(Fraction(c.real), Fraction(c.imag), -1) for c in row]
                 for row in grams])
            field = K
        else:
            if kind == "pd":
                grams = random_pd_fraction_gram(rng, n)
            elif kind == "singular":
                grams = psd_singular(rng, n, rng.randint(1, n))
            else:
                V = random_matrix(rng, n, n, 3)
                grams = [[Fraction(sum(V[i][t] * V[j][t] * (-1 if t == 0 else 1)
                                       for t in range(n)), 3)
                          for j in range(n)] for i in range(n)]
            expected = positive_definite_reference(grams)
            field = Q
        try:
            make_bundle(field, grams)
            accepted = True
        except InvalidMetricError:
            accepted = False
        assert accepted == expected, (kind, grams)
        seen.add((field.descriptor, accepted))
    assert len(seen) == 4  # both verdicts over Q and over Q(i)
