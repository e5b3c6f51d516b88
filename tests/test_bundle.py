"""Metrized modules: constructors, invariants, functors, subbundles."""

import math
import random
from fractions import Fraction

import pytest

from arakelov.bundle import (
    degree,
    determinant,
    dual,
    make_bundle,
    qpair_leq,
    restrict_scalars,
    saturate_subbundle,
    scale,
    slope,
    tensor,
    trivial_bundle,
)
from arakelov.errors import (
    DependentGeneratorsError,
    FieldMismatchError,
    InvalidMetricError,
)
from arakelov.intlinalg import rat_det
from arakelov.numberfield import make_field
from tests.oracles import random_pd_fraction_gram

FIELDS = ["Q", "Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{5})"]


def random_hermitian_gram(rng, n):
    """H = B B^H for a Gaussian-integer matrix B, retried until invertible."""
    import numpy as np

    while True:
        B = np.array([[complex(rng.randint(-3, 3), rng.randint(-3, 3))
                       for _ in range(n)] for _ in range(n)])
        if abs(np.linalg.det(B)) > 0.5:
            break
    H = B @ B.conj().T
    return [[complex(H[i][j]) for j in range(n)] for i in range(n)]


def trace_value(view, z):
    """Value of the view's float trace form at the coordinate vector z."""
    n = view.zrank
    return sum(z[i] * view.trace_gram[i][j] * z[j]
               for i in range(n) for j in range(n))


def random_bundle(rng, field, n):
    grams = [random_pd_fraction_gram(rng, n)
             for _ in range(field.real_places)]
    grams += [random_hermitian_gram(rng, n)
              for _ in range(field.complex_places)]
    return make_bundle(field, grams)


def test_trivial_bundle_invariants():
    for name in FIELDS:
        K = make_field(name)
        for n in (1, 2, 3):
            E = trivial_bundle(K, n)
            assert E.rank == n
            assert abs(degree(E)) <= 1e-12
            assert abs(slope(E)) <= 1e-12


def test_degree_known_values():
    Q = make_field("Q")
    E = make_bundle(Q, [[4]])
    assert abs(degree(E) + math.log(2.0)) <= 1e-12
    Qi = make_field("Q(sqrt{-1})")
    F = make_bundle(Qi, [[9]])
    assert abs(degree(F) + math.log(9.0)) <= 1e-12
    # two real places contribute independently
    K = make_field("Q(sqrt{2})")
    G = make_bundle(K, [[[4]], [[9]]])
    assert abs(degree(G) + 0.5 * math.log(36.0)) <= 1e-12


def test_make_bundle_accepts_bare_matrix_for_single_place():
    Q = make_field("Q")
    assert make_bundle(Q, [[2, 0], [0, 2]]).rank == 2
    Qi = make_field("Q(sqrt{-1})")
    assert make_bundle(Qi, [[2, 1j], [-1j, 2]]).rank == 2


def leading_minors_positive(real_sym) -> bool:
    """Sylvester's criterion by one rat_det per leading minor."""
    return all(rat_det([row[:k] for row in real_sym[:k]]) > 0
               for k in range(1, len(real_sym) + 1))


def realified(H):
    """Real symmetric form [[Re, -Im], [Im, Re]] of a Hermitian matrix."""
    n = len(H)
    re = [[Fraction(H[i][j].real) for j in range(n)] for i in range(n)]
    im = [[Fraction(H[i][j].imag) for j in range(n)] for i in range(n)]
    return ([re[i] + [-x for x in im[i]] for i in range(n)]
            + [im[i] + re[i] for i in range(n)])


def accepts(field, gram) -> bool:
    try:
        make_bundle(field, gram)
    except InvalidMetricError:
        return False
    return True


def test_make_bundle_validation():
    Q = make_field("Q")
    K2 = make_field("Q(sqrt{2})")
    Qi = make_field("Q(sqrt{-1})")
    with pytest.raises(InvalidMetricError):
        make_bundle(K2, [[[1]]])  # needs two matrices
    with pytest.raises(InvalidMetricError):
        make_bundle(Q, [[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(InvalidMetricError):
        make_bundle(Q, [[1, 2], [2, 1]])  # not positive definite
    with pytest.raises(InvalidMetricError):
        make_bundle(Qi, [[1, 1j], [1j, 1]])  # not hermitian
    with pytest.raises(InvalidMetricError):
        make_bundle(Qi, [[1j]])  # diagonal must be real
    # positive definiteness agrees with Sylvester's criterion on minors
    rng = random.Random(59)
    symmetric = [
        [[1, 0], [0, 0]],  # singular, last minor zero
        [[2, 1, 1], [1, 2, 1], [1, 1, 1]],  # last leading minor zero
        [[1, 1, 0], [1, 1, 0], [0, 0, 5]],  # middle minor zero
        [[0, 1], [1, 3]],  # first minor zero
        [[1, 2], [2, 1]],  # indefinite
        [[-1, 0], [0, -1]],  # negative definite
    ]
    for _ in range(60):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:  # B^T D B with a random signature
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            D = [rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)]
            symmetric.append(
                [[sum(B[k][i] * D[k] * B[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)])
        else:
            M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            symmetric.append([[M[i][j] + M[j][i] + (2 if i == j else 0)
                               for j in range(n)] for i in range(n)])
    for G in symmetric:
        assert accepts(Q, G) == leading_minors_positive(
            [[Fraction(x) for x in row] for row in G]), G
    hermitian = [
        [[1, 1j], [-1j, 1]],  # singular, last minor zero
        [[1, 2j], [-2j, 1]],  # indefinite
        [[0, 1j], [-1j, 2]],  # first minor zero
        [[2, 1 + 1j, 0], [1 - 1j, 1, 0], [0, 0, 3]],  # middle minor zero
    ]
    for _ in range(40):
        n = rng.randint(1, 3)
        B = [[complex(rng.randint(-2, 2), rng.randint(-2, 2))
              for _ in range(n)] for _ in range(n)]
        D = [rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)]
        hermitian.append(
            [[sum(B[k][i].conjugate() * D[k] * B[k][j] for k in range(n))
              for j in range(n)] for i in range(n)])
    for H in hermitian:
        H = [[complex(x) for x in row] for row in H]
        assert accepts(Qi, H) == leading_minors_positive(realified(H)), H


def test_slope_additive_under_tensor():
    rng = random.Random(41)
    for name in FIELDS:
        K = make_field(name)
        for _ in range(8):
            E = random_bundle(rng, K, rng.randint(1, 2))
            F = random_bundle(rng, K, rng.randint(1, 2))
            T = tensor(E, F)
            assert T.rank == E.rank * F.rank
            assert abs(slope(T) - slope(E) - slope(F)) <= 1e-9


def test_tensor_rejects_field_mismatch():
    E = trivial_bundle(make_field("Q"), 1)
    F = trivial_bundle(make_field("Q(sqrt{5})"), 1)
    with pytest.raises(FieldMismatchError):
        tensor(E, F)


def test_determinant_and_dual_degrees():
    rng = random.Random(43)
    for name in FIELDS:
        K = make_field(name)
        for _ in range(8):
            E = random_bundle(rng, K, rng.randint(1, 3))
            d = degree(E)
            D = determinant(E)
            assert D.rank == 1
            assert abs(degree(D) - d) <= 1e-9
            assert abs(degree(dual(E)) + d) <= 1e-9
            # double dual restores the degree
            assert abs(degree(dual(dual(E))) - d) <= 1e-9


def test_scale_law():
    rng = random.Random(47)
    for name in FIELDS:
        K = make_field(name)
        d = K.degree
        for _ in range(6):
            n = rng.randint(1, 3)
            E = random_bundle(rng, K, n)
            t = math.exp(rng.uniform(-1.0, 1.0))
            drop = degree(E) - degree(scale(E, t))
            assert abs(drop - n * d * math.log(t)) <= 1e-9
    with pytest.raises(InvalidMetricError):
        scale(trivial_bundle(make_field("Q"), 1), 0.0)


def test_covolume_identity():
    rng = random.Random(53)
    for name in FIELDS:
        K = make_field(name)
        for _ in range(6):
            n = rng.randint(1, 2)
            E = random_bundle(rng, K, n)
            view = restrict_scalars(E)
            expected = K.discriminant ** (n / 2.0) * math.exp(-degree(E))
            assert view.covolume() == pytest.approx(expected, rel=1e-8)


def test_restrict_scalars_rational_is_identity_view():
    Q = make_field("Q")
    G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    view = restrict_scalars(make_bundle(Q, G))
    assert view.zrank == 2
    assert view.delta == 0
    assert view.place_values((1, 1)) == ((Fraction(7), Fraction(0)),)
    assert trace_value(view, (1, 1)) == pytest.approx(7.0)
    assert view.coords_to_module((1, -2)) == (Fraction(1), Fraction(-2))


def test_place_values_real_quadratic():
    K = make_field("Q(sqrt{2})")
    view = restrict_scalars(trivial_bundle(K, 1))
    assert view.delta == 2
    # 1 + sqrt(2) has |.|^2 = 3 + 2 sqrt(2) at one place, 3 - 2 sqrt(2) at
    # the conjugate place
    pair_plus, pair_minus = view.place_values((1, 1))
    assert pair_plus == (Fraction(3), Fraction(2))
    assert pair_minus == (Fraction(3), Fraction(-2))
    assert trace_value(view, (1, 1)) == pytest.approx(6.0)
    assert view.coords_to_module((1, 1)) == (K.element(1, 1),)
    assert view.values_leq((1, 1), [Fraction(6), Fraction(6)])
    assert not view.values_leq((1, 1), [Fraction(5), Fraction(6)])


def test_place_values_imaginary_quadratic():
    K = make_field("Q(sqrt{-1})")
    view = restrict_scalars(trivial_bundle(K, 1))
    # |a + b i|^2 = a^2 + b^2 exactly
    (pair,) = view.place_values((3, 4))
    assert pair == (Fraction(25), Fraction(0))
    assert view.values_leq((3, 4), [Fraction(25)])
    assert not view.values_leq((3, 4), [Fraction(24)])
    # complex place counts twice in the trace form
    assert trace_value(view, (3, 4)) == pytest.approx(50.0)


def test_qpair_comparisons():
    # 3 + 2 sqrt(2) = 5.828...
    assert qpair_leq((Fraction(3), Fraction(2)), Fraction(6), 2)
    assert not qpair_leq((Fraction(3), Fraction(2)), Fraction(29, 5), 2)
    assert qpair_leq((Fraction(3), Fraction(2)), Fraction(583, 100), 2)
    # 3 - 2 sqrt(2) = 0.171...
    assert qpair_leq((Fraction(3), Fraction(-2)), Fraction(1, 5), 2)
    assert not qpair_leq((Fraction(3), Fraction(-2)), Fraction(17, 100), 2)
    # rational pairs reduce to plain comparison
    assert qpair_leq((Fraction(5), Fraction(0)), Fraction(5), 3)
    assert not qpair_leq((Fraction(5), Fraction(0)), Fraction(4), 3)


def test_saturate_subbundle_rational():
    Q = make_field("Q")
    E = trivial_bundle(Q, 3)
    sub = saturate_subbundle(E, [(2, 4, 0)])
    assert sub.basis == ((Fraction(1), Fraction(2), Fraction(0)),)
    assert sub.bundle.rank == 1
    assert abs(degree(sub.bundle) + 0.5 * math.log(5.0)) <= 1e-12
    # fractional generators are cleared first
    sub2 = saturate_subbundle(E, [(Fraction(1, 2), 1, 0)])
    assert sub2.basis == sub.basis
    with pytest.raises(DependentGeneratorsError):
        saturate_subbundle(E, [(1, 0, 0), (2, 0, 0)])
    with pytest.raises(DependentGeneratorsError):
        saturate_subbundle(E, [])


def test_saturate_subbundle_gaussian():
    K = make_field("Q(sqrt{-1})")
    E = trivial_bundle(K, 2)
    one_plus_i = K.element(1, 1)
    sub = saturate_subbundle(E, [(one_plus_i, K.mul(one_plus_i, K.element(2)))])
    assert sub.bundle.rank == 1
    u = sub.basis[0][0]
    assert abs(K.norm(u)) == 1
    assert K.divide(sub.basis[0][1], u) == K.element(2)
    # |1|^2 + |2|^2 = 5 at the single complex place
    assert abs(degree(sub.bundle) + math.log(5.0)) <= 1e-12


def test_subbundle_slope_bounds_ambient_shortest():
    # a very short vector forces a subbundle of large slope
    Q = make_field("Q")
    E = make_bundle(Q, [[Fraction(1, 100), 0], [0, 100]])
    sub = saturate_subbundle(E, [(1, 0)])
    assert slope(sub.bundle) >= slope(E) + 1.0
