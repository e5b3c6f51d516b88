"""Metrized modules: constructors, invariants, functors, subbundles."""

import dataclasses
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from arakelov import intlinalg
from arakelov.bundle import (
    ArakelovBundle,
    _restricted_bundle,
    degree,
    determinant,
    dual,
    make_bundle,
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
from arakelov.gramfile import format_gram_file
from arakelov.intlinalg import QSurd, rat_det
from arakelov.numberfield import make_field
from arakelov.sampler import RandomLatticeSpec
from arakelov.sampler import random_bundle as sampled_bundle
from tests.oracles import (
    complex_kron_reference,
    degree_reference,
    det_reference,
    hermitian_det_reference,
    hermitian_inverse_reference,
    inverse_reference,
    kron_reference,
    random_pd_fraction_gram,
    restrict_scalars_reference,
    restriction_deviations,
    sampler_bundles,
    trace_gram_reference,
)

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
    """Value of the float trace form of the reference view of the view's
    bundle at the coordinate vector z."""
    n = view.zrank
    gram = trace_gram_reference(
        restrict_scalars_reference(view.bundle).place_forms)
    return sum(z[i] * gram[i][j] * z[j] for i in range(n) for j in range(n))


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
    with pytest.raises(InvalidMetricError):  # sqrt(5) is not i
        make_bundle(Qi, [[2, QSurd(0, 1, 5)], [QSurd(0, -1, 5), 2]])
    with pytest.raises(InvalidMetricError):  # a surd at a real place
        make_bundle(Q, [[QSurd(2, 0, -1)]])
    with pytest.raises(InvalidMetricError):
        make_bundle(K2, [[[1]], [[QSurd(3, 1, 2)]]])
    # a bundle built field by field, or by dataclasses.replace, is checked
    # the same way, its rank included
    one = Fraction(1)
    I2 = ((one, 0), (0, one))
    E = make_bundle(Q, [[2, 1], [1, 3]])
    F = make_bundle(Qi, [[2, 1 + 1j], [1 - 1j, 3]])
    for build in (
            lambda: ArakelovBundle(Q, 3, (I2,), ()),
            lambda: ArakelovBundle(Q, 2, (((1, 2), (0, 5)),), ()),
            lambda: ArakelovBundle(Q, 2, (((1, 2), (2, 1)),), ()),
            lambda: ArakelovBundle(Q, 0, ((),), ()),
            lambda: ArakelovBundle(Q, 2, (), ()),
            lambda: ArakelovBundle(K2, 2, (I2,), ()),
            lambda: ArakelovBundle(Qi, 2, (I2,), ()),  # at a complex place
            lambda: ArakelovBundle(Qi, 2, (), ((I2, ((0, 1), (1, 0))),)),
            lambda: ArakelovBundle(Qi, 2, (), ((I2, ((0,),)),)),
            lambda: ArakelovBundle(Qi, 2, (), ((I2,),)),
            lambda: ArakelovBundle(Qi, 2, (), ((I2, ((0, 1j), (-1j, 0))),)),
            lambda: ArakelovBundle(Q, 1, (((math.inf,),),), ()),
            lambda: dataclasses.replace(E, rank=3),
            lambda: dataclasses.replace(E, gram_real=(((1, 2), (2, 1)),)),
            lambda: dataclasses.replace(F, gram_complex=((I2, I2),))):
        with pytest.raises(InvalidMetricError):
            build()
    G = ArakelovBundle(Qi, 2, (), ((I2, ((0, one / 2), (-one / 2, 0))),))
    assert G._dets == (Fraction(3, 4),)
    assert degree(G) == pytest.approx(-math.log(0.75), abs=1e-15)
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


def test_non_finite_values_are_refused():
    Q = make_field("Q")
    K5 = make_field("Q(sqrt{5})")
    Qi = make_field("Q(sqrt{-1})")
    inf, nan = math.inf, math.nan
    bad = [
        (Q, [[inf]]),
        (Q, [[-inf]]),
        (Q, [[nan]]),
        (Q, [[2, inf], [inf, 2]]),
        (K5, [[[1]], [[nan]]]),
        (Qi, [[complex(inf, 0)]]),
        (Qi, [[complex(nan, 0)]]),
        (Qi, [[2, complex(1, inf)], [complex(1, -inf), 2]]),
        (Qi, [[2, complex(0, nan)], [complex(0, nan), 2]]),
        (Qi, [[inf]]),
    ]
    for field, gram in bad:
        with pytest.raises(InvalidMetricError):
            make_bundle(field, gram)
    for field in (Q, K5, Qi):
        E = trivial_bundle(field, 2)
        for t in (inf, nan, -inf, -1.0, 0.0):
            with pytest.raises(InvalidMetricError):
                scale(E, t)


def assert_content_matches_fields(E):
    """E's content form (c, [A_v]) has c > 0 and int matrices A_v with no
    common factor, c A_v is the stored Gram entry by entry, and E's place
    determinants are the stored Grams' determinants, exactly."""
    c, forms = E._content
    ints = [y for m in forms for row in m for x in row
            for y in ((x.a, x.b) if isinstance(x, QSurd) else (x,))]
    assert c > 0 and all(type(y) is int for y in ints)
    assert math.gcd(*ints) == 1
    r1 = E.field.real_places
    for m, g in zip(forms[:r1], E.gram_real):
        assert [[c * x for x in row] for row in m] == [list(r) for r in g]
    for m, (re, im) in zip(forms[r1:], E.gram_complex):
        assert [[c * x.a for x in row] for row in m] == [list(r) for r in re]
        assert [[c * x.b for x in row] for row in m] == [list(r) for r in im]
    assert E._dets == tuple(
        [det_reference(g) for g in E.gram_real]
        + [hermitian_det_reference(g) for g in E.gram_complex])


def exact_content(E):
    """E's content c, its matrices A_v with a QSurd entry as its (a, b)
    parts, and its place determinants."""
    c, forms = E._content
    return c, [[[(x.a, x.b) if isinstance(x, QSurd) else x for x in row]
                for row in m] for m in forms], E._dets


def exact_forms(view):
    """(kind, delta, scale A, scale B) with exact rational entries for each
    place form of a view and then its trace form; B is None over Q."""
    def times(M, s):
        return None if M is None else tuple(tuple(s * x for x in row)
                                            for row in M)
    return [(f.kind, f.delta, times(f.A, f.scale), times(f.B, f.scale))
            for f in (*view.place_forms, view.trace_form)]


def reference_forms(ref):
    """exact_forms for a view that restrict_scalars_reference built."""
    return [(f.kind, f.delta, f.A, f.B)
            for f in (*ref.place_forms, ref.trace_form)]


def assert_matches_reference(view):
    """The view's forms have int matrices and a positive scale, and their
    exact entries are those of restrict_scalars_reference."""
    ref = restrict_scalars_reference(view.bundle)
    assert view.zrank == ref.zrank
    for f in (*view.place_forms, view.trace_form):
        assert f.scale > 0
        assert all(type(x) is int for M in (f.A, f.B) if M is not None
                   for row in M for x in row)
    assert exact_forms(view) == reference_forms(ref)


def assert_form_matches_fields(E):
    """The content form and place determinants match the stored Grams, the
    place forms of restrict_scalars(E) match the reference built from the
    stored Grams, and a copy built field by field derives the same
    forms."""
    assert_content_matches_fields(E)
    view = restrict_scalars(E)
    assert len(view.place_forms) == len(E.field.infinite_places())
    assert_matches_reference(view)
    copy = ArakelovBundle(E.field, E.rank, E.gram_real, E.gram_complex)
    assert exact_content(copy) == exact_content(E)
    assert exact_forms(restrict_scalars(copy)) == exact_forms(view)


def typed_grams(field, kind):
    """One Gram per place of field with entries of the given kind; the
    kinds complex and QSurd apply to complex places only."""
    G = [[3, 1, 0], [1, 2, 1], [0, 1, 4]]
    H = [[3, 1 + 1j, 0], [1 - 1j, 2, 1j], [0, -1j, 4]]
    convert = {"int": int, "float": lambda x: x / 3.0,
               "Fraction": lambda x: Fraction(x, 7)}
    if kind in convert:
        real = [[convert[kind](x) for x in row] for row in G]
        return [real] * len(field.infinite_places())
    if not field.complex_places:
        return None
    if kind == "complex":
        return [[[x / 3.0 for x in row] for row in H]]
    return [[[QSurd(Fraction(int(x.real), 5), Fraction(int(x.imag), 5), -1)
              for x in map(complex, row)] for row in H]]


def unread_functor_outputs(E, F):
    """Bundles the functors build from E and F, checked to hold their
    place determinants and to build no Gram field for a degree or a
    restriction of scalars."""
    outputs = [tensor(E, E), tensor(E, F), scale(E, 2.0), scale(E, 0.37),
               dual(E), determinant(E)]
    for X in outputs:
        assert "_dets" in X.__dict__
        degree(X)
        restrict_scalars(X)
        assert "gram_real" not in X.__dict__
        assert "gram_complex" not in X.__dict__
    return outputs


@pytest.mark.parametrize("descriptor", FIELDS)
def test_integer_form_matches_stored_grams(descriptor):
    # make_bundle, tensor, scale, dual, determinant and _restricted_bundle:
    # content form, carried determinants and restricted place forms against
    # the stored Grams
    K = make_field(descriptor)
    bundles = [trivial_bundle(K, n) for n in (1, 2, 3)]
    for kind in ("int", "float", "Fraction", "complex", "QSurd"):
        grams = typed_grams(K, kind)
        if grams is not None:
            bundles.append(make_bundle(K, grams))
    if K.complex_places:
        # (1 + i)/2 (x) (1 + i)/2 = i/2: the product's den is 2, not 4
        half = Fraction(1, 2)
        bundles.append(make_bundle(K, [[1, QSurd(half, half, -1)],
                                       [QSurd(half, -half, -1), 1]]))
    else:
        # a scale by t = 2 clears the 4 in 1/4
        bundles.append(make_bundle(K, [[[Fraction(1, 4)]]] * K.real_places))
    bundles += sampler_bundles(K, (2, 3), 4, 61)
    derived = []
    for E, F in zip(bundles, bundles[1:] + bundles[:1]):
        derived += unread_functor_outputs(E, F)
        if E.rank >= 2:
            v = ([1, 2] if K.is_rational()
                 else [K.element(1, 1), K.element(0, 2)]) + [0] * (E.rank - 2)
            derived.append(saturate_subbundle(E, [v]).bundle)
            w = K.element(1) if K.is_rational() else K.element(1, -1)
            basis = [[K.element(3), w] + [K.element(0)] * (E.rank - 2)]
            derived.append(_restricted_bundle(E, basis))
    for E in bundles + derived:
        assert_form_matches_fields(E)


@pytest.mark.parametrize("descriptor", ["Q(sqrt{-1})", "Q(sqrt{2})"])
def test_tensor_of_primitive_forms_can_have_content(descriptor):
    # Over Q the Kronecker product of primitive forms is primitive; over
    # Gaussian integers (1 + i)^2 = 2i, and across two places contents
    # 2, 1 and 1, 2 multiply to 2, 2.  tensor divides that content out.
    K = make_field(descriptor)
    if K.complex_places:
        h = Fraction(1, 2)
        E = F = make_bundle(K, [[1, QSurd(h, h, -1)], [QSurd(h, -h, -1), 1]])
    else:
        two, one = [[2, 0], [0, 2]], [[1, 0], [0, 1]]
        E, F = make_bundle(K, [two, one]), make_bundle(K, [one, two])
    (cE, fE), (cF, fF) = E._content, F._content
    kron = [y for a, b in zip(fE, fF) for row in kron_reference(a, b)
            for x in row for y in ((x.a, x.b) if isinstance(x, QSurd)
                                   else (x,))]
    assert math.gcd(*kron) == 2
    T = tensor(E, F)
    assert T._content[0] == 2 * cE * cF
    assert_form_matches_fields(T)


def lazy_builders(K):
    """Zero-argument builders of bundles that hold no Gram field yet: one
    per functor and sampler path."""
    E = make_bundle(K, typed_grams(K, "Fraction"))
    draws = list(sampler_bundles(K, (2, 3), 2, 41))
    v = ([1, 2, 0] if K.is_rational()
         else [K.element(1, 1), K.element(0, 2), K.element(0)])
    return [
        lambda: make_bundle(K, typed_grams(K, "Fraction")),
        lambda: tensor(E, draws[0]),
        lambda: scale(draws[1], 0.61),
        lambda: dual(E),
        lambda: determinant(E),
        lambda: saturate_subbundle(E, [v]).bundle,
        lambda: next(sampler_bundles(K, (3,), 1, 43)),
    ]


@pytest.mark.parametrize("descriptor", FIELDS)
def test_lazy_bundle_matches_eager(descriptor):
    # a bundle whose Gram fields are derived on first read equals one built
    # field by field, by ==, hash, repr, a pickle round trip,
    # dataclasses.replace and its Gram file text
    K = make_field(descriptor)
    for build in lazy_builders(K):
        E = build()
        assert "gram_real" not in E.__dict__
        restored = pickle.loads(pickle.dumps(E))
        assert "gram_real" not in restored.__dict__
        eager = ArakelovBundle(K, E.rank, E.gram_real, E.gram_complex)
        text = format_gram_file(eager)
        for X in (E, restored, build(), dataclasses.replace(build()),
                  pickle.loads(pickle.dumps(eager))):
            assert X == eager and eager == X
            assert hash(X) == hash(eager)
            assert repr(X) == repr(eager)
            assert format_gram_file(X) == text
            assert degree(X) == degree(eager)


def test_make_bundle_then_degree_eliminates_once_per_place(monkeypatch):
    # make_bundle's Sylvester check gives each place determinant; degree,
    # and the degrees of scales and tensor products, eliminate nothing more
    calls = []
    eliminate = intlinalg._bareiss

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "_bareiss", counted)
    for descriptor in FIELDS:
        K = make_field(descriptor)
        grams = typed_grams(K, "int")
        calls.clear()
        E = make_bundle(K, grams)
        for X in (E, scale(E, 0.3), tensor(E, E)):
            degree(X)
        assert calls == [3] * len(K.infinite_places())


def frozen(m):
    return tuple(tuple(row) for row in m)


@pytest.mark.parametrize("descriptor",
                         ["Q", "Q(sqrt{5})", "Q(sqrt{-1})", "Q(sqrt{-3})"])
def test_functors_match_pair_form_references(descriptor):
    # tensor, dual, determinant, scale and degree against the (re, im)
    # formulas, entry by entry and exactly
    K = make_field(descriptor)
    rng = random.Random(53)
    bundles = list(sampler_bundles(K, (2, 3), 8, 53))
    for E, F in zip(bundles, bundles[1:] + bundles[:1]):
        T = tensor(E, F)
        assert T.gram_real == tuple(
            frozen(kron_reference(a, b))
            for a, b in zip(E.gram_real, F.gram_real))
        assert T.gram_complex == tuple(
            tuple(map(frozen, complex_kron_reference(a, b)))
            for a, b in zip(E.gram_complex, F.gram_complex))
        V = dual(E)
        assert V.gram_real == tuple(frozen(inverse_reference(g))
                                    for g in E.gram_real)
        assert V.gram_complex == tuple(
            tuple(map(frozen, hermitian_inverse_reference(g)))
            for g in E.gram_complex)
        D = determinant(E)
        assert D.gram_real == tuple(((det_reference(g),),)
                                    for g in E.gram_real)
        assert D.gram_complex == tuple(
            (((hermitian_det_reference(g),),), ((Fraction(0),),))
            for g in E.gram_complex)
        t = math.exp(rng.uniform(-1.0, 1.0))
        c = Fraction(t) ** 2
        S = scale(E, t)
        assert S.gram_real == tuple(frozen([[c * x for x in row]
                                            for row in g])
                                    for g in E.gram_real)
        assert S.gram_complex == tuple(
            tuple(frozen([[c * x for x in row] for row in part])
                  for part in g)
            for g in E.gram_complex)
        for X in (E, T, V, D, S):
            assert degree(X) == degree_reference(X)


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


@pytest.mark.parametrize("descriptor", ["Q", "Q(sqrt{2})", "Q(sqrt{5})",
                                        "Q(sqrt{-1})", "Q(sqrt{-3})",
                                        "Q(sqrt{-7})"])
def test_restrict_scalars_matches_reference(descriptor):
    # G (x) T per place against the entry-by-entry index loops, exact
    # entries scale A and scale B, for ranks 1-4 and tensor products
    K = make_field(descriptor)
    rng = random.Random(67)
    bundles = [random_bundle(rng, K, 1), *sampler_bundles(K, (2, 3, 4), 6, 67)]
    bundles += [tensor(E, F) for E, F in zip(bundles, bundles[1:4])]
    assert {E.rank for E in bundles} >= {1, 2, 3, 4}
    for E in bundles:
        assert_matches_reference(restrict_scalars(E))


@pytest.mark.parametrize("descriptor", FIELDS)
def test_restricted_forms_keep_the_scale_apart(descriptor):
    # scaling by t leaves every restricted integer matrix as it is and
    # multiplies the forms' scale by t^2 exactly
    K = make_field(descriptor)
    bundles = [make_bundle(K, typed_grams(K, "Fraction")),
               *sampler_bundles(K, (2, 3), 2, 73)]
    for E in bundles:
        view = restrict_scalars(E)
        for t in (0.37, 2.0, 1e-3, math.pi, 12345.678):
            scaled = restrict_scalars(scale(E, t))
            t2 = Fraction(t) ** 2
            for f, g in zip((*view.place_forms, view.trace_form),
                            (*scaled.place_forms, scaled.trace_form)):
                assert (g.A, g.B) == (f.A, f.B)
                assert g.scale == t2 * f.scale
            assert_matches_reference(scaled)


def test_restrict_scalars_rational_is_identity_view():
    Q = make_field("Q")
    G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    view = restrict_scalars(make_bundle(Q, G))
    assert view.zrank == 2
    assert view.trace_form.delta == 0
    assert [(v.a, v.b) for v in view.place_values((1, 1))] == [(7, 0)]
    assert trace_value(view, (1, 1)) == pytest.approx(7.0)
    assert view.coords_to_module((1, -2)) == (Fraction(1), Fraction(-2))


def test_place_values_real_quadratic():
    K = make_field("Q(sqrt{2})")
    view = restrict_scalars(trivial_bundle(K, 1))
    assert view.trace_form.delta == 2
    # 1 + sqrt(2) has |.|^2 = 3 + 2 sqrt(2) at one place, 3 - 2 sqrt(2) at
    # the conjugate place
    plus, minus = view.place_values((1, 1))
    assert (plus.a, plus.b) == (Fraction(3), Fraction(2))
    assert (minus.a, minus.b) == (Fraction(3), Fraction(-2))
    assert trace_value(view, (1, 1)) == pytest.approx(6.0)
    assert view.coords_to_module((1, 1)) == (K.element(1, 1),)
    assert view.values_leq((1, 1), [Fraction(6), Fraction(6)])
    assert not view.values_leq((1, 1), [Fraction(5), Fraction(6)])


def test_place_values_imaginary_quadratic():
    K = make_field("Q(sqrt{-1})")
    view = restrict_scalars(trivial_bundle(K, 1))
    # |a + b i|^2 = a^2 + b^2 exactly
    (value,) = view.place_values((3, 4))
    assert (value.a, value.b) == (Fraction(25), Fraction(0))
    assert view.values_leq((3, 4), [Fraction(25)])
    assert not view.values_leq((3, 4), [Fraction(24)])
    # complex place counts twice in the trace form
    assert trace_value(view, (3, 4)) == pytest.approx(50.0)


def test_qsurd_comparisons():
    # 3 + 2 sqrt(2) = 5.828...
    assert QSurd(Fraction(3), Fraction(2), 2) <= Fraction(6)
    assert not QSurd(Fraction(3), Fraction(2), 2) <= Fraction(29, 5)
    assert QSurd(Fraction(3), Fraction(2), 2) <= Fraction(583, 100)
    # 3 - 2 sqrt(2) = 0.171...
    assert QSurd(Fraction(3), Fraction(-2), 2) <= Fraction(1, 5)
    assert not QSurd(Fraction(3), Fraction(-2), 2) <= Fraction(17, 100)
    # rational values reduce to plain comparison
    assert QSurd(Fraction(5), Fraction(0), 3) <= Fraction(5)
    assert not QSurd(Fraction(5), Fraction(0), 3) <= Fraction(4)
    # a + b i with b != 0 is not ordered
    with pytest.raises(TypeError):
        QSurd(Fraction(5), Fraction(1), -1) <= Fraction(9)


def fraction_place_values(E, z):
    """(a, b) with a + b sqrt(|D|) the exact value of each place's norm form
    at the restricted-scalars coordinates z, from the Grams and the basis
    (1, w), w = s/2 + y0 sqrt(D), in plain Fraction arithmetic."""
    K, n = E.field, E.rank
    if K.is_rational():
        G = E.gram_real[0]
        return [(sum(z[i] * G[i][j] * z[j]
                     for i in range(n) for j in range(n)), 0)]
    delta = abs(K.D)
    s, _ = K.omega_minpoly()
    y0 = Fraction(1, 2) if K.omega_is_half else Fraction(1)
    # the i-th coordinate x + y w is p_i + q_i sqrt(D)
    p = [z[2 * i] + Fraction(s, 2) * z[2 * i + 1] for i in range(n)]
    q = [y0 * z[2 * i + 1] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    rational = [p[i] * p[j] + delta * q[i] * q[j] for i, j in pairs]
    if K.D > 0:
        mixed = [p[i] * q[j] + q[i] * p[j] for i, j in pairs]
        return [(sum(G[i][j] * r for (i, j), r in zip(pairs, rational)),
                 sign * sum(G[i][j] * m for (i, j), m in zip(pairs, mixed)))
                for sign, G in zip((1, -1), E.gram_real)]
    # real part of conj(v_i) (R + i I)_ij v_j
    R, I = E.gram_complex[0]
    mixed = [p[i] * q[j] - q[i] * p[j] for i, j in pairs]
    return [(sum(R[i][j] * r for (i, j), r in zip(pairs, rational)),
             -sum(I[i][j] * m for (i, j), m in zip(pairs, mixed)))]


def test_place_values_match_fraction_oracle():
    # Grams drawn from floats: their denominators exceed 2^64.
    rng = random.Random(71)
    huge = Fraction(10 ** 40)
    for name in FIELDS:
        K = make_field(name)
        for seed in range(3):
            spec = RandomLatticeSpec(n=2, p=10007, seed=seed, field=K)
            E = sampled_bundle(K, 2, rng.uniform(-1.0, 1.0), spec)
            view = restrict_scalars(E)
            delta = view.trace_form.delta
            root = math.isqrt(delta)
            for _ in range(12):
                z = [rng.randint(-4, 4) for _ in range(view.zrank)]
                if not any(z):
                    continue
                expected = fraction_place_values(E, z)
                values = view.place_values(z)
                assert [(v.a, v.b) for v in values] == expected
                for k, (a, b) in enumerate(expected):
                    if b == 0 or root * root == delta:
                        # rational value: the cap equal to it is accepted,
                        # the next rational below it is rejected
                        exact = a + b * root
                        below = exact - Fraction(1, exact.denominator
                                                 * 2 ** 64)
                    else:
                        # irrational value: adjacent doubles around it
                        with localcontext() as ctx:
                            ctx.prec = 100
                            x = Decimal(a.numerator) / a.denominator + (
                                Decimal(b.numerator) / b.denominator
                                * Decimal(delta).sqrt())
                        f = float(x)
                        lo, hi = ((f, math.nextafter(f, math.inf))
                                  if Decimal(f) < x
                                  else (math.nextafter(f, -math.inf), f))
                        exact, below = Fraction(hi), Fraction(lo)
                    assert float(values[k]) == pytest.approx(float(exact),
                                                             rel=1e-12)
                    caps = [huge] * len(values)
                    caps[k] = exact
                    assert view.values_leq(z, caps)
                    caps[k] = below
                    assert not view.values_leq(z, caps)


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


@pytest.mark.parametrize("descriptor", ["Q(sqrt{-1})", "Q(sqrt{5})"])
def test_saturate_subbundle_quadratic_generators(descriptor):
    K = make_field(descriptor)
    E = trivial_bundle(K, 3)
    w = K.element(0, 1)
    v = (K.element(1, 2), K.element(0), K.element(-3, 1))
    with pytest.raises(DependentGeneratorsError):
        saturate_subbundle(E, [v, tuple(K.mul(w, x) for x in v)])
    with pytest.raises(DependentGeneratorsError):
        saturate_subbundle(E, [])
    # a generator of the wrong length is refused, not truncated or padded
    for bad in (v[:2], (*v, K.element(1))):
        with pytest.raises(ValueError):
            saturate_subbundle(E, [bad])
    # fractional coordinates are cleared first
    frac = tuple(K.divide(x, K.element(6)) for x in v)
    assert saturate_subbundle(E, [frac]).basis == \
        saturate_subbundle(E, [v]).basis


def place_value_floats(view, b):
    """The squared norm of the module vector b at each place, from the
    exact restricted-scalars forms, rounded once (float(QSurd) would
    cancel catastrophically at a conjugate real place)."""
    z = [int(c) for x in b for c in (x.a, x.b)]
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        return [float(dec(q.a) + dec(q.b) * Decimal(q.delta).sqrt())
                for q in view.place_values(z)]


@pytest.mark.parametrize("descriptor", ["Q(sqrt{5})", "Q(sqrt{-3})"])
def test_saturate_subbundle_quadratic_degree_is_exact(descriptor):
    # The restricted metric conj(e) G e^T is taken in floats, e the
    # saturated basis vector embedded at each place.  Each place adds a
    # relative error of at most (2n + 4) eps s|G|s / value, with
    # s_a = |a| + |b| |w| for e_a = a + b w; saturated bases are not
    # reduced, so at a conjugate real place that can exceed 1e-12.
    K = make_field(descriptor)
    rng = random.Random(59)
    places = K.infinite_places()
    eps = 2.0 ** -52
    for E in sampler_bundles(K, (2, 3), 12, 59):
        v = [K.element(rng.randint(-3, 3), rng.randint(-3, 3))
             for _ in range(E.rank)]
        if all(K.is_zero(x) for x in v):
            continue
        sub = saturate_subbundle(E, [v])
        assert sub.bundle.rank == 1
        b = sub.basis[0]
        values = place_value_floats(restrict_scalars(E), b)
        expected, bound = 0.0, 1e-12
        grams = [[[abs(float(x)) for x in row] for row in g]
                 for g in E.gram_real]
        grams += [[[abs(complex(float(x), float(y))) for x, y in zip(*rows)]
                   for rows in zip(*g)] for g in E.gram_complex]
        for p, w, G, value in zip(places, K.omega_embeddings(), grams,
                                  values):
            weight = 0.5 if p.kind == "real" else 1.0
            s = [abs(float(x.a)) + abs(float(x.b)) * abs(w) for x in b]
            size = math.fsum(s[i] * G[i][j] * s[j]
                             for i in range(E.rank) for j in range(E.rank))
            expected -= weight * math.log(value)
            bound += weight * (2 * E.rank + 4) * eps * size / value
        assert abs(degree(sub.bundle) - expected) <= bound


@pytest.mark.parametrize("descriptor", ["Q(sqrt{2})", "Q(sqrt{5})",
                                        "Q(sqrt{-3})"])
def test_saturated_metric_is_within_the_stated_bound(descriptor):
    # every entry of a saturated line's or plane's float Gram lies within
    # the bound _restricted_bundle states of the exact restricted metric,
    # read off restrict_scalars(E).place_values
    K = make_field(descriptor)
    rng = random.Random(67)
    checked = 0
    for E in sampler_bundles(K, (2, 3), 10, 67):
        gens = [[K.element(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(E.rank)] for _ in range(E.rank - 1)]
        for count in range(1, E.rank):
            try:
                sub = saturate_subbundle(E, gens[:count])
            except DependentGeneratorsError:
                continue
            for dev, bound in restriction_deviations(E, sub.basis,
                                                     sub.bundle):
                assert dev <= bound
            checked += 1
    assert checked >= 10


def test_subbundle_slope_bounds_ambient_shortest():
    # a very short vector forces a subbundle of large slope
    Q = make_field("Q")
    E = make_bundle(Q, [[Fraction(1, 100), 0], [0, 100]])
    sub = saturate_subbundle(E, [(1, 0)])
    assert slope(sub.bundle) >= slope(E) + 1.0
