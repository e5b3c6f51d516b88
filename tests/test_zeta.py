"""Subbundle enumeration and partial zeta sums against box oracles."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from arakelov.bundle import degree, dual, make_bundle, trivial_bundle
from arakelov.errors import (
    BudgetExceededError,
    EnumerationCapError,
    UnsupportedFieldError,
    ZetaDivergenceError,
)
from arakelov.intlinalg import hnf, rat_det, rat_inverse, saturation_rows
from arakelov.numberfield import make_field
from arakelov.sampler import RandomLatticeSpec, random_bundle, trial_rng
from arakelov.zeta import (
    SubbundleRecord,
    _omega_times,
    _plucker,
    degree_shells,
    enumerate_subbundles,
    mu_max,
    semistability_verdict,
    zeta_partial,
)
from tests.oracles import (
    box_bound,
    gaussian_gcd,
    ok_is_primitive_vector,
    primitive_plane_vectors,
    random_pd_fraction_gram,
    skewed_unimodular,
    subbundle_records_reference,
)

Q = make_field("Q")


def quad_value(G, v):
    n = len(G)
    return sum(Fraction(G[i][j]) * v[i] * v[j]
               for i in range(n) for j in range(n))


def test_four_subbundle_shell_example():
    E = trivial_bundle(Q, 2)
    records = enumerate_subbundles(E, 1, -math.log(2.0))
    assert len(records) == 4
    gens = {tuple(abs(int(x)) for x in r.basis[0]) for r in records}
    assert gens == {(1, 0), (0, 1), (1, 1)}
    zp = zeta_partial(E, 1, 6.0, math.log(2.0))
    assert zp.terms == 4
    assert zp.partial_sum == pytest.approx(2.25, abs=1e-12)


def test_partial_sum_monotone_in_cutoff():
    E = trivial_bundle(Q, 2)
    sums = [zeta_partial(E, 1, 6.0, T).partial_sum
            for T in (0.5, 1.0, math.log(5.0), 2.0)]
    assert sums == sorted(sums)


def test_line_records_match_primitive_oracle():
    rng = random.Random(97)
    for _ in range(10):
        G = random_pd_fraction_gram(rng, 2)
        E = make_bundle(Q, G)
        T = 1.2
        cap = Fraction(math.exp(2.0 * T))  # the library's float-image cap
        bounds = box_bound([[float(v) for v in row] for row in G], float(cap))
        assert all(b <= 60 for b in bounds)  # a 60-box covers the region
        oracle = []
        for x, y in primitive_plane_vectors(2 * 60 * 60):
            q = quad_value(G, (x, y))
            if q <= cap:
                oracle.append(q)
        records = enumerate_subbundles(E, 1, -T)
        got = sorted(quad_value(G, [int(x) for x in r.basis[0]])
                     for r in records)
        assert got == sorted(oracle)
        for r in records:
            q = quad_value(G, [int(x) for x in r.basis[0]])
            assert r.degree == pytest.approx(-0.5 * math.log(float(q)),
                                             abs=1e-9)


def gaussian_unit_class_rep(vec):
    """Canonical representative of {u * vec : u a fourth root of unity}."""
    for _ in range(4):
        lead = next((z for z in vec if z != (0, 0)), None)
        if lead and (lead[0] > 0 and lead[1] >= 0):
            return vec
        vec = tuple((-b, a) for a, b in vec)
    raise AssertionError("no canonical unit representative")


def test_gaussian_line_records_match_oracle():
    K = make_field("Q(sqrt{-1})")
    E = trivial_bundle(K, 2)
    T = math.log(5.0)
    cap = Fraction(math.exp(T))
    box = int(math.isqrt(int(cap))) + 1
    classes = {}
    rng = range(-box, box + 1)
    for a, b, c, d in itertools.product(rng, rng, rng, rng):
        if not (a or b or c or d):
            continue
        N = Fraction(a * a + b * b + c * c + d * d)
        if N > cap:
            continue
        g = gaussian_gcd(gaussian_gcd((a, b), (c, d)), (0, 0))
        if g[0] * g[0] + g[1] * g[1] != 1:
            continue
        rep = gaussian_unit_class_rep(((a, b), (c, d)))
        classes[rep] = N
    records = enumerate_subbundles(E, 1, -T)
    assert len(records) == len(classes)
    got = sorted(sum(x.a * x.a + x.b * x.b for x in r.basis[0])
                 for r in records)
    assert got == sorted(classes.values())
    for r in records:
        N = sum(x.a * x.a + x.b * x.b for x in r.basis[0])
        assert r.degree == pytest.approx(-math.log(float(N)), abs=1e-9)


def test_real_quadratic_line_records_match_oracle():
    # Q(sqrt 5) has w = (1 + sqrt 5)/2, so w^2 = w + 1 exercises the s term
    # of w-multiplication; both fields have a unit of norm -1.
    for desc in ("Q(sqrt{2})", "Q(sqrt{5})"):
        K = make_field(desc)
        E = trivial_bundle(K, 2)
        T = 1.0
        cap = Fraction(math.exp(2.0 * T))  # cap on the product of the places
        reps = []  # one exact product value per proportionality class
        box = range(-2, 3)
        for a, b, c, d in itertools.product(box, box, box, box):
            if not (a or b or c or d):
                continue
            x, y = K.element(a, b), K.element(c, d)
            s = K.add(K.mul(x, x), K.mul(y, y))
            value = K.norm(s)  # q_0 * q_1 exactly
            if value > cap:
                continue
            if not ok_is_primitive_vector(K, [x, y]):
                continue
            for vx, vy, _ in reps:
                if K.sub(K.mul(vx, y), K.mul(vy, x)) == K.element(0):
                    break
            else:
                reps.append((x, y, value))
        records = enumerate_subbundles(E, 1, -T)
        assert len(records) == len(reps), desc
        got = sorted(K.norm(K.add(K.mul(r.basis[0][0], r.basis[0][0]),
                                  K.mul(r.basis[0][1], r.basis[0][1])))
                     for r in records)
        assert got == sorted(v for _, _, v in reps), desc


def test_eisenstein_line_records_match_oracle():
    """Q(sqrt -3): w = (1 + sqrt -3)/2, six units, w^2 = w - 1."""
    K = make_field("Q(sqrt{-3})")
    units = K.torsion_units()
    assert len(units) == 6
    E = trivial_bundle(K, 2)
    T = math.log(5.0)
    cap = Fraction(math.exp(T))
    classes = {}
    box = range(-3, 4)  # N(a + b w) >= 3 max(|a|, |b|)^2 / 4: |a|, |b| <= 2
    for a, b, c, d in itertools.product(box, box, box, box):
        if not (a or b or c or d):
            continue
        x, y = K.element(a, b), K.element(c, d)
        N = K.norm(x) + K.norm(y)
        if N > cap or not ok_is_primitive_vector(K, [x, y]):
            continue
        orbit = [(K.mul(u, x), K.mul(u, y)) for u in units]
        rep = min(((ux.a, ux.b, uy.a, uy.b) for ux, uy in orbit))
        classes[rep] = N
    records = enumerate_subbundles(E, 1, -T)
    assert len(records) == len(classes)
    got = sorted(K.norm(r.basis[0][0]) + K.norm(r.basis[0][1])
                 for r in records)
    assert got == sorted(classes.values())
    for r in records:
        N = K.norm(r.basis[0][0]) + K.norm(r.basis[0][1])
        assert r.degree == pytest.approx(-math.log(float(N)), abs=1e-9)


def gram(rows, G):
    n = len(G)
    return [[sum(Fraction(G[a][b]) * u[a] * v[b]
                 for a in range(n) for b in range(n)) for v in rows]
            for u in rows]


def test_plucker_keys_match_hermite_forms():
    """The Pluecker gcd decides primitivity and the key names the line, as
    the Hermite forms of the Z-spans do; over Q the determinant of a pair's
    Gram over g^2 is that of its saturation."""
    rng = random.Random(811)
    for desc in ("Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{-7})",
                 "Q(sqrt{2})", "Q(sqrt{5})"):
        K = make_field(desc)
        s, q = K.omega_minpoly()
        w = K.element(0, 1)
        units = list(K.torsion_units())
        if K.D > 0:
            eps = K.fundamental_unit()
            units += [eps, K.mul(eps, eps), K.mul(K.element(-1), eps)]

        def coords(v):
            return [int(c) for x in v for c in (x.a, x.b)]

        def zspan(v):
            return [coords(v), coords([K.mul(w, x) for x in v])]

        for _ in range(60):
            n = rng.choice((2, 3))
            v = [K.element(rng.randint(-4, 4), rng.randint(-4, 4))
                 for _ in range(n)]
            if all(x.a == 0 and x.b == 0 for x in v):
                continue
            z = coords(v)
            rows = zspan(v)
            assert _omega_times(z, s, q) == rows[1], desc
            g, key = _plucker(z, rows[1])
            primitive = hnf(rows, 2 * n) == tuple(
                tuple(r) for r in saturation_rows(rows, 2 * n))
            assert (g == 1) == primitive, (desc, v)
            if not primitive:
                continue
            for u in units:
                uv = [K.mul(u, x) for x in v]
                assert _plucker(coords(uv), zspan(uv)[1]) == (1, key)
            # another vector, a shifted one or a unit multiple: equal keys
            # exactly when the Hermite forms agree
            if rng.random() < 0.5:
                other = [K.add(x, K.element(rng.randint(-1, 1))) for x in v]
            else:
                u = rng.choice(units)
                other = [K.mul(u, x) for x in v]
            orows = zspan(other)
            og, okey = _plucker(orows[0], orows[1])
            if og == 1:
                assert (okey == key) == (hnf(orows, 2 * n) == hnf(rows, 2 * n))

    for _ in range(40):
        n = rng.choice((3, 4))
        G = random_pd_fraction_gram(rng, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        if rng.random() < 0.2:
            rows[1] = [2 * c for c in rows[0]]  # dependent
        g, key = _plucker(*rows)
        sat = saturation_rows(rows, n)
        if len(sat) < 2:
            assert g == 0 and key == ()
            continue
        assert g > 0
        assert _plucker(*sat) == (1, key)
        assert rat_det(gram(rows, G)) / (g * g) == rat_det(gram(sat, G))


def test_hyperplane_records_match_covector_oracle():
    rng = random.Random(101)
    for _ in range(6):
        G = random_pd_fraction_gram(rng, 3)
        E = make_bundle(Q, G)
        deg_e = degree(E)
        min_degree = deg_e - math.log(2.0)
        cap = Fraction(math.exp(2.0 * (deg_e - min_degree)))
        Ginv = rat_inverse(G)
        bounds = box_bound([[float(v) for v in row] for row in Ginv],
                           float(cap) * 1.001)
        oracle = []
        half = [range(-b, b + 1) for b in bounds]
        seen = set()
        for w in itertools.product(*half):
            if not any(w):
                continue
            if w in seen:
                continue
            seen.add(tuple(-c for c in w))
            if math.gcd(*[abs(c) for c in w]) != 1:
                continue
            dq = quad_value(Ginv, w)
            if dq <= cap:
                oracle.append(dq)
        records = enumerate_subbundles(E, 2, min_degree)
        assert len(records) == len(oracle)
        got = []
        for r in records:
            det2 = rat_det([[sum(Fraction(r.basis[i][a]) * G[a][b]
                                 * Fraction(r.basis[j][b])
                                 for a in range(3) for b in range(3))
                             for j in range(2)] for i in range(2)])
            got.append(det2 / rat_det(G))
            assert r.degree == pytest.approx(
                deg_e - 0.5 * math.log(float(got[-1])), abs=1e-9)
        assert sorted(got) == sorted(oracle)


def plane_oracle(G, min_degree):
    """All saturated rank-2 submodules of Z^4 with degree >= min_degree,
    keyed by Hermite basis, as a dict key -> exact Gram determinant."""
    cap = Fraction(math.exp(-2.0 * min_degree))
    # second minimum bound: |b2|^2 <= (gamma_2 sqrt(det))^2 on any plane
    qmax = Fraction(4, 3) * cap
    qmax = qmax if qmax > 6 else Fraction(6)
    vecs = []
    bounds = box_bound([[float(v) for v in row] for row in G],
                       float(qmax) * 1.001)
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(v):
            continue
        lead = next(c for c in reversed(v) if c)
        if lead < 0:
            continue
        if quad_value(G, v) <= qmax:
            vecs.append(v)
    planes = {}
    for v, w in itertools.combinations(vecs, 2):
        rows = [list(v), list(w)]
        sat = saturation_rows(rows, 4)
        if len(sat) != 2:
            continue
        key = tuple(tuple(r) for r in sat)
        if key in planes:
            continue
        det2 = rat_det([[quad_value(G, sat[0]),
                         sum(Fraction(G[i][j]) * sat[0][i] * sat[1][j]
                             for i in range(4) for j in range(4))],
                        [sum(Fraction(G[i][j]) * sat[1][i] * sat[0][j]
                             for i in range(4) for j in range(4)),
                         quad_value(G, sat[1])]])
        if det2 <= cap:
            planes[key] = det2
    return planes


@pytest.mark.parametrize("diag", [(1, 1, 1, 1), (1, 1, 1, 4)])
def test_pair_records_match_plane_oracle(diag):
    G = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(4)]
         for i in range(4)]
    E = make_bundle(Q, G)
    min_degree = -math.log(2.0)
    records = enumerate_subbundles(E, 2, min_degree)
    oracle = plane_oracle(G, min_degree)
    assert len(records) == len(oracle)
    got = []
    for r in records:
        B = [[int(x) for x in row] for row in r.basis]
        det2 = rat_det([[quad_value(G, B[0]),
                         sum(Fraction(G[i][j]) * B[0][i] * B[1][j]
                             for i in range(4) for j in range(4))],
                        [sum(Fraction(G[i][j]) * B[1][i] * B[0][j]
                             for i in range(4) for j in range(4)),
                         quad_value(G, B[1])]])
        got.append(det2)
    assert sorted(got) == sorted(oracle.values())


def test_plane_records_match_the_reduced_pair_reference():
    # planes in rank 4 as the primitive decomposable lines of Lambda^2,
    # against the walk for b2 nested in the walk for b1: sampler draws,
    # skewed U U^T of Z^4, and A4 scaled by 10^+-100 and 10^-160; mu_max
    # and zeta_partial read the records' degrees, and at s = 1.5 <= rank the
    # sum is refused as divergent before it is summed
    rng = random.Random(113)
    cases = []
    for seed in range(3):
        spec = RandomLatticeSpec(4, 100003, seed, Q)
        E = random_bundle(Q, 4, 0.0, spec, trial_rng(seed, 7))
        cases += [(E, degree(E) / 2 - T, 6.0) for T in (0.3, 0.8)]
    for shear in (3, 6):
        U = skewed_unimodular(rng, 4, shear)
        G = [[sum(a * b for a, b in zip(u, v)) for v in U] for u in U]
        cases.append((make_bundle(Q, G), -0.6, 6.0))
    A4 = [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]]

    def scaled(e):
        f = Fraction(10) ** e
        return make_bundle(Q, [[f * x for x in row] for row in A4])

    for e in (100, -100, -160):
        # the planes of det 3 and 4 (times 10^2e), at s = 1.5, where
        # exp(s * degree) would stay a finite float
        cases.append((scaled(e), -e * math.log(10) - 0.8, 1.5))
    for E, min_degree, s in cases:
        records = enumerate_subbundles(E, 2, min_degree)
        assert records
        assert records == subbundle_records_reference(E, 2, min_degree)
        assert mu_max(E, 2, min_degree) == (records[0].degree / 2, True)
        if s <= E.rank:
            with pytest.raises(ZetaDivergenceError):
                zeta_partial(E, 2, s, -min_degree)
            continue
        zp = zeta_partial(E, 2, s, -min_degree)
        assert zp.terms == len(records)
        assert zp.partial_sum == math.fsum(math.exp(s * r.degree)
                                           for r in records)
    # at 10^160 the search bound exp(-2 min_degree) is no finite float
    for builder in (enumerate_subbundles, subbundle_records_reference):
        with pytest.raises(ValueError, match="min_degree is too low"):
            builder(scaled(160), 2, -160 * math.log(10) - 0.8)


def test_caps_below_the_normal_floats():
    # Z^4 over 10^200: the plane cap exp(-2 min_degree), about 7.4e-400,
    # has no float, yet the 266 planes of Z^4 above -1 come out, each
    # 200 log 10 higher; lines and hyperplanes, whose caps are floats,
    # shift the same way, and so do the lines of a real quadratic bundle,
    # whose cap on q0 q1 underflows too
    shift = 200 * math.log(10)
    tiny = Fraction(1, 10 ** 200)
    E = make_bundle(Q, [[tiny * (i == j) for j in range(4)] for i in range(4)])
    Z4 = trivial_bundle(Q, 4)
    for l, min_degree in ((2, -1.0), (1, -1.0), (3, -1.5)):
        plain = enumerate_subbundles(Z4, l, min_degree)
        got = enumerate_subbundles(E, l, min_degree + l * shift / 2)
        assert len(got) == len(plain) > 0
        assert [r.basis for r in got] == [r.basis for r in plain]
        assert all(math.isclose(r.degree, p.degree + l * shift / 2,
                                rel_tol=1e-12)
                   for r, p in zip(got, plain))
    assert len(enumerate_subbundles(E, 2, shift - 1.0)) == 266
    assert mu_max(E, 2, shift - 1.0) == pytest.approx((shift / 2, True))
    # far above every degree the cap is raised, not built, and finds nothing
    assert enumerate_subbundles(Z4, 2, 1e300) == []
    assert mu_max(E, 1, 1e300) == (-math.inf, False)
    K = make_field("Q(sqrt{5})")
    grams = [[[Fraction(1, 2), Fraction(1, 5)], [Fraction(1, 5), 3]],
             [[Fraction(3, 4), Fraction(-1, 3)], [Fraction(-1, 3), 2]]]
    plain = enumerate_subbundles(make_bundle(K, grams), 1, -2.0)
    scaled = make_bundle(K, [[[tiny * x for x in row] for row in G]
                             for G in grams])
    got = enumerate_subbundles(scaled, 1, shift - 2.0)
    assert len(got) == len(plain) > 0
    assert all(math.isclose(r.degree, p.degree + shift, rel_tol=1e-12)
               for r, p in zip(got, plain))


def test_records_on_the_cap_survive_the_exact_radius():
    # caps that are exactly a value: exp(log 2) = 2.0 on the lines of Z^2
    # (e1, e2 of value 1, e1 +- e2 of value 2), exp(log 4) = 4.0 on the
    # planes of the A4 root lattice (10 A2 planes of determinant 3, 15
    # A1 x A1 planes of determinant 4)
    lines = enumerate_subbundles(trivial_bundle(Q, 2), 1, -0.5 * math.log(2))
    assert len(lines) == 4
    assert sum(math.isclose(r.degree, -0.5 * math.log(2)) for r in lines) == 2
    A4 = make_bundle(Q, [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1],
                         [0, 0, 1, 2]])
    planes = enumerate_subbundles(A4, 2, -0.5 * math.log(4))
    assert len(planes) == 25
    assert sum(math.isclose(r.degree, -0.5 * math.log(4))
               for r in planes) == 15


def test_a_scale_without_floats_is_refused():
    # a content of 10^-1300 has no float; its values can fall below the
    # raised cap exp(MIN_CAP_EXPONENT), so walking the radius of that cap
    # would search a huge ball that should be empty: it is a ValueError
    # before any enumeration, not a walk into the node cap; hyperplanes
    # are lines of the dual, of content 10^1300, shifted by deg E
    tiny = Fraction(1, 10 ** 1300)
    for rank, l in ((2, 1), (3, 2), (4, 2)):
        E = make_bundle(Q, [[tiny * (i == j) for j in range(rank)]
                            for i in range(rank)])
        shift = degree(E) if l == rank - 1 > 1 else 0.0
        with pytest.raises(ValueError, match="outside the float range"):
            enumerate_subbundles(E, l, 1500.0 + shift, node_cap=10 ** 5)


def test_full_rank_record():
    E = trivial_bundle(Q, 3)
    (rec,) = enumerate_subbundles(E, 3, -0.5)
    assert rec.rank == 3
    assert abs(rec.degree) <= 1e-12
    assert enumerate_subbundles(E, 3, 0.5) == []



def test_records_match_the_build_then_sort_reference():
    # records built once from sorted (degree, rows) pairs, sharing their
    # Fractions, equal records built first and sorted after, in order and
    # in value; Z^3, Z^4 and skewed copies U U^T of them tie many degrees
    rng = random.Random(109)
    cases = []
    for n, T in ((3, 1.2), (4, 0.6)):
        U = skewed_unimodular(rng, n, 3)
        twin = make_bundle(Q, [[sum(a * b for a, b in zip(u, v)) for v in U]
                               for u in U])
        cases += [(trivial_bundle(Q, n), T, True), (twin, T, True)]
    for seed in range(2):
        for n, T in ((2, 3.0), (3, 1.5), (4, 0.5)):
            spec = RandomLatticeSpec(n, 100003, seed, Q)
            cases.append((random_bundle(Q, n, 0.0, spec, trial_rng(seed, n)),
                          T, False))
    for E, T, tied in cases:
        for l in sorted({1, 2, E.rank - 1}):
            records = enumerate_subbundles(E, l, -T)
            reference = subbundle_records_reference(E, l, -T)
            assert records and records == reference
            assert repr(records) == repr(reference)
            assert all(x.__class__ is Fraction for r in records
                       for row in r.basis for x in row)
            if tied:
                assert len({r.degree for r in records}) < len(records)


@pytest.mark.parametrize("desc, rank, ls, T", [
    ("Q", 2, (1, 2), 3.5), ("Q", 3, (1, 2, 3), 2.0),
    ("Q", 4, (1, 2, 3, 4), 0.5), ("Q(sqrt{-1})", 2, (1, 2), 3.0),
    ("Q(sqrt{-3})", 2, (1, 2), 3.0), ("Q(sqrt{5})", 2, (1, 2), 2.5)])
def test_degree_path_matches_records(desc, rank, ls, T):
    # zeta_partial and mu_max read degrees only; they must see exactly the
    # degrees of the records enumerate_subbundles builds
    K = make_field(desc)
    s = 6.0
    for seed in range(3):
        spec = RandomLatticeSpec(rank, 100003, seed, K)
        E = random_bundle(K, rank, 0.0, spec, trial_rng(seed, rank))
        for l in ls:
            records = enumerate_subbundles(E, l, -T)
            assert records
            zp = zeta_partial(E, l, s, T)
            assert zp.terms == len(records)
            assert zp.partial_sum == math.fsum(math.exp(s * r.degree)
                                               for r in records)
            assert mu_max(E, l, -T) == (records[0].degree / l, True)
            assert records[0].degree == max(r.degree for r in records)


def test_mu_max():
    E = trivial_bundle(Q, 2)
    top, exact = mu_max(E, 1, -1.0)
    assert exact and abs(top) <= 1e-12
    below, flag = mu_max(E, 1, 0.5)
    assert below == -math.inf and not flag


def test_duality_consistency():
    rng = random.Random(103)
    for _ in range(8):
        G = random_pd_fraction_gram(rng, 2)
        E = make_bundle(Q, G)
        deg_e = degree(E)
        records = enumerate_subbundles(E, 1, -1.5)
        assert records
        dual_records = enumerate_subbundles(dual(E), 1, -1.5 - deg_e - 1e-9)
        by_basis = {}
        for r in dual_records:
            v = tuple(int(x) for x in r.basis[0])
            by_basis[v] = r.degree
            by_basis[tuple(-c for c in v)] = r.degree
        for r in records:
            a, b = (int(x) for x in r.basis[0])
            w = (-b, a)
            assert w in by_basis
            # deg F' + deg (E/F') = deg E, the quotient degree read off the
            # orthogonal line in the dual bundle
            assert by_basis[w] == pytest.approx(r.degree - deg_e, abs=1e-9)


def test_degree_shells_grouping():
    records = [
        SubbundleRecord(rank=1, degree=0.5, basis=((1,),)),
        SubbundleRecord(rank=1, degree=0.5 + 1e-12, basis=((2,),)),
        SubbundleRecord(rank=1, degree=-1e-13, basis=((3,),)),
        SubbundleRecord(rank=1, degree=-0.7, basis=((4,),)),
    ]
    shells = degree_shells(records)
    assert shells == [(0.5, 2), (0.0, 1), (-0.7, 1)]
    assert math.copysign(1.0, shells[1][0]) > 0  # never a negative zero


def test_divergence_guard():
    E = trivial_bundle(Q, 2)
    with pytest.raises(ZetaDivergenceError):
        zeta_partial(E, 1, 0.5, 4.0)


def rank3_draw(seed):
    spec = RandomLatticeSpec(3, 100003, seed, Q)
    return random_bundle(Q, 3, 0.0, spec, trial_rng(seed, 9))


@pytest.mark.parametrize("seed, l", [(4, 1), (1, 2)])
def test_convergent_just_above_the_rank(seed, l):
    # rank-3 draws whose last degree shells at T = 3 grow or wobble at
    # s = 3.02, where the series converges (Schmidt): a sum, not an error
    zp = zeta_partial(rank3_draw(seed), l, 3.02, 3.0)
    assert zp.terms > 0 and math.isfinite(zp.partial_sum)
    assert zp.tail_bound == math.inf


def test_divergent_at_the_rank():
    # at s = rank every sum below full rank diverges; the rule refuses it
    # before any enumeration, so not even a node cap of 1 is reached
    for seed in range(6):
        E = rank3_draw(seed)
        for l in (1, 2):
            with pytest.raises(ZetaDivergenceError, match="s > rank = 3"):
                zeta_partial(E, l, 3.0, 3.0, node_cap=1)
            with pytest.raises(EnumerationCapError):
                zeta_partial(E, l, 3.02, 3.0, node_cap=1)
        # the one full-rank term converges at every s
        assert zeta_partial(E, 3, 3.0, 3.0).tail_bound == 0.0


def test_zeta_partial_streams_its_terms():
    # the terms are summed as they come: 21032 lines of Z^2 at T = 5 keep
    # no list of degrees (one costs about 4.8 MiB), and the exactly rounded
    # sum is the same float in any order
    E = trivial_bundle(Q, 2)
    zeta_partial(E, 1, 3.0, 1.0)  # warm the caches outside the trace
    tracemalloc.start()
    try:
        zp = zeta_partial(E, 1, 3.0, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert zp.terms == 21032
    assert zp.partial_sum == 3.7446995503856018
    assert peak < 2 ** 20


def test_zeta_partial_outside_the_float_range():
    # the four lines of degree >= 4 have degrees log(100) (twice) and
    # log(100) - log(2) / 2: exp(154 log(100)) is finite but two such
    # terms are not, and exp(200 log(100)) is not either
    E = make_bundle(Q, [[Fraction(1, 10000), 0], [0, Fraction(1, 10000)]])
    with pytest.raises(ValueError, match="partial sum at s = 154"):
        zeta_partial(E, 1, 154.0, -4.0)
    with pytest.raises(ValueError, match="s = 200, degree = 4.60517"):
        zeta_partial(E, 1, 200.0, -4.0)
    zp = zeta_partial(E, 1, 150.0, -4.0)
    assert zp.terms == 4 and zp.partial_sum < math.inf


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_zeta_partial_refuses_a_non_finite_s(s):
    # inf * 0 is nan on the degree-0 lines of O^2
    with pytest.raises(ValueError, match="s must be finite"):
        zeta_partial(trivial_bundle(Q, 2), 1, s, 1.0)


def test_rank_one_zeta_is_single_term():
    E = make_bundle(Q, [[4]])
    zp = zeta_partial(E, 1, 2.0, 1.0)
    assert zp.terms == 1
    assert zp.partial_sum == pytest.approx(0.25, abs=1e-12)
    assert zp.tail_bound == 0.0
    # below the cutoff the one term is omitted, and it is the tail
    zp = zeta_partial(E, 1, 2.0, 0.5)
    assert zp.terms == 0 and zp.partial_sum == 0.0
    assert zp.tail_bound == math.exp(2.0 * degree(E))


def test_enumerate_validation():
    E = trivial_bundle(Q, 2)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 0, -1.0)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 3, -1.0)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 1, -math.inf)
    # a search bound beyond the float range is a ValueError before any
    # enumeration, not an OverflowError: lines, hyperplanes, planes
    for bundle, l, min_degree in ((E, 1, -400.0),
                                  (trivial_bundle(Q, 3), 2, -400.0),
                                  (trivial_bundle(Q, 4), 2, -400.0),
                                  (trivial_bundle(make_field("Q(sqrt{5})"), 2),
                                   1, -400.0),
                                  (trivial_bundle(make_field("Q(sqrt{-1})"), 2),
                                   1, -800.0)):
        with pytest.raises(ValueError, match="not a finite float"):
            enumerate_subbundles(bundle, l, min_degree)
    with pytest.raises(BudgetExceededError):
        enumerate_subbundles(trivial_bundle(Q, 5), 2, -0.5)
    K = make_field("Q(sqrt{-1})")
    with pytest.raises(UnsupportedFieldError):
        enumerate_subbundles(trivial_bundle(K, 3), 2, -0.5)


def test_semistability_verdicts():
    assert semistability_verdict(trivial_bundle(Q, 3)).status == \
        "semistable_up_to_budget"
    assert semistability_verdict(make_bundle(Q, [[5]])).status == \
        "semistable_up_to_budget"
    E = make_bundle(Q, [[Fraction(1, 4), 0], [0, 4]])
    verdict = semistability_verdict(E)
    assert verdict.status == "unstable"
    assert verdict.witness.degree == pytest.approx(math.log(2.0), abs=1e-12)
    assert tuple(int(x) for x in verdict.witness.basis[0]) == (1, 0)
    K = make_field("Q(sqrt{-1})")
    assert semistability_verdict(trivial_bundle(K, 3)).status == \
        "inconclusive"


# the number of lines of degree >= -T grows like exp(rank T) (Schmidt; Thunder
# over number fields), the rate behind zeta_partial's convergence rule
@pytest.mark.parametrize("desc, n, slope_window", [
    ("Q", 2, (1.0, 3.0)), ("Q", 3, (2.0, 4.0)),
    ("Q(sqrt{-1})", 2, (1.0, 3.0)), ("Q(sqrt{5})", 2, (1.0, 3.0))],
    ids=["2-slope_window0", "3-slope_window1", "Q(sqrt{-1})-2",
         "Q(sqrt{5})-2"])
def test_counting_function_growth(desc, n, slope_window):
    E = trivial_bundle(make_field(desc), n)
    ts = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    counts = [len(enumerate_subbundles(E, 1, -t)) for t in ts]
    assert counts == sorted(counts)  # N(T) monotone
    logs = [math.log(c) for c in counts]
    b, a = np.polyfit(ts, logs, 1)
    assert slope_window[0] < b < slope_window[1]
    shift = max(l - (a + b * t) for l, t in zip(logs, ts))
    # log N(T) <= affine fit raised by its worst residual, which stays small
    assert shift < 0.5
    assert all(l <= a + shift + b * t + 1e-9 for l, t in zip(logs, ts))


def test_tail_bound_single_constant():
    E = trivial_bundle(Q, 2)
    top, exact = mu_max(E, 1, -4.0)
    assert exact
    parts = {s: zeta_partial(E, 1, s, 4.0).partial_sum for s in (8, 12, 16)}
    C = max(p / math.exp(s * top) for s, p in parts.items())
    assert C < 2.5
    for s, p in parts.items():
        assert p <= C * math.exp(s * top) * (1 + 1e-12)
    # larger s damps every negative-degree term
    assert parts[8] >= parts[12] >= parts[16] >= 2.0
