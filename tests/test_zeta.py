"""Subbundle enumeration and partial zeta sums against box oracles."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from arakelov.bundle import degree, dual, make_bundle, trivial_bundle
from arakelov.errors import (
    BudgetExceededError,
    UnsupportedFieldError,
    ZetaDivergenceError,
)
from arakelov.intlinalg import rat_det, rat_inverse, saturation_rows
from arakelov.numberfield import make_field
from arakelov.zeta import (
    SubbundleRecord,
    degree_shells,
    enumerate_subbundles,
    mu_max,
    semistability_verdict,
    zeta_partial,
)
from tests.oracles import (
    box_bound,
    gaussian_gcd,
    primitive_plane_vectors,
    random_pd_fraction_gram,
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
    K = make_field("Q(sqrt{2})")
    E = trivial_bundle(K, 2)
    T = 1.0
    cap = Fraction(math.exp(2.0 * T))  # cap on the product of the two places
    from tests.oracles import ok_is_primitive_vector

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
    assert len(records) == len(reps)
    got = sorted(K.norm(K.add(K.mul(r.basis[0][0], r.basis[0][0]),
                              K.mul(r.basis[0][1], r.basis[0][1])))
                 for r in records)
    assert got == sorted(v for _, _, v in reps)


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


def test_full_rank_record():
    E = trivial_bundle(Q, 3)
    (rec,) = enumerate_subbundles(E, 3, -0.5)
    assert rec.rank == 3
    assert abs(rec.degree) <= 1e-12
    assert enumerate_subbundles(E, 3, 0.5) == []


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


def test_rank_one_zeta_is_single_term():
    E = make_bundle(Q, [[4]])
    zp = zeta_partial(E, 1, 2.0, 1.0)
    assert zp.terms == 1
    assert zp.partial_sum == pytest.approx(0.25, abs=1e-12)
    assert zp.tail_bound_estimate == 0.0


def test_enumerate_validation():
    E = trivial_bundle(Q, 2)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 0, -1.0)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 3, -1.0)
    with pytest.raises(ValueError):
        enumerate_subbundles(E, 1, -math.inf)
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


@pytest.mark.parametrize("n, slope_window", [(2, (1.0, 3.0)), (3, (2.0, 4.0))])
def test_counting_function_growth(n, slope_window):
    E = trivial_bundle(Q, n)
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
