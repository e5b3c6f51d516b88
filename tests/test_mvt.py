"""Mean-value estimator: exact counting, unbiasedness, reproducibility."""

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from arakelov.errors import MonteCarloDiscardError, UnsupportedFieldError
from arakelov.intlinalg import rat_det
from arakelov.mvt import (
    MIN_TRIALS,
    _count_tuples,
    mvt_compare,
    mvt_lhs_estimate,
    mvt_rhs,
)
from arakelov.numberfield import make_field
from arakelov.sampler import RandomLatticeSpec, hecke_integer_gram
from tests.oracles import BALL_VOLUME_TABLE, box_bound, rational_sections_brute

Q = make_field("Q")


def test_rhs_matches_ball_volumes():
    for n in (3, 4, 5):
        assert mvt_rhs(Q, n, 1, [1]) == pytest.approx(BALL_VOLUME_TABLE[n],
                                                      rel=1e-12)
    v3 = BALL_VOLUME_TABLE[3]
    assert mvt_rhs(Q, 3, 2, (1, 1)) == pytest.approx(v3 * v3, rel=1e-12)
    assert mvt_rhs(Q, 3, 2, (1, 1)) == pytest.approx(17.546, rel=1e-3)
    # radius scaling enters through t^(n d)
    assert mvt_rhs(Q, 3, 1, [2]) == pytest.approx(8 * v3, rel=1e-12)
    # over Q(i): ball volume 2^n V_2n, discriminant 4, degree 2
    K = make_field("Q(sqrt{-1})")
    expected = (4 * BALL_VOLUME_TABLE[4]) * 4.0 ** (-1.0)
    assert mvt_rhs(K, 2, 1, [1]) == pytest.approx(expected, rel=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        mvt_rhs(Q, 3, 3, [1, 1, 1])  # needs l < n
    with pytest.raises(ValueError):
        mvt_rhs(Q, 3, 0, [])
    with pytest.raises(ValueError):
        mvt_rhs(Q, 3, 2, [1])  # one radius per tuple slot
    with pytest.raises(ValueError):
        mvt_rhs(Q, 3, 1, [0])
    for t in (math.inf, -math.inf, math.nan):  # Fraction(inf) overflows
        with pytest.raises(ValueError):
            mvt_rhs(Q, 3, 1, [t])


def brute_count(gram, p, n, l, radii):
    """Ordered l-tuples of independent vectors within the radii, counted by
    box enumeration with the exact membership rule Q(x)^n <= t^(2n) p^2."""
    members = []
    for t in radii:
        cap = Fraction(t) ** (2 * n) * p * p
        box = 1
        while Fraction(box * box) ** n <= cap:  # diagonal gram entries >= 1
            box += 1
        vecs = []
        for x in itertools.product(range(-box, box + 1), repeat=n):
            if not any(x):
                continue
            q = sum(gram[i][j] * x[i] * x[j]
                    for i in range(n) for j in range(n))
            if Fraction(q) ** n <= cap:
                vecs.append(x)
        members.append(vecs)
    total = 0
    for tup in itertools.product(*members):
        m = [[Fraction(c) for c in v] for v in tup]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for r in range(len(m)):
                if r != rank and m[r][col]:
                    f = m[r][col] / m[rank][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
            rank += 1
        if rank == l:
            total += 1
    return total


@pytest.mark.parametrize("n, l, radii, p, coset", [
    (3, 1, (1,), 5, [1, 2, 0]),
    (3, 1, (Fraction(3, 2),), 7, [2, 1, 1]),
    (4, 1, (1,), 5, [1, 0, 3, 2]),
    (3, 2, (1, 1), 5, [1, 2, 0]),
    (4, 3, (1, 1, 1), 3, [1, 1, 2, 0]),
])
def test_exact_count_against_box_oracle(n, l, radii, p, coset):
    spec = RandomLatticeSpec(n=n, p=p, seed=0, field=Q)
    gram = hecke_integer_gram(spec, coset)
    got = _count_tuples(gram, p, n, l, tuple(Fraction(t) for t in radii),
                        node_cap=10 ** 8)
    assert got == brute_count(gram, p, n, l, radii)


@pytest.mark.parametrize("n, c", [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_count_on_lattice_values_matches_brute_force(n, c):
    # p = c^n puts each ball on an exact lattice value, up to the rounding
    # of p ** (2/n) (27 ** (2/3) < 9 in floats): on the Gram q G, with q the
    # value of v under G, radius q / c reaches v and radius 2q / c reaches
    # 2v, so vectors lie on both spheres and the counts must still be exact
    rng = random.Random(43 + 10 * n + c)
    checked = 0
    while checked < 4:
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        G = [[sum(map(mul, u, w)) for w in B] for u in B]
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v) or rat_det(G) == 0:
            continue
        q = sum(G[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        work = math.prod(2 * b + 1 for b in box_bound(G, 4 * q))
        if work > 50_000:
            continue
        inner = rational_sections_brute(G, q)
        outer = rational_sections_brute(G, 4 * q)
        assert tuple(v) in inner and tuple(2 * x for x in v) in outer
        gram = [[q * g for g in row] for row in G]
        radii = (Fraction(q, c), Fraction(2 * q, c))
        assert _count_tuples(gram, c ** n, n, 1, radii[:1],
                             node_cap=10 ** 8) == len(inner)
        independent = sum(
            1 for x in inner for y in outer
            if any(x[i] * y[j] != x[j] * y[i]
                   for i in range(n) for j in range(i + 1, n)))
        assert _count_tuples(gram, c ** n, n, 2, radii,
                             node_cap=10 ** 8) == independent
        checked += 1


def test_estimate_is_unbiased_at_small_prime():
    # closed form for the coset average: each candidate vector of the
    # standard lattice survives with probability (p^2-1)/(p^3-1)
    p = 97
    cap = Fraction(p * p)
    hits = 0
    for x in itertools.product(range(-5, 6), repeat=3):
        if any(x) and Fraction(sum(c * c for c in x)) ** 3 <= cap:
            hits += 1
    expected = hits * Fraction(p * p - 1, p ** 3 - 1)
    spec = RandomLatticeSpec(n=3, p=p, seed=20260814, field=Q)
    est = mvt_lhs_estimate(3, 1, [1], 3000, spec)
    z = (est.mean - float(expected)) / est.std_error
    assert abs(z) <= 4.0
    assert est.trials == 3000
    assert est.config["discarded"] == 0


def test_threads_do_not_change_the_stream():
    spec = RandomLatticeSpec(n=3, p=1009, seed=3, field=Q)
    serial = mvt_lhs_estimate(3, 1, [1], 40, spec, threads=1)
    parallel = mvt_lhs_estimate(3, 1, [1], 40, spec, threads=2)
    assert serial.mean == parallel.mean
    assert serial.std_error == parallel.std_error


def test_estimate_validation():
    spec = RandomLatticeSpec(n=3, p=1009, seed=0, field=Q)
    with pytest.raises(ValueError):
        mvt_lhs_estimate(3, 1, [1], MIN_TRIALS - 1, spec)
    with pytest.raises(ValueError):
        mvt_lhs_estimate(4, 1, [1], 100, spec)
    for threads in (0, -2):  # such counts ran serially
        with pytest.raises(ValueError, match="at least 1 thread"):
            mvt_lhs_estimate(3, 1, [1], 40, spec, threads=threads)
    K = make_field("Q(sqrt{5})")
    qspec = RandomLatticeSpec(n=3, p=1009, seed=0, field=K)
    with pytest.raises(UnsupportedFieldError):
        mvt_lhs_estimate(3, 1, [1], 100, qspec)


def test_discards_abort_loudly():
    spec = RandomLatticeSpec(n=3, p=1009, seed=0, field=Q)
    with pytest.raises(MonteCarloDiscardError):
        mvt_lhs_estimate(3, 1, [1], 30, spec, node_cap=1)


def test_compare_degenerate_z():
    # a radius far below the shortest vector gives zero every trial
    spec = RandomLatticeSpec(n=2, p=101, seed=0, field=Q)
    cmp = mvt_compare(2, 1, [Fraction(1, 100)], 30, spec)
    assert cmp.lhs.mean == 0.0
    assert cmp.rhs > 0
    assert math.isinf(cmp.z_score) and cmp.z_score < 0
