"""Reduction and enumeration over explicit Gram matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from arakelov.errors import EnumerationCapError, InvalidMetricError
from arakelov.lattice import (
    ReducedLattice,
    apply_transform,
    enumerate_short_vectors,
    lll_transform,
    shortest_vector,
)
from tests.oracles import box_bound, e8_gram, random_pd_fraction_gram


def gram_matrix(basis):
    """Gram matrix of row vectors under the standard inner product."""
    return [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]


def quadratic_value(gram, x):
    n = len(gram)
    return sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


def brute_short_vectors(gram, radius_sq):
    """All +-classes with 0 < Q(x) <= radius_sq, by box enumeration over
    the coordinate ranges certified by the dual bound."""
    bounds = box_bound([[float(x) for x in row] for row in gram],
                       float(radius_sq))
    out = {}
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(x):
            continue
        lead = next(v for v in reversed(x) if v)
        if lead < 0:
            continue
        q = quadratic_value(gram, x)
        if q <= radius_sq:
            out[x] = q
    return out


def test_gram_matrix_and_transform():
    basis = [[1, 0], [1, 2]]
    G = gram_matrix(basis)
    assert G == [[1, 1], [1, 5]]
    U = [[0, 1], [1, 0]]
    assert apply_transform(U, G) == [[5, 1], [1, 1]]


def test_lll_unimodular_and_quality():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 5)
        G = random_pd_fraction_gram(rng, n)
        U = lll_transform(G)
        det = 1
        M = [row[:] for row in U]
        # integer determinant via fraction elimination
        from arakelov.intlinalg import rat_det

        assert abs(rat_det(M)) == 1
        red = apply_transform(U, G)
        # reduced basis must not be longer than the original worst vector
        assert min(float(red[i][i]) for i in range(n)) <= \
            min(float(G[i][i]) for i in range(n)) + 1e-9
        # determinant of the Gram matrix is basis independent
        assert rat_det(red) == rat_det(G)


def test_lll_finds_short_vector_in_skewed_plane():
    # basis (1, 0), (1000, 1): reduction must recover unit-length vectors
    G = gram_matrix([[1, 0], [1000, 1]])
    U = lll_transform([[Fraction(x) for x in row] for row in G])
    red = apply_transform(U, G)
    assert sorted(red[i][i] for i in range(2)) == [1, 1]


def test_enumeration_matches_brute_force():
    rng = random.Random(29)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        G = random_pd_fraction_gram(rng, n)
        radius_sq = Fraction(rng.randint(2, 6))
        bounds = box_bound([[float(x) for x in row] for row in G],
                           float(radius_sq))
        work = 1
        for b in bounds:
            work *= 2 * b + 1
        if work > 300_000:  # keep the oracle affordable
            continue
        brute = brute_short_vectors(G, radius_sq)
        floats = [[float(x) for x in row] for row in G]
        # the bare enumeration, then the reduce-once path on exact and on
        # float Grams, read in the original coordinates; only the mapped-back
        # vectors may break the sign convention, so only they are flipped
        for vectors, flip in (
                (enumerate_short_vectors(G, radius_sq), False),
                (ReducedLattice(G).short_vectors(radius_sq), True),
                (ReducedLattice(floats).short_vectors(radius_sq), True)):
            found = {}
            for x, _ in vectors:
                if flip and next(v for v in reversed(x) if v) < 0:
                    x = tuple(-v for v in x)  # the oracle's sign convention
                exact = quadratic_value(G, x)
                if exact <= radius_sq:  # float envelope may over-include
                    assert x not in found
                    found[x] = exact
            assert found == brute
        checked += 1


def test_enumeration_sign_convention():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    reps = [x for x, _ in enumerate_short_vectors(G, 1)]
    assert sorted(reps) == [(0, 1), (1, 0)]
    for x in reps:
        lead = next(v for v in reversed(x) if v)
        assert lead > 0


def test_enumeration_empty_cases():
    G = [[Fraction(4)]]
    assert list(enumerate_short_vectors(G, 3)) == []
    assert list(enumerate_short_vectors(G, -1)) == []
    assert list(enumerate_short_vectors([], 5)) == []


def test_node_counter_and_cap():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    counter = [0]
    list(enumerate_short_vectors(G, 100, node_counter=counter))
    assert counter[0] > 0
    with pytest.raises(EnumerationCapError) as exc:
        list(enumerate_short_vectors(G, 100, node_cap=5))
    assert exc.value.nodes > 5


def test_rejects_non_positive_definite():
    with pytest.raises(InvalidMetricError):
        list(enumerate_short_vectors([[Fraction(0)]], 1))
    with pytest.raises(InvalidMetricError):
        list(enumerate_short_vectors([[1, 2], [2, 1]], 1))
    with pytest.raises(InvalidMetricError):
        lll_transform([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])


def test_shortest_vector_brute_force():
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 4)
        G = random_pd_fraction_gram(rng, n)
        floats = [[float(v) for v in row] for row in G]
        smallest = min(float(G[i][i]) for i in range(n))
        work = 1
        for b in box_bound(floats, smallest):
            work *= 2 * b + 1
        if work > 300_000:
            continue
        checked += 1
        x, q = shortest_vector(G)
        assert any(x)
        exact = quadratic_value(G, x)
        assert abs(float(exact) - q) <= 1e-9 * (1 + abs(q))
        best = min(brute_short_vectors(G, exact).values(), default=None)
        assert best is not None and best == exact


def test_shortest_vector_e8():
    G = [[Fraction(x) for x in row] for row in e8_gram()]
    x, _ = shortest_vector(G)
    assert quadratic_value(G, x) == 2
    count = sum(1 for _ in enumerate_short_vectors(G, 2))
    assert 2 * count == 240  # kissing number, one representative per +-pair
