"""Unit-ball section search against exact brute-force enumeration."""

import math
import random
from fractions import Fraction

import pytest

from arakelov.bundle import make_bundle, scale, trivial_bundle
from arakelov.errors import EnumerationCapError, InvalidMetricError
from arakelov.lattice import ReducedLattice
from arakelov.numberfield import make_field
from arakelov.sections import (
    count_in_region,
    global_sections,
    has_nonzero_section,
    minkowski_guarantee,
)
from tests.oracles import (
    e8_gram,
    gaussian_sections_brute,
    random_pd_fraction_gram,
    rational_sections_brute,
)


def test_trivial_rational_sections():
    Q = make_field("Q")
    report = global_sections(trivial_bundle(Q, 2))
    got = {tuple(int(x) for x in v) for v in report.nonzero_sections}
    assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert not report.truncated
    assert report.nodes_visited > 0


def test_sections_closed_under_negation():
    Q = make_field("Q")
    report = global_sections(make_bundle(Q, [[Fraction(1, 9)]]))
    got = {tuple(v) for v in report.nonzero_sections}
    assert got == {(x,) for x in (-3, -2, -1, 1, 2, 3)}


def test_rational_sections_match_brute_force():
    rng = random.Random(71)
    Q = make_field("Q")
    for _ in range(25):
        n = rng.randint(1, 4)
        G = random_pd_fraction_gram(rng, n, denominator=rng.choice([1, 4, 9]))
        E = make_bundle(Q, G)
        report = global_sections(E)
        assert not report.truncated
        got = {tuple(v) for v in report.nonzero_sections}
        assert got == rational_sections_brute(G)


def test_gaussian_sections_match_brute_force():
    rng = random.Random(73)
    Qi = make_field("Q(sqrt{-1})")
    for _ in range(10):
        n = rng.randint(1, 2)
        H = [[None] * n for _ in range(n)]
        while True:
            import numpy as np

            B = np.array([[complex(rng.randint(-2, 2), rng.randint(-2, 2))
                           for _ in range(n)] for _ in range(n)])
            if abs(np.linalg.det(B)) > 0.5:
                break
        M = B @ B.conj().T
        H = [[complex(M[i][j]) / 4 for j in range(n)] for i in range(n)]
        E = make_bundle(Qi, H)
        report = global_sections(E)
        assert not report.truncated
        got = {tuple((x.a, x.b) for x in v) for v in report.nonzero_sections}
        re_m, im_m = E.gram_complex[0]
        assert got == gaussian_sections_brute(re_m, im_m)


def test_eisenstein_and_golden_sections():
    # units of the ring land exactly on the unit sphere
    K3 = make_field("Q(sqrt{-3})")
    report = global_sections(trivial_bundle(K3, 1))
    assert len(report.nonzero_sections) == 6  # sixth roots of unity
    K5 = make_field("Q(sqrt{5})")
    report5 = global_sections(trivial_bundle(K5, 1))
    got = {tuple((x.a, x.b) for x in v) for v in report5.nonzero_sections}
    assert got == {((1, 0),), ((-1, 0),)}


def test_real_quadratic_unit_needs_wider_region():
    # the fundamental unit (1 + sqrt(5))/2 has conjugate norms phi and 1/phi
    K = make_field("Q(sqrt{5})")
    E = trivial_bundle(K, 1)
    phi = (1 + math.sqrt(5)) / 2
    assert count_in_region(E, 1) == 2
    assert count_in_region(E, [Fraction(17, 10), Fraction(1)]) == 4
    assert count_in_region(E, phi * 1.001) >= 6
    with pytest.raises(ValueError):
        count_in_region(E, [1])  # needs one radius per place
    with pytest.raises(ValueError):
        count_in_region(E, -1)


def test_count_caps_are_squared_radii():
    Q = make_field("Q")
    E = make_bundle(Q, [[4]])  # vector k has norm 2|k|
    assert count_in_region(E, 1) == 0
    assert count_in_region(E, 2) == 2
    assert count_in_region(E, Fraction(399, 100)) == 2
    assert count_in_region(E, 4) == 4


def test_count_monotone_in_radius():
    rng = random.Random(79)
    Q = make_field("Q")
    G = random_pd_fraction_gram(rng, 3)
    E = make_bundle(Q, G)
    counts = [count_in_region(E, Fraction(r, 4)) for r in range(2, 12)]
    assert counts == sorted(counts)


def test_scaling_brings_sections():
    Q = make_field("Q")
    E = make_bundle(Q, [[9, 0], [0, 9]])
    assert not has_nonzero_section(E)
    assert has_nonzero_section(scale(E, 0.25))


def test_minkowski_guarantee_implies_section():
    rng = random.Random(83)
    for name in ["Q", "Q(sqrt{-1})", "Q(sqrt{2})"]:
        K = make_field(name)
        for _ in range(12):
            n = rng.randint(1, 2)
            grams = [random_pd_fraction_gram(rng, n)
                     for _ in range(K.real_places)]
            grams += [[[Fraction(rng.randint(1, 4)) if i == j else 0
                        for j in range(n)] for i in range(n)]
                      for _ in range(K.complex_places)]
            E = make_bundle(K, grams)
            t = math.exp(rng.uniform(-1.5, 0.5))
            F = scale(E, t)
            if minkowski_guarantee(F):
                assert has_nonzero_section(F)


def test_node_cap_is_loud():
    Q = make_field("Q")
    E = make_bundle(Q, [[Fraction(1, 10 ** 8)]])
    with pytest.raises(EnumerationCapError):
        global_sections_truncation_probe(E)
    report = global_sections(E, node_cap=50)
    assert report.truncated


def test_skewed_gram_raises_instead_of_partial_sections():
    # a skewed copy U U^T of Z^3 (U unimodular): six unit sections.  Its
    # float trace Gram cannot hold the reduced Gram, so the section search
    # must refuse rather than return some of the six.
    G = [[5828877, 115180088, 379309023],
         [115180088, 2275991630, 7494901859],
         [379309023, 7494901859, 24713137886]]
    assert [q for _, q in ReducedLattice(G).short_vectors(1)] == [1, 1, 1]
    E = make_bundle(make_field("Q"), G)
    with pytest.raises(InvalidMetricError):
        global_sections(E)
    with pytest.raises(InvalidMetricError):
        has_nonzero_section(E)


def global_sections_truncation_probe(E):
    # counting must refuse to return a partial answer
    count_in_region(E, 1, node_cap=50)


def test_e8_demo_bundle():
    Q = make_field("Q")
    G = [[Fraction(x) for x in row] for row in e8_gram()]
    E = make_bundle(Q, G)
    report = global_sections(E)
    assert report.nonzero_sections == ()
    assert not report.truncated
    assert count_in_region(E, Fraction(3, 2)) == 240
