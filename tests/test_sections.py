"""Unit-ball section search against exact brute-force enumeration."""

import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest

from arakelov.bundle import make_bundle, scale, tensor, trivial_bundle
from arakelov.errors import EnumerationCapError
from arakelov.lattice import (
    ReducedLattice,
    enumerate_short_vectors,
    form_value,
    shortest_vector,
)
from arakelov.numberfield import make_field
from arakelov.sampler import RandomLatticeSpec, random_bundle, trial_rng
from arakelov.sections import (
    _basis_section,
    count_in_region,
    global_sections,
    has_nonzero_section,
    minkowski_guarantee,
)
from arakelov.zeta import enumerate_subbundles
from tests.oracles import (
    e8_gram,
    gaussian_sections_brute,
    random_pd_fraction_gram,
    rational_sections_brute,
    real_quadratic_sections_brute,
    skewed_unimodular,
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


def test_count_in_region_stores_no_vectors():
    # a radius far past every vector: the walk ends at the node cap, after
    # some 10^5 hits; counting them keeps none, where a list of the hits
    # held about 5 MB at this cap
    Q = make_field("Q")
    E = random_bundle(Q, 3, 0.0, RandomLatticeSpec(3, 100003, 0, Q),
                      trial_rng(0, 0))
    cap = 5 * 10 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError,
                           match=f"node cap {cap} hit after 99994 vectors"
                           ) as exc:
            count_in_region(E, 1e100, node_cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.nodes == cap + 1
    assert peak < 2 ** 20


def test_radius_beyond_float_range_is_refused():
    # a sampler bundle's Gram has denominators near 2^64, and enumeration
    # runs on its integer form: there the radius 1e150 is no finite float
    Q = make_field("Q")
    E = random_bundle(Q, 3, 0.0, RandomLatticeSpec(3, 100003, 0, Q),
                      trial_rng(0, 0))
    with pytest.raises(EnumerationCapError):
        count_in_region(E, 1e100, node_cap=50)
    with pytest.raises(ValueError, match="not a finite float"):
        count_in_region(E, 1e150)
    # a nan radius is refused up front with the same message, by the walk
    # and by the reduce-once path alike
    nan = float("nan")
    with pytest.raises(ValueError, match="not a finite float"):
        list(enumerate_short_vectors([[1]], nan))
    with pytest.raises(ValueError, match="not a finite float"):
        list(ReducedLattice([[2, 1], [1, 2]]).short_vectors(nan))
    # an inf or nan radius is refused before it is read as a rational
    inf = float("inf")
    K = make_field("Q(sqrt{5})")
    for F, radii in ((E, inf), (E, nan), (E, -inf), (E, [nan]),
                     (trivial_bundle(K, 1), [1.0, inf])):
        with pytest.raises(ValueError, match="not a finite float"):
            count_in_region(F, radii)


def test_gram_beyond_float_range_is_refused():
    # a den of 10^400 times the radius, or a scale of 10^400, has no float:
    # a ValueError from the enumeration, never an OverflowError or a
    # ZeroDivisionError
    Q = make_field("Q")
    for entry in (Fraction(1, 10**400), Fraction(10**400)):
        with pytest.raises(ValueError, match="outside the float range"):
            global_sections(make_bundle(Q, [[entry]]))
    skinny = make_bundle(Q, [[Fraction(1, 10**400), 0], [0, 1]])
    # e_1 has norm 10^-200: the basis pre-check answers before any sweep
    assert has_nonzero_section(skinny)
    for gram in ([[10**400, 0], [0, 2]], [[2, 0], [0, 10**400]]):
        # no basis vector is a section, so the sweep runs and refuses
        with pytest.raises(ValueError, match="outside the float range"):
            has_nonzero_section(make_bundle(Q, gram))
    with pytest.raises(ValueError, match="outside the float range"):
        enumerate_subbundles(skinny, 1, -1.0)
    with pytest.raises(ValueError, match="outside the float range"):
        shortest_vector([[10**400, 0], [0, 1]])  # a reduced entry
    # the scale 10^-400 stays exact: lengths are compared on the integer form
    assert shortest_vector([[Fraction(1, 10**400)]]) == (
        (1,), Fraction(1, 10**400))


@pytest.mark.parametrize("desc, rank, cap", [
    ("Q", 3, 1), ("Q(sqrt{-1})", 2, 3), ("Q(sqrt{5})", 2, 3)])
def test_basis_section_needs_no_sweep(desc, rank, cap):
    # e_1 is a section of O^rank: no node budget is spent to find it
    assert has_nonzero_section(trivial_bundle(make_field(desc), rank),
                               node_cap=cap)


def test_cap_before_any_hit_is_loud_without_a_basis_section():
    # the diagonal entries exceed 1; the only sections are +-(e_1 + e_2)
    Q = make_field("Q")
    E = make_bundle(Q, [[2, Fraction(-3, 2)], [Fraction(-3, 2), 2]])
    assert global_sections(E).nonzero_sections == ((1, 1), (-1, -1))
    with pytest.raises(EnumerationCapError):
        has_nonzero_section(E, node_cap=1)
    assert has_nonzero_section(E)


@pytest.mark.parametrize("desc", ["Q", "Q(sqrt{-1})", "Q(sqrt{-3})",
                                  "Q(sqrt{5})"])
def test_precheck_agrees_with_full_sweep(desc):
    # seeded products E (x) F, scaled so that sections appear or vanish; the
    # skewed copy [[2, 3], [3, 5]] of O^2 has sections off the basis
    K = make_field(desc)
    rank_f = 3 if K.is_rational() else 2
    skew = make_bundle(K, [[[2, 3], [3, 5]]] * len(K.infinite_places()))
    seen = set()
    for trial in range(6):
        E = random_bundle(K, 2, 0.0, RandomLatticeSpec(2, 100003, trial, K),
                          trial_rng(trial, 0))
        F = random_bundle(K, rank_f, 0.0,
                          RandomLatticeSpec(rank_f, 100003, trial, K),
                          trial_rng(trial, 1))
        for A in (E, skew):
            for c in (2, 1, Fraction(1, 2)):
                P = scale(tensor(A, F), c)
                found = has_nonzero_section(P)
                assert found == bool(global_sections(P).nonzero_sections)
                seen.add("basis" if _basis_section(P) else found)
    assert seen == {"basis", True, False}  # both paths to a hit, and none


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


def bilinear(G, u, v):
    return sum(a * g * b for a, row in zip(u, G) for g, b in zip(row, v))


def test_skewed_gram_gives_the_unit_sections():
    # a skewed copy U U^T of Z^3 (U unimodular) whose reduced Gram a float
    # trace form cannot hold: the six sections are the vectors +-e_i U^-1,
    # three pairs whose Gram is the identity
    G = [[5828877, 115180088, 379309023],
         [115180088, 2275991630, 7494901859],
         [379309023, 7494901859, 24713137886]]
    assert [form_value(G, x) for x in ReducedLattice(G).short_vectors(1)] == [
        1, 1, 1]
    E = make_bundle(make_field("Q"), G)
    report = global_sections(E)
    assert not report.truncated
    sections = report.nonzero_sections
    assert len(sections) == 6
    assert set(sections) == {tuple(-x for x in v) for v in sections}
    reps = sections[::2]
    assert [[bilinear(G, u, v) for v in reps] for u in reps] == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert has_nonzero_section(E)


def test_skewed_unimodular_fuzz():
    # 60 skewed copies U U^T of Z^n, n = 3..7, shears 1e2..1e7: mapped by
    # U, the sections are exactly the 2n vectors +-e_i
    rng = random.Random(2023)
    Q = make_field("Q")
    for n in range(3, 8):
        units = sorted(tuple(s * (i == j) for j in range(n))
                       for i in range(n) for s in (1, -1))
        for shear in (10 ** e for e in range(2, 8)):
            for _ in range(2):
                U = skewed_unimodular(rng, n, shear)
                columns = list(zip(*U))
                E = make_bundle(Q, [[sum(map(mul, u, v)) for v in U]
                                    for u in U])
                report = global_sections(E)
                assert not report.truncated
                assert sorted(tuple(sum(map(mul, x, col)) for col in columns)
                              for x in report.nonzero_sections) == units
                assert has_nonzero_section(E)


def test_real_quadratic_product_matches_box_oracle():
    # two ordinary sampler bundles over Q(sqrt 5): the trace form of their
    # product cancels when its two places are summed in floats
    K = make_field("Q(sqrt{5})")
    E = random_bundle(K, 2, 0.3, RandomLatticeSpec(2, 1000003, 1, K),
                      trial_rng(1, 0))
    F = random_bundle(K, 3, -0.2, RandomLatticeSpec(3, 1000003, 1, K),
                      trial_rng(1, 1))
    P = tensor(E, F)
    brute = real_quadratic_sections_brute(P)
    assert brute
    report = global_sections(P)
    assert not report.truncated
    got = {tuple((x.a, x.b) for x in v) for v in report.nonzero_sections}
    assert got == brute
    assert has_nonzero_section(P)


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
