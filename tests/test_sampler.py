"""Random bundle generation: determinism, exact covolume, slope targeting."""

import math
import random
from fractions import Fraction

import pytest

from arakelov.bundle import (degree, make_bundle, restrict_scalars, slope,
                             trivial_bundle)
from arakelov.errors import InvalidCosetError
from arakelov.intlinalg import rat_det
from arakelov.numberfield import make_field
from arakelov.sampler import (
    DEFAULT_PRIME,
    RandomLatticeSpec,
    _congruence_rows,
    _draw_coset,
    _quadratic_congruence_bundle,
    _split_prime_generator,
    hecke_integer_gram,
    hecke_unimodular,
    random_bundle,
    trial_rng,
)
from tests.oracles import congruence_grams_reference, restriction_deviations

Q = make_field("Q")


def test_spec_validation():
    with pytest.raises(ValueError):
        RandomLatticeSpec(n=1, p=101, seed=0, field=Q)
    with pytest.raises(ValueError):
        RandomLatticeSpec(n=3, p=100, seed=0, field=Q)


def test_trial_rng_streams_are_stable_and_disjoint():
    a = trial_rng(7, 3).integers(0, 2 ** 32, size=4)
    b = trial_rng(7, 3).integers(0, 2 ** 32, size=4)
    c = trial_rng(7, 4).integers(0, 2 ** 32, size=4)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_congruence_gram_determinant_and_membership():
    rng = random.Random(107)
    for _ in range(10):
        n = rng.randint(2, 5)
        p = rng.choice([101, 997, 100003])
        spec = RandomLatticeSpec(n=n, p=p, seed=0, field=Q)
        a = [rng.randrange(p) for _ in range(n)]
        if not any(a):
            a[0] = 1
        gram = hecke_integer_gram(spec, a)
        assert rat_det(gram) == p * p  # covolume exactly p
        # rows sorted by decreasing squared length
        diag = [gram[i][i] for i in range(n)]
        assert diag == sorted(diag, reverse=True)


def test_zero_coset_rejected():
    spec = RandomLatticeSpec(n=2, p=101, seed=0, field=Q)
    with pytest.raises(InvalidCosetError):
        hecke_integer_gram(spec, [0, 101])


def test_rank_two_rescaling_is_exact():
    spec = RandomLatticeSpec(n=2, p=13, seed=0, field=Q)
    E = hecke_unimodular(spec, [1, 5])
    assert rat_det(E.gram_real[0]) == 1
    assert abs(degree(E)) == 0.0


def test_known_rank_two_gram():
    # a = (1, 0) mod 2: sublattice 2Z x Z, reduced diag (2, 1), scaled by 1/2
    spec = RandomLatticeSpec(n=2, p=2, seed=0, field=Q)
    E = hecke_unimodular(spec, [1, 0])
    assert E.gram_real[0] == ((Fraction(2), Fraction(0)),
                              (Fraction(0), Fraction(1, 2)))


def test_sampler_slope_targeting():
    rng = random.Random(109)
    for name in ["Q", "Q(sqrt{-1})", "Q(sqrt{5})"]:
        K = make_field(name)
        for _ in range(4):
            n = rng.randint(2, 4)
            spec = RandomLatticeSpec(n=n, p=DEFAULT_PRIME, seed=rng.randrange(2 ** 30),
                                     field=K)
            target = rng.uniform(-1.0, 1.0)
            E = random_bundle(K, n, target, spec)
            assert abs(slope(E) - target) <= 1e-9


def test_sampler_is_reproducible():
    spec = RandomLatticeSpec(n=3, p=100003, seed=42, field=Q)
    E = random_bundle(Q, 3, 0.25, spec)
    F = random_bundle(Q, 3, 0.25, spec)
    assert E.gram_real == F.gram_real
    G = random_bundle(Q, 3, 0.25, spec, rng=trial_rng(42, 5))
    assert G.gram_real != E.gram_real


def test_sampler_spec_mismatch():
    spec = RandomLatticeSpec(n=3, p=100003, seed=42, field=Q)
    with pytest.raises(ValueError):
        random_bundle(Q, 4, 0.0, spec)
    with pytest.raises(ValueError):
        random_bundle(make_field("Q(sqrt{5})"), 3, 0.0, spec)


def test_quadratic_sampler_covolume_identity():
    # the slope correction must hold exactly through the canonical covolume
    for name in ["Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{5})"]:
        K = make_field(name)
        spec = RandomLatticeSpec(n=2, p=DEFAULT_PRIME, seed=11, field=K)
        E = random_bundle(K, 2, -0.3, spec)
        expected = K.discriminant ** 1.0 * math.exp(-degree(E))
        assert restrict_scalars(E).covolume() == pytest.approx(expected,
                                                               rel=1e-6)


def test_sampler_refuses_slopes_beyond_the_float_range():
    spec = RandomLatticeSpec(n=3, p=100003, seed=42, field=Q)
    for target in (-1000.0, 1000.0):
        with pytest.raises(ValueError, match=f"slope {target:g} is out"):
            random_bundle(Q, 3, target, spec)


def congruence_basis(field, n, rng):
    """The sampler's congruence submodule basis for one draw from rng:
    pi e_j for the pivot j, e_i - c_i e_j for the others."""
    q, pi = _split_prime_generator(field)
    pivot, mults = _congruence_rows(n, _draw_coset(rng, n, q), q)
    one, zero = field.element(1), field.element(0)
    rows = []
    for i in range(n):
        row = [one if j == i else zero for j in range(n)]
        row[pivot] = pi if i == pivot else field.element(-mults[i])
        rows.append(row)
    return rows


@pytest.mark.parametrize("D", [2, 5, -3])
def test_congruence_metric_is_within_the_stated_bound(D):
    # the float Grams of sampler draws lie within the bound
    # _restricted_bundle states of the exact restricted trivial metric
    K = make_field(f"Q(sqrt{{{D}}})")
    seeds = random.Random(73)
    for n in range(2, 6):
        for _ in range(4):
            seed, trial = seeds.randrange(10 ** 6), seeds.randrange(100)
            F = _quadratic_congruence_bundle(K, n, trial_rng(seed, trial))
            rows = congruence_basis(K, n, trial_rng(seed, trial))
            for dev, bound in restriction_deviations(trivial_bundle(K, n),
                                                     rows, F):
                assert dev <= bound


@pytest.mark.parametrize("D", [2, 3, 5, -1, -2, -3, -7])
def test_quadratic_congruence_bundle_matches_reference_grams(D):
    # the trivial metric restricted to the congruence submodule equals,
    # bit for bit, the embedded Grams of the basis computed directly
    K = make_field(f"Q(sqrt{{{D}}})")
    seeds = random.Random(61)
    for n in range(2, 7):
        for _ in range(6):
            seed, trial = seeds.randrange(10 ** 6), seeds.randrange(100)
            E = _quadratic_congruence_bundle(K, n, trial_rng(seed, trial))
            rows = congruence_basis(K, n, trial_rng(seed, trial))
            assert E == make_bundle(K, congruence_grams_reference(K, rows))
