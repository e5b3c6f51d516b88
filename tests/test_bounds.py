"""Existence bounds: zeta values, quotient volumes, thresholds, densities."""

import math
import random
import time
from fractions import Fraction

import pytest

from arakelov.bounds import (
    main_inequality,
    mh_bound,
    packing_density,
    quotient_volume,
    riemann_zeta_int,
    thresholds,
)
from arakelov.bundle import make_bundle, scale, tensor, trivial_bundle
from arakelov.errors import BudgetExceededError, UnsupportedFieldError
from arakelov.intlinalg import rat_det
from arakelov.lattice import shortest_vector
from arakelov.numberfield import ball_volume, make_field
from tests.oracles import (BALL_VOLUME_TABLE, E8_DENSITY, ZETA_TABLE, e8_gram,
                           random_pd_fraction_gram, sampler_bundles)

Q = make_field("Q")


def test_zeta_values_against_closed_forms():
    for n, value in ZETA_TABLE.items():
        assert riemann_zeta_int(n) == pytest.approx(value, abs=1e-12)
    assert riemann_zeta_int(3) == pytest.approx(1.2020569031595943, abs=1e-12)
    with pytest.raises(ValueError):
        riemann_zeta_int(1)
    with pytest.raises(ValueError):
        riemann_zeta_int(0)


def test_quotient_volume_exact():
    for n in (2, 3, 4, 5, 8):
        expected = BALL_VOLUME_TABLE[n] / (2.0 * ZETA_TABLE.get(
            n, riemann_zeta_int(n)))
        assert quotient_volume(Q, n) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(UnsupportedFieldError):
        quotient_volume(make_field("Q(sqrt{5})"), 4)
    with pytest.raises(ValueError):
        quotient_volume(Q, 1)
    with pytest.raises(ValueError):
        quotient_volume(Q, 4, mode="sideways")


def test_quotient_volume_upper_bound_dominates():
    for n in range(2, 17):
        assert quotient_volume(Q, n, "upper_bound") >= quotient_volume(Q, n)
    # and it stays finite and positive for quadratic fields
    for name in ("Q(sqrt{-1})", "Q(sqrt{5})"):
        K = make_field(name)
        v = quotient_volume(K, 6, "upper_bound")
        assert 0 < v < math.inf


def test_main_inequality_boundary():
    E = trivial_bundle(Q, 1)
    for n in range(4, 17):
        det_degree = -math.log(quotient_volume(Q, n))
        report = main_inequality(E, n, det_degree)
        assert report.values["value"] == pytest.approx(1.0, abs=1e-9)
        assert not report.values["tail_uncertain"]


def test_main_inequality_verdicts():
    E = trivial_bundle(Q, 1)
    low = main_inequality(E, 8, -2.0)
    assert low.verdict == "existence guaranteed"
    assert low.values["value"] < 1.0
    high = main_inequality(E, 8, 5.0)
    assert high.verdict == "not guaranteed"
    K = make_field("Q(sqrt{-1})")
    F = trivial_bundle(K, 1)
    report = main_inequality(F, 6, -8.0)
    assert report.verdict == "existence guaranteed (via upper bound)"
    # one degree shell at cutoff 0.5 leaves the tail unknown: a value of
    # 0.95 is no certificate
    unsure = main_inequality(trivial_bundle(Q, 2), 3, -1.696542,
                             {"cutoff": 0.5})
    assert unsure.values["tail_uncertain"]
    assert unsure.values["value"] == pytest.approx(0.95, abs=0.005)
    assert unsure.verdict == "indeterminate (tail uncertain)"
    # the one rank-1 term of degree -5 lies below the cutoff 4.5: it is the
    # tail, not a zero, so no certificate; the auto-cutoff takes it in
    e10 = make_bundle(Q, [[22026.465794806718]])
    omitted = main_inequality(e10, 4, 30.0, {"cutoff": 4.5})
    assert omitted.values["tail_uncertain"]
    assert omitted.values["value"] == 0.0
    assert omitted.verdict == "indeterminate (tail uncertain)"
    auto = main_inequality(e10, 4, 30.0)
    assert not auto.values["tail_uncertain"]
    assert auto.values["value"] == pytest.approx(50214.32, rel=1e-6)
    assert auto.verdict == "not guaranteed"


def test_main_inequality_terms_per_subbundle_rank():
    E = trivial_bundle(Q, 2)
    report = main_inequality(E, 6, -1.0, zeta_params={"cutoff": 3.0})
    assert len(report.values["terms"]) == 2
    assert report.values["value"] == pytest.approx(
        math.fsum(report.values["terms"]), abs=0)
    with pytest.raises(ValueError):
        main_inequality(E, 2, 0.0)  # twist rank must exceed rank E
    with pytest.raises(ValueError):
        main_inequality(E, 6, 0.0, zeta_params={"mystery": 1})
    # unsupported subbundle ranks fail before any enumeration
    for bundle, n, error in (
            (trivial_bundle(Q, 5), 6, BudgetExceededError),
            (trivial_bundle(make_field("Q(sqrt{-1})"), 3), 5,
             UnsupportedFieldError)):
        start = time.perf_counter()
        with pytest.raises(error):
            main_inequality(bundle, n, -1.0)
        assert time.perf_counter() - start < 5.0


def test_threshold_values_and_gap():
    report = thresholds(Q, 8, 1)
    assert report.values["corollary"] == pytest.approx(-0.379217762365,
                                                       abs=1e-9)
    assert report.values["converse"] == pytest.approx(0.313929418195,
                                                      abs=1e-9)
    report_eps = thresholds(Q, 8, 1, eps=0.05)
    assert report_eps.values["converse"] == pytest.approx(0.338929418195,
                                                          abs=1e-9)
    for name in ("Q", "Q(sqrt{-1})", "Q(sqrt{5})"):
        K = make_field(name)
        r = thresholds(K, 12, 2)
        d = K.degree
        assert r.values["gap"] == d * math.log(2.0)
        assert r.values["converse"] - r.values["corollary"] == pytest.approx(
            d * math.log(2.0), abs=1e-12)
        # the l = 1 intro threshold sits log 2 below the corollary shape
        r1 = thresholds(K, 12, 1)
        assert r1.values["intro"] == pytest.approx(r1.values["corollary"],
                                                   abs=1e-12)
    with pytest.raises(ValueError):
        thresholds(Q, 1)
    with pytest.raises(ValueError):
        thresholds(Q, 4, l=0)


def test_threshold_eps_shifts_converse_only():
    base = thresholds(Q, 10, 1, eps=0.0)
    shifted = thresholds(Q, 10, 1, eps=0.1)
    assert shifted.values["corollary"] == base.values["corollary"]
    assert shifted.values["converse"] - base.values["converse"] == \
        pytest.approx(0.05, abs=1e-12)  # d eps / 2 at d = 1


def test_packing_density():
    E8 = make_bundle(Q, [[Fraction(x) for x in row] for row in e8_gram()])
    assert packing_density(E8) == pytest.approx(E8_DENSITY, abs=1e-12)
    Z2 = trivial_bundle(Q, 2)
    assert packing_density(Z2) == pytest.approx(math.pi / 4, abs=1e-12)
    with pytest.raises(UnsupportedFieldError):
        packing_density(trivial_bundle(make_field("Q(sqrt{-1})"), 2))


def stored_gram_density(E) -> float:
    """The density formula on the stored Fraction Gram: exact shortest
    vector and rat_det of E.gram_real[0]."""
    gram = [list(row) for row in E.gram_real[0]]
    n = E.rank
    _, min_sq = shortest_vector(gram)
    return (ball_volume(n) * math.sqrt(float(min_sq ** n))
            / (2.0 ** n * math.sqrt(float(rat_det(gram)))))


def test_packing_density_matches_the_stored_gram_formula():
    # ranks 2-4: the hexagonal Gram, Fraction Grams, sampler draws, their
    # scales and a rank-4 product; packing_density reads the integer form
    # and the carried determinant, builds no Fraction Gram, and gives the
    # same float as the formula on the stored Gram
    rng = random.Random(29)
    bundles = [make_bundle(Q, [[2, 1], [1, 2]])]
    bundles += [make_bundle(Q, random_pd_fraction_gram(rng, n))
                for n in (2, 3, 4)]
    draws = list(sampler_bundles(Q, (2, 3, 4), 9, 29))
    A, B = sampler_bundles(Q, (2,), 2, 31)
    bundles += draws + [scale(E, 0.83) for E in draws] + [tensor(A, B)]
    assert {E.rank for E in bundles} == {2, 3, 4}
    for E in bundles:
        density = packing_density(E)
        assert "gram_real" not in E.__dict__
        assert density == stored_gram_density(E)


def test_mh_bound_and_boundary_identity():
    for n in (4, 8, 12):
        assert mh_bound(n) == pytest.approx(riemann_zeta_int(n) / 2 ** (n - 1),
                                            abs=1e-15)
    # at the critical slope the unit-ball density equals the guaranteed one
    for n in (4, 6, 8):
        mu_star = -math.log(quotient_volume(Q, n)) / n
        v_n = ball_volume(n)
        assert v_n * 2.0 ** (-n) * math.exp(n * mu_star) == pytest.approx(
            mh_bound(n), rel=1e-12)
