"""Randomized search for section-free twists."""

import math

import pytest

from arakelov import search
from arakelov.bounds import quotient_volume, thresholds
from arakelov.bundle import make_bundle, tensor, trivial_bundle
from arakelov.errors import BudgetExceededError, EnumerationCapError
from arakelov.numberfield import make_field
from arakelov.sampler import (DEFAULT_PRIME, RandomLatticeSpec,
                              random_bundle, trial_rng)
from arakelov.search import (
    expected_section_count,
    find_section_free,
    success_rate_experiment,
)
from arakelov.sections import SectionReport, global_sections
from arakelov.zeta import mu_max

Q = make_field("Q")


def line_spec(n, seed):
    return RandomLatticeSpec(n=n, p=DEFAULT_PRIME, seed=seed, field=Q)


def test_expected_count_closed_form():
    E = trivial_bundle(Q, 1)
    for n in (4, 6, 8):
        mu = -0.4
        expected = quotient_volume(Q, n) * math.exp(n * mu)
        got = expected_section_count(E, n, mu)
        assert got == pytest.approx(expected, rel=1e-12)
    # the classical five-dimensional instance
    val = expected_section_count(E, 5, -math.log(3.0) / 5.0)
    assert val == pytest.approx(0.8460552479516009, rel=1e-9)
    # the node cap reaches the zeta enumeration behind the count
    with pytest.raises(EnumerationCapError):
        expected_section_count(trivial_bundle(Q, 2), 5, -0.4, node_cap=1)


def test_shape_checks(monkeypatch):
    E = trivial_bundle(Q, 2)
    spec = line_spec(3, 0)
    with pytest.raises(ValueError):
        find_section_free(E, 2, 0.0, 5, spec)
    with pytest.raises(ValueError):
        find_section_free(E, 5, math.inf, 5, spec)
    with pytest.raises(BudgetExceededError):
        # 2 * 18 * 1 = 36 > 32 without the override
        find_section_free(E, 18, -5.0, 5, line_spec(18, 0))

    # a trial count below one is refused before the expected count
    def never(*args, **kwargs):
        raise AssertionError("expected_section_count ran")

    monkeypatch.setattr(search, "expected_section_count", never)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="at least 1 trial"):
            find_section_free(trivial_bundle(Q, 1), 5, -0.2, trials,
                              line_spec(5, 0))


def test_find_section_free_and_reverify():
    E = trivial_bundle(Q, 1)
    mu = -math.log(3.0) / 5.0
    outcome = find_section_free(E, 5, mu, 200, line_spec(5, 424242))
    assert outcome.status == "found"
    assert outcome.attempts <= 200
    assert outcome.certificate.nonzero_sections == ()
    assert not outcome.certificate.truncated
    # witness re-verified through the public scanner
    report = global_sections(tensor(E, outcome.witness))
    assert report.nonzero_sections == ()
    assert outcome.expected_count == pytest.approx(0.846055, abs=1e-6)


def test_low_slope_always_finds_immediately():
    E = trivial_bundle(Q, 1)
    outcome = find_section_free(E, 4, -2.0, 10, line_spec(4, 7))
    assert outcome.status == "found"
    assert outcome.attempts == 1


def test_blocked_by_converse():
    E = trivial_bundle(Q, 1)
    bound = thresholds(Q, 8, 1, eps=0.05).values["converse"]
    outcome = find_section_free(E, 8, bound + 0.2, 50, line_spec(8, 11))
    assert outcome.status == "blocked_by_converse"
    assert outcome.attempts == 1  # the confirming sample had a section
    assert outcome.witness is None


def test_blocked_without_confirmation_at_large_rank():
    E = trivial_bundle(Q, 1)
    spec = RandomLatticeSpec(n=16, p=DEFAULT_PRIME, seed=1, field=Q)
    outcome = find_section_free(E, 16, 2.0, 50, spec,
                                allow_large=False)
    assert outcome.status == "blocked_by_converse"
    assert outcome.attempts == 0


def test_exhausted_when_sections_always_appear():
    E = trivial_bundle(Q, 1)
    # slope high enough that sections are everywhere, but still below the
    # converse threshold so trials actually run
    bound = thresholds(Q, 4, 1, eps=0.05).values["converse"]
    mu = bound - 0.02
    outcome = find_section_free(E, 4, mu, 3, line_spec(4, 13))
    assert outcome.status in ("exhausted", "found")
    if outcome.status == "exhausted":
        assert outcome.attempts == 3
        assert outcome.witness is None


def test_search_over_a_rank_two_gram_returns():
    # the expected count made before the first draw reads one zeta window
    # per rank, so a search over a rank-2 Gram gets to its draws
    E = make_bundle(Q, [[2, 1], [1, 2]])
    outcome = find_section_free(E, 3, -1.0, 5,
                                RandomLatticeSpec(3, DEFAULT_PRIME, 0, Q))
    assert outcome.status == "found"
    assert outcome.certificate.nonzero_sections == ()
    assert 0 < outcome.expected_count < math.inf


def test_search_over_a_rank_three_gram_keeps_its_outcome():
    # the converse check used to stream 5.7 M hyperplanes of this Gram at
    # l = 2 to take one maximum; mu_max reads one window, and the outcome
    # is the one the stream gave
    E = make_bundle(Q, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    outcome = find_section_free(E, 4, -1.0, 3, line_spec(4, 0))
    assert (outcome.status, outcome.attempts) == ("found", 1)
    assert outcome.certificate == SectionReport(
        nonzero_sections=(), truncated=False, nodes_visited=12,
        certificate=1.0)


def test_converse_check_reads_every_rank_of_a_rank_four_bundle(monkeypatch):
    # at l = 2 and 3 a floor below the maximum used to walk past the node
    # cap, and those ranks went unchecked; at 10^4 nodes each is read now
    E = random_bundle(Q, 4, 0.0, RandomLatticeSpec(4, 100003, 0, Q),
                      trial_rng(0, 7))
    read = []

    def spy(E, l, node_cap):
        value = mu_max(E, l, node_cap)
        read.append(l)
        return value

    monkeypatch.setattr(search, "mu_max", spy)
    gap = thresholds(Q, 5, 1, eps=0.05).values["converse"] - mu_max(E, 1)
    assert search._converse_blocked(E, 5, gap + 0.1, 0.05, 10 ** 4)
    assert read == [1]
    assert not search._converse_blocked(E, 5, gap - 0.1, 0.05, 10 ** 4)
    assert read == [1, 1, 2, 3, 4]


def test_success_rate_experiment():
    E = trivial_bundle(Q, 1)
    mu = -math.log(3.0) / 5.0
    est = success_rate_experiment(E, 5, mu, 60, line_spec(5, 424242))
    assert 0.0 <= est.mean <= 1.0
    floor = 1.0 - expected_section_count(E, 5, mu)
    assert est.mean >= floor - 3.0 * est.std_error
    assert est.config["requested_trials"] == 60
    assert est.config["discarded"] == 0
    with pytest.raises(ValueError):
        success_rate_experiment(E, 5, mu, 10, line_spec(5, 0))


def test_success_rate_extremes():
    E = trivial_bundle(Q, 1)
    sure = success_rate_experiment(E, 4, -2.0, 40, line_spec(4, 17))
    assert sure.mean == 1.0
    bound = thresholds(Q, 4, 1, eps=0.0).values["converse"]
    never = success_rate_experiment(E, 4, bound + 0.5, 40, line_spec(4, 19))
    assert never.mean == 0.0


@pytest.mark.parametrize("desc, n", [("Q", 5), ("Q(sqrt{-1})", 4),
                                     ("Q(sqrt{-3})", 4), ("Q(sqrt{5})", 4)])
def test_certificate_is_the_full_sweep(desc, n):
    # the sweep that found no section is the certificate: it equals the
    # report global_sections gives for the same product, nodes included
    K = make_field(desc)
    E = trivial_bundle(K, 1)
    th = thresholds(K, n, 1, 0.05).values
    found = 0
    for frac in (0.0, 0.5):
        mu = th["corollary"] + frac * (th["converse"] - th["corollary"])
        for seed in range(5):
            spec = RandomLatticeSpec(n=n, p=DEFAULT_PRIME, seed=seed, field=K)
            outcome = find_section_free(E, n, mu, 24, spec)
            if outcome.status != "found":
                continue
            found += 1
            assert outcome.certificate == global_sections(
                tensor(E, outcome.witness))
    assert found
