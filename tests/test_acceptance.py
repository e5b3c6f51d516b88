"""Acceptance suite: one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass; on failure the same line appears in the assertion message.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from arakelov.bounds import (
    main_inequality,
    packing_density,
    quotient_volume,
    thresholds,
)
from arakelov.bundle import (
    degree,
    determinant,
    dual,
    make_bundle,
    restrict_scalars,
    scale,
    slope,
    tensor,
    trivial_bundle,
)
from arakelov.mvt import mvt_compare
from arakelov.numberfield import divisor, make_field
from arakelov.sampler import (
    DEFAULT_PRIME,
    RandomLatticeSpec,
    random_bundle,
    trial_rng,
)
from arakelov.search import find_section_free, success_rate_experiment
from arakelov.sections import global_sections, has_nonzero_section
from arakelov.zeta import enumerate_subbundles, mu_max, zeta_partial
from tests.oracles import (
    E8_DENSITY,
    e8_gram,
    gaussian_sections_brute,
    primitive_plane_vectors,
    random_pd_fraction_gram,
    rational_sections_brute,
)
from tests.test_bundle import random_bundle as random_algebra_bundle
from tests.test_bundle import random_hermitian_gram

Q = make_field("Q")


def verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_mean_value_rank_one():
    start = time.perf_counter()
    scores = {}
    for n in (3, 4, 5):
        spec = RandomLatticeSpec(n=n, p=100003, seed=424242, field=Q)
        comp = mvt_compare(n, 1, (Fraction(1),), 2000, spec)
        assert comp.rhs == pytest.approx(
            {3: 4.18879, 4: 4.93480, 5: 5.26379}[n], abs=1e-4)
        scores[n] = comp.z_score
    outliers = [n for n, z in scores.items() if abs(z) > 3.0]
    if len(outliers) == 1:  # one 3-sigma excursion gets a fresh-seed rerun
        n = outliers[0]
        spec = RandomLatticeSpec(n=n, p=100003, seed=424243, field=Q)
        scores[n] = mvt_compare(n, 1, (Fraction(1),), 2000, spec).z_score
        outliers = [n] if abs(scores[n]) > 3.0 else []
    elapsed = time.perf_counter() - start
    zs = ", ".join(f"z({n}) = {z:+.2f}" for n, z in sorted(scores.items()))
    verdict(1, not outliers and elapsed < 3 * 300.0,
            f"{zs}; {elapsed:.1f}s")


def test_criterion_2_mean_value_rank_two():
    start = time.perf_counter()
    spec = RandomLatticeSpec(n=3, p=100003, seed=424242, field=Q)
    comp = mvt_compare(3, 2, (Fraction(1), Fraction(1)), 2000, spec)
    assert comp.rhs == pytest.approx(17.546, abs=1e-3)
    elapsed = time.perf_counter() - start
    verdict(2, abs(comp.z_score) <= 4.0 and elapsed < 600.0,
            f"z = {comp.z_score:+.2f}; {elapsed:.1f}s")


def test_criterion_3_section_free_fifth_power_search():
    start = time.perf_counter()
    E = trivial_bundle(Q, 1)
    mu = -math.log(3.0) / 5.0
    spec = RandomLatticeSpec(n=5, p=DEFAULT_PRIME, seed=424242, field=Q)

    outcome = find_section_free(E, 5, mu, 200, spec)
    assert outcome.status == "found" and outcome.attempts <= 200
    assert outcome.expected_count == pytest.approx(0.846, abs=5e-4)
    assert outcome.certificate.nonzero_sections == ()
    # the witness claim re-checked by plain box enumeration
    assert rational_sections_brute(outcome.witness.gram_real[0]) == set()

    est = success_rate_experiment(E, 5, mu, 500, spec)
    floor = 0.154 - 3.0 * est.std_error
    elapsed = time.perf_counter() - start
    verdict(3, est.mean >= floor and elapsed < 600.0,
            f"found in {outcome.attempts} trial(s), rate {est.mean:.3f} "
            f">= {floor:.3f}; {elapsed:.1f}s")


def test_criterion_4_boundary_self_consistency():
    E = trivial_bundle(Q, 1)
    worst = 0.0
    for n in range(4, 17):
        det_deg = -math.log(quotient_volume(Q, n))
        report = main_inequality(E, n, det_deg)
        assert not report.values["tail_uncertain"]
        worst = max(worst, abs(report.values["value"] - 1.0))
    verdict(4, worst <= 1e-9, f"max |value - 1| = {worst:.2e} over n = 4..16")


def test_criterion_5_converse_slope_forces_sections():
    start = time.perf_counter()
    hits = 0
    for n in (6, 8, 10, 12):
        mu = thresholds(Q, n, 1, eps=0.05).values["converse"]
        spec = RandomLatticeSpec(n=n, p=DEFAULT_PRIME, seed=871000 + n,
                                 field=Q)
        for trial in range(25):
            F = random_bundle(Q, n, mu, spec, trial_rng(spec.seed, trial))
            hits += bool(has_nonzero_section(F))
    elapsed = time.perf_counter() - start
    verdict(5, hits == 100 and elapsed < 300.0,
            f"{hits}/100 bundles have a section; {elapsed:.1f}s")


def test_criterion_6_threshold_gap_identity():
    worst = 0.0
    for name in ("Q", "Q(sqrt{-1})", "Q(sqrt{5})"):
        K = make_field(name)
        target = K.degree * math.log(2.0)
        for n in (2, 5, 9):
            for l in (1, 2):
                v = thresholds(K, n, l, eps=0.0).values
                worst = max(worst, abs(v["converse"] - v["corollary"]
                                       - target))
    verdict(6, worst <= 1e-12, f"max |gap - d log 2| = {worst:.2e}")


def test_criterion_7_degree_algebra_suite():
    start = time.perf_counter()
    rng = random.Random(20260814)
    fields = [make_field(s) for s in
              ("Q", "Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{5})")]
    worst = {"product": 0.0, "tensor": 0.0, "det": 0.0, "dual": 0.0,
             "scale": 0.0, "covolume": 0.0}
    for i in range(500):
        K = fields[i % len(fields)]
        d = K.degree

        a, b = rng.randint(-30, 30), rng.randint(-9, 9) * (d - 1)
        if (a, b) == (0, 0):
            a = 1
        x = K.divide(K.element(a, b), K.element(rng.randint(1, 6), 0))
        worst["product"] = max(worst["product"],
                               abs(float(divisor(K, x).product()) - 1.0))

        E = random_algebra_bundle(rng, K, rng.randint(1, 2))
        F = random_algebra_bundle(rng, K, rng.randint(1, 2))
        worst["tensor"] = max(worst["tensor"],
                              abs(slope(tensor(E, F)) - slope(E) - slope(F)))

        G = random_algebra_bundle(rng, K, rng.randint(1, 3))
        worst["det"] = max(worst["det"],
                           abs(degree(determinant(G)) - degree(G)))
        worst["dual"] = max(worst["dual"], abs(degree(dual(G)) + degree(G)))

        t = rng.uniform(0.25, 4.0)
        worst["scale"] = max(worst["scale"],
                             abs(degree(scale(G, t))
                                 - (degree(G) - G.rank * d * math.log(t))))

        predicted = (abs(K.discriminant) ** (G.rank / 2.0)
                     * math.exp(-degree(G)))
        rel = abs(restrict_scalars(G).covolume() / predicted - 1.0)
        worst["covolume"] = max(worst["covolume"], rel)
    elapsed = time.perf_counter() - start
    ok = (all(worst[k] <= 1e-9 for k in
              ("product", "tensor", "det", "dual", "scale"))
          and worst["covolume"] <= 1e-6 and elapsed < 60.0)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    verdict(7, ok, f"500 instances each; max errors: {detail}; "
            f"{elapsed:.1f}s")


def test_criterion_8_line_zeta_oracle():
    E = trivial_bundle(Q, 2)
    ok = True
    for T in (0.25, math.log(2.0), 1.0, math.log(5.0)):
        cap = Fraction(math.exp(2.0 * T))  # library's float-image cap
        oracle = sorted(Fraction(x * x + y * y)
                        for x, y in primitive_plane_vectors(26)
                        if x * x + y * y <= cap)
        got = sorted(Fraction(int(r.basis[0][0]) ** 2
                              + int(r.basis[0][1]) ** 2)
                     for r in enumerate_subbundles(E, 1, -T))
        ok = ok and got == oracle

    zp = zeta_partial(E, 1, 6.0, math.log(2.0))
    ok = ok and zp.terms == 4
    ok = ok and abs(zp.partial_sum - 2.25) <= 1e-12

    top = mu_max(E, 1)
    parts = {s: zeta_partial(E, 1, s, 4.0).partial_sum for s in (8, 12, 16)}
    C = max(p / math.exp(s * top) for s, p in parts.items())
    bounded = all(p <= C * math.exp(s * top) * (1 + 1e-12)
                  for s, p in parts.items())
    ok = ok and math.isfinite(C) and bounded
    verdict(8, ok, f"term multisets match through cutoff log 5, partial sum "
            f"{zp.partial_sum:.6g} at s = 6, fitted C = {C:.3f}")


def test_criterion_9_section_enumeration_oracle():
    start = time.perf_counter()
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        G = random_pd_fraction_gram(rng, n, denominator=rng.choice([1, 4, 9]))
        report = global_sections(make_bundle(Q, G))
        assert not report.truncated
        got = {tuple(v) for v in report.nonzero_sections}
        mismatches += got != rational_sections_brute(G)

    Qi = make_field("Q(sqrt{-1})")
    for _ in range(50):
        n = rng.randint(1, 2)
        H = [[z / 4 for z in row] for row in random_hermitian_gram(rng, n)]
        E = make_bundle(Qi, H)
        report = global_sections(E)
        assert not report.truncated
        got = {tuple((x.a, x.b) for x in v) for v in report.nonzero_sections}
        re_m, im_m = E.gram_complex[0]
        mismatches += got != gaussian_sections_brute(re_m, im_m)

    E8 = make_bundle(Q, e8_gram())
    e8_report = global_sections(E8)
    density = packing_density(E8)
    ok = (mismatches == 0 and e8_report.nonzero_sections == ()
          and abs(density - E8_DENSITY) <= 1e-9)
    elapsed = time.perf_counter() - start
    verdict(9, ok, f"250 brute-force comparisons, {mismatches} mismatches; "
            f"E8 sections {len(e8_report.nonzero_sections)}, density "
            f"{density:.6f}; {elapsed:.1f}s")
