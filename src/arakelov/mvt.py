"""Monte Carlo check of the mean-value identity for tuple counts.

For a random unimodular lattice the expected number of ordered l-tuples of
rationally independent lattice vectors with |v_j| <= t_j equals the product
of the ball volumes.  The left side is estimated by averaging exact counts
over Hecke points mod p; the right side is the closed-form volume product.
Counts are exact integers: the enumeration envelope is slightly padded and
every candidate is re-checked via the integer comparison
(|v|^2_int)^n <= t^(2n) p^2, which sidesteps the irrational scaling p^(1/n).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import EnumerationCapError, MonteCarloDiscardError, UnsupportedFieldError
from .intlinalg import rat_rank
from .lattice import DEFAULT_NODE_CAP, enumerate_short_vectors
from .numberfield import NumberField, adelic_ball_volume, make_field
from .sampler import RandomLatticeSpec, _draw_coset, hecke_integer_gram, trial_rng

__all__ = [
    "MonteCarloEstimate",
    "MvtComparison",
    "mvt_compare",
    "mvt_lhs_estimate",
    "mvt_rhs",
    "summarize_trials",
]

MIN_TRIALS = 30

MAX_DISCARD_FRACTION = Fraction(1, 100)

TUPLE_CAP = 2_000_000


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    trials: int
    config: dict


@dataclass(frozen=True)
class MvtComparison:
    lhs: MonteCarloEstimate
    rhs: float
    z_score: float


def summarize_trials(results: list, config: dict) -> MonteCarloEstimate:
    """Sample mean and standard error of per-trial results, None marking a
    trial discarded for blowing the enumeration budget.

    More than 1% discards raises MonteCarloDiscardError; the estimate's
    config is the given one plus the discard count.
    """
    values = [x for x in results if x is not None]
    discarded = len(results) - len(values)
    if discarded > MAX_DISCARD_FRACTION * len(results):
        raise MonteCarloDiscardError(
            f"{discarded} of {len(results)} trials exceeded the enumeration "
            f"budget (more than 1%)")
    m = len(values)
    mean = math.fsum(values) / m
    variance = math.fsum((x - mean) ** 2 for x in values) / (m - 1)
    return MonteCarloEstimate(mean=mean, std_error=math.sqrt(variance / m),
                              trials=m,
                              config={**config, "discarded": discarded})


def _check_shape(n: int, l: int, radii) -> tuple[Fraction, ...]:
    if not 1 <= l < n:
        raise ValueError("tuple length must satisfy 1 <= l < n")
    radii = tuple(Fraction(t) for t in radii)
    if len(radii) != l:
        raise ValueError(f"expected {l} radii, got {len(radii)}")
    if any(t <= 0 for t in radii):
        raise ValueError("radii must be positive")
    return radii


def mvt_rhs(field: NumberField, n: int, l: int, radii) -> float:
    """Product of adelic ball volumes: the exact mean of the tuple count."""
    radii = _check_shape(n, l, radii)
    disc = abs(field.discriminant)
    ball = adelic_ball_volume(field, n)
    log_value = 0.0
    for t in radii:
        log_value += (math.log(ball) + n * field.degree * math.log(t)
                      - 0.5 * n * math.log(disc))
    return math.exp(log_value)


def _primitive_core(x: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*x)
    return tuple(v // g for v in x)


def _count_tuples(gram: list[list[int]], p: int, n: int, l: int,
                  radii: tuple[Fraction, ...], node_cap: int) -> int:
    """Exact number of ordered l-tuples of independent vectors of the scaled
    lattice with |v_j| <= t_j; the j-th ball in integer coordinates is
    Q(x)^n <= t_j^(2n) p^2."""
    caps = [t ** (2 * n) * p * p for t in radii]
    tmax = max(radii)
    envelope = float(tmax * tmax) * p ** (2.0 / n) * (1.0 + 1e-9) + 1e-9
    members: list[list[tuple[int, ...]]] = [[] for _ in range(l)]
    for x, _ in enumerate_short_vectors(gram, envelope, node_cap=node_cap):
        q = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
        qn = q ** n
        for j in range(l):
            if qn <= caps[j]:
                members[j].append(x)
    if l == 1:
        return 2 * len(members[0])
    if l == 2:
        lines: dict[tuple[int, ...], list[int]] = {}
        for j in (0, 1):
            for x in members[j]:
                lines.setdefault(_primitive_core(x), [0, 0])[j] += 1
        collinear = sum(m0 * m1 for m0, m1 in lines.values())
        return 4 * (len(members[0]) * len(members[1]) - collinear)
    size = 1
    for j in range(l):
        size *= 2 * len(members[j])
        if size > TUPLE_CAP:
            raise EnumerationCapError(
                f"tuple iteration space exceeds {TUPLE_CAP}", nodes=size)
    signed = [[tuple(s * v for v in x) for x in members[j] for s in (1, -1)]
              for j in range(l)]
    count = 0
    for tup in product(*signed):
        if rat_rank(tup, n) == l:
            count += 1
    return count


def _one_trial(args) -> int | None:
    """Count for one trial, or None when the enumeration budget was hit."""
    n, l, radii, p, seed, trial, node_cap = args
    rng = trial_rng(seed, trial)
    a = _draw_coset(rng, n, p)
    spec = RandomLatticeSpec(n=n, p=p, seed=seed, field=make_field("Q"))
    gram = hecke_integer_gram(spec, a)
    try:
        return _count_tuples(gram, p, n, l, radii, node_cap)
    except EnumerationCapError:
        return None


def mvt_lhs_estimate(n: int, l: int, radii, trials: int,
                     spec: RandomLatticeSpec, rng=None, threads: int = 1,
                     node_cap: int = DEFAULT_NODE_CAP) -> MonteCarloEstimate:
    """Sample mean of the exact tuple count over random Hecke points.

    Only rational bundles are sampled here.  Trials whose enumeration blows
    the node budget are discarded; more than 1% discards aborts the run.
    With the default per-trial streams the result does not depend on
    threads; passing an explicit rng forces a single serial stream.
    """
    radii = _check_shape(n, l, radii)
    if not spec.field.is_rational():
        raise UnsupportedFieldError(
            "tuple-count sampling is only implemented over Q")
    if spec.n != n:
        raise ValueError("spec rank disagrees with n")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")

    results: list[int | None]
    if rng is not None:
        results = []
        for _ in range(trials):
            a = _draw_coset(rng, n, spec.p)
            gram = hecke_integer_gram(spec, a)
            try:
                results.append(_count_tuples(gram, spec.p, n, l, radii,
                                             node_cap))
            except EnumerationCapError:
                results.append(None)
    else:
        jobs = [(n, l, radii, spec.p, spec.seed, t, node_cap)
                for t in range(trials)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_one_trial, jobs, chunksize=16))
        else:
            results = [_one_trial(job) for job in jobs]

    return summarize_trials(results, {
        "n": n, "l": l, "radii": tuple(float(t) for t in radii),
        "p": spec.p, "seed": spec.seed, "requested_trials": trials})


def mvt_compare(n: int, l: int, radii, trials: int, spec: RandomLatticeSpec,
                rng=None, threads: int = 1,
                node_cap: int = DEFAULT_NODE_CAP) -> MvtComparison:
    """Estimate the mean tuple count and compare it with the volume product."""
    lhs = mvt_lhs_estimate(n, l, radii, trials, spec, rng=rng,
                           threads=threads, node_cap=node_cap)
    rhs = mvt_rhs(spec.field, n, l, radii)
    diff = lhs.mean - rhs
    if lhs.std_error > 0:
        z = diff / lhs.std_error
    else:
        z = 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return MvtComparison(lhs=lhs, rhs=rhs, z_score=z)
