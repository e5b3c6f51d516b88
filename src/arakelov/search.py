"""Randomized search for twists with no nonzero global section.

When the averaged section count at the requested slope is below one, a
positive fraction of random bundles works, so repeated sampling finds a
witness quickly; the witness ships with a complete (untruncated) empty
section report as its certificate.  Slopes at or above the converse
threshold are hopeless and short-circuit, though for small ranks that
threshold is only advisory, so one sampled bundle double-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bundle import ArakelovBundle, slope, tensor
from .bounds import main_inequality, thresholds
from .errors import (BudgetExceededError, EnumerationCapError,
                     UnsupportedFieldError)
from .lattice import DEFAULT_NODE_CAP
from .mvt import MIN_TRIALS, MonteCarloEstimate, summarize_trials
from .sampler import RandomLatticeSpec, random_bundle, trial_rng
from .sections import SectionReport, global_sections, has_nonzero_section
from .zeta import mu_max

__all__ = [
    "SearchOutcome",
    "expected_section_count",
    "find_section_free",
    "success_rate_experiment",
]

DIMENSION_BUDGET = 32

CONVERSE_EPS = 0.05

# Below this twist rank the converse threshold is asymptotic-only, so a
# blocked verdict must be backed by one sampled counterexample attempt.
CONVERSE_CONFIRM_RANK = 16


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: ArakelovBundle | None
    attempts: int
    expected_count: float
    certificate: SectionReport | None


def expected_section_count(E: ArakelovBundle, n: int, mu: float,
                           zeta_params: dict | None = None) -> float:
    """Mean number of section classes of a random rank-n twist of E at
    slope mu; a value below one lower-bounds the per-draw success chance
    by one minus the value."""
    return main_inequality(E, n, n * mu, zeta_params).values["value"]


def _check_search_shape(E: ArakelovBundle, n: int, mu: float,
                        allow_large: bool):
    if n <= E.rank:
        raise ValueError("twist rank must exceed the rank of E")
    if not math.isfinite(mu):
        raise ValueError("slope must be finite")
    dim = E.rank * n * E.field.degree
    if dim > DIMENSION_BUDGET and not allow_large:
        raise BudgetExceededError(
            f"tensor enumeration dimension {dim} exceeds the default budget "
            f"{DIMENSION_BUDGET}; pass allow_large to override")


def _max_subbundle_slope(E: ArakelovBundle, l: int,
                         node_cap: int) -> float | None:
    """Best slope among rank-l subbundles, or None when it cannot be
    certified within budget; None just disables the l-th converse test."""
    floor = l * (slope(E) - 2.0) - 1.0
    for _ in range(3):
        try:
            value, exact = mu_max(E, l, floor, node_cap)
        except (BudgetExceededError, UnsupportedFieldError,
                EnumerationCapError):
            return None
        if exact:
            return value
        floor -= 2.0 * l
    return None


def _converse_blocked(E: ArakelovBundle, n: int, mu: float, eps: float,
                      node_cap: int) -> bool:
    for l in range(1, E.rank + 1):
        best = _max_subbundle_slope(E, l, node_cap)
        if best is None:
            continue
        bound = thresholds(E.field, n, l, eps).values["converse"]
        if mu + best >= bound:
            return True
    return False


def find_section_free(E: ArakelovBundle, n: int, mu: float, max_trials: int,
                      spec: RandomLatticeSpec, rng=None,
                      eps: float = CONVERSE_EPS,
                      node_cap: int = DEFAULT_NODE_CAP,
                      allow_large: bool = False) -> SearchOutcome:
    """Draw random slope-mu twists until one has no nonzero section.

    Returns the lowest-index success with a complete empty section report.
    Slopes that land above the converse threshold for some subbundle rank
    return blocked_by_converse instead of burning trials; for twist ranks
    below 16 that verdict is confirmed on one sample first, and if the
    sample itself turns out section-free it is returned as a find.
    """
    _check_search_shape(E, n, mu, allow_large)
    expected = expected_section_count(E, n, mu)

    def attempt(trial: int) -> SearchOutcome | None:
        stream = rng if rng is not None else trial_rng(spec.seed, trial)
        F = random_bundle(E.field, n, mu, spec, stream)
        product = tensor(E, F)
        if has_nonzero_section(product, node_cap=node_cap):
            return None
        certificate = global_sections(product, node_cap=node_cap)
        return SearchOutcome(status="found", witness=F, attempts=trial + 1,
                             expected_count=expected,
                             certificate=certificate)

    if _converse_blocked(E, n, mu, eps, node_cap):
        attempts = 0
        if n < CONVERSE_CONFIRM_RANK:
            outcome = attempt(0)
            if outcome is not None:
                return outcome
            attempts = 1
        return SearchOutcome(status="blocked_by_converse", witness=None,
                             attempts=attempts, expected_count=expected,
                             certificate=None)

    for trial in range(max_trials):
        outcome = attempt(trial)
        if outcome is not None:
            return outcome
    return SearchOutcome(status="exhausted", witness=None,
                         attempts=max_trials, expected_count=expected,
                         certificate=None)


def success_rate_experiment(E: ArakelovBundle, n: int, mu: float,
                            trials: int, spec: RandomLatticeSpec, rng=None,
                            node_cap: int = DEFAULT_NODE_CAP,
                            allow_large: bool = False) -> MonteCarloEstimate:
    """Observed fraction of random slope-mu twists with zero sections.

    The first-moment prediction says this fraction is at least one minus
    expected_section_count; trials that blow the enumeration budget are
    discarded, more than 1% of them aborts."""
    _check_search_shape(E, n, mu, allow_large)
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    outcomes: list[int | None] = []
    for trial in range(trials):
        stream = rng if rng is not None else trial_rng(spec.seed, trial)
        F = random_bundle(E.field, n, mu, spec, stream)
        try:
            hit = has_nonzero_section(tensor(E, F), node_cap=node_cap)
        except EnumerationCapError:
            outcomes.append(None)
            continue
        outcomes.append(0 if hit else 1)
    return summarize_trials(outcomes, {
        "n": n, "mu": mu, "p": spec.p, "seed": spec.seed,
        "requested_trials": trials})
