"""Randomized search for twists with no nonzero global section.

When the averaged section count at the requested slope is below one, a
positive fraction of random bundles works, so repeated sampling finds a
witness quickly; the witness ships with a complete (untruncated) empty
section report as its certificate.  Slopes at or above the converse
threshold are hopeless and short-circuit, though for small ranks that
threshold is only advisory, so one sampled bundle double-checks it.
The converse check compares mu + zeta.mu_max(E, l), which reads one
window, with the converse threshold at (n, l) for each rank l of E; a rank
out of the enumeration's scope or past the node cap is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bundle import ArakelovBundle, tensor
from .bounds import main_inequality, thresholds
from .errors import (BudgetExceededError, EnumerationCapError,
                     UnsupportedFieldError)
from .lattice import DEFAULT_NODE_CAP
from .mvt import MIN_TRIALS, MonteCarloEstimate, summarize_trials
from .sampler import RandomLatticeSpec, random_bundle, trial_rng
from .sections import SectionReport, _empty_report, has_nonzero_section
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
                           node_cap: int = DEFAULT_NODE_CAP) -> float:
    """Mean number of section classes of a random rank-n twist of E at
    slope mu, determinant degree n * mu.  For a rank-1 E one minus it is a
    floor on the per-draw success chance; for rank >= 2 it is a partial
    sum, each rank below the full one read at zeta.DEFAULT_CUTOFF."""
    return main_inequality(E, n, n * mu,
                           {"node_cap": node_cap}).values["value"]


def _draw_twist(E: ArakelovBundle, n: int, mu: float,
                spec: RandomLatticeSpec,
                trial: int) -> tuple[ArakelovBundle, ArakelovBundle]:
    """The trial-th random slope-mu twist F, drawn from its own stream,
    and the product E (x) F."""
    F = random_bundle(E.field, n, mu, spec, trial_rng(spec.seed, trial))
    return F, tensor(E, F)


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


def _converse_blocked(E: ArakelovBundle, n: int, mu: float, eps: float,
                      node_cap: int) -> bool:
    """Whether mu plus the largest slope of a rank-l subbundle of E reaches
    the converse threshold for some l it can read."""
    for l in range(1, E.rank + 1):
        try:
            best = mu_max(E, l, node_cap)
        except (BudgetExceededError, UnsupportedFieldError,
                EnumerationCapError):
            continue
        bound = thresholds(E.field, n, l, eps).values["converse"]
        if mu + best >= bound:
            return True
    return False


def find_section_free(E: ArakelovBundle, n: int, mu: float, max_trials: int,
                      spec: RandomLatticeSpec,
                      eps: float = CONVERSE_EPS,
                      node_cap: int = DEFAULT_NODE_CAP,
                      allow_large: bool = False) -> SearchOutcome:
    """Draw random slope-mu twists until one has no nonzero section.

    Returns the lowest-index success with a complete empty section report:
    the certificate is the sweep that found no section on the product.
    Slopes that land above the converse threshold for some subbundle rank
    return blocked_by_converse instead of burning trials; for twist ranks
    below 16 that verdict is confirmed on one sample first, and if the
    sample itself turns out section-free it is returned as a find.
    """
    _check_search_shape(E, n, mu, allow_large)
    if max_trials < 1:
        raise ValueError(f"need at least 1 trial, got {max_trials}")
    expected = expected_section_count(E, n, mu, node_cap)

    def attempt(trial: int) -> SearchOutcome | None:
        F, product = _draw_twist(E, n, mu, spec, trial)
        certificate = _empty_report(product, node_cap)
        if certificate is None:
            return None
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
                            trials: int, spec: RandomLatticeSpec,
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
        _, product = _draw_twist(E, n, mu, spec, trial)
        try:
            hit = has_nonzero_section(product, node_cap=node_cap)
        except EnumerationCapError:
            outcomes.append(None)
            continue
        outcomes.append(0 if hit else 1)
    return summarize_trials(outcomes, {
        "n": n, "mu": mu, "p": spec.p, "seed": spec.seed,
        "requested_trials": trials})
