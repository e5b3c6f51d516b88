"""Existence bounds for section-free bundles and their packing consequences.

The central quantity is an averaged count of section classes: when the
weighted sum over subbundle ranks falls below one, some twist of the given
bundle has no nonzero section.  Slope thresholds make the sum-below-one
condition explicit, and over Q the same computation reproduces the
Minkowski-Hlawka packing bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bundle import ArakelovBundle, degree
from .errors import UnsupportedFieldError
from .lattice import DEFAULT_NODE_CAP, MAX_EXPONENT, shortest_vector
from .numberfield import NumberField, ball_volume
from .zeta import (DEFAULT_CUTOFF, ZetaPartial, check_subbundle_scope,
                   zeta_partial)

__all__ = [
    "BoundReport",
    "main_inequality",
    "mh_bound",
    "packing_density",
    "quotient_volume",
    "riemann_zeta_int",
    "thresholds",
]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: what was computed, from which inputs, the
    numbers, and the conclusion they support."""

    kind: str
    inputs: dict
    values: dict
    verdict: str


@lru_cache(maxsize=None)
def riemann_zeta_int(N: int) -> float:
    """zeta(N) for integer N >= 2 by direct summation.

    The tail over k > M is sandwiched between the integrals from M+1 and
    from M; taking the midpoint leaves an error of at most half the
    sandwich width M^-N, so M = ceil(10^(12/N)) guarantees 1e-12.
    """
    if not isinstance(N, int) or N <= 1:
        raise ValueError("zeta summation needs an integer exponent >= 2")
    M = max(2, math.ceil(10.0 ** (12.0 / N)))
    head = math.fsum(k ** (-float(N)) for k in range(1, M + 1))
    lo = (M + 1) ** (1 - N) / (N - 1)
    hi = M ** (1 - N) / (N - 1)
    return head + (lo + hi) / 2.0


def quotient_volume(field: NumberField, N: int, mode: str = "exact") -> float:
    """Covolume-normalized count weight for rank-N twists.

    exact mode (Q only): V_N / (2 zeta(N)).  upper_bound mode works for any
    supported field and always overestimates, which keeps existence
    verdicts built on it conservative.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if mode == "exact":
        if not field.is_rational():
            raise UnsupportedFieldError(
                "exact quotient volume is only known over Q here")
        return ball_volume(N) / (2.0 * riemann_zeta_int(N))
    if mode != "upper_bound":
        raise ValueError(f"unknown mode {mode!r}")
    d = field.degree
    r1, r2 = field.real_places, field.complex_places
    w = len(field.torsion_units())
    log_value = (0.5 * d * N * math.log(2.0 * math.pi * math.e / N)
                 + 0.5 * (r1 + r2) * math.log(1.0 / (math.pi * N))
                 - 0.5 * r2 * math.log(2.0)
                 - math.log(w))
    return math.exp(log_value)


def _zeta_term(E: ArakelovBundle, l: int, s: float, cutoff: float | None,
               node_cap: int) -> ZetaPartial:
    """The rank-l partial sum in one window: the given cutoff, or with
    none, DEFAULT_CUTOFF below full rank and, at full rank, the one exact
    term read whole at T = max(DEFAULT_CUTOFF, -deg E)."""
    if cutoff is None:
        cutoff = (DEFAULT_CUTOFF if l < E.rank
                  else max(DEFAULT_CUTOFF, -degree(E)))
    return zeta_partial(E, l, s, cutoff, node_cap)


def main_inequality(E: ArakelovBundle, n: int, det_degree: float,
                    zeta_params: dict | None = None) -> BoundReport:
    """Averaged section-class count for rank-n twists of E with the given
    determinant degree; a value below one certifies a section-free twist,
    unless a zeta tail is uncertain: then the verdict is indeterminate.

    Each subbundle rank l of E contributes
    disc^(-nl/2) * quotient_volume(n l) * zeta_E^(l)(n) * exp(l det_degree).
    Over Q the quotient volume is exact; otherwise its upper bound stands
    in, which can only weaken (never wrongly assert) the guarantee.  A
    det_degree that is not finite, or whose exp(...) factor is not a finite
    float, raises ValueError before any enumeration.
    Each zeta sum, at s = n > rank, is read in one window (_zeta_term).
    A tail is uncertain when its bound is above 0, as every tail below
    full rank is: there a value below one is no certificate.
    """
    if n <= E.rank:
        raise ValueError("twist rank must exceed the rank of E")
    params = dict(zeta_params or {})
    cutoff = params.pop("cutoff", None)
    node_cap = params.pop("node_cap", DEFAULT_NODE_CAP)
    if params:
        raise ValueError(f"unknown zeta parameters {sorted(params)}")
    for l in range(1, E.rank + 1):
        check_subbundle_scope(E, l)  # fail before any enumeration
    if not math.isfinite(det_degree):
        raise ValueError(f"det_degree must be finite, got {det_degree}")
    field = E.field
    log_disc = math.log(abs(field.discriminant))
    exponents = [-0.5 * n * l * log_disc + l * det_degree
                 for l in range(1, E.rank + 1)]
    if max(exponents) > MAX_EXPONENT:
        raise ValueError(f"det_degree = {det_degree:g} is too large: "
                         f"exp({max(exponents):.6g}) in the averaged count "
                         f"is not a finite float")
    exact_q = field.is_rational()
    terms = []
    tail_uncertain = False
    for l, exponent in enumerate(exponents, 1):
        zp = _zeta_term(E, l, float(n), cutoff, node_cap)
        tail_uncertain = tail_uncertain or zp.tail_bound > 0
        qv = quotient_volume(field, n * l,
                             "exact" if exact_q else "upper_bound")
        terms.append(math.exp(exponent) * qv * zp.partial_sum)
    value = math.fsum(terms)
    if value >= 1.0:  # the omitted terms are positive
        verdict = "not guaranteed"
    elif tail_uncertain:
        verdict = "indeterminate (tail uncertain)"
    else:
        verdict = ("existence guaranteed" if exact_q
                   else "existence guaranteed (via upper bound)")
    return BoundReport(
        kind="theorem",
        inputs={"field": field.descriptor, "rank": E.rank, "n": n,
                "det_degree": det_degree, "cutoff": cutoff},
        values={"value": value, "terms": tuple(terms),
                "tail_uncertain": tail_uncertain},
        verdict=verdict)


def thresholds(field: NumberField, n: int, l: int = 1,
               eps: float = 0.0) -> BoundReport:
    """Slope thresholds bracketing where rank-n section-free twists exist.

    Below the corollary threshold they exist; at the converse threshold and
    above they do not (for n large enough); the two differ by exactly
    d log 2 at eps = 0, independent of n and l.  An eps that is negative
    (the converse below the corollary) or not finite raises ValueError.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and at least 0, got {eps}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if l < 1:
        raise ValueError("l must be at least 1")
    d = field.degree
    base = 0.5 * math.log(abs(field.discriminant))
    common = math.log(n) + math.log(l) - math.log(math.pi) - 1.0
    intro = 0.5 * d * (math.log(n) - math.log(math.pi) - 1.0
                       - math.log(2.0)) + base
    corollary = 0.5 * d * (common - math.log(2.0)) + base
    converse = 0.5 * d * (common + math.log(2.0) + eps) + base
    gap = d * math.log(2.0)
    return BoundReport(
        kind="thresholds",
        inputs={"field": field.descriptor, "n": n, "l": l, "eps": eps},
        values={"intro": intro, "corollary": corollary,
                "converse": converse, "gap": gap},
        verdict=("section-free twists exist below the corollary threshold "
                 "and are ruled out above the converse threshold"))


def packing_density(E: ArakelovBundle,
                    node_cap: int = DEFAULT_NODE_CAP) -> float:
    """Sphere packing density of the rank-n lattice over Q: balls of radius
    half the minimum distance, volume ratio per fundamental domain."""
    if not E.field.is_rational():
        raise UnsupportedFieldError("packing density is defined over Q here")
    # the Gram is c A with A primitive, and E carries its determinant
    c, (A,) = E._content
    n = E.rank
    _, min_sq = shortest_vector(A, node_cap=node_cap)
    (det,) = E._dets
    return (ball_volume(n) * math.sqrt(float((c * min_sq) ** n))
            / (2.0 ** n * math.sqrt(float(det))))


def mh_bound(n: int) -> float:
    """Density every dimension provably reaches: zeta(n) / 2^(n-1)."""
    return riemann_zeta_int(n) / 2.0 ** (n - 1)
