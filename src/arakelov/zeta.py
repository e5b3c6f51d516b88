"""Saturated subbundles ordered by degree: enumeration, maximal slopes,
partial zeta sums, and a semistability verdict.

Rank-1 subbundles correspond to primitive module vectors up to units; their
degrees come from exact place values, so the min_degree filter is a rational
comparison.  Corank-1 subbundles over Q come from primitive covectors in the
inverse Gram: the hyperplane w-perp has degree deg(E) - (1/2) log(w G^{-1}
w^T).  The middle case l=2 in rank 4 enumerates candidate reduced bases
(b1, b2) with |b1| |b2| <= (2/sqrt 3) exp(-min_degree), which covers every
target submodule because a rank-2 reduced basis attains both minima.

Over quadratic fields only l = 1 and l = rank are available; a line's unit
orbit is collapsed by keying on the Hermite form of its Z-span, and for real
quadratic fields the trace-form search radius (eps + 1/eps) exp(-min_degree)
suffices because every line has a unit-balanced representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .bundle import (
    ArakelovBundle,
    ZLatticeView,
    degree as bundle_degree,
    log_fraction,
    qpair_float,
    qpair_leq,
    restrict_scalars,
    slope as bundle_slope,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    UnsupportedFieldError,
    ZetaDivergenceError,
)
from .intlinalg import (
    hnf,
    is_primitive_vector,
    rat_det,
    rat_inverse,
    right_kernel_rows,
    saturation_rows,
)
from .lattice import DEFAULT_NODE_CAP, ReducedLattice

__all__ = [
    "SemistabilityVerdict",
    "SubbundleRecord",
    "ZetaPartial",
    "degree_shells",
    "enumerate_subbundles",
    "mu_max",
    "semistability_verdict",
    "zeta_partial",
]

HERMITE_RANK2 = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class SubbundleRecord:
    """A saturated subbundle: its rank, degree, and a module basis."""

    rank: int
    degree: float
    basis: tuple


@dataclass(frozen=True)
class ZetaPartial:
    """Partial sum of exp(s deg E') over subbundles with deg >= -cutoff.

    ``tail_bound_estimate`` extrapolates the geometric decay of the last two
    degree shells; it is informational and never added to partial_sum.
    """

    s: float
    l: int
    cutoff: float
    partial_sum: float
    terms: int
    tail_bound_estimate: float


@dataclass(frozen=True)
class SemistabilityVerdict:
    """status is one of "semistable_up_to_budget", "unstable",
    "inconclusive"; an unstable verdict carries the violating subbundle."""

    status: str
    witness: SubbundleRecord | None


def _trace_region(view: ZLatticeView, radius: float,
                  node_cap: int) -> Iterator[tuple[int, ...]]:
    """Integer coordinate vectors (one per +-pair) with trace value inside
    the inflated radius; exactness is restored by the callers' filters."""
    lattice = ReducedLattice(view.trace_gram, node_cap)
    for z, _ in lattice.short_vectors(radius * (1.0 + 1e-9) + 1e-12):
        yield z


def _qpair_mul(x, y, delta: int):
    return (x[0] * y[0] + delta * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _line_records(E: ArakelovBundle, min_degree: float,
                  node_cap: int) -> list[SubbundleRecord]:
    field = E.field
    view = restrict_scalars(E)

    if field.is_rational():
        cap = Fraction(math.exp(-2.0 * min_degree))
        records = []
        for z in _trace_region(view, float(cap), node_cap):
            if not is_primitive_vector(z):
                continue
            value = view.place_forms[0].value_pair(z)[0]
            if value > cap:
                continue
            deg = -0.5 * log_fraction(value)
            records.append(SubbundleRecord(
                rank=1, degree=deg, basis=(view.coords_to_module(z),)))
        records.sort(key=lambda r: (-r.degree, r.basis))
        return records

    delta = abs(field.D)
    if field.D < 0:
        value_cap = Fraction(math.exp(-min_degree))
        trace_radius = 2.0 * float(value_cap)
    else:
        eps = field.embed(field.fundamental_unit(), 0)
        value_cap = Fraction(math.exp(-2.0 * min_degree))  # on q0*q1
        trace_radius = (eps + 1.0 / eps) * math.exp(-min_degree)

    w = field.element(0, 1)
    seen = {}
    for z in _trace_region(view, trace_radius, node_cap):
        v = view.coords_to_module(z)
        wv = tuple(field.mul(w, x) for x in v)
        rows = [z, [c for x in wv for c in (int(x.a), int(x.b))]]
        key = hnf(rows, view.zrank)
        if key in seen:
            continue
        sat = saturation_rows(rows, view.zrank)
        if [list(r) for r in key] != [list(r) for r in sat]:
            continue  # v is not primitive: its line was or will be seen
        pairs = view.place_values(z)
        if field.D < 0:
            if not qpair_leq(pairs[0], value_cap, delta):
                continue
            a, b = pairs[0]
            deg = -log_fraction(a) if b == 0 else -math.log(
                qpair_float(pairs[0], delta))
        else:
            prod = _qpair_mul(pairs[0], pairs[1], delta)
            if not qpair_leq(prod, value_cap, delta):
                continue
            a, b = prod
            deg = -0.5 * (log_fraction(a) if b == 0 else math.log(
                qpair_float(prod, delta)))
        seen[key] = SubbundleRecord(rank=1, degree=deg, basis=(v,))
    records = sorted(seen.values(), key=lambda r: (-r.degree, str(r.basis)))
    return records


def _restricted_det(G, B) -> Fraction:
    n = len(G)
    k = len(B)
    sub = [[sum(Fraction(B[i][a]) * G[a][b] * B[j][b]
                for a in range(n) for b in range(n))
            for j in range(k)] for i in range(k)]
    return rat_det(sub)


def _hyperplane_records(E: ArakelovBundle, min_degree: float,
                        node_cap: int) -> list[SubbundleRecord]:
    G = E.gram_real[0]
    n = E.rank
    deg_e = bundle_degree(E)
    cap = Fraction(math.exp(2.0 * (deg_e - min_degree)))
    ginv = rat_inverse(G)
    lattice = ReducedLattice(ginv, node_cap)
    records = []
    for wv, _ in lattice.short_vectors(float(cap) * (1.0 + 1e-9) + 1e-12):
        if not is_primitive_vector(wv):
            continue
        dual_q = sum(wv[i] * ginv[i][j] * wv[j]
                     for i in range(n) for j in range(n))
        if dual_q > cap:
            continue
        basis = [list(r) for r in hnf(right_kernel_rows([list(wv)], n), n)]
        deg = deg_e - 0.5 * log_fraction(dual_q)
        records.append(SubbundleRecord(
            rank=n - 1, degree=deg,
            basis=tuple(tuple(Fraction(x) for x in row) for row in basis)))
    records.sort(key=lambda r: (-r.degree, r.basis))
    return records


def _pair_records(E: ArakelovBundle, min_degree: float,
                  node_cap: int) -> list[SubbundleRecord]:
    G = E.gram_real[0]
    n = E.rank
    det_cap = Fraction(math.exp(-2.0 * min_degree))
    product = HERMITE_RANK2 * math.exp(-min_degree)
    lattice = ReducedLattice(G, node_cap)
    seen = {}
    slack = 1.0 + 1e-9
    for b1, q1 in lattice.short_vectors(product * slack):
        if not is_primitive_vector(b1) or q1 <= 0:
            continue
        inner = (product / math.sqrt(q1)) ** 2
        for b2, q2 in lattice.short_vectors(inner * slack):
            if q2 + 1e-12 < q1:
                continue  # enforce |b1| <= |b2| up to float noise
            rows = [list(b1), list(b2)]
            sat = saturation_rows(rows, n)
            if len(sat) != 2:
                continue  # dependent pair
            key = tuple(tuple(r) for r in sat)
            if key in seen:
                continue
            det2 = _restricted_det(G, sat)
            if det2 > det_cap:
                continue
            seen[key] = SubbundleRecord(
                rank=2, degree=-0.5 * log_fraction(det2),
                basis=tuple(tuple(Fraction(x) for x in row) for row in sat))
    records = sorted(seen.values(), key=lambda r: (-r.degree, r.basis))
    return records


def _full_rank_record(E: ArakelovBundle) -> SubbundleRecord:
    field = E.field
    one, zero = field.element(1), field.element(0)
    basis = tuple(tuple(one if i == j else zero for j in range(E.rank))
                  for i in range(E.rank))
    return SubbundleRecord(rank=E.rank, degree=bundle_degree(E), basis=basis)


def enumerate_subbundles(E: ArakelovBundle, l: int, min_degree: float,
                         node_cap: int = DEFAULT_NODE_CAP,
                         ) -> list[SubbundleRecord]:
    """Complete list of saturated rank-l subbundles with degree >= min_degree.

    The degree filter compares exact rational determinants against the float
    image of the requested bound, so results are deterministic and match a
    brute-force oracle using the same convention.
    """
    if not 1 <= l <= E.rank:
        raise ValueError(f"l must be between 1 and the rank, got {l}")
    if not math.isfinite(min_degree):
        raise ValueError("min_degree must be finite")
    if l == E.rank:
        rec = _full_rank_record(E)
        return [rec] if rec.degree >= min_degree else []
    if l == 1:
        return _line_records(E, min_degree, node_cap)
    if not E.field.is_rational():
        raise UnsupportedFieldError(
            "intermediate ranks over quadratic fields are out of scope")
    if E.rank > 4:
        raise BudgetExceededError(
            "l >= 2 enumeration is limited to rank <= 4")
    if l == E.rank - 1:
        return _hyperplane_records(E, min_degree, node_cap)
    return _pair_records(E, min_degree, node_cap)


def mu_max(E: ArakelovBundle, l: int, min_degree_floor: float,
           node_cap: int = DEFAULT_NODE_CAP) -> tuple[float, bool]:
    """Largest slope among rank-l subbundles of degree >= min_degree_floor.

    The flag reports exactness: when the complete enumeration finds at least
    one subbundle, the maximizer itself lies above the floor and is covered.
    An empty result returns (-inf, False): the maximum sits below the floor.
    """
    records = enumerate_subbundles(E, l, min_degree_floor, node_cap)
    if not records:
        return (-math.inf, False)
    return (max(r.degree for r in records) / l, True)


def degree_shells(records: Sequence[SubbundleRecord],
                  decimals: int = 9) -> list[tuple[float, int]]:
    """Multiset of degrees grouped to the given rounding, sorted downward."""
    counts: dict[float, int] = {}
    for r in records:
        key = round(r.degree, decimals) + 0.0  # drop negative zero
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[0])


def zeta_partial(E: ArakelovBundle, l: int, s: float, T: float,
                 node_cap: int = DEFAULT_NODE_CAP) -> ZetaPartial:
    """Sum exp(s deg E') over saturated rank-l subbundles with deg >= -T.

    Divergence guard: terms are bucketed into unit-width degree shells; if
    the last three shell sums grow strictly, the series at this s shows no
    decay and ZetaDivergenceError is raised instead of returning a number.
    """
    records = enumerate_subbundles(E, l, -T, node_cap)
    shells: dict[int, float] = {}
    total = []
    for r in records:
        term = math.exp(s * r.degree)
        total.append(term)
        shells[math.floor(-r.degree)] = shells.get(
            math.floor(-r.degree), 0.0) + term
    ordered = [shells[k] for k in sorted(shells)]
    if len(ordered) >= 3 and ordered[-3] < ordered[-2] < ordered[-1]:
        raise ZetaDivergenceError(
            f"shell sums keep growing at s={s}: "
            f"{ordered[-3]:.3g} < {ordered[-2]:.3g} < {ordered[-1]:.3g}")
    if len(ordered) >= 2 and ordered[-1] > 0:
        ratio = ordered[-1] / ordered[-2]
        tail = (ordered[-1] * ratio / (1.0 - ratio) if ratio < 1.0
                else math.inf)
    else:
        tail = 0.0
    return ZetaPartial(s=s, l=l, cutoff=T,
                       partial_sum=math.fsum(total), terms=len(total),
                       tail_bound_estimate=tail)


def semistability_verdict(E: ArakelovBundle,
                          budget: int = DEFAULT_NODE_CAP,
                          ) -> SemistabilityVerdict:
    """Search every available corank for a subbundle of larger slope.

    "semistable_up_to_budget" asserts that all supported ranks l were swept
    completely and nothing exceeds the slope by more than 1e-9; unsupported
    ranks or an exhausted budget downgrade the answer to "inconclusive".
    """
    mu = bundle_slope(E)
    blocked = False
    for l in range(1, E.rank):
        try:
            records = enumerate_subbundles(
                E, l, min_degree=l * (mu + 1e-9), node_cap=budget)
        except (BudgetExceededError, UnsupportedFieldError,
                EnumerationCapError):
            blocked = True
            continue
        for r in records:
            if r.degree / l > mu + 1e-9:
                return SemistabilityVerdict(status="unstable", witness=r)
    if blocked:
        return SemistabilityVerdict(status="inconclusive", witness=None)
    return SemistabilityVerdict(status="semistable_up_to_budget", witness=None)
