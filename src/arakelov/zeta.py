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
orbit is collapsed by keying on the Pluecker minors of its Z-span (v, w v),
which also decide primitivity, and for real quadratic fields the trace-form
search radius (eps + 1/eps) exp(-min_degree) suffices because every line
has a unit-balanced representative.  Rank-2 planes over Q are keyed on the
same minors.  Candidates are tested and keyed on Python ints; Fractions and
field elements are built only for the records that are kept.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .bundle import (
    ArakelovBundle,
    ZLatticeView,
    degree as bundle_degree,
    dual,
    log_fraction,
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
    right_kernel_rows,
    saturation_rows,
)
from .lattice import (
    DEFAULT_NODE_CAP,
    ReducedLattice,
    apply_transform,
    form_value,
)

__all__ = [
    "SemistabilityVerdict",
    "SubbundleRecord",
    "ZetaPartial",
    "check_subbundle_scope",
    "degree_shells",
    "enumerate_subbundles",
    "mu_max",
    "semistability_verdict",
    "zeta_partial",
]

HERMITE_RANK2 = 2.0 / math.sqrt(3.0)

# degree_shells groups degrees rounded to this many decimals.
SHELL_DECIMALS = 9

# Largest x with exp(x) a finite float.
MAX_EXPONENT = math.log(sys.float_info.max)
# Largest exponent of a degree cap: exp of it, padded by any factor below
# e into a search radius, is still a finite float.
MAX_CAP_EXPONENT = MAX_EXPONENT - 1.0


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
    Below full rank, records filling fewer than two unit-width shells give
    no decay to extrapolate, and the estimate is inf.
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
    the inflated radius, enumerated on den times the trace form; exactness
    is restored by the callers' filters."""
    lattice = ReducedLattice(view.trace_form.gram, node_cap)
    envelope = (radius * (1.0 + 1e-9) + 1e-12) * view.trace_form.den
    for z, _ in lattice.short_vectors(envelope):
        yield z


def _plucker(u: Sequence[int], v: Sequence[int]) -> tuple[int, tuple]:
    """The gcd g of the 2x2 minors of the rows u, v, and the minors over g
    with the first nonzero one made positive.

    g is 0 for dependent rows; otherwise it is the index of span(u, v) in
    its saturation (Newman, Integral Matrices, ch. II), and the key is the
    primitive Pluecker vector, which names the saturated plane.
    """
    n = len(u)
    minors = [u[i] * v[j] - u[j] * v[i]
              for i in range(n) for j in range(i + 1, n)]
    g = math.gcd(*minors)
    if g == 0:
        return 0, ()
    unit = g if next(m for m in minors if m) > 0 else -g
    return g, tuple(m // unit for m in minors)


def _omega_times(z: Sequence[int], s: int, q: int) -> list[int]:
    """Coordinates of w v for v with coordinate pairs z, where w^2 = s w - q:
    w (a + b w) = -q b + (a + s b) w."""
    return [c for a, b in zip(z[::2], z[1::2]) for c in (-q * b, a + s * b)]


def _capped_logs(view: ZLatticeView, cap: Fraction,
                 node_cap: int) -> list[tuple]:
    """(log(z A z^T / den), z) for each primitive z of a view over Q with
    value at most cap, decided on ints; the log's bits match log_fraction."""
    A, den = view.place_forms[0].A, view.place_forms[0].den
    kept = []
    for z in _trace_region(view, float(cap), node_cap):
        if not is_primitive_vector(z):
            continue
        a = form_value(A, z)
        if a * cap.denominator > cap.numerator * den:
            continue
        g = math.gcd(a, den)
        kept.append((math.log(a // g) - math.log(den // g), z))
    return kept


def _exp_cap(exponent: float) -> Fraction:
    """exp(exponent) as the exact cap of a degree filter; ValueError, before
    any enumeration, when the search bound would leave the float range."""
    if exponent > MAX_CAP_EXPONENT:
        raise ValueError(f"min_degree is too low: the search bound "
                         f"exp({exponent:.6g}) is not a finite float")
    return Fraction(math.exp(exponent))


def _line_records(E: ArakelovBundle, min_degree: float,
                  node_cap: int) -> list[SubbundleRecord]:
    field = E.field
    view = restrict_scalars(E)

    if field.is_rational():
        kept = [(-0.5 * log, z) for log, z in _capped_logs(
            view, _exp_cap(-2.0 * min_degree), node_cap)]
        kept.sort(key=lambda t: (-t[0], t[1]))
        return [SubbundleRecord(rank=1, degree=deg,
                                basis=(view.coords_to_module(z),))
                for deg, z in kept]

    if field.D < 0:
        value_cap = _exp_cap(-min_degree)
        trace_radius = 2.0 * float(value_cap)
    else:
        eps = field.embed(field.fundamental_unit(), 0)
        value_cap = _exp_cap(-2.0 * min_degree)  # on q0*q1
        trace_radius = (eps + 1.0 / eps) * math.exp(-min_degree)

    s, q = field.omega_minpoly()
    seen = {}
    for z in _trace_region(view, trace_radius, node_cap):
        g, key = _plucker(z, _omega_times(z, s, q))
        if g != 1 or key in seen:
            continue  # v is not primitive, or its line is already kept
        values = view.place_values(z)
        if field.D < 0:
            value, power = values[0], 1.0
        else:
            value, power = values[0] * values[1], 0.5
        if not value <= value_cap:
            continue
        deg = -power * (log_fraction(value.a) if value.b == 0
                        else math.log(float(value)))
        seen[key] = SubbundleRecord(rank=1, degree=deg,
                                    basis=(view.coords_to_module(z),))
    records = sorted(seen.values(), key=lambda r: (-r.degree, str(r.basis)))
    return records


def _hyperplane_records(E: ArakelovBundle, min_degree: float,
                        node_cap: int) -> list[SubbundleRecord]:
    n = E.rank
    deg_e = bundle_degree(E)
    cap = _exp_cap(2.0 * (deg_e - min_degree))
    view = restrict_scalars(dual(E))  # the inverse Gram on ints
    kept = [(deg_e - 0.5 * log, hnf(right_kernel_rows([list(wv)], n), n))
            for log, wv in _capped_logs(view, cap, node_cap)]
    kept.sort(key=lambda t: (-t[0], t[1]))
    return [SubbundleRecord(
                rank=n - 1, degree=deg,
                basis=tuple(tuple(Fraction(x) for x in row) for row in basis))
            for deg, basis in kept]


def _pair_records(E: ArakelovBundle, min_degree: float,
                  node_cap: int) -> list[SubbundleRecord]:
    G = E.gram_real[0]
    n = E.rank
    det_cap = _exp_cap(-2.0 * min_degree)
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
            g, key = _plucker(b1, b2)
            if g == 0 or key in seen:
                continue  # dependent pair, or its plane was already tested
            # the Gram determinant scales by the index squared
            det2 = rat_det(apply_transform((b1, b2), G)) / (g * g)
            if det2 > det_cap:
                seen[key] = None  # det2 depends only on the plane
                continue
            sat = saturation_rows([list(b1), list(b2)], n)
            seen[key] = SubbundleRecord(
                rank=2, degree=-0.5 * log_fraction(det2),
                basis=tuple(tuple(Fraction(x) for x in row) for row in sat))
    records = sorted((r for r in seen.values() if r is not None),
                     key=lambda r: (-r.degree, r.basis))
    return records


def _full_rank_record(E: ArakelovBundle) -> SubbundleRecord:
    field = E.field
    one, zero = field.element(1), field.element(0)
    basis = tuple(tuple(one if i == j else zero for j in range(E.rank))
                  for i in range(E.rank))
    return SubbundleRecord(rank=E.rank, degree=bundle_degree(E), basis=basis)


def check_subbundle_scope(E: ArakelovBundle, l: int) -> None:
    """Raise unless rank-l subbundles of E can be enumerated: l = 1 and
    l = rank always, 1 < l < rank only over Q and up to rank 4."""
    if not 1 <= l <= E.rank:
        raise ValueError(f"l must be between 1 and the rank, got {l}")
    if l in (1, E.rank):
        return
    if not E.field.is_rational():
        raise UnsupportedFieldError(
            "intermediate ranks over quadratic fields are out of scope")
    if E.rank > 4:
        raise BudgetExceededError(
            "l >= 2 enumeration is limited to rank <= 4")


def enumerate_subbundles(E: ArakelovBundle, l: int, min_degree: float,
                         node_cap: int = DEFAULT_NODE_CAP,
                         ) -> list[SubbundleRecord]:
    """Complete list of saturated rank-l subbundles with degree >= min_degree.

    The degree filter compares exact rational determinants against the float
    image of the requested bound, so results are deterministic and match a
    brute-force oracle using the same convention.  A min_degree so low that
    the search bound exp(...) is not a finite float raises ValueError.
    """
    check_subbundle_scope(E, l)
    if not math.isfinite(min_degree):
        raise ValueError("min_degree must be finite")
    if l == E.rank:
        rec = _full_rank_record(E)
        return [rec] if rec.degree >= min_degree else []
    if l == 1:
        return _line_records(E, min_degree, node_cap)
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
                  ) -> list[tuple[float, int]]:
    """Multiset of degrees rounded to SHELL_DECIMALS, sorted downward."""
    counts: dict[float, int] = {}
    for r in records:
        key = round(r.degree, SHELL_DECIMALS) + 0.0  # drop negative zero
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[0])


def zeta_partial(E: ArakelovBundle, l: int, s: float, T: float,
                 node_cap: int = DEFAULT_NODE_CAP) -> ZetaPartial:
    """Sum exp(s deg E') over saturated rank-l subbundles with deg >= -T.

    Divergence guard: terms are bucketed into unit-width degree shells; if
    the last three shell sums grow strictly, the series at this s shows no
    decay and ZetaDivergenceError is raised instead of returning a number.
    A term or a sum that is not a finite float raises ValueError.
    """
    records = enumerate_subbundles(E, l, -T, node_cap)
    shells: dict[int, float] = {}
    total = []
    for r in records:
        if s * r.degree > MAX_EXPONENT:
            raise ValueError(f"exp(s * degree) is not a finite float at "
                             f"s = {s:g}, degree = {r.degree:.6g}")
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
        # one shell shows no decay; at l = rank it is the one exact term
        tail = 0.0 if l == E.rank or len(ordered) >= 2 else math.inf
    try:
        partial_sum = math.fsum(total)
    except OverflowError:
        raise ValueError(f"the partial sum at s = {s:g} is not a finite "
                         f"float") from None
    return ZetaPartial(s=s, l=l, cutoff=T,
                       partial_sum=partial_sum, terms=len(total),
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
