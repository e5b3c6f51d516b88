"""Saturated subbundles ordered by degree: enumeration, maximal slopes,
partial zeta sums, and a semistability verdict.

Builders yield unsorted (degree, rows) pairs, rows integer vectors in
restrict_scalars coordinates (over Q, module coordinates).  Records are
built once, in enumerate_subbundles, the one consumer that lists and sorts
the pairs; zeta_partial and mu_max read degrees as they stream by.

Rank-1 subbundles correspond to primitive module vectors up to units; their
degrees come from exact place values, so the min_degree filter is a rational
comparison.  Over Q every other rank below the full one goes through the
same line filter.  Corank-1 subbundles are lines of the dual: a covector w
of degree d in dual(E) cuts out w-perp, of degree deg(E) + d.  A plane in
rank 4 is a primitive decomposable line P = b1 ^ b2 of Lambda^2 L, its Gram
determinant the value of P under the second compound of the Gram
(Cauchy-Binet).  HNF rows of w-perp and of P's plane are built only for
records.  The full rank is the identity.

Over quadratic fields only l = 1 and l = rank are available; a line's unit
orbit is collapsed by keying on the Pluecker minors of its Z-span (v, w v),
which also decide primitivity, and for real quadratic fields the trace-form
search radius (eps + 1/eps) exp(-min_degree) suffices because every line
has a unit-balanced representative.  Candidates come from the trace form's
integer matrix at the radius over its scale (enumerate_short_vectors alone
pads it) and are tested, ordered and keyed exactly, on Python ints.  Over Q
the walk's vectors are filtered in its reduced coordinates, by
ReducedLattice.primitive_values, and only the kept ones are mapped back.

A degree cap exp(-2 min_degree) is exact even where exp underflows, so no
cap rounds to 0, and its radius on an integer matrix is always the exact
quotient of the cap by the scale (squared for planes), rounded once.

For 1 <= l < rank, rank-l subbundles of degree >= -T grow like exp(rank T)
(Schmidt, Duke Math. J. 35, 1968; Thunder 1993 over number fields), so
their zeta series converges if and only if s > rank.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .bundle import (
    ArakelovBundle,
    PlaceForm,
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
    QSurd,
    hnf,
    right_kernel_rows,
    saturation_rows,
)
# Bound here only for tools that patch rat_det under every name it is
# imported by (perfbench/tracer.py); zeta computes no determinant.
from .intlinalg import rat_det  # noqa: F401
from .lattice import DEFAULT_NODE_CAP, MAX_EXPONENT, ReducedLattice, as_float

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

# The window -T <= degree that main_inequality reads each sum below full
# rank in when no cutoff is given, and the CLI's zeta --cutoff default.
DEFAULT_CUTOFF = 4.0

# the coordinates (i, j), i < j, of Lambda^2 in rank 4, in _plucker's order
PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))

# degree_shells groups degrees rounded to this many decimals.
SHELL_DECIMALS = 9

# Largest exponent of a degree cap: exp of it, padded by any factor below
# e into a search radius, is still a finite float.
MAX_CAP_EXPONENT = MAX_EXPONENT - 1.0
# Below this exponent exp is a subnormal float or 0.0.
MIN_NORMAL_EXPONENT = math.log(sys.float_info.min)
# A lower cap exponent is raised to this.  Caps are compared with values
# of forms whose scale's parts are floats, or of their second compounds,
# which are at least 2^-2048, so the raised cap keeps the same nothing.
MIN_CAP_EXPONENT = -4.0 * MAX_EXPONENT
LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class SubbundleRecord:
    """A saturated subbundle: its rank, degree, and a module basis."""

    rank: int
    degree: float
    basis: tuple


@dataclass(frozen=True)
class ZetaPartial:
    """Partial sum of exp(s deg E') over subbundles with deg >= -cutoff.

    ``tail_bound`` bounds the omitted terms; it is never added to
    partial_sum.  At full rank it is exact: 0.0, or the one term
    exp(s deg E) when the cutoff leaves it out.  Below full rank no bound
    is known here, and it is inf.
    """

    s: float
    l: int
    cutoff: float
    partial_sum: float
    terms: int
    tail_bound: float


@dataclass(frozen=True)
class SemistabilityVerdict:
    """status is one of "semistable_up_to_budget", "unstable",
    "inconclusive"; an unstable verdict carries the violating subbundle."""

    status: str
    witness: SubbundleRecord | None


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


def _exp_cap(exponent: float) -> Fraction:
    """exp(exponent) as the exact cap of a degree filter; ValueError, before
    any enumeration, when the search bound would leave the float range.

    Where exp underflows the normal floats, the cap is m 2^k with
    m = exp(exponent - k log 2) a normal float, so it never rounds to 0."""
    if exponent > MAX_CAP_EXPONENT:
        raise ValueError(f"min_degree is too low: the search bound "
                         f"exp({exponent:.6g}) is not a finite float")
    if exponent >= MIN_NORMAL_EXPONENT:
        return Fraction(math.exp(exponent))
    exponent = max(exponent, MIN_CAP_EXPONENT)
    k = math.floor(exponent / LOG_2)
    return Fraction(math.exp(exponent - k * LOG_2)) / 2 ** -k


def _cap_radius(form: PlaceForm, cap: Fraction, times: int) -> float:
    """The cap on values of form, or with times = 2 of its second compound,
    as a radius on its integer matrix: the exact quotient cap / scale^times,
    rounded once, and 0.0 below 1, where that matrix has no nonzero value.

    The scale's numerator and denominator must be floats, or ValueError.
    Then every nonzero value of the form is at least 2^-1024, and of its
    second compound 2^-2048, which is what makes _exp_cap's raising of a
    cap to exp(MIN_CAP_EXPONENT) admit nothing more."""
    for part in (form.scale.numerator, form.scale.denominator):
        as_float(part)
    radius = cap / form.scale ** times
    return as_float(radius) if radius >= 1 else 0.0


def _q_rows(form: PlaceForm, cap: Fraction, radius: float,
            node_cap: int) -> Iterator[tuple[float, tuple]]:
    """The Q line filter: (-1/2 log form[z], (z,)) for each primitive z, one
    per +-z, in the ball of the given radius on form.A with form[z] <= cap.
    primitive_values tests primitivity and forms A[z] on the walk's
    reduced coordinates, so only kept z reach the caller's basis."""
    p, q = form.scale.numerator, form.scale.denominator
    top, bottom = cap.numerator * q, cap.denominator
    for value, z in ReducedLattice(form.A, node_cap).primitive_values(radius):
        # the value of z is p A[z] / q, compared on ints
        a = p * value
        if a * bottom > top:
            continue
        g = math.gcd(a, q)  # the log's bits match log_fraction
        yield -0.5 * (math.log(a // g) - math.log(q // g)), (z,)


def _log_surd(x: QSurd) -> float:
    """log x for a positive QSurd; where float(x) is below the normal
    floats, x is first scaled by a power of 2 that brings its parts near 1."""
    f = float(x)
    if f >= sys.float_info.min:
        return math.log(f)
    big = max(abs(x.a), abs(x.b))
    k = big.denominator.bit_length() - big.numerator.bit_length()
    return math.log(float(x * Fraction(2) ** k)) - k * LOG_2


def _line_rows(view: ZLatticeView, min_degree: float,
               node_cap: int) -> Iterable[tuple[float, tuple]]:
    field = view.bundle.field
    form = view.trace_form
    if field.is_rational():
        cap = _exp_cap(-2.0 * min_degree)
        return _q_rows(form, cap, _cap_radius(form, cap, 1), node_cap)
    if field.D < 0:
        power, value_cap = 1.0, _exp_cap(-min_degree)
        radius = 2.0 * float(value_cap)
    else:
        eps = field.embed(field.fundamental_unit(), 0)
        power, value_cap = 0.5, _exp_cap(-2.0 * min_degree)  # on q0*q1
        radius = (eps + 1.0 / eps) * math.exp(-min_degree)
    # the trace-form ball, on the trace form over its scale
    candidates = ReducedLattice(form.gram, node_cap).short_vectors(
        form.gram_radius(radius))
    s, q = field.omega_minpoly()
    seen = {}
    for z in candidates:
        g, key = _plucker(z, _omega_times(z, s, q))
        if g != 1 or key in seen:
            continue  # v is not primitive, or its line is already kept
        values = view.place_values(z)
        value = values[0] if field.D < 0 else values[0] * values[1]
        if not value <= value_cap:
            continue
        seen[key] = (-power * (log_fraction(value.a) if value.b == 0
                               else _log_surd(value)), (z,))
    return seen.values()


def _plane_span(P: Sequence[int]) -> list[list[int]]:
    """The rows u_k v - v_k u of P = u ^ v as a matrix: they span its plane."""
    M = dict(zip(PAIRS, P))
    return [[M.get((k, j), 0) - M.get((j, k), 0) for j in range(4)]
            for k in range(4)]


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


def _subbundle_rows(E: ArakelovBundle, l: int, min_degree: float,
                    node_cap: int) -> tuple[ZLatticeView, Iterable]:
    """restrict_scalars(E) and an iterable of the unsorted (degree, rows)
    pairs of rank-l subbundles of degree >= min_degree, rows in its basis.
    A hyperplane over Q comes as the row w of its dual line, and a plane
    in rank 4 as its Lambda^2 vector P; only enumerate_subbundles, which
    reads rows, maps them to w-perp and to the span of P."""
    check_subbundle_scope(E, l)
    if not math.isfinite(min_degree):
        raise ValueError("min_degree must be finite")
    view = restrict_scalars(E)
    if l == E.rank:
        deg, step = bundle_degree(E), view.zrank // l
        identity = tuple(tuple(int(j == step * i) for j in range(view.zrank))
                         for i in range(l))
        return view, [(deg, identity)] if deg >= min_degree else []
    if l == 1:
        return view, _line_rows(view, min_degree, node_cap)
    if l == E.rank - 1:
        # w-perp has degree deg(E) + d for a line w of degree d in dual(E)
        deg_e = bundle_degree(E)
        lines = _line_rows(restrict_scalars(dual(E)), min_degree - deg_e,
                           node_cap)
        return view, ((deg_e + d, rows) for d, rows in lines)
    # a plane in rank 4 is a line P of Lambda^2 A, C[(i,j),(k,m)] = A_ik
    # A_jm - A_im A_jk, on the Pluecker quadric; its value c^2 C[P] is the
    # plane's Gram determinant.
    form, cap = view.trace_form, _exp_cap(-2.0 * min_degree)
    A = form.A
    C = tuple(tuple(A[i][k] * A[j][m] - A[i][m] * A[j][k] for k, m in PAIRS)
              for i, j in PAIRS)
    lines = _q_rows(PlaceForm("real", C, None, form.scale ** 2, 0), cap,
                    _cap_radius(form, cap, 2), node_cap)
    return view, ((d, (P,)) for d, (P,) in lines
                  if P[0] * P[5] - P[1] * P[4] + P[2] * P[3] == 0)


def enumerate_subbundles(E: ArakelovBundle, l: int, min_degree: float,
                         node_cap: int = DEFAULT_NODE_CAP,
                         ) -> list[SubbundleRecord]:
    """Complete list of saturated rank-l subbundles with degree >= min_degree.

    The degree filter compares exact rational determinants against the float
    image of the requested bound, so results are deterministic and match a
    brute-force oracle using the same convention.  A min_degree so low that
    the search bound exp(...) is not a finite float raises ValueError.

    Records come by degree, largest first.  Ties are ordered over Q by the
    integer rows of the basis, over quadratic fields by str(basis).
    """
    view, pairs = _subbundle_rows(E, l, min_degree, node_cap)
    n = E.rank
    if 1 < l == n - 1:  # hyperplanes come as their dual lines (w,)
        pairs = [(deg, hnf(right_kernel_rows([list(w)], n), n))
                 for deg, (w,) in pairs]
    elif 1 < l < n:  # planes in rank 4 come as their Lambda^2 lines (P,)
        pairs = [(deg, saturation_rows(_plane_span(P), n))
                 for deg, (P,) in pairs]
    if not E.field.is_rational():
        built = sorted(((deg, tuple(map(view.coords_to_module, rows)))
                        for deg, rows in pairs),
                       key=lambda t: (-t[0], str(t[1])))
        return [SubbundleRecord(l, deg, basis) for deg, basis in built]
    # over Q the rows are the tie key; each distinct coordinate becomes a
    # Fraction once, and the records share it
    pairs = sorted(pairs, key=lambda t: (-t[0], t[1]))
    ints = tuple({x for _, rows in pairs for row in rows for x in row})
    module = dict(zip(ints, view.coords_to_module(ints))).__getitem__
    return [SubbundleRecord(l, deg, tuple(tuple(map(module, row))
                                          for row in rows))
            for deg, rows in pairs]


def mu_max(E: ArakelovBundle, l: int, min_degree_floor: float,
           node_cap: int = DEFAULT_NODE_CAP) -> tuple[float, bool]:
    """Largest slope among rank-l subbundles of degree >= min_degree_floor.

    The flag reports exactness: when the complete enumeration finds at least
    one subbundle, the maximizer itself lies above the floor and is covered.
    An empty result returns (-inf, False): the maximum sits below the floor.
    """
    _, pairs = _subbundle_rows(E, l, min_degree_floor, node_cap)
    top = max((deg for deg, _ in pairs), default=None)
    return (top / l, True) if top is not None else (-math.inf, False)


def degree_shells(records: Sequence[SubbundleRecord],
                  ) -> list[tuple[float, int]]:
    """Multiset of degrees rounded to SHELL_DECIMALS, sorted downward."""
    counts: dict[float, int] = {}
    for r in records:
        key = round(r.degree, SHELL_DECIMALS) + 0.0  # drop negative zero
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[0])


def _term(s: float, deg: float) -> float:
    """exp(s deg), or ValueError when it is not a finite float."""
    if s * deg > MAX_EXPONENT:
        raise ValueError(f"exp(s * degree) is not a finite float at "
                         f"s = {s:g}, degree = {deg:.6g}")
    return math.exp(s * deg)


def zeta_partial(E: ArakelovBundle, l: int, s: float, T: float,
                 node_cap: int = DEFAULT_NODE_CAP) -> ZetaPartial:
    """Sum exp(s deg E') over saturated rank-l subbundles with deg >= -T.

    An s that is not finite raises ValueError; then, for 1 <= l < rank, an
    s <= rank, where the series diverges, raises ZetaDivergenceError before
    any enumeration.  The terms stream into math.fsum, exactly rounded in
    any order; a term or a sum that is not a finite float raises ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if 1 <= l < E.rank and s <= E.rank:
        raise ZetaDivergenceError(
            f"the sum over rank-{l} subbundles diverges at s = {s:g}: below "
            f"full rank it converges only for s > rank = {E.rank}")
    _, pairs = _subbundle_rows(E, l, -T, node_cap)
    # zip stops on pairs before it draws from counter: next(counter) counts
    counter = itertools.count()
    try:
        partial_sum = math.fsum(_term(s, deg)
                                for (deg, _), _ in zip(pairs, counter))
    except OverflowError:
        raise ValueError(f"the partial sum at s = {s:g} is not a finite "
                         f"float") from None
    terms = next(counter)
    if l < E.rank:
        tail = math.inf
    else:
        # the one term: exact, and omitted only below the cutoff
        tail = 0.0 if terms else _term(s, bundle_degree(E))
    return ZetaPartial(s=s, l=l, cutoff=T, partial_sum=partial_sum,
                       terms=terms, tail_bound=tail)


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
        if records and records[0].degree / l > mu + 1e-9:  # the top degree
            return SemistabilityVerdict(status="unstable", witness=records[0])
    if blocked:
        return SemistabilityVerdict(status="inconclusive", witness=None)
    return SemistabilityVerdict(status="semistable_up_to_budget", witness=None)
