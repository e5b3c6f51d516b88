"""Arakelov bundles: metrized free modules over a number ring.

A bundle is the free module O_K^n together with one positive-definite Gram
matrix per infinite place (symmetric at real places, Hermitian at complex
ones).  Gram entries are stored as exact rationals: every float converts to a
Fraction without loss, complex entries become (real, imaginary) Fraction
pairs.  Degrees therefore come from exact determinants, rounded only at the
final logarithm.

restrict_scalars exposes the module as a Z-lattice of rank d*n.  Its
per-place norm forms are kept as pairs (A, B) of rational symmetric matrices
meaning z A z^T + (z B z^T) * sqrt(|D|), which lets downstream enumeration
filters decide boundary membership exactly even for quadratic fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DependentGeneratorsError,
    FieldMismatchError,
    InvalidMetricError,
)
from .intlinalg import (
    QSurd,
    det,
    inverse,
    is_positive_definite,
    ok_saturation_rows,
    rat_det,
    rat_inverse,
    rat_rank,
    saturation_rows,
)
from .numberfield import NumberField, QuadElement

__all__ = [
    "ArakelovBundle",
    "SaturatedSubbundle",
    "ZLatticeView",
    "degree",
    "determinant",
    "dual",
    "make_bundle",
    "restrict_scalars",
    "saturate_subbundle",
    "scale",
    "slope",
    "tensor",
    "trivial_bundle",
]

RealGram = tuple[tuple[Fraction, ...], ...]
# Hermitian Gram as (real part, imaginary part), both rational matrices.
ComplexGram = tuple[RealGram, RealGram]


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, complex):
        raise InvalidMetricError("complex entry where a real one is required")
    return Fraction(x)


def _freeze(rows) -> RealGram:
    return tuple(tuple(_fr(x) for x in row) for row in rows)


def _split_complex(rows) -> ComplexGram:
    re, im = [], []
    for row in rows:
        re_row, im_row = [], []
        for x in row:
            c = complex(x) if not isinstance(x, (int, float, Fraction)) else None
            if c is None:
                re_row.append(_fr(x))
                im_row.append(Fraction(0))
            else:
                re_row.append(Fraction(c.real))
                im_row.append(Fraction(c.imag))
        re.append(tuple(re_row))
        im.append(tuple(im_row))
    return tuple(re), tuple(im)


def log_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log of non-positive value")
    return math.log(x.numerator) - math.log(x.denominator)


# ----------------------------------------------------------------------
# rational matrix helpers
# ----------------------------------------------------------------------

def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mat_scale(A, c):
    return [[c * x for x in row] for row in A]


def _kron(A, B):
    ma, mb = len(A), len(B)
    out = []
    for i in range(ma):
        for k in range(mb):
            out.append([A[i][j] * B[k][l] for j in range(ma) for l in range(mb)])
    return out


def _surds(A, B, delta: int) -> list[list[QSurd]]:
    """The matrix A + B sqrt(delta) as QSurd entries; delta = -1 reads a
    Hermitian (real part, imaginary part) pair."""
    return [[QSurd(a, b, delta) for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def _hermitian_det(g: ComplexGram) -> Fraction:
    """Determinant of a Hermitian matrix with rational entries (a rational)."""
    d = det(_surds(*g, -1))
    if d.b != 0:
        raise InvalidMetricError("Hermitian determinant came out non-real")
    return d.a


def _complex_kron(a: ComplexGram, b: ComplexGram) -> ComplexGram:
    ar, ai = a
    br, bi = b
    re = _mat_add(_kron(ar, br), _mat_scale(_kron(ai, bi), Fraction(-1)))
    im = _mat_add(_kron(ar, bi), _kron(ai, br))
    return _freeze(re), _freeze(im)


def _complex_inverse(g: ComplexGram) -> ComplexGram:
    inv = inverse(_surds(*g, -1))
    return (_freeze([[x.a for x in row] for row in inv]),
            _freeze([[x.b for x in row] for row in inv]))


# ----------------------------------------------------------------------
# the bundle type
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArakelovBundle:
    """Free module O_K^rank with one exact Gram matrix per infinite place."""

    field: NumberField
    rank: int
    gram_real: tuple[RealGram, ...]
    gram_complex: tuple[ComplexGram, ...]

    def degree(self) -> float:
        return degree(self)

    def slope(self) -> float:
        return slope(self)


def trivial_bundle(field: NumberField, n: int) -> ArakelovBundle:
    """The bundle O^n: standard scalar products everywhere, degree zero."""
    if n < 1:
        raise InvalidMetricError("rank must be at least 1")
    ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                  for i in range(n))
    zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    return ArakelovBundle(
        field=field, rank=n,
        gram_real=tuple(ident for _ in range(field.real_places)),
        gram_complex=tuple((ident, zero) for _ in range(field.complex_places)),
    )


def _validate_real(g: RealGram, rank: int):
    if len(g) != rank or any(len(row) != rank for row in g):
        raise InvalidMetricError(f"Gram matrix must be {rank}x{rank}")
    for i in range(rank):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise InvalidMetricError("Gram matrix is not symmetric")
    if not is_positive_definite([list(row) for row in g]):
        raise InvalidMetricError("Gram matrix is not positive definite")


def _validate_complex(g: ComplexGram, rank: int):
    re, im = g
    if len(re) != rank or any(len(row) != rank for row in re):
        raise InvalidMetricError(f"Gram matrix must be {rank}x{rank}")
    for i in range(rank):
        if im[i][i] != 0:
            raise InvalidMetricError("Hermitian Gram needs a real diagonal")
        for j in range(i):
            if re[i][j] != re[j][i] or im[i][j] != -im[j][i]:
                raise InvalidMetricError("Gram matrix is not Hermitian")
    if not is_positive_definite(_surds(re, im, -1)):
        raise InvalidMetricError("Gram matrix is not positive definite")


def make_bundle(field: NumberField, grams) -> ArakelovBundle:
    """Build a bundle from one Gram matrix per infinite place, real places
    first.  For fields with a single infinite place a bare matrix is accepted.
    Entries may be int, float, Fraction, or (at complex places) complex."""
    places = field.real_places + field.complex_places
    mats = list(grams)
    if mats and mats[0] and not isinstance(mats[0][0], (list, tuple)):
        # a bare matrix rather than a list of matrices
        mats = [mats]
    if len(mats) != places:
        raise InvalidMetricError(
            f"expected {places} Gram matrices for {field.descriptor}, "
            f"got {len(mats)}")
    rank = len(mats[0])
    if rank < 1:
        raise InvalidMetricError("rank must be at least 1")
    reals = []
    for k in range(field.real_places):
        g = _freeze(mats[k])
        _validate_real(g, rank)
        reals.append(g)
    cplx = []
    for k in range(field.complex_places):
        g = _split_complex(mats[field.real_places + k])
        _validate_complex(g, rank)
        cplx.append(g)
    return ArakelovBundle(field=field, rank=rank,
                          gram_real=tuple(reals), gram_complex=tuple(cplx))


# ----------------------------------------------------------------------
# invariants and functors
# ----------------------------------------------------------------------

def degree(bundle: ArakelovBundle) -> float:
    """deg = sum over real places of -(1/2) log det G_v, plus sum over
    complex places of -log det G_v."""
    total = 0.0
    for g in bundle.gram_real:
        total -= 0.5 * log_fraction(rat_det(g))
    for g in bundle.gram_complex:
        total -= log_fraction(_hermitian_det(g))
    return total


def slope(bundle: ArakelovBundle) -> float:
    return degree(bundle) / bundle.rank


def _check_same_field(a: ArakelovBundle, b: ArakelovBundle):
    if a.field != b.field:
        raise FieldMismatchError(
            f"bundles live over {a.field.descriptor} and {b.field.descriptor}")


def tensor(E: ArakelovBundle, F: ArakelovBundle) -> ArakelovBundle:
    """Tensor product: Kronecker product of the Grams at each place, which
    makes slope additive."""
    _check_same_field(E, F)
    reals = tuple(_freeze(_kron(ge, gf))
                  for ge, gf in zip(E.gram_real, F.gram_real))
    cplx = tuple(_complex_kron(ge, gf)
                 for ge, gf in zip(E.gram_complex, F.gram_complex))
    return ArakelovBundle(field=E.field, rank=E.rank * F.rank,
                          gram_real=reals, gram_complex=cplx)


def determinant(E: ArakelovBundle) -> ArakelovBundle:
    """Top exterior power: the rank-1 bundle whose Gram at each place is the
    scalar det of E's Gram there; same degree as E."""
    reals = tuple(((rat_det(g),),) for g in E.gram_real)
    cplx = tuple((((_hermitian_det(g),),), ((Fraction(0),),))
                 for g in E.gram_complex)
    return ArakelovBundle(field=E.field, rank=1,
                          gram_real=reals, gram_complex=cplx)


def dual(E: ArakelovBundle) -> ArakelovBundle:
    """Dual bundle: inverse Gram at every place; negates the degree."""
    reals = tuple(tuple(tuple(row) for row in rat_inverse(g))
                  for g in E.gram_real)
    cplx = tuple(_complex_inverse(g) for g in E.gram_complex)
    return ArakelovBundle(field=E.field, rank=E.rank,
                          gram_real=reals, gram_complex=cplx)


def scale(E: ArakelovBundle, t: float) -> ArakelovBundle:
    """Multiply every norm by t (complex-place values, being squared norms,
    by t^2).  Slope decreases by d * log t."""
    if t <= 0:
        raise InvalidMetricError("scaling factor must be positive")
    c = Fraction(t) * Fraction(t)
    reals = tuple(_freeze(_mat_scale(g, c)) for g in E.gram_real)
    cplx = tuple((_freeze(_mat_scale(re, c)), _freeze(_mat_scale(im, c)))
                 for re, im in E.gram_complex)
    return ArakelovBundle(field=E.field, rank=E.rank,
                          gram_real=reals, gram_complex=cplx)


# ----------------------------------------------------------------------
# subbundles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SaturatedSubbundle:
    """A subbundle together with its embedding: basis rows are module
    coordinates in the ambient bundle."""

    bundle: ArakelovBundle
    basis: tuple[tuple, ...]


def _module_to_zrows(field: NumberField, vectors) -> list[list[int]]:
    """Integer rows for the Z-span of the given module vectors (and, over a
    quadratic field, of w times each vector), after clearing denominators."""
    rows = []
    for v in vectors:
        if field.is_rational():
            elems = [field.coerce(x) for x in v]
            den = 1
            for x in elems:
                den = math.lcm(den, x.denominator)
            rows.append([int(x * den) for x in elems])
        else:
            scaled = _clear_vector(field, v)
            for mult in (False, True):
                row = []
                for x in scaled:
                    y = field.mul(field.element(0, 1), x) if mult else x
                    row.append((int(y.a), int(y.b)))
                rows.append([c for ab in row for c in ab])
    return rows


def _clear_vector(field: NumberField, v) -> list[QuadElement]:
    """Scale a quadratic-field vector to integral coordinates (same K-span)."""
    elems = [field.coerce(x) for x in v]
    den = 1
    for x in elems:
        den = math.lcm(den, x.a.denominator, x.b.denominator)
    return [QuadElement(x.a * den, x.b * den) for x in elems]


def saturate_subbundle(E: ArakelovBundle, generators) -> SaturatedSubbundle:
    """The unique subbundle whose generic fibre is the span of the given
    module vectors: saturated basis plus restricted metrics."""
    gens = list(generators)
    if not gens:
        raise DependentGeneratorsError("no generators given")
    field = E.field
    n = E.rank
    if field.is_rational():
        rows = _module_to_zrows(field, gens)
        if len(rows) != rat_rank(rows, n):
            raise DependentGeneratorsError("generators are K-linearly dependent")
        sat = saturation_rows(rows, n)
        basis = tuple(tuple(Fraction(x) for x in row) for row in sat)
    else:
        coerced = [_clear_vector(field, v) for v in gens]
        if len(coerced) != _ok_rank(field, coerced, n):
            raise DependentGeneratorsError("generators are K-linearly dependent")
        sat = ok_saturation_rows(field, coerced, n)
        basis = tuple(tuple(row) for row in sat)
    sub = _restricted_bundle(E, basis)
    return SaturatedSubbundle(bundle=sub, basis=basis)


def _ok_rank(field: NumberField, rows, ncols: int) -> int:
    # rank over K: clear to the rational 2x rows and halve
    zrows = _module_to_zrows(field, rows)
    return rat_rank(zrows, 2 * ncols) // 2


def _restricted_bundle(E: ArakelovBundle, basis) -> ArakelovBundle:
    """Bundle with E's metrics restricted to the span of the basis rows."""
    field = E.field
    k = len(basis)
    if field.is_rational():
        reals = []
        for g in E.gram_real:
            sub = [[sum(basis[i][a] * g[a][b] * basis[j][b]
                        for a in range(E.rank) for b in range(E.rank))
                    for j in range(k)] for i in range(k)]
            reals.append(_freeze(sub))
        return ArakelovBundle(field=field, rank=k,
                              gram_real=tuple(reals), gram_complex=())
    embeds = field.omega_embeddings()
    reals = []
    for idx in range(field.real_places):
        w = embeds[idx]
        emb = [[float(x.a) + float(x.b) * w for x in row] for row in basis]
        g = [[float(v) for v in row] for row in E.gram_real[idx]]
        sub = [[sum(emb[i][a] * g[a][b] * emb[j][b]
                    for a in range(E.rank) for b in range(E.rank))
                for j in range(k)] for i in range(k)]
        # symmetrize away float asymmetry before validation
        sub = [[(sub[i][j] + sub[j][i]) / 2.0 for j in range(k)]
               for i in range(k)]
        reals.append(_freeze(sub))
    cplx = []
    for idx in range(field.complex_places):
        w = embeds[field.real_places + idx]
        emb = [[complex(float(x.a), 0) + float(x.b) * w for x in row]
               for row in basis]
        re, im = E.gram_complex[idx]
        h = [[complex(float(a), float(b)) for a, b in zip(ra, ri)]
             for ra, ri in zip(re, im)]
        sub = [[sum(emb[i][a].conjugate() * h[a][b] * emb[j][b]
                    for a in range(E.rank) for b in range(E.rank))
                for j in range(k)] for i in range(k)]
        sub = [[(sub[i][j] + sub[j][i].conjugate()) / 2.0 for j in range(k)]
               for i in range(k)]
        for i in range(k):
            sub[i][i] = complex(sub[i][i].real, 0.0)
        cplx.append(_split_complex(sub))
    return ArakelovBundle(field=field, rank=k,
                          gram_real=tuple(reals), gram_complex=tuple(cplx))


# ----------------------------------------------------------------------
# restriction of scalars
# ----------------------------------------------------------------------

QPair = tuple[Fraction, Fraction]


def _sym(rows) -> RealGram:
    n = len(rows)
    return tuple(tuple((rows[i][j] + rows[j][i]) / 2 for j in range(n))
                 for i in range(n))


@dataclass(frozen=True)
class PlaceForm:
    """Quadratic form z A z^T + (z B z^T) sqrt(delta) of one infinite place
    on the restricted-scalars coordinates."""

    kind: str
    A: RealGram
    B: RealGram

    def value_pair(self, z: Sequence[int]) -> QPair:
        n = len(z)
        idx = [i for i in range(n) if z[i]]
        a = Fraction(0)
        b = Fraction(0)
        for i in idx:
            zi = z[i]
            rowA, rowB = self.A[i], self.B[i]
            for j in idx:
                a += zi * z[j] * rowA[j]
                b += zi * z[j] * rowB[j]
        return a, b


def qpair_leq(pair: QPair, bound: Fraction, delta: int) -> bool:
    """Exact test a + b sqrt(delta) <= bound for rational a, b, bound."""
    a, b = pair
    u = bound - a
    if b <= 0:
        return u >= 0 or b * b * delta >= u * u
    return u >= 0 and u * u >= b * b * delta


def qpair_float(pair: QPair, delta: int) -> float:
    a, b = pair
    if b == 0:
        return float(a)
    return float(a) + float(b) * math.sqrt(delta)


@dataclass(frozen=True)
class ZLatticeView:
    """The bundle's module seen as a Z-lattice of rank d*n, with the trace
    form for enumeration and exact per-place forms for filtering."""

    bundle: ArakelovBundle
    zrank: int
    delta: int  # square under the root in the exact form pairs; 0 over Q
    place_forms: tuple[PlaceForm, ...]
    trace_gram: tuple[tuple[float, ...], ...]

    def place_values(self, z: Sequence[int]) -> tuple[QPair, ...]:
        return tuple(f.value_pair(z) for f in self.place_forms)

    def values_leq(self, z: Sequence[int], caps: Sequence[Fraction]) -> bool:
        """Exact check that each place's form value is at most caps[v].

        The form value is the squared length at a real place and the squared
        modulus at a complex one, so a ball of radius t corresponds to the
        cap t^2 in both cases.
        """
        for f, cap in zip(self.place_forms, caps):
            if not qpair_leq(f.value_pair(z), cap, self.delta):
                return False
        return True

    def covolume(self) -> float:
        """Covolume under the canonical measure (doubled Lebesgue at complex
        places), computed from an exact determinant over Q(sqrt(delta)) of
        the sum of the place forms."""
        n = self.zrank
        A = [[sum(f.A[i][j] for f in self.place_forms) for j in range(n)]
             for i in range(n)]
        B = [[sum(f.B[i][j] for f in self.place_forms) for j in range(n)]
             for i in range(n)]
        d = det(_surds(A, B, self.delta))
        det_value = qpair_float((d.a, d.b), self.delta)
        r2 = self.bundle.field.complex_places
        return 2.0 ** (self.bundle.rank * r2) * math.sqrt(det_value)

    def coords_to_module(self, z: Sequence[int]) -> tuple:
        field = self.bundle.field
        if field.is_rational():
            return tuple(Fraction(x) for x in z)
        return tuple(field.element(z[2 * i], z[2 * i + 1])
                     for i in range(self.bundle.rank))


def restrict_scalars(E: ArakelovBundle) -> ZLatticeView:
    field = E.field
    n = E.rank
    if field.is_rational():
        A = E.gram_real[0]
        zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
        form = PlaceForm(kind="real", A=A, B=zero)
        trace = tuple(tuple(float(x) for x in row) for row in A)
        return ZLatticeView(bundle=E, zrank=n, delta=0,
                            place_forms=(form,), trace_gram=trace)

    D = field.D
    delta = abs(D)
    s, q = field.omega_minpoly()
    x0 = Fraction(s, 2)
    y0 = Fraction(1, 2) if field.omega_is_half else Fraction(1)
    N = 2 * n
    forms = []

    def zeros():
        return [[Fraction(0)] * N for _ in range(N)]

    if D > 0:
        for k in range(2):
            sign = 1 if k == 0 else -1
            G = E.gram_real[k]
            A, B = zeros(), zeros()
            for i in range(n):
                for j in range(n):
                    g = G[i][j]
                    A[2 * i][2 * j] += g
                    A[2 * i][2 * j + 1] += x0 * g
                    A[2 * i + 1][2 * j] += x0 * g
                    A[2 * i + 1][2 * j + 1] += (s * x0 - q) * g
                    B[2 * i][2 * j + 1] += sign * y0 * g
                    B[2 * i + 1][2 * j] += sign * y0 * g
                    B[2 * i + 1][2 * j + 1] += sign * s * y0 * g
            forms.append(PlaceForm(kind="real", A=_sym(A), B=_sym(B)))
    else:
        R, I = E.gram_complex[0]
        A, B = zeros(), zeros()
        for i in range(n):
            for j in range(n):
                r, im = R[i][j], I[i][j]
                A[2 * i][2 * j] += r
                A[2 * i + 1][2 * j + 1] += q * r
                # Re(omega * H_ij) and Re(conj(omega) * H_ji) entries
                A[2 * i][2 * j + 1] += x0 * r
                B[2 * i][2 * j + 1] += -y0 * im
                A[2 * i + 1][2 * j] += x0 * r
                B[2 * i + 1][2 * j] += y0 * im
        forms.append(PlaceForm(kind="complex", A=_sym(A), B=_sym(B)))

    root = math.sqrt(delta)
    trace_rows = [[0.0] * N for _ in range(N)]
    for f in forms:
        weight = 2.0 if f.kind == "complex" else 1.0
        for i in range(N):
            for j in range(N):
                val = float(f.A[i][j]) + float(f.B[i][j]) * root
                trace_rows[i][j] += weight * val
    trace = tuple(tuple(row) for row in trace_rows)
    return ZLatticeView(bundle=E, zrank=N, delta=delta,
                        place_forms=tuple(forms), trace_gram=trace)
