"""Arakelov bundles: metrized free modules over a number ring.

A bundle is the free module O_K^n together with one positive-definite Gram
matrix per infinite place (symmetric at real places, Hermitian at complex
ones).  Gram entries are stored as exact rationals: every float converts to a
Fraction without loss, complex entries become (real, imaginary) Fraction
pairs.  Degrees therefore come from exact determinants, taken by
fraction-free elimination on the Gram scaled to integers and rounded only
at the final logarithm.

Every functor runs on one content form per bundle: a rational c > 0 and
integer place matrices A_v with no common factor (Gaussian QSurds at a
complex place), Gram_v = c A_v, together with the place determinants.
_bundle builds a bundle from these alone, and restrict_scalars reads them;
the stored Fraction Grams, which reports print, are derived on first read.
The functors carry the data through: tensor takes Kronecker products of the
A_v, primitive over Q by Gauss's lemma, with content c_E c_F and
determinants det_E^m det_F^n; scale keeps the A_v and multiplies c by t^2
and the determinants by t^(2n); dual inverts; make_bundle's Sylvester check,
which a bundle built field by field also passes, gives each determinant.
intlinalg._scaled, the only step where rationals become integers, runs
where a content is not known.

restrict_scalars exposes the module as a Z-lattice of rank d*n, with
coordinates z over the basis p_a e_i, p = (1, w) the integral basis.  At a
place v the squared norm of sum z_ia p_a e_i is sum z_ia z_jb G_ij
conj(p_a) p_b, so the restricted form is the Gram G_v tensored with the
table P_ab = conj(p_a) p_b at v (Neukirch, Algebraic Number Theory, I 5).
With w = s/2 + (y/2) sqrt(D), 2P is TA + TB sqrt(D) at a real place, and
at the complex place 2 Re P = TA and 2 Im P = -TB sqrt|D|, for integer 2x2
tables TA, TB.  With Gram_v = c A_v the form is
(c/2) (z A z^T + (z B z^T) sqrt|D|) with A = G (x) TA and B = H (x) TB:
H = G = A_v at a real place, and G, H are the real and imaginary parts of
the Gaussian integer matrix A_v at the complex place, since
Re(P G) = Re P Re G - Im P Im G.  Over Q the form is c A_v itself.  Each
form keeps its rational scale apart from its integer matrices; its value
at an integer vector is a QSurd, summed on Python ints and normalised
once, which lets downstream enumeration filters decide boundary
membership exactly even for quadratic fields.  The trace form, which
enumeration reduces, is their exact sum, complex places twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import (
    DependentGeneratorsError,
    FieldMismatchError,
    InvalidMetricError,
)
from .intlinalg import (
    QSurd,
    _definite_det,
    _re_im,
    _scaled,
    det,
    inverse,
    ok_saturation_rows,
    rank,
)
from .lattice import apply_transform, as_float, form_value
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


def log_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log of non-positive value")
    return math.log(x.numerator) - math.log(x.denominator)


# ----------------------------------------------------------------------
# matrix helpers
# ----------------------------------------------------------------------

def _kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def _surds(A, B, delta: int) -> list[list[QSurd]]:
    """The matrix A + B sqrt(delta) as QSurd entries; delta = -1 reads a
    Hermitian (real part, imaginary part) pair."""
    return [[QSurd(a, b, delta) for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


# ----------------------------------------------------------------------
# the bundle type
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArakelovBundle:
    """Free module O_K^rank with one exact Gram matrix per infinite place.

    Built field by field (ArakelovBundle(...), dataclasses.replace), it is
    checked as make_bundle checks, rank included, and keeps the content form
    and place determinants the check finds.  A bundle the functors build
    holds only those; its Gram fields are derived on first read."""

    field: NumberField
    rank: int
    gram_real: tuple[RealGram, ...]
    gram_complex: tuple[ComplexGram, ...]

    def __post_init__(self):
        content, dets = _checked(self.field, self.rank, list(self.gram_real),
                                 list(self.gram_complex))
        self.__dict__.update(_content=content, _dets=dets)

    def __getattr__(self, name):
        """The Gram fields of a bundle that _bundle built, read off its
        content form on first use; only reached when the instance holds no
        such attribute."""
        if name not in ("gram_real", "gram_complex"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        c, forms = self._content
        r1 = self.field.real_places

        def over(m) -> RealGram:
            return tuple(tuple(c * x for x in row) for row in m)

        self.__dict__.update(
            gram_real=tuple(map(over, forms[:r1])),
            gram_complex=tuple(tuple(map(over, _re_im(m)))
                               for m in forms[r1:]))
        return self.__dict__[name]


def _primitive(mats, n: int, c: Fraction = Fraction(1)):
    """(c', [A_v]) with c mats[v] = c' A_v and the A_v jointly primitive
    integer matrices (Gaussian QSurds at complex places): one _scaled over
    all places."""
    A, s = _scaled([row for m in mats for row in m])
    return s * c, [A[k:k + n] for k in range(0, len(A), n)]


def _bundle(field: NumberField, n: int, content,
            dets: tuple[Fraction, ...]) -> ArakelovBundle:
    """The rank-n bundle with content form content = (c, [A_v]), Gram_v =
    c A_v with the A_v jointly primitive, and place determinants dets,
    real places first; its Gram fields are derived on first read."""
    E = object.__new__(ArakelovBundle)
    E.__dict__.update(field=field, rank=n, _content=content, _dets=dets)
    return E


@lru_cache(maxsize=None)
def trivial_bundle(field: NumberField, n: int) -> ArakelovBundle:
    """The bundle O^n: standard scalar products everywhere, degree zero."""
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return make_bundle(field, [ident] * len(field.infinite_places()))


def _gaussian(x) -> QSurd:
    """An entry at a complex place as re + im sqrt(-1)."""
    if x.__class__ is not QSurd:
        return QSurd(x.real, x.imag, -1)
    if x.delta != -1:
        raise InvalidMetricError(f"QSurd entry over sqrt({x.delta}) at a "
                                 "complex place; only sqrt(-1) is read")
    return x


def _validated_det(m) -> int:
    """det of a place's integer matrix, which must be Hermitian
    (symmetric at a real place) and positive definite: one elimination
    both checks Sylvester's criterion and gives the determinant."""
    for i, row in enumerate(m):
        for j in range(i + 1):
            x, y = row[j], m[j][i]
            if (x != y if x.__class__ is not QSurd
                    else (x.a, x.b) != (y.a, -y.b)):
                raise InvalidMetricError("Gram matrix is not symmetric "
                                         "(Hermitian at complex places)")
    d = _definite_det(m)
    if d is None:
        raise InvalidMetricError("Gram matrix is not positive definite")
    return d.a if d.__class__ is QSurd else d


def _checked(field: NumberField, rank: int, real: list, pairs: list):
    """The content form and place determinants of Grams given per real
    place, and per complex place as a (real part, imaginary part) pair;
    InvalidMetricError unless each is rank x rank, real, finite, Hermitian
    (symmetric at a real place) and positive definite."""
    r1, r2 = field.real_places, field.complex_places
    if (len(real), len(pairs)) != (r1, r2) or any(len(p) != 2 for p in pairs):
        raise InvalidMetricError(
            f"expected {r1} real-place Gram matrices and {r2} complex-place "
            f"(real part, imaginary part) pairs for {field.descriptor}")
    if rank < 1:
        raise InvalidMetricError("rank must be at least 1")
    parts = real + [m for p in pairs for m in p]
    if any(len(m) != rank or any(len(row) != rank for row in m)
           for m in parts):
        raise InvalidMetricError(f"Gram matrix must be {rank}x{rank}")
    if any(isinstance(x, (complex, QSurd))
           for m in parts for row in m for x in row):
        raise InvalidMetricError("complex entry where a real one is required")
    try:
        c, forms = _primitive(
            real + [_surds(re, im, -1) for re, im in pairs], rank)
    except (OverflowError, ValueError):  # inf or nan read exactly
        raise InvalidMetricError("Gram entries must be finite") from None
    cn = c ** rank
    return (c, forms), tuple(cn * _validated_det(m) for m in forms)


def make_bundle(field: NumberField, grams) -> ArakelovBundle:
    """Build a bundle from one Gram matrix per infinite place, real places
    first.  For fields with a single infinite place a bare matrix is accepted.
    Entries may be int, float or Fraction, and must be finite; at complex
    places also complex, read exactly from its float parts, or a Gaussian
    QSurd re + im sqrt(-1) with rational parts, read exactly."""
    mats = list(grams)
    if mats and mats[0] and not isinstance(mats[0][0], (list, tuple)):
        # a bare matrix rather than a list of matrices
        mats = [mats]
    rank, r1 = len(mats[0]) if mats else 0, field.real_places
    pairs = [_re_im([[_gaussian(x) for x in row] for row in m])
             for m in mats[r1:]]
    return _bundle(field, rank, *_checked(field, rank, mats[:r1], pairs))


# ----------------------------------------------------------------------
# invariants and functors
# ----------------------------------------------------------------------

def degree(bundle: ArakelovBundle) -> float:
    """deg = sum over places of -e_v log det G_v, with e_v = 1/2 at real
    places and 1 at complex ones."""
    r1 = bundle.field.real_places
    return 0.0 - sum((0.5 if v < r1 else 1.0) * log_fraction(d)
                     for v, d in enumerate(bundle._dets))


def slope(bundle: ArakelovBundle) -> float:
    return degree(bundle) / bundle.rank


def tensor(E: ArakelovBundle, F: ArakelovBundle) -> ArakelovBundle:
    """Tensor product: Kronecker product of the Grams at each place, which
    makes slope additive."""
    if E.field != F.field:
        raise FieldMismatchError(
            f"bundles live over {E.field.descriptor} and {F.field.descriptor}")
    (cE, fE), (cF, fF) = E._content, F._content
    n, m = E.rank, F.rank
    forms = [_kron(a, b) for a, b in zip(fE, fF)]
    # Over Q the product of primitive matrices is primitive (Gauss's
    # lemma); across two places, or over Gaussian integers ((1 + i)^2 =
    # 2i), it can have a content of its own.
    content = ((cE * cF, forms) if E.field.is_rational()
               else _primitive(forms, n * m, cE * cF))
    return _bundle(E.field, n * m, content,
                   tuple(a ** m * b ** n for a, b in zip(E._dets, F._dets)))


def determinant(E: ArakelovBundle) -> ArakelovBundle:
    """Top exterior power: the rank-1 bundle whose Gram at each place is the
    scalar det of E's Gram there; same degree as E."""
    return make_bundle(E.field, [[[d]] for d in E._dets])


def dual(E: ArakelovBundle) -> ArakelovBundle:
    """Dual bundle: inverse Gram at every place; negates the degree."""
    c, forms = E._content
    return _bundle(E.field, E.rank,
                   _primitive([inverse(m) for m in forms], E.rank, 1 / c),
                   tuple(1 / d for d in E._dets))


def scale(E: ArakelovBundle, t: float) -> ArakelovBundle:
    """Multiply every norm by t (complex-place values, being squared norms,
    by t^2).  Slope decreases by d * log t."""
    if not 0 < t < math.inf:
        raise InvalidMetricError("scaling factor must be positive and finite")
    c, forms = E._content
    t2 = Fraction(t) ** 2
    return _bundle(E.field, E.rank, (c * t2, forms),
                   tuple(d * t2 ** E.rank for d in E._dets))


# ----------------------------------------------------------------------
# subbundles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SaturatedSubbundle:
    """A subbundle together with its embedding: basis rows are module
    coordinates in the ambient bundle."""

    bundle: ArakelovBundle
    basis: tuple[tuple, ...]


def _clear_vector(field: NumberField, v) -> list:
    """Scale a module vector to integral coordinates (same K-span)."""
    elems = [field.coerce(x) for x in v]
    den = math.lcm(*(c.denominator for x in elems for c in _coords(x)))
    return [field.mul(den, x) for x in elems]


def _coords(x) -> tuple[Fraction, ...]:
    """Coordinates of a field element over the integral basis."""
    return (x.a, x.b) if isinstance(x, QuadElement) else (x,)


def saturate_subbundle(E: ArakelovBundle, generators) -> SaturatedSubbundle:
    """The unique subbundle whose generic fibre is the span of the given
    module vectors: saturated basis plus restricted metrics."""
    field = E.field
    gens = [_clear_vector(field, v) for v in generators]
    if not gens:
        raise DependentGeneratorsError("no generators given")
    if any(len(v) != E.rank for v in gens):
        raise ValueError(f"generators must have {E.rank} coordinates")
    # k vectors are K-independent when their multiples by the integral
    # basis have Q-rank d k
    rows = [[c for x in v for c in _coords(field.mul(w, x))]
            for v in gens for w in field.integral_basis()]
    if rank(rows, field.degree * E.rank) != field.degree * len(gens):
        raise DependentGeneratorsError("generators are K-linearly dependent")
    basis = tuple(map(tuple, ok_saturation_rows(field, gens, E.rank)))
    return SaturatedSubbundle(bundle=_restricted_bundle(E, basis), basis=basis)


def _restricted_bundle(E: ArakelovBundle, basis) -> ArakelovBundle:
    """Bundle with E's metrics restricted to the span of the basis rows.

    Over Q this is exact.  Over a quadratic field each place's Gram G is
    restricted in floats as conj(emb) G emb^T, with emb the basis embedded
    at that place; sums run through math.fsum at real places and plain sum
    at complex ones.  Each entry is a sum of products of once-rounded
    embeddings and Gram entries, so (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3) it is within (2n + 4) 2^-52 sum_ab s_ia
    |G_ab| s_jb of the exact conj(e_i) G e_j^T, where n = E.rank, e_ia =
    a + b w is entry a of basis row i and s_ia = |a| + |b| |w|.
    """
    field = E.field
    k, n = len(basis), E.rank
    c, forms = E._content
    if field.is_rational():
        return make_bundle(field, [[x * c for x in row] for row in
                                   apply_transform(basis, forms[0])])
    p, q = c.numerator, c.denominator
    r1 = field.real_places
    grams = []
    for v, (g, w) in enumerate(zip(forms, field.omega_embeddings())):
        num, total = (float, math.fsum) if v < r1 else (complex, sum)
        # p * x / q is correctly rounded, as float(Fraction(p * x, q)) is
        G = [[p * x / q if v < r1 else complex(p * x.a / q, p * x.b / q)
              for x in row] for row in g]
        emb = [[float(x.a) + float(x.b) * w for x in row] for row in basis]
        T = [[total(G[a][b] * e[b] for b in range(n)) for e in emb]
             for a in range(n)]
        sub = [[total(e[a].conjugate() * T[a][j] for a in range(n))
                for j in range(k)] for e in emb]
        # symmetrise away float asymmetry, with a real diagonal
        sub = [[(sub[i][j] + sub[j][i].conjugate()) / 2.0 for j in range(k)]
               for i in range(k)]
        for i in range(k):
            sub[i][i] = num(sub[i][i].real)
        grams.append(sub)
    return make_bundle(field, grams)


# ----------------------------------------------------------------------
# restriction of scalars
# ----------------------------------------------------------------------

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PlaceForm:
    """Quadratic form scale (z A z^T + (z B z^T) sqrt(delta)) of one place,
    or the trace form, on the restricted-scalars coordinates.  A and B are
    integer matrices and scale is a positive rational; over Q, delta is 0
    and B is None."""

    kind: str
    A: IntMatrix
    B: IntMatrix | None
    scale: Fraction
    delta: int

    def value_pair(self, z: Sequence[int]) -> QSurd:
        p, q = self.scale.numerator, self.scale.denominator
        b = 0 if self.B is None else form_value(self.B, z)
        return QSurd(Fraction(p * form_value(self.A, z), q),
                     Fraction(p * b, q), self.delta)

    def gram_radius(self, radius: float) -> float:
        """A bound on the form's values as a bound on the values of gram,
        radius / scale in floats; ValueError when the scale's numerator or
        denominator has no float."""
        s = self.scale
        return radius * as_float(s.denominator) / as_float(s.numerator)

    @property
    def gram(self) -> list[list]:
        """The form over its scale as one matrix, of QSurds if B is set."""
        return self.A if self.B is None else _surds(self.A, self.B, self.delta)


@dataclass(frozen=True)
class ZLatticeView:
    """The bundle's module seen as a Z-lattice of rank d*n, with exact
    per-place forms for filtering and their exact sum, complex ones twice,
    as the trace form for enumeration."""

    bundle: ArakelovBundle
    zrank: int
    place_forms: tuple[PlaceForm, ...]
    trace_form: PlaceForm

    def place_values(self, z: Sequence[int]) -> tuple[QSurd, ...]:
        return tuple(f.value_pair(z) for f in self.place_forms)

    def values_leq(self, z: Sequence[int], caps: Sequence[Fraction]) -> bool:
        """Exact check that each place's form value is at most caps[v].

        The form value is the squared length at a real place and the squared
        modulus at a complex one, so a ball of radius t corresponds to the
        cap t^2 in both cases.
        """
        return all(f.value_pair(z) <= cap
                   for f, cap in zip(self.place_forms, caps))

    def covolume(self) -> float:
        """Covolume under the canonical measure (doubled Lebesgue at complex
        places, as in the trace form): the square root of its determinant."""
        t = self.trace_form
        return math.sqrt(float(det(t.gram) * t.scale ** self.zrank))

    def coords_to_module(self, z: Sequence[int]) -> tuple:
        field = self.bundle.field
        if field.is_rational():
            return tuple(Fraction(x) for x in z)
        return tuple(field.element(z[2 * i], z[2 * i + 1])
                     for i in range(self.bundle.rank))


def restrict_scalars(E: ArakelovBundle) -> ZLatticeView:
    """The module as a Z-lattice of rank d*n with one exact form per place,
    (c/2) (A_v (x) TA + (H_v (x) TB) sqrt|D|) for E's content form c A_v
    (see the module docstring), and their weighted sum as the trace form."""
    field = E.field
    c, mats = E._content
    if field.is_rational():
        form = PlaceForm("real", tuple(map(tuple, mats[0])), None, c, 0)
        return ZLatticeView(E, E.rank, (form,), form)
    # each place's kind and tables TA, TB, real places first: w^2 = s w - q
    # and w = s/2 +- (y/2) sqrt(D) at the two real places
    s, q = field.omega_minpoly()
    y = 1 if field.omega_is_half else 2
    r1 = field.real_places
    real = [[2, s], [s, s * s - 2 * q]]
    tables = ([("real", real, [[0, y], [y, s * y]]),
               ("real", real, [[0, -y], [-y, -s * y]])][:r1]
              + [("complex", [[2, s], [s, 2 * q]], [[0, -y], [y, 0]])]
              * field.complex_places)
    pairs = [(g, g) for g in mats[:r1]] + [_re_im(m) for m in mats[r1:]]
    delta, half = abs(field.D), c / 2
    forms = tuple(
        PlaceForm(kind, tuple(map(tuple, _kron(G, TA))),
                  tuple(map(tuple, _kron(H, TB))), half, delta)
        for (kind, TA, TB), (G, H) in zip(tables, pairs))
    # the trace form: the place forms summed, complex ones twice
    twice = forms + tuple(f for f in forms if f.kind == "complex")
    A, B = (tuple(tuple(map(sum, zip(*rows))) for rows in zip(*parts))
            for parts in ([f.A for f in twice], [f.B for f in twice]))
    return ZLatticeView(E, 2 * E.rank, forms,
                        PlaceForm("trace", A, B, half, delta))
