"""Exact linear algebra over Z, Q, quadratic fields and their integer rings.

Everything here is exact: integer matrices use Python ints, rational ones
come in and go out as fractions.Fraction, and quadratic integers use
QuadElement coordinates.

Over fields there is one elimination, the fraction-free (Bareiss)
``_bareiss``.  A matrix M is first written once as c A, with c > 0 rational
and A a primitive integer matrix: rational entries become ints, and QSurd
entries a + b sqrt(delta) (delta = -1 gives Q(i), hence Hermitian forms)
become elements of Z[sqrt(delta)] with int parts.  The elimination runs on
A with exact divisions only, so no Fraction is built inside it, and its
pivots are minors of A.  Determinant, rank, inverse and the Sylvester
positive-definiteness test read them and divide once, at the end.

Over rings the workhorse is row Hermite reduction with a tracked unimodular
transform; kernels and saturations fall out of it (a transform-tracked
echelon yields a saturated kernel basis, and saturation is the kernel of the
kernel).  Over quadratic rings the same echelon runs with Euclidean division
steps, which restricts those entry points to norm-Euclidean fields.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UnsupportedFieldError
from .numberfield import NumberField, QuadElement

__all__ = [
    "NORM_EUCLIDEAN_D",
    "QSurd",
    "det",
    "hnf",
    "hnf_with_transform",
    "inverse",
    "kernel_rows",
    "ok_divmod",
    "ok_gcd",
    "ok_kernel_rows",
    "ok_saturation_rows",
    "rat_det",
    "rat_inverse",
    "right_kernel_rows",
    "saturation_rows",
    "transpose",
]

# Quadratic fields whose ring of integers is norm-Euclidean; Euclidean-division
# based routines refuse anything else.
NORM_EUCLIDEAN_D = (-11, -7, -3, -2, -1,
                    2, 3, 5, 6, 7, 11, 13, 17, 19, 21, 29, 33, 37, 41)

Matrix = list[list[int]]


def transpose(rows: list[list], ncols: int) -> list[list]:
    return [[row[j] for row in rows] for j in range(ncols)]


def _identity(m: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _as_int_matrix(rows) -> Matrix:
    out = []
    for row in rows:
        new = []
        for x in row:
            xi = int(x)
            if xi != x:
                raise ValueError(f"non-integer matrix entry {x!r}")
            new.append(xi)
        out.append(new)
    return out


def hnf_with_transform(rows, ncols: int | None = None) -> tuple[Matrix, Matrix]:
    """Row Hermite form H = U A with U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Zero rows sink to the bottom, so the
    rows of U opposite them form a basis of the left kernel of A.
    """
    A = _as_int_matrix(rows)
    m = len(A)
    n = len(A[0]) if m else (ncols or 0)
    U = _identity(m)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [a - q * b for a, b in zip(A[r], A[i])]
                U[r] = [a - q * b for a, b in zip(U[r], U[i])]
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
        if A[r][c] < 0:
            A[r] = [-a for a in A[r]]
            U[r] = [-a for a in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return A, U


def hnf(rows, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite form with zero rows dropped; usable as a dict key."""
    H, _ = hnf_with_transform(rows, ncols)
    return tuple(tuple(row) for row in H if any(row))


def kernel_rows(rows, ncols: int | None = None) -> Matrix:
    """Basis of the left kernel {u : u A = 0}; always a saturated subgroup."""
    H, U = hnf_with_transform(rows, ncols)
    return [U[i] for i in range(len(H)) if not any(H[i])]


def right_kernel_rows(rows, ncols: int) -> Matrix:
    """Basis of {x : A x = 0}, each solution returned as a row."""
    return kernel_rows(transpose(rows, ncols), len(rows))


def saturation_rows(rows, ncols: int) -> Matrix:
    """Basis of the saturation (Q-span intersected with Z^n) of the row span,
    returned in canonical Hermite form."""
    comp = right_kernel_rows(rows, ncols)
    if not comp:
        return _identity(ncols)
    sat = right_kernel_rows(comp, ncols)
    return [list(row) for row in hnf(sat, ncols)]


# ----------------------------------------------------------------------
# matrices over fields: one fraction-free elimination
# ----------------------------------------------------------------------

class QSurd:
    """Element a + b sqrt(delta) of Q(sqrt(delta)), delta not a nonzero square.

    - *, a zero test, float() and an exact order, which for delta < 0
    covers only the rational elements.  With int parts it is an element of
    Z[sqrt(delta)], and // is the exact quotient there.  Plain ints and
    Fractions mix in with b = 0.
    """

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta: int):
        self.a, self.b, self.delta = a, b, delta

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * math.sqrt(self.delta)

    def _sign(self) -> int:
        """Exact sign of a + b sqrt(delta)."""
        a, b, delta = self.a, self.b, self.delta
        sa = (a > 0) - (a < 0)
        if not b or not delta:
            return sa
        if delta < 0:
            raise TypeError("only rational QSurd values are ordered")
        sb = 1 if b > 0 else -1
        if sa != -sb:
            return sb
        # a and b sqrt(delta) have opposite signs: the larger square wins.
        d = a * a - b * b * delta
        return sa if d > 0 else (sb if d < 0 else 0)

    def __le__(self, y) -> bool:
        return (self - y)._sign() <= 0

    def __sub__(self, y) -> QSurd:
        if y.__class__ is not QSurd:
            return QSurd(self.a - y, self.b, self.delta)
        return QSurd(self.a - y.a, self.b - y.b, self.delta)

    def __mul__(self, y) -> QSurd:
        a, b = self.a, self.b
        if y.__class__ is not QSurd:
            return QSurd(a * y, b * y, self.delta)
        c, d = y.a, y.b
        return QSurd(a * c + self.delta * b * d, a * d + b * c, self.delta)

    __rmul__ = __mul__

    def __floordiv__(self, y) -> QSurd:
        """Exact quotient of int-part elements by a divisor of self:
        (a + b r) / (c + d r) = (a + b r)(c - d r) / (c^2 - delta d^2)."""
        a, b = self.a, self.b
        if y.__class__ is not QSurd:
            return QSurd(a // y, b // y, self.delta)
        c, d = y.a, y.b
        if not d:  # a rational divisor, as every Hermitian minor is
            return QSurd(a // c, b // c, self.delta)
        norm = c * c - self.delta * d * d
        return QSurd((a * c - self.delta * b * d) // norm,
                     (b * c - a * d) // norm, self.delta)


def _re_im(m) -> tuple[list[list], list[list]]:
    """The parts of a QSurd matrix: m = re + im sqrt(delta)."""
    return [[x.a for x in row] for row in m], [[x.b for x in row] for row in m]


def _bareiss(M: list[list], ncols: int, swap: bool = True,
             reduce_above: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination in place on the rows of M.

    Entries are ints or QSurds with int parts.  Each step sets
    m_ij <- (p m_ij - m_ic m_rj) // p_prev, with p the new pivot and p_prev
    the one before it (1 at the start); by Sylvester's identity every entry
    stays a minor of the input, so the quotient is exact (Bareiss, Math.
    Comp. 22, 1968).  Returns the pivot columns in order and the parity
    (+1 or -1) of the row swaps; the k-th pivot is M[k][cols[k]] and
    len(cols) is the rank of the first ncols columns.  With reduce_above the
    rows above each pivot are cleared too (Gauss-Jordan).  With swap=False
    rows never move, pivot k sits on the diagonal, and elimination stops
    after listing the first zero one: pivot k is then the leading minor of
    size k + 1.
    """
    m = len(M)
    cols: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        if swap:
            piv = next((i for i in range(r, m) if M[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                M[r], M[piv] = M[piv], M[r]
                sign = -sign
        cols.append(c)
        p = M[r][c]
        if not p:
            break
        # Entries left of column c + 1 are never read again.
        tail = M[r][c + 1:]
        for i in (range(m) if reduce_above else range(r + 1, m)):
            if i == r:
                continue
            row = M[i]
            f = row[c]
            if r:
                row[c + 1:] = [(p * a - f * b) // prev
                               for a, b in zip(row[c + 1:], tail)]
            else:  # the first step divides by 1
                row[c + 1:] = [p * a - f * b
                               for a, b in zip(row[c + 1:], tail)]
        prev = p
        r += 1
    return cols, sign


def _scaled(M: list[list]) -> tuple[list[list], Fraction]:
    """A primitive integer matrix A and the rational c > 0 with M = c A.

    Rational entries become ints; when any entry is a QSurd, every entry
    becomes a QSurd with int parts.  c is the gcd g of the entries of L M
    over L, the lcm of the denominators of M's entries: dividing g out keeps
    the integers of the elimination small (a Gram scaled by a float t^2
    carries t^2's numerator in every entry).
    """
    flat = [x for row in M for x in row]
    delta = next((x.delta for x in flat if isinstance(x, QSurd)), None)
    if delta is not None:
        flat = [y for x in flat for y in ((x.a, x.b) if isinstance(x, QSurd)
                                          else (x, 0))]
    try:
        ratios = [x.as_integer_ratio() for x in flat]
    except AttributeError:  # numpy integers, strings
        ratios = [Fraction(x).as_integer_ratio() for x in flat]
    dens = {d for _, d in ratios}
    L = math.lcm(*dens)
    mult = {d: L // d for d in dens}
    ints = [a * mult[d] for a, d in ratios]
    g = math.gcd(*ints) or 1
    ints = [a // g for a in ints]
    if delta is not None:
        ints = [QSurd(a, b, delta) for a, b in zip(ints[::2], ints[1::2])]
    m = len(M[0]) if M else 0
    return [ints[i * m:(i + 1) * m] for i in range(len(M))], Fraction(g, L)


def _over(x, q: int):
    """x / q for an int or int-part QSurd x, as a Fraction or a QSurd with
    Fraction parts."""
    if isinstance(x, QSurd):
        return QSurd(Fraction(x.a, q), Fraction(x.b, q), x.delta)
    return Fraction(x, q)


def det(M: list[list]):
    """Determinant of a square matrix of rationals (a Fraction) or of QSurds
    (a QSurd with Fraction parts).  With M = c A, it is c^n times the last
    Bareiss pivot of A, up to the sign of the row swaps."""
    n = len(M)
    A, c = _scaled(M)
    cols, sign = _bareiss(A, n)
    d = A[n - 1][n - 1] * (sign if len(cols) == n else 0)
    return _over(d * c.numerator ** n, c.denominator ** n)


def rank(M: list[list], ncols: int) -> int:
    """Rank of a matrix of rationals or QSurds."""
    A, _ = _scaled(M)
    return len(_bareiss(A, ncols)[0])


def inverse(M: list[list]) -> list[list]:
    """Inverse of a square matrix of rationals (Fractions) or of QSurds
    (QSurds with Fraction parts); raises ZeroDivisionError when it is
    singular.

    With M = c A, fraction-free Gauss-Jordan on [A | I] ends at [d I | T]
    with d the last pivot, so T A = d I and the inverse is T / (c d): one
    division per entry, at the end.
    """
    n = len(M)
    A, c = _scaled(M)
    for i in range(n):
        A[i] += [1 if i == j else 0 for j in range(n)]
    if len(_bareiss(A, n, reduce_above=True)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    d = A[n - 1][n - 1]
    if isinstance(d, QSurd):
        # x / (c d) = x conj(d) / (c N(d))
        conj = QSurd(c.denominator * d.a, -c.denominator * d.b, d.delta)
        norm = c.numerator * (d.a * d.a - d.delta * d.b * d.b)
        return [[_over(x * conj, norm) for x in row[n:]] for row in A]
    return [[Fraction(c.denominator * x, c.numerator * d) for x in row[n:]]
            for row in A]


def _definite_det(A: list[list]):
    """det A when the symmetric integer matrix A (Hermitian, of int-part
    QSurds) is positive definite, else None.  By Sylvester's criterion the
    Bareiss pivots of a copy of A without row swaps, its leading minors,
    must all be positive; the last is det A.  Hermitian minors are
    rational; a non-real one (A is not Hermitian) raises TypeError."""
    n = len(A)
    M = [list(row) for row in A]
    cols, _ = _bareiss(M, n, swap=False)
    if len(cols) < n or any(
            (p._sign() if isinstance(p, QSurd) else p) <= 0
            for p in (M[k][k] for k in range(n))):
        return None
    return M[n - 1][n - 1]


def rat_det(rows) -> Fraction:
    return det(rows)


def rat_inverse(rows) -> list[list[Fraction]]:
    return inverse(rows)


# ----------------------------------------------------------------------
# quadratic rings of integers (norm-Euclidean only)
# ----------------------------------------------------------------------

def _require_norm_euclidean(field: NumberField):
    if field.is_rational():
        return
    if field.D not in NORM_EUCLIDEAN_D:
        raise UnsupportedFieldError(
            f"{field.descriptor} is not norm-Euclidean; "
            "exact module reduction is unavailable")


def ok_divmod(field: NumberField, x: QuadElement, y: QuadElement):
    """Euclidean step: q, r with x = q y + r and |N(r)| < |N(y)|."""
    _require_norm_euclidean(field)
    ny = abs(field.norm(y))
    if ny == 0:
        raise ZeroDivisionError("division by zero")
    z = field.divide(x, y)
    a0, b0 = math.floor(z.a), math.floor(z.b)
    best = None
    for da in range(-1, 3):
        for db in range(-1, 3):
            q = field.element(a0 + da, b0 + db)
            r = field.sub(x, field.mul(q, y))
            nr = abs(field.norm(r))
            if best is None or nr < best[0]:
                best = (nr, q, r)
    if best[0] >= ny:
        raise UnsupportedFieldError(
            f"Euclidean division failed in {field.descriptor}")
    return best[1], best[2]


def ok_gcd(field: NumberField, x: QuadElement, y: QuadElement) -> QuadElement:
    while not field.is_zero(y):
        _, r = ok_divmod(field, x, y)
        x, y = y, r
    return x


def _ok_echelon_with_transform(field: NumberField, rows, ncols: int):
    """Row echelon over the ring of integers with a tracked GL transform."""
    _require_norm_euclidean(field)
    A = [[field.coerce(x) for x in row] for row in rows]
    m = len(A)
    one, zero = field.element(1), field.element(0)
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]

    def combine(dst, src, q):
        A[dst] = [field.sub(a, field.mul(q, b)) for a, b in zip(A[dst], A[src])]
        U[dst] = [field.sub(a, field.mul(q, b)) for a, b in zip(U[dst], U[src])]

    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if not field.is_zero(A[i][c])), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            while not field.is_zero(A[i][c]):
                q, _ = ok_divmod(field, A[r][c], A[i][c])
                combine(r, i, q)
                A[r], A[i] = A[i], A[r]
                U[r], U[i] = U[i], U[r]
        r += 1
        if r == m:
            break
    return A, U


def ok_kernel_rows(field: NumberField, rows, ncols: int):
    """Basis of the left kernel of a matrix over the ring of integers."""
    A, U = _ok_echelon_with_transform(field, rows, ncols)
    return [U[i] for i in range(len(A))
            if all(field.is_zero(x) for x in A[i])]


def ok_saturation_rows(field: NumberField, rows, ncols: int):
    """Saturation of the row span inside O_K^n (kernel of the kernel)."""
    if field.is_rational():
        sat = saturation_rows(rows, ncols)
        return [[Fraction(x) for x in row] for row in sat]
    coerced = [[field.coerce(x) for x in row] for row in rows]
    comp = ok_kernel_rows(field, transpose(coerced, ncols), len(coerced))
    if not comp:
        one, zero = field.element(1), field.element(0)
        return [[one if i == j else zero for j in range(ncols)]
                for i in range(ncols)]
    return ok_kernel_rows(field, transpose(comp, ncols), len(comp))
