"""Exact linear algebra over Z, Q, quadratic fields and their integer rings.

Everything here is exact: integer matrices use Python ints, rational ones
use fractions.Fraction, and quadratic integers use QuadElement coordinates.

Over fields there is one Gaussian elimination, ``_eliminate``.  It touches
entries only through - * / and a zero test, so Fraction matrices and
matrices of QSurd elements a + b sqrt(delta) (delta = -1 gives Q(i), hence
Hermitian forms) share it.  Determinant, rank, inverse and the Sylvester
positive-definiteness test are thin readings of its result.

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
    "is_positive_definite",
    "is_primitive_vector",
    "kernel_rows",
    "ok_divmod",
    "ok_gcd",
    "ok_kernel_rows",
    "ok_saturation_rows",
    "rat_det",
    "rat_inverse",
    "rat_rank",
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


def is_primitive_vector(v) -> bool:
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return g == 1


# ----------------------------------------------------------------------
# matrices over fields: one elimination
# ----------------------------------------------------------------------

class QSurd:
    """Element a + b sqrt(delta) of Q(sqrt(delta)), delta not a nonzero square.

    - * /, a zero test, float() and an exact order, which for delta < 0
    covers only the rational elements (the pivots of a Hermitian matrix).
    Plain ints and Fractions mix in with b = 0.
    """

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta: int):
        self.a, self.b, self.delta = a, b, delta

    def _lift(self, y) -> QSurd:
        return y if isinstance(y, QSurd) else QSurd(y, 0, self.delta)

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

    def __gt__(self, y) -> bool:
        return (self - y)._sign() > 0

    def __le__(self, y) -> bool:
        return (self - y)._sign() <= 0

    def __sub__(self, y) -> QSurd:
        y = self._lift(y)
        return QSurd(self.a - y.a, self.b - y.b, self.delta)

    def __rsub__(self, y) -> QSurd:
        return self._lift(y) - self

    def __mul__(self, y) -> QSurd:
        y = self._lift(y)
        return QSurd(self.a * y.a + self.delta * self.b * y.b,
                     self.a * y.b + self.b * y.a, self.delta)

    __rmul__ = __mul__

    def __truediv__(self, y) -> QSurd:
        # (a + b r) / (c + d r) = (a + b r)(c - d r) / (c^2 - delta d^2)
        y = self._lift(y)
        norm = Fraction(y.a * y.a - self.delta * y.b * y.b)
        return QSurd((self.a * y.a - self.delta * self.b * y.b) / norm,
                     (self.b * y.a - self.a * y.b) / norm, self.delta)

    def __rtruediv__(self, y) -> QSurd:
        return self._lift(y) / self


def _eliminate(M: list[list], ncols: int, swap: bool = True,
               reduce_above: bool = False) -> tuple[list[int], int]:
    """Gaussian elimination in place on the rows of M over a field.

    Entries are used only through - * / and a zero test.  Returns the
    pivot columns in order and the parity (+1 or -1) of the row swaps; the
    k-th pivot is then M[k][cols[k]] and len(cols) is the rank of the
    first ncols columns.  With reduce_above the entries above each pivot are
    cleared too (Gauss-Jordan).  With swap=False rows never move, pivot k
    sits on the diagonal, and elimination stops after listing the first zero
    one: the pivots are then the ratios of consecutive leading minors.
    """
    m = len(M)
    cols: list[int] = []
    sign = 1
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
        # Row r is zero left of column c, so only the tail changes.
        tail = M[r][c:]
        for i in (range(m) if reduce_above else range(r + 1, m)):
            if i != r and M[i][c]:
                f = M[i][c] / p
                M[i][c:] = [a - f * b for a, b in zip(M[i][c:], tail)]
        r += 1
    return cols, sign


def det(M: list[list]):
    """Determinant of a square matrix of field elements (M is consumed).

    The echelon form of a square matrix is upper triangular, with a zero
    last row when the matrix is singular.
    """
    _, d = _eliminate(M, len(M))
    for k in range(len(M)):
        d = d * M[k][k]
    return d


def rank(M: list[list], ncols: int) -> int:
    """Rank of a matrix of field elements (M is consumed)."""
    return len(_eliminate(M, ncols)[0])


def inverse(M: list[list]) -> list[list]:
    """Inverse of a square matrix of field elements (M is consumed); raises
    ZeroDivisionError when it is singular."""
    n = len(M)
    for i in range(n):
        M[i] = M[i] + [1 if i == j else 0 for j in range(n)]
    if len(_eliminate(M, n, reduce_above=True)[0]) < n:
        raise ZeroDivisionError("singular matrix")
    return [[x / M[i][i] for x in M[i][n:]] for i in range(n)]


def is_positive_definite(M: list[list]) -> bool:
    """Sylvester's criterion for a symmetric or Hermitian matrix of field
    elements (M is consumed): all leading minors are positive exactly when
    elimination without row swaps meets only positive pivots."""
    n = len(M)
    cols, _ = _eliminate(M, n, swap=False)
    return len(cols) == n and all(M[k][k] > 0 for k in range(n))


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rat_det(rows) -> Fraction:
    return Fraction(det(_fractions(rows)))


def rat_inverse(rows) -> list[list[Fraction]]:
    return inverse(_fractions(rows))


def rat_rank(rows, ncols: int) -> int:
    return rank(_fractions(rows), ncols)


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
