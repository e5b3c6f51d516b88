"""Shared reference implementations and frozen constants for the tests.

Everything here recomputes results by a route independent of the library
internals under test: naive box enumerations with exact rational
arithmetic, closed-form constants, and published tables.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import floor, inf, sqrt
from typing import Iterator, Sequence

import numpy as np

from arakelov.bundle import log_fraction, restrict_scalars
from arakelov.errors import EnumerationCapError, InvalidMetricError
from arakelov.intlinalg import (
    hnf,
    is_primitive_vector,
    ok_gcd,
    rat_det,
    right_kernel_rows,
    saturation_rows,
)
from arakelov.lattice import (
    DEFAULT_NODE_CAP,
    ReducedLattice,
    _fp_decompose,
    apply_transform,
    form_value,
)
from arakelov.sampler import RandomLatticeSpec, random_bundle, trial_rng
from arakelov.zeta import (
    SubbundleRecord,
    _exp_cap,
    _plucker,
    _subbundle_rows,
)

# ---------------------------------------------------------------- constants

ZETA_TABLE = {
    2: math.pi ** 2 / 6,
    4: math.pi ** 4 / 90,
    6: math.pi ** 6 / 945,
    8: math.pi ** 8 / 9450,
}

BALL_VOLUME_TABLE = {
    1: 2.0,
    2: math.pi,
    3: 4 * math.pi / 3,
    4: math.pi ** 2 / 2,
    5: 8 * math.pi ** 2 / 15,
    8: math.pi ** 4 / 24,
}

E8_DENSITY = math.pi ** 4 / 384

# fundamental units x + y*sqrt(D) of real quadratic fields, classical table
FUNDAMENTAL_UNIT_XY = {
    2: (1, 1),
    3: (2, 1),
    5: (Fraction(1, 2), Fraction(1, 2)),
    13: (Fraction(3, 2), Fraction(1, 2)),
    29: (Fraction(5, 2), Fraction(1, 2)),
}


def e8_gram() -> list[list[int]]:
    """Gram matrix of the E8 root lattice (determinant one, minimum two)."""
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def gaussian_gcd(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Euclid on Gaussian integers given as (re, im) pairs."""

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    while y != (0, 0):
        n = y[0] * y[0] + y[1] * y[1]
        num = mul(x, (y[0], -y[1]))
        q = (round(Fraction(num[0], n)), round(Fraction(num[1], n)))
        r = mul(q, y)
        x, y = y, (x[0] - r[0], x[1] - r[1])
    return x


def ok_is_primitive_vector(field, v) -> bool:
    """True when the coordinates generate the unit ideal of the ring of
    integers, by Euclid over the (norm-Euclidean) ring."""
    g = field.element(0)
    for x in v:
        g = ok_gcd(field, g, field.coerce(x))
        if abs(field.norm(g)) == 1:
            return True
    return abs(field.norm(g)) == 1


# ------------------------------------------------------- box brute forcing

def box_bound(gram_floats, radius_sq: float) -> list[int]:
    """Coordinate box that certainly contains {x : x G x^T <= r^2}: the
    standard dual bound |x_i| <= sqrt((G^-1)_ii r^2)."""
    inv = np.linalg.inv(np.array(gram_floats, dtype=float))
    return [int(math.floor(math.sqrt(max(inv[i][i], 0.0) * radius_sq * (1 + 1e-9))))
            + 1 for i in range(len(gram_floats))]


def rational_sections_brute(gram, radius_sq=Fraction(1)) -> set[tuple[int, ...]]:
    """All nonzero integer vectors with exact x G x^T <= radius_sq, both
    signs, via plain box enumeration over exact rationals (G and the radius
    scaled once to integers over their common denominator)."""
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    radius_sq = Fraction(radius_sq)
    bounds = box_bound([[float(x) for x in row] for row in G],
                       float(radius_sq))
    den = math.lcm(radius_sq.denominator,
                   *(x.denominator for row in G for x in row))
    Gi = [[int(x * den) for x in row] for row in G]
    cap = int(radius_sq * den)
    hits = set()
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(x):
            continue
        q = sum(x[i] * Gi[i][j] * x[j] for i in range(n) for j in range(n))
        if q <= cap:
            hits.add(x)
    return hits


def gaussian_value(re, im, vec) -> Fraction:
    """Exact v^H H v for H = re + i*im with Fraction entries and Gaussian
    integer coordinates vec = ((a0, b0), (a1, b1), ...)."""
    n = len(vec)
    total = Fraction(0)
    for i in range(n):
        ai, bi = vec[i]
        for j in range(n):
            aj, bj = vec[j]
            # conj(v_i) v_j = (ai - i bi)(aj + i bj)
            rr = Fraction(ai * aj + bi * bj)
            ii = Fraction(ai * bj - bi * aj)
            # real part of conj(v_i) H_ij v_j
            total += rr * re[i][j] - ii * im[i][j]
    return total


def gaussian_sections_brute(re, im, radius_sq=Fraction(1)):
    """Nonzero Gaussian-integer vectors with v^H H v <= radius_sq, both
    signs, by box enumeration on the real coordinates."""
    n = len(re)
    realified = [[0.0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            r, s = float(re[i][j]), float(im[i][j])
            realified[2 * i][2 * j] = r
            realified[2 * i + 1][2 * j + 1] = r
            realified[2 * i][2 * j + 1] = -s
            realified[2 * i + 1][2 * j] = s
    bounds = box_bound(realified, float(radius_sq))
    hits = set()
    for flat in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(flat):
            continue
        vec = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(n))
        if gaussian_value(re, im, vec) <= radius_sq:
            hits.add(vec)
    return hits


def real_quadratic_sections_brute(E, radius_sq=Fraction(1)):
    """Nonzero module vectors of E over a real quadratic field with value at
    most radius_sq at both real places, both signs, as tuples of coordinate
    pairs (a_i, b_i) of a_i + b_i w.

    The coordinates z = (a_0, b_0, a_1, ...) run through a box level by
    level, last coordinate first: given the later ones, z_i ranges over the
    interval its own float LDL^T term allows inside the trace ellipsoid of
    radius 2 radius_sq, widened by 1e-6.  Each candidate is decided exactly:
    at place v, w is s/2 +- (y/2) sqrt(D) (+ at the first place), and the
    value sum x_i G_ij x_j is summed in Q(sqrt D)."""
    field = E.field
    D, n = field.D, E.rank
    h, k = (1, 1) if D % 4 == 1 else (0, 2)  # w = h/2 + (k/2) sqrt(D)
    q = [list(row) for row in trace_gram_reference(
        restrict_scalars_reference(E).place_forms)]
    N = len(q)
    for i in range(N):
        for j in range(i + 1, N):
            t = q[i][j] / q[i][i]
            for m in range(j, N):
                q[j][m] -= t * q[i][m]
            q[i][j] = t
    bound = 2.0 * float(radius_sq) * (1.0 + 1e-6)
    z = [0] * N
    hits = set()

    def inside(G, sign) -> bool:
        x = [(Fraction(a) + Fraction(b * h, 2), Fraction(sign * b * k, 2))
             for a, b in zip(z[::2], z[1::2])]
        ra = rb = Fraction(0)
        for (xa, xb), row in zip(x, G):
            for (ya, yb), g in zip(x, row):
                ra += g * (xa * ya + D * xb * yb)
                rb += g * (xa * yb + xb * ya)
        rest = SurdReference(radius_sq - ra, -rb, D)
        return not rest or _positive(rest)

    def walk(i, used):
        if i < 0:
            if any(z) and inside(E.gram_real[0], 1) and inside(
                    E.gram_real[1], -1):
                hits.add(tuple(zip(z[::2], z[1::2])))
            return
        c = sum(q[i][j] * z[j] for j in range(i + 1, N))
        half = math.sqrt(max(bound - used, 0.0) / q[i][i])
        for zi in range(math.ceil(-c - half), math.floor(-c + half) + 1):
            z[i] = zi
            walk(i - 1, used + q[i][i] * (zi + c) ** 2)
        z[i] = 0

    walk(N - 1, 0.0)
    return hits


def primitive_plane_vectors(max_norm_sq: int):
    """Primitive (x, y) in Z^2 with 0 < x^2 + y^2 <= max_norm_sq, one
    representative per +-pair (y > 0, or y = 0 and x > 0)."""
    out = []
    b = int(math.isqrt(max_norm_sq)) + 1
    for x in range(-b, b + 1):
        for y in range(b + 1):
            if y == 0 and x <= 0:
                continue
            if not 0 < x * x + y * y <= max_norm_sq:
                continue
            if math.gcd(x, y) != 1:
                continue
            out.append((x, y))
    return out


def skewed_unimodular(rng, n, shear):
    """L R for unipotent lower and upper triangular L, R whose entries
    below (above) the diagonal are drawn from [-shear, shear]."""
    def unipotent(lower):
        return [[1 if i == j else rng.randint(-shear, shear)
                 if (j < i) == lower else 0 for j in range(n)]
                for i in range(n)]

    L, R = unipotent(True), unipotent(False)
    return [[sum(L[i][k] * R[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def random_pd_fraction_gram(rng: random.Random, n: int,
                            denominator: int = 4) -> list[list[Fraction]]:
    """Random symmetric positive definite Gram with small rational entries,
    built as B B^T / denominator for an integer matrix B."""
    while True:
        B = np.array([[rng.randint(-3, 3) for _ in range(n)]
                      for _ in range(n)])
        if abs(round(float(np.linalg.det(B)))) >= 1:
            break
    G = B @ B.T
    return [[Fraction(int(G[i][j]), denominator) for j in range(n)]
            for i in range(n)]


def sampler_bundles(field, ranks, count, seed):
    """count sampler bundles over field, ranks drawn from ranks, slopes
    from [-1, 1] and primes from three sizes, all seeded by seed."""
    rng = random.Random(seed)
    for j in range(count):
        n = rng.choice(ranks)
        spec = RandomLatticeSpec(n, rng.choice([101, 997, 100003]), j, field)
        yield random_bundle(field, n, rng.uniform(-1.0, 1.0), spec,
                            trial_rng(seed, j))


# ------------------------------------------------------------ reduction

def gram_schmidt(gram):
    """Squared lengths B and coefficients mu of the Gram-Schmidt
    orthogonalization of the basis with Gram matrix gram, in its own
    arithmetic; raises InvalidMetricError at the first B_i <= 0."""
    n = len(gram)
    B = [None] * n
    mu = [[0] * n for _ in range(n)]
    r = [[0] * n for _ in range(n)]  # r[i][j] = <b_i, b*_j>
    for i in range(n):
        for j in range(i + 1):
            s = gram[i][j]
            for t in range(j):
                s = s - mu[j][t] * r[i][t]
            r[i][j] = s
            if j < i:
                mu[i][j] = s / B[j]
        B[i] = r[i][i]
        if B[i] <= 0:
            raise InvalidMetricError("Gram matrix is not positive definite")
    return B, mu


def lll_reference(gram) -> list[list[int]]:
    """The textbook exact LLL the library's integral one must match bit for
    bit: entries read as exact Fractions (floats included), Gram-Schmidt of
    the transformed basis recomputed from scratch after every swap, size
    reduction from j = k-1 down to 0 with round() (ties to even), Lovasz
    constant 99/100."""
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    delta = Fraction(99, 100)

    def transformed_gram():
        UG = [[sum(u[a] * G[a][b] for a in range(n)) for b in range(n)]
              for u in U]
        return [[sum(x * y for x, y in zip(ug, u)) for u in U] for ug in UG]

    B, mu = gram_schmidt(transformed_gram())
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for t in range(j):
                    mu[k][t] = mu[k][t] - q * mu[j][t]
                mu[k][j] = mu[k][j] - q
        if B[k] >= (delta - mu[k][k - 1] * mu[k][k - 1]) * B[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            B, mu = gram_schmidt(transformed_gram())
            k = max(k - 1, 1)
    return U


# The recursive Fincke-Pohst walk the library's iterative one replaced,
# kept verbatim: the library's walk must visit the same nodes in the same
# order, yield the same vectors and count the same nodes.
def enumerate_short_vectors_reference(gram: Sequence[Sequence], radius_sq,
                                      node_cap: int = DEFAULT_NODE_CAP,
                                      node_counter: list[int] | None = None,
                                      ) -> Iterator[tuple[int, ...]]:
    """Yield each nonzero integer x with Q(x) <= radius_sq, one
    representative per +-x pair (highest-index nonzero coordinate positive).

    The float walk, its ranges and its leaves alike, runs on the ball of
    radius_sq * (1 + 1e-8), the one pad.  It covers the rounding of the
    LDL^T walk, of a ReducedLattice's once-rounded Gram and scale, and of
    radii that callers compute in a few float operations (HERMITE_RANK2 *
    exp(...), (eps + 1/eps) * exp(...), p ** (2/n)): a fixed margin, not
    yet derived from an error bound.  No vector inside is missed, and
    callers decide membership exactly.  Raises EnumerationCapError once
    the search tree exceeds node_cap nodes, and ValueError when the padded
    radius is not a finite float.  When node_counter is given its single
    entry accumulates the nodes visited, cap hit or not.
    """
    n = len(gram)
    R = float(radius_sq)
    if R < 0 or n == 0:
        return
    bound = R * (1.0 + 1e-8)
    if bound == inf:
        raise ValueError("radius is not a finite float in the Gram's units")
    d, m = _fp_decompose(gram)
    x = [0] * n
    nodes = 0

    def count():
        nonlocal nodes
        nodes += 1
        if node_counter is not None:
            node_counter[0] += 1
        if nodes > node_cap:
            raise EnumerationCapError(
                f"enumeration exceeded {node_cap} nodes", nodes=nodes)

    def walk(i: int, used: float, sign_free: bool):
        if i < 0:
            yield tuple(x)
            return
        c = 0.0
        for j in range(i + 1, n):
            c += m[i][j] * x[j]
        half = sqrt(max(bound - used, 0.0) / d[i])
        start = 0 if sign_free else int(floor(-half - c))
        stop = int(floor(half - c))
        for xi in range(start, stop + 1):
            count()
            t = xi + c
            step = d[i] * t * t
            if used + step > bound:
                continue
            if i == 0 and sign_free and xi == 0:
                continue  # skip the zero vector
            x[i] = xi
            yield from walk(i - 1, used + step, sign_free and xi == 0)
            x[i] = 0

    yield from walk(n - 1, 0.0, True)


# ---------------------------------------------------------- elimination

class SurdReference:
    """a + b sqrt(delta) with Fraction parts and the field operations
    - * / and a zero test, for eliminate_reference."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a, b, delta: int):
        self.a, self.b, self.delta = Fraction(a), Fraction(b), delta

    def _lift(self, y):
        return y if isinstance(y, SurdReference) else SurdReference(
            y, 0, self.delta)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __sub__(self, y):
        y = self._lift(y)
        return SurdReference(self.a - y.a, self.b - y.b, self.delta)

    def __rsub__(self, y):
        return self._lift(y) - self

    def __mul__(self, y):
        y = self._lift(y)
        return SurdReference(self.a * y.a + self.delta * self.b * y.b,
                             self.a * y.b + self.b * y.a, self.delta)

    __rmul__ = __mul__

    def __truediv__(self, y):
        y = self._lift(y)
        norm = y.a * y.a - self.delta * y.b * y.b
        return SurdReference((self.a * y.a - self.delta * self.b * y.b) / norm,
                             (self.b * y.a - self.a * y.b) / norm, self.delta)

    def __rtruediv__(self, y):
        return self._lift(y) / self


def eliminate_reference(M: list[list], ncols: int, swap: bool = True,
                        reduce_above: bool = False) -> tuple[list[int], int]:
    """Textbook Gaussian elimination in place over a field, the library's
    former one: entries are used only through - * / and a zero test.
    Returns the pivot columns and the parity of the row swaps; with
    swap=False rows never move and elimination stops after listing the
    first zero pivot, so the pivots are ratios of consecutive leading
    minors."""
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
        tail = M[r][c:]
        for i in (range(m) if reduce_above else range(r + 1, m)):
            if i != r and M[i][c]:
                f = M[i][c] / p
                M[i][c:] = [a - f * b for a, b in zip(M[i][c:], tail)]
        r += 1
    return cols, sign


def _field_matrix(M) -> list[list]:
    """Entries as Fractions, or as SurdReferences when any entry has
    a, b and delta attributes (a QSurd)."""
    delta = next((x.delta for row in M for x in row if hasattr(x, "delta")),
                 None)
    if delta is None:
        return [[Fraction(x) for x in row] for row in M]
    return [[SurdReference(x.a, x.b, delta) if hasattr(x, "delta")
             else SurdReference(x, 0, delta) for x in row] for row in M]


def det_reference(M):
    A = _field_matrix(M)
    n = len(A)
    _, d = eliminate_reference(A, n)
    for k in range(n):
        d = d * A[k][k]
    return d


def rank_reference(M, ncols: int) -> int:
    return len(eliminate_reference(_field_matrix(M), ncols)[0])


def inverse_reference(M):
    """The inverse, or None for a singular matrix."""
    A = _field_matrix(M)
    n = len(A)
    for i in range(n):
        A[i] = A[i] + [1 if i == j else 0 for j in range(n)]
    if len(eliminate_reference(A, n, reduce_above=True)[0]) < n:
        return None
    return [[x / A[i][i] for x in A[i][n:]] for i in range(n)]


def positive_definite_reference(M) -> bool:
    """Sylvester's criterion read off pivots without row swaps, for a
    symmetric or Hermitian matrix; a Hermitian pivot must be rational."""
    A = _field_matrix(M)
    n = len(A)
    cols, _ = eliminate_reference(A, n, swap=False)
    if len(cols) < n:
        return False
    return all(_positive(A[k][k]) for k in range(n))


def _positive(x) -> bool:
    """x > 0 for a Fraction or a real SurdReference a + b sqrt(delta)."""
    if not isinstance(x, SurdReference):
        return x > 0
    a, b, delta = x.a, x.b, x.delta
    if b and delta < 0:
        raise ValueError("a Hermitian pivot came out non-real")
    if b == 0:
        return a > 0
    # a + b sqrt(delta) > 0 with b != 0 and delta > 0
    if a >= 0 and b > 0:
        return True
    if a <= 0 and b < 0:
        return False
    return (a * a > b * b * delta) == (a > 0)


# ------------------------------------------------ per-place bundle functors

def int_matrices_reference(mats) -> tuple[list[list[list[int]]], int]:
    """The rational matrices times den, as int matrices, where den is the
    lcm of all their entries' denominators."""
    den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return ([[[x.numerator * (den // x.denominator) for x in row]
              for row in m] for m in mats], den)


@dataclass(frozen=True)
class FormReference:
    """One place's form, or the trace form, with rational matrices A and B:
    its value at z is z A z^T + (z B z^T) sqrt(delta); over Q, B is None."""

    kind: str
    A: tuple[tuple[Fraction, ...], ...]
    B: tuple[tuple[Fraction, ...], ...] | None
    delta: int


@dataclass(frozen=True)
class ViewReference:
    """The restricted-scalars view as the reference builds it."""

    zrank: int
    place_forms: tuple[FormReference, ...]
    trace_form: FormReference


def trace_gram_reference(forms) -> tuple[tuple[float, ...], ...]:
    """Float trace form: at each entry, the sum over places of
    float(A) + float(B) sqrt(delta), complex places twice, added place by
    place."""
    N = len(forms[0].A)
    root = math.sqrt(forms[0].delta)
    rows = [[0.0] * N for _ in range(N)]
    for f in forms:
        weight = 2.0 if f.kind == "complex" else 1.0
        for i in range(N):
            for j in range(N):
                val = float(f.A[i][j])
                if f.B is not None:
                    val += float(f.B[i][j]) * root
                rows[i][j] += weight * val
    return tuple(tuple(row) for row in rows)


def trace_form_reference(forms) -> FormReference:
    """The exact trace form: at each entry, the sum over places of the
    rational entries of A and B, complex places twice."""
    if len(forms) == 1 and forms[0].B is None:
        return forms[0]
    N = len(forms[0].A)
    A = [[Fraction(0)] * N for _ in range(N)]
    B = [[Fraction(0)] * N for _ in range(N)]
    for f in forms:
        weight = 2 if f.kind == "complex" else 1
        for i in range(N):
            for j in range(N):
                A[i][j] += weight * f.A[i][j]
                B[i][j] += weight * f.B[i][j]
    return FormReference(kind="trace", A=tuple(map(tuple, A)),
                         B=tuple(map(tuple, B)), delta=forms[0].delta)


def _over(M, den: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x, den) for x in row) for row in M)


def restrict_scalars_reference(E) -> ViewReference:
    """The restricted-scalars view entry by entry: over Q the Gram itself;
    over Q(sqrt D) the 2x2 block of each Gram entry written out on the
    integer Grams times den(G), with one index loop for the two real places
    (D > 0) and one for the complex place (D < 0), then divided by 2 den(G)."""
    field = E.field
    n = E.rank
    if field.is_rational():
        (A,), den = int_matrices_reference(E.gram_real)
        forms = (FormReference(kind="real", A=_over(A, den), B=None,
                               delta=0),)
        return ViewReference(zrank=n, place_forms=forms,
                             trace_form=trace_form_reference(forms))

    D = field.D
    delta = abs(D)
    s, q = field.omega_minpoly()
    y2 = 1 if field.omega_is_half else 2
    N = 2 * n
    parts = []  # (kind, A, B) per place

    def zeros():
        return [[0] * N for _ in range(N)]

    if D > 0:
        grams, den = int_matrices_reference(E.gram_real)
        for sign, G in zip((1, -1), grams):
            A, B = zeros(), zeros()
            for i in range(n):
                for j in range(n):
                    g = G[i][j]
                    A[2 * i][2 * j] = 2 * g
                    A[2 * i][2 * j + 1] = A[2 * i + 1][2 * j] = s * g
                    A[2 * i + 1][2 * j + 1] = (s * s - 2 * q) * g
                    B[2 * i][2 * j + 1] = B[2 * i + 1][2 * j] = sign * y2 * g
                    B[2 * i + 1][2 * j + 1] = sign * s * y2 * g
            parts.append(("real", A, B))
    else:
        (R, I), den = int_matrices_reference(E.gram_complex[0])
        A, B = zeros(), zeros()
        for i in range(n):
            for j in range(n):
                r, im = R[i][j], I[i][j]
                A[2 * i][2 * j] = 2 * r
                A[2 * i + 1][2 * j + 1] = 2 * q * r
                # Re(w * H_ij) and Re(conj(w) * H_ji) entries
                A[2 * i][2 * j + 1] = A[2 * i + 1][2 * j] = s * r
                B[2 * i][2 * j + 1] = -y2 * im
                B[2 * i + 1][2 * j] = y2 * im
        parts.append(("complex", A, B))
    forms = tuple(FormReference(kind=kind, A=_over(A, 2 * den),
                                B=_over(B, 2 * den), delta=delta)
                  for kind, A, B in parts)
    return ViewReference(zrank=N, place_forms=forms,
                         trace_form=trace_form_reference(forms))


def kron_reference(A, B) -> list[list]:
    """Kronecker product: entry ((i, k), (j, l)) is A[i][j] B[k][l]."""
    return [[A[i][j] * B[k][l] for j in range(len(A)) for l in range(len(B))]
            for i in range(len(A)) for k in range(len(B))]


def complex_kron_reference(a, b):
    """Kronecker product of Hermitian Grams in (re, im) pair form:
    (A + iB) (x) (C + iD) = (A(x)C - B(x)D) + i (A(x)D + B(x)C)."""
    (ar, ai), (br, bi) = a, b

    def combine(X, Y, sign):
        return [[x + sign * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]

    return (combine(kron_reference(ar, br), kron_reference(ai, bi), -1),
            combine(kron_reference(ar, bi), kron_reference(ai, br), 1))


def _gaussian_matrix(g):
    re, im = g
    return [[SurdReference(a, b, -1) for a, b in zip(ra, rb)]
            for ra, rb in zip(re, im)]


def hermitian_det_reference(g) -> Fraction:
    """det of a Hermitian Gram in (re, im) pair form, by elimination over
    Q(i); it must come out real."""
    d = det_reference(_gaussian_matrix(g))
    if d.b != 0:
        raise ValueError("a Hermitian determinant came out non-real")
    return d.a


def hermitian_inverse_reference(g):
    """Inverse of a Hermitian Gram in (re, im) pair form, as a pair."""
    inv = inverse_reference(_gaussian_matrix(g))
    return ([[x.a for x in row] for row in inv],
            [[x.b for x in row] for row in inv])


def degree_reference(E) -> float:
    """-1/2 log det at each real place, then -log det at each complex one,
    accumulated in that order."""
    def log(x: Fraction) -> float:
        return math.log(x.numerator) - math.log(x.denominator)

    total = 0.0
    for g in E.gram_real:
        total -= 0.5 * log(det_reference(g))
    for g in E.gram_complex:
        total -= log(hermitian_det_reference(g))
    return total


def congruence_grams_reference(field, rows) -> list[list]:
    """Embedded Grams of a congruence basis (rows of field elements) under
    the trivial metric, computed directly from the embeddings: math.fsum
    at real places, plain sum at complex ones, then symmetrised with a
    real diagonal."""
    n = len(rows)
    grams = []
    for k in range(field.real_places):
        emb = [[field.embed(x, k) for x in row] for row in rows]
        g = [[math.fsum(emb[i][m] * emb[j][m] for m in range(n))
              for j in range(n)] for i in range(n)]
        grams.append([[(g[i][j] + g[j][i]) / 2.0 for j in range(n)]
                      for i in range(n)])
    for k in range(field.complex_places):
        emb = [[field.embed(x, field.real_places + k) for x in row]
               for row in rows]
        h = [[sum(emb[i][m].conjugate() * emb[j][m] for m in range(n))
              for j in range(n)] for i in range(n)]
        herm = [[(h[i][j] + h[j][i].conjugate()) / 2.0 for j in range(n)]
                for i in range(n)]
        for i in range(n):
            herm[i][i] = complex(herm[i][i].real, 0.0)
        grams.append(herm)
    return grams


# ------------------------------------------------- restricted metrics

def restriction_deviations(E, basis, F):
    """Per place and entry i <= j of F, the restriction of E to the span of
    the basis rows, the pair (|F_ij - x_ij|, bound): x_ij = conj(e_i) G e_j^T
    exactly, and bound = (2n + 4) 2^-52 sum_ab s_ia |G_ab| s_jb with
    s_ia = |a| + |b| |w| for e_ia = a + b w, the bound _restricted_bundle
    states for its float branch.

    x_ij comes from E's exact place values P by polarisation: Re x_ij =
    (P(e_i + e_j) - P(e_i) - P(e_j)) / 2, and at a complex place also
    Re(w x_ij) = (P(e_i + w e_j) - P(e_i) - N(w) P(e_j)) / 2, which gives
    Im x_ij = (Re(w) Re x_ij - Re(w x_ij)) / Im(w); each value a + b sqrt
    delta is evaluated to 60 digits."""
    field = E.field
    view = restrict_scalars(E)
    s, q = field.omega_minpoly()
    w = field.element(0, 1)
    n, k = E.rank, len(basis)
    grams = ([[[complex(float(x)) for x in row] for row in g]
              for g in E.gram_real]
             + [[[complex(float(x), float(y)) for x, y in zip(*rows)]
                 for rows in zip(*g)] for g in E.gram_complex])
    subs = ([[[(Fraction(x), Fraction(0)) for x in row] for row in g]
             for g in F.gram_real]
            + [[[(Fraction(x), Fraction(y)) for x, y in zip(*rows)]
                for rows in zip(*g)] for g in F.gram_complex])
    out = []
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        def values(u):
            z = [int(c) for x in u for c in (x.a, x.b)]
            return [dec(v.a) + dec(v.b) * Decimal(v.delta).sqrt()
                    for v in view.place_values(z)]

        def plus(u, v):
            return [field.add(x, y) for x, y in zip(u, v)]

        for p, (place, wv) in enumerate(zip(field.infinite_places(),
                                            field.omega_embeddings())):
            G = grams[p]
            size = [[abs(float(x.a)) + abs(float(x.b)) * abs(wv)
                     for x in row] for row in basis]
            if place.kind == "complex":
                im_w = (Decimal(4 * q - s * s).sqrt() / 2).copy_sign(
                    Decimal(complex(wv).imag))
            for i in range(k):
                for j in range(i, k):
                    Pi, Pj = values(basis[i])[p], values(basis[j])[p]
                    re = (values(plus(basis[i], basis[j]))[p] - Pi - Pj) / 2
                    im = Decimal(0)
                    if place.kind == "complex":
                        wej = [field.mul(w, x) for x in basis[j]]
                        re_w = (values(plus(basis[i], wej))[p] - Pi
                                - q * Pj) / 2
                        im = (Decimal(s) / 2 * re - re_w) / im_w
                    fa, fb = subs[p][i][j]
                    dev = math.hypot(float(dec(fa) - re), float(dec(fb) - im))
                    bound = (2 * n + 4) * 2.0 ** -52 * math.fsum(
                        size[i][a] * abs(G[a][b]) * size[j][b]
                        for a in range(n) for b in range(n))
                    out.append((dev, bound))
    return out


# ------------------------------------------------------- subbundle records

HERMITE_RANK2 = 2.0 / math.sqrt(3.0)


def pair_rows_reference(view, min_degree: float,
                        node_cap: int) -> list[tuple[float, tuple]]:
    """The planes of a rank-4 lattice over Q found the first way, by
    reduced pairs: a walk for b2 nested in the walk for b1, |b1| |b2| <=
    (2/sqrt 3) exp(-min_degree), which covers every plane because a
    rank-2 reduced basis attains both minima, and one exact determinant
    per distinct plane.  (degree, HNF rows) pairs, unsorted."""
    form = view.trace_form
    A, s2 = form.A, form.scale ** 2
    det_cap = _exp_cap(-2.0 * min_degree)
    # b1 and b2 are measured by z A z^T, their squared lengths over the scale
    product = form.gram_radius(HERMITE_RANK2 * math.exp(-min_degree))
    lattice = ReducedLattice(A, node_cap)
    seen = {}
    for b1 in lattice.short_vectors(product):
        if not is_primitive_vector(b1):
            continue
        q1 = form_value(A, b1)
        for b2 in lattice.short_vectors((product / math.sqrt(q1)) ** 2):
            if form_value(A, b2) < q1:
                continue  # |b1| <= |b2|
            g, key = _plucker(b1, b2)
            if g == 0 or key in seen:
                continue  # dependent pair, or its plane was already tested
            # the Gram determinant scales by the index squared
            det2 = rat_det(apply_transform((b1, b2), A)) * s2 / (g * g)
            if det2 > det_cap:
                seen[key] = None  # det2 depends only on the plane
                continue
            seen[key] = (-0.5 * log_fraction(det2),
                         saturation_rows([list(b1), list(b2)], view.zrank))
    return [pair for pair in seen.values() if pair is not None]


def subbundle_records_reference(E, l: int, min_degree: float):
    """enumerate_subbundles over Q with records built the first way: every
    record built from its (degree, rows) pair, each coordinate its own
    Fraction(x), and the records then sorted by (-degree, rows).  Planes
    in rank 4 come from pair_rows_reference."""
    view, pairs = _subbundle_rows(E, l, min_degree, DEFAULT_NODE_CAP)
    n = E.rank
    if 1 < l == n - 1:  # hyperplanes come as their dual lines (w,)
        pairs = [(deg, hnf(right_kernel_rows([list(w)], n), n))
                 for deg, (w,) in pairs]
    elif 1 < l < n:
        pairs = pair_rows_reference(view, min_degree, DEFAULT_NODE_CAP)
    built = [(deg, rows, tuple(tuple(Fraction(x) for x in row)
                               for row in rows))
             for deg, rows in pairs]
    built.sort(key=lambda t: (-t[0], t[1]))
    return [SubbundleRecord(rank=l, degree=deg, basis=basis)
            for deg, _, basis in built]
