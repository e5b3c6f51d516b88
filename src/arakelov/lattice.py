"""Lattice reduction and bounded enumeration on Gram matrices.

All routines work on Gram matrices rather than embedded bases, so the same
code serves Euclidean lattices of any provenance.  Reduction is exact for
every input, int, Fraction, float or QSurd alike; only enumeration works in
floats.  Enumeration yields integer coefficient vectors in the basis the
Gram matrix was given in, one representative per +-x pair, and no values.
Its one relative pad is the library's only float slack: callers pass the
radius they computed and compare values exactly, on the form they hold.

Every search for short vectors in the library goes through one path,
ReducedLattice: LLL once, then Fincke-Pohst enumeration on the reduced Gram
at whatever radius the caller asks for, with each vector mapped back to the
caller's coordinates, or, by its exact line filter, only the primitive ones,
with their exact values, which shortest_vector reads.  The one exception
is mvt._count_tuples, which calls enumerate_short_vectors on its Hecke Gram
directly: hecke_integer_gram has already LLL-reduced it, and the counts
need no map back.  Walks on one lattice run one after another, none inside
another, and share its node counter.  DEFAULT_NODE_CAP is the one
enumeration budget every module defaults to.

The Fincke-Pohst walk (Math. Comp. 44, 1985) is iterative: one loop over
per-level arrays, with no generator frame per level.  A caller's node
counter is raised by the walk's own nodes before each vector it yields and
when the walk ends.  as_float and MAX_EXPONENT, the largest x with exp(x)
a finite float, mark the float range for every module.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import floor, gcd, isfinite, log, sqrt
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .errors import EnumerationCapError, InvalidMetricError
from .intlinalg import QSurd, _bareiss, _re_im, _scaled

__all__ = [
    "DEFAULT_NODE_CAP",
    "ReducedLattice",
    "apply_transform",
    "as_float",
    "enumerate_short_vectors",
    "form_value",
    "lll_transform",
    "shortest_vector",
]

DEFAULT_NODE_CAP = 100_000_000

# Lovasz constant of lll_transform
LLL_DELTA = Fraction(99, 100)

OUT_OF_RANGE = "a Gram entry, scale or radius is outside the float range"

# Largest x with exp(x) a finite float.
MAX_EXPONENT = log(sys.float_info.max)


def apply_transform(U: Sequence[Sequence[int]], gram: Sequence[Sequence]) -> list[list]:
    """Gram of the transformed basis, U G U^T."""
    columns = list(zip(*gram))
    UG = [[sum(map(mul, u, col)) for col in columns] for u in U]
    return [[sum(map(mul, row, u)) for u in U] for row in UG]


def form_value(gram: Sequence[Sequence], x: Sequence[int]):
    """Value x G x^T of the quadratic form at one coefficient vector."""
    return sum([xi * sum(map(mul, row, x)) for xi, row in zip(x, gram) if xi])


def lll_transform(gram: Sequence[Sequence]) -> list[list[int]]:
    """Unimodular U whose rows give an LLL-reduced basis for the Gram matrix.

    Exact for every input: entries are read as the rationals they are (a
    float is dyadic) and scaled to a primitive integer matrix, which leaves
    U unchanged.  The all-integer LLL (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.6.7) keeps the leading minors d[i],
    d[0] = 1, and lam[i][j] = d[j+1] * mu_ij.  Both come from one
    fraction-free elimination without row swaps: for a symmetric Gram its
    pivot k is d[k+1], and the entry above the diagonal in row j, column i
    is lam[i][j].
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    G, _ = _scaled(gram)
    _bareiss(G, n, swap=False)
    # the pivots up to the first non-positive one are leading minors
    if any(G[k][k] <= 0 for k in range(n)):
        raise InvalidMetricError("Gram matrix is not positive definite")
    d = [1] + [G[k][k] for k in range(n)]
    lam = [[G[j][i] if j < i else 0 for j in range(n)] for i in range(n)]
    num, dnm = LLL_DELTA.numerator, LLL_DELTA.denominator
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            # q = round(lam/d) with ties to even, like round(Fraction)
            q, r = divmod(lk[j], d[j + 1])
            if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1):
                q += 1
            if q:
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                for t in range(j):
                    lk[t] -= q * lam[j][t]
                lk[j] -= q * d[j + 1]
        lkk = lk[k - 1]
        if dnm * d[k + 1] * d[k - 1] >= num * d[k] * d[k] - dnm * lkk * lkk:
            k += 1
            continue
        # swap rows k-1 and k; Cohen's exact update of d[k] and lam
        U[k], U[k - 1] = U[k - 1], U[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        B = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (B * t + lkk * li[k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return U


def _fp_decompose(gram) -> tuple[list[float], list[list[float]]]:
    """Decomposition Q(x) = sum_i d_i (x_i + sum_{j>i} m_ij x_j)^2."""
    n = len(gram)
    q = [[float(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise InvalidMetricError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            t = q[i][j] / q[i][i]
            for k in range(j, n):
                q[j][k] -= t * q[i][k]
            q[i][j] = t
    return [q[i][i] for i in range(n)], q


def enumerate_short_vectors(gram: Sequence[Sequence], radius_sq,
                            node_cap: int = DEFAULT_NODE_CAP,
                            node_counter: list[int] | None = None,
                            ) -> Iterator[tuple[int, ...]]:
    """Yield each nonzero integer x with Q(x) <= radius_sq, one
    representative per +-x pair (highest-index nonzero coordinate positive).

    The float walk, its ranges and its leaves alike, runs on the ball of
    radius_sq * (1 + 1e-8), the one pad.  It covers the rounding of the
    LDL^T walk, of a ReducedLattice's once-rounded Gram and scale, and of
    radii that callers compute in a few float operations (exp(...) over a
    scale once or twice, (eps + 1/eps) * exp(...), p ** (2/n)): a fixed
    margin, not yet derived from an error bound.  No vector inside is
    missed, and callers decide membership exactly.  Raises
    EnumerationCapError once the search tree exceeds node_cap nodes, and
    ValueError when the padded radius is not a finite float (inf or nan).

    The walk is one loop over per-level arrays, depth-first from level
    n-1 down to level 0, whose range is swept in place; a node is one
    value tried at one level.  When node_counter is given its single entry
    is raised by this walk's own nodes before each yield and once more
    when the walk ends, by exhaustion, the cap or an exception, so it holds
    every node visited so far whenever the caller can read it.
    """
    n = len(gram)
    R = float(radius_sq)
    if R < 0 or n == 0:
        return
    bound = R * (1.0 + 1e-8)
    if not isfinite(bound):
        raise ValueError("radius is not a finite float in the Gram's units")
    d, m = _fp_decompose(gram)
    # level i holds its value x[i], centre, range end, the part of the
    # bound used above it, and whether every level above it is zero
    x = [0] * n
    centre = [0.0] * n
    stop = [0] * n
    used = [0.0] * n
    sign_free = [True] * n
    nodes = counted = 0
    capped = f"enumeration exceeded {node_cap} nodes"
    i = n - 1
    try:
        while True:
            # enter level i: its centre and its range around it
            row = m[i]
            c = 0.0
            for j in range(i + 1, n):
                c += row[j] * x[j]
            u = used[i]
            half = sqrt(max(bound - u, 0.0) / d[i])
            start = 0 if sign_free[i] else floor(-half - c)
            if i:
                centre[i], stop[i], x[i] = c, floor(half - c), start - 1
            else:  # the leaves: one sweep of level 0's range
                d0, free = d[0], sign_free[0]
                for xi in range(start, floor(half - c) + 1):
                    nodes += 1
                    if nodes > node_cap:
                        raise EnumerationCapError(capped, nodes=nodes)
                    t = xi + c
                    if u + d0 * t * t > bound or free and xi == 0:
                        continue  # outside, or the zero vector
                    x[0] = xi
                    if node_counter is not None:
                        node_counter[0] += nodes - counted
                        counted = nodes
                    yield tuple(x)
                i = 1
            # the next value at level i or above whose partial sum fits
            while i < n:
                xi = x[i] + 1
                if xi > stop[i]:
                    i += 1
                    continue
                x[i] = xi
                nodes += 1
                if nodes > node_cap:
                    raise EnumerationCapError(capped, nodes=nodes)
                t = xi + centre[i]
                u = used[i] + d[i] * t * t
                if u > bound:
                    continue
                sign_free[i - 1] = sign_free[i] and xi == 0
                i -= 1
                used[i] = u
                break
            else:
                return
    finally:
        if node_counter is not None:
            node_counter[0] += nodes - counted


def as_float(x) -> float:
    """float(x) for a scale or a radius.  Outside the float range, or for a
    nonzero x that rounds to 0, a ValueError, not an OverflowError."""
    try:
        f = float(x)
    except OverflowError:
        f = 0.0
    if f or not x:
        return f
    raise ValueError(OUT_OF_RANGE)


def _nearest(a: int, b: int, delta: int) -> float:
    """a + b sqrt(delta) within 6 * 2^-53 relatively (to first order): with
    a and b of opposite signs, (a^2 - b^2 delta) / (a - b sqrt(delta))."""
    if a * b >= 0:
        return a + b * sqrt(delta)
    return (a * a - b * b * delta) / (a - b * sqrt(delta))


class ReducedLattice:
    """A Gram matrix reduced once, enumerated in the caller's coordinates.

    _scaled writes the Gram once as scale * A, A of ints or of QSurds with
    int parts.  LLL runs on A, or on its floats for QSurds (any unimodular
    U reduces A); U A U^T is formed on ints, each entry rounded once:
    within 2^-53 relatively for an int, 6 * 2^-53 for a QSurd.
    short_vectors(radius_sq) enumerates it at radius_sq / scale, as often
    as needed, yielding vectors in the caller's basis; the radius is padded
    only inside enumerate_short_vectors.  For ints it keeps R = U A U^T
    too: primitive_values(radius_sq), the exact line filter, tests each
    vector of the same walk on R and maps back only the primitive ones.
    Each enumeration is capped at node_cap nodes; they run one after
    another and share one counter.
    """

    def __init__(self, gram: Sequence[Sequence],
                 node_cap: int = DEFAULT_NODE_CAP):
        A, scale = _scaled(gram)
        try:  # the floats that enumeration reads
            if A and A[0][0].__class__ is QSurd:
                delta = A[0][0].delta
                self.U = lll_transform(
                    [[_nearest(x.a, x.b, delta) for x in row] for row in A])
                P, Q = (apply_transform(self.U, m) for m in _re_im(A))
                self.gram = [[_nearest(a, b, delta) for a, b in zip(p, q)]
                             for p, q in zip(P, Q)]
                self._R = None
            else:
                self.U = lll_transform(A)
                R = apply_transform(self.U, A)
                self.gram = [[float(x) for x in row] for row in R]
                self._R = R  # kept for primitive_values
        except OverflowError:
            raise ValueError(OUT_OF_RANGE) from None
        self.scale = as_float(scale)
        self._content = scale
        self.node_cap = node_cap
        self._columns = tuple(zip(*self.U))
        self._counter = [0]  # each walk raises it by its own nodes

    @property
    def nodes(self) -> int:
        """Nodes visited so far by every enumeration, cap hit or not."""
        return self._counter[0]

    def short_vectors(self, radius_sq) -> Iterator[tuple[int, ...]]:
        for coeffs in enumerate_short_vectors(
                self.gram, float(radius_sq) / self.scale, self.node_cap,
                self._counter):
            yield tuple([sum(map(mul, coeffs, col)) for col in self._columns])

    def primitive_values(self, radius_sq) -> Iterator[tuple[object, tuple]]:
        """(gram[z], z), the value exact, for each primitive z that
        short_vectors(radius_sq) yields, in its order and on the same walk;
        a rational Gram only.

        The filter runs on the reduced coordinates y of z = y U: U is
        unimodular, so gcd(z) = gcd(y) and gram[z] = R[y], R the Gram's
        values in reduced coordinates.  Leaves sharing y[1:] come as one run
        of consecutive y[0].  Once per run: g = gcd(y[1:]), the cross term
        b = 2 sum R[0][j] y[j] and c = R[y[1:]]; per leaf: gcd(y[0], g) and
        (R[0][0] y[0] + b) y[0] + c.  Only kept vectors are mapped back, as
        y[1:] U[1:], once per run, plus y[0] U[0].
        """
        R = self._R
        if R is None:
            raise TypeError("exact values need a rational Gram")
        if not R:
            return
        if self._content != 1:  # gram = content * A, and R = U A U^T
            k = self._content
            k = k.numerator if k.denominator == 1 else k
            R = [[k * x for x in row] for row in R]
        r00, r0, rest_form = R[0][0], R[0][1:], [row[1:] for row in R[1:]]
        u0, columns = self.U[0], [col[1:] for col in self._columns]
        run = None
        for y in enumerate_short_vectors(
                self.gram, float(radius_sq) / self.scale, self.node_cap,
                self._counter):
            y0, rest = y[0], y[1:]
            if rest != run:
                run, base = rest, None
                g = gcd(*rest)
                b = 2 * sum(map(mul, r0, rest))
                c = form_value(rest_form, rest)
            if gcd(y0, g) != 1:
                continue
            if base is None:
                base = [sum(map(mul, rest, col)) for col in columns]
            yield ((r00 * y0 + b) * y0 + c,
                   tuple([t + y0 * u for t, u in zip(base, u0)]))


def shortest_vector(gram: Sequence[Sequence],
                    node_cap: int = DEFAULT_NODE_CAP,
                    ) -> tuple[tuple[int, ...], Fraction]:
    """A shortest nonzero vector (coefficients in the given basis) and its
    exact squared length: the first of least value, a primitive one, that
    the exact line filter yields on A, gram = scale * A, at the least value
    of a reduced basis vector; the scale never passes through a float."""
    A, scale = _scaled(gram)
    lattice = ReducedLattice(A, node_cap)
    least = min(row[i] for i, row in enumerate(lattice._R))
    value, best = min(lattice.primitive_values(least), key=itemgetter(0))
    return best, value * scale
