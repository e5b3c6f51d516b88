"""Lattice reduction and bounded enumeration on Gram matrices.

All routines work on Gram matrices rather than embedded bases, so the same
code serves Euclidean lattices of any provenance.  Arithmetic is generic:
feed Fractions for exact reduction (termination is then guaranteed), floats
for speed.  Enumeration returns integer coefficient vectors in the basis the
Gram matrix was given in, one representative per +-x pair.

Every search for short vectors in the library goes through one path,
ReducedLattice: LLL once, then Fincke-Pohst enumeration on the reduced Gram
at whatever radius the caller asks for, with each vector mapped back to the
caller's coordinates.  DEFAULT_NODE_CAP is the one enumeration budget every
module defaults to.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, sqrt
from operator import mul
from typing import Iterator, Sequence

from .errors import EnumerationCapError, InvalidMetricError

__all__ = [
    "DEFAULT_NODE_CAP",
    "ReducedLattice",
    "apply_transform",
    "enumerate_short_vectors",
    "lll_transform",
    "shortest_vector",
]

DEFAULT_NODE_CAP = 100_000_000


def apply_transform(U: Sequence[Sequence[int]], gram: Sequence[Sequence]) -> list[list]:
    """Gram of the transformed basis, U G U^T."""
    n = len(gram)
    UG = [[sum(U[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
          for i in range(len(U))]
    return [[sum(UG[i][k] * U[j][k] for k in range(n)) for j in range(len(U))]
            for i in range(len(U))]


def _gram_schmidt(U, gram):
    """Squared lengths B and projection coefficients mu of the Gram-Schmidt
    orthogonalization of the basis rows U under the given inner product."""
    n = len(U)
    g = apply_transform(U, gram)
    B = [None] * n
    mu = [[0] * n for _ in range(n)]
    r = [[0] * n for _ in range(n)]  # r[i][j] = <b_i, b*_j>
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j]
            for k in range(j):
                s = s - mu[j][k] * r[i][k]
            r[i][j] = s
            if j < i:
                if B[j] == 0:
                    raise InvalidMetricError("Gram matrix is singular")
                mu[i][j] = s / B[j]
        B[i] = r[i][i]
        if B[i] <= 0:
            raise InvalidMetricError("Gram matrix is not positive definite")
    return B, mu


def lll_transform(gram: Sequence[Sequence], delta=Fraction(99, 100),
                  max_rounds: int | None = None) -> list[list[int]]:
    """Unimodular U whose rows give an LLL-reduced basis for the Gram matrix.

    With Fraction (or int) Gram entries the computation is exact.  For float
    input a round limit guards against rounding-induced livelock; the result
    is then still a valid unimodular transform, merely of lesser quality.
    """
    n = len(gram)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 0:
        return U
    exact = all(isinstance(x, (Fraction, int)) for row in gram for x in row)
    if not exact:
        delta = float(delta)
        if max_rounds is None:
            max_rounds = 1000 * n * n
    B, mu = _gram_schmidt(U, gram)
    k = 1
    rounds = 0
    while k < n:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
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
            B, mu = _gram_schmidt(U, gram)
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
                            ) -> Iterator[tuple[tuple[int, ...], float]]:
    """Yield (x, Q(x)) for nonzero integer x with Q(x) <= radius_sq, one
    representative per +-x pair (highest-index nonzero coordinate positive).

    Range bounds are floating point with a small inflation, so boundary
    membership is decided slightly generously; callers needing exactness
    must recheck Q(x) in their own arithmetic.  Raises EnumerationCapError
    once the search tree exceeds node_cap nodes.  When node_counter is given
    its single entry accumulates the nodes visited, cap hit or not.
    """
    n = len(gram)
    R = float(radius_sq)
    if R < 0 or n == 0:
        return
    d, m = _fp_decompose(gram)
    bound = R * (1.0 + 1e-12) + 1e-12
    slack = 1e-9 * (1.0 + bound)
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
            yield tuple(x), used
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
            if used + step > bound + slack:
                continue
            if i == 0 and sign_free and xi == 0:
                continue  # skip the zero vector
            x[i] = xi
            yield from walk(i - 1, used + step, sign_free and xi == 0)
            x[i] = 0

    yield from walk(n - 1, 0.0, True)


class ReducedLattice:
    """A Gram matrix reduced once, enumerated in the caller's coordinates.

    The constructor runs lll_transform; short_vectors(radius_sq) runs
    enumerate_short_vectors on the reduced Gram, as often as needed, and
    yields (x, Q(x)) with x mapped back to the basis the Gram was given in.
    The radius is passed through untouched, so each caller keeps its own
    padding.  Each enumeration is capped at node_cap nodes on its own.
    """

    def __init__(self, gram: Sequence[Sequence],
                 node_cap: int = DEFAULT_NODE_CAP):
        self.U = lll_transform(gram)
        self.gram = apply_transform(self.U, gram)
        self.node_cap = node_cap
        self._columns = tuple(zip(*self.U))
        # One counter per enumeration: they may run nested, and each
        # counts only its own nodes.
        self._counters: list[list[int]] = []

    @property
    def nodes(self) -> int:
        """Nodes visited so far by every enumeration, cap hit or not."""
        return sum(c[0] for c in self._counters)

    def short_vectors(self, radius_sq,
                      ) -> Iterator[tuple[tuple[int, ...], float]]:
        counter = [0]
        self._counters.append(counter)
        columns = self._columns
        for coeffs, q in enumerate_short_vectors(
                self.gram, radius_sq, self.node_cap, counter):
            yield tuple([sum(map(mul, coeffs, col)) for col in columns]), q


def shortest_vector(gram: Sequence[Sequence],
                    node_cap: int = DEFAULT_NODE_CAP) -> tuple[tuple[int, ...], float]:
    """A shortest nonzero vector (coefficients in the given basis) and its
    squared length, found by reduction followed by enumeration."""
    lattice = ReducedLattice(gram, node_cap)
    g_red = lattice.gram
    i0 = min(range(len(g_red)), key=lambda t: float(g_red[t][t]))
    best_x = tuple(lattice.U[i0])
    best_q = float(g_red[i0][i0])
    for x, q in lattice.short_vectors(best_q):
        if q < best_q:
            best_q, best_x = q, x
    return best_x, best_q
