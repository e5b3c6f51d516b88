"""Shared reference implementations and frozen constants for the tests.

Everything here recomputes results by a route independent of the library
internals under test: naive box enumerations with exact rational
arithmetic, closed-form constants, and published tables.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from arakelov.intlinalg import ok_gcd

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
    signs, via plain box enumeration over exact rationals."""
    n = len(gram)
    G = [[Fraction(x) for x in row] for row in gram]
    bounds = box_bound([[float(x) for x in row] for row in G],
                       float(radius_sq))
    hits = set()
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(x):
            continue
        q = sum(x[i] * G[i][j] * x[j] for i in range(n) for j in range(n))
        if q <= radius_sq:
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
