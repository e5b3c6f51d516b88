"""Random bundles of fixed determinant.

The sampler follows the Hecke-point recipe: reduce a random hyperplane coset
mod a large prime p to the sublattice {x : a.x = 0 mod p}, then rescale so
the determinant is trivial.  As p grows these points equidistribute toward
the invariant measure on the space of unimodular lattices; p is echoed in
every report so escalation studies are possible.  Randomness comes from
counter-based Philox streams split per trial index, which makes serial and
parallel runs agree bit for bit.

Over a quadratic field the bundle is the trivial metric restricted to a
congruence submodule of O_K^n of index q, for a split prime q, then scaled
to the target slope.

Both take their basis rows from ``_congruence_rows``: int rows with p e_j
over Q, and rows of field elements with pi e_j over K, pi a generator of a
prime above q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bundle import (ArakelovBundle, _restricted_bundle, degree, make_bundle,
                     scale, trivial_bundle)
from .errors import InvalidCosetError, NoSplitPrimeError
from .intlinalg import ok_gcd
from .lattice import MAX_EXPONENT, apply_transform, lll_transform
from .numberfield import NumberField, QuadElement, _is_prime, _next_prime

__all__ = [
    "DEFAULT_PRIME",
    "RandomLatticeSpec",
    "hecke_unimodular",
    "random_bundle",
    "trial_rng",
]

DEFAULT_PRIME = 1000003

SPLIT_PRIME_BOUND = 10000


@dataclass(frozen=True)
class RandomLatticeSpec:
    """Parameters of one sampling family: rank, congruence prime, base seed,
    and the field the bundles live over."""

    n: int
    p: int
    seed: int
    field: NumberField

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox stream for one trial; streams are independent across trials
    and identical regardless of evaluation order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(seq))


def _congruence_rows(n: int, coset, modulus: int, generator,
                     element) -> list[list]:
    """Basis rows of {x in R^n : sum coset_i x_i = 0 mod generator}, for R
    = Z (generator = modulus, a prime) or O_K (generator of a prime above
    modulus): with j the first index where coset_j != 0 mod modulus and
    c_i = coset_i / coset_j mod modulus, in [0, modulus), row j is
    generator * e_j and row i is e_i - c_i e_j.  element makes an entry of R
    from an int."""
    coset = [int(x) % modulus for x in coset]
    pivot = next((i for i, x in enumerate(coset) if x), None)
    if pivot is None:
        raise InvalidCosetError("coset vector is zero mod the prime")
    inv = pow(coset[pivot], -1, modulus)
    one, zero = element(1), element(0)
    rows = []
    for i, x in enumerate(coset):
        row = [one if j == i else zero for j in range(n)]
        row[pivot] = generator if i == pivot else element(-(x * inv % modulus))
        rows.append(row)
    return rows


def hecke_integer_gram(spec: RandomLatticeSpec, a) -> list[list[int]]:
    """Reduced integer Gram of the index-p congruence sublattice of Z^n,
    rows sorted by decreasing squared length; covolume is exactly p."""
    n = spec.n
    rows = _congruence_rows(n, a, spec.p, spec.p, int)
    gram = [[sum(u[k] * v[k] for k in range(n)) for v in rows] for u in rows]
    U = lll_transform(gram)
    red = apply_transform(U, gram)
    order = sorted(range(n), key=lambda i: (-red[i][i], i))
    return [[int(red[i][j]) for j in order] for i in order]


def hecke_unimodular(spec: RandomLatticeSpec, a) -> ArakelovBundle:
    """Bundle over Q from the congruence lattice mod p, rescaled by p^(-1/n)
    so the degree is zero (exactly for n = 2, else to float precision)."""
    if not spec.field.is_rational():
        raise ValueError("hecke_unimodular samples bundles over Q")
    n = spec.n
    gram = hecke_integer_gram(spec, a)
    if n == 2:
        unit = Fraction(1, spec.p)
    else:
        unit = Fraction(spec.p ** (-2.0 / n))
    return make_bundle(spec.field,
                       [[unit * x for x in row] for row in gram])


def _draw_coset(rng: np.random.Generator, n: int, modulus: int) -> list[int]:
    while True:
        a = [int(x) for x in rng.integers(0, modulus, size=n)]
        if any(x % modulus for x in a):
            return a


@lru_cache(maxsize=None)
def _split_prime_generator(field: NumberField) -> tuple[int, QuadElement]:
    """A rational split prime q and a generator of one prime above it."""
    q = 2
    while q < SPLIT_PRIME_BOUND:
        if field.splitting(q) == "split":
            root = field.primes_above(q)[0]["root"]
            w = field.element(0, 1)
            pi = ok_gcd(field, field.element(q),
                        field.sub(w, field.element(root)))
            if abs(field.norm(pi)) == q:
                return q, pi
        q = _next_prime(q)
    raise NoSplitPrimeError(
        f"no split prime generator below {SPLIT_PRIME_BOUND} "
        f"for {field.descriptor}")


def _quadratic_congruence_bundle(field: NumberField, n: int,
                                 rng: np.random.Generator) -> ArakelovBundle:
    q, pi = _split_prime_generator(field)
    rows = _congruence_rows(n, _draw_coset(rng, n, q), q, pi, field.element)
    return _restricted_bundle(trivial_bundle(field, n), rows)


def random_bundle(field: NumberField, n: int, target_slope: float,
                  spec: RandomLatticeSpec,
                  rng: np.random.Generator | None = None) -> ArakelovBundle:
    """One random bundle of rank n with slope target_slope (degree matched
    to n*target_slope within float rounding, well inside 1e-9).

    Over Q this is a rescaled Hecke point; over a quadratic field a
    congruence submodule mod a split prime ideal, a heuristic stand-in with
    no equidistribution claim.
    """
    if spec.n != n or spec.field != field:
        raise ValueError("spec disagrees with the requested field or rank")
    if rng is None:
        rng = trial_rng(spec.seed, 0)
    if field.is_rational():
        base = hecke_unimodular(spec, _draw_coset(rng, n, spec.p))
    else:
        base = _quadratic_congruence_bundle(field, n, rng)
    d = field.degree
    exponent = (degree(base) - n * target_slope) / (n * d)
    if not abs(exponent) <= MAX_EXPONENT:  # nan too
        raise ValueError(f"slope {target_slope:g} is out of range: the scale "
                         f"factor exp({exponent:.6g}) is not a positive "
                         f"finite float")
    return scale(base, math.exp(exponent))
