"""The benchmark's three workloads: inputs built from a seed, the public
library call each op makes, the check each output must pass, and a
canonical text form of each output for digests.

An op is one public call.  ``prepare(name, seed)`` does the set-up (fields
and generated inputs) and returns a ``Workload`` whose ``op(i)`` gives the
i-th op of the sequence; the same seed always gives the same sequence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import arakelov as ak

PRIME = 100003

# Ops whose digests make up a workload's digest: a fixed prefix, so that runs
# of different lengths, and commits of different speed, stay comparable.
DIGEST_OPS = 40


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    # An op marked known_defect exists to record a defect: it may fail, by a
    # typed library error or a wrong output, and the run is still sound.
    known_defect: bool = False
    # Adds the counts the traced run reads off this op's output.
    tally: Callable[[object, dict], None] | None = None


@dataclass
class Workload:
    op: Callable[[int], Op]
    # Ops in one round of the workload's mix of kinds.
    cycle: int


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# canonical output text and digests
# ----------------------------------------------------------------------

def canon(x) -> str:
    """Exact, order-stable text of a library output."""
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float, str)):
        return repr(x)
    if isinstance(x, ak.NumberField):
        return x.descriptor
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(x.items())) + "}"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + "(" + ",".join(
            f"{f.name}={canon(getattr(x, f.name))}"
            for f in dataclasses.fields(x)) + ")"
    raise TypeError(f"no canonical form for {type(x).__name__}")


def op_digest(result=None, error: BaseException | None = None) -> str:
    text = f"error:{type(error).__name__}" if error is not None else canon(result)
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digest(op_digests) -> str:
    h = hashlib.sha256()
    for d in op_digests:
        h.update(d.encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# mvt: Hecke-point Monte Carlo of the mean-value identity over Q
# ----------------------------------------------------------------------

MVT_SHAPES = ((3, 1), (4, 1), (3, 2))
MVT_TRIALS = 30


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _tally_mvt(r, counts):
    counts["mvt.mvt_compare.trials"] += r.lhs.config["requested_trials"]
    counts["mvt.mvt_compare.discarded"] += r.lhs.config["discarded"]


def _mvt(seed: int) -> Workload:
    Q = ak.make_field("Q")

    def op(i: int) -> Op:
        n, l = MVT_SHAPES[i % len(MVT_SHAPES)]
        spec = ak.RandomLatticeSpec(n, PRIME, op_seed(seed, i), Q)
        # Closed form of the volume product for unit radii over Q:
        # 4.18879 (n=3), 4.93480 (n=4), 17.546 (n=3, l=2).
        rhs = _unit_ball_volume(n) ** l

        def check(r):
            cfg = r.lhs.config
            _require(cfg["discarded"] <= 0.01 * MVT_TRIALS,
                     f"{cfg['discarded']} of {MVT_TRIALS} trials discarded")
            _require(r.lhs.trials + cfg["discarded"] == MVT_TRIALS,
                     "trial count does not add up")
            _require(abs(r.rhs - rhs) <= 1e-12 * rhs,
                     f"rhs {r.rhs} is not the volume product {rhs}")

        return Op(kind=f"n{n}.l{l}",
                  call=lambda: ak.mvt_compare(n, l, (1,) * l, MVT_TRIALS,
                                              spec),
                  check=check, tally=_tally_mvt)

    return Workload(op, len(MVT_SHAPES))


# ----------------------------------------------------------------------
# search: section-free twists of the trivial line bundle
# ----------------------------------------------------------------------

# (field, twist rank n, position of mu between the corollary (0) and the
# converse (1) thresholds), one round.  0.9 over a quadratic field exhausts
# the trials.
SEARCH_KINDS = (
    ("Q", 5, 0.0), ("Q(sqrt{-1})", 4, 0.0), ("Q(sqrt{-1})", 5, 0.0),
    ("Q(sqrt{5})", 4, 0.0), ("Q(sqrt{-3})", 4, 0.0),
    ("Q", 5, 0.5), ("Q(sqrt{-1})", 4, 0.5), ("Q(sqrt{-1})", 5, 0.5),
    ("Q(sqrt{5})", 4, 0.5), ("Q(sqrt{-3})", 4, 0.5),
    ("Q", 5, 1.05), ("Q(sqrt{-1})", 4, 1.05), ("Q(sqrt{-1})", 5, 1.05),
    ("Q(sqrt{5})", 4, 1.05), ("Q(sqrt{-3})", 4, 1.05),
    ("Q(sqrt{-1})", 4, 0.9), ("Q(sqrt{-1})", 5, 0.9),
    ("Q(sqrt{5})", 4, 0.9), ("Q(sqrt{-3})", 4, 0.9),
)
SEARCH_MAX_TRIALS = 24
STATUSES = ("found", "blocked_by_converse", "exhausted")


def _tally_search(r, counts):
    counts["search.find_section_free.attempts"] += r.attempts
    counts["search.find_section_free.found"] += r.status == "found"


def _search(seed: int) -> Workload:
    kinds = []
    for desc, n, frac in SEARCH_KINDS:
        K = ak.make_field(desc)
        th = ak.thresholds(K, n, 1, 0.05).values
        mu = th["corollary"] + frac * (th["converse"] - th["corollary"])
        kinds.append((K, n, frac, mu, ak.trivial_bundle(K, 1)))

    def op(i: int) -> Op:
        K, n, frac, mu, E = kinds[i % len(kinds)]
        spec = ak.RandomLatticeSpec(n, PRIME, op_seed(seed, i), K)

        def check(r):
            _require(r.status in STATUSES, f"unknown status {r.status}")
            _require(1 <= r.attempts <= SEARCH_MAX_TRIALS,
                     f"{r.attempts} attempts")
            if r.status == "found":
                c = r.certificate
                _require(c is not None and not c.truncated
                         and c.nonzero_sections == (),
                         "found without a complete empty certificate")
                _require(r.witness.rank == n, "witness has the wrong rank")
            if r.status == "exhausted":
                _require(r.attempts == SEARCH_MAX_TRIALS,
                         "exhausted before max_trials")

        return Op(kind=f"{K.descriptor}.n{n}.f{frac}",
                  call=lambda: ak.find_section_free(
                      E, n, mu, SEARCH_MAX_TRIALS, spec),
                  check=check, tally=_tally_search)

    return Workload(op, len(SEARCH_KINDS))


# ----------------------------------------------------------------------
# zeta: subbundle enumeration and the main inequality
# ----------------------------------------------------------------------

# (field, rank, query, l or twist rank n, min_degree or -cutoff), one cycle.
# "enum" calls enumerate_subbundles(E, l, min_degree) on a random bundle;
# "main" calls main_inequality(E, n, 0.0, {"cutoff": -min_degree});
# "skew" calls enumerate_subbundles(E, 1, min_degree) on a skewed copy
# U U^T of Z^3 (ROADMAP item 4), a valid bundle whose float reduction
# breaks down, and checks it against its isometric twin trivial_bundle(Q, 3).
ZETA_KINDS = (
    ("Q", 2, "enum", 1, -3.5),
    ("Q(sqrt{-1})", 2, "enum", 1, -3.0),
    ("Q", 3, "enum", 1, -2.0),
    ("Q(sqrt{-3})", 2, "enum", 1, -3.0),
    ("Q", 3, "enum", 2, -2.0),
    ("Q", 2, "main", 3, -3.5),
    ("Q", 2, "enum", 1, -4.65),
    ("Q(sqrt{2})", 2, "enum", 1, -2.5),
    ("Q", 3, "skew", 1, -1.0),
    ("Q", 4, "enum", 2, -0.5),
    ("Q(sqrt{5})", 2, "enum", 1, -2.5),
    ("Q(sqrt{-1})", 2, "main", 3, -2.5),
    ("Q", 2, "enum", 1, -4.0),
    ("Q", 2, "main", 3, -4.65),
    ("Q", 3, "main", 4, -2.0),
    ("Q", 3, "enum", 1, -2.75),
    ("Q", 3, "skew", 1, -1.0),
)
ZETA_POOL = 2 * len(ZETA_KINDS)
SKEW_ENTRIES = (10, 100)


def skewed_identity_gram(rng, n: int = 3) -> list[list[int]]:
    """Gram U U^T of Z^n, U = L R L' a product of random unipotent lower,
    upper and lower triangular matrices with off-diagonal entries of
    absolute value in SKEW_ENTRIES.  On every one of 400 draws tried, the
    float reduction broke down: most raised InvalidMetricError and about
    one in a hundred returned wrong degree shells."""
    def unipotent(lower):
        T = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i) if lower else range(i + 1, n):
                T[i][j] = (int(rng.integers(*SKEW_ENTRIES))
                           * (1 if rng.integers(2) else -1))
        return T

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    U = mul(mul(unipotent(True), unipotent(False)), unipotent(True))
    return [[sum(a * b for a, b in zip(u, v)) for v in U] for u in U]


def _sorted_above(records, l: int, min_degree: float):
    degrees = [r.degree for r in records]
    _require(all(a >= b for a, b in zip(degrees, degrees[1:])),
             "records are not sorted by degree")
    _require(all(d >= min_degree for d in degrees),
             "a record lies below min_degree")
    _require(all(r.rank == l for r in records), "a record has the wrong rank")


def _check_main(report):
    value = report.values["value"]
    _require(math.isfinite(value) and value > 0,
             f"main inequality value {value}")
    _require((value < 1.0) == report.verdict.startswith("existence guaranteed"),
             "verdict disagrees with the value")


def _zeta(seed: int) -> Workload:
    fields = {desc: ak.make_field(desc) for desc in {k[0] for k in ZETA_KINDS}}
    twins = {}
    pool = []
    for j in range(ZETA_POOL):
        desc, rank, query, arg, min_degree = ZETA_KINDS[j % len(ZETA_KINDS)]
        K = fields[desc]
        rng = ak.trial_rng(seed, j)
        if query == "skew":
            E = ak.make_bundle(K, skewed_identity_gram(rng, rank))
            if min_degree not in twins:
                twins[min_degree] = ak.degree_shells(ak.enumerate_subbundles(
                    ak.trivial_bundle(K, rank), arg, min_degree))
        else:
            spec = ak.RandomLatticeSpec(rank, PRIME, seed, K)
            E = ak.random_bundle(K, rank, 0.0, spec, rng)
        pool.append((E, query, arg, min_degree))

    def op(i: int) -> Op:
        E, query, arg, min_degree = pool[i % len(pool)]
        kind = f"{E.field.descriptor}.r{E.rank}.{query}{arg}.{min_degree}"
        if query == "main":
            return Op(kind=kind,
                      call=lambda: ak.main_inequality(
                          E, arg, 0.0, {"cutoff": -min_degree}),
                      check=_check_main)

        def check(records):
            _sorted_above(records, arg, min_degree)
            if query == "skew":
                _require(ak.degree_shells(records) == twins[min_degree],
                         "degree shells differ from the isometric twin")

        return Op(kind=kind,
                  call=lambda: ak.enumerate_subbundles(E, arg, min_degree),
                  check=check, known_defect=query == "skew")

    return Workload(op, len(ZETA_KINDS))


WORKLOADS = {"mvt": _mvt, "search": _search, "zeta": _zeta}


def prepare(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
