"""Global sections: module vectors of norm at most one at every infinite
place, found by exact lattice-point enumeration.

A basis vector e_i is a section when G_v[i][i] <= 1 at every place, which
the bundle's content form G_v = c A_v decides exactly (c A_v[i][i] on
ints, against 1); has_nonzero_section tries that witness first, before any
float step, and sweeps only when no basis vector is a section.

The search runs over the restriction of scalars: candidates come from a
branch-and-bound sweep of the trace-form ellipsoid (norm caps t_v^2 summed
with weight 2 at complex places), then an exact rational filter keeps the
vectors inside the product of per-place balls.  The sweep is lazy, one
generator of hits: global_sections collects them, has_nonzero_section
takes the first, and count_in_region counts them without storing any, so
memory stays flat until the node cap ends a long walk.  The trace form
and its reduction are exact (see ReducedLattice).  The sweep, padded only
inside enumerate_short_vectors, is slightly generous near the boundary;
the filter is exact, so boundary vectors are kept if and only if they
truly satisfy the closed condition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import Sequence

from .bundle import ArakelovBundle, degree, restrict_scalars
from .errors import EnumerationCapError
from .intlinalg import QSurd
from .lattice import DEFAULT_NODE_CAP, ReducedLattice
# Bound here only for tools that patch the enumeration under every name it
# is imported by (perfbench/tracer.py); the scan reaches it via ReducedLattice.
from .lattice import enumerate_short_vectors  # noqa: F401
from .numberfield import adelic_ball_volume

__all__ = [
    "SectionReport",
    "count_in_region",
    "global_sections",
    "has_nonzero_section",
    "minkowski_guarantee",
]


@dataclass(frozen=True)
class SectionReport:
    """Nonzero sections as module coordinate vectors, closed under negation.

    ``certificate`` is the trace-form envelope radius that bounded the sweep;
    a report with ``truncated`` set may be missing vectors and records how
    many nodes were spent before the cap.
    """

    nonzero_sections: tuple
    truncated: bool
    nodes_visited: int
    certificate: float


def _norm_caps(E: ArakelovBundle, radii) -> list[Fraction]:
    places = E.field.infinite_places()
    if isinstance(radii, Number):
        radii = [radii] * len(places)
    radii = list(radii)
    if len(radii) != len(places):
        raise ValueError(f"need {len(places)} radii, got {len(radii)}")
    # The trace-form radius sums the caps with weights adding up to the
    # field degree; it must be a finite float.
    top = sys.float_info.max
    caps = []
    for t in radii:
        if isinstance(t, float) and not math.isfinite(t):
            raise ValueError(f"radius {t} is not a finite float")
        t = Fraction(t)
        if t <= 0:
            raise ValueError("radii must be positive")
        if t * t > top / E.field.degree:
            shown = f"{float(t):.6g}" if t <= top else f"above {top:.6g}"
            raise ValueError(f"radius {shown} is too large: the trace-form "
                             f"radius is not a finite float")
        caps.append(t * t)
    return caps


def _sweep(E: ArakelovBundle, caps: Sequence[Fraction], node_cap: int):
    """Lazy exact region sweep: the view, the reduced lattice (whose
    ``nodes`` counts the nodes visited so far), the trace-form envelope
    radius, and a generator of the representatives found, one per +-pair,
    which raises EnumerationCapError when the node cap cuts the walk."""
    view = restrict_scalars(E)
    weights = [1 if p.kind == "real" else 2
               for p in E.field.infinite_places()]
    envelope = math.fsum(w * float(c) for w, c in zip(weights, caps))
    radius = view.trace_form.gram_radius(envelope)
    lattice = ReducedLattice(view.trace_form.gram, node_cap)
    hits = (z for z in lattice.short_vectors(radius)
            if view.values_leq(z, caps))
    return view, lattice, envelope, hits


def global_sections(E: ArakelovBundle,
                    node_cap: int = DEFAULT_NODE_CAP) -> SectionReport:
    """All nonzero module vectors with norm <= 1 at every infinite place.

    Exhaustive unless the node cap interrupts the sweep, in which case the
    report is marked truncated rather than silently incomplete.
    """
    caps = [Fraction(1)] * len(E.field.infinite_places())
    view, lattice, envelope, hits = _sweep(E, caps, node_cap)
    reps, truncated = [], False
    try:
        for z in hits:
            reps.append(z)
    except EnumerationCapError:
        truncated = True
    listed = tuple(view.coords_to_module(y) for z in sorted(reps)
                   for y in (z, tuple(-c for c in z)))
    return SectionReport(nonzero_sections=listed, truncated=truncated,
                         nodes_visited=lattice.nodes, certificate=envelope)


def _basis_section(E: ArakelovBundle) -> bool:
    """Whether some e_i has norm <= 1 at every place: with G_v = (p/q) A_v
    on the content form, p A_v[i][i] <= q, read off the real part at a
    complex place."""
    c, forms = E._content
    p, q = c.numerator, c.denominator
    for i in range(E.rank):
        entries = (m[i][i] for m in forms)
        if all((x.a if x.__class__ is QSurd else x) * p <= q
               for x in entries):
            return True
    return False


def _empty_report(E: ArakelovBundle, node_cap: int) -> SectionReport | None:
    """None when E has a nonzero section, else the complete empty report of
    the sweep that found none, as global_sections gives it.

    A basis vector that is a section answers before any sweep; a node-cap
    interruption before any hit raises EnumerationCapError.
    """
    if _basis_section(E):
        return None
    caps = [Fraction(1)] * len(E.field.infinite_places())
    _, lattice, envelope, hits = _sweep(E, caps, node_cap)
    try:
        if next(hits, None) is not None:
            return None
    except EnumerationCapError:
        raise EnumerationCapError(
            f"node cap {node_cap} hit before any section was found",
            nodes=lattice.nodes) from None
    return SectionReport((), False, lattice.nodes, envelope)


def has_nonzero_section(E: ArakelovBundle,
                        node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Whether a nonzero section exists; exits on the first hit.

    A basis vector of norm <= 1 everywhere is an exact witness, found on
    the content form before any float step; only without one does the
    sweep run.  A node-cap interruption of the sweep before any hit raises
    EnumerationCapError: an indeterminate outcome is never reported as
    False.
    """
    return _empty_report(E, node_cap) is None


def count_in_region(E: ArakelovBundle, radii,
                    node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Number of nonzero module vectors with ||e||_v <= t_v everywhere;
    radii is one scaling per infinite place, or a single common one."""
    caps = _norm_caps(E, radii)
    _, lattice, _, hits = _sweep(E, caps, node_cap)
    found = 0
    try:
        for _ in hits:
            found += 1
    except EnumerationCapError:
        raise EnumerationCapError(
            f"node cap {node_cap} hit after {2 * found} vectors",
            nodes=lattice.nodes) from None
    return 2 * found


def minkowski_guarantee(E: ArakelovBundle) -> bool:
    """Sufficient volume criterion for a nonzero section.

    True iff exp(deg E) * lambda^N(O_A^N) > 2^(N d) * disc^(N/2) for N the
    rank and d the field degree; by the lattice-point theorem applied to the
    restricted scalars this forces a section, so True implies
    has_nonzero_section(E).
    """
    field = E.field
    N = E.rank
    d = field.degree
    lhs = degree(E) + math.log(adelic_ball_volume(field, N))
    rhs = N * d * math.log(2.0) + 0.5 * N * math.log(field.discriminant)
    return lhs > rhs
