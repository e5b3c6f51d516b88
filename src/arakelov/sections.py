"""Global sections: module vectors of norm at most one at every infinite
place, found by exact lattice-point enumeration.

The search runs over the restriction of scalars: candidates come from a
branch-and-bound sweep of the trace-form ellipsoid (norm caps t_v^2 summed
with weight 2 at complex places), then an exact rational filter keeps the
vectors inside the product of per-place balls.  The float sweep is slightly
generous near the boundary, the filter is exact, so boundary vectors are kept
if and only if they truly satisfy the closed condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import Sequence

from .bundle import ArakelovBundle, ZLatticeView, restrict_scalars
from .errors import EnumerationCapError
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
    caps = []
    for t in radii:
        t = Fraction(t)
        if t <= 0:
            raise ValueError("radii must be positive")
        caps.append(t * t)
    return caps


def _scan(E: ArakelovBundle, caps: Sequence[Fraction], node_cap: int):
    """Exact region scan; yields representatives (one per +-pair) and finally
    reports (truncated, nodes, envelope) through the returned state dict."""
    view = restrict_scalars(E)
    weights = [1 if p.kind == "real" else 2
               for p in E.field.infinite_places()]
    envelope = math.fsum(w * float(c) for w, c in zip(weights, caps))
    lattice = ReducedLattice(view.trace_gram, node_cap)
    state = {"truncated": False, "nodes": 0, "envelope": envelope,
             "view": view}

    def gen():
        try:
            for z, _ in lattice.short_vectors(envelope):
                if view.values_leq(z, caps):
                    yield z
        except EnumerationCapError:
            state["truncated"] = True
        finally:
            state["nodes"] = lattice.nodes

    return gen(), state


def global_sections(E: ArakelovBundle,
                    node_cap: int = DEFAULT_NODE_CAP) -> SectionReport:
    """All nonzero module vectors with norm <= 1 at every infinite place.

    Exhaustive unless the node cap interrupts the sweep, in which case the
    report is marked truncated rather than silently incomplete.
    """
    caps = [Fraction(1)] * len(E.field.infinite_places())
    gen, state = _scan(E, caps, node_cap)
    reps = sorted(gen)
    view: ZLatticeView = state["view"]
    listed = []
    for z in reps:
        listed.append(view.coords_to_module(z))
        listed.append(view.coords_to_module(tuple(-c for c in z)))
    return SectionReport(
        nonzero_sections=tuple(listed),
        truncated=state["truncated"],
        nodes_visited=state["nodes"],
        certificate=state["envelope"],
    )


def has_nonzero_section(E: ArakelovBundle,
                        node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Whether a nonzero section exists; exits on the first hit.

    A node-cap interruption before any hit raises EnumerationCapError:
    an indeterminate outcome is never reported as False.
    """
    caps = [Fraction(1)] * len(E.field.infinite_places())
    gen, state = _scan(E, caps, node_cap)
    for _ in gen:
        return True
    if state["truncated"]:
        raise EnumerationCapError(
            f"node cap {node_cap} hit before any section was found",
            nodes=state["nodes"])
    return False


def count_in_region(E: ArakelovBundle, radii,
                    node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Number of nonzero module vectors with ||e||_v <= t_v everywhere;
    radii is one scaling per infinite place, or a single common one."""
    caps = _norm_caps(E, radii)
    gen, state = _scan(E, caps, node_cap)
    count = sum(2 for _ in gen)
    if state["truncated"]:
        raise EnumerationCapError(
            f"node cap {node_cap} hit after {count} vectors",
            nodes=state["nodes"])
    return count


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
    lhs = E.degree() + math.log(adelic_ball_volume(field, N))
    rhs = N * d * math.log(2.0) + 0.5 * N * math.log(field.discriminant)
    return lhs > rhs
