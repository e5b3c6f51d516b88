"""Per-layer tracing of the arakelov library, done from outside it.

The library imports names with ``from .x import y``, so a wrapper must
replace a function under every module-level name that callers look it up
by.  ``Tracer.install`` scans every loaded ``arakelov`` module for names
bound to a traced function and rebinds them to a wrapper; methods are
wrapped on their class.  ``Tracer.uninstall`` restores the originals.

Each wrapped call records a span: name, start, end, busy time, parent span
and op id.  Spans are kept in flat arrays while the run goes on and are
written out once, at the end.  A span's self time is its busy time minus
the busy time of its child spans.  ``enumerate_short_vectors`` is a
generator, so its span is busy only while inside ``next()``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

ROOT = -1  # parent id of a span opened directly by the op

EXACT_FILTER = "bundle.exact_filter"

# (module, function, span name) for plain functions.
FUNCTIONS = (
    ("sampler", "hecke_integer_gram", "sampler.hecke_integer_gram"),
    ("sampler", "random_bundle", "sampler.random_bundle"),
    ("bundle", "make_bundle", "bundle.make_bundle"),
    ("bundle", "restrict_scalars", "bundle.restrict_scalars"),
    ("bundle", "tensor", "bundle.tensor"),
    ("bundle", "scale", "bundle.scale"),
    ("intlinalg", "rat_det", "intlinalg.rat_det"),
    ("intlinalg", "rat_inverse", "intlinalg.rat_inverse"),
    ("intlinalg", "hnf", "intlinalg.hnf"),
    ("intlinalg", "saturation_rows", "intlinalg.saturation_rows"),
    ("sections", "has_nonzero_section", "sections.has_nonzero_section"),
    ("sections", "global_sections", "sections.global_sections"),
    ("zeta", "enumerate_subbundles", "zeta.enumerate_subbundles"),
    ("bounds", "main_inequality", "bounds.main_inequality"),
)

# (module, class, method) making up the exact filter layer.
FILTER_METHODS = (
    ("bundle", "ZLatticeView", "values_leq"),
    ("bundle", "ZLatticeView", "place_values"),
    ("bundle", "PlaceForm", "value_pair"),
)


def _count_hits(counts, found):
    counts["sections.has_nonzero_section.hits"] += bool(found)


def _count_nodes_visited(counts, report):
    counts["sections.global_sections.nodes_visited"] += report.nodes_visited


def _count_records(counts, records):
    counts["zeta.enumerate_subbundles.records"] += len(records)


def _count_accepted(counts, inside):
    counts[EXACT_FILTER + ".verdicts"] += 1
    counts[EXACT_FILTER + ".accepted"] += bool(inside)


# Counts read from what a traced call returns.
COUNTERS = {
    "sections.has_nonzero_section": _count_hits,
    "sections.global_sections": _count_nodes_visited,
    "zeta.enumerate_subbundles": _count_records,
}


def _is_exact(gram) -> bool:
    """The test lll_transform itself uses to pick exact arithmetic."""
    return all(isinstance(x, (Fraction, int)) for row in gram for x in row)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.stack = [ROOT]
        self.op_id = -1
        self.ops: list[tuple[int, str, float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        return sid

    def _current_name(self) -> str | None:
        top = self.stack[-1]
        return None if top == ROOT else self.names[self.name[top]]

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack = [ROOT]

    def end_op(self, kind: str, start: float, end: float):
        self.ops.append((self.op_id, kind, start, end))
        self.op_id = -1

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run fn inside a span; nested calls within the same layer (the
        exact filter's methods call each other) join the outer span."""
        if self._current_name() == name:
            return fn(*args, **kwargs)
        sid = self._open(name)
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
            self.busy[sid] = t1 - t0
        self.counts[name + ".calls"] += 1
        if count is not None:
            count(self.counts, result)
        return result

    def enumeration(self, fn, args, kwargs):
        """Drive the enumeration generator, timing only the time spent
        inside next() and counting the nodes it visits."""
        name = "lattice.enumerate_short_vectors"
        supplied = args[3] if len(args) >= 4 else kwargs.get("node_counter")
        counter = supplied if supplied is not None else [0]
        if supplied is None:
            if len(args) >= 4:
                args = args[:3] + (counter,) + args[4:]
            else:
                kwargs = dict(kwargs, node_counter=counter)
        base = counter[0]
        gen = fn(*args, **kwargs)
        sid = self._open(name)
        busy = 0.0
        first = last = None
        yielded = 0
        try:
            while True:
                self.stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    busy += t1 - t0
                    if first is None:
                        first = t0
                    last = t1
                yielded += 1
                yield item
        finally:
            gen.close()
            self.start[sid] = first if first is not None else 0.0
            self.end[sid] = last if last is not None else 0.0
            self.busy[sid] = busy
            self.counts[name + ".calls"] += 1
            self.counts[name + ".nodes"] += counter[0] - base
            self.counts[name + ".yielded"] += yielded

    # ------------------------------------------------------------------
    # installing wrappers

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "arakelov" and not modname.startswith("arakelov."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function under each name it is looked up by."""
        tracer = self

        def module(name):
            return importlib.import_module("arakelov." + name)

        for modname, fname, span in FUNCTIONS:
            original = getattr(module(modname), fname)
            self._rebind(original, _function_wrapper(
                tracer, span, original, COUNTERS.get(span)))

        lll = module("lattice").lll_transform

        def lll_transform(gram, *args, **kwargs):
            kind = "exact" if _is_exact(gram) else "float"
            return tracer.call("lattice.lll_transform." + kind, lll,
                               (gram,) + args, kwargs)

        self._rebind(lll, lll_transform)

        enum = module("lattice").enumerate_short_vectors

        def enumerate_short_vectors(*args, **kwargs):
            return tracer.enumeration(enum, args, kwargs)

        self._rebind(enum, enumerate_short_vectors)

        for modname, cls_name, meth in FILTER_METHODS:
            cls = getattr(module(modname), cls_name)
            original = cls.__dict__[meth]
            self._patch_attr(cls, meth, _function_wrapper(
                tracer, EXACT_FILTER, original,
                _count_accepted if meth == "values_leq" else None))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every recorded span."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p != ROOT:
                child[p] += self.busy[sid]
        totals: dict[str, float] = defaultdict(float)
        for sid in range(n):
            totals[self.names[self.name[sid]]] += self.busy[sid] - child[sid]
        return dict(totals)

    def top_level_busy(self) -> float:
        """Busy time of the spans an op opened directly."""
        return sum(self.busy[sid] for sid in range(len(self.name))
                   if self.parent[sid] == ROOT and self.op[sid] >= 0)

    def write(self, path):
        """Write every span and op as JSON lines (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for op_id, kind, start, end in self.ops:
                out.write(json.dumps({"op": op_id, "kind": kind,
                                      "start": start, "end": end}) + "\n")
            for sid in range(len(self.name)):
                out.write(json.dumps([
                    sid, self.names[self.name[sid]], self.parent[sid],
                    self.op[sid], self.start[sid], self.end[sid],
                    self.busy[sid]]) + "\n")


def _function_wrapper(tracer: Tracer, span: str, original, count=None):
    def wrapper(*args, **kwargs):
        return tracer.call(span, original, args, kwargs, count)

    wrapper.__name__ = getattr(original, "__name__", span)
    wrapper.__doc__ = original.__doc__
    wrapper.__wrapped__ = original
    return wrapper


def summarize_spans(path) -> dict:
    """Per op kind: op count, mean op time, and each layer's self time and
    calls per op, recomputed from a spans file written by Tracer.write."""
    ops: dict[int, tuple[str, float]] = {}
    spans = []
    with gzip.open(path, "rt") as lines:
        next(lines)  # the name table; span lines carry their names
        for line in lines:
            item = json.loads(line)
            if isinstance(item, dict):
                ops[item["op"]] = (item["kind"], item["end"] - item["start"])
            else:
                spans.append(item)
    child = defaultdict(float)
    for _sid, _name, parent, _op, _start, _end, busy in spans:
        if parent != ROOT:
            child[parent] += busy
    kinds: dict[str, dict] = {}
    for kind, seconds in ops.values():
        k = kinds.setdefault(kind, {"ops": 0, "op_s": 0.0, "layers": {}})
        k["ops"] += 1
        k["op_s"] += seconds
    for sid, name, _parent, op, _start, _end, busy in spans:
        layer = kinds[ops[op][0]]["layers"].setdefault(
            name, {"self_s": 0.0, "calls": 0})
        layer["self_s"] += busy - child[sid]
        layer["calls"] += 1
    for k in kinds.values():
        for layer in k["layers"].values():
            layer["self_s"] /= k["ops"]
            layer["calls"] /= k["ops"]
        k["op_s"] /= k["ops"]
    return kinds
