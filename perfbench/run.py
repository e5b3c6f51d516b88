"""Benchmark of the arakelov library: the mvt, search and zeta workloads.

    python3 perfbench/run.py --workload zeta --seed 0 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory.  An op is one public library call, made from this one
process, single-threaded.

With ``--trace 0`` the run times ops until ``--seconds`` of op time have
passed, at least MIN_OPS ops were made and the last round of the workload's
mix of op kinds is complete, checks every output and prints the end-to-end
metrics.  Times are scaled to a nominal machine speed (see speed.py); the
raw figures are printed too.  With ``--trace 1`` it runs
each op twice in a row, untraced and then with the tracer installed, and
prints the per-layer metrics, the tracing overhead and the share of op
time that layer spans cover; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl.gz``.  The last line of
stdout is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Other modes:
    --smoke      two ops of every workload, traced and untraced
    --digest     the digest of the first DIGEST_OPS ops, compared with
                 perfbench/reference_digests.json when it has the seed
    --baseline   every workload at the default seed, traced and untraced;
                 writes perfbench/baseline.json and the reference digests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference_digests.json"
BASELINE = HERE / "baseline.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("mvt", "search", "zeta")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# The main process sets up once; this many more cold set-ups run in child
# processes, and setup_s is the median of all of them.
EXTRA_SETUPS = 4
SETUP_TIMEOUT_S = 120
# Enough ops that the 90th percentile has at least ten samples above it.
MIN_OPS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of the traced run.  "s/op" is self time per op and
# "count/op" a count per op, both averaged over the traced ops.
PER_LAYER = (
    ("lattice.lll_transform.exact_s", "s/op"),
    ("lattice.lll_transform.float_s", "s/op"),
    ("lattice.lll_transform.calls", "count/op"),
    ("lattice.enumerate_short_vectors.s", "s/op"),
    ("lattice.enumerate_short_vectors.calls", "count/op"),
    ("lattice.enumerate_short_vectors.nodes", "count/op"),
    ("lattice.enumerate_short_vectors.yielded", "count/op"),
    ("lattice.nodes_per_s", "1/s"),
    ("lattice.yield_per_node", "ratio"),
    ("sampler.hecke_integer_gram.s", "s/op"),
    ("sampler.hecke_integer_gram.calls", "count/op"),
    ("sampler.random_bundle.s", "s/op"),
    ("sampler.random_bundle.calls", "count/op"),
    ("bundle.make_bundle.s", "s/op"),
    ("bundle.make_bundle.calls", "count/op"),
    ("bundle.restrict_scalars.s", "s/op"),
    ("bundle.tensor.s", "s/op"),
    ("bundle.scale.s", "s/op"),
    ("bundle.exact_filter.s", "s/op"),
    ("bundle.exact_filter.calls", "count/op"),
    ("bundle.exact_filter.accepted", "count/op"),
    ("bundle.filter_accept_ratio", "ratio"),
    ("intlinalg.rat_det.s", "s/op"),
    ("intlinalg.rat_det.calls", "count/op"),
    ("intlinalg.hnf.s", "s/op"),
    ("intlinalg.hnf.calls", "count/op"),
    ("intlinalg.saturation_rows.s", "s/op"),
    ("intlinalg.saturation_rows.calls", "count/op"),
    ("intlinalg.rat_inverse.s", "s/op"),
    ("sections.has_nonzero_section.s", "s/op"),
    ("sections.has_nonzero_section.calls", "count/op"),
    ("sections.has_nonzero_section.hits", "count/op"),
    ("sections.global_sections.s", "s/op"),
    ("sections.global_sections.nodes_visited", "count/op"),
    ("search.find_section_free.attempts", "count/op"),
    ("search.found_per_attempt", "ratio"),
    ("zeta.enumerate_subbundles.s", "s/op"),
    ("zeta.enumerate_subbundles.records", "count/op"),
    ("bounds.main_inequality.s", "s/op"),
    ("mvt.mvt_compare.trials", "count/op"),
    ("mvt.discard_ratio", "ratio"),
    ("trace.op_s", "s/op"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class SetupError(Exception):
    """The benchmark cannot find or import the library it measures."""


def load_library():
    """Put the checkout's src/ first on sys.path; refuse any other copy."""
    if not (SRC / "arakelov" / "__init__.py").is_file():
        raise SetupError(f"no arakelov sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arakelov
    if Path(arakelov.__file__).resolve().parent != SRC / "arakelov":
        raise SetupError(f"imported arakelov from {arakelov.__file__}")
    return arakelov


def timed_setup(name: str, seed: int):
    """Import the library, build the fields and generate the inputs."""
    t0 = time.perf_counter()
    load_library()
    import workloads
    wl = workloads.prepare(name, seed)
    return wl, time.perf_counter() - t0


def child_setup_seconds(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# running ops
# ----------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    kind: str
    start: float
    seconds: float
    ok: bool
    broken: bool      # a wrong output or an unexpected error
    digest: str | None


def run_op(wl, i: int, tracer=None, digest: bool = False,
           counts: dict | None = None) -> OpRecord:
    """Make op i, time it, and check its output; with counts given, add the
    counts the op reads off its output."""
    import arakelov
    import workloads
    op = wl.op(i)
    result = error = None
    crashed = False
    if tracer is not None:
        tracer.begin_op(i)
    t0 = time.perf_counter()
    try:
        result = op.call()
    except arakelov.ArakelovError as exc:
        error = exc
    except Exception as exc:  # a crash: record it and keep measuring
        traceback.print_exc(file=sys.stderr)
        error, crashed = exc, True
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op(op.kind, t0, t1)
    wrong = False
    if error is None:
        try:
            op.check(result)
        except workloads.CheckFailed as exc:
            print(f"op {i} ({op.kind}): wrong output: {exc}", file=sys.stderr)
            wrong = True
        if counts is not None and op.tally is not None:
            op.tally(result, counts)
    else:
        print(f"op {i} ({op.kind}): {type(error).__name__}: {error}",
              file=sys.stderr)
    failed = wrong or error is not None
    # An op that probes a known defect may fail, by a typed error or a
    # wrong output, without breaking the run; any other failure breaks it.
    broken = crashed or (failed and not op.known_defect)
    return OpRecord(
        index=i, kind=op.kind, start=t0, seconds=t1 - t0,
        ok=not failed, broken=broken,
        digest=(workloads.op_digest(result, error) if digest else None))


def run_for(wl, seconds: float, digests: int,
            probe: SpeedProbe) -> list[OpRecord]:
    """Ops 0, 1, ... until their summed time reaches the budget, there are
    MIN_OPS of them and the last round of the mix is complete, with the
    reference work timed in between.  Whole rounds keep the mix, and so
    the latency quantiles, the same from run to run."""
    records, spent, i = [], 0.0, 0
    while spent < seconds or i < MIN_OPS or i % wl.cycle:
        rec = run_op(wl, i, digest=i < digests)
        records.append(rec)
        spent += rec.seconds
        probe.keep_up(spent)
        i += 1
    return records


def digest_of(records, count: int) -> str:
    import workloads
    return workloads.workload_digest(r.digest for r in records[:count])


def print_metrics(metrics: dict):
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------

def summarize(setups: list[float], records: list[OpRecord],
              seconds: list[float]) -> dict[str, float]:
    """setup_s, ops_per_s and latency quantiles from per-op times."""
    done = [s for s, r in zip(seconds, records) if r.ok]
    cuts = statistics.quantiles(done, n=10) if len(done) >= 2 else [0.0] * 9
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(done) / sum(seconds),
        "op_p50_ms": 1000.0 * statistics.median(done) if done else 0.0,
        "op_p90_ms": 1000.0 * cuts[8],
    }


def timed_run(name: str, seed: int, seconds: float) -> dict:
    probe = SpeedProbe()
    start = time.perf_counter()
    wl, setup_main = timed_setup(name, seed)
    import workloads
    setups = [(start, setup_main)]
    for _ in range(EXTRA_SETUPS):
        probe.sample()
        start = time.perf_counter()
        setups.append((start, child_setup_seconds(name, seed)))
    probe.sample()
    records = run_for(wl, seconds, workloads.DIGEST_OPS, probe)
    raw = summarize([s for _, s in setups], records,
                    [r.seconds for r in records])
    metrics = summarize([probe.scale(*s) for s in setups], records,
                        [probe.scale(r.start, r.seconds) for r in records])
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [r for r in records if r.ok]
    failed = sum(not r.ok for r in records)
    digest = digest_of(records, workloads.DIGEST_OPS)
    print(f"workload {name}  seed {seed}  ops {len(records)}  "
          f"completed {len(done)}  failed {failed}  "
          f"failed_frac {failed / len(records):.4f}")
    print(f"  latency samples {len(done)} "
          f"(p90 has {len(done) - int(0.9 * len(done))} above it)")
    print(f"  setup samples {', '.join(f'{s:.4f}' for _, s in setups)}")
    print(f"  speed factor {probe.factor():.4f} from {len(probe.samples)} "
          f"reference timings; raw "
          + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  digest of ops 0..{workloads.DIGEST_OPS - 1}: {digest}")
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r.kind].append(r)
    for kind, rs in sorted(by_kind.items()):
        print(f"  kind {kind:32s} ops {len(rs):4d}  "
              f"failed {sum(not r.ok for r in rs):3d}  raw median "
              f"{1000 * statistics.median(r.seconds for r in rs):9.3f} ms")
    units = dict(END_TO_END)
    result = {
        "correct": not any(r.broken for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k, _ in END_TO_END},
    }
    print_metrics(result["metrics"])
    return result


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def layer_metrics(tracer, ops: int, traced_s: float, plain_s: float,
                  factor: float) -> dict[str, float]:
    """Per-layer metrics of the traced ops, from their raw op time traced_s
    and that of the same ops untraced, plain_s.  Times are scaled by the
    run's speed factor."""
    self_s = defaultdict(float, {name: factor * s for name, s in
                                 tracer.self_times().items()})
    c = tracer.counts
    totals = {
        "lattice.lll_transform.exact_s": self_s["lattice.lll_transform.exact"],
        "lattice.lll_transform.float_s": self_s["lattice.lll_transform.float"],
        "lattice.lll_transform.calls": c["lattice.lll_transform.exact.calls"]
        + c["lattice.lll_transform.float.calls"],
        "trace.op_s": factor * traced_s,
    }
    for name, unit in PER_LAYER:
        if unit == "s/op" and name not in totals:
            totals[name] = self_s[name.removesuffix(".s")]
        elif unit == "count/op" and name not in totals:
            totals[name] = c[name]
    m = {name: total / ops for name, total in totals.items()}
    enum = "lattice.enumerate_short_vectors"
    m.update({
        "lattice.nodes_per_s": _ratio(c[enum + ".nodes"], self_s[enum]),
        "lattice.yield_per_node": _ratio(c[enum + ".yielded"],
                                         c[enum + ".nodes"]),
        "bundle.filter_accept_ratio": _ratio(
            c["bundle.exact_filter.accepted"],
            c["bundle.exact_filter.verdicts"]),
        "search.found_per_attempt": _ratio(
            c["search.find_section_free.found"],
            c["search.find_section_free.attempts"]),
        "mvt.discard_ratio": _ratio(c["mvt.mvt_compare.discarded"],
                                    c["mvt.mvt_compare.trials"]),
        "trace.coverage": _ratio(tracer.top_level_busy(), traced_s),
        "trace.overhead_ratio": _ratio(traced_s, plain_s),
    })
    return m


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Each op twice in a row, untraced then traced, until the untraced
    runs have had half the time; the pairs share the machine's speed, so
    their time ratio is the tracing overhead."""
    from tracer import Tracer
    wl, _ = timed_setup(name, seed)
    probe = SpeedProbe()
    tracer = Tracer()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    while plain_s < seconds / 2.0:
        i = len(plain)
        plain.append(run_op(wl, i, digest=True))
        tracer.install()
        try:
            traced.append(run_op(wl, i, tracer, digest=True,
                                 counts=tracer.counts))
        finally:
            tracer.uninstall()
        plain_s += plain[-1].seconds
        traced_s += traced[-1].seconds
        probe.keep_up(plain_s + traced_s)
    ops = len(traced)
    metrics = layer_metrics(tracer, ops, traced_s, plain_s, probe.factor())
    same = [a.digest for a in plain] == [b.digest for b in traced]
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(f"workload {name}  seed {seed}  traced ops {ops}  "
          f"spans {len(tracer.name)} -> {path.relative_to(ROOT)}")
    print(f"  output digests identical with tracing on and off: {same}")
    print(f"  speed factor {probe.factor():.4f}")
    units = dict(PER_LAYER)
    result = {
        "correct": same and not any(r.broken for r in plain + traced),
        "attempted": ops,
        "failed": sum(not r.ok for r in traced),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k, _ in PER_LAYER},
    }
    print_metrics(result["metrics"])
    return result


# ----------------------------------------------------------------------
# other modes
# ----------------------------------------------------------------------

def digest_prefix(name: str, seed: int) -> tuple[str, bool]:
    """Digest of the first DIGEST_OPS ops, and whether every op was sound."""
    wl, _ = timed_setup(name, seed)
    import workloads
    records = [run_op(wl, i, digest=True)
               for i in range(workloads.DIGEST_OPS)]
    return (digest_of(records, workloads.DIGEST_OPS),
            not any(r.broken for r in records))


def check_digests(names, seed: int) -> bool:
    """Print each workload's digest; False if one differs from the
    committed reference or an op was not sound."""
    reference = (json.loads(REFERENCE.read_text())["seeds"].get(str(seed), {})
                 if REFERENCE.is_file() else {})
    good = True
    for name in names:
        digest, sound = digest_prefix(name, seed)
        expected = reference.get(name)
        verdict = ("no reference" if expected is None else
                   "matches the reference" if expected == digest else
                   "DIFFERS from the reference")
        print(f"{name:7s} seed {seed}  {digest}  {verdict}"
              + ("" if sound else "  (an op was not sound)"))
        good = good and sound and expected in (None, digest)
    return good


def smoke() -> bool:
    """Two ops of every workload, untraced and traced: outputs sound and
    digests equal."""
    from tracer import Tracer
    load_library()
    import workloads
    good = True
    for name in WORKLOADS:
        t0 = time.perf_counter()
        wl = workloads.prepare(name, DEFAULT_SEED)
        plain = [run_op(wl, i, digest=True) for i in range(2)]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_op(wl, i, tracer, digest=True) for i in range(2)]
        finally:
            tracer.uninstall()
        same = [r.digest for r in plain] == [r.digest for r in traced]
        sound = not any(r.broken for r in plain + traced)
        good = good and same and sound
        print(f"{name:7s} ops 2  sound {sound}  digests equal {same}  "
              f"spans {len(tracer.name)}  {time.perf_counter() - t0:.2f} s")
    return good


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def roadmap_shares(by_kind: dict) -> dict[str, float]:
    """The ROADMAP Baseline figures, from raw span times: each layer's share
    of op time, and the exact filter's time per call (per candidate vector)
    for each field, in microseconds."""
    op_s = sum(k["ops"] * k["op_s"] for k in by_kind.values())
    layer_s = defaultdict(float)
    filter_calls = defaultdict(lambda: [0.0, 0.0])
    for kind, k in by_kind.items():
        for name, layer in k["layers"].items():
            layer_s[name] += k["ops"] * layer["self_s"]
            if name == "bundle.exact_filter":
                acc = filter_calls[kind.split(".")[0]]
                acc[0] += k["ops"] * layer["self_s"]
                acc[1] += k["ops"] * layer["calls"]
    shares = {f"share.{name}": s / op_s for name, s in sorted(layer_s.items())}
    shares.update({f"exact_filter_us_per_call.{field}": 1e6 * s / n
                   for field, (s, n) in sorted(filter_calls.items()) if n})
    return shares


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def baseline():
    """Measure every workload at the default seed, each run in its own
    process, and record the numbers with the machine, the versions and the
    commit; also record the reference digests."""
    import numpy
    import sympy
    import tracer
    load_library()
    import workloads
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    report = {
        "git_sha": git_sha(),
        "machine": {"platform": platform.platform(),
                    "cpu": cpu_model(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "seed": DEFAULT_SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    digests = {}
    for name in WORKLOADS:
        entry = {"end_to_end": run_child(name, DEFAULT_SEED, seconds, 0),
                 "per_layer": run_child(name, DEFAULT_SEED, seconds, 1)}
        spans = TRACE_DIR / f"spans-{name}-seed{DEFAULT_SEED}.jsonl.gz"
        entry["by_kind"] = tracer.summarize_spans(spans)
        entry["shares"] = roadmap_shares(entry["by_kind"])
        digests[name], _ = digest_prefix(name, DEFAULT_SEED)
        report["workloads"][name] = entry
        print(f"{name}: done", flush=True)
    BASELINE.write_text(json.dumps(report, indent=1) + "\n")
    REFERENCE.write_text(json.dumps(
        {"digest_ops": workloads.DIGEST_OPS,
         "seeds": {str(DEFAULT_SEED): digests}}, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true",
                      help=argparse.SUPPRESS)
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--digest", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.baseline:
            baseline()
            return 0
        if args.digest:
            names = [args.workload] if args.workload else WORKLOADS
            return 0 if check_digests(names, args.seed) else 1
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_only:
            _, seconds = timed_setup(args.workload, args.seed)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
