"""Command-line interface: every module behind one binary.

Exit codes form a protocol for headless runs: 0 success or positive
verdict, 1 negative verdict (|z| too large, search exhausted or blocked,
existence not guaranteed), 2 usage errors including malformed Gram files,
3 indeterminate results (enumeration budget hit, truncated reports, too
many discarded trials).  Every report echoes its run configuration, all
floats are serialized to 12 significant digits, and identical
configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bundle import (ArakelovBundle, degree, determinant, slope)
from .bounds import (main_inequality, mh_bound, packing_density,
                     riemann_zeta_int, thresholds)
from .errors import (ArakelovError, EnumerationCapError, GramFileError,
                     MonteCarloDiscardError, ZetaDivergenceError)
from .gramfile import format_gram_file, load_gram_file
from .lattice import DEFAULT_NODE_CAP
from .mvt import mvt_compare
from .numberfield import NumberField, make_field
from .sampler import DEFAULT_PRIME, RandomLatticeSpec
from .sections import (SectionReport, count_in_region, global_sections,
                       minkowski_guarantee)
from .search import find_section_free, success_rate_experiment
from .zeta import (degree_shells, enumerate_subbundles, semistability_verdict,
                   zeta_partial)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

# dest name -> coercion for config-file values
_CONFIG_TYPES = {
    "seed": int, "node_cap": int, "threads": int, "trials": int,
    "n": int, "l": int, "p": int, "rank": int, "max_trials": int,
    "s": float, "cutoff": float, "slope": float, "det_degree": float,
    "eps": float, "z_max": float, "min_degree": float,
    "field": str, "gram": str, "format": str, "kind": str, "mode": str,
    "t": str, "radius": str,
}


def _format_element(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    a, b = x.a, x.b
    if b == 0:
        return str(a)
    unit = "w" if abs(b) == 1 else f"{abs(b)}*w"
    sign = "-" if b < 0 else "+"
    if a == 0:
        return unit if b > 0 else f"-{unit}"
    return f"{a}{sign}{unit}"


def _round12(x: float):
    if not math.isfinite(x):
        return repr(x)  # 'inf', '-inf', 'nan'
    return float(f"{x:.12g}")


def _jsonable(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(document: dict, fmt: str) -> None:
    document = _jsonable(document)
    if fmt == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    elif fmt == "text":
        for line in _text_lines(document, ""):
            print(line)
    else:
        raise ValueError(f"format {fmt!r} not available for this report")


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _text_lines(obj[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        yield f"{prefix[:-1]} = {json.dumps(obj)}"
    else:
        yield f"{prefix[:-1]} = {json.dumps(obj)}"


def _run_config(args, **extra) -> dict:
    cfg = {"subcommand": args.command, "format": args.format,
           "seed": args.seed, "node_cap": args.node_cap,
           "threads": args.threads}
    cfg.update(extra)
    return cfg


def _section_report_payload(report: SectionReport) -> dict:
    return {
        "nonzero_sections": [[_format_element(x) for x in vec]
                             for vec in report.nonzero_sections],
        "count": len(report.nonzero_sections),
        "truncated": report.truncated,
        "nodes_visited": report.nodes_visited,
        "certificate": report.certificate,
    }


def _bound_report_payload(report) -> dict:
    return {"kind": report.kind, "inputs": dict(report.inputs),
            "values": dict(report.values), "verdict": report.verdict}


def _parse_radii(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


# ---------------------------------------------------------------- commands

def _cmd_field_info(args) -> int:
    field = make_field(args.field)
    payload = {
        "descriptor": field.descriptor,
        "degree": field.degree,
        "real_places": field.real_places,
        "complex_places": field.complex_places,
        "discriminant": field.discriminant,
        "integral_basis": [_format_element(field.coerce(x))
                           for x in field.integral_basis()],
        "torsion_units": len(field.torsion_units()),
    }
    if field.real_places == 2:
        payload["fundamental_unit"] = _format_element(field.fundamental_unit())
    _emit({"run_config": _run_config(args, field=args.field),
           "report": payload}, args.format)
    return EXIT_OK


def _load_bundle(args) -> ArakelovBundle:
    return load_gram_file(args.gram)


def _cmd_bundle_info(args) -> int:
    E = _load_bundle(args)
    payload = {
        "field": E.field.descriptor,
        "rank": E.rank,
        "degree": degree(E),
        "slope": slope(E),
        "determinant_degree": degree(determinant(E)),
        "minkowski_guarantee": minkowski_guarantee(E),
    }
    _emit({"run_config": _run_config(args, gram=args.gram),
           "report": payload}, args.format)
    return EXIT_OK


def _cmd_sections(args) -> int:
    E = _load_bundle(args)
    config = _run_config(args, gram=args.gram, radius=args.radius)
    if args.radius is not None:
        radii = _parse_radii(args.radius)
        count = count_in_region(E, radii if len(radii) > 1 else radii[0],
                                node_cap=args.node_cap)
        _emit({"run_config": config, "report": {"count": count,
               "radius": [float(t) for t in radii]}}, args.format)
        return EXIT_OK
    report = global_sections(E, node_cap=args.node_cap)
    _emit({"run_config": config,
           "report": _section_report_payload(report)}, args.format)
    return EXIT_INDETERMINATE if report.truncated else EXIT_OK


def _cmd_zeta(args) -> int:
    E = _load_bundle(args)
    config = _run_config(args, gram=args.gram, mode=args.mode, l=args.l,
                         s=args.s, cutoff=args.cutoff)
    if args.mode == "semistable":
        verdict = semistability_verdict(E, args.node_cap)
        payload = {"status": verdict.status}
        if verdict.witness is not None:
            payload["witness"] = {
                "rank": verdict.witness.rank,
                "degree": verdict.witness.degree,
                "basis": [[_format_element(x) for x in vec]
                          for vec in verdict.witness.basis],
            }
        _emit({"run_config": config, "report": payload}, args.format)
        return (EXIT_INDETERMINATE if verdict.status == "inconclusive"
                else EXIT_OK)
    if args.mode == "shells":
        records = enumerate_subbundles(E, args.l, -args.cutoff,
                                       args.node_cap)
        shells = degree_shells(records)
        if args.format == "csv":
            print("degree,multiplicity")
            for deg, mult in shells:
                print(f"{deg:.12g},{mult}")
        else:
            _emit({"run_config": config,
                   "report": {"shells": [[deg, mult] for deg, mult in shells]}},
                  args.format)
        return EXIT_OK
    zp = zeta_partial(E, args.l, args.s, args.cutoff, args.node_cap)
    payload = {"s": zp.s, "l": zp.l, "cutoff": zp.cutoff,
               "partial_sum": zp.partial_sum, "terms": zp.terms,
               "tail_bound_estimate": zp.tail_bound_estimate}
    _emit({"run_config": config, "report": payload}, args.format)
    return EXIT_OK


def _cmd_mvt_verify(args) -> int:
    radii = _parse_radii(args.t)
    if len(radii) == 1 and args.l > 1:
        radii = radii * args.l
    field = make_field(args.field)
    spec = RandomLatticeSpec(n=args.n, p=args.p, seed=args.seed, field=field)
    comparison = mvt_compare(args.n, args.l, radii, args.trials, spec,
                             threads=args.threads, node_cap=args.node_cap)
    payload = {
        "lhs": {"mean": comparison.lhs.mean,
                "std_error": comparison.lhs.std_error,
                "trials": comparison.lhs.trials,
                "config": dict(comparison.lhs.config)},
        "rhs": comparison.rhs,
        "z_score": comparison.z_score,
    }
    _emit({"run_config": _run_config(args, n=args.n, l=args.l, t=args.t,
                                     trials=args.trials, p=args.p,
                                     z_max=args.z_max),
           "report": payload}, args.format)
    z = comparison.z_score
    ok = math.isfinite(z) and abs(z) <= args.z_max
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    field = make_field(args.field)
    config = _run_config(args, field=args.field, kind=args.kind)
    if args.kind == "thresholds":
        report = thresholds(field, args.n, args.l, args.eps)
        _emit({"run_config": config,
               "report": _bound_report_payload(report)}, args.format)
        return EXIT_OK
    if args.kind == "theorem":
        if args.det_degree is None:
            raise ValueError("--det-degree is required for --kind theorem")
        if args.gram:
            E = _load_bundle(args)
        else:
            from .bundle import trivial_bundle
            E = trivial_bundle(field, args.rank)
        report = main_inequality(E, args.n, args.det_degree,
                                 {"cutoff": args.cutoff,
                                  "node_cap": args.node_cap})
        _emit({"run_config": config,
               "report": _bound_report_payload(report)}, args.format)
        if report.values["tail_uncertain"]:
            return EXIT_INDETERMINATE
        return (EXIT_OK if report.verdict.startswith("existence guaranteed")
                else EXIT_NEGATIVE)
    raise ValueError(f"unknown bounds kind {args.kind!r}")


def _cmd_density(args) -> int:
    E = _load_bundle(args)
    density = packing_density(E, node_cap=args.node_cap)
    bound = mh_bound(E.rank) if E.rank >= 2 else 1.0
    verdict = ("meets the guaranteed existence bound" if density >= bound
               else "below the guaranteed existence bound")
    payload = {"kind": "density",
               "inputs": {"gram": args.gram, "rank": E.rank},
               "values": {"density": density, "mh_bound": bound},
               "verdict": verdict}
    _emit({"run_config": _run_config(args, gram=args.gram),
           "report": payload}, args.format)
    return EXIT_OK


def _cmd_search(args) -> int:
    field = make_field(args.field)
    if args.gram:
        E = _load_bundle(args)
        field = E.field
    else:
        from .bundle import trivial_bundle
        E = trivial_bundle(field, args.rank)
    spec = RandomLatticeSpec(n=args.n, p=args.p, seed=args.seed, field=field)
    if args.rate_trials:
        estimate = success_rate_experiment(E, args.n, args.slope,
                                           args.rate_trials, spec,
                                           node_cap=args.node_cap,
                                           allow_large=args.allow_large)
        _emit({"run_config": _run_config(args, n=args.n, slope=args.slope,
                                         p=args.p),
               "report": {"mean": estimate.mean,
                          "std_error": estimate.std_error,
                          "trials": estimate.trials,
                          "config": dict(estimate.config)}}, args.format)
        return EXIT_OK
    outcome = find_section_free(E, args.n, args.slope, args.max_trials, spec,
                                eps=args.eps, node_cap=args.node_cap,
                                allow_large=args.allow_large)
    payload = {
        "status": outcome.status,
        "attempts": outcome.attempts,
        "expected_count": outcome.expected_count,
        "witness_gram": (format_gram_file(outcome.witness)
                         if outcome.witness is not None else None),
        "certificate": (_section_report_payload(outcome.certificate)
                        if outcome.certificate is not None else None),
    }
    _emit({"run_config": _run_config(args, n=args.n, slope=args.slope,
                                     max_trials=args.max_trials, p=args.p),
           "report": payload}, args.format)
    return EXIT_OK if outcome.status == "found" else EXIT_NEGATIVE


# ------------------------------------------------------------- arg parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arakelov",
        description="Bundles over number rings: sections, zeta sums, "
                    "mean-value checks, existence bounds, searches.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value defaults file")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for stochastic runs")
    parser.add_argument("--node-cap", type=int, default=None,
                        help="enumeration node budget")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for trial loops")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default=None, help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="invariants of a base field")
    p.add_argument("--field", default=None)
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("bundle-info", help="degree and slope of a Gram file")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_bundle_info)

    p = sub.add_parser("sections", help="enumerate unit-ball sections")
    p.add_argument("--gram", required=True)
    p.add_argument("--radius", default=None,
                   help="count lattice points for these radii instead "
                        "(comma-separated, one per place, or one for all)")
    p.set_defaults(func=_cmd_sections)

    p = sub.add_parser("zeta", help="subbundle degree sums and shells")
    p.add_argument("--gram", required=True)
    p.add_argument("--mode", choices=("partial", "shells", "semistable"),
                   default="partial")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--cutoff", type=float, default=4.0)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("mvt-verify",
                       help="compare mean tuple counts with ball volumes")
    p.add_argument("--field", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--t", default="1", help="radii, comma-separated")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--z-max", type=float, default=None)
    p.set_defaults(func=_cmd_mvt_verify)

    p = sub.add_parser("bounds", help="thresholds and the averaged count")
    p.add_argument("--field", default=None)
    p.add_argument("--kind", choices=("thresholds", "theorem"),
                   default="thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--gram", default=None)
    p.add_argument("--rank", type=int, default=1,
                   help="rank of the trivial bundle when no Gram is given")
    p.add_argument("--det-degree", type=float, default=None)
    p.add_argument("--cutoff", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("density", help="sphere packing density of a Gram file")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("search", help="find a section-free twist")
    p.add_argument("--field", default=None)
    p.add_argument("--gram", default=None,
                   help="Gram file for the fixed factor (default trivial)")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--trials", dest="max_trials", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rate-trials", type=int, default=None,
                   help="run a success-rate experiment instead")
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_search)
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_FALLBACKS = {
    "seed": 0, "threads": 1, "format": "json", "node_cap": DEFAULT_NODE_CAP,
    "field": "Q", "trials": 2000, "p": DEFAULT_PRIME, "z_max": 3.0,
    "max_trials": 100, "eps": 0.05,
}


def _apply_config(args: argparse.Namespace, config: dict) -> None:
    """Fill unset options from the config file, then from hard defaults."""
    for dest, value in config.items():
        if dest not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {dest.replace('_', '-')!r}")
        if getattr(args, dest, None) is None:
            setattr(args, dest, _CONFIG_TYPES[dest](value))
    for dest, value in _FALLBACKS.items():
        if getattr(args, dest, None) is None and hasattr(args, dest):
            setattr(args, dest, value)
    if args.node_cap <= 0:
        raise ValueError(f"--node-cap must be positive, got {args.node_cap}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        config = _load_config_file(args.config) if args.config else {}
        _apply_config(args, config)
        return args.func(args)
    except GramFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationCapError, MonteCarloDiscardError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except ZetaDivergenceError as exc:
        print(f"divergent: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ArakelovError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
