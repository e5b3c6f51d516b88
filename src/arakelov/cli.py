"""Command-line interface: every module behind one binary.

Exit codes form a protocol for headless runs: 0 success or positive
verdict, 1 negative verdict (|z| too large, search exhausted or blocked,
existence not guaranteed), 2 usage errors including malformed Gram files,
3 indeterminate results (enumeration budget hit, truncated reports, too
many discarded trials).  Every report echoes its run configuration, with
the global settings only where the subcommand reads them, and identical
configurations produce identical bytes.  Subcommands hand the library's
values, its report dataclasses included, to ``_jsonable``, the one place a
value becomes JSON: floats to 12 significant digits, Fractions as "p/q",
field elements as "a+b*w", dataclasses by field.

The argument parser is the one table of options and defaults.  A
``--config`` file of ``key = value`` lines supplies defaults: any long
option that takes a value is a key, named by its destination and written
with dashes or underscores (``node-cap``, ``z_max``), and the value is
converted by the option's own type.
Flags beat the file, and the file beats the built-in defaults.  An unknown
key, the key of a flag that takes no value (``allow-large``) and a value
outside the option's choices exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bundle import (ArakelovBundle, degree, determinant, slope,
                     trivial_bundle)
from .bounds import (BoundReport, main_inequality, mh_bound, packing_density,
                     thresholds)
from .errors import (ArakelovError, EnumerationCapError, GramFileError,
                     MonteCarloDiscardError, ZetaDivergenceError)
from .gramfile import format_gram_file, load_gram_file
from .lattice import DEFAULT_NODE_CAP
from .mvt import mvt_compare
from .numberfield import QuadElement, make_field
from .sampler import DEFAULT_PRIME, RandomLatticeSpec
from .sections import (SectionReport, count_in_region, global_sections,
                       minkowski_guarantee)
from .search import CONVERSE_EPS, find_section_free, success_rate_experiment
from .zeta import (DEFAULT_CUTOFF, degree_shells, enumerate_subbundles,
                   semistability_verdict, zeta_partial)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _format_element(x: QuadElement) -> str:
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
    if isinstance(obj, QuadElement):
        return _format_element(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, report) -> None:
    """Print the report together with the run's configuration."""
    document = _jsonable({"run_config": _run_config(args), "report": report})
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in _text_lines(document, ""):
            print(line)


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _text_lines(obj[k], f"{prefix}{k}." if prefix else f"{k}.")
    else:
        yield f"{prefix[:-1]} = {json.dumps(obj)}"


# The global settings each subcommand reads, and the options of bounds that
# each kind leaves unread.
_SETTINGS_READ = {
    "field-info": (),
    "bundle-info": (),
    "sections": ("node_cap",),
    "zeta": ("node_cap",),
    "mvt-verify": ("seed", "node_cap", "threads"),
    "bounds": ("node_cap",),
    "density": ("node_cap",),
    "search": ("seed", "node_cap"),
}
_BOUNDS_UNREAD = {
    "thresholds": {"node_cap", "gram", "rank", "det_degree", "cutoff"},
    "theorem": {"l", "eps"},
}


def _run_config(args) -> dict:
    """Every parsed option of the run that took effect, and the subcommand
    under "subcommand"; what the subcommand or bounds' kind never reads is
    left out."""
    unread = {"seed", "node_cap", "threads"}.difference(
        _SETTINGS_READ[args.command])
    if args.command == "bounds":
        unread |= _BOUNDS_UNREAD[args.kind]
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "func") and k not in unread}
    cfg["subcommand"] = args.command
    return cfg


def _section_report_payload(report: SectionReport) -> dict:
    return {**_jsonable(report), "count": len(report.nonzero_sections)}


def _fixed_factor(args) -> ArakelovBundle | None:
    """E of search and bounds: the --gram file, which a --field or --rank
    set by flag or --config must match, or else the trivial bundle of rank
    --rank (default 1) over --field (default Q); None for bounds --kind
    thresholds.  args takes the field and rank in effect, for run_config."""
    thresholds_only = getattr(args, "kind", None) == "thresholds"
    if args.gram is None or thresholds_only:
        args.field = "Q" if args.field is None else args.field
        args.rank = 1 if args.rank is None else args.rank
        return None if thresholds_only else trivial_bundle(
            make_field(args.field), args.rank)
    E = load_gram_file(args.gram)
    if args.field is not None and make_field(args.field) != E.field:
        raise ValueError(f"--field {args.field} disagrees with "
                         f"{args.gram}, over {E.field.descriptor}")
    if args.rank is not None and args.rank != E.rank:
        raise ValueError(f"--rank {args.rank} disagrees with {args.gram}, "
                         f"of rank {E.rank}")
    args.field, args.rank = E.field.descriptor, E.rank
    return E


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
        "integral_basis": field.integral_basis(),
        "torsion_units": len(field.torsion_units()),
    }
    if field.real_places == 2:
        payload["fundamental_unit"] = field.fundamental_unit()
    _emit(args, payload)
    return EXIT_OK


def _cmd_bundle_info(args) -> int:
    E = load_gram_file(args.gram)
    payload = {
        "field": E.field.descriptor,
        "rank": E.rank,
        "degree": degree(E),
        "slope": slope(E),
        "determinant_degree": degree(determinant(E)),
        "minkowski_guarantee": minkowski_guarantee(E),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_sections(args) -> int:
    E = load_gram_file(args.gram)
    if args.radius is not None:
        radii = _parse_radii(args.radius)
        count = count_in_region(E, radii if len(radii) > 1 else radii[0],
                                node_cap=args.node_cap)
        _emit(args, {"count": count, "radius": [float(t) for t in radii]})
        return EXIT_OK
    report = global_sections(E, node_cap=args.node_cap)
    _emit(args, _section_report_payload(report))
    return EXIT_INDETERMINATE if report.truncated else EXIT_OK


def _cmd_zeta(args) -> int:
    E = load_gram_file(args.gram)
    if args.s is None:  # run_config echoes the s that took effect
        args.s = float(E.rank + 1)
    if args.mode == "semistable":
        verdict = semistability_verdict(E, args.node_cap)
        payload = {"status": verdict.status}
        if verdict.witness is not None:
            payload["witness"] = verdict.witness
        _emit(args, payload)
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
            _emit(args, {"shells": [[deg, mult] for deg, mult in shells]})
        return EXIT_OK
    _emit(args, zeta_partial(E, args.l, args.s, args.cutoff, args.node_cap))
    return EXIT_OK


def _cmd_mvt_verify(args) -> int:
    radii = _parse_radii(args.t)
    if len(radii) == 1 and args.l > 1:
        radii = radii * args.l
    field = make_field(args.field)
    spec = RandomLatticeSpec(n=args.n, p=args.p, seed=args.seed, field=field)
    comparison = mvt_compare(args.n, args.l, radii, args.trials, spec,
                             threads=args.threads, node_cap=args.node_cap)
    _emit(args, comparison)
    z = comparison.z_score
    ok = math.isfinite(z) and abs(z) <= args.z_max
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_bounds(args) -> int:
    E = _fixed_factor(args)
    if args.kind == "thresholds":
        _emit(args, thresholds(make_field(args.field), args.n, args.l,
                               args.eps))
        return EXIT_OK
    if args.det_degree is None:
        raise ValueError("--det-degree is required for --kind theorem")
    report = main_inequality(E, args.n, args.det_degree,
                             {"cutoff": args.cutoff, "node_cap": args.node_cap})
    _emit(args, report)
    if report.values["tail_uncertain"]:
        return EXIT_INDETERMINATE
    return (EXIT_OK if report.verdict.startswith("existence guaranteed")
            else EXIT_NEGATIVE)


def _cmd_density(args) -> int:
    E = load_gram_file(args.gram)
    density = packing_density(E, node_cap=args.node_cap)
    bound = mh_bound(E.rank) if E.rank >= 2 else 1.0
    verdict = ("meets the guaranteed existence bound" if density >= bound
               else "below the guaranteed existence bound")
    _emit(args, BoundReport(kind="density",
                            inputs={"gram": args.gram, "rank": E.rank},
                            values={"density": density, "mh_bound": bound},
                            verdict=verdict))
    return EXIT_OK


def _cmd_search(args) -> int:
    E = _fixed_factor(args)
    spec = RandomLatticeSpec(n=args.n, p=args.p, seed=args.seed,
                             field=E.field)
    if args.rate_trials is not None:
        estimate = success_rate_experiment(E, args.n, args.slope,
                                           args.rate_trials, spec,
                                           node_cap=args.node_cap,
                                           allow_large=args.allow_large)
        _emit(args, estimate)
        return EXIT_OK
    outcome = find_section_free(E, args.n, args.slope, args.trials, spec,
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
    _emit(args, payload)
    return EXIT_OK if outcome.status == "found" else EXIT_NEGATIVE


# ------------------------------------------------------------- arg parsing

def _positive(kind, name: str):
    """The argparse type of an option whose value, read by kind, must be
    above 0 and finite; the same check reads a --config value."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{name} must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it when kind refuses
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arakelov",
        description="Bundles over number rings: sections, zeta sums, "
                    "mean-value checks, existence bounds, searches.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        help="file of key = value defaults; a key is any long option that "
             "takes a value, with dashes or underscores; flags beat the "
             "file and the file beats the defaults; an unknown key, a flag "
             "key or a value outside the option's choices exits 2")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for stochastic runs")
    parser.add_argument("--node-cap", type=_positive(int, "--node-cap"),
                        default=DEFAULT_NODE_CAP,
                        help="enumeration node budget")
    parser.add_argument("--threads", type=_positive(int, "--threads"),
                        default=1,
                        help="worker processes for trial loops")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json",
                        help="output format (default json); csv is only "
                             "for zeta --mode shells")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="invariants of a base field")
    p.add_argument("--field", default="Q")
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
    p.add_argument("--s", type=float, default=None,
                   help="exponent (default rank + 1: every rank converges)")
    p.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("mvt-verify",
                       help="compare mean tuple counts with ball volumes")
    p.add_argument("--field", default="Q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--t", default="1", help="radii, comma-separated")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--p", type=int, default=DEFAULT_PRIME)
    p.add_argument("--z-max", type=_positive(float, "--z-max"),
                   default=3.0)
    p.set_defaults(func=_cmd_mvt_verify)

    p = sub.add_parser("bounds", help="thresholds and the averaged count")
    p.add_argument("--field", help="default the Gram file's, else Q")
    p.add_argument("--kind", choices=("thresholds", "theorem"),
                   default="thresholds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--gram", default=None)
    p.add_argument("--rank", type=int,
                   help="default the Gram file's, else 1")
    p.add_argument("--det-degree", type=float, default=None)
    p.add_argument("--cutoff", type=float, default=None,
                   help="theorem's window -T <= degree (default "
                        f"{DEFAULT_CUTOFF:g} below full rank; the full-rank "
                        "term is read whole)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("density", help="sphere packing density of a Gram file")
    p.add_argument("--gram", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("search", help="find a section-free twist")
    p.add_argument("--field", help="default the Gram file's, else Q")
    p.add_argument("--gram", default=None,
                   help="Gram file for the fixed factor (default trivial)")
    p.add_argument("--rank", type=int,
                   help="default the Gram file's, else 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--p", type=int, default=DEFAULT_PRIME)
    p.add_argument("--eps", type=float, default=CONVERSE_EPS)
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
            values[key.strip()] = value.strip()
    return values


def _apply_config(parser: argparse.ArgumentParser, config: dict) -> None:
    """Make each config value the default of every long option, in the
    parser or a subparser, whose dest is the key.  argparse converts a
    string default with the option's type, but does not check choices."""
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    for key, value in config.items():
        dest = key.replace("-", "_")
        targets = [(p, a) for p in parsers for a in p._actions
                   if a.dest == dest and a.option_strings
                   and dest != "config"]
        if not targets:
            raise ValueError(f"unknown config key {key!r}")
        for p, action in targets:
            if action.nargs == 0:
                raise ValueError(f"config key {key!r} names a flag, "
                                 f"which takes no value")
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config key {key!r}: {value!r} is not one "
                                 f"of {', '.join(action.choices)}")
            p.set_defaults(**{dest: value})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, _load_config_file(args.config))
            args = parser.parse_args(argv)
        if args.format == "csv" and not (
                args.command == "zeta" and args.mode == "shells"):
            raise ValueError("--format csv is only available for "
                             "zeta --mode shells")
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, --version, usage errors
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
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
