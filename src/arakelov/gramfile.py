"""Text format for bundles.

Layout: line 1 holds the field descriptor, line 2 the rank, then one matrix
block per infinite place (real places first), one matrix row per line,
row-major.  Entries are decimals or rationals "p/q"; at complex places an
entry may carry an imaginary part, written like "3/2+1/4i" or "-0.5i".
Blank lines and lines starting with "#" are ignored.  Every parse problem
raises GramFileError carrying the offending line number.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bundle import ArakelovBundle, make_bundle
from .errors import ArakelovError, GramFileError
from .intlinalg import QSurd
from .numberfield import NumberField, make_field

__all__ = [
    "format_gram_file",
    "load_gram_file",
    "parse_gram_text",
]

_REAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)(/\d+)?$")


def _parse_real(token: str, lineno: int) -> Fraction:
    if not _REAL_RE.match(token):
        raise GramFileError(lineno, f"bad matrix entry {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise GramFileError(lineno, f"bad matrix entry {token!r}") from None


def _parse_complex(token: str, lineno: int) -> QSurd | Fraction:
    if not token.endswith("i"):
        return _parse_real(token, lineno)
    body = token[:-1]
    # split off the imaginary coefficient: the last top-level + or -
    cut = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/.eE":
            cut = k
            break
    if cut is None:
        re_part, im_part = "0", body or "1"
    else:
        re_part, im_part = body[:cut], body[cut:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    elif im_part.startswith("+"):
        im_part = im_part[1:]
    try:
        re_val = Fraction(re_part)
        im_val = Fraction(im_part)
    except (ValueError, ZeroDivisionError):
        raise GramFileError(lineno, f"bad matrix entry {token!r}") from None
    return QSurd(re_val, im_val, -1) if im_val else re_val


def parse_gram_text(text: str) -> ArakelovBundle:
    """Parse the bundle format from a string."""
    lines = [(k + 1, line.strip()) for k, line in enumerate(text.splitlines())]
    content = [(n, line) for n, line in lines
               if line and not line.startswith("#")]
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(content):
            last = lines[-1][0] if lines else 1
            raise GramFileError(last, f"unexpected end of file, wanted {what}")
        item = content[pos]
        pos += 1
        return item

    lineno, descriptor = take("a field descriptor")
    try:
        field = make_field(descriptor)
    except ArakelovError as exc:
        raise GramFileError(lineno, str(exc)) from None

    lineno, rank_text = take("the rank")
    if not rank_text.isdigit() or int(rank_text) < 1:
        raise GramFileError(lineno, f"bad rank {rank_text!r}")
    rank = int(rank_text)

    mats = []
    for place in range(field.real_places + field.complex_places):
        is_complex = place >= field.real_places
        rows = []
        for _ in range(rank):
            lineno, line = take("a matrix row")
            tokens = line.split()
            if len(tokens) != rank:
                raise GramFileError(
                    lineno, f"expected {rank} entries, got {len(tokens)}")
            if is_complex:
                rows.append([_parse_complex(t, lineno) for t in tokens])
            else:
                for t in tokens:
                    if t.endswith("i"):
                        raise GramFileError(
                            lineno, "complex entry at a real place")
                rows.append([_parse_real(t, lineno) for t in tokens])
        mats.append(rows)

    if pos != len(content):
        raise GramFileError(content[pos][0], "trailing content after matrices")
    try:
        return make_bundle(field, mats)
    except ArakelovError as exc:
        raise GramFileError(lines[-1][0] if lines else 1, str(exc)) from None


def load_gram_file(path) -> ArakelovBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram_text(fh.read())


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _format_complex(re_val: Fraction, im_val: Fraction) -> str:
    if im_val == 0:
        return _format_fraction(re_val)
    im = _format_fraction(abs(im_val))
    sign = "+" if im_val > 0 else "-"
    if re_val == 0:
        return f"{'-' if im_val < 0 else ''}{im}i"
    return f"{_format_fraction(re_val)}{sign}{im}i"


def format_gram_file(bundle: ArakelovBundle) -> str:
    out = [bundle.field.descriptor, str(bundle.rank)]
    for g in bundle.gram_real:
        out.extend(" ".join(_format_fraction(x) for x in row) for row in g)
    for re_m, im_m in bundle.gram_complex:
        out.extend(" ".join(_format_complex(a, b) for a, b in zip(ra, ri))
                   for ra, ri in zip(re_m, im_m))
    return "\n".join(out) + "\n"
