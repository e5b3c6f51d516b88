"""Text format for bundles.

Layout: line 1 holds the field descriptor, line 2 the rank, then one matrix
block per infinite place (real places first), one matrix row per line,
row-major.  Every entry is built from one number, an unsigned decimal
("2", "0.5", ".5", "5.") or rational "p/q": a real entry is a number with
an optional sign, and at complex places an entry may also be "[a]+-[b]i",
where the real part a and an imaginary coefficient b of 1 may be left out
("i", "-0.5i", "1+i", "3/2+1/4i").  Nothing else is an entry: no
exponents, underscores, mixed "1.5/2" or doubled signs.  Blank lines and
lines starting with "#" are ignored.  Every parse problem raises
GramFileError carrying the offending line number.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bundle import ArakelovBundle, make_bundle
from .errors import ArakelovError, GramFileError
from .intlinalg import QSurd
from .numberfield import make_field

__all__ = [
    "format_gram_file",
    "load_gram_file",
    "parse_gram_text",
]

# An unsigned decimal or rational p/q: the one number of every entry.
_NUMBER = r"(?:\d+/\d+|\d+(?:\.\d*)?|\.\d+)"
_REAL_RE = re.compile(rf"[+-]?{_NUMBER}")
# [a]+-[b]i, where the real part and an imaginary coefficient of 1 may be
# left out: "i", "-0.5i", "1+i", "3/2+1/4i".
_COMPLEX_RE = re.compile(
    rf"(?:(?P<re>[+-]?{_NUMBER})(?=[+-]))?(?P<sign>[+-]?)(?P<im>{_NUMBER})?i")


def _parse_entry(token: str, lineno: int) -> QSurd | Fraction:
    real = _REAL_RE.fullmatch(token)
    parts = None if real else _COMPLEX_RE.fullmatch(token)
    if not (real or parts):
        raise GramFileError(lineno, f"bad matrix entry {token!r}")
    try:
        if real:
            return Fraction(token)
        re_val = Fraction(parts["re"] or 0)
        im_val = Fraction(parts["sign"] + (parts["im"] or "1"))
    except ZeroDivisionError:
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
            if not is_complex and any(t.endswith("i") for t in tokens):
                raise GramFileError(lineno, "complex entry at a real place")
            rows.append([_parse_entry(t, lineno) for t in tokens])
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


def _format_complex(re_val: Fraction, im_val: Fraction) -> str:
    if im_val == 0:
        return str(re_val)
    if re_val == 0:
        return f"{im_val}i"
    return f"{re_val}{'+' if im_val > 0 else '-'}{abs(im_val)}i"


def format_gram_file(bundle: ArakelovBundle) -> str:
    out = [bundle.field.descriptor, str(bundle.rank)]
    for g in bundle.gram_real:
        out.extend(" ".join(str(x) for x in row) for row in g)
    for re_m, im_m in bundle.gram_complex:
        out.extend(" ".join(_format_complex(a, b) for a, b in zip(ra, ri))
                   for ra, ri in zip(re_m, im_m))
    return "\n".join(out) + "\n"
