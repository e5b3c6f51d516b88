"""Text serialization of bundles, including line-numbered diagnostics."""

import random
from fractions import Fraction

import pytest

from arakelov.bundle import degree, make_bundle, trivial_bundle
from arakelov.errors import GramFileError
from arakelov.gramfile import (
    format_gram_file,
    load_gram_file,
    parse_gram_text,
)
from arakelov.intlinalg import QSurd
from arakelov.numberfield import make_field
from tests.oracles import random_pd_fraction_gram
from tests.test_bundle import random_bundle

FIELDS = ["Q", "Q(sqrt{-1})", "Q(sqrt{-3})", "Q(sqrt{2})", "Q(sqrt{5})"]


def test_parse_basic():
    E = parse_gram_text("Q\n2\n2 0\n0 1/2\n")
    assert E.field.descriptor == "Q"
    assert E.rank == 2
    assert E.gram_real[0] == ((Fraction(2), Fraction(0)),
                              (Fraction(0), Fraction(1, 2)))


def test_parse_skips_comments_and_blanks():
    text = """# a comment

    Q
    # rank next
    1

    7/3
    """
    E = parse_gram_text(text)
    assert E.gram_real[0] == ((Fraction(7, 3),),)


def test_parse_complex_entries():
    text = "Q(sqrt{-1})\n2\n2 1+1i\n1-1i 3\n"
    E = parse_gram_text(text)
    re_m, im_m = E.gram_complex[0]
    assert re_m == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
    assert im_m == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_parse_complex_token_shapes():
    text = "Q(sqrt{-1})\n2\n2 -0.5i\n0.5i 2\n"
    E = parse_gram_text(text)
    _, im_m = E.gram_complex[0]
    assert im_m[0][1] == Fraction(-1, 2)
    assert im_m[1][0] == Fraction(1, 2)
    text2 = "Q(sqrt{-1})\n2\n3 i\n-i 3\n"
    _, im2 = parse_gram_text(text2).gram_complex[0]
    assert im2[0][1] == 1 and im2[1][0] == -1
    text3 = "Q(sqrt{-1})\n2\n3 3/2+1/4i\n3/2-1/4i 3\n"
    re3, im3 = parse_gram_text(text3).gram_complex[0]
    assert re3[0][1] == Fraction(3, 2) and im3[0][1] == Fraction(1, 4)
    # rationals without power-of-two denominators stay exact
    text4 = "Q(sqrt{-1})\n2\n3 1/3+1/7i\n1/3-1/7i 3\n"
    re4, im4 = parse_gram_text(text4).gram_complex[0]
    assert re4[0][1] == Fraction(1, 3) and im4[0][1] == Fraction(1, 7)
    assert re4[1][0] == Fraction(1, 3) and im4[1][0] == Fraction(-1, 7)
    # every shape of the one grammar, with its conjugate below it
    for token, conjugate, value in [
            ("i", "-i", (0, 1)),
            ("-i", "i", (0, -1)),
            ("1+i", "1-i", (1, 1)),
            ("2i", "-2i", (0, 2)),
            ("+2i", "-2i", (0, 2)),
            (".5-.5i", ".5+.5i", (Fraction(1, 2), Fraction(-1, 2))),
            ("3/2+1/4i", "3/2-1/4i", (Fraction(3, 2), Fraction(1, 4))),
            ("5.+1.i", "5.-1.i", (5, 1))]:  # "5." is a number, as real
        re_m, im_m = parse_gram_text(
            f"Q(sqrt{{-1}})\n2\n9 {token}\n{conjugate} 9\n").gram_complex[0]
        assert (re_m[0][1], im_m[0][1]) == value
    # tokens outside it are refused, as "1e-3" is at a real place; each
    # row pair would be a valid Gram if the token were read as a number
    for token, conjugate in [("1e-3+2i", "1/1000-2i"), ("2e+5i", "-200000i"),
                             ("1_0+1i", "10-i"), ("+-1i", "i"),
                             ("1+-2i", "1+2i")]:
        text = f"Q(sqrt{{-1}})\n2\n1000000 {token}\n{conjugate} 1000000\n"
        with pytest.raises(GramFileError, match="bad matrix entry") as exc:
            parse_gram_text(text)
        assert exc.value.line == 3


def test_two_place_field_needs_two_blocks():
    text = "Q(sqrt{2})\n1\n2\n3\n"
    E = parse_gram_text(text)
    assert E.gram_real[0] == ((Fraction(2),),)
    assert E.gram_real[1] == ((Fraction(3),),)


@pytest.mark.parametrize("text, bad_line", [
    ("Q(i)\n1\n1\n", 1),              # bad descriptor
    ("Q\n0\n\n", 2),                  # bad rank
    ("Q\nx\n1\n", 2),                 # non-numeric rank
    ("Q\n2\n1 0\n0 one\n", 4),        # bad entry
    ("Q\n2\n1 0 0\n0 1\n", 3),        # wrong row width
    ("Q\n2\n1 2i\n0 1\n", 3),         # complex entry at a real place
    ("Q\n1\n1\nextra\n", 4),          # trailing content
    ("# only\nQ\n2\n1 0\n", 4),       # truncated matrix
    ("Q\n1\n1/0\n", 3),               # zero denominator
])
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(GramFileError) as exc:
        parse_gram_text(text)
    assert exc.value.line == bad_line


def test_invalid_metric_reported_as_gram_error():
    with pytest.raises(GramFileError):
        parse_gram_text("Q\n2\n1 2\n2 1\n")  # not positive definite


def test_round_trip_exact():
    rng = random.Random(61)
    for name in FIELDS:
        K = make_field(name)
        for _ in range(5):
            E = random_bundle(rng, K, rng.randint(1, 3))
            F = parse_gram_text(format_gram_file(E))
            assert F.field == E.field
            assert F.rank == E.rank
            assert F.gram_real == E.gram_real
            assert F.gram_complex == E.gram_complex
            assert degree(F) == degree(E)


@pytest.mark.parametrize("descriptor", ["Q(sqrt{-1})", "Q(sqrt{-3})"])
def test_round_trip_gaussian_rational_hermitian(descriptor):
    # entries whose denominators are not powers of two survive exactly
    def z(re, im):
        return QSurd(Fraction(re), Fraction(im), -1)

    K = make_field(descriptor)
    H = [[z(2, 0), z("1/3", "1/7"), z("-2/5", "3/11")],
         [z("1/3", "-1/7"), z("5/3", 0), z("1/9", "-1/6")],
         [z("-2/5", "-3/11"), z("1/9", "1/6"), z("7/5", 0)]]
    E = make_bundle(K, H)
    assert E.gram_complex[0][1][0][1] == Fraction(1, 7)
    F = parse_gram_text(format_gram_file(E))
    assert F.gram_complex == E.gram_complex
    assert degree(F) == degree(E)


def test_file_round_trip(tmp_path):
    E = make_bundle(make_field("Q"), random_pd_fraction_gram(random.Random(3), 3))
    path = tmp_path / "bundle.gram"
    path.write_text(format_gram_file(E), encoding="utf-8")
    F = load_gram_file(path)
    assert F.gram_real == E.gram_real


def test_format_is_reparseable_text():
    E = trivial_bundle(make_field("Q(sqrt{-3})"), 2)
    text = format_gram_file(E)
    assert text.splitlines()[0] == "Q(sqrt{-3})"
    assert parse_gram_text(text).rank == 2
