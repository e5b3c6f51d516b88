"""Command line driver: exit protocol, payload shapes, reproducibility."""

import importlib.resources
import json
import math

import jsonschema
import pytest

from arakelov import cli
from arakelov.cli import main
from arakelov.gramfile import parse_gram_text
from arakelov.lattice import DEFAULT_NODE_CAP
from tests.oracles import E8_DENSITY, e8_gram


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def validate(payload, schema_name):
    root = importlib.resources.files("arakelov") / "schemas" / schema_name
    jsonschema.validate(payload, json.loads(root.read_text()))


@pytest.fixture
def identity2(tmp_path):
    path = tmp_path / "o2.gram"
    path.write_text("Q\n2\n1 0\n0 1\n")
    return str(path)


@pytest.fixture
def e8(tmp_path):
    path = tmp_path / "e8.gram"
    rows = "\n".join(" ".join(str(x) for x in row) for row in e8_gram())
    path.write_text(f"Q\n8\n{rows}\n")
    return str(path)


def test_field_info(capsys):
    code, doc = run_json(capsys, "field-info", "--field", "Q(sqrt{-3})")
    assert code == 0
    report = doc["report"]
    assert report["degree"] == 2
    assert report["discriminant"] == 3
    assert report["torsion_units"] == 6
    cfg = doc["run_config"]
    assert cfg["subcommand"] == "field-info"
    # field-info reads no global setting, so none is echoed
    assert not {"seed", "node_cap", "threads"} & set(cfg)


def test_field_info_real_quadratic_has_unit(capsys):
    code, doc = run_json(capsys, "field-info", "--field", "Q(sqrt{5})")
    assert code == 0
    assert "fundamental_unit" in doc["report"]


def test_bundle_info(capsys, tmp_path):
    path = tmp_path / "b.gram"
    path.write_text("Q\n1\n4\n")
    code, doc = run_json(capsys, "bundle-info", "--gram", str(path))
    assert code == 0
    assert doc["report"]["degree"] == pytest.approx(-math.log(2.0), abs=1e-9)
    assert doc["report"]["minkowski_guarantee"] is False


def test_sections_e8(capsys, e8):
    code, doc = run_json(capsys, "sections", "--gram", e8)
    assert code == 0
    report = doc["report"]
    assert report["count"] == 0
    assert report["nonzero_sections"] == []
    assert report["truncated"] is False
    validate(doc, "section_report.schema.json")


# U = L R for unipotent L, R with entries near 1e3; the Gram file holds
# U U^T, a skewed copy of Z^3 whose sections are +-e_i U^-1
SKEWED_U = [[1, 913, -358], [-817, -745920, 293257], [402, 366371, -648920]]


@pytest.fixture
def skewed(tmp_path):
    path = tmp_path / "skewed.gram"
    rows = "\n".join(" ".join(str(sum(a * b for a, b in zip(u, v)))
                               for v in SKEWED_U) for u in SKEWED_U)
    path.write_text(f"Q\n3\n{rows}\n")
    return str(path)


def test_sections_skewed_gram(capsys, skewed):
    code, doc = run_json(capsys, "sections", "--gram", skewed)
    assert code == 0
    report = doc["report"]
    assert report["count"] == 6 and report["truncated"] is False
    images = sorted(tuple(sum(int(x) * u[j] for x, u in zip(vec, SKEWED_U))
                          for j in range(3))
                    for vec in report["nonzero_sections"])
    assert images == sorted(tuple(s * (i == j) for j in range(3))
                            for i in range(3) for s in (1, -1))
    validate(doc, "section_report.schema.json")


def test_zeta_lines_of_skewed_gram(capsys, skewed):
    # the three lines +-e_i of Z^3, each of degree 0, and nothing else
    # above degree -log(2)/2
    code, doc = run_json(capsys, "zeta", "--gram", skewed, "--l", "1",
                         "--cutoff", "0.3")
    assert code == 0
    assert doc["report"]["terms"] == 3
    assert doc["report"]["partial_sum"] == 3.0
    code, doc = run_json(capsys, "zeta", "--gram", skewed, "--l", "1",
                         "--mode", "shells", "--cutoff", "0.3")
    assert code == 0
    assert doc["report"]["shells"] == [[0.0, 3]]


def test_sections_radius_count(capsys, e8):
    code, doc = run_json(capsys, "sections", "--gram", e8,
                         "--radius", "3/2")
    assert code == 0
    assert doc["report"]["count"] == 240
    assert doc["report"]["radius"] == [1.5]
    validate(doc, "section_report.schema.json")


def test_sections_truncation_is_indeterminate(capsys, tmp_path):
    path = tmp_path / "tiny.gram"
    path.write_text("Q\n1\n1/100000000\n")
    code, doc = run_json(capsys, "--node-cap", "50",
                         "sections", "--gram", str(path))
    assert code == 3
    assert doc["report"]["truncated"] is True
    assert doc["run_config"]["node_cap"] == 50
    validate(doc, "section_report.schema.json")


def test_zeta_partial(capsys, identity2):
    code, doc = run_json(capsys, "zeta", "--gram", identity2,
                         "--l", "1", "--s", "6",
                         "--cutoff", str(math.log(2.0)))
    assert code == 0
    assert doc["report"]["partial_sum"] == pytest.approx(2.25, abs=1e-9)
    assert doc["report"]["terms"] == 4
    assert doc["run_config"]["node_cap"] == DEFAULT_NODE_CAP
    validate(doc, "zeta_partial.schema.json")
    code, doc = run_json(capsys, "--node-cap", "1000", "zeta", "--gram",
                         identity2, "--l", "1", "--s", "6",
                         "--cutoff", str(math.log(2.0)))
    assert code == 0
    assert doc["run_config"]["node_cap"] == 1000
    validate(doc, "zeta_partial.schema.json")


def test_zeta_shells_csv(capsys, identity2):
    code, out, err = run_cli(capsys, "--format", "csv",
                             "zeta", "--gram", identity2,
                             "--mode", "shells", "--cutoff", "0.7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,multiplicity"
    assert lines[1] == "0,2"  # the two unit lines
    assert len(lines) == 3


def test_zeta_semistable(capsys, identity2, tmp_path):
    code, doc = run_json(capsys, "zeta", "--gram", identity2,
                         "--mode", "semistable")
    assert code == 0
    assert doc["report"]["status"] == "semistable_up_to_budget"
    unstable = tmp_path / "u.gram"
    unstable.write_text("Q\n2\n1/4 0\n0 4\n")
    code, doc = run_json(capsys, "zeta", "--gram", str(unstable),
                         "--mode", "semistable")
    assert code == 0
    assert doc["report"]["status"] == "unstable"
    assert doc["report"]["witness"]["degree"] == pytest.approx(
        math.log(2.0), abs=1e-9)
    gaussian = tmp_path / "g.gram"
    gaussian.write_text("Q(sqrt{-1})\n3\n1 0 0\n0 1 0\n0 0 1\n")
    code, doc = run_json(capsys, "zeta", "--gram", str(gaussian),
                         "--mode", "semistable")
    assert code == 3
    assert doc["report"]["status"] == "inconclusive"


def test_field_elements_print_as_a_plus_b_w(capsys, tmp_path):
    # the expected reports were printed before field elements and
    # dataclasses reached text through one serializer; they pin it
    eisenstein = tmp_path / "eisenstein.gram"
    eisenstein.write_text("Q(sqrt{-3})\n1\n1\n")  # the six units
    code, doc = run_json(capsys, "sections", "--gram", str(eisenstein))
    assert code == 0
    assert doc["report"] == {
        "certificate": 2.0, "count": 6, "nodes_visited": 7,
        "nonzero_sections": [["-1+w"], ["1-w"], ["w"], ["-w"], ["1"], ["-1"]],
        "truncated": False}
    validate(doc, "section_report.schema.json")
    # U* diag(1/9, 9) U for U = [[1, 0], [w, 1]] over Z[w], w = sqrt(-1):
    # the destabilizing line is spanned by U^-1 e1 = (1, -w) ~ (w, 1)
    gaussian = tmp_path / "gaussian.gram"
    gaussian.write_text("Q(sqrt{-1})\n2\n82/9 -9i\n9i 9\n")
    code, doc = run_json(capsys, "zeta", "--gram", str(gaussian),
                         "--mode", "semistable")
    assert code == 0
    assert doc["report"] == {
        "status": "unstable",
        "witness": {"basis": [["w", "1"]], "degree": 2.19722457734,
                    "rank": 1}}
    code, out, err = run_cli(capsys, "--format", "text", "zeta", "--gram",
                             str(gaussian), "--mode", "semistable")
    assert code == 0 and err == ""
    assert [line for line in out.splitlines()
            if line.startswith("report.")] == [
        'report.status = "unstable"',
        'report.witness.basis = [["w", "1"]]',
        'report.witness.degree = 2.19722457734',
        'report.witness.rank = 1']
    code, doc = run_json(capsys, "field-info", "--field", "Q(sqrt{7})")
    assert code == 0
    assert doc["report"]["integral_basis"] == ["1", "w"]
    assert doc["report"]["fundamental_unit"] == "8+3*w"


def test_zeta_s_defaults_to_rank_plus_one(capsys, identity2):
    # rank + 1 is the least integer s at which the sums of every rank
    # converge; run_config echoes the s that took effect
    code, doc = run_json(capsys, "zeta", "--gram", identity2, "--cutoff", "1")
    assert code == 0
    assert doc["run_config"]["s"] == 3.0
    assert doc["report"]["s"] == 3.0
    assert doc["report"]["tail_bound"] == "inf"
    validate(doc, "zeta_partial.schema.json")
    code, doc = run_json(capsys, "zeta", "--gram", identity2, "--l", "2")
    assert code == 0
    assert doc["report"]["tail_bound"] == 0.0


def test_zeta_divergence_exit(capsys, identity2):
    code, out, err = run_cli(capsys, "zeta", "--gram", identity2,
                             "--s", "0.5", "--cutoff", "4")
    assert code == 1
    assert err.startswith("divergent:")


def test_mvt_verify(capsys):
    args = ["--seed", "5", "mvt-verify", "--n", "3", "--trials", "60",
            "--p", "1009", "--z-max", "1000000"]
    code, doc = run_json(capsys, *args)
    assert code == 0
    report = doc["report"]
    assert report["lhs"]["trials"] == 60
    assert report["lhs"]["config"]["p"] == 1009
    assert report["rhs"] == pytest.approx(4.18879020479, abs=1e-9)
    assert math.isfinite(report["z_score"])
    assert doc["run_config"]["field"] == "Q"
    assert doc["run_config"]["n"] == 3
    validate(doc, "mvt_comparison.schema.json")
    # exit 1 when the same data fails a tight tolerance
    code2, doc2 = run_json(capsys, *args[:-1], "0.000001")
    assert code2 == 1
    assert doc2["report"]["z_score"] == report["z_score"]


def test_bounds_thresholds(capsys):
    code, doc = run_json(capsys, "bounds", "--kind", "thresholds",
                         "--n", "8", "--l", "1")
    assert code == 0
    assert doc["report"]["values"]["corollary"] == pytest.approx(
        -0.379217762365, abs=1e-9)
    assert doc["report"]["kind"] == "thresholds"
    validate(doc, "bound_report.schema.json")


def test_bounds_theorem_exits(capsys):
    base = ["bounds", "--kind", "theorem", "--n", "8"]
    code, doc = run_json(capsys, *base, "--det-degree", "-2")
    assert code == 0
    assert doc["report"]["verdict"] == "existence guaranteed"
    assert doc["run_config"]["node_cap"] == DEFAULT_NODE_CAP
    assert doc["run_config"]["n"] == 8
    assert doc["run_config"]["det_degree"] == -2.0
    validate(doc, "bound_report.schema.json")
    code, doc = run_json(capsys, "--node-cap", "5000", *base,
                         "--det-degree", "5")
    assert code == 1
    assert doc["report"]["verdict"] == "not guaranteed"
    assert doc["run_config"]["node_cap"] == 5000


def test_bounds_theorem_one_shell_is_not_a_certificate(capsys):
    # the lines of O^2 have no tail bound: at cutoff 0.5 the value 0.95 is
    # below 1, but the count passes 1 at larger cutoffs, so the run must
    # not certify existence; with no cutoff the lines are read at T = 4,
    # one window, and the run returns at once, uncertain as well
    base = ["bounds", "--kind", "theorem", "--field", "Q", "--rank", "2",
            "--n", "3"]
    for args in (("--det-degree", "-1.696542", "--cutoff", "0.5"),
                 ("--det-degree", "-3")):
        code, doc = run_json(capsys, *base, *args)
        assert code == 3
        assert doc["report"]["values"]["tail_uncertain"] is True
        assert doc["report"]["values"]["value"] < 1.0
        assert doc["report"]["verdict"] == "indeterminate (tail uncertain)"
        validate(doc, "bound_report.schema.json")


@pytest.mark.parametrize("argv, named", [
    (("bounds", "--kind", "theorem", "--field", "Q", "--rank", "1", "--n",
      "4", "--det-degree", "nan", "--cutoff", "2"), "det_degree must be"),
    (("bounds", "--kind", "theorem", "--field", "Q", "--rank", "1", "--n",
      "4", "--det-degree=-inf", "--cutoff", "2"), "det_degree must be"),
    (("zeta", "--gram", "GRAM", "--s", "nan", "--cutoff", "1"),
     "s must be finite"),
    (("search", "--n", "5", "--slope", "0.5", "--eps", "nan", "--trials",
      "24"), "eps must be finite"),
    (("search", "--n", "5", "--slope", "-0.3", "--trials", "24",
      "--eps=-100"), "eps must be finite and at least 0"),
    (("bounds", "--n", "3", "--eps=-100"), "eps must be finite and at least 0"),
    (("mvt-verify", "--n", "3", "--trials", "40", "--z-max", "nan"),
     "--z-max must be positive and finite"),
    (("mvt-verify", "--n", "3", "--trials", "40", "--z-max", "inf"),
     "--z-max must be positive and finite"),
    (("mvt-verify", "--n", "3", "--trials", "40", "--z-max=-1"),
     "--z-max must be positive and finite"),
    (("--threads", "0", "mvt-verify", "--n", "3", "--trials", "40"),
     "--threads must be positive"),
    (("--threads=-2", "mvt-verify", "--n", "3", "--trials", "40"),
     "--threads must be positive"),
])
def test_non_finite_inputs_are_usage_errors(capsys, identity2, argv, named):
    # a nan det_degree would print "existence guaranteed", and a nan eps
    # would let the search run to exhaustion; a negative eps read a
    # findable search as blocked by the converse, a nan --z-max failed
    # every mean-value check and inf passed it, and a thread count below 1
    # ran serially while run_config echoed it
    argv = [identity2 if a == "GRAM" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err


@pytest.mark.parametrize("key, value", [("z-max", "nan"), ("z_max", "-3"),
                                        ("threads", "0")])
def test_config_values_go_through_the_option_types(capsys, tmp_path, key,
                                                   value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "mvt-verify",
                             "--n", "3", "--trials", "40")
    assert code == 2 and out == ""
    assert "must be" in err


def test_bounds_theorem_omitted_full_rank_term(capsys, tmp_path):
    # E of degree -5: below the cutoff 4.5 its one full-rank term is
    # omitted, which must not read as a zero sum
    path = tmp_path / "e10.gram"
    path.write_text("Q\n1\n22026.465794806718\n")
    base = ["bounds", "--kind", "theorem", "--gram", str(path), "--n", "4",
            "--det-degree", "30"]
    code, doc = run_json(capsys, *base)
    assert code == 1
    assert doc["report"]["verdict"] == "not guaranteed"
    assert doc["report"]["values"]["value"] == pytest.approx(50214.32,
                                                             rel=1e-6)
    code, doc = run_json(capsys, *base, "--cutoff", "4.5")
    assert code == 3
    assert doc["report"]["verdict"] == "indeterminate (tail uncertain)"
    validate(doc, "bound_report.schema.json")


def test_density(capsys, e8):
    code, doc = run_json(capsys, "density", "--gram", e8)
    assert code == 0
    assert doc["report"]["values"]["density"] == pytest.approx(E8_DENSITY,
                                                               abs=1e-9)
    assert doc["report"]["verdict"] == "meets the guaranteed existence bound"
    validate(doc, "bound_report.schema.json")


def test_search_found_and_witness_reparses(capsys):
    code, doc = run_json(capsys, "--seed", "7", "search", "--n", "4",
                         "--slope", "-2", "--trials", "5")
    assert code == 0
    report = doc["report"]
    assert report["status"] == "found"
    assert report["certificate"]["count"] == 0
    witness = parse_gram_text(report["witness_gram"])
    assert witness.rank == 4
    validate(doc, "search_outcome.schema.json")


def test_search_blocked_exit(capsys):
    code, doc = run_json(capsys, "--seed", "3", "search", "--n", "8",
                         "--slope", "1.0", "--trials", "5")
    assert code == 1
    assert doc["report"]["status"] == "blocked_by_converse"
    validate(doc, "search_outcome.schema.json")


def test_search_rate_experiment(capsys):
    code, doc = run_json(capsys, "--seed", "2", "search", "--n", "4",
                         "--slope", "-2", "--rate-trials", "40")
    assert code == 0
    assert doc["report"]["mean"] == 1.0
    validate(doc, "search_outcome.schema.json")


def test_usage_errors(capsys, tmp_path, monkeypatch, identity2):
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 2
    code, out, err = run_cli(capsys, "sections")  # missing --gram
    assert code == 2
    bad = tmp_path / "bad.gram"
    bad.write_text("Q\n2\n1 0\n0 x\n")
    code, out, err = run_cli(capsys, "sections", "--gram", str(bad))
    assert code == 2
    assert "line 4" in err
    for cap in ("0", "-5"):
        code, out, err = run_cli(capsys, "--node-cap", cap, "field-info")
        assert code == 2 and out == ""
        assert "--node-cap must be positive" in err
    # a zeta search bound beyond the float range
    code, out, err = run_cli(capsys, "zeta", "--gram", identity2,
                             "--l", "1", "--s", "6", "--cutoff", "400")
    assert code == 2 and out == ""
    assert "not a finite float" in err
    # a zeta term exp(s * degree) beyond the float range
    skinny = tmp_path / "skinny.gram"
    skinny.write_text("Q\n2\n1/10000 0\n0 1\n")
    code, out, err = run_cli(capsys, "zeta", "--gram", str(skinny),
                             "--l", "1", "--s", "200", "--cutoff", "1")
    assert code == 2 and out == ""
    assert "s = 200, degree = 4.60517" in err
    # Gram entries whose enumeration scale or radius has no float
    for entry in ("1/1" + "0" * 400, "1" + "0" * 400):
        huge = tmp_path / "huge.gram"
        huge.write_text(f"Q\n1\n{entry}\n")
        code, out, err = run_cli(capsys, "sections", "--gram", str(huge))
        assert code == 2 and out == ""
        assert "outside the float range" in err
    # exp factors and radii beyond the float range, refused up front
    for argv, named in [
            (("bounds", "--kind", "theorem", "--n", "3",
              "--det-degree", "1000"), "det_degree = 1000"),
            (("search", "--n", "3", "--slope", "300"), "det_degree = 900"),
            (("search", "--n", "3", "--slope", "-1000"), "slope -1000"),
            (("sections", "--gram", identity2, "--radius", "1e160"),
             "radius 1e+160")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert named in err and "not a" in err and "finite float" in err
    # trial counts that no search or success-rate experiment can run
    for argv, named in [(("--trials", "-3"), "at least 1 trial"),
                        (("--trials", "0"), "at least 1 trial"),
                        (("--rate-trials", "0"), "at least 30 trials")]:
        code, out, err = run_cli(capsys, "search", "--field", "Q", "--n",
                                 "5", "--slope", "-0.2", *argv)
        assert code == 2 and out == "", argv
        assert named in err
    # csv is refused before any work is done

    def never(*args, **kwargs):
        raise AssertionError("mvt_compare ran")

    monkeypatch.setattr(cli, "mvt_compare", never)
    code, out, err = run_cli(capsys, "--format", "csv", "mvt-verify",
                             "--n", "4", "--trials", "60", "--p", "100003")
    assert code == 2 and out == ""
    assert "csv" in err


@pytest.mark.parametrize("argv, echoed", [
    (["field-info"], set()),
    (["bounds", "--kind", "thresholds", "--n", "8"], set()),
    (["bounds", "--kind", "theorem", "--n", "8", "--det-degree", "-2"],
     {"node_cap"}),
    (["zeta", "--gram", "GRAM", "--cutoff", "0.7"], {"node_cap"}),
    (["sections", "--gram", "GRAM"], {"node_cap"}),
    (["density", "--gram", "GRAM"], {"node_cap"}),
    (["bundle-info", "--gram", "GRAM"], set()),
    (["search", "--n", "4", "--slope", "-2", "--trials", "2"],
     {"seed", "node_cap"}),
    (["mvt-verify", "--n", "3", "--trials", "30", "--z-max", "1e6"],
     {"seed", "node_cap", "threads"}),
])
def test_run_config_echoes_only_settings_read(capsys, identity2, argv,
                                              echoed):
    argv = [identity2 if a == "GRAM" else a for a in argv]
    code, doc = run_json(capsys, *argv)
    assert code in (0, 1)
    cfg = doc["run_config"]
    assert {"seed", "node_cap", "threads"} & set(cfg) == echoed
    assert cfg["subcommand"] == argv[0] and cfg["format"] == "json"


@pytest.mark.parametrize("argv, echoed", [
    (["bounds", "--kind", "thresholds", "--n", "8", "--det-degree", "3",
      "--cutoff", "2", "--rank", "3", "--gram", "GRAM"],
     {"field", "kind", "n", "l", "eps"}),
    (["bounds", "--kind", "theorem", "--n", "8", "--det-degree", "-2",
      "--cutoff", "2", "--l", "2", "--eps", "0.5"],
     {"field", "kind", "n", "gram", "rank", "det_degree", "cutoff",
      "node_cap"}),
])
def test_bounds_echoes_only_the_options_its_kind_reads(capsys, identity2,
                                                       argv, echoed):
    # thresholds read the field, n, l and eps; the theorem reads its fixed
    # factor, det_degree, cutoff and node_cap, and neither l nor eps
    argv = [identity2 if a == "GRAM" else a for a in argv]
    code, doc = run_json(capsys, *argv)
    assert code in (0, 1, 3)
    assert set(doc["run_config"]) == echoed | {"subcommand", "format",
                                                "config"}
    validate(doc, "bound_report.schema.json")


def test_gram_file_sets_field_and_rank(capsys, tmp_path, identity2):
    # with --gram, search and bounds --kind theorem run over the file's
    # field and rank, and run_config echoes those; a --field or --rank set
    # by a flag or by --config must agree with the file, or exit 2
    line = tmp_path / "line.gram"
    line.write_text("Q\n1\n1\n")
    search = ["search", "--gram", str(line), "--n", "4", "--slope", "-2",
              "--trials", "2"]
    theorem = ["bounds", "--kind", "theorem", "--gram", identity2, "--n",
               "4", "--det-degree", "-2", "--cutoff", "1"]
    for argv, field, rank in ((search, "Q", 1), (theorem, "Q", 2)):
        code, doc = run_json(capsys, *argv)
        assert code in (0, 1, 3)
        assert (doc["run_config"]["field"], doc["run_config"]["rank"]) == (
            field, rank)
        code, agreed = run_json(capsys, *argv, "--field", field, "--rank",
                                str(rank))
        assert agreed == doc
    for argv, named in [
            ((*search, "--field", "Q(sqrt{-1})"), "--field Q(sqrt{-1})"),
            ((*search, "--rank", "2"), "--rank 2"),
            ((*theorem, "--field", "Q(sqrt{5})"), "--field Q(sqrt{5})"),
            ((*theorem, "--rank", "1"), "--rank 1")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert named in err and "disagrees" in err
    cfg = tmp_path / "run.cfg"
    for key, value in (("field", "Q(sqrt{-3})"), ("rank", "3")):
        cfg.write_text(f"{key} = {value}\n")
        for argv in (search, theorem):
            code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
            assert code == 2 and out == "", (key, argv)
            assert f"--{key} {value} disagrees" in err
    # without a file they still default to Q and 1, and are echoed as given
    code, doc = run_json(capsys, "bounds", "--kind", "theorem", "--n", "8",
                         "--det-degree", "-2")
    assert (doc["run_config"]["field"], doc["run_config"]["rank"]) == ("Q", 1)
    code, doc = run_json(capsys, "search", "--field", "Q(sqrt{-1})", "--n",
                         "4", "--slope", "-2", "--trials", "2")
    assert (doc["run_config"]["field"], doc["run_config"]["rank"]) == (
        "Q(sqrt{-1})", 1)


def test_config_file_fills_defaults(capsys, tmp_path, identity2):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\np = 101\ntrials = 40\nz-max = 1000000\n")
    code, doc = run_json(capsys, "--config", str(cfg),
                         "mvt-verify", "--n", "3")
    assert code == 0
    assert doc["run_config"]["seed"] == 9
    assert doc["report"]["lhs"]["config"]["p"] == 101
    # explicit flags beat the file
    code, doc = run_json(capsys, "--config", str(cfg), "--seed", "4",
                         "mvt-verify", "--n", "3")
    assert doc["run_config"]["seed"] == 4
    # keys that argparse defaults used to shadow take effect
    cfg.write_text("mode = shells\ncutoff = 0.7\n")
    code, doc = run_json(capsys, "--config", str(cfg),
                         "zeta", "--gram", identity2)
    assert code == 0
    code, flags = run_json(capsys, "zeta", "--gram", identity2,
                           "--mode", "shells", "--cutoff", "0.7")
    assert doc["report"] == flags["report"]
    assert doc["run_config"]["cutoff"] == 0.7
    cfg.write_text("l = 2\n")
    code, doc = run_json(capsys, "--config", str(cfg),
                         "bounds", "--kind", "thresholds", "--n", "8")
    assert code == 0
    assert doc["report"]["inputs"]["l"] == 2
    assert doc["run_config"]["l"] == 2
    # search's --trials is the key trials, as mvt-verify's is
    cfg.write_text("trials = 2\n")
    code, doc = run_json(capsys, "--config", str(cfg),
                         "search", "--n", "5", "--slope", "0.0")
    assert code == 1
    assert doc["run_config"]["trials"] == 2
    assert doc["report"]["status"] == "exhausted"
    assert doc["report"]["attempts"] == 2


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    # no option, a flag that takes no value, a value outside the choices
    for key, value in (("mystery", "1"), ("min_degree", "5"),
                       ("mode", "sideways"), ("allow-large", "true")):
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "field-info")
        assert code == 2 and out == ""
        assert key in err


def test_output_is_byte_stable(capsys):
    argv = ["--seed", "123", "search", "--n", "4", "--slope", "-1.2",
            "--trials", "10"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_twelve_digit_rounding(capsys, tmp_path):
    path = tmp_path / "three.gram"
    path.write_text("Q\n1\n3\n")
    code, doc = run_json(capsys, "bundle-info", "--gram", str(path))
    assert doc["report"]["degree"] == float(f"{-0.5 * math.log(3.0):.12g}")


def test_text_format(capsys):
    code, out, err = run_cli(capsys, "--format", "text",
                             "field-info", "--field", "Q")
    assert code == 0
    assert "report.degree = 1" in out
