"""Command-line surface: addressing, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conicfree
from conicfree.cli import main
from conicfree import report
from conicfree.corpus import corpus_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_corpus_entry(capsys):
    code, out, _ = run_cli(capsys, "analyze", "corpus:celal_three_conics", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mdr"]["d1"] == 2
    assert doc["tjurina"]["stabilized"] == 19
    assert doc["freeness"]["verdict"] == "free"
    assert doc["freeness"]["nu"] == 0
    assert doc["checks"]["bezout_count"] is True


def test_a_corpus_arrangement_is_expanded_once(monkeypatch, capsys):
    """A corpus entry with components takes its curve from the arrangement's
    memoised product, which analyze_curve reads again, and the entry's own
    expansion is never run."""
    from conicfree import cli
    from conicfree.corpus import CorpusEntry

    def refuse(self):
        raise AssertionError("the corpus entry was expanded a second time")

    monkeypatch.setattr(CorpusEntry, "polynomial", refuse)
    resolved = cli._resolve_input("corpus:celal_three_conics")
    assert resolved.f is resolved.arrangement.polynomial()
    code, out, _ = run_cli(capsys, "analyze", "corpus:celal_three_conics", "--json")
    assert code == 0 and json.loads(out)["tjurina"]["stabilized"] == 19


def test_analyze_json_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "corpus:two_conics_a7_e1", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "corpus:two_conics_a7_e1", "--json")
    assert out1 == out2


def test_analyze_report_has_no_floats(capsys):
    _, out, _ = run_cli(capsys, "analyze", "corpus:two_conics_a7_e1", "--json")

    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True

    assert no_floats(json.loads(out))


def test_analyze_smooth_conic_is_nearly_free(capsys):
    """No relation below d-1 = 1: d1 = 1 from a Koszul relation, tau = 0,
    nu = 1, a verdict and exit 0."""
    code, out, _ = run_cli(capsys, "analyze", "x^2+y^2-z^2")
    assert code == 0
    assert "tau = 0" in out and "smooth" in out
    assert "d1 = 1" in out and "verdict = nearly_free" in out


def test_analyze_nonreduced_input_unstable_window(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^2*y", "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["tjurina"]["unstable"] is True
    assert doc["tjurina"]["stabilized"] is None
    assert doc["freeness"] is None


def test_analyze_parse_error_exit_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "x^2+y")
    assert code == 1 and "mixed degrees" in err
    code, _, err = run_cli(capsys, "analyze", "x^^2")
    assert code == 1


def test_usage_errors_exit_one_and_help_exits_zero(capsys):
    """A usage error is an input error, exit 1; argparse's own 2 would read
    as inconclusive."""
    code, _, err = run_cli(capsys, "supersolvable", "corpus:ploski_m3", "--assume-qh")
    assert code == 1 and "unrecognized arguments: --assume-qh" in err
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1 and "the following arguments are required: input" in err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: conicfree")


def test_analyze_zero_polynomial_exit_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "0*x^2")
    assert code == 1 and "the zero polynomial does not define a curve" in err


def test_analyze_unknown_corpus_name(capsys):
    code, _, err = run_cli(capsys, "analyze", "corpus:nope")
    assert code == 1 and "unknown corpus entry" in err


def test_analyze_window_extend(capsys):
    for extend in (2, 10):  # 10 is the largest extension taken
        code, out, _ = run_cli(
            capsys, "analyze", "corpus:two_conics_a7_e1", "--json", "--window-extend", str(extend)
        )
        doc = json.loads(out)
        assert code == 0
        assert [v for _, v in doc["tjurina"]["window"]] == [7] * (3 + extend)


@pytest.mark.parametrize("extend", ["-1", "11", "80"])
def test_analyze_refuses_a_window_extension_out_of_range(extend, capsys):
    code, out, err = run_cli(
        capsys, "analyze", "corpus:two_conics_a7_e1", "--window-extend", extend
    )
    assert code == 1 and out == ""
    assert f"window extension {extend} is not in 0..10" in err


def test_analyze_arrangement_file(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    path.write_text(
        "# the deformed triconical sextic\n"
        "2*x^2+2*y^2+3*x*z+z^2\n"
        "2*x^2+2*y^2-3*x*z+z^2\n"
        "x^2+4*y^2-z^2\n"
    )
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["freeness"]["verdict"] == "nearly_free"
    assert doc["survey"] is not None


def test_analyze_single_expression_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text("x^2*y^2+z^4\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tjurina"]["stabilized"] == 6
    assert doc["survey"] is None


def test_classify_p4(capsys):
    code, out, err = run_cli(capsys, "classify", "corpus:p4_four_conics", "--json")
    # survey incomplete (complex nodes) -> exit 2 with warning
    assert code == 2 and "incomplete" in err
    doc = json.loads(out)
    points = sorted(
        rec["point"] for rec in doc["survey"]["records"] if rec["type"] == "A7"
    )
    assert points == ["(-1:0:1)", "(-2:0:1)", "(0:0:1)", "(1:0:1)"]


def test_classify_text_prints_the_analyze_survey_section(capsys):
    _, analyzed, _ = run_cli(capsys, "analyze", "corpus:p4_four_conics")
    _, classified, _ = run_cli(capsys, "classify", "corpus:p4_four_conics")
    lines = analyzed.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("survey: "))
    end = next(i for i, line in enumerate(lines) if line.startswith("check "))
    assert classified.splitlines() == ["input: corpus:p4_four_conics"] + lines[start:end]
    assert "unlocated intersection budget" in classified


def test_classify_complete_survey_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "corpus:celal_three_conics", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["survey"]["complete"] is True
    assert doc["survey"]["inventory"] == {"A5": 3, "D4": 1}


def test_classify_rejects_non_arrangement(capsys):
    code, _, err = run_cli(capsys, "classify", "x^2*y^2+z^4")
    assert code == 1 and "arrangement" in err


def test_classify_rejects_singular_component(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("x*y\nx^2+y^2-z^2\n")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and "smooth" in err


def test_classify_rejects_wrong_degree_component(tmp_path, capsys):
    path = tmp_path / "cubic.txt"
    path.write_text("x^3+y^3+z^3\nx^2+y^2-z^2\n")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and "degree 2" in err


def test_classify_disjoint_pair_incomplete_exit_two(tmp_path, capsys):
    path = tmp_path / "disjoint.txt"
    path.write_text("x^2+y^2-z^2\nx^2+y^2-2*z^2\n")
    code, out, err = run_cli(capsys, "classify", str(path), "--json")
    assert code == 2 and "incomplete" in err
    doc = json.loads(out)
    assert doc["survey"]["records"] == []
    assert doc["survey"]["residual_per_pair"] == {"0,1": 4}


def test_classify_assume_qh(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "corpus:pencil_four_points_m5", "--json", "--assume-qh"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(rec["tau"] == 16 for rec in doc["survey"]["records"])


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{dir}"),
        ("supersolvable", "{dir}"),
    ],
    ids=["analyze", "supersolvable"],
)
def test_a_directory_for_a_file_is_an_input_error(argv, tmp_path, capsys):
    code, _, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 1 and str(tmp_path) in err


@pytest.mark.parametrize("command", ["analyze", "classify", "supersolvable"])
def test_a_missing_file_is_reported_as_neither_file_nor_expression(command, tmp_path, capsys):
    missing = tmp_path / "nonexist.txt"
    code, out, err = run_cli(capsys, command, str(missing))
    assert code == 1 and out == ""
    assert f"error: {missing}: no such file, and not an expression: unexpected character" in err


@pytest.mark.parametrize("blank", ["", " "], ids=["empty", "space"])
def test_a_blank_input_is_an_empty_expression(blank, capsys):
    code, _, err = run_cli(capsys, "analyze", blank)
    assert code == 1 and "empty expression" in err and "directory" not in err


def test_theorems_commands(capsys):
    code, out, _ = run_cli(capsys, "theorems", "near", "--kmax", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["counterexamples"] == []

    code, out, _ = run_cli(capsys, "theorems", "char", "--kmax", "20", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["admissible_k"] == [2, 3, 4]
    assert doc["intervals"]["5"] == [5, 4] and doc["intervals"]["6"] == [6, 5]

    code, out, _ = run_cli(capsys, "theorems", "nfbound", "--kmax", "20", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["admissible_k"] == list(range(2, 9))

    code, _, err = run_cli(capsys, "theorems", "near", "--kmax", "20000")
    assert code == 1 and "capped" in err


@pytest.mark.parametrize("which, cap", [("near", 100), ("char", 10**4), ("nfbound", 10**4)])
def test_theorems_kmax_caps(which, cap, capsys):
    code, out, err = run_cli(capsys, "theorems", which, "--kmax", str(cap + 1))
    assert (code, out) == (1, "")
    assert f"kmax for '{which}' is capped at {cap}" in err


def _text_renders_the_json(capsys, render, *argv):
    """The text output of a command is its renderer applied to the document
    that --json prints in the same run; returns the exit code."""
    code, text, _ = run_cli(capsys, *argv)
    json_code, printed, _ = run_cli(capsys, *argv, "--json")
    assert code == json_code
    assert text == render(json.loads(printed)) + "\n"
    return code


@pytest.mark.parametrize("which, kmax", [("near", 30), ("char", 20), ("nfbound", 20)])
def test_theorems_text_renders_the_json_document(which, kmax, capsys):
    argv = ("theorems", which, "--kmax", str(kmax))
    assert _text_renders_the_json(capsys, report.render_certificate, *argv) == 0


@pytest.mark.parametrize(
    "before, after, code",
    [("persson_triconical", "persson_deformed", 0), ("persson_deformed", "persson_triconical", 2)],
)
def test_deform_check_text_renders_the_json_document(before, after, code, capsys):
    argv = ("deform-check", f"corpus:{before}", f"corpus:{after}")
    assert _text_renders_the_json(capsys, report.render_deformation, *argv) == code


def test_supersolvable_text_renders_the_json_document(tmp_path, capsys):
    inc = tmp_path / "inc.txt"
    inc.write_text("point p: components 0,1,2\npoint q: components 0,1\n")
    for source in ("corpus:ploski_m3", str(inc)):
        argv = ("supersolvable", source)
        assert _text_renders_the_json(capsys, report.render_supersolvable, *argv) == 0


@pytest.mark.parametrize("name, code", [("celal_three_conics", 0), ("p4_four_conics", 2)])
def test_classify_text_renders_the_json_document(name, code, capsys):
    argv = ("classify", f"corpus:{name}")
    assert _text_renders_the_json(capsys, report.render_survey, *argv) == code


@pytest.mark.parametrize(
    "expression, degree", [("x^60*y+z^61", 60), ("x^20000", 20000), ("x^99999999", 99999999)]
)
def test_analyze_refuses_a_curve_above_the_degree_limit_at_once(expression, degree, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", expression)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert f"degree {degree} is above the limit of 24" in err


_DIGITS = f"more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "expression, message",
    [
        ("2^99999999*x", _DIGITS),
        ("(1/2)^9999999*x", _DIGITS),
        ("(-3)^9999*x", _DIGITS),
        # raised at once, then refused as a line
        ("1^99999999*x", "degree must be at least 2"),
    ],
)
def test_analyze_refuses_a_huge_constant_power_at_once(expression, message, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", expression)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert message in err


_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "expression, position",
    [
        ("1" * (_LIMIT + 700) + "*x^2+y^2-z^2", 0),
        ("x^2+y^2-1/" + "3" * (_LIMIT + 700) + "*z^2", 10),
    ],
)
def test_analyze_refuses_a_literal_past_the_digit_limit_with_its_position(
    expression, position, capsys
):
    code, out, err = run_cli(capsys, "analyze", expression)
    assert (code, out) == (1, "")
    assert f"has {_LIMIT + 700} digits, more than {_LIMIT}" in err
    assert err.rstrip().endswith(f"(at position {position})")


def test_analyze_takes_a_literal_at_the_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1" * _LIMIT + "*x^2+y^2-z^2", "--json")
    assert code == 0
    assert json.loads(out)["input"]["polynomial"].startswith("1" * _LIMIT + "*x^2")


_NINES = "9" * 3000  # a literal below the digit limit whose square passes it


@pytest.mark.parametrize("form", ["expression", "file"])
def test_analyze_refuses_an_expansion_past_the_digit_limit_before_linear_algebra(
    form, tmp_path, capsys, monkeypatch
):
    from conicfree import jacobian

    def refuse(*args):
        raise AssertionError("the linear algebra ran")

    monkeypatch.setattr(jacobian, "syzygy_matrix", refuse)
    conics = [f"{_NINES}*x^2+y^2-z^2", f"{_NINES}*x^2-y^2+2*z^2"]
    target = "*".join(f"({q})" for q in conics)
    if form == "file":
        target = tmp_path / "two.txt"
        target.write_text("\n".join(conics) + "\n")
    code, out, err = run_cli(capsys, "analyze", str(target), "--json")
    assert (code, out) == (1, "")
    assert f"an expanded coefficient has more than {_LIMIT} digits" in err


# seven conics: 265 characters, past the 255-byte limit most file systems put
# on a file name
LONG_PRODUCT = "*".join(
    f"({a}*x^2+{b}*y^2-{c}*z^2+{d}*x*y+{e}*x*z+{f}*y*z)"
    for a, b, c, d, e, f in [
        (1, 3, 5, 1, 1, 2),
        (2, 1, 3, 1, 2, 1),
        (1, 2, 7, 3, 1, 1),
        (3, 1, 2, 1, 1, 3),
        (1, 5, 3, 2, 1, 1),
        (2, 3, 5, 1, 3, 1),
        (1, 1, 6, 1, 2, 2),
    ]
)


def test_an_expression_longer_than_a_file_name_is_read_as_an_expression(capsys):
    assert len(LONG_PRODUCT.encode()) > 255
    code, out, _ = run_cli(capsys, "analyze", LONG_PRODUCT, "--json")
    assert code == 0 and json.loads(out)["input"]["degree"] == 14
    code, _, err = run_cli(capsys, "supersolvable", LONG_PRODUCT)
    assert code == 1 and "supersolvable needs an arrangement or incidence file" in err


@pytest.mark.parametrize("command", ["analyze", "supersolvable"])
def test_a_name_longer_than_a_file_name_is_neither_file_nor_expression(command, capsys):
    name = "q" * 300
    code, out, err = run_cli(capsys, command, name)
    assert code == 1 and out == ""
    assert f"error: {name}: no such file, and not an expression: unexpected character" in err


def test_an_arrangement_above_the_degree_limit_is_refused_before_expansion(
    tmp_path, capsys, monkeypatch
):
    from conicfree.locus import ConicArrangement

    expand = ConicArrangement.polynomial

    def refuse(self):
        # a corpus entry's curve is its arrangement's product: only the
        # arrangement above the limit must not be expanded
        if self.k > 12:
            raise AssertionError("the curve polynomial was expanded")
        return expand(self)

    path = tmp_path / "thirteen.txt"
    path.write_text("".join(f"x^2+y^2-{k}*z^2\n" for k in range(1, 14)))
    monkeypatch.setattr(ConicArrangement, "polynomial", refuse)
    for command in ("analyze", "classify"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert "13 conics make a curve of degree 26, above the limit of 24" in err
    code, _, err = run_cli(capsys, "deform-check", "corpus:persson_triconical", str(path))
    assert code == 1 and "above the limit of 24" in err


def test_a_curve_of_the_limit_degree_is_analyzed(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^23*y+z^24", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["input"]["degree"] == 24
    assert doc["tjurina"]["stabilized"] is not None


def test_deform_check_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "deform-check",
        "corpus:persson_triconical",
        "corpus:persson_deformed",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["conclusion"] == "nearly_free"

    code, out, _ = run_cli(
        capsys,
        "deform-check",
        "corpus:persson_triconical",
        "corpus:persson_triconical",
        "--json",
    )
    assert code == 2
    doc = json.loads(out)
    failed = [c["name"] for c in doc["clauses"] if not c["ok"]]
    assert "inventory" in failed


def test_supersolvable_geometric_and_incidence(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "supersolvable", "corpus:ploski_m3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["supersolvable"] is True and doc["mode"] == "geometric"

    inc = tmp_path / "inc.txt"
    inc.write_text(
        "point a: components 0,1\npoint b: components 2,3\n"
        "point c: components 0,2\npoint d: components 1,3\n"
        "point e: components 0,3\npoint f: components 1,2\n"
    )
    code, out, _ = run_cli(capsys, "supersolvable", str(inc), "--incidence", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "user-incidence" and doc["supersolvable"] is False

    # incomplete geometric survey refuses to answer
    arr = tmp_path / "disjoint.txt"
    arr.write_text("x^2+y^2-z^2\nx^2+y^2-2*z^2\n")
    code, _, err = run_cli(capsys, "supersolvable", str(arr))
    assert code == 2 and "incomplete" in err


def test_supersolvable_tells_the_file_format_past_comments(tmp_path, capsys):
    """The format is read from the first line that is not a comment, so a
    colon in a leading comment does not decide it."""
    from conicfree.corpus import entry

    arr = tmp_path / "arr.txt"
    arr.write_text(
        "# three conics through a point: a pencil\n"
        + "\n".join(entry("ploski_m3").component_texts)
        + "\n"
    )
    code, out, err = run_cli(capsys, "supersolvable", str(arr), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mode"] == "geometric" and doc["supersolvable"] is True

    inc = tmp_path / "inc.txt"
    inc.write_text(
        "# from the paper: two points\n\n"
        "point p: components 0,1,2  # the common point\n"
        "point q: components 0,1\n"
    )
    code, out, err = run_cli(capsys, "supersolvable", str(inc), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["mode"] == "user-incidence" and doc["modular_point"] == "p"


def test_supersolvable_refuses_a_repeated_point(tmp_path, capsys):
    inc = tmp_path / "inc.txt"
    inc.write_text("point 1: components 0,1\npoint 2: components 2,3\npoint 1: components 0,2,3\n")
    code, out, err = run_cli(capsys, "supersolvable", str(inc), "--incidence")
    assert (code, out, err) == (1, "", "error: line 3: point '1' is given twice\n")


def test_supersolvable_reads_a_commented_incidence_file_once(tmp_path, capsys, monkeypatch):
    """The error names the bad line by its number in the file, comments and
    blank lines counted, and the file is read once."""
    inc = tmp_path / "inc.txt"
    inc.write_text(
        "# two points\n\n"
        "point p: components 0,1,2  # the common point\n"
        "point q components 0,1\n"
    )
    reads = []
    read_text = Path.read_text

    def spy(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy)
    code, out, err = run_cli(capsys, "supersolvable", str(inc))
    assert code == 1 and out == ""
    assert "line 4: expected 'point <id>: components ...'" in err
    assert reads == [inc]


def test_supersolvable_never_expands_the_arrangement(tmp_path, capsys, monkeypatch):
    """The survey reads the components alone; the product polynomial is left unbuilt."""
    from conicfree.corpus import CorpusEntry, entry
    from conicfree.locus import ConicArrangement

    def refuse(self):
        raise AssertionError("the curve polynomial was expanded")

    monkeypatch.setattr(ConicArrangement, "polynomial", refuse)
    monkeypatch.setattr(CorpusEntry, "polynomial", refuse)
    arr = tmp_path / "ploski.txt"
    arr.write_text("\n".join(entry("ploski_m3").component_texts) + "\n")
    for source in (str(arr), "corpus:ploski_m3"):
        code, out, _ = run_cli(capsys, "supersolvable", source, "--json")
        assert code == 0 and json.loads(out)["supersolvable"] is True, source


def test_corpus_listing(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    assert "corpus:persson_triconical" in out
    assert len(out.strip().splitlines()) == 20


def test_corpus_entry_quasi_homogeneity_honored(capsys):
    # pencil entries assert the base-point hypothesis themselves
    code, out, _ = run_cli(capsys, "classify", "corpus:pencil_four_points_m5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(rec["tau"] == 16 for rec in doc["survey"]["records"])


def test_internal_fault_exit_three(capsys, monkeypatch):
    import conicfree.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli_module, "analyze_curve", boom)
    code, _, err = run_cli(capsys, "analyze", "x^2+y^2-z^2")
    assert code == 3 and "internal error" in err


def test_regress_unknown_name_reads_like_analyze(capsys):
    known = ", ".join(e.name for e in corpus_entries())
    message = f"error: unknown corpus entry 'nosuch'; known: {known}\n"
    assert run_cli(capsys, "regress", "nosuch") == (1, "", message)
    assert run_cli(capsys, "analyze", "corpus:nosuch") == (1, "", message)


def test_regress_subset(capsys):
    code, out, _ = run_cli(capsys, "regress", "two_conics_a7_e2")
    assert code == 0
    assert "FAIL" not in out


def test_analyze_does_not_import_numpy_ma():
    """numpy.unique imports numpy.ma on its first call (some 13 ms); the
    analysis path uses none of numpy's set routines, so a fresh process
    that analyzes a corpus entry never loads it."""
    script = (
        "import contextlib, io, sys\n"
        "from conicfree.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['analyze', 'corpus:persson_triconical', '--json'])\n"
        "assert code == 0, code\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(conicfree.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _run_module(*argv):
    """``python -m conicfree`` with argv, importing this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(conicfree.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "conicfree", *argv], env=env, capture_output=True, timeout=300
    )


def test_python_dash_m_prints_what_main_prints(capsys):
    """``python -m conicfree`` exits with main's code and prints its bytes;
    a usage error exits 1 there too."""
    code, out, _ = run_cli(capsys, "analyze", "corpus:two_conics_a7_e1", "--json")
    done = _run_module("analyze", "corpus:two_conics_a7_e1", "--json")
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out.encode()
    done = _run_module("analyze")
    assert done.returncode == 1
    assert b"the following arguments are required: input" in done.stderr
