"""Command-line surface: addressing, exit codes, deterministic reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conicfree
from conicfree.cli import main


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


def test_analyze_smooth_conic_is_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^2+y^2-z^2")
    assert code == 2
    assert "tau = 0" in out and "smooth" in out


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
    assert "--window-extend must be between 0 and 10" in err


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
