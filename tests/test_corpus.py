"""Corpus entries and the regression harness."""

import dataclasses
import hashlib
import importlib.util
import json
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree.cli import main
from conicfree.corpus import (
    CorpusEntry,
    CorpusNotFoundError,
    analyze_entry,
    check_entry,
    corpus_entries,
    diagonal_germ_tau,
    entry,
    pencil_four_points,
    pencil_two_points,
    ploski,
    run_regression,
    two_conics_a7,
)
from conicfree.locus import ConicArrangement
from conicfree.poly import (
    AffinePolynomial,
    ConicForm,
    ProjectivePoint,
    conic_is_smooth,
    dehomogenize,
    parse_polynomial,
)
from conicfree.report import analysis_document, to_json
from exact_engine import exact_mdr, exact_window


def test_entries_have_stable_names_and_provenance():
    entries = corpus_entries()
    names = [e.name for e in entries]
    assert len(names) == len(set(names)) == 20
    for required in (
        "persson_triconical",
        "persson_deformed",
        "celal_three_conics",
        "p4_four_conics",
        "ploski_m3",
        "pencil_four_points_m4",
        "pencil_two_points_k2",
        "two_conics_a7_e1",
    ):
        assert required in names
    for e in entries:
        for field_name in e.expected:
            assert e.provenance.get(field_name) in ("literature", "derived"), (
                e.name,
                field_name,
            )


GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["corpus"]


@pytest.mark.parametrize("name", [e.name for e in corpus_entries()])
def test_analyze_json_matches_the_golden_digest(name, capsys):
    """`conicfree analyze corpus:<name> --json`, without the trailing newline
    print adds, hashes to the entry's digest in perfbench/golden.json."""
    assert main(["analyze", f"corpus:{name}", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    assert hashlib.sha256(out[:-1].encode()).hexdigest() == GOLDEN[name]


def test_exact_and_certified_engines_give_identical_documents():
    """Both engines return the canonical primitive integer kernel, so the
    mdr block, the witness included, and the tjurina block are the same
    under either; every other field is a function of those and the survey.
    In degree d-1 mdr takes a Koszul relation instead, so there only d1 is
    compared."""
    small = [e for e in corpus_entries() if e.polynomial().degree <= 8]
    assert len(small) == 15
    for e in small:
        analysis = analyze_entry(e)
        doc = analysis_document(analysis)
        exact = exact_mdr(analysis.ctx)
        assert doc["mdr"]["d1"] == exact.r, e.name
        if exact.r < analysis.ctx.d - 1:
            exact_doc = analysis_document(dataclasses.replace(analysis, witness=exact))
            assert doc["mdr"] == exact_doc["mdr"], e.name
        window = exact_window(analysis.ctx)
        assert doc["tjurina"]["window"] == [[t, v] for t, v in window], e.name
        assert doc["tjurina"]["stabilized"] == window[0][1] == e.expected["tau"], e.name


def test_lookup_unknown_name():
    assert entry("celal_three_conics").expected["tau"] == 19
    with pytest.raises(CorpusNotFoundError) as caught:
        entry("no_such_curve")
    assert str(caught.value).startswith("unknown corpus entry 'no_such_curve'; known: ")


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        ploski(6)
    with pytest.raises(ValueError):
        pencil_four_points(7)
    with pytest.raises(ValueError):
        pencil_two_points(1)
    with pytest.raises(ValueError):
        two_conics_a7(4)


def test_ploski_generator_matches_formulas():
    for m in (2, 3, 4, 5):
        e = ploski(m)
        assert e.expected["tau"] == (2 * m - 1) ** 2 - (2 * m - 2)
        assert e.expected["mu_at"]["(0:0:1)"] == (2 * m - 1) ** 2 - m
        assert e.polynomial().degree == 2 * m


def test_diagonal_germ_oracle():
    g = AffinePolynomial({(2, 0): 1, (0, 4): 1})  # u^2 + v^4
    assert diagonal_germ_tau(g) == 3
    assert diagonal_germ_tau(AffinePolynomial({(3, 0): 1, (0, 6): 2})) == 10
    assert diagonal_germ_tau(AffinePolynomial({(2, 0): 1, (1, 1): 1})) is None
    assert diagonal_germ_tau(AffinePolynomial({(2, 0): 1})) is None


def test_pencil_two_points_germs_are_diagonal():
    e = pencil_two_points(3)
    f = e.polynomial()
    for point_text, expected in e.expected["germ_tau_at"].items():
        germ = dehomogenize(f, ProjectivePoint.parse(point_text))
        assert diagonal_germ_tau(germ) == expected


def test_quick_regressions_pass():
    table = run_regression(
        ["celal_three_conics", "two_conics_a7_e1", "pencil_two_points_k2", "ploski_m2"]
    )
    assert table.passed, table.render()


def test_a_corpus_entry_is_expanded_and_parsed_once(monkeypatch):
    """analyze_entry takes an arrangement entry's curve from the
    arrangement's memoised product, and check_entry reads an entry's curve
    once, not once per germ point."""
    calls = []
    original = CorpusEntry.polynomial

    def refuse(self):
        raise AssertionError("the corpus entry was expanded a second time")

    monkeypatch.setattr(CorpusEntry, "polynomial", refuse)
    assert run_regression(["celal_three_conics", "pencil_four_points_m6"]).passed
    monkeypatch.setattr(CorpusEntry, "polynomial", lambda self: calls.append(1) or original(self))
    e = entry("pencil_two_points_k3")
    assert len(e.expected["germ_tau_at"]) == 2
    doc = analysis_document(analyze_entry(e))
    calls.clear()
    assert all(row.ok for row in check_entry(e, doc))
    assert calls == [1]


def test_empty_selection_is_success():
    table = run_regression([])
    assert table.rows == () and table.passed


def test_mutated_expectation_fails_exactly_one_field():
    e = entry("celal_three_conics")
    tampered = dataclasses.replace(
        e, expected={**e.expected, "tau": e.expected["tau"] + 1}
    )
    rows = check_entry(tampered, analysis_document(analyze_entry(tampered)))
    failures = [r for r in rows if not r.ok]
    assert len(failures) == 1
    assert failures[0].field == "tau"
    assert failures[0].expected == 20 and failures[0].got == 19


def test_altered_document_verdict_fails_exactly_the_verdict_row():
    e = entry("celal_three_conics")
    doc = analysis_document(analyze_entry(e))
    altered = {**doc, "freeness": {**doc["freeness"], "verdict": "nearly_free"}}
    assert all(r.ok for r in check_entry(e, doc))
    failures = [r for r in check_entry(e, altered) if not r.ok]
    assert [(r.field, r.expected, r.got) for r in failures] == [
        ("verdict", "free", "nearly_free")
    ]


def test_regression_rows_describe_the_printed_document():
    """check_entry reads the same rows from a document and from its JSON,
    and the document is the one `analyze --json` prints (golden digest)."""
    for e in corpus_entries():
        doc = analysis_document(analyze_entry(e), provenance=dict(e.provenance))
        text = to_json(doc)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[e.name], e.name
        rows = check_entry(e, doc)
        assert rows and all(r.ok for r in rows), e.name
        assert check_entry(e, json.loads(text)) == rows, e.name


def test_unstable_window_fails_tau_fields_instead_of_raising():
    e = CorpusEntry(
        name="nonreduced",
        description="x^2*y, a non-reduced cubic",
        component_texts=None,
        polynomial_text="x^2*y",
        expected={"d": 3, "d1": 0, "tau": 4, "nu": 3, "verdict": "neither"},
        provenance={},
    )
    analysis = analyze_entry(e)
    assert analysis.tau is None
    rows = check_entry(e, analysis_document(analysis))
    assert [(r.field, r.ok, r.got) for r in rows] == [
        ("d", True, 3),
        ("d1", True, 0),
        ("tau", False, None),
        ("nu", False, None),
        ("verdict", False, None),
    ]


def test_unstable_window_fails_inventory_on_an_arrangement():
    # arrangements are reduced, so their windows are stable; check_entry only
    # compares fields, so an analysis without tau stands in for one
    e = entry("two_conics_a7_e1")
    analysis = dataclasses.replace(analyze_entry(e), tau=None, report=None)
    failures = [r.field for r in check_entry(e, analysis_document(analysis)) if not r.ok]
    assert failures == ["tau", "nu", "verdict", "inventory"]


def test_reproduce_corpus_script(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_corpus.py"
    spec = importlib.util.spec_from_file_location("reproduce_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[1 : lines.index("")]
    entries = corpus_entries()
    assert len(table) == len(entries) == 20
    for line, e in zip(table, entries):
        name, d, d1, tau, nu, verdict, _ = line.split()
        exp = e.expected
        assert (name, int(d), int(d1), int(tau), int(nu), verdict) == (
            e.name, exp["d"], exp["d1"], exp["tau"], exp["nu"], exp["verdict"]
        )
    assert lines[-1].startswith("  171 checks, 0 failures")


def _assert_expands_like_fractions(got, forms):
    """got is the product of forms expanded in Fraction arithmetic (by *),
    with Fraction coefficients."""
    assert got == reduce(mul, forms)
    assert all(type(c) is Fraction for c in got.terms.values())


def test_arrangement_expansion_equals_the_fraction_product_on_the_corpus():
    checked = 0
    for e in corpus_entries():
        if e.component_texts is None:
            continue
        forms = [parse_polynomial(t) for t in e.component_texts]
        _assert_expands_like_fractions(e.polynomial(), forms)
        _assert_expands_like_fractions(e.arrangement().polynomial(), forms)
        checked += 1
    assert checked >= 10


_coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 1, 2, 3, 7]))


@settings(max_examples=60, deadline=None)
@given(
    conics=st.lists(
        st.tuples(*[_coefficients] * 6).map(lambda c: ConicForm(*c) if any(c) else None),
        min_size=2,
        max_size=4,
    )
)
def test_arrangement_expansion_equals_the_fraction_product(conics):
    """Integer and p/q coefficients: the arrangement and a corpus entry built
    from the same texts expand to the Fraction product."""
    conics = [q for q in conics if q is not None and conic_is_smooth(q)]
    distinct = [
        q for i, q in enumerate(conics) if not any(q.is_proportional_to(o) for o in conics[:i])
    ]
    if len(distinct) < 2:
        return
    forms = [q.polynomial() for q in distinct]
    _assert_expands_like_fractions(ConicArrangement(tuple(distinct)).polynomial(), forms)
    texts = tuple(str(f) for f in forms)
    e = CorpusEntry("drawn", "drawn conics", texts, {}, {})
    _assert_expands_like_fractions(e.polynomial(), forms)
