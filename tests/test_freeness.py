"""Verdict engine: defining equalities, threshold table, deformation."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicfree.corpus import entry
from conicfree.freeness import (
    FREE,
    NEARLY_FREE,
    NEITHER,
    UnsupportedTypeError,
    arnold_exponent,
    build_report,
    check_bound_consistency,
    check_deformation,
    effective_inventory,
    eta_of,
    lct,
    mdr_lower_bound,
)
from conicfree.jacobian import JacobianContext, hilbert_profile, mdr
from conicfree.locus import ConicArrangement, SingType, survey
from conicfree.poly import HomogeneousPolynomial, monomials_of_degree, parse_polynomial
from conicfree.report import analysis_document, analyze_curve, to_json
from exact_engine import agrees_with_exact_mdr, exact_mdr


def test_build_report_named_examples():
    free6 = build_report(6, 2, 19)
    assert (free6.eta, free6.nu, free6.verdict) == (19, 0, FREE)

    nf8 = build_report(8, 3, 36)
    assert (nf8.eta, nf8.nu, nf8.verdict) == (37, 1, NEARLY_FREE)

    pencil10 = build_report(10, 2, 64)
    assert (pencil10.nu, pencil10.verdict) == (3, NEITHER)


def test_build_report_range_hypothesis_for_freeness():
    # defect zero but the relation degree is outside the criterion's range
    d, d1 = 6, 4
    tau = eta_of(d, d1)
    rep = build_report(d, d1, tau)
    assert rep.verdict == NEITHER
    assert any("2*d1 > d-1" in note for note in rep.notes)


def test_build_report_flags_large_d1_nearly_free():
    d, d1 = 6, 4
    tau = eta_of(d, d1) - 1
    rep = build_report(d, d1, tau)
    assert rep.verdict == NEARLY_FREE
    assert any("manual review" in note for note in rep.notes)


@st.composite
def _perturbed_fermat(draw):
    """x^d + y^d + z^d plus small integer coefficients, d in 2..5."""
    d = draw(st.integers(2, 5))
    coefficients = draw(st.lists(st.integers(-3, 3), min_size=(d + 1) * (d + 2) // 2))
    terms = dict(zip(monomials_of_degree(d), coefficients))
    for mono in ((d, 0, 0), (0, d, 0), (0, 0, d)):
        terms[mono] = terms.get(mono, 0) + 1
    return HomogeneousPolynomial(d, {m: c for m, c in terms.items() if c})


@settings(max_examples=30, deadline=None)
@given(f=_perturbed_fermat())
def test_smooth_curves_have_d1_equal_to_d_minus_one(f):
    """A smooth curve has only Koszul relations, all of degree d-1, so d1 =
    d-1, tau = 0, eta = nu = (d-1)^2: nearly free for the conic and
    neither above it.  The exact engine finds no kernel below d-1 and one
    in degree d-1; the witness is checked by expanding a*f_x + b*f_y + c*f_z."""
    ctx = JacobianContext.for_curve(f)
    assume(hilbert_profile(ctx).smooth)
    d = ctx.d
    w = mdr(ctx)
    assert w.r == d - 1
    fx, fy, fz = (f.partial(v) for v in "xyz")
    assert (w.a * fx + w.b * fy + w.c * fz).is_zero()
    assert exact_mdr(ctx).r == d - 1 and agrees_with_exact_mdr(ctx, w)
    rep = analyze_curve(f).report
    assert (rep.d1, rep.tau, rep.eta, rep.nu) == (d - 1, 0, (d - 1) ** 2, (d - 1) ** 2)
    assert rep.verdict == build_report(d, d - 1, 0).verdict
    assert rep.verdict == (NEARLY_FREE if d == 2 else NEITHER)


@pytest.mark.parametrize(
    "text, d1, tau, verdict",
    [("x^2+y^2-z^2", 1, 0, NEARLY_FREE), ("y^2*z-x^3-x^2*z", 2, 1, NEITHER)],
)
def test_curves_without_a_relation_below_d_minus_one_get_a_verdict(text, d1, tau, verdict):
    """The smooth conic (nu = 1) and the nodal cubic (eta = 4, nu = 3)."""
    rep = analyze_curve(parse_polynomial(text)).report
    assert (rep.d1, rep.tau, rep.verdict) == (d1, tau, verdict)


def _solve_weights(support):
    """Independent 2x2 solver for i*w1 + j*w2 = 1 over the germ support."""
    (i1, j1), (i2, j2) = support
    det = Fraction(i1 * j2 - i2 * j1)
    if det == 0:
        raise ValueError("degenerate support")
    w1 = Fraction(j2 - j1, 1) / det
    w2 = Fraction(i1 - i2, 1) / det
    return w1, w2


def test_lct_table_against_weight_equations():
    # A_k normal form x^2 + y^(k+1): support {(2,0), (0,k+1)}
    for k in range(1, 11):
        entry = lct(SingType.A(k))
        w1, w2 = _solve_weights([(2, 0), (0, k + 1)])
        assert {entry.w1, entry.w2} == {w1, w2}
        assert entry.lct == Fraction(k + 3, 2 * k + 2)
    # D_k normal form y^2*x + x^(k-1): support {(1,2), (k-1,0)}
    for k in range(4, 11):
        entry = lct(SingType.D(k))
        w1, w2 = _solve_weights([(1, 2), (k - 1, 0)])
        assert {entry.w1, entry.w2} == {w1, w2}
        assert entry.lct == Fraction(k, 2 * k - 2)


def test_lct_named_values():
    assert lct(SingType.A(7)).lct == Fraction(5, 8)
    assert lct(SingType.A(1)).lct == 1
    assert lct(SingType.A(3)).lct == Fraction(3, 4)
    assert lct(SingType.D(4)).lct == Fraction(2, 3)
    assert lct(SingType.ordinary(5)).lct == Fraction(2, 5)
    with pytest.raises(UnsupportedTypeError):
        lct(SingType.descriptor())


def test_mdr_lower_bound_values():
    assert mdr_lower_bound(Fraction(5, 8), 12) == Fraction(11, 2)
    assert mdr_lower_bound(Fraction(5, 8), 10) == Fraction(17, 4)
    assert mdr_lower_bound(Fraction(1), 3) == 1
    with pytest.raises(ValueError):
        mdr_lower_bound(Fraction(3, 2), 4)


def test_bound_consistency_on_computed_arrangements():
    celal = ConicArrangement.from_texts(
        ["-3*x^2+x*y+y*z+z*x", "-3*y^2+x*y+y*z+z*x", "-3*z^2+x*y+y*z+z*x"]
    )
    sv = survey(celal)
    assert arnold_exponent(sv) == Fraction(2, 3)
    ctx = JacobianContext.for_curve(celal.polynomial())
    rep = build_report(6, mdr(ctx).r, hilbert_profile(ctx).tau)
    assert check_bound_consistency(rep, sv)

    pair = ConicArrangement.from_texts(["x^2-y*z", "x^2-y*z+y^2"])
    sv2 = survey(pair)
    assert arnold_exponent(sv2) == Fraction(5, 8)
    ctx2 = JacobianContext.for_curve(pair.polynomial())
    rep2 = build_report(4, mdr(ctx2).r, hilbert_profile(ctx2).tau)
    # bound 5/8*4 - 2 = 1/2 <= 1
    assert check_bound_consistency(rep2, sv2)


def test_arnold_exponent_none_for_descriptor_or_incomplete():
    ploski3 = ConicArrangement.from_texts([f"x*z+{i}*x^2+y^2" for i in (1, 2, 3)])
    assert arnold_exponent(survey(ploski3)) is None  # descriptor point
    disjoint = ConicArrangement.from_texts(["x^2+y^2-z^2", "x^2+y^2-2*z^2"])
    assert arnold_exponent(survey(disjoint)) is None  # incomplete, no certificate


def test_arnold_exponent_through_node_completion():
    # incomplete surveys whose residuals are certified nodes still yield the
    # exponent: inferred nodes carry threshold 1 and cannot lower the minimum
    (rep_f, sv_f), _ = _persson_pair()
    assert arnold_exponent(sv_f) is None
    assert arnold_exponent(sv_f, rep_f.tau) == Fraction(5, 8)
    assert check_bound_consistency(rep_f, sv_f)  # 5/8*6 - 2 = 7/4 <= 2

    p4 = ConicArrangement.from_texts(
        [
            "x^2+y^2-z^2",
            "2*x^2+y^2+2*x*z",
            "x^2+y^2+2*x*z",
            "4*x^2+6*y^2+4*x*z-8*z^2",
        ]
    )
    sv = survey(p4)
    ctx = JacobianContext.for_curve(p4.polynomial())
    rep = build_report(8, mdr(ctx).r, hilbert_profile(ctx).tau)
    assert arnold_exponent(sv, rep.tau) == Fraction(5, 8)
    # the bound 5/8*8 - 2 = 3 <= d1 = 3 is tight here
    assert mdr_lower_bound(Fraction(5, 8), 8) == 3
    assert check_bound_consistency(rep, sv)


def test_verdicts_rederived_from_defining_equalities():
    # the verdict must agree with a direct evaluation of the two equalities
    from conicfree.corpus import corpus_entries
    from conicfree.jacobian import SyzygyWitness

    for e in corpus_entries():
        if e.expected.get("d1") is None:
            continue
        d = e.expected["d"]
        d1 = e.expected["d1"]
        tau = e.expected["tau"]
        lhs = (d - 1) ** 2 - d1 * (d - d1 - 1)
        rep = build_report(d, d1, tau)
        assert (rep.verdict == FREE) == (lhs == tau and 2 * d1 <= d - 1), e.name
        assert (rep.verdict == NEARLY_FREE) == (lhs == tau + 1), e.name


@settings(max_examples=1000, deadline=None)
@given(d=st.integers(2, 60), d1=st.integers(0, 80))
def test_eta_symmetry(d, d1):
    assert eta_of(d, d1) == eta_of(d, d - 1 - d1)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 40), d1=st.integers(0, 50), tau=st.integers(0, 100))
def test_nu_invariant_under_reflection(d, d1, tau):
    assert eta_of(d, d1) - tau == eta_of(d, d - 1 - d1) - tau


def _persson_pair():
    arr_f = ConicArrangement.from_texts(
        ["x^2+y^2-z^2", "2*x^2+y^2+2*x*z", "2*x^2+y^2-2*x*z"]
    )
    arr_g = ConicArrangement.from_texts(
        ["2*x^2+2*y^2+3*x*z+z^2", "2*x^2+2*y^2-3*x*z+z^2", "x^2+4*y^2-z^2"]
    )
    out = []
    for arr in (arr_f, arr_g):
        ctx = JacobianContext.for_curve(arr.polynomial())
        rep = build_report(6, mdr(ctx).r, hilbert_profile(ctx).tau)
        out.append((rep, survey(arr)))
    return out


def test_effective_inventory_completes_conjugate_nodes():
    (rep_f, sv_f), (rep_g, sv_g) = _persson_pair()
    assert effective_inventory(sv_f, rep_f.tau) == {"A7": 2, "A3": 1, "A1": 2}
    assert effective_inventory(sv_g, rep_g.tau) == {"A7": 2, "A1": 4}
    # wrong global tau breaks the certificate
    assert effective_inventory(sv_f, rep_f.tau + 1) is None


def _persson_docs():
    """The analysis documents of the free triconical sextic and its deformation."""
    return [
        analysis_document(analyze_curve(e.polynomial(), arrangement=e.arrangement()))
        for e in map(entry, ("persson_triconical", "persson_deformed"))
    ]


def test_deformation_check_passes_on_the_published_example():
    before, after = _persson_docs()
    check = check_deformation(before, after)
    assert check.passed
    assert check.conclusion == NEARLY_FREE
    assert [c.name for c in check.clauses] == [
        "before_free",
        "inventory",
        "tjurina_drop",
        "eta_equal",
        "conclusion_nearly_free",
    ]


def _failed_clauses(check):
    return [c.name for c in check.clauses if not c.ok]


def test_deformation_check_same_curve_fails_inventory():
    before, _ = _persson_docs()
    check = check_deformation(before, before)
    assert not check.passed
    assert "inventory" in _failed_clauses(check)
    assert "tjurina_drop" in _failed_clauses(check)


def test_deformation_check_eta_mismatch_detected():
    doc_f, doc_g = _persson_docs()
    # synthetic: pretend the deformed curve had relation degree 1; note that
    # degree 2 would be invisible here since eta(6, 2) = eta(6, 3) by symmetry
    fake_g = copy.deepcopy(doc_g)
    fake_g["freeness"]["eta"] = eta_of(doc_g["input"]["degree"], 1)
    check = check_deformation(doc_f, fake_g)
    assert "eta_equal" in _failed_clauses(check)


def test_deformation_check_requires_free_start():
    doc_f, doc_g = _persson_docs()
    check = check_deformation(doc_g, doc_f)
    assert "before_free" in _failed_clauses(check)


def test_deformation_check_reads_the_inventory_and_eta_of_the_document():
    """Editing the deformed document's inventory fails exactly the inventory
    clause, editing its eta exactly eta_equal; the unedited pair passes."""
    before, after = _persson_docs()
    assert check_deformation(before, after).passed
    edits = (
        ("checks", "effective_inventory", dict(before["checks"]["effective_inventory"]), "inventory"),
        ("freeness", "eta", after["freeness"]["eta"] + 1, "eta_equal"),
    )
    for block, key, value, clause in edits:
        edited = copy.deepcopy(after)
        edited[block][key] = value
        check = check_deformation(before, edited)
        assert _failed_clauses(check) == [clause] and check.conclusion is None


def test_deformation_check_reads_printed_documents_alike():
    """The documents as ``analyze --json`` prints them, read back, give the
    same clauses as the documents in memory: verdicts and details alike,
    though the printed documents list their inventories in another key order."""
    docs = _persson_docs()
    printed = [json.loads(to_json(doc)) for doc in docs]
    for order in ((0, 1), (1, 0), (0, 0)):
        direct = check_deformation(*(docs[i] for i in order))
        read = check_deformation(*(printed[i] for i in order))
        assert read.clauses == direct.clauses
        assert read.conclusion == direct.conclusion
