"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.  All value comparisons are exact; the time targets
are desk-scale expectations printed for reference.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from conicfree.combinatorics import (
    IncidenceStructure,
    enumerate_nearly_free_bound,
    enumerate_theorem_char,
    enumerate_theorem_near,
    is_combinatorially_supersolvable,
)
from conicfree.corpus import analyze_entry, corpus_entries, diagonal_germ_tau, entry
from conicfree.freeness import FREE, NEARLY_FREE, NEITHER, eta_of, lct
from conicfree.jacobian import SyzygyWitness, verify_witness
from conicfree.locus import SingType
from conicfree.poly import ProjectivePoint, dehomogenize, parse_polynomial


def _pipeline(name: str):
    a = analyze_entry(entry(name))
    return a.ctx, a.witness, a.tau, a.report, a.survey


def _cli_json(*argv):
    """Drive the installed command-line surface and parse its report."""
    import contextlib
    import io
    import json

    from conicfree.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, json.loads(buffer.getvalue())


def _report(criterion: str, detail: str, t0: float, target: str) -> None:
    print(f"criterion {criterion}: PASS ({detail}; {time.time() - t0:.1f}s, target {target})")


def test_criterion_1_celal_three_conics():
    t0 = time.time()
    code, doc = _cli_json("analyze", "corpus:celal_three_conics", "--json")
    assert code == 0
    assert doc["input"]["degree"] == 6
    assert doc["mdr"]["d1"] == 2
    assert doc["tjurina"]["stabilized"] == 19
    assert doc["freeness"]["nu"] == 0
    assert doc["freeness"]["verdict"] == FREE
    _report("1", "analyze celal: d=6 d1=2 tau=19 nu=0 free", t0, "< 5 s")


def test_criterion_2_four_conic_octic():
    t0 = time.time()
    code, doc = _cli_json("analyze", "corpus:p4_four_conics", "--json")
    assert code == 0
    assert doc["input"]["degree"] == 8
    assert doc["mdr"]["d1"] == 3
    assert doc["tjurina"]["stabilized"] == 36
    assert doc["freeness"]["nu"] == 1
    assert doc["freeness"]["verdict"] == NEARLY_FREE
    code, survey_doc = _cli_json("classify", "corpus:p4_four_conics", "--json")
    located = sorted(
        rec["point"] for rec in survey_doc["survey"]["records"] if rec["type"] == "A7"
    )
    assert located == ["(-1:0:1)", "(-2:0:1)", "(0:0:1)", "(1:0:1)"]
    _report("2", "analyze+classify octic: d1=3 tau=36 nearly free, four A7", t0, "< 30 s")


def test_criterion_3_persson_deformation():
    t0 = time.time()
    code, doc = _cli_json("analyze", "corpus:persson_triconical", "--json")
    assert code == 0
    assert doc["freeness"]["verdict"] == FREE
    assert doc["tjurina"]["stabilized"] == 19
    assert doc["mdr"]["d1"] == 2
    code, deform = _cli_json(
        "deform-check",
        "corpus:persson_triconical",
        "corpus:persson_deformed",
        "--json",
    )
    assert code == 0
    assert deform["passed"] is True
    assert all(c["ok"] for c in deform["clauses"])
    assert deform["conclusion"] == NEARLY_FREE
    code, doc_g = _cli_json("analyze", "corpus:persson_deformed", "--json")
    assert doc_g["mdr"]["d1"] == 3
    _report("3", "triconical free, deformation clauses all pass via CLI", t0, "< 10 s")


def test_criterion_4_moustache_family():
    t0 = time.time()
    for m in (2, 3, 4, 5):
        ctx, witness, tau, report, sv = _pipeline(f"ploski_m{m}")
        assert isinstance(witness, SyzygyWitness) and witness.r == 1
        assert tau == (2 * m - 1) ** 2 - (2 * m - 2)
        assert report.verdict == FREE
        assert len(sv.records) == 1
        rec = sv.records[0]
        mu = 2 * 4 * (m * (m - 1) // 2) - m + 1
        assert mu == (2 * m - 1) ** 2 - m
        assert rec.mu == mu
        # the branch merger is a plain fourth-order contact when m = 2,
        # reported as A7 there and as a raw descriptor for larger m
        expected_type = "A7" if m == 2 else "descriptor"
        assert str(rec.sing_type) == expected_type
    _report("4", "moustache m=2..5: d1=1, tau and mu formulas, free", t0, "< 60 s")


def test_criterion_5_pencil_families():
    t0 = time.time()
    for m in (3, 4, 5, 6):
        ctx, witness, tau, report, sv = _pipeline(f"pencil_four_points_m{m}")
        assert isinstance(witness, SyzygyWitness) and witness.r == 2
        assert witness.a == parse_polynomial("y*z")
        assert witness.b == parse_polynomial("x*z")
        assert witness.c == parse_polynomial("x*y")
        assert verify_witness(ctx, witness)
        assert tau == 4 * (m - 1) ** 2
        assert report.nu == 3
        assert report.verdict == NEITHER
    for k in (2, 3, 4, 5, 6):
        ctx, witness, tau, report, sv = _pipeline(f"pencil_two_points_k{k}")
        f = ctx.f
        assert isinstance(witness, SyzygyWitness) and witness.r == 1
        assert report.nu == 1
        assert report.verdict == NEARLY_FREE
        local = (2 * k - 1) * (k - 1)
        for point in ("(1:0:0)", "(0:1:0)"):
            germ = dehomogenize(f, ProjectivePoint.parse(point))
            assert diagonal_germ_tau(germ) == local
        assert tau == 2 * local
    _report("5", "pencils: witness (yz,xz,xy), defects 3 and 1", t0, "< 90 s")


def test_criterion_6_two_conic_contact_family():
    t0 = time.time()
    for eps in (1, 2, 3):
        ctx, witness, tau, report, sv = _pipeline(f"two_conics_a7_e{eps}")
        assert tau == 7
        assert isinstance(witness, SyzygyWitness) and witness.r == 1
        assert report.verdict == FREE
        assert len(sv.records) == 1
        assert str(sv.records[0].sing_type) == "A7"
    _report("6", "two-conic family: tau=7, d1=1, free, single A7", t0, "< 5 s")


def test_criterion_7_theorem_scans():
    t0 = time.time()
    code, near = _cli_json("theorems", "near", "--kmax", "30", "--json")
    assert code == 0 and near["passed"] is True and near["counterexamples"] == []
    code, char = _cli_json("theorems", "char", "--kmax", "20", "--json")
    assert code == 0 and char["admissible_k"] == [2, 3, 4]
    assert char["intervals"]["5"] == [5, 4]
    assert char["intervals"]["6"] == [6, 5]
    code, nf = _cli_json("theorems", "nfbound", "--kmax", "20", "--json")
    assert code == 0 and nf["admissible_k"] == list(range(2, 9))
    # library-level scans agree with the serialized certificates
    assert enumerate_theorem_near(30).passed
    assert enumerate_theorem_char(20).admissible == (2, 3, 4)
    assert enumerate_nearly_free_bound(20).admissible == tuple(range(2, 9))
    _report("7", "near/char/nfbound certificates via CLI", t0, "< 5 s each")


def test_criterion_8_property_suite():
    t0 = time.time()
    # (a) global tau equals the local sum on complete surveys
    # (b) every returned witness re-verifies to exactly zero
    # (c) the probed Hilbert window is constant on every corpus entry
    for e in corpus_entries():
        a = analyze_entry(e)
        values = [v for _, v in a.profile.window]
        assert values[0] == values[1] == values[2], e.name
        tau = values[0]
        assert verify_witness(a.ctx, a.witness), e.name
        sv = a.survey
        if sv is not None:
            if sv.complete and sv.local_tau_total() is not None:
                assert sv.local_tau_total() == tau, e.name
    # (d) eta symmetry on 1000 random (d, d1)
    rng = random.Random(88)
    for _ in range(1000):
        d = rng.randint(2, 200)
        d1 = rng.randint(0, 250)
        assert eta_of(d, d1) == eta_of(d, d - 1 - d1)
    # (e) supersolvability verdicts invariant under 100 random relabelings
    pairs = [(f"p{i}{j}", {i, j}) for i, j in combinations(range(4), 2)]
    fixtures = [
        pairs,  # generic nodes: no modular point
        [("a", {0, 1, 2}), ("b", {0, 1}), ("c", {1, 2})],  # 'a' modular
        [("s", {0, 1, 2, 3})],  # single point
    ]
    for base_pairs in fixtures:
        base = is_combinatorially_supersolvable(
            IncidenceStructure.from_pairs(base_pairs)
        )
        n_comps = max(max(m) for _, m in base_pairs) + 1
        for _ in range(100):
            perm = list(range(n_comps))
            rng.shuffle(perm)
            shuffled = list(base_pairs)
            rng.shuffle(shuffled)
            relabeled = IncidenceStructure.from_pairs(
                [(pid, {perm[c] for c in members}) for pid, members in shuffled]
            )
            assert (is_combinatorially_supersolvable(relabeled) is not None) == (
                base is not None
            )
    _report("8", "tau oracle, witnesses, windows, eta symmetry, relabelings", t0, "< 2 min")


def test_criterion_9_threshold_table():
    t0 = time.time()

    def solve_weights(support):
        (i1, j1), (i2, j2) = support
        det = Fraction(i1 * j2 - i2 * j1)
        w1 = Fraction(j2 - j1) / det
        w2 = Fraction(i1 - i2) / det
        return w1, w2

    assert lct(SingType.A(7)).lct == Fraction(5, 8)
    for k in range(1, 11):
        e = lct(SingType.A(k))
        assert e.lct == Fraction(k + 3, 2 * k + 2)
        w1, w2 = solve_weights([(2, 0), (0, k + 1)])
        assert w1 + w2 == e.lct and {e.w1, e.w2} == {w1, w2}
    for k in range(4, 11):
        e = lct(SingType.D(k))
        assert e.lct == Fraction(k, 2 * k - 2)
        w1, w2 = solve_weights([(1, 2), (k - 1, 0)])
        assert w1 + w2 == e.lct and {e.w1, e.w2} == {w1, w2}
    _report("9", "threshold table matches the weight equations", t0, "< 1 s")
