"""Analysis pipeline, the serialized report document and the other documents
the commands print (the survey, theorem certificates, deformation checks and
supersolvability answers), each with one builder and one text renderer.

Each document is a single self-describing dict (versioned ``schema`` field)
with every numeric value exact: integers stay integers, rationals are
rendered as ``p/q`` strings, and no floats appear anywhere.  Serialization
is deterministic (sorted keys), so identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from conicfree.combinatorics import (
    EnumerationCertificate,
    IncidenceStructure,
    bezout_count_check,
    is_combinatorially_supersolvable,
    weak_type_from_survey,
)
from conicfree.freeness import (
    FreenessReport,
    arnold_exponent,
    build_report,
    check_bound_consistency,
    check_deformation,
    effective_inventory,
    mdr_lower_bound,
)
from conicfree.jacobian import (
    HilbertProfile,
    JacobianContext,
    SyzygyWitness,
    check_window_extend,
    hilbert_profile,
    mdr,
    verify_witness,  # unused here; perfbench/spans.py hooks report.verify_witness
)
from conicfree.locus import ConicArrangement, LocusSurvey, survey
from conicfree.poly import HomogeneousPolynomial

SCHEMA_VERSION = "conicfree-report/1"


def exact(value: object) -> object:
    """Render a number exactly: ints stay ints, rationals become 'p/q'."""
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"not an exact value: {value!r}")


@dataclass(frozen=True)
class Analysis:
    """Everything the pipeline computed for one curve."""

    source: str
    f: HomogeneousPolynomial
    arrangement: ConicArrangement | None
    ctx: JacobianContext
    witness: SyzygyWitness
    profile: HilbertProfile
    tau: int | None  # None when the window is unstable
    report: FreenessReport | None
    survey: LocusSurvey | None

    @property
    def inconclusive(self) -> bool:
        return self.tau is None


def analyze_curve(
    f: HomogeneousPolynomial,
    arrangement: ConicArrangement | None = None,
    source: str = "<expression>",
    assume_qh: bool = False,
    window_extend: int = 0,
) -> Analysis:
    """Run the full pipeline: relation degree, Tjurina window, verdict, survey.

    An arrangement must be the factorisation of f: f is a nonzero constant
    times its product, or ValueError is raised.  Its integer conics then
    give the relation walk its pencil relations.
    """
    check_window_extend(window_extend)
    conics = None
    if arrangement is not None:
        product = arrangement.product
        lead = next(iter(product.terms))
        if f != product and f != product.scale(f.terms.get(lead, 0) / product.terms[lead]):
            raise ValueError("the arrangement's product is not a constant multiple of the curve")
        conics = [q.integer for q in arrangement.components]
    ctx = JacobianContext.for_curve(f, conics)
    witness = mdr(ctx)
    profile = hilbert_profile(ctx, extend=window_extend)
    tau = profile.tau
    report = None
    if tau is not None:
        report = build_report(ctx.d, witness.r, tau)
    sv = None
    if arrangement is not None:
        sv = survey(arrangement, assume_qh=assume_qh)
    return Analysis(
        source=source,
        f=f,
        arrangement=arrangement,
        ctx=ctx,
        witness=witness,
        profile=profile,
        tau=tau,
        report=report,
        survey=sv,
    )


def _witness_block(analysis: Analysis) -> dict:
    w = analysis.witness
    # the witness comes from mdr, which re-verifies it by exact expansion and
    # raises instead of returning one that fails; d1 is always exact, and
    # d1_at_least, always null, is kept so that SCHEMA_VERSION still holds
    return {
        "d1": w.r,
        "d1_at_least": None,
        "witness": {"a": str(w.a), "b": str(w.b), "c": str(w.c)},
        "verified": True,
    }


def _tjurina_block(analysis: Analysis) -> dict:
    return {
        "window": [[t, v] for t, v in analysis.profile.window],
        "stabilized": analysis.tau,
        "smooth": analysis.profile.smooth,
        "unstable": analysis.tau is None,
    }


def _freeness_block(analysis: Analysis) -> dict | None:
    rep, sv = analysis.report, analysis.survey
    if rep is None:
        return None
    block = {
        "eta": rep.eta,
        "nu": rep.nu,
        "verdict": rep.verdict,
        "notes": list(rep.notes),
        "arnold_exponent": None,
        "mdr_lower_bound": None,
        "bound_check": None,
    }
    alpha = None if sv is None else arnold_exponent(sv, rep.tau)
    if alpha is not None:
        block["arnold_exponent"] = exact(alpha)
        block["mdr_lower_bound"] = exact(mdr_lower_bound(alpha, rep.d))
        block["bound_check"] = check_bound_consistency(rep, sv)
    return block


def _survey_block(analysis: Analysis) -> dict | None:
    sv = analysis.survey
    if sv is None:
        return None
    records = []
    for rec in sv.records:
        records.append(
            {
                "point": str(rec.point),
                "members": list(rec.members),
                "pair_mults": {
                    f"{i},{j}": m for (i, j), m in sorted(rec.pair_mults.items())
                },
                "branches": rec.branch_count,
                "type": str(rec.sing_type),
                "mu": rec.mu,
                "tau": rec.tau,
            }
        )
    return {
        "records": records,
        "residual_per_pair": {
            f"{i},{j}": v for (i, j), v in sorted(sv.residual_per_pair.items())
        },
        "complete": sv.complete,
        "residual_transversal": sv.residual_transversal,
        "assume_qh": sv.assume_qh,
        "inventory": sv.inventory(),
        "local_tau_total": sv.local_tau_total(),
    }


def _checks_block(analysis: Analysis, supersolvable: bool) -> dict:
    checks: dict = {}
    sv, tau = analysis.survey, analysis.tau
    if sv is not None and tau is not None:
        checks["effective_inventory"] = effective_inventory(sv, tau)
        local = sv.local_tau_total()
        checks["local_vs_global_tau"] = (
            None if (local is None or not sv.complete) else (local == tau)
        )
        weak = weak_type_from_survey(sv)
        checks["bezout_count"] = None if weak is None else bezout_count_check(weak)
        if supersolvable:
            if sv.complete:
                inc = IncidenceStructure.from_survey(sv)
                checks["supersolvable"] = {
                    "mode": "geometric",
                    "modular_point": is_combinatorially_supersolvable(inc),
                }
            else:
                checks["supersolvable"] = {
                    "mode": "geometric",
                    "modular_point": None,
                    "note": "survey incomplete; supply incidence explicitly",
                }
    return checks


def analysis_document(
    analysis: Analysis,
    supersolvable: bool = False,
    provenance: dict[str, str] | None = None,
) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "input": {
            "source": analysis.source,
            "polynomial": str(analysis.f),
            "degree": analysis.ctx.d,
            "components": None
            if analysis.arrangement is None
            else [str(q) for q in analysis.arrangement.components],
        },
        "mdr": _witness_block(analysis),
        "tjurina": _tjurina_block(analysis),
        "freeness": _freeness_block(analysis),
        "survey": _survey_block(analysis),
        "checks": _checks_block(analysis, supersolvable),
    }
    if provenance:
        doc["provenance"] = dict(provenance)
    return doc


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def survey_lines(sv: dict) -> list[str]:
    """Human-readable rendering of the survey section of a document."""
    lines = [
        f"survey: {len(sv['records'])} rational singular point(s), "
        f"complete = {sv['complete']}"
    ]
    for rec in sv["records"]:
        tau_text = "?" if rec["tau"] is None else rec["tau"]
        lines.append(
            f"  {rec['point']} type {rec['type']} on components "
            f"{rec['members']} (mu={rec['mu']}, tau={tau_text})"
        )
    residuals = {k: v for k, v in sv["residual_per_pair"].items() if v}
    if residuals:
        lines.append(f"  unlocated intersection budget: {residuals}")
    return lines


def render_text(doc: dict) -> str:
    """Human-readable rendering of an analysis document."""
    lines: list[str] = []
    inp = doc["input"]
    lines.append(f"input: {inp['source']}")
    lines.append(f"  degree {inp['degree']}: {inp['polynomial']}")
    if inp["components"]:
        lines.append(f"  components ({len(inp['components'])}):")
        for i, c in enumerate(inp["components"]):
            lines.append(f"    [{i}] {c}")
    m = doc["mdr"]
    w = m["witness"]
    lines.append(
        f"minimal relation degree: d1 = {m['d1']}"
        f" (witness verified: {m['verified']})"
    )
    lines.append(f"  witness: a = {w['a']}; b = {w['b']}; c = {w['c']}")
    t = doc["tjurina"]
    window = ", ".join(f"dim[{a}]={b}" for a, b in t["window"])
    lines.append(f"Hilbert window: {window}")
    if t["unstable"]:
        lines.append("  window UNSTABLE: input likely not reduced")
    else:
        note = " (smooth curve)" if t["smooth"] else ""
        lines.append(f"  total Tjurina number: tau = {t['stabilized']}{note}")
    fr = doc["freeness"]
    if fr is not None:
        lines.append(
            f"freeness: eta = {fr['eta']}, nu = {fr['nu']}, verdict = {fr['verdict']}"
        )
        for note in fr["notes"]:
            lines.append(f"  note: {note}")
        if fr["arnold_exponent"] is not None:
            lines.append(
                f"  Arnold exponent {fr['arnold_exponent']}, "
                f"bound d1 >= {fr['mdr_lower_bound']}: "
                f"{'holds' if fr['bound_check'] else 'VIOLATED'}"
            )
    if doc["survey"] is not None:
        lines.extend(survey_lines(doc["survey"]))
    checks = doc["checks"]
    if checks:
        for key in sorted(checks):
            lines.append(f"check {key}: {checks[key]}")
    return "\n".join(lines)


def survey_document(doc: dict) -> dict:
    """The part of an analysis document that ``classify`` prints."""
    return {key: doc[key] for key in ("schema", "input", "survey", "checks")}


def render_survey(doc: dict) -> str:
    return "\n".join([f"input: {doc['input']['source']}"] + survey_lines(doc["survey"]))


def certificate_document(cert: EnumerationCertificate) -> dict:
    doc = {
        "schema": "conicfree-certificate/1",
        "theorem": cert.theorem,
        "kmax": cert.kmax,
        "candidates_examined": cert.candidates_examined,
        "counterexamples": list(cert.counterexamples),
        "passed": cert.passed,
    }
    if cert.admissible is not None:
        doc["admissible_k"] = list(cert.admissible)
        doc["intervals"] = {str(k): list(v) for k, v in (cert.intervals or {}).items()}
    return doc


def render_certificate(doc: dict) -> str:
    lines = [
        f"theorem scan '{doc['theorem']}' up to k = {doc['kmax']}:",
        f"  candidates examined: {doc['candidates_examined']}",
    ]
    if "admissible_k" in doc:
        lines.append(f"  admissible k: {sorted(doc['admissible_k'])}")
    found = "none (PASS)" if doc["passed"] else f"{doc['counterexamples']} (FAIL)"
    return "\n".join(lines + [f"  counterexamples: {found}"])


def deformation_document(before: dict, after: dict) -> dict:
    """The deformation check between two analysis documents."""
    check = check_deformation(before, after)
    return {
        "schema": "conicfree-deformation/1",
        "before": before["input"]["source"],
        "after": after["input"]["source"],
        "clauses": [asdict(c) for c in check.clauses],
        "passed": check.passed,
        "conclusion": check.conclusion,
    }


def render_deformation(doc: dict) -> str:
    lines = [f"deformation check: {doc['before']} -> {doc['after']}"]
    for c in doc["clauses"]:
        lines.append(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    lines.append(f"conclusion: {doc['conclusion'] or 'hypotheses not satisfied'}")
    return "\n".join(lines)


def supersolvable_document(mode: str, modular_point: str | None) -> dict:
    return {
        "schema": "conicfree-supersolvable/1",
        "mode": mode,
        "modular_point": modular_point,
        "supersolvable": modular_point is not None,
    }


def render_supersolvable(doc: dict) -> str:
    modular = doc["modular_point"]
    return (
        f"mode: {doc['mode']}\n"
        f"combinatorially supersolvable: {doc['supersolvable']}"
        + (f" (modular point {modular})" if modular else "")
    )
