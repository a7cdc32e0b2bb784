"""Per-input correctness checks and the canonical renderings that get digested.

Each check returns a list of problems; an empty list means the input passed.
The corpus is checked against each entry's recorded ``expected`` fields, the
generic arrangements against Bezout and general position, and the planted
inputs against facts known by construction (see inputs.py).
"""

from __future__ import annotations

import hashlib

from inputs import canonical_point


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _point_key(text: str) -> str:
    body = text.strip().strip("()")
    return canonical_point(tuple(int(v) for v in body.split(":")))


def _records_by_point(doc: dict) -> dict:
    return {rec["point"]: rec for rec in (doc["survey"] or {}).get("records", [])}


def check_corpus(inp: dict, doc: dict, germ_tau) -> list[str]:
    """Compare an analysis document with the entry's expected fields.

    ``germ_tau(point_text)`` evaluates the corpus's own diagonal-germ oracle.
    """
    exp = inp["expect"]
    problems: list[str] = []

    def want(field: str, expected, got) -> None:
        if expected != got:
            problems.append(f"{field}: expected {expected!r}, got {got!r}")

    records = _records_by_point(doc)
    freeness = doc["freeness"] or {}
    if "d" in exp:
        want("d", exp["d"], doc["input"]["degree"])
    if "d1" in exp:
        want("d1", exp["d1"], doc["mdr"]["d1"])
    if "witness" in exp:
        w = doc["mdr"]["witness"] or {}
        want("witness", list(exp["witness"]), [w.get("a"), w.get("b"), w.get("c")])
        want("witness_verifies", True, doc["mdr"]["verified"])
    if "tau" in exp:
        want("tau", exp["tau"], doc["tjurina"]["stabilized"])
    if "nu" in exp:
        want("nu", exp["nu"], freeness.get("nu"))
    if "verdict" in exp:
        want("verdict", exp["verdict"], freeness.get("verdict"))
    if "inventory" in exp:
        want("inventory", exp["inventory"], doc["checks"].get("effective_inventory"))
    if "singular_points" in exp:
        want("singular_points", exp["singular_points"], len(records))
    for type_name, points in exp.get("points_of_type", {}).items():
        got = sorted(p for p, rec in records.items() if rec["type"] == type_name)
        want(f"points[{type_name}]", sorted(_point_key(p) for p in points), got)
    for key, field in (("mu_at", "mu"), ("type_at", "type"), ("local_tau_at", "tau")):
        for point_text, value in exp.get(key, {}).items():
            rec = records.get(_point_key(point_text))
            want(f"{field}@{point_text}", value, rec[field] if rec else None)
    for point_text, value in exp.get("germ_tau_at", {}).items():
        want(f"germ_tau@{point_text}", value, germ_tau(point_text))
    return problems


def check_generic(inp: dict, doc: dict) -> list[str]:
    """tau = 2k(k-1), verdict neither, verified witness, inventory {A1: tau}."""
    k, tau = inp["expect"]["k"], inp["expect"]["tau"]
    problems: list[str] = []
    got = {
        "degree": doc["input"]["degree"],
        "tau": doc["tjurina"]["stabilized"],
        "verdict": (doc["freeness"] or {}).get("verdict"),
        "verified": doc["mdr"]["verified"],
        "inventory": doc["checks"].get("effective_inventory"),
    }
    want = {
        "degree": 2 * k,
        "tau": tau,
        "verdict": "neither",
        "verified": True,
        "inventory": {"A1": tau},
    }
    for field, value in want.items():
        if got[field] != value:
            problems.append(f"{field}: expected {value!r}, got {got[field]!r}")
    return problems


def render_survey(sv, modular: str | None) -> str:
    """Canonical text of a survey and its supersolvability answer."""
    lines = []
    for rec in sv.records:
        mults = ",".join(f"{i}-{j}:{m}" for (i, j), m in sorted(rec.pair_mults.items()))
        lines.append(
            f"point {rec.point} members {list(rec.members)} mults {mults} "
            f"branches {rec.branch_count} type {rec.sing_type} mu {rec.mu} tau {rec.tau}"
        )
    for (i, j), v in sorted(sv.residual_per_pair.items()):
        lines.append(f"residual {i}-{j} {v}")
    lines.append(f"complete {sv.complete} transversal {sv.residual_transversal}")
    lines.append(f"modular {modular if sv.complete else 'not-run'}")
    return "\n".join(lines) + "\n"


def check_planted(inp: dict, sv, modular: str | None) -> list[str]:
    exp = inp["expect"]
    problems: list[str] = []
    recs = {str(rec.point): rec for rec in sv.records}
    located = sum(sum(rec.pair_mults.values()) for rec in sv.records)
    residual = sum(sv.residual_per_pair.values())
    pairs = len(sv.residual_per_pair)
    if located + residual != 4 * pairs:
        problems.append(f"located {located} + residual {residual} != 4 per pair")
    if exp["shape"] == "pair":
        rec = recs.get(exp["point"])
        if rec is None:
            problems.append(f"planted point {exp['point']} not located")
        else:
            if rec.pair_mults != {(0, 1): exp["contact"]}:
                problems.append(f"pair multiplicity {rec.pair_mults} != {exp['contact']}")
            if str(rec.sing_type) != exp["type"]:
                problems.append(f"type {rec.sing_type} != {exp['type']}")
        others = [r for p, r in recs.items() if p != exp["point"]]
        if len(others) != exp["extra_points"] or any(
            str(r.sing_type) != "A1" for r in others
        ):
            problems.append(f"other points {sorted(recs)} != {exp['extra_points']} nodes")
        if sv.complete != exp["complete"]:
            problems.append(f"complete {sv.complete} != {exp['complete']}")
        if sv.complete and modular is None:
            problems.append("no modular point on a complete pair survey")
    else:
        k = exp["k"]
        if sorted(recs) != exp["base_points"]:
            problems.append(f"points {sorted(recs)} != base points {exp['base_points']}")
        if any(str(r.sing_type) != f"ordinary({k})" for r in recs.values()):
            problems.append(f"types {[str(r.sing_type) for r in recs.values()]}")
        if not sv.complete:
            problems.append("pencil survey incomplete")
        if modular not in exp["base_points"]:
            problems.append(f"modular point {modular!r} is not a base point")
    return problems
