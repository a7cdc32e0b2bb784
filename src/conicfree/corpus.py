"""Built-in example curves with their published and derived invariants.

Each entry records how to build the curve (component conics where they are
rational, otherwise the defining polynomial), the expected values of the
pipeline outputs, and a provenance tag per expected field: "literature" for
values stated in the sources the examples come from, "derived" for values
computed here by independent means.  The regression runner recomputes
each entry through the full pipeline and compares the expected fields with
its analysis document, the one ``analyze --json`` prints, reporting
field-level differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from conicfree.freeness import FREE, NEARLY_FREE, NEITHER
from conicfree.locus import ConicArrangement
from conicfree.poly import (
    AffinePolynomial,
    HomogeneousPolynomial,
    ProjectivePoint,
    dehomogenize,
    expand_product,
    parse_polynomial,
)
from conicfree.report import Analysis, analysis_document, analyze_curve


class CorpusNotFoundError(KeyError):
    """No corpus entry with the requested name."""

    def __str__(self) -> str:
        # KeyError's own str() quotes the message
        return str(self.args[0])


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    component_texts: tuple[str, ...] | None
    expected: dict
    provenance: dict[str, str]
    polynomial_text: str | None = None
    assume_qh: bool = False

    def polynomial(self) -> HomogeneousPolynomial:
        if self.polynomial_text is not None:
            return parse_polynomial(self.polynomial_text)
        return expand_product(parse_polynomial(text) for text in self.component_texts or ())

    def arrangement(self) -> ConicArrangement | None:
        if self.component_texts is None:
            return None
        return ConicArrangement.from_texts(list(self.component_texts))


def _persson_triconical() -> CorpusEntry:
    return CorpusEntry(
        name="persson_triconical",
        description="Persson's triconical sextic: two tangential A7 points, "
        "a tacnode and two (complex conjugate) nodes; free",
        component_texts=("x^2+y^2-z^2", "2*x^2+y^2+2*x*z", "2*x^2+y^2-2*x*z"),
        expected={
            "d": 6,
            "d1": 2,
            "tau": 19,
            "nu": 0,
            "verdict": FREE,
            "inventory": {"A1": 2, "A3": 1, "A7": 2},
        },
        provenance={
            "d": "derived",
            "d1": "derived",
            "tau": "derived",
            "nu": "derived",
            "verdict": "literature",
            "inventory": "literature",
        },
    )


def _persson_deformed() -> CorpusEntry:
    return CorpusEntry(
        name="persson_deformed",
        description="deformation of the triconical sextic: the tacnode split "
        "into two nodes, everything else maintained; nearly free",
        component_texts=(
            "2*x^2+2*y^2+3*x*z+z^2",
            "2*x^2+2*y^2-3*x*z+z^2",
            "x^2+4*y^2-z^2",
        ),
        expected={
            "d": 6,
            "d1": 3,
            "tau": 18,
            "nu": 1,
            "verdict": NEARLY_FREE,
            "inventory": {"A1": 4, "A7": 2},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "tau": "derived",
            "nu": "derived",
            "verdict": "literature",
            "inventory": "literature",
        },
    )


def _celal_three_conics() -> CorpusEntry:
    return CorpusEntry(
        name="celal_three_conics",
        description="three conics with three A5 points and one ordinary "
        "triple point; free sextic",
        component_texts=(
            "-3*x^2+x*y+y*z+z*x",
            "-3*y^2+x*y+y*z+z*x",
            "-3*z^2+x*y+y*z+z*x",
        ),
        expected={
            "d": 6,
            "d1": 2,
            "tau": 19,
            "nu": 0,
            "verdict": FREE,
            "inventory": {"A5": 3, "D4": 1},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "tau": "literature",
            "nu": "derived",
            "verdict": "literature",
            "inventory": "literature",
        },
    )


def _p4_four_conics() -> CorpusEntry:
    # The quartic component is stated in its source with constant term -9z^2,
    # which misses the two claimed tangency points; -8z^2 is the unique
    # coefficient making the conic pass through both with fourth-order
    # contact, and it reproduces every published invariant.
    return CorpusEntry(
        name="p4_four_conics",
        description="four conics with four collinear A7 points and eight "
        "(complex) nodes; nearly free octic",
        component_texts=(
            "x^2+y^2-z^2",
            "2*x^2+y^2+2*x*z",
            "x^2+y^2+2*x*z",
            "4*x^2+6*y^2+4*x*z-8*z^2",
        ),
        expected={
            "d": 8,
            "d1": 3,
            "tau": 36,
            "nu": 1,
            "verdict": NEARLY_FREE,
            "inventory": {"A1": 8, "A7": 4},
            "points_of_type": {
                "A7": ["(-1:0:1)", "(0:0:1)", "(-2:0:1)", "(1:0:1)"]
            },
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "tau": "literature",
            "nu": "derived",
            "verdict": "literature",
            "inventory": "literature",
            "points_of_type": "literature",
        },
    )


def ploski(m: int) -> CorpusEntry:
    """Degree-2m curve of m conics through one highly tangential point.

    All pairs meet only at (0:0:1) with contact order four; the single
    singular point has Milnor number (2m-1)^2 - m and Tjurina number
    (2m-1)^2 - (2m-2), so it is not quasi-homogeneous once m >= 3.
    """
    if not 2 <= m <= 5:
        raise ValueError("m ranges over 2..5 at desk scale")
    tau = (2 * m - 1) ** 2 - (2 * m - 2)
    return CorpusEntry(
        name=f"ploski_m{m}",
        description=f"Ploski-style moustache curve with {m} conics; free, "
        "single non-quasi-homogeneous singular point",
        component_texts=tuple(f"x*z+{i}*x^2+y^2" for i in range(1, m + 1)),
        expected={
            "d": 2 * m,
            "d1": 1,
            "tau": tau,
            "nu": 0,
            "verdict": FREE,
            "singular_points": 1,
            "mu_at": {"(0:0:1)": (2 * m - 1) ** 2 - m},
            "type_at": {"(0:0:1)": "A7" if m == 2 else "descriptor"},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "tau": "literature",
            "nu": "derived",
            "verdict": "literature",
            "singular_points": "literature",
            "mu_at": "literature",
            "type_at": "derived",
        },
    )


def pencil_four_points(m: int) -> CorpusEntry:
    """m members of the pencil of conics through four general points.

    The members are f, g and f + lam*g for lam = 1 .. m-2.  The four base
    points become ordinary m-fold points; the curve is neither free nor
    nearly free (defect 3) for every m, yet it is combinatorially
    supersolvable.
    """
    if not 3 <= m <= 6:
        raise ValueError("m ranges over 3..6 at desk scale")
    f_text = "3*x^2+y^2-4*z^2"
    g_text = "x^2+3*y^2-4*z^2"
    components = [f_text, g_text]
    for lam in range(1, m - 1):
        components.append(f"({f_text})+{lam}*({g_text})")
    base_points = ["(-1:-1:1)", "(-1:1:1)", "(1:-1:1)", "(1:1:1)"]
    type_name = "D4" if m == 3 else f"ordinary({m})"
    return CorpusEntry(
        name=f"pencil_four_points_m{m}",
        description=f"{m} members of the pencil through 4 general points; "
        "neither free nor nearly free (defect 3)",
        component_texts=tuple(components),
        expected={
            "d": 2 * m,
            "d1": 2,
            "witness": ("y*z", "x*z", "x*y"),
            "tau": 4 * (m - 1) ** 2,
            "nu": 3,
            "verdict": NEITHER,
            "inventory": {type_name: 4},
            "local_tau_at": {p: (m - 1) ** 2 for p in base_points},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "witness": "literature",
            "tau": "literature",
            "nu": "literature",
            "verdict": "literature",
            "inventory": "derived",
            "local_tau_at": "literature",
        },
        # base points of a conic pencil are quasi-homogeneous, so the local
        # Tjurina numbers (m-1)^2 apply at every multiplicity
        assume_qh=True,
    )


def pencil_two_points(k: int) -> CorpusEntry:
    """The curve x^k*y^k + z^(2k): k conics of a pencil with 2 base points.

    The components are conjugate over the rationals, so no arrangement
    survey is available; the two singular points carry diagonal binomial
    germs whose Tjurina numbers are checked by the germ oracle.
    """
    if not 2 <= k <= 6:
        raise ValueError("k ranges over 2..6 at desk scale")
    local_tau = (2 * k - 1) * (k - 1)
    return CorpusEntry(
        name=f"pencil_two_points_k{k}",
        description=f"pencil of {k} conics with two base points; nearly free",
        component_texts=None,
        polynomial_text=f"x^{k}*y^{k}+z^{2 * k}",
        expected={
            "d": 2 * k,
            "d1": 1,
            "witness": ("x", "-y", "0"),
            "tau": 2 * local_tau,
            "nu": 1,
            "verdict": NEARLY_FREE,
            "germ_tau_at": {"(1:0:0)": local_tau, "(0:1:0)": local_tau},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "witness": "literature",
            "tau": "derived",
            "nu": "literature",
            "verdict": "literature",
            "germ_tau_at": "literature",
        },
    )


def two_conics_a7(eps: int) -> CorpusEntry:
    """Two conics meeting at a single point with contact order four.

    An explicit instance of the one-parameter family of such pairs; the
    family construction is derived here, the invariants (tau = 7, minimal
    relation degree 1, free) are the published ones for this configuration.
    """
    if eps not in (1, 2, 3):
        raise ValueError("eps ranges over 1..3")
    return CorpusEntry(
        name=f"two_conics_a7_e{eps}",
        description="two conics with a single A7 intersection; free quartic",
        component_texts=("x^2-y*z", f"x^2-y*z+{eps}*y^2"),
        expected={
            "d": 4,
            "d1": 1,
            "tau": 7,
            "nu": 0,
            "verdict": FREE,
            "inventory": {"A7": 1},
            "points_of_type": {"A7": ["(0:0:1)"]},
        },
        provenance={
            "d": "derived",
            "d1": "literature",
            "tau": "literature",
            "nu": "derived",
            "verdict": "literature",
            "inventory": "derived",
            "points_of_type": "derived",
        },
    )


def corpus_entries() -> tuple[CorpusEntry, ...]:
    """All built-in entries, parametrized families expanded, stable order."""
    entries: list[CorpusEntry] = [
        _persson_triconical(),
        _persson_deformed(),
        _celal_three_conics(),
        _p4_four_conics(),
    ]
    entries.extend(ploski(m) for m in range(2, 6))
    entries.extend(pencil_four_points(m) for m in range(3, 7))
    entries.extend(pencil_two_points(k) for k in range(2, 7))
    entries.extend(two_conics_a7(e) for e in (1, 2, 3))
    return tuple(entries)


def entry(name: str) -> CorpusEntry:
    entries = corpus_entries()
    for e in entries:
        if e.name == name:
            return e
    known = ", ".join(e.name for e in entries)
    raise CorpusNotFoundError(f"unknown corpus entry {name!r}; known: {known}")


# ---------------------------------------------------------------------------
# Regression running


@dataclass(frozen=True)
class RegressionRow:
    entry: str
    field: str
    expected: object
    got: object
    ok: bool


@dataclass(frozen=True)
class RegressionTable:
    rows: tuple[RegressionRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[RegressionRow]:
        return [r for r in self.rows if not r.ok]

    def render(self) -> str:
        lines = []
        for r in self.rows:
            mark = "ok  " if r.ok else "FAIL"
            lines.append(f"{mark} {r.entry:28s} {r.field:16s} expected={r.expected!r} got={r.got!r}")
        return "\n".join(lines)


def diagonal_germ_tau(g: AffinePolynomial) -> int | None:
    """Tjurina number of a two-term diagonal germ c1*u^a + c2*v^b.

    For such a germ the gradient ideal is monomial, tau equals
    (a-1)*(b-1), and the germ is weighted homogeneous.  None when the
    polynomial is not of this exact shape.
    """
    if len(g.terms) != 2:
        return None
    monos = sorted(g.terms)
    (u1, v1), (u2, v2) = monos
    if v1 == 0 and u2 == 0 and u1 >= 2 and v2 >= 2:
        return (u1 - 1) * (v2 - 1)
    if u1 == 0 and v2 == 0 and v1 >= 2 and u2 >= 2:
        return (v1 - 1) * (u2 - 1)
    return None


def analyze_entry(e: CorpusEntry) -> Analysis:
    """Run an entry through the full analysis pipeline.

    An entry with components takes its curve from the arrangement's
    memoised product, which analyze_curve reads again, so it is expanded
    once.
    """
    arrangement = e.arrangement()
    return analyze_curve(
        e.polynomial() if arrangement is None else arrangement.polynomial(),
        arrangement=arrangement,
        source=f"corpus:{e.name}",
        assume_qh=e.assume_qh,
    )


def check_entry(e: CorpusEntry, doc: dict) -> list[RegressionRow]:
    """Compare an entry's expected fields with its analysis document.

    ``doc`` is the dict :func:`analysis_document` builds and ``analyze --json``
    prints; one row per field.  An unstable window (``tjurina.stabilized``
    None) fails the fields that need the Tjurina number instead of raising.
    """
    rows: list[RegressionRow] = []

    def add(field_name: str, expected: object, got: object) -> None:
        rows.append(
            RegressionRow(
                entry=e.name,
                field=field_name,
                expected=expected,
                got=got,
                ok=expected == got,
            )
        )

    m, freeness, exp = doc["mdr"], doc["freeness"] or {}, e.expected
    records = {rec["point"]: rec for rec in (doc["survey"] or {"records": []})["records"]}
    if "d" in exp:
        add("d", exp["d"], doc["input"]["degree"])
    if "d1" in exp:
        add("d1", exp["d1"], m["d1"])
    if "witness" in exp:
        w = m["witness"]
        got = None if w is None else [w["a"], w["b"], w["c"]]
        add("witness", [str(parse_polynomial(t)) for t in exp["witness"]], got)
        add("witness_verifies", True, m["verified"])
    if "tau" in exp:
        add("tau", exp["tau"], doc["tjurina"]["stabilized"])
    for key in ("nu", "verdict"):
        if key in exp:
            add(key, exp[key], freeness.get(key))
    if "inventory" in exp:
        add("inventory", exp["inventory"], doc["checks"].get("effective_inventory"))
    if "singular_points" in exp:
        add("singular_points", exp["singular_points"], len(records))
    for type_name, points in exp.get("points_of_type", {}).items():
        got = sorted(p for p, rec in records.items() if rec["type"] == type_name)
        add(f"points[{type_name}]", sorted(points), got)
    for key, field_name in (("mu_at", "mu"), ("type_at", "type"), ("local_tau_at", "tau")):
        for point_text, value in exp.get(key, {}).items():
            rec = records.get(str(ProjectivePoint.parse(point_text)))
            add(f"{field_name}@{point_text}", value, rec[field_name] if rec else None)
    germs = exp.get("germ_tau_at", {})
    f = e.polynomial() if germs else None
    for point_text, local in germs.items():
        germ = dehomogenize(f, ProjectivePoint.parse(point_text))
        add(f"germ_tau@{point_text}", local, diagonal_germ_tau(germ))
    return rows


def run_regression(names: list[str] | None = None) -> RegressionTable:
    """Recompute expected fields for the selected entries (all by default)."""
    if names is None:
        selected = list(corpus_entries())
    else:
        selected = [entry(n) for n in names]
    rows: list[RegressionRow] = []
    for e in selected:
        rows.extend(check_entry(e, analysis_document(analyze_entry(e))))
    return RegressionTable(rows=tuple(rows))
