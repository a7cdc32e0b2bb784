"""Freeness verdicts for reduced plane curves from (d, d1, tau).

The two defining equalities, with d1 the minimal relation degree:

    free:        (d-1)^2 - d1*(d-d1-1) = tau      and 2*d1 <= d-1
    nearly free: (d-1)^2 - d1*(d-d1-1) = tau + 1

Both are organized through eta = d1^2 - d1*(d-1) + (d-1)^2 and the defect
nu = eta - tau, so nu = 0 means free (under the degree hypothesis) and
nu = 1 nearly free.  The module also carries the log canonical threshold
table for the supported local types, the Dimca-Sernesi lower bound
mdr >= alpha*d - 2, and the tacnode-to-two-nodes deformation checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from conicfree.locus import LocusSurvey, SingType

FREE = "free"
NEARLY_FREE = "nearly_free"
NEITHER = "neither"


class UnsupportedTypeError(ValueError):
    """No log canonical threshold entry for this local type."""


@dataclass(frozen=True)
class FreenessReport:
    d: int
    d1: int
    tau: int
    eta: int
    nu: int
    verdict: str
    notes: tuple[str, ...] = ()


def eta_of(d: int, d1: int) -> int:
    return d1 * d1 - d1 * (d - 1) + (d - 1) * (d - 1)


def build_report(d: int, d1: int, tau: int) -> FreenessReport:
    """Combine degree, exact minimal relation degree and total Tjurina number.

    d1 is always exact (jacobian.mdr ends its search at d-1), so every
    report is scored against the equalities.
    """
    if d < 2:
        raise ValueError("curve degree must be at least 2")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    eta = eta_of(d, d1)
    nu = eta - tau
    notes: list[str] = []
    if nu == 0 and 2 * d1 <= d - 1:
        verdict = FREE
    elif nu == 1:
        verdict = NEARLY_FREE
        if 2 * d1 > d:
            notes.append(
                "nearly-free equality holds with d1 > d/2; flagged for manual review"
            )
    else:
        verdict = NEITHER
        if nu == 0:
            notes.append(
                "defect vanishes but 2*d1 > d-1, outside the freeness criterion's range"
            )
    return FreenessReport(
        d=d, d1=d1, tau=tau, eta=eta, nu=nu, verdict=verdict, notes=tuple(notes)
    )


# ---------------------------------------------------------------------------
# Log canonical thresholds


@dataclass(frozen=True)
class LctEntry:
    sing_type: SingType
    w1: Fraction
    w2: Fraction

    @property
    def lct(self) -> Fraction:
        return self.w1 + self.w2


def lct(sing_type: SingType) -> LctEntry:
    """Quasi-homogeneous weights and log canonical threshold of a local type.

    A_k (normal form x^2 + y^(k+1)) has weights (1/2, 1/(k+1)); D_k
    (normal form y^2*x + x^(k-1)) has weights (1/(k-1), (k-2)/(2k-2));
    an ordinary r-fold point (r transverse smooth branches) has (1/r, 1/r).
    """
    if sing_type.family == "A" and sing_type.index is not None and sing_type.index >= 1:
        entry = LctEntry(sing_type, Fraction(1, 2), Fraction(1, sing_type.index + 1))
    elif sing_type.family == "D" and sing_type.index is not None and sing_type.index >= 4:
        k = sing_type.index
        entry = LctEntry(sing_type, Fraction(1, k - 1), Fraction(k - 2, 2 * (k - 1)))
    elif (
        sing_type.family == "ordinary"
        and sing_type.index is not None
        and sing_type.index >= 2
    ):
        r = sing_type.index
        entry = LctEntry(sing_type, Fraction(1, r), Fraction(1, r))
    else:
        raise UnsupportedTypeError(f"no threshold table entry for {sing_type}")
    assert 0 < min(entry.w1, entry.w2) and max(entry.w1, entry.w2) <= Fraction(1, 2)
    return entry


def mdr_lower_bound(alpha: Fraction, d: int) -> Fraction:
    """Dimca-Sernesi bound: the minimal relation degree is >= alpha*d - 2."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("the Arnold exponent lies in (0, 1]")
    return alpha * d - 2


def arnold_exponent(
    survey: LocusSurvey, global_tau: int | None = None
) -> Fraction | None:
    """Minimum log canonical threshold over the singular points.

    An incomplete survey can still yield the exponent when the global
    Tjurina number certifies every unlocated point to be a node (see
    :func:`effective_inventory`): nodes have threshold 1, the maximum
    possible, so they never lower the minimum.  Otherwise None; the bound
    check is skipped rather than guessed at.
    """
    if not survey.records and not survey.complete:
        return None
    inferred_nodes = 0
    if not survey.complete:
        if global_tau is None or effective_inventory(survey, global_tau) is None:
            return None
        inferred_nodes = sum(survey.residual_per_pair.values())
    best: Fraction | None = Fraction(1) if inferred_nodes else None
    for rec in survey.records:
        try:
            value = lct(rec.sing_type).lct
        except UnsupportedTypeError:
            return None
        if best is None or value < best:
            best = value
    return best


def check_bound_consistency(report: FreenessReport, survey: LocusSurvey) -> bool:
    """Assert d1 >= alpha*d - 2 on computed data; False when it fails.

    Raises ValueError when the survey and the global Tjurina number leave
    the Arnold exponent undetermined.
    """
    alpha = arnold_exponent(survey, report.tau)
    if alpha is None:
        raise ValueError(
            "Arnold exponent undetermined (unlocated non-nodal points or an "
            "unsupported local type)"
        )
    return Fraction(report.d1) >= mdr_lower_bound(alpha, report.d)


# ---------------------------------------------------------------------------
# Inventories with inferred conjugate nodes


def effective_inventory(survey: LocusSurvey, global_tau: int) -> dict[str, int] | None:
    """Singularity counts over the complex numbers, when certifiable.

    The survey counts rational points only, but the unlocated points can be
    certified to all be plain nodes when two facts line up.  First, the
    survey's residuals must be certified transversal, which makes every
    unlocated point an ordinary point of some multiplicity r >= 2.  Second,
    the unexplained Tjurina mass (global tau minus the located local sum)
    must equal the unexplained intersection budget (the residual sum).  An
    ordinary r-fold point eats C(r,2) of the budget while its Tjurina number
    is 1 for r = 2, exactly (r-1)^2 > C(r,2) for r in {3, 4} (forced
    quasi-homogeneous below multiplicity five), and at least
    3*(r-1)^2/4 > C(r,2) for r >= 5, so the equality of the two sums forces
    every unlocated point to be a node.  The residual count is then added to
    the node tally; in all other cases the inventory is not determined.
    """
    local = survey.local_tau_total()
    residual_sum = sum(survey.residual_per_pair.values())
    if local is None or not survey.residual_transversal or global_tau - local != residual_sum:
        return None
    counts = survey.inventory()
    if residual_sum:
        counts["A1"] = counts.get("A1", 0) + residual_sum
    return counts


# ---------------------------------------------------------------------------
# Deformation of a tacnode into two nodes


@dataclass(frozen=True)
class ClauseResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class DeformationCheck:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)

    @property
    def conclusion(self) -> str | None:
        """The deformed curve's verdict, nearly free, when every clause holds."""
        return NEARLY_FREE if self.passed else None


def check_deformation(before: dict, after: dict) -> DeformationCheck:
    """Check the tacnode-to-two-nodes deformation hypotheses clause by clause.

    ``before`` and ``after`` are analysis documents, the dicts that
    ``analyze --json`` prints, each with a stable Tjurina window.  Requires
    the starting curve to be free, the inventory to change by exactly (one
    A3 out, two A1 in), the total Tjurina number to drop by one, and eta to
    be preserved; the deformed curve is then nearly free, which the last
    clause checks once the four hypotheses hold.
    """
    fr_b, fr_a = before["freeness"], after["freeness"]
    tau_b, tau_a = before["tjurina"]["stabilized"], after["tjurina"]["stabilized"]
    inv_b = before["checks"].get("effective_inventory")
    inv_a = after["checks"].get("effective_inventory")
    clauses = [
        ClauseResult(
            "before_free", fr_b["verdict"] == FREE, f"starting verdict is {fr_b['verdict']}"
        )
    ]
    if inv_b is None or inv_a is None:
        ok, detail = False, "singularity inventory not determined (unlocated non-nodal points)"
    else:
        expected = dict(inv_b)
        expected["A3"] = expected.get("A3", 0) - 1
        expected["A1"] = expected.get("A1", 0) + 2
        expected = {k: v for k, v in expected.items() if v != 0}
        got = {k: v for k, v in inv_a.items() if v != 0}
        ok = expected == got and inv_b.get("A3", 0) >= 1
        # sorted keys: a document read back from JSON lists them sorted
        detail = ", ".join(
            f"{label} {dict(sorted(inv.items()))}"
            for label, inv in (("before", inv_b), ("after", got), ("expected after", expected))
        )
    clauses.append(ClauseResult("inventory", ok, detail))
    clauses.append(
        ClauseResult("tjurina_drop", tau_a == tau_b - 1, f"tau {tau_b} -> {tau_a}")
    )
    eta_b, eta_a = fr_b["eta"], fr_a["eta"]
    clauses.append(ClauseResult("eta_equal", eta_b == eta_a, f"eta {eta_b} vs {eta_a}"))
    if all(c.ok for c in clauses):
        verdict = fr_a["verdict"]
        clauses.append(
            ClauseResult(
                "conclusion_nearly_free", verdict == NEARLY_FREE, f"deformed verdict is {verdict}"
            )
        )
    return DeformationCheck(clauses=tuple(clauses))
