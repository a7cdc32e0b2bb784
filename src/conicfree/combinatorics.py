"""Combinatorics of conic arrangements: counts, scans, supersolvability.

Exhaustive certificate generators for three facts about arrangements of k
smooth conics whose singularities are nodes, ordinary triple points and the
tangential types A3, A5, A7:

* with nodes and triple points only, no arrangement is nearly free (the
  defining equality has no admissible integer solution);
* a free such arrangement has k in {2, 3, 4} (the threshold bound
  d1 >= (5/8)*d - 2 against d1 <= (d-1)/2 empties every larger k);
* a nearly free one has k <= 8 (same scan with upper bound d/2).

Also the Bezout intersection count per arrangement type and the
combinatorial supersolvability test on incidence structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from conicfree.locus import LocusSurvey
from conicfree.poly import content_lines


@dataclass(frozen=True)
class WeakCombinatorialType:
    """Component count plus singularity counts (n2, n3, t3, t5, t7)."""

    k: int
    n2: int = 0
    n3: int = 0
    t3: int = 0
    t5: int = 0
    t7: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("an arrangement has at least 2 conics")
        if min(self.n2, self.n3, self.t3, self.t5, self.t7) < 0:
            raise ValueError("singularity counts are nonnegative")


def bezout_count_check(w: WeakCombinatorialType) -> bool:
    """Intersection bookkeeping: 2k(k-1) = n2 + 3*n3 + 2*t3 + 3*t5 + 4*t7.

    Every pair of smooth conics meets with total multiplicity 4; a node
    consumes 1 from one pair, a tangency A_{2m-1} consumes m from one pair,
    and an ordinary triple point consumes one from each of its three pairs.
    """
    lhs = 2 * w.k * (w.k - 1)
    return lhs == w.n2 + 3 * w.n3 + 2 * w.t3 + 3 * w.t5 + 4 * w.t7


def weak_type_from_survey(survey: LocusSurvey) -> WeakCombinatorialType | None:
    """Extract the weak type from a complete survey of supported types."""
    if not survey.complete:
        return None
    counts = {"A1": 0, "D4": 0, "A3": 0, "A5": 0, "A7": 0}
    for rec in survey.records:
        key = str(rec.sing_type)
        if key not in counts:
            return None
        counts[key] += 1
    return WeakCombinatorialType(
        k=survey.arrangement.k,
        n2=counts["A1"],
        n3=counts["D4"],
        t3=counts["A3"],
        t5=counts["A5"],
        t7=counts["A7"],
    )


@dataclass(frozen=True)
class EnumerationCertificate:
    theorem: str
    kmax: int
    candidates_examined: int
    counterexamples: tuple[dict, ...]
    admissible: tuple[int, ...] | None = None
    intervals: dict[int, tuple[int, int]] | None = None

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def enumerate_theorem_near(
    kmax: int, *, node_tau: int = 1, triple_tau: int = 4
) -> EnumerationCertificate:
    """Scan for nearly free node-and-triple-point arrangements; none exist.

    For each k, each admissible split 2k(k-1) = n2 + 3*n3 and each candidate
    relation degree d1 in [1, 2k-2], test the nearly-free equality
    d1^2 - d1*(2k-1) + (2k-1)^2 = node_tau*n2 + triple_tau*n3 + 1.  The
    default weights are the true local Tjurina numbers (1 per node, 4 per
    ordinary triple point); they are injectable so a deliberately falsified
    table can demonstrate that the scan does find counterexamples.
    """
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    counterexamples: list[dict] = []
    examined = 0
    for k in range(2, kmax + 1):
        budget = 2 * k * (k - 1)
        eta_const = (2 * k - 1) ** 2
        for n3 in range(budget // 3 + 1):
            n2 = budget - 3 * n3
            rhs = node_tau * n2 + triple_tau * n3 + 1
            for d1 in range(1, 2 * k - 1):
                examined += 1
                if d1 * d1 - d1 * (2 * k - 1) + eta_const == rhs:
                    counterexamples.append({"k": k, "n2": n2, "n3": n3, "d1": d1})
    return EnumerationCertificate(
        theorem="near",
        kmax=kmax,
        candidates_examined=examined,
        counterexamples=tuple(counterexamples),
    )


def _k_scan(
    theorem: str, kmax: int, upper: Callable[[int], int], last: int
) -> EnumerationCertificate:
    """Admissible component counts k in [2, kmax]; any k > last is a counterexample.

    The lower bound on d1 comes from the Arnold exponent 5/8 (attained by
    A7) through d1 >= (5/8)*d - 2 with d = 2k; the upper bound is upper(k).
    A component count is admissible when the integer interval is nonempty.
    """
    if kmax < last:
        raise ValueError(f"kmax must be at least {last}")
    admissible: list[int] = []
    intervals: dict[int, tuple[int, int]] = {}
    counterexamples: list[dict] = []
    for k in range(2, kmax + 1):
        lo, hi = math.ceil(Fraction(5, 8) * 2 * k - 2), upper(k)
        intervals[k] = (lo, hi)
        if lo <= hi:
            admissible.append(k)
            if k > last:
                counterexamples.append({"k": k, "interval": (lo, hi)})
    return EnumerationCertificate(
        theorem=theorem,
        kmax=kmax,
        candidates_examined=kmax - 1,
        counterexamples=tuple(counterexamples),
        admissible=tuple(admissible),
        intervals=intervals,
    )


def enumerate_theorem_char(kmax: int) -> EnumerationCertificate:
    """Admissible component counts for free arrangements: exactly {2, 3, 4}.

    Freeness requires d1 <= (d-1)/2; any admissible k > 4 would be a
    counterexample.
    """
    return _k_scan("char", kmax, lambda k: (2 * k - 1) // 2, 4)


def enumerate_nearly_free_bound(kmax: int) -> EnumerationCertificate:
    """Admissible component counts for nearly free arrangements: {2, .., 8}.

    Same scan as the freeness bound with the weaker upper bound d1 <= d/2.
    """
    return _k_scan("nfbound", kmax, lambda k: k, 8)


# ---------------------------------------------------------------------------
# Combinatorial supersolvability


@dataclass(frozen=True)
class IncidenceStructure:
    """Which components pass through which singular points."""

    points: tuple[str, ...]
    through: dict[str, frozenset[int]]

    def __post_init__(self) -> None:
        for pid in self.points:
            members = self.through.get(pid)
            if members is None:
                raise ValueError(f"point {pid!r} has no component set")
            if len(members) < 2:
                raise ValueError(f"point {pid!r} lies on fewer than 2 components")
            if any(i < 0 for i in members):
                raise ValueError("component indices are nonnegative")

    @classmethod
    def from_pairs(cls, pairs: list[tuple[str, set[int]]]) -> "IncidenceStructure":
        return cls(
            points=tuple(pid for pid, _ in pairs),
            through={pid: frozenset(members) for pid, members in pairs},
        )

    @classmethod
    def from_survey(cls, survey: LocusSurvey) -> "IncidenceStructure":
        if not survey.complete:
            raise ValueError(
                "geometric incidence needs a complete survey; supply incidence "
                "explicitly when residuals remain"
            )
        return cls.from_pairs(
            [(str(rec.point), set(rec.members)) for rec in survey.records]
        )

    @classmethod
    def parse(cls, text: str) -> "IncidenceStructure":
        """Parse lines of the form ``point <id>: components <i,j,...>``."""
        pairs: list[tuple[str, set[int]]] = []
        for lineno, line in content_lines(text):
            if not line.startswith("point"):
                raise ValueError(f"line {lineno}: expected 'point <id>: components ...'")
            head, _, tail = line.partition(":")
            pid = head[len("point") :].strip()
            tail = tail.strip()
            if not pid or not tail.startswith("components"):
                raise ValueError(f"line {lineno}: expected 'point <id>: components ...'")
            ids = tail[len("components") :].strip()
            members = {int(tok) for tok in ids.split(",") if tok.strip()}
            pairs.append((pid, members))
        if not pairs:
            raise ValueError("no incidence lines found")
        return cls.from_pairs(pairs)


def _id_sort_key(pid: str) -> tuple[int, int | str]:
    try:
        return (0, int(pid))
    except ValueError:
        return (1, pid)


def is_combinatorially_supersolvable(inc: IncidenceStructure) -> str | None:
    """Some point sharing a component with every other point, or None.

    Ties are broken by the smallest point id (numeric ids compare as
    numbers, other ids lexicographically).
    """
    for pid in sorted(inc.points, key=_id_sort_key):
        mine = inc.through[pid]
        if all(mine & inc.through[q] for q in inc.points):
            return pid
    return None
