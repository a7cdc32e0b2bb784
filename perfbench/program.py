"""The library calls a user's command makes, looked up through module attributes.

Every call goes through the module attribute (``report.analyze_curve``, not
a name imported here), so the traced run's wrappers see it exactly where the
program's own callers would.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no conicfree sources to measure."""


def import_program() -> SimpleNamespace:
    """Import conicfree from this checkout's ``src`` and nowhere else."""
    if not (SRC / "conicfree" / "__init__.py").is_file():
        raise ProgramMissing(f"no conicfree package under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("poly", "locus", "report", "combinatorics", "corpus", "linalg")
    mods = {n: importlib.import_module(f"conicfree.{n}") for n in names}
    origin = Path(mods["poly"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"conicfree was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def build_objects(mods: SimpleNamespace, item: dict) -> tuple:
    """Set-up work: text -> (polynomial, arrangement or None)."""
    if item.get("poly") is not None:
        return mods.poly.parse_polynomial(item["poly"]), None
    arr = mods.locus.ConicArrangement.from_texts(item["texts"])
    return arr.polynomial(), arr


def analyze_json(mods: SimpleNamespace, item: dict, f, arr) -> str:
    """``conicfree analyze --json``: analyze_curve -> analysis_document -> to_json."""
    analysis = mods.report.analyze_curve(
        f,
        arrangement=arr,
        source=item["source"],
        assume_qh=item.get("assume_qh", False),
    )
    doc = mods.report.analysis_document(analysis, provenance=item.get("provenance"))
    return mods.report.to_json(doc)


def supersolvable(mods: SimpleNamespace, item: dict, f, arr) -> tuple:
    """``conicfree supersolvable``: survey -> from_survey -> modular point search.

    Like the command, an incomplete survey stops before the incidence step.
    """
    sv = mods.locus.survey(arr, assume_qh=False)
    if not sv.complete:
        return sv, None
    inc = mods.combinatorics.IncidenceStructure.from_survey(sv)
    return sv, mods.combinatorics.is_combinatorially_supersolvable(inc)
