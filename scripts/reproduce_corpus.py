#!/usr/bin/env python3
"""Recompute every number the built-in corpus claims, end to end.

Prints a table of the freeness data (degree, minimal relation degree, total
Tjurina number, defect, verdict) for all corpus curves, runs the three
enumeration certificates, replays the tacnode deformation check, and exits
nonzero if anything disagrees with the recorded expectations.  Each entry
is analyzed once; the table, the deformation check and the regression all
read its analysis document (the one ``conicfree analyze --json`` prints).
"""

import sys
import time

from conicfree.combinatorics import (
    enumerate_nearly_free_bound,
    enumerate_theorem_char,
    enumerate_theorem_near,
)
from conicfree.corpus import RegressionTable, analyze_entry, check_entry, corpus_entries
from conicfree.report import analysis_document, deformation_document, render_deformation


def freeness_table() -> dict[str, dict]:
    print(f"{'entry':28s} {'d':>3s} {'d1':>3s} {'tau':>4s} {'nu':>3s}  verdict")
    docs = {}
    for e in corpus_entries():
        t0 = time.time()
        doc = docs[e.name] = analysis_document(analyze_entry(e))
        fr = doc["freeness"]
        print(
            f"{e.name:28s} {doc['input']['degree']:3d} {doc['mdr']['d1']:3d} "
            f"{doc['tjurina']['stabilized']:4d} {fr['nu']:3d}  {fr['verdict']:12s} "
            f"({time.time() - t0:.1f}s)"
        )
    return docs


def deformation_demo(docs: dict[str, dict]) -> bool:
    doc = deformation_document(docs["persson_triconical"], docs["persson_deformed"])
    print("\n" + render_deformation(doc))
    return doc["passed"]


def certificates() -> bool:
    near = enumerate_theorem_near(30)
    char = enumerate_theorem_char(20)
    nf = enumerate_nearly_free_bound(20)
    print("\nenumeration certificates:")
    print(
        f"  nodes+triples never nearly free (k <= 30): "
        f"{'PASS' if near.passed else 'FAIL'} "
        f"({near.candidates_examined} candidates)"
    )
    print(f"  free component counts: admissible {list(char.admissible)}")
    print(f"  nearly free component counts: admissible {list(nf.admissible)}")
    return near.passed and char.admissible == (2, 3, 4) and nf.admissible == tuple(range(2, 9))


def main() -> int:
    t0 = time.time()
    docs = freeness_table()
    ok = deformation_demo(docs)
    ok = certificates() and ok
    print("\nfull field-level regression against recorded expectations:")
    table = RegressionTable(
        rows=tuple(row for e in corpus_entries() for row in check_entry(e, docs[e.name]))
    )
    failures = table.failures()
    for row in failures:
        print(f"  FAIL {row.entry} {row.field}: expected {row.expected}, got {row.got}")
    print(
        f"  {len(table.rows)} checks, {len(failures)} failures "
        f"({time.time() - t0:.1f}s total)"
    )
    return 0 if (ok and table.passed) else 1


if __name__ == "__main__":
    sys.exit(main())
