#!/usr/bin/env python3
"""Tabulate the admissible relation-degree intervals behind the k-bounds.

For each component count k the freeness criterion needs the minimal relation
degree d1 to satisfy both ceil((5/8)*2k - 2) <= d1 (Arnold exponent 5/8
through the Dimca-Sernesi bound) and d1 <= (d-1)/2, while near freeness
relaxes the upper bound to d/2.  The intervals empty out at k = 5 and k = 9
respectively, which is the whole content of the component-count bounds.
Exits 1 unless both scans pass: the admissible k are {2, 3, 4} for
freeness and {2, .., 8} for near freeness.

Usage: python scripts/scan_bounds.py [KMAX]
"""

import sys

from conicfree.combinatorics import enumerate_nearly_free_bound, enumerate_theorem_char


def main() -> int:
    kmax = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    char = enumerate_theorem_char(max(kmax, 4))
    nf = enumerate_nearly_free_bound(max(kmax, 8))
    print(f"{'k':>3s} {'free interval':>16s} {'nearly free interval':>22s}")
    for k in range(2, kmax + 1):
        lo_f, hi_f = char.intervals[k]
        lo_n, hi_n = nf.intervals[k]

        def fmt(lo: int, hi: int) -> str:
            return f"[{lo}, {hi}]" if lo <= hi else f"[{lo}, {hi}] empty"

        print(f"{k:3d} {fmt(lo_f, hi_f):>16s} {fmt(lo_n, hi_n):>22s}")
    print(f"\nadmissible for freeness: {list(char.admissible)}")
    print(f"admissible for near freeness: {list(nf.admissible)}")
    expected = char.admissible == (2, 3, 4) and nf.admissible == tuple(range(2, 9))
    if char.passed and nf.passed and expected:
        return 0
    print("FAILED: the admissible k are not {2, 3, 4} and {2, .., 8}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
