"""The pencil table of an arrangement (poly.pencil_table), from which the
survey and the relation pool read their pencils.

One analysis keys each pair of conics once per table (the survey's
ConicArrangement.pencils and the context's JacobianContext.pencils) and
reads each pencil's double line at most once per table; and the table
itself shares one Pencil among the pairs of one pencil, with its members
sorted and its first pair its first two members.
"""

import importlib.util
import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicfree import poly
from conicfree.corpus import entry
from conicfree.locus import ConicArrangement
from conicfree.poly import pencil_key, pencil_table
from conicfree.report import analyze_curve

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _texts(name):
    if name.startswith("generic_k"):
        inputs = _load("bench_inputs", "perfbench/inputs.py")
        conics = inputs._generic_conics(random.Random(1), int(name[len("generic_k") :]))
        return [inputs.conic_text(q) for q in conics]
    if name == "partial_pencil_k6":
        return _load("bench_windows", "scripts/bench_windows.py").arrangements()[name]
    return entry(name).component_texts


# rank_one_member calls of one analyze_curve before the table: the survey
# and the pool each read the double lines they needed, the pool those of
# q_0's pencils and the survey that of each scanned pair with a residual
RANK_ONE_CALLS_BEFORE = {
    "generic_k3": 5,
    "generic_k4": 9,
    "pencil_four_points_m6": 1,
    "p4_four_conics": 5,
    "partial_pencil_k6": 16,
}


@pytest.mark.parametrize("name", sorted(RANK_ONE_CALLS_BEFORE))
def test_one_analysis_keys_each_pair_once_per_table_and_reads_each_double_line_at_most_once(
    name, monkeypatch
):
    """analyze_curve builds two tables, the survey's and the context's, so
    it keys at most 2 C(k, 2) pairs (before the table: C(k, 2) + k - 1,
    generic k = 4: 9, the pencil m = 6: 20); each table reads a pencil's
    double line at most once, from its first two members, so
    rank_one_member runs at most twice per pencil, never more often than
    before."""
    keys, ranks = [], []
    key, rank = poly.pencil_key, poly.rank_one_member
    monkeypatch.setattr(poly, "pencil_key", lambda *args: keys.append(args) or key(*args))
    monkeypatch.setattr(poly, "rank_one_member", lambda *args: ranks.append(args) or rank(*args))
    arr = ConicArrangement.from_texts(_texts(name))
    analyze_curve(arr.polynomial(), arrangement=arr)
    assert len(arr.pencils) == comb(arr.k, 2)
    assert len(keys) <= 2 * comb(arr.k, 2)
    pencils = {id(pencil): pencil for pencil in arr.pencils.values()}.values()
    firsts = [tuple(pencil.conics[i] for i in pencil.members[:2]) for pencil in pencils]
    assert set(ranks) <= set(firsts)
    assert all(ranks.count(pair) <= 2 for pair in firsts)
    assert len(ranks) <= RANK_ONE_CALLS_BEFORE[name]


_int_conics = st.tuples(*[st.integers(-3, 3)] * 6)


@settings(max_examples=100, deadline=None)
@given(
    bases=st.lists(_int_conics, min_size=2, max_size=3),
    weights=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=7),
)
def test_the_table_shares_one_pencil_per_key(bases, weights):
    """Conics drawn in a pencil or a net, so that pencils of several members
    are common, none zero and no two proportional.  Every pair has an
    entry, in the order of itertools.combinations; two pairs share a Pencil
    exactly when pencil_key gives them one key; its members are the sorted
    indices of its pairs, and its first pair is its first two members.
    Building the table reads no double line."""
    conics = []
    for ws in weights:
        q = tuple(sum(w * b[c] for w, b in zip(ws, bases)) for c in range(6))
        if any(q) and all(any(pencil_key(q, other)) for other in conics):
            conics.append(q)
    assume(len(conics) >= 2)
    table = pencil_table(conics)
    pairs = list(combinations(range(len(conics)), 2))
    assert list(table) == pairs
    for a, b in combinations(pairs, 2):
        same = pencil_key(conics[a[0]], conics[a[1]]) == pencil_key(conics[b[0]], conics[b[1]])
        assert (table[a] is table[b]) == same
    for pair, pencil in table.items():
        mine = [ij for ij in pairs if table[ij] is pencil]
        assert pencil.members == sorted({i for ij in mine for i in ij})
        assert mine[0] == tuple(pencil.members[:2])
        assert pencil._rank_one is None
