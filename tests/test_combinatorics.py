"""Counts, enumeration certificates, supersolvability."""

import dataclasses
import importlib.util
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree.combinatorics import (
    IncidenceStructure,
    WeakCombinatorialType,
    bezout_count_check,
    enumerate_nearly_free_bound,
    enumerate_theorem_char,
    enumerate_theorem_near,
    is_combinatorially_supersolvable,
    weak_type_from_survey,
)


def test_bezout_count_named_arrangements():
    assert bezout_count_check(WeakCombinatorialType(k=3, n2=2, t3=1, t7=2))
    assert bezout_count_check(WeakCombinatorialType(k=3, n3=1, t5=3))
    assert bezout_count_check(WeakCombinatorialType(k=4, n2=8, t7=4))
    assert not bezout_count_check(WeakCombinatorialType(k=3, n2=1, t3=1, t7=2))


def test_weak_type_from_complete_survey():
    from conicfree.locus import ConicArrangement, survey

    arr = ConicArrangement.from_texts(
        ["-3*x^2+x*y+y*z+z*x", "-3*y^2+x*y+y*z+z*x", "-3*z^2+x*y+y*z+z*x"]
    )
    weak = weak_type_from_survey(survey(arr))
    assert weak == WeakCombinatorialType(k=3, n3=1, t5=3)
    assert bezout_count_check(weak)


def test_near_scan_small_and_desk_scale():
    cert2 = enumerate_theorem_near(2)
    assert cert2.passed and cert2.candidates_examined > 0
    cert30 = enumerate_theorem_near(30)
    assert cert30.passed
    assert cert30.counterexamples == ()


def test_near_scan_negative_control_finds_planted_counterexamples():
    # A falsified triple-point weight must surface counterexamples,
    # demonstrating the scan actually exercises the equality.  Note the
    # weight 3 would NOT work as a control: it cancels the n3 dependence
    # and leaves a quadratic with negative discriminant for every k.
    mutated = enumerate_theorem_near(8, triple_tau=5)
    assert not mutated.passed
    assert {"k": 2, "n2": 1, "n3": 1, "d1": 1} in mutated.counterexamples
    no_signal = enumerate_theorem_near(12, triple_tau=3)
    assert no_signal.passed


def test_char_scan_intervals_and_admissible_set():
    cert = enumerate_theorem_char(20)
    assert cert.passed
    assert cert.admissible == (2, 3, 4)
    assert cert.intervals[4] == (3, 3)
    assert cert.intervals[5] == (5, 4)  # empty
    assert cert.intervals[6] == (6, 5)  # empty
    for kmax in (6, 10, 15):
        assert enumerate_theorem_char(kmax).admissible == (2, 3, 4)


def test_nearly_free_bound_scan():
    cert = enumerate_nearly_free_bound(20)
    assert cert.passed
    assert cert.admissible == tuple(range(2, 9))
    assert cert.intervals[8] == (8, 8)
    assert cert.intervals[9] == (10, 9)  # empty
    for kmax in (9, 14):
        assert enumerate_nearly_free_bound(kmax).admissible == tuple(range(2, 9))


def test_scan_preconditions():
    with pytest.raises(ValueError):
        enumerate_theorem_near(1)
    with pytest.raises(ValueError):
        enumerate_theorem_char(3)
    with pytest.raises(ValueError):
        enumerate_nearly_free_bound(7)


def _scan_bounds_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "scan_bounds.py"
    spec = importlib.util.spec_from_file_location("scan_bounds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_bounds_script_fails_on_a_falsified_scan(monkeypatch, capsys):
    """scripts/scan_bounds.py exits 0 on the true scans and 1 when the
    freeness scan reports a counterexample."""
    script = _scan_bounds_script()
    monkeypatch.setattr("sys.argv", ["scan_bounds.py", "12"])
    assert script.main() == 0

    def falsified(kmax):
        cert = enumerate_theorem_char(kmax)
        return dataclasses.replace(cert, counterexamples=({"k": 5, "interval": (5, 5)},))

    monkeypatch.setattr(script, "enumerate_theorem_char", falsified)
    assert script.main() == 1
    assert "FAILED" in capsys.readouterr().out


def test_supersolvable_single_point():
    inc = IncidenceStructure.from_pairs([("p", {0, 1, 2})])
    assert is_combinatorially_supersolvable(inc) == "p"


def test_supersolvable_two_base_points_smallest_id():
    inc = IncidenceStructure.from_pairs([("2", {0, 1, 2}), ("1", {0, 1, 2})])
    assert is_combinatorially_supersolvable(inc) == "1"


def test_supersolvable_generic_nodes_has_no_modular_point():
    pairs = [(f"p{i}{j}", {i, j}) for i, j in combinations(range(4), 2)]
    inc = IncidenceStructure.from_pairs(pairs)
    assert is_combinatorially_supersolvable(inc) is None


def test_incidence_parser_and_validation():
    inc = IncidenceStructure.parse(
        "# comment\npoint a: components 0, 1\npoint b: components 1,2\n"
    )
    assert inc.points == ("a", "b")
    assert inc.through["a"] == frozenset({0, 1})
    with pytest.raises(ValueError):
        IncidenceStructure.parse("point a: components 0\n")
    with pytest.raises(ValueError):
        IncidenceStructure.parse("garbage\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "point 1: components 0,1\npoint 2: components 1,2\npoint 1: components 2,3\n",
            "line 3: point '1' is given twice",
        ),
        (
            "point a: components 0,1\npoint b: components 1,x\n",
            "line 2: component indices are nonnegative integers, got '1,x'",
        ),
        (
            "# negative\npoint a: components -1,2\n",
            "line 2: component indices are nonnegative integers, got '-1,2'",
        ),
    ],
)
def test_incidence_parser_names_the_bad_line(text, message):
    with pytest.raises(ValueError) as caught:
        IncidenceStructure.parse(text)
    assert str(caught.value) == message


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_points=st.integers(2, 6),
    n_comps=st.integers(2, 5),
)
def test_supersolvable_invariant_under_relabeling(data, n_points, n_comps):
    point_ids = [f"q{i}" for i in range(n_points)]
    through = {}
    for pid in point_ids:
        members = data.draw(
            st.sets(st.integers(0, n_comps - 1), min_size=2, max_size=n_comps)
        )
        through[pid] = members
    inc = IncidenceStructure.from_pairs([(p, through[p]) for p in point_ids])
    base = is_combinatorially_supersolvable(inc) is not None

    comp_perm = data.draw(st.permutations(range(n_comps)))
    point_perm = data.draw(st.permutations(point_ids))
    relabeled = IncidenceStructure.from_pairs(
        [(new_id, {comp_perm[c] for c in through[old_id]})
         for new_id, old_id in zip(point_ids, point_perm)]
    )
    assert (is_combinatorially_supersolvable(relabeled) is not None) == base
