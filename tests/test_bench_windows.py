"""scripts/bench_windows.py: one timed window reproduces the one recorded in BENCH_6.json,
with the curve's d1, a timed mdr plus window with its lifted kernels, a timed
survey and the best CPU times of both, on contexts that carry the
arrangement's conics, and the survey's pair-scan count; the tangent ladder
lifts no kernel."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_windows", ROOT / "scripts" / "bench_windows.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


D1 = {"pencil_four_points_m7": 2, "generic_k5": 8}
# the generic conics meet in four transverse points per pair, one of them rational
INVENTORY = {"pencil_four_points_m7": {"ordinary(7)": 4}, "generic_k5": {"A1": 1}}
# the survey scans the pencil's first pair alone, and every generic pair
PAIR_SCANS = {"pencil_four_points_m7": 1, "generic_k5": 10}


@pytest.mark.parametrize("name", ["pencil_four_points_m7", "generic_k5"])
def test_time_one_returns_the_recorded_window(name, monkeypatch):
    """The generic input takes its kernel at d-2 from the pair relations of
    its conics, and the pencil its kernel at d1 = 2 from the pencil's
    relation there, so no timed walk lifts one."""
    from conicfree import linalg

    monkeypatch.setattr(sys, "path", list(sys.path))  # time_one puts src first
    lifts = []
    original = linalg.kernel_basis_certified

    def spy(matrix):
        lifts.append(matrix.cols)
        return original(matrix)

    monkeypatch.setattr(linalg, "kernel_basis_certified", spy)
    recorded = json.loads((ROOT / "BENCH_6.json").read_text())["runs"]["after"][name]
    result = _script().time_one(str(ROOT / "src"), name)
    assert lifts == []
    # the child records the lifts of the timed mdr and window: the second walk
    assert result["lifts"] == []
    assert {k: result[k] for k in ("d", "window", "tau")} == {
        k: recorded[k] for k in ("d", "window", "tau")
    }
    assert result["d1"] == D1[name]
    assert result["s"] > 0 and result["pipeline_s"] > 0 and result["survey_s"] > 0
    assert result["pipeline_cpu_s"] > 0 and result["survey_cpu_s"] > 0
    assert result["pair_scans"] == PAIR_SCANS[name]
    assert result["inventory"] == INVENTORY[name]
    assert result["complete"] == (name == "pencil_four_points_m7")


def test_the_tangent_ladder_takes_its_kernels_from_the_double_line_pencils(monkeypatch):
    """The ladder's arrangements are nested, and each has d1 = d-3.  Each
    conic after q_0 spans a pencil with it that holds a double line L^2, so
    rho_L = grad q_0 x grad L, lifted by the other conics, is a candidate
    at d-3, and theta one at d-2 where L is tangent to q_0: the walk takes
    its kernel at d1 from them, and no kernel is lifted at all."""
    from conicfree import linalg
    from conicfree.locus import ConicArrangement
    from conicfree.report import analyze_curve

    script = _script()
    lifts = []
    original = linalg.kernel_basis_certified
    monkeypatch.setattr(
        linalg, "kernel_basis_certified", lambda matrix: lifts.append(matrix.cols) or original(matrix)
    )
    ladder = [script.tangent_texts(k, script.TANGENT_SEED) for k in (4, 5, 6)]
    assert ladder[0] == ladder[1][:4] and ladder[1] == ladder[2][:5]
    for texts in ladder:
        arr = ConicArrangement.from_texts(texts)
        d = 2 * arr.k
        lifts.clear()
        analysis = analyze_curve(arr.polynomial(), arrangement=arr)
        assert analysis.witness.r == d - 3
        assert lifts == []


def test_the_survey_scans_each_pencil_once(monkeypatch):
    """Every pair is keyed by its pencil, once.  The 8-member pencil (the
    one of test_locus's
    test_survey_scans_one_pair_of_a_pencil_and_of_a_contact_pair) and the
    7-member one take one pair scan instead of 28 and 21; the partial
    pencil, whose three pencil conics share four base points, takes 13 of
    its 15.  The generic arrangements of k = 5..8 span a pencil per pair
    and scan all of them.  The 8 members (x^2 - 2z^2) + lam*(y^2 - 3z^2),
    whose four base points are all irrational, take one scan too."""
    import conicfree.locus as locus
    from conicfree.locus import ConicArrangement, survey

    script = _script()
    texts = script.arrangements()
    pencil = [script.PENCIL_F, script.PENCIL_G]
    assert texts["pencil_four_points_m8"] == pencil + [
        f"({script.PENCIL_F})+{lam}*({script.PENCIL_G})" for lam in range(1, 7)
    ]
    texts["irrational_pencil_m8"] = [f"(x^2-2*z^2)+{lam}*(y^2-3*z^2)" for lam in range(1, 9)]
    scans, keys = [], []
    scan, key = locus._pair_scan, locus.pencil_key
    monkeypatch.setattr(locus, "_pair_scan", lambda *args: scans.append(args) or scan(*args))
    monkeypatch.setattr(locus, "pencil_key", lambda *args: keys.append(args) or key(*args))
    expected = {
        "pencil_four_points_m7": (1, 21),
        "pencil_four_points_m8": (1, 28),
        "partial_pencil_k6": (13, 15),
        "irrational_pencil_m8": (1, 28),
    } | {f"generic_k{k}": (k * (k - 1) // 2,) * 2 for k in (5, 6, 7, 8)}
    for name, counts in expected.items():
        scans.clear()
        keys.clear()
        survey(ConicArrangement.from_texts(texts[name]))
        assert (len(scans), len(keys)) == counts, name
