#!/usr/bin/env python3
"""Time the Hilbert window (``hilbert_profile``) and the survey of two checkouts on large inputs.

Inputs: the pencil through four general points with m = 7 and 8 members
(d = 14, 16; built as ``corpus.pencil_four_points`` builds m <= 6), the
generic arrangements of k = 5..8 and 10 dense conics drawn by the
benchmark's ``perfbench/inputs.py`` (``_generic_conics``) from a fresh
``random.Random(12345)`` for each k, the k = 8 one at two heights: each
coefficient c at position i of a conic becomes c * s + (i mod 3) for
s = 10^6 and 10^12, and four inputs with each coefficient c made
c + (i mod 3) (``shifted_texts``): k = 7 seed 4 (a D4 triple point), k = 8
seeds 4 and 19 (an ordinary quadruple point), on which the relation bound
of the window needs leading terms above degree d-1, and k = 12 seed 12345
(an ordinary quadruple point), whose walk lifts a 1081 x 828 kernel at
d-2.  Then the class the paper studies: a ladder of tangent arrangements
for k = 4..6 from one seed (``tangent_texts``), the first conic plus
lam * (line)^2, where the relation walk lifts its kernel at d1 = d-3 and
the multiples of those generators close the bound at d-2, and one
arrangement of k = 5 conics with an A7 point (``a7_texts``).  The special points are the
ones the pencil relations do not cover, so these inputs measure relations
of the sub-arrangement at each point.  Last, a partial pencil: the two
pencil conics above, their sum, and the first three generic conics of
``random.Random(12345)`` (k = 6), whose pencil of three members gives a
relation at d1 = d-4, so the walk lifts no kernel.  Every context is
built with the arrangement's integer conics, as ``analyze_curve`` builds
it, so both checkouts must take them in ``JacobianContext.for_curve``.

    python scripts/bench_windows.py --before OLD/src --out BENCH.json [--after NEW/src]

``--after`` defaults to this checkout's ``src``.  Every timing runs in a
fresh process that imports ``conicfree`` from one checkout, builds the
curve, and times one ``hilbert_profile`` call on a fresh context (``s``,
comparable with the earlier BENCH files), then ``mdr`` followed by
``hilbert_profile`` on a second fresh context, the order ``analyze_curve``
runs them in (``pipeline_s``), then one ``survey`` of the arrangement
(``survey_s``); the two checkouts alternate run by run, so drift in the
machine's speed falls on both alike.  Each input is run REPEATS times per
side.  Wall-clock medians of so few runs cannot resolve a change of a few
ms, so each child then also takes the CPU time (``time.process_time``) of
mdr plus the window on a fresh context and of the survey of a freshly
parsed arrangement, the best of BEST_OF runs each (``pipeline_cpu_s``,
``survey_cpu_s``); the best over all runs of a side is kept beside the
medians.  Beside them each child counts the ``locus._pair_scan`` calls of
one more, untimed survey (``pair_scans``): a survey CPU time that moves
while this count repeats moved with the machine, not with the survey's
path.  The JSON file holds the machine's description, every time, the
windows, taus, d1, survey inventories, completeness and pair-scan counts of
both checkouts, the (rows, cols) of each kernel that
``linalg.kernel_basis_certified`` lifts in the timed mdr and window
(``lifts``), and per input the speedup
of the window (median before / median after), that of the survey's best
CPU time, and whether the lifts moved.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PENCIL_F = "3*x^2+y^2-4*z^2"
PENCIL_G = "x^2+3*y^2-4*z^2"
GENERIC_SEED = 12345
HEIGHTS = {"1e6": 10**6, "1e12": 10**12}  # the scales of the height inputs, by name
SHIFTED_SEEDS = ((7, 4), (8, 4), (8, 19), (12, 12345))  # (k, seed) of the shifted inputs at scale 1
TANGENT_SEED = 1  # the seed of the tangent ladder, k = 4..6
A7_SEED = 3  # the seed of the k = 5 arrangement with an A7 point
REPEATS = 3  # runs per side, for every input
BEST_OF = 5  # CPU-timed runs of mdr plus the window, and of the survey, in each child


@cache
def _inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def shifted_texts(k: int, seed: int, scale: int = 1) -> list[str]:
    """The generic k conics of random.Random(seed), each coefficient c at
    position i of a conic made c * scale + (i mod 3)."""
    inputs = _inputs()
    conics = inputs._generic_conics(random.Random(seed), k)
    return [inputs.conic_text(tuple(c * scale + i % 3 for i, c in enumerate(q))) for q in conics]


def tangent_texts(k: int, seed: int) -> list[str]:
    """A dense conic q drawn by _generic_conics from random.Random(seed),
    then k - 1 conics q + lam * L^2 from the same generator, L a line with
    coefficients in [-3, 3] and lam in 1..3, each smooth and new.  Each
    touches q where L meets it: two A3 points, or one A7 point where L is
    tangent to q.  The arrangement of k is the first k of the one of k + 1."""
    inputs = _inputs()
    rng = random.Random(seed)
    conics = inputs._generic_conics(rng, 1)
    while len(conics) < k:
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        lam = rng.randint(1, 3)
        square = (a * a, b * b, c * c, 2 * a * b, 2 * a * c, 2 * b * c)
        q = tuple(u + lam * v for u, v in zip(conics[0], square))
        if inputs.conic_det(q) and not any(inputs.proportional(q, p) for p in conics):
            conics.append(q)
    return [inputs.conic_text(q) for q in conics]


def a7_texts(k: int, seed: int) -> list[str]:
    """A smooth conic q through (0:0:1) (coefficients in [-5, 5], no z^2
    term) from random.Random(seed), then q + lam * T^2, T = xz*x + yz*y its
    tangent line at (0:0:1), then k - 2 conics q + lam * L^2 as in
    tangent_texts, L not through (0:0:1), lam in 1..3, each smooth and new.
    T^2 meets q only at (0:0:1), with multiplicity 4: an A7 point of q and
    q + lam * T^2, where no other conic passes."""
    inputs = _inputs()
    rng = random.Random(seed)
    q = (0,) * 6
    while not inputs.conic_det(q):
        q = tuple(rng.randint(-5, 5) if i != 2 else 0 for i in range(6))
    conics, (a, b, c) = [q], (q[4], q[5], 0)
    while len(conics) < k:
        lam = rng.randint(1, 3)
        square = (a * a, b * b, c * c, 2 * a * b, 2 * a * c, 2 * b * c)
        p = tuple(u + lam * v for u, v in zip(q, square))
        if inputs.conic_det(p) and not any(inputs.proportional(p, r) for r in conics):
            conics.append(p)
        if len(conics) > 1:  # T until its conic is in, then lines off (0:0:1)
            a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))
    return [inputs.conic_text(p) for p in conics]


def arrangements() -> dict[str, list[str]]:
    """Input name -> component conic texts."""
    out = {}
    for m in (7, 8):
        pencil = [PENCIL_F, PENCIL_G]
        pencil += [f"({PENCIL_F})+{lam}*({PENCIL_G})" for lam in range(1, m - 1)]
        out[f"pencil_four_points_m{m}"] = pencil
    inputs = _inputs()
    for k in (5, 6, 7, 8, 10):
        conics = inputs._generic_conics(random.Random(GENERIC_SEED), k)
        out[f"generic_k{k}"] = [inputs.conic_text(q) for q in conics]
    for tag, scale in HEIGHTS.items():
        out[f"generic_k8_s{tag}"] = shifted_texts(8, GENERIC_SEED, scale)
    for k, seed in SHIFTED_SEEDS:
        out[f"generic_k{k}_seed{seed}"] = shifted_texts(k, seed)
    for k in (4, 5, 6):
        out[f"tangent_k{k}"] = tangent_texts(k, TANGENT_SEED)
    out["a7_k5"] = a7_texts(5, A7_SEED)
    generic = inputs._generic_conics(random.Random(GENERIC_SEED), 3)
    partial = [PENCIL_F, PENCIL_G, f"({PENCIL_F})+({PENCIL_G})"]
    out["partial_pencil_k6"] = partial + [inputs.conic_text(q) for q in generic]
    return out


def time_one(src: str, name: str) -> dict:
    """Run in a child process: the timed window of one input, then mdr and the
    window, whose lifted kernels it records, then the survey of the
    arrangement; then the best CPU time of BEST_OF runs of mdr and the
    window, and of BEST_OF surveys; last the pair scans of one survey."""
    sys.path.insert(0, src)
    from conicfree import linalg, locus
    from conicfree.jacobian import JacobianContext, hilbert_profile, mdr
    from conicfree.locus import ConicArrangement, survey
    from conicfree.poly import parse_polynomial

    texts = arrangements()[name]
    f = parse_polynomial("*".join(f"({t})" for t in texts))
    arr = ConicArrangement.from_texts(texts)
    conics = [q.integer for q in arr.components]
    ctx = JacobianContext.for_curve(f, conics)
    t0 = time.perf_counter()
    profile = hilbert_profile(ctx)
    seconds = time.perf_counter() - t0
    ctx = JacobianContext.for_curve(f, conics)
    lifts, lift = [], linalg.kernel_basis_certified
    linalg.kernel_basis_certified = lambda matrix: lifts.append([matrix.rows, matrix.cols]) or lift(
        matrix
    )
    t0 = time.perf_counter()
    witness = mdr(ctx)
    hilbert_profile(ctx)
    pipeline = time.perf_counter() - t0
    linalg.kernel_basis_certified = lift
    t0 = time.perf_counter()
    sv = survey(arr)
    survey_seconds = time.perf_counter() - t0
    pipeline_cpu, survey_cpu = [], []
    for _ in range(BEST_OF):
        ctx = JacobianContext.for_curve(f, conics)
        t0 = time.process_time()
        mdr(ctx)
        hilbert_profile(ctx)
        pipeline_cpu.append(time.process_time() - t0)
        fresh = ConicArrangement.from_texts(texts)
        t0 = time.process_time()
        survey(fresh)
        survey_cpu.append(time.process_time() - t0)
    scans, scan = [], locus._pair_scan
    locus._pair_scan = lambda *args: scans.append(1) or scan(*args)
    survey(ConicArrangement.from_texts(texts))
    locus._pair_scan = scan
    return {
        "d": ctx.d,
        "d1": witness.r,
        "window": [list(w) for w in profile.window],
        "tau": profile.tau,
        "inventory": sv.inventory(),
        "complete": sv.complete,
        "s": seconds,
        "pipeline_s": pipeline,
        "survey_s": survey_seconds,
        "pipeline_cpu_s": min(pipeline_cpu),
        "survey_cpu_s": min(survey_cpu),
        "pair_scans": len(scans),
        "lifts": lifts,
    }


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(time_one(*sys.argv[2:4])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="src directory of the baseline checkout")
    parser.add_argument("--after", default=str(ROOT / "src"), help="src directory to compare")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    sides = {"before": args.before, "after": args.after}
    runs: dict[str, dict] = {side: {} for side in sides}
    for name in arrangements():
        for _ in range(REPEATS):
            for side, src in sides.items():
                child = [sys.executable, __file__, "--child", src, name]
                out = subprocess.run(child, check=True, capture_output=True, text=True).stdout
                result = json.loads(out)
                entry = runs[side].setdefault(
                    name,
                    {
                        k: result[k]
                        for k in ("d", "d1", "window", "tau", "inventory", "complete")
                        + ("lifts", "pair_scans")
                    }
                    | {
                        "seconds": [],
                        "pipeline_seconds": [],
                        "survey_seconds": [],
                        "pipeline_cpu_seconds": [],
                        "survey_cpu_seconds": [],
                    },
                )
                entry["seconds"].append(round(result["s"], 3))
                entry["pipeline_seconds"].append(round(result["pipeline_s"], 3))
                entry["survey_seconds"].append(round(result["survey_s"], 5))
                entry["pipeline_cpu_seconds"].append(round(result["pipeline_cpu_s"], 5))
                entry["survey_cpu_seconds"].append(round(result["survey_cpu_s"], 6))
        for side in sides:
            entry = runs[side][name]
            entry["median_s"] = round(statistics.median(entry["seconds"]), 3)
            entry["median_pipeline_s"] = round(statistics.median(entry["pipeline_seconds"]), 3)
            entry["median_survey_s"] = round(statistics.median(entry["survey_seconds"]), 5)
            entry["best_pipeline_cpu_s"] = min(entry["pipeline_cpu_seconds"])
            entry["best_survey_cpu_s"] = min(entry["survey_cpu_seconds"])
            print(f"{side:6s} {name:24s} tau={entry['tau']} d1={entry['d1']} median "
                  f"{entry['median_s']} s, with mdr {entry['median_pipeline_s']} s, "
                  f"survey {entry['median_survey_s']} s; best CPU with mdr "
                  f"{entry['best_pipeline_cpu_s']} s, survey {entry['best_survey_cpu_s']} s "
                  f"({entry['pair_scans']} pair scans)",
                  flush=True)

    doc = {
        "what": "seconds of one hilbert_profile call per input on a fresh context (seconds), "
        "of mdr then hilbert_profile on another (pipeline_seconds), and of one survey of "
        "the arrangement (survey_seconds), each input in a fresh process; the two "
        "checkouts alternate run by run; then in each process the best CPU seconds of "
        f"{BEST_OF} runs of mdr then hilbert_profile on fresh contexts "
        f"(pipeline_cpu_seconds) and of {BEST_OF} surveys of freshly parsed "
        "arrangements (survey_cpu_seconds), and per side the best of these "
        "(best_pipeline_cpu_s, best_survey_cpu_s); pair_scans counts the "
        "locus._pair_scan calls of one more survey in the process",
        "machine": machine(),
        "runs": runs,
        "speedup": {
            name: round(runs["before"][name]["median_s"] / runs["after"][name]["median_s"], 1)
            for name in runs["after"]
        },
        "survey_cpu_speedup": {
            name: round(
                runs["before"][name]["best_survey_cpu_s"] / runs["after"][name]["best_survey_cpu_s"],
                2,
            )
            for name in runs["after"]
        },
        "same_window": {
            name: runs["before"][name]["window"] == runs["after"][name]["window"]
            for name in runs["after"]
        },
        "same_lifts": {
            name: runs["before"][name]["lifts"] == runs["after"][name]["lifts"]
            for name in runs["after"]
        },
        "same_survey": {
            name: all(
                runs["before"][name][k] == runs["after"][name][k] for k in ("inventory", "complete")
            )
            for name in runs["after"]
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
