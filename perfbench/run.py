"""conicfree benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload corpus|generic|planted --seed N \
        --seconds S --trace 0|1 [--record-golden]

Run from the root of a checkout that holds ``src/conicfree``; the program is
imported from there and nowhere else.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any failed input makes the exit code 1.  Details of each run
(environment, per-input times, digests, spans) go to ``perfbench/out/``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import oracles
import spans
from program import (
    ROOT,
    SRC,
    ProgramMissing,
    analyze_json,
    build_objects,
    import_program,
    supersolvable,
)
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 30
WORKLOADS = ("corpus", "generic", "planted")
SINGLE_BATCH = ("corpus", "generic")
GOLDEN_DIGITS = 16  # hex digits of SHA-256 kept per generated input


# ---------------------------------------------------------------------------
# Inputs


def batch_items(mods, workload: str, seed: int, batch: int) -> list[dict]:
    if workload == "corpus":
        return [
            {
                "id": e.name,
                "kind": "analyze",
                "texts": list(e.component_texts) if e.component_texts else None,
                "poly": e.polynomial_text,
                "source": f"corpus:{e.name}",
                "assume_qh": e.assume_qh,
                "provenance": dict(e.provenance),
                "expect": e.expected,
            }
            for e in mods.corpus.corpus_entries()
        ]
    if workload == "generic":
        items = inputs.generic_inputs(seed, batch)
        for item in items:
            item["source"] = f"generic:{seed}:{item['id']}"
        return items
    return inputs.planted_inputs(seed, batch)


def golden_key(workload: str, seed: int, item: dict) -> str:
    return item["id"] if workload == "corpus" else f"{seed}/{item['id']}"


def golden_digest(workload: str, digest: str) -> str:
    """The corpus keeps whole digests; generated inputs keep a prefix."""
    return digest if workload == "corpus" else digest[:GOLDEN_DIGITS]


# ---------------------------------------------------------------------------
# Measurement


class Runner:
    """Processes batches of one workload, timing each input's command chain.

    With a speed probe, each input's ``seconds`` is its raw time divided by
    the machine's slowness around it (see speed.py); ``raw_seconds`` keeps
    the time as measured.  Without one the two are the same.
    """

    def __init__(self, mods, workload: str, seed: int, golden: dict, tracer=None, probe=None):
        self.mods = mods
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.tracer = tracer
        self.probe = probe
        self.records: list[dict] = []

    def _phase(self, item_id: str | None, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.input_id = item_id
            self.tracer.phase = phase

    def _check(self, item: dict, output, f) -> tuple[str, list[str]]:
        mods = self.mods
        if item["kind"] == "analyze":
            doc = json.loads(output)
            text = output
            if self.workload == "corpus":

                def germ_tau(point_text: str):
                    point = mods.poly.ProjectivePoint.parse(point_text)
                    return mods.corpus.diagonal_germ_tau(mods.poly.dehomogenize(f, point))

                problems = oracles.check_corpus(item, doc, germ_tau)
            else:
                problems = oracles.check_generic(item, doc)
        else:
            sv, modular = output
            text = oracles.render_survey(sv, modular)
            problems = oracles.check_planted(item, sv, modular)
        full = oracles.digest(text)
        key = golden_key(self.workload, self.seed, item)
        expected = self.golden.get(key)
        if expected is not None and golden_digest(self.workload, full) != expected:
            problems.append(f"output digest {full} does not match golden {expected}")
        return full, problems

    def run_batch(self, batch: int, items: list[dict]) -> None:
        chain = analyze_json if items[0]["kind"] == "analyze" else supersolvable
        for item in items:
            rec = {"id": item["id"], "batch": batch, "golden_key": golden_key(
                self.workload, self.seed, item)}
            try:
                self._phase(item["id"], "setup")
                f, arr = build_objects(self.mods, item)
                self._phase(item["id"], "run")
                spent = self.probe.spent if self.probe else 0.0
                t0 = time.perf_counter()
                output = chain(self.mods, item, f, arr)
                t1 = time.perf_counter()
                if self.probe:
                    spent = self.probe.spent - spent
                rec["interval"] = (t0, t1)
                rec["raw_seconds"] = rec["seconds"] = t1 - t0 - spent
                self._phase(item["id"], "check")
                rec["digest"], rec["problems"] = self._check(item, output, f)
            except Exception:  # an input that raises is a failed input, not a dead run
                rec.setdefault("seconds", None)
                rec.setdefault("raw_seconds", None)
                rec["digest"] = None
                rec["problems"] = [traceback.format_exc()]
            finally:
                self._phase(None, "idle")
            self.records.append(rec)

    def run(self, seconds: float, batches: int | None = None) -> int:
        """Process whole batches until `seconds` pass (or exactly `batches`).

        No input may repeat within a run.  The corpus and generic workloads
        are one batch each (the corpus is fixed, and every generic batch
        holds the same fixed-seed octic); planted draws a fresh batch from
        the seed each time.
        """
        if self.probe:
            self.probe.burst()
            self.probe.start()
        try:
            batch = self._run_batches(seconds, batches)
        finally:
            if self.probe:
                self.probe.stop()
                self.probe.burst()
        if self.probe:
            for r in self.records:
                if r["seconds"] is not None:
                    r["seconds"] = r["raw_seconds"] / self.probe.factor(*r["interval"])
        return batch

    def _run_batches(self, seconds: float, batches: int | None) -> int:
        start = time.perf_counter()
        batch = 0
        while True:
            self.run_batch(batch, batch_items(self.mods, self.workload, self.seed, batch))
            batch += 1
            if self.workload in SINGLE_BATCH or batch == batches:
                return batch
            if batches is None and time.perf_counter() - start >= seconds:
                return batch

    # summaries over the records

    def batch_walls(self) -> list[float]:
        walls: dict[int, float] = {}
        for r in self.records:
            walls[r["batch"]] = walls.get(r["batch"], 0.0) + (r["seconds"] or 0.0)
        return [walls[b] for b in sorted(walls)]

    def batch_maxima(self) -> list[float]:
        tops: dict[int, float] = {}
        for r in self.records:
            tops[r["batch"]] = max(tops.get(r["batch"], 0.0), r["seconds"] or 0.0)
        return [tops[b] for b in sorted(tops)]


def measure_setup(items: list[dict]) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter to `items` built into objects.

    Each child (setup_child.py) imports conicfree, builds the objects and
    reports when it was done and how slow the machine was right then, so
    interpreter start-up counts and interpreter shut-down does not.
    Returns the measured times and the slowness of each child.
    """
    payload = json.dumps([{"texts": i.get("texts"), "poly": i.get("poly")} for i in items])
    times, slowness = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            input=payload,
            text=True,
            cwd=ROOT,
            check=True,
            timeout=SETUP_TIMEOUT_S,
            capture_output=True,
        )
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(report["ready"] - t0)
        slowness.append(report["slowness"])
    return times, slowness


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "conicfree").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Main


def end_to_end(runner: Runner, setup_times: list[float], setup_slowness: list[float]) -> dict:
    times = [r["seconds"] for r in runner.records if r["seconds"] is not None]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {
            "value": statistics.median(t / f for t, f in zip(setup_times, setup_slowness)),
            "unit": "s",
        },
        "wall_s": {"value": statistics.median(runner.batch_walls()), "unit": "s"},
        "input_p50_s": {"value": statistics.median(times), "unit": "s"},
        # a batch's maximum is one extreme draw, so average them rather than
        # keep only the middle one (spread 0.11, not 0.18, over ten planted seeds)
        "input_max_s": {"value": statistics.mean(runner.batch_maxima()), "unit": "s"},
        "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB"},
    }


def per_layer(mods, plain: Runner, traced: Runner, tracer: spans.Tracer) -> dict:
    cutoff = getattr(mods.linalg, "_MOD_THRESHOLD", None)
    if cutoff is None:
        tracer.missing["linalg.cutoff"] = ["conicfree.linalg._MOD_THRESHOLD"]
    values = spans.layer_metrics(
        tracer, sum(traced.batch_walls()), sum(plain.batch_walls()), cutoff
    )
    metrics = {}
    for name, (value, unit, sources) in values.items():
        gone = [t for s in sources for t in tracer.missing.get(s, [])]
        if gone:
            metrics[name] = {"value": None, "unit": unit, "missing": gone}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics


def compare_outputs(plain: Runner, traced: Runner) -> None:
    """Tracing must not change a single output byte."""
    for a, b in zip(plain.records, traced.records):
        if a["digest"] != b["digest"]:
            b["problems"].append(f"traced output {b['digest']} != untraced {a['digest']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's output digests in golden.json instead of checking them",
    )
    args = parser.parse_args(argv)

    try:
        mods = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = {} if args.record_golden else golden_all.get(args.workload, {})
    env = environment()

    if args.trace:
        plain = Runner(mods, args.workload, args.seed, golden)
        batches = plain.run(args.seconds)
        tracer = spans.Tracer()
        traced = Runner(mods, args.workload, args.seed, golden, tracer)
        tracer.install()
        try:
            traced.run(args.seconds, batches=batches)
        finally:
            tracer.uninstall()
        compare_outputs(plain, traced)
        metrics = per_layer(mods, plain, traced, tracer)
        runners = [plain, traced]
        details = {"spans": len(tracer.spans), "missing_hooks": tracer.missing}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
    else:
        first = batch_items(mods, args.workload, args.seed, 0)
        setup_times, setup_slowness = measure_setup(first)
        plain = Runner(mods, args.workload, args.seed, golden, probe=SpeedProbe())
        plain.run(args.seconds)
        metrics = end_to_end(plain, setup_times, setup_slowness)
        runners = [plain]
        details = {"raw_setup_times": setup_times, "setup_slowness": setup_slowness}

    records = [r for runner in runners for r in runner.records]
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print(f"FAIL {r['id']} (batch {r['batch']}):", file=sys.stderr)
        for problem in r["problems"]:
            print(f"  {problem}", file=sys.stderr)

    if args.record_golden and not failed:
        table = golden_all.setdefault(args.workload, {})
        for r in plain.records:
            table[r["golden_key"]] = golden_digest(args.workload, r["digest"])
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    OUT.mkdir(exist_ok=True)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": [
            {k: r[k] for k in ("id", "batch", "seconds", "raw_seconds", "digest")}
            for r in records
        ],
        **details,
        "result": result,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for r in plain.records:
        if r["seconds"] is None:
            print(f"{r['id']:28s} error")
        else:
            print(f"{r['id']:28s} {r['seconds']:.4f}s (measured {r['raw_seconds']:.4f}s)")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
