"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload planted --seeds 1-10 [--trace 1] \
        [--output perfbench/out/sweep-planted.json] [run.py options...]

Runs ``perfbench/run.py`` once per seed, one after another (passing on any
option it does not know, such as ``--record-golden``), and prints for
every metric its median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles).  Uses
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.  Exits 1
if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--output", type=Path)
    args, passthrough = parser.parse_known_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    metrics: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    ok = True
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
             *passthrough],
            cwd=ROOT, capture_output=True, text=True,
        )
        took = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if proc.returncode != 0 or result is None:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        runs.append({"seed": seed, "seconds": took, "attempted": result["attempted"]})
        shown = []
        for name, m in result["metrics"].items():
            units[name] = m["unit"]
            if m["value"] is not None:
                metrics.setdefault(name, []).append(m["value"])
                shown.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed} ({took:.1f}s, {result['attempted']} inputs): " + " ".join(shown), flush=True)

    summary = {name: dict(summarize(v), unit=units[name]) for name, v in metrics.items()}
    for name, s in summary.items():
        spread = s.get("spread")
        print(f"{name:32s} median {s['median']:.6g} {s['unit']:6s} spread "
              + ("-" if spread is None else f"{spread:.3f}"))
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "runs": runs, "metrics": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
