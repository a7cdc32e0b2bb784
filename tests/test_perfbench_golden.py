"""The benchmark's generated inputs still give their golden outputs.

perfbench/golden.json keeps a 16-hex-digit SHA-256 prefix of the output of
every generated input (``analyze --json`` for the generic arrangements, the
canonical survey text for the planted ones).  The corpus digests are checked
in test_corpus.py; this test runs seed 1, batch 0 of the generic and planted
workloads through the benchmark's own input builders, command chains and
oracles, and compares each digest.  It reads the perfbench modules in place
and writes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conicfree import combinatorics, corpus, linalg, locus, poly, report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
GOLDEN_DIGITS = 16


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # oracles.py imports inputs by its bare name, as it does under run.py
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return SimpleNamespace(**{n: _load(n, monkeypatch) for n in ("inputs", "oracles", "program")})


MODS = SimpleNamespace(
    poly=poly, locus=locus, report=report, combinatorics=combinatorics, corpus=corpus, linalg=linalg
)
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def test_generic_batch_matches_the_golden_digests(bench):
    items = bench.inputs.generic_inputs(SEED, 0)
    assert len(items) == 9
    for item in items:
        item["source"] = f"generic:{SEED}:{item['id']}"
        f, arr = bench.program.build_objects(MODS, item)
        text = bench.program.analyze_json(MODS, item, f, arr)
        assert bench.oracles.check_generic(item, json.loads(text)) == [], item["id"]
        digest = bench.oracles.digest(text)[:GOLDEN_DIGITS]
        assert digest == GOLDEN["generic"][f"{SEED}/{item['id']}"], item["id"]


def test_planted_batch_matches_the_golden_digests(bench):
    items = bench.inputs.planted_inputs(SEED, 0)
    assert len(items) == 21
    for item in items:
        f, arr = bench.program.build_objects(MODS, item)
        sv, modular = bench.program.supersolvable(MODS, item, f, arr)
        assert bench.oracles.check_planted(item, sv, modular) == [], item["id"]
        digest = bench.oracles.digest(bench.oracles.render_survey(sv, modular))[:GOLDEN_DIGITS]
        assert digest == GOLDEN["planted"][f"{SEED}/{item['id']}"], item["id"]
