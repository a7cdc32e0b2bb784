"""Every timing hook of the benchmark's tracer names a live target.

perfbench/spans.py records a hook whose target is gone as missing and
reports the metrics built from it as missing, so a deletion in the package
would blind a per-layer metric without failing anything.  This test reads
the hook table and resolves each target the way the tracer does, and runs
the tracer's attribute readers on the objects its hooks see.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from conicfree import combinatorics, corpus, linalg, locus, poly, report
from conicfree.corpus import entry
from conicfree.jacobian import JacobianContext, relation_generators, syzygy_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *prefix, attr = path.split(".")
    for part in prefix:
        owner = getattr(owner, part, None)
    # a dotted path patches the attribute on the class itself
    return attr in getattr(owner, "__dict__", {}) if prefix else hasattr(owner, attr)


def test_every_trace_hook_resolves():
    hooks = _spans().HOOKS
    assert hooks
    missing = [f"{m}.{p}" for m, p, _ in hooks if not _resolves(m, p)]
    assert not missing
    # perfbench/run.py reads it to tell certified kernel calls apart; it is
    # 0 because every nonzero matrix is certified
    assert isinstance(linalg._MOD_THRESHOLD, int)


def test_trace_attributes_read_the_hooked_matrices(monkeypatch):
    """The tracer reads rows, cols and entries of the matrix passed to
    kernel_basis_certified and rank_certified, and entries of the matrix
    syzygy_matrix returns; a change to those members would otherwise fail
    only a traced benchmark run."""
    spans = _spans()
    kernel_args = []
    kernel = linalg.kernel_basis_certified

    def spy_kernel(*args):
        kernel_args.append(args)
        return kernel(*args)

    monkeypatch.setattr(linalg, "kernel_basis_certified", spy_kernel)
    ctx = JacobianContext.for_curve(entry("celal_three_conics").polynomial())
    relation_generators(ctx)
    high = linalg.RatMatrix(np.array([[2**70, 0, -3], [0, 0, 5]], dtype=object))
    matrices = [args[0] for args in kernel_args] + [syzygy_matrix(ctx, ctx.d - 1), high]
    assert kernel_args
    for m in matrices:
        nnz = int(np.count_nonzero(m.array))
        for name in ("linalg.rank", "linalg.kernel"):
            assert spans.ARG_ATTRS[name]((m,)) == {"rows": m.rows, "cols": m.cols, "nnz": nnz}
        bits = max(abs(v).bit_length() for v in m.array.ravel().tolist())
        assert spans.RESULT_ATTRS["jacobian.matrix_build"](m) == {"nnz": nnz, "max_bits": bits}


def test_traced_corpus_batch_reports_every_per_layer_metric(monkeypatch):
    """One corpus batch, plain and traced, through the benchmark's own Runner,
    Tracer and per_layer, in process: every input is correct, and every
    per-layer metric BENCHMARK.json declares has a number, none missing.
    main() is never called, so nothing is written under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # run.py imports its siblings by their bare names
    for name in ("inputs", "oracles", "spans", "speed", "program", "run"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    run, spans = sys.modules["run"], sys.modules["spans"]
    mods = SimpleNamespace(
        poly=poly, locus=locus, report=report, combinatorics=combinatorics, corpus=corpus,
        linalg=linalg,
    )
    golden = json.loads((PERFBENCH / "golden.json").read_text())["corpus"]
    plain = run.Runner(mods, "corpus", 1, golden)
    plain.run(0, batches=1)
    tracer = spans.Tracer()
    traced = run.Runner(mods, "corpus", 1, golden, tracer)
    tracer.install()
    try:
        traced.run(0, batches=1)
    finally:
        tracer.uninstall()
    run.compare_outputs(plain, traced)
    records = plain.records + traced.records
    assert len(records) == 2 * len(corpus.corpus_entries())
    assert [r["id"] for r in records if r["problems"]] == []
    metrics = run.per_layer(mods, plain, traced, tracer)
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        value = metrics[metric["name"]]
        assert "missing" not in value, metric["name"]
        assert isinstance(value["value"], (int, float)), metric["name"]
