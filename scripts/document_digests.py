#!/usr/bin/env python3
"""Print the sha256 of ``conicfree analyze --json`` for a fixed set of inputs,
with the shapes of the kernels the analysis lifts and of the standard forms
it builds from a span.

One ``name sha256 lifts forms`` line per input, 312 in all: the 20 corpus entries
(``corpus:<entry>``), the 270 generic arrangements of ``perfbench/inputs.py``
seeds 1-30 (``generic:<seed>:<id>``), the 18 inputs of
``scripts/bench_windows.py`` (``bench:<name>``) and four expressions
(``expr:<text>``).  An arrangement is written one conic per line to a file
named after the input, in a temporary directory that is the working
directory while the command runs, so its ``source`` is the same on every
run.  Both helper files are read, never changed.  ``lifts`` lists the
``rowsxcols`` of every ``linalg.kernel_basis_certified`` call in call
order, comma-separated, or ``-`` where there is none; ``forms`` lists, the
same way, the ``rowsxcols`` of every basis ``linalg.kernel_basis_from_span``
builds (its dimension by the matrix's columns), which the relation walk
does only at d1, where it reads the witness.  The analysis looks both
functions up at call time, so a wrapper sees every call.  Two checkouts
analyze the same documents, lift the same kernels and build the same
standard forms exactly when their outputs are equal:

    diff <(PYTHONPATH=OLD/src python scripts/document_digests.py) \\
         <(PYTHONPATH=src python scripts/document_digests.py)

``scripts/document_digests.txt`` holds the output for the documents this
checkout produces; CI diffs against it, and a change that means to change
a document re-records it in the same commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

from conicfree import linalg
from conicfree.cli import main as conicfree_main
from conicfree.corpus import corpus_entries

ROOT = Path(__file__).resolve().parent.parent
GENERIC_SEEDS = range(1, 31)
EXPRESSIONS = (
    "(1/2*x^2+3/4*y^2-z^2)*(x^2-2/3*y*z)",
    "x^2*y",
    "x^4+y^4+z^4",
    "y^2*z-x^3-x^2*z",
)


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs() -> list[tuple[str, str | list[str]]]:
    """(name, the command's input: a corpus name or expression, or conic texts)."""
    out: list[tuple[str, str | list[str]]] = [
        (f"corpus:{e.name}", f"corpus:{e.name}") for e in corpus_entries()
    ]
    bench = _module(ROOT / "perfbench" / "inputs.py")
    for seed in GENERIC_SEEDS:
        out += [
            (f"generic:{seed}:{item['id']}", item["texts"]) for item in bench.generic_inputs(seed)
        ]
    windows = _module(ROOT / "scripts" / "bench_windows.py")
    out += [(f"bench:{name}", texts) for name, texts in windows.arrangements().items()]
    return out + [(f"expr:{text}", text) for text in EXPRESSIONS]


def digest(name: str, source: str | list[str]) -> str:
    """sha256 of the stdout of ``analyze --json`` for one input, run in the
    working directory, where an arrangement's file is written, the shapes
    of the kernels it lifts and those of the standard forms it builds."""
    if isinstance(source, list):
        path = Path(name.replace(":", "_") + ".txt")
        path.write_text("".join(f"{text}\n" for text in source))
        source = str(path)
    lifts: list[str] = []
    forms: list[str] = []
    lift, span = linalg.kernel_basis_certified, linalg.kernel_basis_from_span

    def spy_lift(matrix):
        lifts.append(f"{matrix.rows}x{matrix.cols}")
        return lift(matrix)

    def spy_span(matrix, rows, dimension):
        forms.append(f"{dimension}x{matrix.cols}")
        return span(matrix, rows, dimension)

    buffer = io.StringIO()
    linalg.kernel_basis_certified, linalg.kernel_basis_from_span = spy_lift, spy_span
    try:
        with contextlib.redirect_stdout(buffer):
            conicfree_main(["analyze", "--json", source])
    finally:
        linalg.kernel_basis_certified, linalg.kernel_basis_from_span = lift, span
    sha = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    return f"{sha} {','.join(lifts) or '-'} {','.join(forms) or '-'}"


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, source in inputs():
                print(name, digest(name, source), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
