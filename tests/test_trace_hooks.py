"""Every timing hook of the benchmark's tracer names a live target.

perfbench/spans.py records a hook whose target is gone as missing and
reports the metrics built from it as missing, so a deletion in the package
would blind a per-layer metric without failing anything.  This test reads
the hook table and resolves each target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

from conicfree import linalg

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *prefix, attr = path.split(".")
    for part in prefix:
        owner = getattr(owner, part, None)
    # a dotted path patches the attribute on the class itself
    return attr in getattr(owner, "__dict__", {}) if prefix else hasattr(owner, attr)


def test_every_trace_hook_resolves():
    hooks = _hooks()
    assert hooks
    missing = [f"{m}.{p}" for m, p, _ in hooks if not _resolves(m, p)]
    assert not missing
    # perfbench/run.py reads it to tell certified calls from small exact ones
    assert isinstance(linalg._MOD_THRESHOLD, int)
