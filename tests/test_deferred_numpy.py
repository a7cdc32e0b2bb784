"""numpy is imported by the first elimination, not by ``import conicfree``.

Surveys, incidence structures and the theorem scans run no linear algebra,
so a process that only runs them never loads numpy.  Each test runs in a
fresh interpreter, because pytest and hypothesis may already hold numpy in
this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import conicfree

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())["corpus"]

# analyze --json of a corpus entry, as the CLI renders it
_DOCUMENT = (
    "def document(e):\n"
    "    from conicfree.corpus import analyze_entry\n"
    "    from conicfree.report import analysis_document, to_json\n"
    "    return to_json(analysis_document(analyze_entry(e), provenance=dict(e.provenance)))\n"
)


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(conicfree.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_survey_only_work_never_imports_numpy():
    script = _DOCUMENT + (
        "import contextlib, hashlib, io, sys\n"
        "def absent(step):\n"
        "    assert 'numpy' not in sys.modules, step\n"
        "import conicfree, conicfree.cli\n"
        "absent('import')\n"
        "from conicfree import (ConicArrangement, IncidenceStructure, corpus_entries,\n"
        "    is_combinatorially_supersolvable, parse_polynomial, survey)\n"
        "parse_polynomial('(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)')\n"
        "absent('parse_polynomial')\n"
        "texts = [e.component_texts for e in corpus_entries() if e.component_texts]\n"
        "assert len(texts) == 15, len(texts)\n"
        "for t in texts:\n"
        "    arr = ConicArrangement.from_texts(list(t))\n"
        "    arr.polynomial()\n"
        "    absent(('polynomial', t))\n"
        "    sv = survey(arr)\n"
        "    if sv.complete:\n"
        "        is_combinatorially_supersolvable(IncidenceStructure.from_survey(sv))\n"
        "    absent(('survey', t))\n"
        "for argv in (['corpus'], ['theorems', 'char', '--kmax', '8'],\n"
        "             ['supersolvable', 'corpus:pencil_four_points_m4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = conicfree.cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    absent(argv)\n"
        "text = document(conicfree.entry('celal_three_conics'))\n"
        "assert 'numpy' in sys.modules\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    assert _run(script).strip() == GOLDEN["celal_three_conics"]


def test_first_eliminations_in_eight_threads_at_once():
    """Eight threads reach their first elimination together: each one's
    analysis must be whole and equal the one-thread document, and the
    deferred module ends as a plain module."""
    script = _DOCUMENT + (
        "import hashlib, json, sys, threading, types\n"
        "from conicfree import corpus_entries, linalg\n"
        "entries = sorted(corpus_entries(), key=lambda e: e.polynomial().degree)[:8]\n"
        "assert 'numpy' not in sys.modules\n"
        "start = threading.Barrier(8)\n"
        "docs, errors = {}, []\n"
        "def work(e):\n"
        "    start.wait(timeout=60)\n"
        "    try:\n"
        "        docs[e.name] = document(e)\n"
        "    except Exception as exc:\n"
        "        errors.append(f'{e.name}: {exc!r}')\n"
        "threads = [threading.Thread(target=work, args=(e,)) for e in entries]\n"
        "interval = sys.getswitchinterval()\n"
        "sys.setswitchinterval(1e-5)\n"
        "try:\n"
        "    for t in threads:\n"
        "        t.start()\n"
        "    for t in threads:\n"
        "        t.join(timeout=120)\n"
        "finally:\n"
        "    sys.setswitchinterval(interval)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert not errors, errors\n"
        "assert type(linalg.np) is types.ModuleType\n"
        "single = {e.name: document(e) for e in entries}\n"
        "print(json.dumps({name: [docs[name] == single[name],\n"
        "    hashlib.sha256(docs[name].encode()).hexdigest()] for name in single}))\n"
    )
    found = json.loads(_run(script))
    assert len(found) == 8
    assert found == {name: [True, GOLDEN[name]] for name in found}
