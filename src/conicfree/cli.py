"""Command-line interface.

Subcommands: ``analyze`` (full pipeline on a curve or arrangement),
``classify`` (singular locus only), ``theorems`` (enumeration
certificates), ``deform-check`` (tacnode-to-nodes deformation), and
``supersolvable`` (combinatorial modular point search), plus ``corpus``
to list the built-in examples and ``regress`` to recompute them.

Inputs can be ``corpus:<name>``, a file (one conic expression per line for
arrangements, a single expression otherwise, ``#`` comments allowed), or an
inline expression.  Exit codes: 0 success, 1 input error, 2 inconclusive or
hypothesis failure, 3 internal fault.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from conicfree.combinatorics import (
    IncidenceStructure,
    enumerate_nearly_free_bound,
    enumerate_theorem_char,
    enumerate_theorem_near,
    is_combinatorially_supersolvable,
)
from conicfree.corpus import CorpusNotFoundError, corpus_entries, entry, run_regression
from conicfree.freeness import check_deformation
from conicfree.jacobian import MAX_WINDOW_EXTEND
from conicfree.locus import ConicArrangement
from conicfree.poly import (
    HomogeneousPolynomial,
    NonHomogeneousError,
    PolynomialSyntaxError,
    content_lines,
    parse_polynomial,
)
from conicfree.report import (
    Analysis,
    analysis_document,
    analyze_curve,
    render_text,
    survey_lines,
    to_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


@dataclass
class ResolvedInput:
    polynomial: Callable[[], HomogeneousPolynomial]  # read once, through f
    arrangement: ConicArrangement | None
    source: str
    provenance: dict | None = None
    # a corpus entry may assert the quasi-homogeneity hypothesis for its
    # ordinary points (pencil base points); honored alongside --assume-qh
    assume_qh: bool = False

    @cached_property
    def f(self) -> HomogeneousPolynomial:
        """The curve, computed on first use: a survey alone never expands it."""
        return self.polynomial()


def _resolve_input(text: str) -> ResolvedInput:
    if not text.strip():
        # Path("") is the current directory, so a blank argument would be read as one
        raise InputError("empty expression: the input is blank")
    if text.startswith("corpus:"):
        name = text[len("corpus:") :]
        try:
            e = entry(name)
        except CorpusNotFoundError:
            known = ", ".join(x.name for x in corpus_entries())
            raise InputError(f"unknown corpus entry {name!r}; known: {known}")
        return ResolvedInput(
            polynomial=e.polynomial,
            arrangement=e.arrangement(),
            source=text,
            provenance=dict(e.provenance),
            assume_qh=e.assume_qh,
        )
    path = Path(text)
    if path.exists():
        return _resolve_file(text, content_lines(path.read_text()))
    f = parse_polynomial(text)
    return ResolvedInput(lambda: f, None, f"<expression> {text}")


def _resolve_file(name: str, lines: list[tuple[int, str]]) -> ResolvedInput:
    """A file's content lines: one curve expression, or one conic per line."""
    texts = [line for _, line in lines]
    if not texts:
        raise InputError(f"{name}: no expressions found")
    if len(texts) == 1:
        f = parse_polynomial(texts[0])
        return ResolvedInput(lambda: f, None, name)
    arrangement = ConicArrangement.from_texts(texts)
    return ResolvedInput(arrangement.polynomial, arrangement, name)


def _run_analysis(args: argparse.Namespace, resolved: ResolvedInput) -> Analysis:
    return analyze_curve(
        resolved.f,
        arrangement=resolved.arrangement,
        source=resolved.source,
        assume_qh=getattr(args, "assume_qh", False) or resolved.assume_qh,
        window_extend=getattr(args, "window_extend", 0),
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    if not 0 <= args.window_extend <= MAX_WINDOW_EXTEND:
        raise InputError(
            f"--window-extend must be between 0 and {MAX_WINDOW_EXTEND}, "
            f"got {args.window_extend}"
        )
    resolved = _resolve_input(args.input)
    analysis = _run_analysis(args, resolved)
    doc = analysis_document(
        analysis, supersolvable=args.supersolvable, provenance=resolved.provenance
    )
    print(to_json(doc) if args.json else render_text(doc))
    return EXIT_INCONCLUSIVE if analysis.inconclusive else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    resolved = _resolve_input(args.input)
    if resolved.arrangement is None:
        raise InputError(
            "classify needs an arrangement (a corpus arrangement or a file "
            "with one conic per line)"
        )
    doc = analysis_document(_run_analysis(args, resolved), provenance=resolved.provenance)
    survey_doc = {
        "schema": doc["schema"],
        "input": doc["input"],
        "survey": doc["survey"],
        "checks": doc["checks"],
    }
    if args.json:
        print(to_json(survey_doc))
    else:
        print(f"input: {survey_doc['input']['source']}")
        print("\n".join(survey_lines(survey_doc["survey"])))
    if not doc["survey"]["complete"]:
        print(
            "warning: survey incomplete (irrational intersection points remain)",
            file=sys.stderr,
        )
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_theorems(args: argparse.Namespace) -> int:
    if args.kmax > 10**4:
        raise InputError("kmax is capped at 10^4")
    if args.which == "near":
        cert = enumerate_theorem_near(args.kmax)
    elif args.which == "char":
        cert = enumerate_theorem_char(args.kmax)
    else:
        cert = enumerate_nearly_free_bound(args.kmax)
    doc = {
        "schema": "conicfree-certificate/1",
        "theorem": cert.theorem,
        "kmax": cert.kmax,
        "candidates_examined": cert.candidates_examined,
        "counterexamples": list(cert.counterexamples),
        "passed": cert.passed,
    }
    if cert.admissible is not None:
        doc["admissible_k"] = list(cert.admissible)
        doc["intervals"] = {str(k): list(v) for k, v in (cert.intervals or {}).items()}
    if args.json:
        print(to_json(doc))
    else:
        print(f"theorem scan '{cert.theorem}' up to k = {cert.kmax}:")
        print(f"  candidates examined: {cert.candidates_examined}")
        if cert.admissible is not None:
            print(f"  admissible k: {sorted(cert.admissible)}")
        if cert.passed:
            print("  counterexamples: none (PASS)")
        else:
            print(f"  counterexamples: {list(cert.counterexamples)} (FAIL)")
    return EXIT_OK if cert.passed else EXIT_INCONCLUSIVE


def cmd_deform_check(args: argparse.Namespace) -> int:
    results = []
    for designator in (args.before, args.after):
        resolved = _resolve_input(designator)
        if resolved.arrangement is None:
            raise InputError(f"{designator}: deformation checking needs arrangements")
        analysis = _run_analysis(args, resolved)
        if analysis.tau is None or analysis.report is None:
            raise InputError(f"{designator}: Tjurina window unstable")
        results.append(analysis)
    before, after = results
    check = check_deformation(
        (before.report, before.survey), (after.report, after.survey)
    )
    doc = {
        "schema": "conicfree-deformation/1",
        "before": before.source,
        "after": after.source,
        "clauses": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in check.clauses
        ],
        "passed": check.passed,
        "conclusion": check.conclusion,
    }
    if args.json:
        print(to_json(doc))
    else:
        print(f"deformation check: {before.source} -> {after.source}")
        for c in check.clauses:
            print(f"  {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
        print(f"conclusion: {check.conclusion or 'hypotheses not satisfied'}")
    return EXIT_OK if check.passed else EXIT_INCONCLUSIVE


def cmd_supersolvable(args: argparse.Namespace) -> int:
    path = Path(args.input)
    text = path.read_text() if path.exists() else None
    lines = [] if text is None else content_lines(text)
    # a conic expression never starts with "point"
    if args.incidence or (lines and lines[0][1].startswith("point")):
        if text is None:
            raise InputError(f"{args.input}: incidence file not found")
        inc = IncidenceStructure.parse(text)
        mode = "user-incidence"
    else:
        resolved = _resolve_input(args.input) if text is None else _resolve_file(args.input, lines)
        if resolved.arrangement is None:
            raise InputError("supersolvable needs an arrangement or incidence file")
        from conicfree.locus import survey as run_survey

        sv = run_survey(resolved.arrangement, assume_qh=args.assume_qh or resolved.assume_qh)
        if not sv.complete:
            print(
                "survey incomplete; supply incidence explicitly with --incidence",
                file=sys.stderr,
            )
            return EXIT_INCONCLUSIVE
        inc = IncidenceStructure.from_survey(sv)
        mode = "geometric"
    modular = is_combinatorially_supersolvable(inc)
    doc = {
        "schema": "conicfree-supersolvable/1",
        "mode": mode,
        "modular_point": modular,
        "supersolvable": modular is not None,
    }
    if args.json:
        print(to_json(doc))
    else:
        print(f"mode: {mode}")
        print(
            f"combinatorially supersolvable: {modular is not None}"
            + (f" (modular point {modular})" if modular else "")
        )
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    for e in corpus_entries():
        print(f"corpus:{e.name:28s} {e.description}")
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    names = args.names or None
    table = run_regression(names)
    print(table.render())
    failures = table.failures()
    print(f"{len(table.rows)} checks, {len(failures)} failures")
    return EXIT_OK if table.passed else EXIT_INCONCLUSIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicfree",
        description="exact freeness analysis for plane curves and conic arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, assume_qh: bool = True) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if assume_qh:
            p.add_argument("--assume-qh", action="store_true", help="treat ordinary points of multiplicity >= 5 as quasi-homogeneous")

    p = sub.add_parser("analyze", help="full pipeline on a curve or arrangement")
    p.add_argument("input", help="corpus:<name>, a file, or an inline expression")
    p.add_argument("--window-extend", type=int, default=0, metavar="N", help="extra Hilbert degrees for diagnostics")
    p.add_argument("--supersolvable", action="store_true", help="include the supersolvability check")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="singular locus survey of an arrangement")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("theorems", help="exhaustive enumeration certificates")
    p.add_argument("which", choices=("near", "char", "nfbound"))
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("deform-check", help="tacnode-to-two-nodes deformation check")
    p.add_argument("before")
    p.add_argument("after")
    common(p, assume_qh=False)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("supersolvable", help="combinatorial modular point search")
    p.add_argument("input", help="arrangement, corpus:<name>, or incidence file")
    p.add_argument("--incidence", action="store_true", help="treat input as an incidence file")
    p.add_argument("--assume-qh", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_supersolvable)

    p = sub.add_parser("corpus", help="list built-in example curves")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("regress", help="recompute expected corpus invariants")
    p.add_argument("names", nargs="*", help="entry names (default: all)")
    p.set_defaults(func=cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InputError,
        PolynomialSyntaxError,
        NonHomogeneousError,
        CorpusNotFoundError,
        FileNotFoundError,
        IsADirectoryError,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # pragma: no cover - internal faults
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
