"""Timing wrappers around the public functions of each layer.

The traced run replaces, for its duration, the module attribute each caller
actually looks up (``report`` imported ``mdr`` by name, so the wrapper goes
on ``conicfree.report.mdr``; ``rank_certified`` looks up
``conicfree.linalg.rank``).  Every call becomes a span with a name, start,
end, parent and the id of the input being processed; spans stay in memory
and are written out when the run ends.  A hook whose target no longer
exists is recorded as missing, and the metrics built from it are reported
missing instead of failing the run.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute path, span name); a dotted path patches a class attribute
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("conicfree.poly", "parse_polynomial", "poly.parse"),
    ("conicfree.locus", "ConicArrangement.polynomial", "poly.expand"),
    ("conicfree.jacobian", "JacobianContext.for_curve", "jacobian.context"),
    ("conicfree.report", "mdr", "jacobian.mdr"),
    ("conicfree.report", "hilbert_profile", "jacobian.window"),
    ("conicfree.jacobian", "syzygy_matrix", "jacobian.matrix_build"),
    ("conicfree.jacobian", "verify_witness", "jacobian.verify"),
    ("conicfree.report", "verify_witness", "jacobian.verify"),
    ("conicfree.linalg", "rank_certified", "linalg.rank"),
    ("conicfree.linalg", "kernel_basis_certified", "linalg.kernel"),
    ("conicfree.linalg", "rank", "linalg.exact"),
    ("conicfree.linalg", "kernel_basis", "linalg.exact"),
    ("conicfree.report", "survey", "locus.survey"),
    ("conicfree.locus", "survey", "locus.survey"),
    ("conicfree.locus", "rational_pair_intersections", "locus.pair"),
    ("conicfree.locus", "local_intersection_multiplicity", "locus.jet"),
    ("conicfree.locus", "classify_point", "locus.classify"),
    ("conicfree.report", "build_report", "freeness"),
    ("conicfree.report", "arnold_exponent", "freeness"),
    ("conicfree.report", "mdr_lower_bound", "freeness"),
    ("conicfree.report", "check_bound_consistency", "freeness"),
    ("conicfree.report", "effective_inventory", "freeness"),
    ("conicfree.report", "weak_type_from_survey", "combinatorics"),
    ("conicfree.report", "bezout_count_check", "combinatorics"),
    ("conicfree.combinatorics", "IncidenceStructure.from_survey", "combinatorics.supersolvable"),
    ("conicfree.combinatorics", "is_combinatorially_supersolvable", "combinatorics.supersolvable"),
    ("conicfree.report", "is_combinatorially_supersolvable", "combinatorics.supersolvable"),
    ("conicfree.report", "analysis_document", "report.document"),
    ("conicfree.report", "to_json", "report.json"),
)


def _matrix_shape(args: tuple) -> dict:
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "nnz": len(m.entries)}


def _matrix_stats(result: object) -> dict:
    bits = 0
    for v in result.entries.values():
        bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return {"nnz": len(result.entries), "max_bits": bits}


def _pair_stats(result: object) -> dict:
    return {"residual": result.residual, "transversal": result.residual_transversal}


def _json_stats(result: object) -> dict:
    return {"bytes": len(result.encode())}


# extra data recorded on a span, computed outside its timed interval
ARG_ATTRS = {"linalg.rank": _matrix_shape, "linalg.kernel": _matrix_shape}
RESULT_ATTRS = {
    "jacobian.matrix_build": _matrix_stats,
    "locus.pair": _pair_stats,
    "report.json": _json_stats,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "input_id", "phase", "attrs", "child_time")

    def __init__(self, name, parent, input_id, phase):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.input_id = input_id
        self.phase = phase
        self.attrs: dict = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_dict(self, index: dict) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else index[id(self.parent)],
            "input": self.input_id,
            "phase": self.phase,
            **self.attrs,
        }


class Tracer:
    """Installs the hooks, collects spans, and restores every original."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.input_id: str | None = None
        self.phase = "setup"
        self.missing: dict[str, list[str]] = {}  # span name -> missing targets
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self
        arg_attrs = ARG_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent, tracer.input_id, tracer.phase)
            tracer.spans.append(span)
            tracer.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                if arg_attrs is not None:
                    span.attrs.update(arg_attrs(args))
            if result_attrs is not None:
                span.attrs.update(result_attrs(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, path, name in HOOKS:
            target = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *prefix, attr = path.split(".")
                for part in prefix:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if prefix else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.setdefault(name, []).append(target)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index) for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics


def _sum(spans, key) -> float:
    return sum(key(s) for s in spans)


def layer_metrics(
    tracer: Tracer,
    run_wall_s: float,
    untraced_wall_s: float,
    mod_threshold: int | None,
) -> dict[str, tuple[float | None, str, list[str]]]:
    """Metric name -> (value, unit, span names it is built from)."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def get(name: str) -> list[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return _sum(get(name), lambda s: s.self_time)

    def incl_s(name: str) -> float:
        return _sum(get(name), lambda s: s.duration)

    certified = [
        s
        for s in get("linalg.rank") + get("linalg.kernel")
        if s.attrs["nnz"] and mod_threshold is not None
        and max(s.attrs["rows"], s.attrs["cols"]) > mod_threshold
    ]
    certified_ids = {id(s) for s in certified}
    fallbacks = [s for s in get("linalg.exact") if id(s.parent) in certified_ids]
    residual = [s for s in get("locus.pair") if s.attrs.get("residual")]
    residual_ok = [s for s in residual if s.attrs["transversal"]]
    builds = get("jacobian.matrix_build")
    run_top = [s for s in tracer.spans if s.parent is None and s.phase == "run"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 1.0

    m: dict[str, tuple[float | None, str, list[str]]] = {
        "poly.parse_s": (self_s("poly.parse"), "s", ["poly.parse"]),
        "poly.parse_calls": (len(get("poly.parse")), "count", ["poly.parse"]),
        "poly.expand_s": (self_s("poly.expand"), "s", ["poly.expand"]),
        "jacobian.context_s": (incl_s("jacobian.context"), "s", ["jacobian.context"]),
        "jacobian.mdr_s": (incl_s("jacobian.mdr"), "s", ["jacobian.mdr"]),
        "jacobian.mdr_degrees": (
            sum(1 for s in builds if s.parent is not None and s.parent.name == "jacobian.mdr"),
            "count",
            ["jacobian.mdr", "jacobian.matrix_build"],
        ),
        "jacobian.window_s": (incl_s("jacobian.window"), "s", ["jacobian.window"]),
        "jacobian.matrix_build_s": (self_s("jacobian.matrix_build"), "s", ["jacobian.matrix_build"]),
        "jacobian.matrices": (len(builds), "count", ["jacobian.matrix_build"]),
        "jacobian.matrix_nnz": (
            _sum(builds, lambda s: s.attrs.get("nnz", 0)), "count", ["jacobian.matrix_build"]
        ),
        "jacobian.matrix_max_bits": (
            max((s.attrs.get("max_bits", 0) for s in builds), default=0),
            "bits",
            ["jacobian.matrix_build"],
        ),
        "jacobian.verify_s": (self_s("jacobian.verify"), "s", ["jacobian.verify"]),
        "jacobian.verify_calls": (len(get("jacobian.verify")), "count", ["jacobian.verify"]),
        "linalg.rank_s": (self_s("linalg.rank"), "s", ["linalg.rank"]),
        "linalg.rank_calls": (len(get("linalg.rank")), "count", ["linalg.rank"]),
        "linalg.kernel_s": (self_s("linalg.kernel"), "s", ["linalg.kernel"]),
        "linalg.kernel_calls": (len(get("linalg.kernel")), "count", ["linalg.kernel"]),
        "linalg.exact_s": (self_s("linalg.exact"), "s", ["linalg.exact"]),
        "linalg.exact_calls": (len(get("linalg.exact")), "count", ["linalg.exact"]),
        "linalg.certified_calls": (
            len(certified), "count", ["linalg.rank", "linalg.kernel", "linalg.cutoff"]
        ),
        "linalg.fallbacks": (
            len(fallbacks), "count", ["linalg.rank", "linalg.kernel", "linalg.exact", "linalg.cutoff"]
        ),
        "linalg.fallback_s": (
            _sum(fallbacks, lambda s: s.duration),
            "s",
            ["linalg.rank", "linalg.kernel", "linalg.exact", "linalg.cutoff"],
        ),
        "linalg.certified_ratio": (
            ratio(len(certified) - len(fallbacks), len(certified)),
            "ratio",
            ["linalg.rank", "linalg.kernel", "linalg.exact", "linalg.cutoff"],
        ),
        "locus.survey_s": (incl_s("locus.survey"), "s", ["locus.survey"]),
        "locus.pairs": (len(get("locus.pair")), "count", ["locus.pair"]),
        "locus.pair_s": (self_s("locus.pair"), "s", ["locus.pair"]),
        "locus.residual_pairs": (len(residual), "count", ["locus.pair"]),
        "locus.residual_certified_ratio": (
            ratio(len(residual_ok), len(residual)), "ratio", ["locus.pair"]
        ),
        "locus.jet_s": (self_s("locus.jet"), "s", ["locus.jet"]),
        "locus.jet_calls": (len(get("locus.jet")), "count", ["locus.jet"]),
        "locus.classify_s": (self_s("locus.classify"), "s", ["locus.classify"]),
        "locus.points": (len(get("locus.classify")), "count", ["locus.classify"]),
        "freeness.s": (self_s("freeness"), "s", ["freeness"]),
        "combinatorics.supersolvable_s": (
            self_s("combinatorics.supersolvable"), "s", ["combinatorics.supersolvable"]
        ),
        "combinatorics.s": (
            self_s("combinatorics") + self_s("combinatorics.supersolvable"),
            "s",
            ["combinatorics", "combinatorics.supersolvable"],
        ),
        "report.document_s": (
            self_s("report.document") + incl_s("report.json"),
            "s",
            ["report.document", "report.json"],
        ),
        "report.json_bytes": (
            _sum(get("report.json"), lambda s: s.attrs.get("bytes", 0)), "bytes", ["report.json"]
        ),
        "trace.overhead_frac": (ratio(run_wall_s, untraced_wall_s) - 1.0, "ratio", []),
        "trace.coverage": (ratio(_sum(run_top, lambda s: s.duration), run_wall_s), "ratio", []),
    }
    return m
