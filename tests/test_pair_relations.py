"""Pencil relations of a conic arrangement, the relation walk's pool.

When the components are known, each pencil that q_0 spans with another
conic gives one relation, of degree 2 + 2 * (the conics outside it), to
the pool of candidate relations (with the Koszul relations at d-1):
generic conics give the pairs (0, j) at d-2, k conics in one pencil one
relation at 2; a pencil that holds a double line L^2 gives rho_L =
grad q_0 x grad L one degree lower instead, and theta at d-2 where L is
tangent to q_0 (tests/test_double_line_relations.py).  The walk tries
d-2 first, and again whenever generators join below d-3: where the pool
and the multiples of the generators found span the kernel there and one
x-free minor at d-2 shows that nothing new lies between, it stops;
otherwise it climbs, takes the kernel of each degree of the pool from
its candidates and the lower generators where they span it, and lifts it
otherwise.  These tests hold the pencils
against sympy's rank and the relations against a sympy construction, the
walk with components against the walk without them (generators, witness,
window and the printed document), the descent against the climb through
every degree, the minor against the exact engine's rank at d-3, count
the lifted kernels, the matrices built and the pool's checks, test the
minor on its own and its implication for the degrees below, and break
the relations, the minor and the support test on purpose.
"""

import importlib.util
import random
import sys
from unittest import mock
from functools import lru_cache, partial
from itertools import count
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conicfree import jacobian, linalg, report
from conicfree.corpus import analyze_entry, corpus_entries, entry
from conicfree.jacobian import (
    JacobianContext,
    hilbert_profile,
    mdr,
    relation_generators,
    syzygy_matrix,
)
from conicfree.locus import ConicArrangement
from conicfree.poly import (
    ConicForm,
    degree_dimension,
    monomials_of_degree,
    parse_polynomial,
    pencil_table,
    rank_one_member,
)
from conicfree.report import analysis_document, analyze_curve, to_json
from walks import assert_same_walk

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _generic_arrangements(seed):
    """The benchmark's generic arrangements for a seed: eight sextics and one octic."""
    inputs = _load("bench_inputs", "perfbench/inputs.py")
    return tuple(ConicArrangement.from_texts(item["texts"]) for item in inputs.generic_inputs(seed))


def _shifted(k, seed):
    texts = _load("bench_windows", "scripts/bench_windows.py").shifted_texts(k, seed)
    return ConicArrangement.from_texts(texts)


@lru_cache(maxsize=None)
def _generic(k, seed):
    """The benchmark's dense generic k conics of random.Random(seed)."""
    inputs = _load("bench_inputs", "perfbench/inputs.py")
    conics = inputs._generic_conics(random.Random(seed), k)
    return ConicArrangement.from_texts([inputs.conic_text(q) for q in conics])


def _partial_pencil(k):
    """The two pencil conics of scripts/bench_windows.py, their sum, and the
    first k - 3 generic conics of random.Random(12345): one pencil of three
    members through q_0, and a pair for each other conic."""
    script = _load("bench_windows", "scripts/bench_windows.py")
    inputs = _load("bench_inputs", "perfbench/inputs.py")
    texts = [script.PENCIL_F, script.PENCIL_G, f"({script.PENCIL_F})+({script.PENCIL_G})"]
    generic = inputs._generic_conics(random.Random(script.GENERIC_SEED), k - 3)
    return ConicArrangement.from_texts(texts + [inputs.conic_text(q) for q in generic])


def _context(arr, components=True):
    conics = [q.integer for q in arr.components] if components else None
    return JacobianContext.for_curve(arr.polynomial(), conics)


def _pencils_of_q0(conics):
    """The pencils of pencil_table(conics) whose first member is q_0, by
    ascending second member: each read at its pair (0, j), j that member."""
    table = pencil_table(conics)
    return [pencil for (i, j), pencil in table.items() if i == 0 and j == pencil.members[1]]


def _generators(ctx):
    return [(e, tuple(vec)) for e, vec in relation_generators(ctx)]


@pytest.fixture
def kernels(monkeypatch):
    """The (rows, cols) of every certified kernel lifted."""
    calls = []
    original = linalg.kernel_basis_certified

    def spy(matrix):
        calls.append((matrix.rows, matrix.cols))
        return original(matrix)

    monkeypatch.setattr(linalg, "kernel_basis_certified", spy)
    return calls


_SMALL = st.integers(-3, 3)


@st.composite
def _arrangements(draw):
    """k = 2..4 smooth, pairwise distinct conics of small height.  After the
    first, each is dense, a member of the pencil of the first two, or the
    first plus a multiple of the square of a line, which touches the first
    at the points where the line meets it."""
    k = draw(st.integers(2, 4))
    conics = [draw(st.tuples(*[_SMALL] * 6))]
    for _ in range(k - 1):
        kind = draw(st.sampled_from(("dense", "pencil", "tangent")))
        lam = draw(st.integers(1, 3))
        if kind == "dense":
            q = draw(st.tuples(*[_SMALL] * 6))
        elif kind == "pencil" and len(conics) >= 2:
            q = tuple(a + lam * b for a, b in zip(conics[0], conics[1]))
        else:
            a, b, c = draw(st.tuples(_SMALL, _SMALL, _SMALL))
            square = (a * a, b * b, c * c, 2 * a * b, 2 * a * c, 2 * b * c)
            q = tuple(u + lam * v for u, v in zip(conics[0], square))
        conics.append(q)
    try:
        return ConicArrangement(tuple(ConicForm(*q) for q in conics))
    except ValueError:  # a zero or singular form, or two that coincide
        assume(False)


@settings(max_examples=30, deadline=None)
@given(_arrangements())
@example(_generic(3, 1))  # small draws mostly climb; the start settles these two
@example(_generic(4, 2))
def test_components_change_no_generator_witness_or_window(arr):
    """d1, the witness, the generator degrees and their span, and the window
    are those of the context built without components (assert_same_walk).
    Where the start settles the walk, so that no A_e below d-2 is built,
    the exact engine gives A_{d-3} full column rank: the minor was right
    that no relation lies below d-2."""
    with_components, without = _context(arr), _context(arr, components=False)
    built, build = [], jacobian.syzygy_matrix
    with mock.patch.object(jacobian, "syzygy_matrix", lambda c, r: built.append(r) or build(c, r)):
        relation_generators(with_components)
    d = with_components.d
    if min(built) == d - 2:
        below = syzygy_matrix(with_components, d - 3)
        assert linalg.rank(below) == below.cols
    assert_same_walk(with_components, without)


@settings(max_examples=10, deadline=None)
@given(_arrangements())
@example(_generic(4, 1))
@example(_generic(2, 1))
@example(entry("pencil_four_points_m4").arrangement())
@example(_partial_pencil(6))
@example(entry("ploski_m3").arrangement())
def test_pencil_relations_match_a_sympy_construction(arr):
    """Every row of every pencil family: d*P*rho - (rho . grad P)*(x, y, z)
    for rho = grad q_0 x grad q_j, q_j the pencil's second member, or rho =
    grad q_0 x grad L where the pencil holds a double line L^2, and P the
    product of the conics outside the pencil, coefficient by coefficient,
    and each kills grad f.  Where L is tangent to q_0 the family at d-2
    holds theta too (tangent_relations; tests/test_double_line_relations.py
    holds it against sympy).  The examples are generic conics, two
    conics, a full pencil, a partial pencil and the Płoski curve m = 3."""
    x, y, z = sympy.symbols("x y z")
    v = (x, y, z)
    monos = (x**2, y**2, z**2, x * y, x * z, y * z)
    conics = [q.integer for q in arr.components]
    forms = [sympy.Poly(sum(c * m for c, m in zip(q, monos)), *v) for q in conics]
    k, d = len(forms), 2 * len(forms)
    f = sympy.prod(forms)
    expected = {}
    for record in _pencils_of_q0(conics):
        pencil = record.members
        order, line = rank_one_member(conics[0], conics[pencil[1]])
        assert record.rank_one == (order, line)
        u = [forms[0].diff(t) for t in v]
        w = [forms[pencil[1]].diff(t) for t in v] if line is None else list(line)
        rho = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
        p = sympy.prod([forms[l] for l in range(k) if l not in pencil]) + sympy.Poly(0, *v)
        g = sum((r * p.diff(t) for r, t in zip(rho, v)), sympy.Poly(0, *v))
        relation = [d * p * r - g * sympy.Poly(t, *v) for r, t in zip(rho, v)]
        e = (2 if line is None else 1) + 2 * (k - len(pencil))
        assert sum((r * f.diff(t) for r, t in zip(relation, v)), sympy.Poly(0, *v)).is_zero
        row = [relation[c].coeff_monomial(m) for c in range(3) for m in monomials_of_degree(e)]
        expected.setdefault(e, []).append(tuple(row))
        if line is not None and order == 3:
            theta = jacobian.tangent_relations(conics, [record])
            expected.setdefault(d - 2, []).extend(map(tuple, theta))
    ctx = _context(arr)
    assert sorted(ctx.families) == sorted(expected) + [d - 1]
    for e, rows in expected.items():
        assert sorted(map(tuple, ctx.families[e]())) == sorted(rows), e


@st.composite
def _pencil_arrangements(draw):
    """q_0 and q_1, one or two members a*q_0 + b*q_1 (a, b nonzero), and up
    to three dense conics, k <= 6 in all, every conic after q_0 at a drawn
    place."""
    nonzero = st.integers(1, 3).flatmap(lambda c: st.sampled_from((c, -c)))
    q0, q1 = draw(st.tuples(*[_SMALL] * 6)), draw(st.tuples(*[_SMALL] * 6))
    weights = draw(st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=2))
    members = [tuple(a * u + b * w for u, w in zip(q0, q1)) for a, b in weights]
    dense = draw(st.lists(st.tuples(*[_SMALL] * 6), max_size=4 - len(members)))
    rest = draw(st.permutations([q1, *members, *dense]))
    try:
        return ConicArrangement(tuple(ConicForm(*q) for q in [q0, *rest]))
    except ValueError:  # a zero or singular form, or two that coincide
        assume(False)


@settings(max_examples=25, deadline=None)
@given(_pencil_arrangements())
@example(_partial_pencil(6))
def test_pencils_are_exact_and_their_relations_keep_the_walk(arr):
    """Two conics after q_0 share a pencil exactly when sympy gives
    [q_0; q_j; q_l] rank 2, and the table's pair (j, l) then reads the
    Pencil of (0, j); each conic lies in one pencil, every row of every
    family is a relation, and the walk is that without components
    (assert_same_walk)."""
    conics = [q.integer for q in arr.components]
    table = pencil_table(conics)
    pencils = [pencil.members for pencil in _pencils_of_q0(conics)]
    assert sorted(j for pencil in pencils for j in pencil[1:]) == list(range(1, arr.k))
    assert all(pencil[0] == 0 and pencil == sorted(pencil) for pencil in pencils)
    for j in range(1, arr.k):
        for l in range(j + 1, arr.k):
            shared = any(j in pencil and l in pencil for pencil in pencils)
            assert shared == (sympy.Matrix([conics[0], conics[j], conics[l]]).rank() == 2)
            assert (table[j, l] is table[0, j]) == shared
    ctx = _context(arr)
    for e, family in ctx.families.items():
        assert not (syzygy_matrix(ctx, e).array @ family().T).any(), e
    assert_same_walk(ctx, _context(arr, components=False))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generic_arrangements_lift_no_kernel(seed, kernels):
    for arr in _generic_arrangements(seed):
        ctx = _context(arr)
        mdr(ctx)
        hilbert_profile(ctx)
        assert kernels == [], arr


@pytest.mark.parametrize("k, seed, lifts", [(5, 1, 0), (6, 1, 0), (7, 1, 0), (7, 4, 1)])
def test_shifted_arrangements_lift_no_kernel_without_a_triple_point(k, seed, lifts, kernels):
    """k = 7 seed 4 has a D4 point: its relations at d-2 number k, one more
    than the pairs (0, j) give, so the walk lifts that kernel."""
    ctx = _context(_shifted(k, seed))
    assert mdr(ctx).r == ctx.d - 2
    hilbert_profile(ctx)
    matrix = syzygy_matrix(ctx, ctx.d - 2)
    assert kernels == [(matrix.rows, matrix.cols)] * lifts
    assert len(relation_generators(ctx)) == k - 1 + lifts


@pytest.mark.parametrize("name", ["generic", "pencil_four_points_m3"])
def test_a_corrupted_pencil_relation_raises(name, monkeypatch):
    original = jacobian.pencil_relations

    def corrupted(conics, pencils):
        rows = original(conics, pencils)
        rows[-1, 0] += 1
        return rows

    monkeypatch.setattr(jacobian, "pencil_relations", corrupted)
    arr = _generic_arrangements(1)[-1] if name == "generic" else entry(name).arrangement()
    with pytest.raises(AssertionError, match="pencil relation failed exact re-verification"):
        relation_generators(_context(arr))


def test_a_support_test_failing_on_every_span_falls_back_to_the_lift(monkeypatch, kernels):
    """The support test fails on the basis the start builds from the pair
    relations at d-2.  The climb's step at d-2, with no generator found
    since, reads that outcome and lifts the kernel, whose own test
    passes."""
    arr = _generic_arrangements(1)[-1]
    tests = []
    original = linalg._canonical_support

    def fail_from_span(vectors, free):
        caller = sys._getframe(1).f_code.co_name
        tests.append(caller)
        return caller != "kernel_basis_from_span" and original(vectors, free)

    monkeypatch.setattr(linalg, "_canonical_support", fail_from_span)
    ctx = _context(arr)
    generators = _generators(ctx)
    assert tests == ["kernel_basis_from_span", "kernel_basis_certified"]
    assert kernels == [(syzygy_matrix(ctx, 6).rows, 84)]
    monkeypatch.setattr(linalg, "_canonical_support", original)
    assert generators == _generators(_context(arr, components=False))


@pytest.mark.parametrize(
    "name",
    ["ploski_m2", "ploski_m3", "ploski_m4", "ploski_m5"]
    + [f"two_conics_a7_e{i}" for i in (1, 2, 3)],
)
def test_double_line_pencils_lift_no_kernel_and_keep_the_document(name, monkeypatch, kernels):
    """These conics lie in one pencil, which holds a double line L^2 tangent
    to q_0: rho_L gives the kernel at d1 = 1 and theta, with the multiples
    of rho_L, the one at d-2, so no kernel is lifted, and the document is
    that of the walk without components, byte for byte."""
    arr = entry(name).arrangement()

    def document():
        analysis = analyze_curve(arr.polynomial(), arrangement=arr, source=name)
        return to_json(analysis_document(analysis))

    with_components = document()
    assert kernels == []
    original = JacobianContext.for_curve
    monkeypatch.setattr(report.JacobianContext, "for_curve", lambda f, conics=None: original(f))
    assert document() == with_components
    assert kernels


def _assert_walks_agree(arr):
    with_components, without = _context(arr), _context(arr, components=False)
    assert _generators(with_components) == _generators(without)
    assert mdr(with_components) == mdr(without)
    assert hilbert_profile(with_components) == hilbert_profile(without)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_the_top_step_gives_the_generators_of_the_walk(k):
    """Generic arrangements start at d-2 (the top step) and fall back on
    nothing; their generators, witness and window are those of the walk
    that knows no conics and climbs from degree 0."""
    for seed in range(1, 21):
        _assert_walks_agree(_generic(k, seed))


@pytest.mark.parametrize("k, seed", [(5, 1), (6, 1), (7, 1), (7, 4)])
def test_the_shifted_inputs_give_the_generators_of_the_walk(k, seed):
    _assert_walks_agree(_shifted(k, seed))


def test_the_pairs_and_the_lower_generators_close_the_bound_together(kernels):
    """Three conics whose pair (0, 1) alone falls short at d-2 = 4, and
    whose generator at d1 = 3 leaves the bound open there: the walk tries
    the pool again with that generator's multiples, which closes it.  The
    generator is rho_L of the pencil of q_0 and q_2, which holds a double
    line secant to q_0, lifted by q_1, so no kernel is lifted, where the
    walk without components lifts A_3 and A_4; the pair joins at 4 as it
    stands, and the walks agree (assert_same_walk)."""
    conics = ((-1, -2, 1, -1, 2, 3), (-2, -1, -3, 0, 1, -3), (0, -1, 5, 1, -2, -1))
    arr = ConicArrangement(tuple(ConicForm(*q) for q in conics))
    assert rank_one_member(conics[0], conics[2]) == (2, (1, 1, -2))
    ctx, without = _context(arr), _context(arr, components=False)
    generators = _generators(ctx)
    assert [e for e, _ in generators] == [3, 4]
    assert generators[1] == (4, tuple(ctx.pool[4][0][1]))
    assert kernels == []
    relation_generators(without)
    assert kernels == [(45, 30), (55, 45)]
    assert_same_walk(ctx, without)


def test_the_x_minor_passes_on_the_pair_kernel_of_a_generic_arrangement():
    ctx = _context(_generic(4, 1))
    e = ctx.d - 2
    generators = relation_generators(ctx)
    assert [r for r, _ in generators] == [e] * 3
    assert jacobian._x_free_minor([], generators, e)


def test_the_x_minor_fails_on_a_span_that_holds_x_times_a_vector():
    """x*w + y*u and y*u: neither is a multiple of x, but their difference is."""
    ctx = _context(_generic(4, 1))
    e = ctx.d - 2
    (_, w), (_, u) = relation_generators(ctx)[:2]
    # the multiples of a degree e-1 vector by x, y, z, in that order
    x_w = jacobian._relation_multiples([(e - 1, w[: 3 * degree_dimension(e - 1)])], e)[0]
    y_u = jacobian._relation_multiples([(e - 1, u[: 3 * degree_dimension(e - 1)])], e)[1]
    joined = [(e, x_w + y_u), (e, y_u), (e, w)]
    assert jacobian._x_free_minor([], joined, e) is False
    assert jacobian._x_free_minor([], joined[::2], e)
    # a real kernel with a relation below d-2: a pencil's, at d-2
    pencil = entry("pencil_four_points_m3")
    ctx = JacobianContext.for_curve(pencil.polynomial())
    kernel = linalg.kernel_basis_certified(syzygy_matrix(ctx, ctx.d - 2))
    joined = [(ctx.d - 2, np.array(vec, dtype=object)) for vec in kernel.vectors]
    assert not jacobian._x_free_minor([], joined, ctx.d - 2)


@pytest.mark.parametrize(
    "name, passes", [("pencil_four_points_m4", True), ("persson_triconical", False)]
)
def test_the_descent_minors_on_the_multiples_of_a_lower_generator(name, passes):
    """The pencil's multiples of its generator at d1 = 2 span every relation
    up to d-2, and the minor at d-2 shows it; the Persson sextic's
    generator at 2 leaves out its generator at 3 = d-3, which x times makes
    a combination of the degree-4 kernel divisible by x.  Either way the
    multiples alone pass the minor at d-3 and at each degree from 4 to it."""
    ctx = JacobianContext.for_curve(entry(name).polynomial())
    top = ctx.d - 2
    (first, *_) = generators = relation_generators(ctx)
    assert first[0] == 2 and len(generators) == 1 + (not passes)
    kernel = linalg.kernel_basis_certified(syzygy_matrix(ctx, top))
    known = jacobian._relation_multiples([first], top)
    joined = jacobian._joining(top, known, kernel.vectors, 3 * degree_dimension(top))
    assert jacobian._x_free_minor([first], joined, top) is passes
    # the multiples alone leave the x-free columns of every lower degree at full rank
    assert jacobian._x_free_minor([first], [], top - 1)
    assert all(jacobian._x_free_minor([first], [], s) for s in range(4, top - 1))


@st.composite
def _minor_rows(draw):
    """(found, joined, e, top): one to three vectors of degrees <= e with
    entries in -3 .. 3, each in the layout of syzygy_matrix(ctx, degree),
    and up to two of degree top > e + 1.  They need not be relations: the
    minor's implication is linear algebra."""
    top = draw(st.integers(2, 6))
    e = draw(st.integers(0, top - 2))

    def vector(degree):
        n = 3 * degree_dimension(degree)
        return degree, np.array(draw(st.lists(_SMALL, min_size=n, max_size=n)), dtype=object)

    found = [vector(draw(st.integers(0, e))) for _ in range(draw(st.integers(1, 3)))]
    joined = [vector(top) for _ in range(draw(st.integers(0, 2)))]
    return found, joined, e, top


_BASIS_0 = [(0, np.array(v, dtype=object)) for v in ((1, 0, 0), (0, 1, 0))]


@settings(max_examples=200, deadline=None)
@given(_minor_rows())
@example((_BASIS_0, [], 0, 3))
@example((_BASIS_0[:1], [(2, np.array([0] * 9 + [1] + [0] * 8, dtype=object))], 0, 2))
def test_the_minor_at_the_top_implies_the_minors_below(case):
    """A dependency of the x-free rows at s < top, times y^(top-s), is one of
    the x-free rows at top: y^j times a monomial free of x is another, and
    F_p[y, z] is a domain.  So one minor at top covers every s between."""
    found, joined, e, top = case
    if jacobian._x_free_minor(found, joined, top):
        for s in range(e + 1, top):
            assert jacobian._x_free_minor(found, [], s), s


def _walk(ctx):
    return _generators(ctx), mdr(ctx), hilbert_profile(ctx)


def _assert_the_descent_is_the_climb(f, conics):
    """The walk's generators, witness and window equal those of the climb
    through every degree, which the walk becomes when no descent passes."""
    descent = _walk(JacobianContext.for_curve(f, conics))
    with mock.patch.object(jacobian, "_x_free_minor", lambda found, joined, top: False):
        assert descent == _walk(JacobianContext.for_curve(f, conics))


def test_the_descent_gives_the_climb_on_the_corpus_and_the_tangent_ladder():
    script = _load("bench_windows", "scripts/bench_windows.py")
    for e in corpus_entries():
        arr = e.arrangement()
        if arr is None:
            _assert_the_descent_is_the_climb(e.polynomial(), None)
        else:
            _assert_the_descent_is_the_climb(arr.polynomial(), [q.integer for q in arr.components])
    for k in (4, 5, 6):
        arr = ConicArrangement.from_texts(script.tangent_texts(k, 1))
        _assert_the_descent_is_the_climb(arr.polynomial(), [q.integer for q in arr.components])


@settings(max_examples=30, deadline=None)
@given(_arrangements())
def test_the_descent_gives_the_climb(arr):
    _assert_the_descent_is_the_climb(arr.polynomial(), [q.integer for q in arr.components])


@pytest.mark.parametrize("m, lifts", [(6, []), (8, [])])
def test_a_pencil_builds_no_matrix_between_d1_and_the_top_degree(m, lifts, monkeypatch, kernels):
    """Cost ladder: the pencils through four points (generators at 2 and
    d-1) descend from d-2 once their generator at d1 = 2 has joined, so
    the walk builds no A_e for 2 < e < d-2, and the analysis lifts no
    kernel: the pencil's relation at 2 spans the one at d1.  m = 6 is the
    corpus's, m = 8 (d = 16) scripts/bench_windows.py's."""
    name = f"pencil_four_points_m{m}"
    if m <= 6:
        arr = entry(name).arrangement()
    else:
        texts = _load("bench_windows", "scripts/bench_windows.py").arrangements()[name]
        arr = ConicArrangement.from_texts(texts)
    built, build = [], jacobian.syzygy_matrix
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda ctx, r: built.append(r) or build(ctx, r))
    analysis = analyze_curve(arr.polynomial(), arrangement=arr)
    d = analysis.ctx.d
    assert analysis.witness.r == 2
    assert [e for e in built if e <= d - 2] == [d - 2, 0, 1, 2]
    assert kernels == lifts


def test_a_generic_arrangement_builds_and_eliminates_only_the_top_degree(monkeypatch, kernels):
    built = []
    original = jacobian.syzygy_matrix

    def spy(ctx, r):
        built.append(r)
        return original(ctx, r)

    monkeypatch.setattr(jacobian, "syzygy_matrix", spy)
    for k, seed in [(2, 1), (3, 1), (4, 2), (5, 3), (6, 4)]:
        built.clear()
        ctx = _context(_generic(k, seed))
        mdr(ctx)
        hilbert_profile(ctx)
        d = ctx.d
        assert [r for r in built if r <= d - 2] == [d - 2]
        assert [s for s in ctx.leading if s <= d - 2] == [d - 2]
        assert kernels == []


def _pencil_relation_calls(monkeypatch):
    """For each call of pencil_relations: whether the start made it, that
    is, whether the curve had built no A_e with e < d-2 before it."""
    build, original = jacobian.syzygy_matrix, jacobian.pencil_relations
    calls, built = [], []  # built: the curve whose matrices were built last, then its degrees

    def spy_build(ctx, r):
        if not built or built[0] is not ctx:
            built[:] = [ctx]
        built.append(r)
        return build(ctx, r)

    def spy(conics, pencils):
        ctx = built[0]
        calls.append(all(r >= ctx.d - 2 for r in built[1:]))
        return original(conics, pencils)

    monkeypatch.setattr(jacobian, "syzygy_matrix", spy_build)
    monkeypatch.setattr(jacobian, "pencil_relations", spy)
    return calls


def _syzygy_arrangement():
    """Six conics whose three generators at d1 = 8 have a syzygy of degree 2.
    q_5 = 2 q_0 + q_1, so the pool holds one pencil relation at 8, which
    leaves the bound there open."""
    conics = (
        (3, 0, 0, 3, -1, 1),
        (-3, 2, -3, -1, -3, -3),
        (-5, -1, -2, 2, -4, -6),
        (1, -5, 4, 4, 2, 0),
        (4, -3, 1, 9, -3, -1),
        (3, 2, -3, 5, -5, -1),
    )
    return ConicArrangement(tuple(ConicForm(*q) for q in conics))


def test_a_closed_top_step_whose_minor_fails_is_read_again_at_the_top(monkeypatch, kernels):
    """The generators at 8 of _syzygy_arrangement have a syzygy of degree 2:
    their 18 multiples at d-2 = 10 have rank 17, and its part free of x is a
    dependency of the minor's rows.  So the top step after them closes and
    the minor fails, although no relation is missing: with the minor forced
    to pass the walk is the same (assert_same_walk).  The walk climbs to 9
    and, with the same generators at 10, reads the top step's outcome
    instead of bounding 10 again.  The generators found, all at d1 = 8,
    come from the lift of A_8, and no span is put in standard form: the
    pool's candidates at 10 join as they stand."""
    bounds, spans = [], []
    certified_rank, span = jacobian._certified_rank, linalg.kernel_basis_from_span

    def spy(ctx, s, *args):
        bounds.append(s)
        return certified_rank(ctx, s, *args)

    monkeypatch.setattr(jacobian, "_certified_rank", spy)
    monkeypatch.setattr(linalg, "kernel_basis_from_span", lambda *a: spans.append(a) or span(*a))
    arr = _syzygy_arrangement()
    ctx = _context(arr)
    generators = _generators(ctx)
    assert [e for e, _ in generators] == [8, 8, 8]
    assert bounds == [10, *range(9), 10, 9]
    assert (len(spans), kernels) == (0, [(210, 135)])
    found = relation_generators(ctx)
    assert len(linalg.pivot_columns_mod(jacobian._relation_multiples(found, 10))) == 17
    assert not jacobian._x_free_minor(found, [], 10)
    assert (mdr(ctx).r, hilbert_profile(ctx).tau) == (8, 72)
    with mock.patch.object(jacobian, "_x_free_minor", lambda found, joined, top: True):
        forced = _context(arr)
        relation_generators(forced)
    assert_same_walk(forced, ctx)


def test_a_failed_x_minor_climbs_to_the_top_building_its_matrix_and_pairs_once(
    monkeypatch, kernels
):
    """The walk then climbs from degree 0; with nothing found below d-2 it
    reads the start's outcome at d-2: A_{d-2} is built once, the pairs are
    built and checked once, and the support test runs once, at the start,
    with no lift."""
    built, tests = [], []
    build, support = jacobian.syzygy_matrix, linalg._canonical_support
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda ctx, r: built.append(r) or build(ctx, r))
    monkeypatch.setattr(
        linalg, "_canonical_support", lambda *args: tests.append(1) or support(*args)
    )
    calls = _pencil_relation_calls(monkeypatch)
    monkeypatch.setattr(jacobian, "_x_free_minor", lambda found, joined, top: False)
    arr = _generic(4, 2)
    ctx = _context(arr)
    generators = _generators(ctx)
    d = ctx.d
    assert built == [d - 2] + list(range(d - 2))
    assert (calls, tests, kernels) == ([True], [1], [])
    assert generators == _generators(_context(arr, components=False))


@pytest.mark.parametrize(
    "name, rows, calls",
    [("pencil_four_points_m3", {2: 1}, [False]), ("pencil_four_points_m6", {2: 1}, [False])]
    + [("ploski_m5", {1: 1, 8: 1}, []), ("ploski_m2", {1: 1, 2: 1}, [])]
    + [("two_conics_a7_e1", {1: 1, 2: 1}, []), ("generic", {4: 2}, [True])]
    + [("partial_pencil", {8: 1, 10: 3}, [True, False])],
)
def test_each_pencil_through_q0_gives_its_relations(name, rows, calls, monkeypatch):
    """Generic conics give k-1 rows, the pairs, at d-2; k >= 2 conics in one
    pencil one row, grad q_0 x grad q_1 times d, at degree 2, or, where the
    pencil holds a double line L^2 tangent to q_0 (Płoski, two conics with
    an A7 point), rho_L at 1 and theta at d-2 and no pencil_relations call;
    the partial pencil (k = 6) one row at d-4 = 8 for its three members and
    a pair at d-2 = 10 for each other conic.  Each family is built once: the
    start builds the one at d-2 before any lower A_e, the climb those below.
    The walk is that without components (assert_same_walk)."""
    if name == "partial_pencil":
        arr = _partial_pencil(6)
    else:
        arr = _generic(3, 1) if name == "generic" else entry(name).arrangement()
    pencil = sympy.Matrix([q.integer for q in arr.components]).rank() == 2
    assert pencil == (name not in ("generic", "partial_pencil"))
    seen = _pencil_relation_calls(monkeypatch)
    ctx = _context(arr)
    relation_generators(ctx)
    assert seen == calls
    assert_same_walk(ctx, _context(arr, components=False))
    assert {e: len(ctx.pool[e]) for e in ctx.families if e != ctx.d - 1} == rows


# (rows, cols) of each kernel the analysis lifts, in call order, as
# scripts/document_digests.txt records them for the corpus entries
CORPUS_LIFTS = {
    "celal_three_conics": [(36, 18), (45, 30)],
    "p4_four_conics": [(66, 30)],
    "pencil_four_points_m3": [],
    "pencil_four_points_m4": [],
    "pencil_four_points_m5": [],
    "pencil_four_points_m6": [],
    "pencil_two_points_k2": [(15, 9)],
    "pencil_two_points_k3": [(28, 9)],
    "pencil_two_points_k4": [(45, 9)],
    "pencil_two_points_k5": [(66, 9)],
    "pencil_two_points_k6": [(91, 9)],
    "persson_deformed": [(45, 30)],
    "persson_triconical": [(36, 18)],
    "ploski_m2": [],
    "ploski_m3": [],
    "ploski_m4": [],
    "ploski_m5": [],
    "two_conics_a7_e1": [],
    "two_conics_a7_e2": [],
    "two_conics_a7_e3": [],
}


def _pinned_inputs():
    """name -> (curve, arrangement or None, the recorded lifts)."""
    script = _load("bench_windows", "scripts/bench_windows.py")
    out = {}
    for e in corpus_entries():
        arr = e.arrangement()
        f = e.polynomial() if arr is None else arr.polynomial()
        out[e.name] = (f, arr, CORPUS_LIFTS[e.name])
    for i, arr in enumerate(_generic_arrangements(1)):
        out[f"generic_1_{i}"] = (arr.polynomial(), arr, [])
    out["shifted_7_4"] = (_shifted(7, 4).polynomial(), _shifted(7, 4), [(351, 273)])
    for k in (4, 5, 6):
        arr = ConicArrangement.from_texts(script.tangent_texts(k, 1))
        out[f"tangent_{k}"] = (arr.polynomial(), arr, [])
    arr = _syzygy_arrangement()
    out["syzygy_6"] = (arr.polynomial(), arr, [(210, 135)])
    arr = _partial_pencil(6)
    out["partial_pencil_6"] = (arr.polynomial(), arr, [])
    return out


def test_each_analysis_builds_its_start_once_and_checks_each_family_once(monkeypatch, kernels):
    """Over the corpus, generic seed 1, shifted (7, 4) and the tangent ladder:
    A_{d-2} is built once, whether the walk starts there or climbs to it,
    each family of the pool is built and checked exactly once, every family
    is reached, and the lifted kernels are those of the walk with the top
    step."""
    built, checks, builds = [], [], []
    build, kills = jacobian.syzygy_matrix, jacobian._kills
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda ctx, r: built.append(r) or build(ctx, r))
    monkeypatch.setattr(jacobian, "_kills", lambda a, v: checks.append(v.shape[0]) or kills(a, v))
    for name in ("pencil_relations", "double_line_relations", "tangent_relations"):
        original = getattr(jacobian, name)

        def spy(*args, name=name, original=original):
            rows = original(*args)
            builds.append((name, rows.shape[1]))
            return rows

        monkeypatch.setattr(jacobian, name, spy)
    for name, (f, arr, lifts) in _pinned_inputs().items():
        for spy in (built, checks, builds, kernels):
            spy.clear()
        ctx = analyze_curve(f, arrangement=arr).ctx
        assert sorted(ctx.pool) == sorted(ctx.families), name
        # the start checks the family at d-2, the climb those below, the window d-1
        order = sorted(ctx.families, key=lambda e: (e != ctx.d - 2, e))
        assert checks == [3 * degree_dimension(e) for e in order], name
        # one family at d-1, the Koszul relations; each builder of the others
        # runs once per degree it serves, and every degree has one
        assert len(set(builds)) == len(builds), name
        widths = {3 * degree_dimension(e) for e in ctx.families if e != ctx.d - 1}
        assert {width for _, width in builds} == widths, name
        # the walk's top degree, where the pool starts it when it holds pairs
        assert built.count(ctx.d - 2) == 1, name
        assert kernels == lifts, name


def test_the_walk_bounds_each_step_once(monkeypatch):
    """Over the corpus, generic seed 1, shifted (7, 4) and the tangent
    ladder, the walk calls _certified_rank once per degree it steps: once
    at each degree below d-2 whose matrix it builds, and never twice in a
    row, since a step at d-2 follows a step below it or the start.  At d-2
    the multiples of the generators found and the pool's candidates are
    bounded together."""
    bounds, built = [], []
    certified_rank, build = jacobian._certified_rank, jacobian.syzygy_matrix

    def spy(ctx, s, *args):
        bounds.append(s)
        return certified_rank(ctx, s, *args)

    monkeypatch.setattr(jacobian, "_certified_rank", spy)
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda ctx, r: built.append(r) or build(ctx, r))
    for name, (f, arr, _) in _pinned_inputs().items():
        bounds.clear()
        built.clear()
        conics = None if arr is None else [q.integer for q in arr.components]
        relation_generators(JacobianContext.for_curve(f, conics))
        top = f.degree - 2
        assert bounds and all(s != t for s, t in zip(bounds, bounds[1:])), (name, bounds)
        assert [s for s in bounds if s < top] == [r for r in built if r < top], name
        assert set(bounds) == set(built), name


def test_no_walk_eliminates_a_rung_twice(monkeypatch):
    """Over the corpus, generic seed 1, shifted (7, 4), the tangent ladder
    and _syzygy_arrangement, no analysis builds and checks one rung twice:
    the walk keeps its steps at d-2 by the count of generators found, so a
    step at d-2 after the top step with the same generators reads its
    outcome.  _relations_mod_p runs once per rung built."""
    seen = []
    original = jacobian._relations_mod_p

    def spy(ctx, t, rows):
        seen.append((t, rows.shape, rows.tobytes()))
        return original(ctx, t, rows)

    monkeypatch.setattr(jacobian, "_relations_mod_p", spy)
    for name, (f, arr, _) in _pinned_inputs().items():
        seen.clear()
        analyze_curve(f, arrangement=arr)
        assert seen and len(set(seen)) == len(seen), name


def test_the_walk_builds_a_standard_form_only_at_d1(monkeypatch):
    """Cost ladder: over _pinned_inputs() (the corpus among them) and the
    a7_k5, tangent-ladder and partial-pencil inputs of
    scripts/bench_windows.py, linalg.kernel_basis_from_span runs at most
    once per analysis, at the degree of the walk's first generator, where
    the witness is read: above d1 the pool's candidates join as they
    stand."""
    script = _load("bench_windows", "scripts/bench_windows.py")
    inputs = {name: (f, arr) for name, (f, arr, _) in _pinned_inputs().items()}
    for name, texts in script.arrangements().items():
        if name == "a7_k5" or name.startswith(("tangent_", "partial_pencil")):
            arr = ConicArrangement.from_texts(texts)
            inputs[f"bench:{name}"] = (arr.polynomial(), arr)
    degrees, span = [], linalg.kernel_basis_from_span

    def spy(matrix, rows, dimension):
        degrees.append(next(e for e in count() if 3 * degree_dimension(e) == matrix.cols))
        return span(matrix, rows, dimension)

    monkeypatch.setattr(linalg, "kernel_basis_from_span", spy)
    for name, (f, arr) in inputs.items():
        degrees.clear()
        generators = analyze_curve(f, arrangement=arr).ctx.generators
        assert degrees in ([], [generators[0][0]]), (name, degrees)


@pytest.mark.parametrize("name", ["ploski_m5", "p4_four_conics"])
def test_the_generators_above_d1_are_rows_of_the_pool(name):
    ctx = _context(entry(name).arrangement())
    generators = relation_generators(ctx)
    above = [(e, vec) for e, vec in generators if e > generators[0][0]]
    assert above
    for e, vec in above:
        assert any(np.array_equal(vec, row) for _, row in ctx.pool[e]), e


@pytest.mark.parametrize(
    "name, degrees",
    [
        ("persson_deformed", [3, 3, 3]),
        ("celal_three_conics", [2, 3]),
        ("p4_four_conics", [3, 5, 5]),
    ],
)
def test_the_minor_alone_stops_a_descent_from_the_whole_top_kernel(name, degrees, monkeypatch):
    """A family at d-2 that holds the certified kernel of A_{d-2} closes the
    start's top step with no generator found, so only the x-free minor can
    stop the descent there.  It does: the generators and d1 are those of
    the walk without that family.  A minor that always passes takes the
    whole kernel at d-2 as the generators, and d1 reads d-2."""
    arr = entry(name).arrangement()
    families = JacobianContext.families.func

    def top_kernel(ctx):
        kernel = linalg.kernel_basis_certified(syzygy_matrix(ctx, ctx.d - 2))
        return np.array(kernel.vectors, dtype=object)

    def with_the_top_kernel(ctx):
        return families(ctx) | {ctx.d - 2: partial(top_kernel, ctx)}

    plain = _context(arr)
    expected = _generators(plain)
    assert [e for e, _ in expected] == degrees
    monkeypatch.setattr(JacobianContext, "families", property(with_the_top_kernel))
    ctx, top = _context(arr), plain.d - 2
    assert (_generators(ctx), mdr(ctx).r) == (expected, mdr(plain).r)
    assert len(ctx.pool[top]) == linalg.kernel_basis_certified(syzygy_matrix(ctx, top)).dimension
    monkeypatch.setattr(jacobian, "_x_free_minor", lambda found, joined, top: True)
    ctx = _context(arr)
    assert {e for e, _ in _generators(ctx)} == {top} and mdr(ctx).r == top


def test_no_production_path_reaches_the_reference_engine(monkeypatch):
    """linalg.rank and linalg.kernel_basis are the tests' reference engine:
    the corpus, the benchmark's generic arrangements of seed 1 and a tangent
    arrangement (the first conic plus multiples of squares of lines: two A3
    points and one A7 point) are analyzed without them."""

    def refuse(matrix):
        raise AssertionError("the reference engine was called")

    monkeypatch.setattr(linalg, "rank", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    for e in corpus_entries():
        analyze_entry(e)
    tangent = ConicArrangement.from_texts(["x^2+y^2-z^2", "2*x^2+y^2-z^2", "x^2+y^2-z^2+2*(x-z)^2"])
    for arr in _generic_arrangements(1) + (tangent,):
        analyze_curve(arr.polynomial(), arrangement=arr)


def test_analysis_refuses_an_arrangement_that_is_not_the_curve():
    f = parse_polynomial("(x^2+y^2-z^2)*(x^2+3*y^2-5*z^2)")
    arr = ConicArrangement.from_texts(["x^2+y^2-z^2", "x^2-y^2+2*z^2"])
    with pytest.raises(ValueError, match="not a constant multiple of the curve"):
        analyze_curve(f, arrangement=arr)
    with pytest.raises(ValueError, match="not a constant multiple of the curve"):
        analyze_curve(parse_polynomial("x^4+y^4+z^4"), arrangement=arr)


def test_analysis_takes_a_constant_multiple_of_the_product():
    arr = ConicArrangement.from_texts(["x^2+y^2-z^2", "x^2-y^2+2*z^2", "2*x^2+y^2-3*x*z"])
    assert arr.polynomial() is arr.polynomial()
    scaled = analyze_curve(arr.polynomial().scale(-3), arrangement=arr)
    plain = analyze_curve(arr.polynomial(), arrangement=arr)
    assert (scaled.witness, scaled.profile) == (plain.witness, plain.profile)
