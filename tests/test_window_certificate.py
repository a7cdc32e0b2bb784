"""Hilbert-window ranks certified by explicit relations.

Each window rank is certified two-sided: below by the monomial multiples
of grevlex leading monomials mod p recorded in the relation search, above
by the monomial multiples of exact relation generators (found in degrees
<= d-2, plus the three Koszul relations).  These tests hold that
certificate against the lifted-kernel engine, the exact engine, an exact
containment check, elimination as the oracle of the multiplied leading
monomials and of the multiplied leading terms of the relation multiples,
deliberately broken relation sets, the exponents of free and nearly free
curves, and the du Plessis-Wall bounds.
"""

import importlib.util
from functools import lru_cache
from math import comb, gcd
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree import jacobian, linalg
from conicfree.corpus import corpus_entries
from conicfree.freeness import FREE, NEARLY_FREE
from conicfree.jacobian import (
    JacobianContext,
    hilbert_profile,
    mdr,
    relation_generators,
    syzygy_matrix,
)
from conicfree.linalg import rank_certified
from conicfree.poly import degree_dimension, monomials_of_degree, parse_polynomial
from exact_engine import agrees_with_exact_mdr, exact_window

ROOT = Path(__file__).resolve().parent.parent


def _curve(texts):
    return JacobianContext.for_curve(parse_polynomial("*".join(f"({t})" for t in texts)))


@lru_cache(maxsize=None)
def _generic_texts(seed):
    """The benchmark's generic arrangements for a seed: eight sextics and one octic."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(tuple(item["texts"]) for item in module.generic_inputs(seed))


@lru_cache(maxsize=None)
def _generic_inputs(seed):
    return tuple(_curve(texts) for texts in _generic_texts(seed))


@lru_cache(maxsize=None)
def _corpus():
    return tuple((e, JacobianContext.for_curve(e.polynomial())) for e in corpus_entries())


def _window_shifts(ctx):
    lo = 3 * ctx.d - 6
    return [t - ctx.d + 1 for t in range(lo, lo + 3)]


def _relations(ctx):
    """The exact relations whose multiples form F at the window degrees."""
    return relation_generators(ctx) + ctx.koszul


def _refuse(matrix):
    raise AssertionError(f"window rank fell back on {matrix!r}")


_PROFILES = {}


def _window(ctx):
    """The window values of a cached curve, computed once with the fallback refused."""
    if id(ctx) not in _PROFILES:
        with mock.patch.object(linalg, "rank_certified", _refuse):
            _PROFILES[id(ctx)] = [v for _, v in hilbert_profile(ctx).window]
    return _PROFILES[id(ctx)]


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the calls of the lifted-kernel rank."""
    calls = []
    original = linalg.rank_certified

    def spy(matrix):
        calls.append((matrix.rows, matrix.cols))
        return original(matrix)

    monkeypatch.setattr(linalg, "rank_certified", spy)
    return calls


@pytest.fixture
def kernels(monkeypatch):
    """Count the calls of the certified kernel."""
    calls = []
    original = linalg.kernel_basis_certified

    def spy(matrix, **options):
        calls.append((matrix.rows, matrix.cols))
        return original(matrix, **options)

    monkeypatch.setattr(linalg, "kernel_basis_certified", spy)
    return calls


def test_window_agrees_with_lifted_kernel_ranks():
    for ctx in [ctx for _, ctx in _corpus()] + list(_generic_inputs(1)):
        lifted = [
            degree_dimension(s + ctx.d - 1) - rank_certified(syzygy_matrix(ctx, s))
            for s in _window_shifts(ctx)
        ]
        assert _window(ctx) == lifted


def test_window_agrees_with_exact_engine_up_to_degree_eight():
    for e, ctx in _corpus():
        if ctx.d <= 8:
            assert hilbert_profile(ctx).window == exact_window(ctx), e.name


def test_relation_multiples_lie_in_the_kernel():
    """Exact oracle: A_s kills every row of F (the exact multiples) at every window degree."""
    curves = [ctx for _, ctx in _corpus()] + list(_generic_inputs(1))
    for ctx in curves:
        relations = _relations(ctx)
        assert relations
        for s in _window_shifts(ctx):
            a = syzygy_matrix(ctx, s).array
            f = jacobian._relation_multiples(relations, s)
            assert f.shape[1] == a.shape[1]
            assert linalg._kills(linalg._SparseRows(a), f.T)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generic_windows_take_no_fallback(seed):
    for ctx in _generic_inputs(seed):
        k = ctx.d // 2
        assert _window(ctx) == [2 * k * (k - 1)] * 3  # Bezout: 4 nodes per pair


def test_corpus_windows_take_no_fallback():
    for e, ctx in _corpus():
        assert _window(ctx) == [e.expected["tau"]] * 3, e.name


FREE_SMALL = ("persson_triconical", "celal_three_conics", "ploski_m3", "two_conics_a7_e1")


@pytest.mark.parametrize("name", FREE_SMALL + ("p4_four_conics",))
def test_dropping_a_generator_falls_back(name, monkeypatch, fallbacks):
    e, ctx = next(item for item in _corpus() if item[0].name == name)
    original = jacobian.relation_generators
    monkeypatch.setattr(
        jacobian, "relation_generators", lambda *args: original(*args)[1:]
    )
    profile = hilbert_profile(ctx)
    # the first window degree always lacks the dropped generator's multiples
    first = syzygy_matrix(ctx, 2 * ctx.d - 5)
    assert fallbacks[0] == (first.rows, first.cols)
    assert profile.tau == e.expected["tau"]


@pytest.fixture
def fresh_tables():
    """Clear the cached position tables before and after the test, so that
    no table the test builds or changes outlives it."""
    jacobian._product_positions.cache_clear()
    yield
    jacobian._product_positions.cache_clear()


# what the window does with a shifted monomial index, by curve: every one
# of these catches a row that is no relation
SHIFTED_OUTCOMES = {
    name: "raises" for name in FREE_SMALL + ("p4_four_conics", "pencil_four_points_m4")
}


@pytest.mark.parametrize("name", SHIFTED_OUTCOMES)
def test_shifted_monomial_index_never_gives_a_wrong_tau(name, monkeypatch, fallbacks, fresh_tables):
    """_relation_multiples reads its columns from a position table whose
    first entry (x^(s-e) times x^e) is moved one monomial on: the window
    either catches a row that is no relation or falls back to the right
    tau, and each curve gives the outcome recorded for it."""
    e, ctx = next(item for item in _corpus() if item[0].name == name)
    original_multiples = jacobian._relation_multiples
    original_positions = jacobian._product_positions

    def shifted_positions(s, t):
        out = original_positions(s, t).copy()
        out.flat[0] = (out.flat[0] + 1) % degree_dimension(s + t)
        return out

    def shifted_multiples(relations, s, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(jacobian, "_product_positions", shifted_positions)
            return original_multiples(relations, s, **kwargs)

    monkeypatch.setattr(jacobian, "_relation_multiples", shifted_multiples)
    if SHIFTED_OUTCOMES[name] == "raises":
        with pytest.raises(AssertionError, match="not a relation"):
            hilbert_profile(ctx)
    else:
        profile = hilbert_profile(ctx)
        assert fallbacks
        assert profile.tau == e.expected["tau"]


def test_a_row_that_is_no_relation_is_caught_mod_p():
    for name in FREE_SMALL + ("pencil_four_points_m4",):
        e, ctx = next(item for item in _corpus() if item[0].name == name)
        s = 2 * ctx.d - 5
        matrix = syzygy_matrix(ctx, s)
        f = jacobian._relation_multiples(jacobian._residues(_relations(ctx)), s)
        assert jacobian._relations_mod_p(matrix, f, ctx.row_l1)
        f[len(f) // 2, 0] = (f[len(f) // 2, 0] + 1) % linalg.BOUND_PRIME
        assert not jacobian._relations_mod_p(matrix, f, ctx.row_l1), name


_P = linalg.BOUND_PRIME
_DENSE_L1 = (2**63 - 1) // (_P - 1)  # the largest row l1 norm of a dense product mod p


def _weights(n):
    """The weights of _relations_mod_p, from the Weyl sequence its docstring gives."""
    return [((i * 0x9E3779B9) % 2**32 >> 16) % (2**16 - 1) + 1 for i in range(1, n + 1)]


@st.composite
def _relation_checks(draw):
    """A matrix with the bound on its row l1 norms that the check is given,
    and residues mod p as relation multiples.

    The matrix is int64 with a row whose l1 norm is just below or just above
    _DENSE_L1 (entries of one sign, so a dense product at the wrong side of
    the bound overflows), small int64 with its own bound or one past
    _DENSE_L1, or object with entries up to 2^80; it may have zero rows.
    The multiples number 0 to 3 * 2^16, mostly p - 1, with a last row that
    may cancel the combination.
    """
    cols = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["below", "above", "small", "object"]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            rows.append([0] * cols)
        elif kind == "object":
            rows.append([draw(st.integers(-(2**80), 2**80)) for _ in range(cols)])
        else:
            rows.append([draw(st.integers(-3, 3)) for _ in range(cols)])
    if kind in ("below", "above"):
        total = _DENSE_L1 + (1 if kind == "above" else -draw(st.integers(0, 2)))
        sign = draw(st.sampled_from([1, -1]))
        row = [total // cols] * cols
        row[0] += total - sum(row)
        rows.insert(draw(st.integers(0, len(rows))), [sign * v for v in row])
    matrix = np.zeros((len(rows), cols), dtype=object if kind == "object" else np.int64)
    if rows:
        matrix[:] = rows
    l1 = max((sum(map(abs, row)) for row in rows), default=0)
    if kind == "small" and draw(st.booleans()):
        l1 = _DENSE_L1 + 1
    n = draw(st.sampled_from([0, 1, 3, 2**16 - 1, 2**16, 2**16 + 2, 3 * 2**16]))
    multiples = np.full((n, cols), _P - 1, dtype=np.int64)
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        multiples[draw(st.integers(0, n - 1)), draw(st.integers(0, cols - 1))] = draw(
            st.integers(0, _P - 1)
        )
    if n and draw(st.booleans()):
        _cancel(multiples)
    return matrix, l1, multiples


def _cancel(multiples):
    """Set the last row so that the weighted combination of the rows is 0 mod p."""
    weights = _weights(len(multiples))
    head = multiples[:-1].astype(object).T.dot(np.array(weights[:-1], dtype=object))
    multiples[-1] = [-v * pow(weights[-1], -1, _P) % _P for v in head.tolist()]


@settings(max_examples=60, deadline=None)
@given(_relation_checks(), st.lists(st.sampled_from([0, 1, _P - 1]), min_size=4, max_size=4))
def test_relation_check_matches_a_python_reference(check, x):
    """product_mod and _relations_mod_p against sums of Python integers mod p:
    the dense int64 product at and past its bound, the sparse path on object
    arrays, zero rows, and combinations of more than 2^16 rows."""
    matrix, l1, multiples = check
    a = matrix.tolist()
    x = np.array(x[: matrix.shape[1]], dtype=np.int64)
    got = linalg.product_mod(matrix, x, l1)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(v * w for v, w in zip(row, x.tolist())) % _P for row in a]
    weights = _weights(len(multiples))
    combo = [sum(w * v for w, v in zip(weights, col)) % _P for col in multiples.T.tolist()]
    expected = all(sum(v * c for v, c in zip(row, combo)) % _P == 0 for row in a)
    assert jacobian._relations_mod_p(linalg.RatMatrix(matrix), multiples, l1) is expected


def test_relation_check_combines_many_rows_exactly():
    """3 * 2^16 rows of p - 1: one int64 product of them all would overflow,
    and only an exact combination is 0 mod p."""
    multiples = np.full((3 * 2**16, 2), _P - 1, dtype=np.int64)
    _cancel(multiples)
    matrix = linalg.RatMatrix(np.array([[1, 0], [0, 1], [5, -7]], dtype=np.int64))
    for l1 in (12, _DENSE_L1 + 1):
        assert jacobian._relations_mod_p(matrix, multiples, l1)
        multiples[7, 1] -= 1
        assert not jacobian._relations_mod_p(matrix, multiples, l1)
        multiples[7, 1] += 1


def test_each_canonical_kernel_takes_one_prime(monkeypatch):
    """The certified kernels of the relation walks of the corpus and of the
    generic octic, on fresh contexts, eliminate their matrix once: one
    _echelon_mod of its shape (the inverse of Dixon's lifting eliminates
    [b | I], of another shape)."""
    shapes, eliminations = [], []
    echelon, kernel = linalg._echelon_mod, linalg.kernel_basis_certified

    def spy_echelon(a, p):
        shapes.append(a.shape)
        return echelon(a, p)

    def spy_kernel(matrix):
        shapes.clear()
        basis = kernel(matrix)
        if max(matrix.rows, matrix.cols) > linalg._MOD_THRESHOLD:
            eliminations.append(shapes.count(matrix.array.shape))
        return basis

    monkeypatch.setattr(linalg, "_echelon_mod", spy_echelon)
    monkeypatch.setattr(linalg, "kernel_basis_certified", spy_kernel)
    curves = [JacobianContext.for_curve(e.polynomial()) for e in corpus_entries()]
    curves.append(_curve(_generic_texts(1)[-1]))
    for ctx in curves:
        relation_generators(ctx)
    assert len(eliminations) >= 10 and set(eliminations) == {1}, eliminations


def test_generator_degrees_are_the_exponents():
    checked = 0
    for e, ctx in _corpus():
        d, d1, verdict = ctx.d, e.expected["d1"], e.expected["verdict"]
        degrees = sorted(r for r, _ in relation_generators(ctx))
        if verdict == FREE:
            assert degrees == sorted([d1, d - 1 - d1]), e.name
            checked += 1
        elif verdict == NEARLY_FREE and d - d1 <= d - 2:
            assert degrees == [d1, d - d1, d - d1], e.name
            checked += 1
    assert checked == 11  # 9 free entries, 2 nearly free ones with d1 >= 2


def _du_plessis_wall(ctx, tau):
    d, r = ctx.d, mdr(ctx).r
    upper = (d - 1) ** 2 - r * (d - 1 - r)
    if 2 * r >= d:
        upper -= comb(2 * r + 2 - d, 2)
    assert (d - 1) * (d - r - 1) <= tau <= upper, (d, r, tau)


def test_du_plessis_wall_bounds_on_corpus_and_generic_input():
    curves = [ctx for _, ctx in _corpus()]
    for seed in (1, 2, 3):
        curves += _generic_inputs(seed)
    for ctx in curves:
        _du_plessis_wall(ctx, _window(ctx)[0])


def _smooth(q):
    a, b, c, h, g, f = q  # xx, yy, zz, xy, xz, yz
    # half the determinant of [[2a, h, g], [h, 2b, f], [g, f, 2c]]
    return 4 * a * b * c + h * f * g - a * f * f - b * g * g - c * h * h != 0


_CONIC = st.tuples(*[st.integers(-3, 3)] * 6).filter(_smooth)


def _conic_text(q):
    monos = ("x^2", "y^2", "z^2", "x*y", "x*z", "y*z")
    return "+".join(f"({c})*{m}" for c, m in zip(q, monos))


def _primitive(q):
    g = gcd(*q)
    q = tuple(v // g for v in q)
    return q if next(v for v in q if v) > 0 else tuple(-v for v in q)


@settings(max_examples=8, deadline=None)
@given(st.lists(_CONIC, min_size=2, max_size=3, unique_by=_primitive))
def test_du_plessis_wall_bounds_on_products_of_conics(conics):
    ctx = _curve([_conic_text(q) for q in conics])
    profile = hilbert_profile(ctx)
    assert profile.tau is not None
    _du_plessis_wall(ctx, profile.tau)


def _fresh(ctx):
    """The same curve with empty kernel and leading-monomial records."""
    return JacobianContext.for_curve(ctx.f)


def _is_gradient_ideal(rows, t):
    """Whether _leading_terms(rows, t) eliminates A_s^T (one block of degree-t
    monomial columns) rather than relation multiples (three blocks)."""
    return rows.shape[1] == degree_dimension(t)


def _window_eliminations(ctx, monkeypatch):
    """The window degrees at which hilbert_profile eliminates A_s, fallback refused."""
    degrees = []
    original = jacobian._leading_terms

    def spy(rows, t):
        if _is_gradient_ideal(rows, t):
            degrees.append(t - ctx.d + 1)
        return original(rows, t)

    with monkeypatch.context() as m:
        m.setattr(jacobian, "_leading_terms", spy)
        m.setattr(linalg, "rank_certified", _refuse)
        hilbert_profile(ctx)
    return [s for s in degrees if s >= 2 * ctx.d - 5]


def test_corpus_windows_eliminate_no_window_matrix(monkeypatch):
    for e, ctx in _corpus():
        assert _window_eliminations(_fresh(ctx), monkeypatch) == [], e.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generic_windows_eliminate_no_window_matrix(seed, monkeypatch):
    for ctx in _generic_inputs(seed):
        assert _window_eliminations(_fresh(ctx), monkeypatch) == []


def _recorded_multiples(ctx, s):
    """S_{s-e} times the leading monomials recorded in the highest degree e <= s,
    as row positions of A_s; none without a record."""
    below = [e for e in ctx.leading if e <= s]
    if not below:
        return np.zeros(0, dtype=np.int64)
    e, shift = max(below), ctx.d - 1
    return jacobian._leading_multiples(ctx.leading[e], e + shift, s + shift)


def test_multiplied_leading_monomials_are_leading_monomials():
    """Elimination as oracle: S_1 times LT(J_t) lies in LT(J_{t+1}), d-1 <= t < 3d-4."""
    for ctx in [ctx for _, ctx in _corpus()] + list(_generic_inputs(1)):
        ctx = _fresh(ctx)
        for s in range(2 * ctx.d - 2):
            multiplied = _recorded_multiples(ctx, s)
            a_t = syzygy_matrix(ctx, s).array.T
            fresh = ctx.leading[s] = jacobian._leading_terms(a_t, s + ctx.d - 1)
            assert np.isin(multiplied, fresh).all(), (ctx.d, s)
            assert s == 0 or len(multiplied) > 0


def _leading_count_at_most_rank(ctx):
    hilbert_profile(ctx)
    for s in _window_shifts(ctx):
        count = len(_recorded_multiples(ctx, s))
        assert 0 < count <= linalg.rank(syzygy_matrix(ctx, s)), (ctx.d, s)


def test_leading_count_never_exceeds_the_exact_rank_up_to_degree_eight():
    for e, ctx in _corpus():
        if ctx.d <= 8:
            _leading_count_at_most_rank(_fresh(ctx))


@settings(max_examples=8, deadline=None)
@given(st.lists(_CONIC, min_size=2, max_size=3, unique_by=_primitive))
def test_leading_count_never_exceeds_the_exact_rank_on_products_of_conics(conics):
    _leading_count_at_most_rank(_curve([_conic_text(q) for q in conics]))


@lru_cache(maxsize=None)
def _bench_windows():
    """scripts/bench_windows.py, for its inputs."""
    spec = importlib.util.spec_from_file_location(
        "bench_windows", ROOT / "scripts" / "bench_windows.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _relation_rungs(ctx, monkeypatch):
    """The rungs t at which hilbert_profile eliminates relation multiples (their
    leading terms in degree t), with the relation walk run before, and tau;
    fallback refused."""
    relation_generators(ctx)
    rungs = []
    original = jacobian._leading_terms

    def spy(rows, t):
        if not _is_gradient_ideal(rows, t):
            rungs.append(t)
        return original(rows, t)

    with monkeypatch.context() as m:
        m.setattr(jacobian, "_leading_terms", spy)
        m.setattr(linalg, "rank_certified", _refuse)
        tau = hilbert_profile(ctx).tau
    return rungs, tau


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generic_windows_eliminate_no_relation_multiples(seed, monkeypatch):
    for ctx in _generic_inputs(seed):
        k = ctx.d // 2
        assert _relation_rungs(_fresh(ctx), monkeypatch) == ([ctx.d - 1], 2 * k * (k - 1))


def test_large_generic_window_eliminates_no_relation_multiples(monkeypatch):
    ctx = _curve(_bench_windows().arrangements()["generic_k5"])
    assert _relation_rungs(ctx, monkeypatch) == ([ctx.d - 1], 40)


def test_corpus_windows_eliminate_no_relation_multiples(monkeypatch):
    for e, ctx in _corpus():
        rungs = _relation_rungs(_fresh(ctx), monkeypatch)
        assert rungs == ([ctx.d - 1], e.expected["tau"]), e.name


# (k, seed) -> tau of the shifted generic inputs whose relation bound needs
# leading terms above degree d-1: a ladder cut at d-1 falls to the full
# elimination of F_s, 3-10 s on each of them
CLIFF_TAUS = {(7, 4): 85, (8, 4): 115, (8, 19): 115}


@pytest.mark.parametrize(
    "k, seed", [(k, seed) for k in (4, 5, 6) for seed in range(1, 21)] + list(CLIFF_TAUS)
)
def test_no_relation_rung_reaches_a_window_degree(k, seed, monkeypatch):
    """The seed ladder of the shifted generic inputs (scripts/bench_windows.py):
    every window rank closes on rungs below the first window degree 2d-5, so no
    window degree eliminates its relation multiples."""
    ctx = _curve(_bench_windows().shifted_texts(k, seed))
    rungs, tau = _relation_rungs(ctx, monkeypatch)
    assert rungs and max(rungs) < 2 * ctx.d - 5, rungs
    assert tau == CLIFF_TAUS.get((k, seed), tau)


def _relation_terms(ctx):
    """The residues of the window relations and their leading terms in degree d-1."""
    residues = jacobian._residues(_relations(ctx))
    top = jacobian._relation_multiples(residues, ctx.d - 1)
    return residues, jacobian._leading_terms(top, ctx.d - 1)


def test_multiplied_leading_terms_are_leading_terms():
    """Elimination as oracle: S_{s-d+1} LT(F_{d-1}) lies in LT(F_s) at each window degree."""
    for ctx in [ctx for _, ctx in _corpus()] + list(_generic_inputs(1)):
        residues, terms = _relation_terms(ctx)
        for s in _window_shifts(ctx):
            multiplied = jacobian._leading_multiples(terms, ctx.d - 1, s)
            f = jacobian._relation_multiples(residues, s)
            fresh = jacobian._leading_terms(f, s)
            assert len(multiplied) > 0 and np.isin(multiplied, fresh).all(), (ctx.d, s)


def _relation_count_at_most_rank(ctx):
    residues, terms = _relation_terms(ctx)
    for s in _window_shifts(ctx):
        count = len(jacobian._leading_multiples(terms, ctx.d - 1, s))
        matrix = syzygy_matrix(ctx, s)
        f = jacobian._relation_multiples(residues, s)
        assert count <= len(linalg.pivot_columns_mod(f)), (ctx.d, s)
        assert 0 < count <= matrix.cols - linalg.rank(matrix), (ctx.d, s)


def test_relation_count_never_exceeds_the_nullity_up_to_degree_eight():
    for e, ctx in _corpus():
        if ctx.d <= 8:
            _relation_count_at_most_rank(ctx)


@settings(max_examples=8, deadline=None)
@given(st.lists(_CONIC, min_size=2, max_size=3, unique_by=_primitive))
def test_relation_count_never_exceeds_the_nullity_on_products_of_conics(conics):
    _relation_count_at_most_rank(_curve([_conic_text(q) for q in conics]))


def test_mdr_and_the_window_share_one_relation_walk(monkeypatch, kernels):
    """mdr then hilbert_profile on a fresh context of the generic octic build
    each matrix of degree <= d-2 once and take one certified kernel, at d1,
    whose first vector is the witness."""
    ctx = _curve(_generic_texts(1)[-1])
    builds = []
    original = jacobian.syzygy_matrix

    def spy(curve, r):
        builds.append(r)
        return original(curve, r)

    monkeypatch.setattr(jacobian, "syzygy_matrix", spy)
    witness = mdr(ctx)
    assert hilbert_profile(ctx).tau == 24 and ctx.d == 8
    assert sorted(r for r in builds if r <= ctx.d - 2) == list(range(ctx.d - 1))
    generators = relation_generators(ctx)
    assert len(kernels) == 1 and generators[0][0] == witness.r
    assert witness == jacobian._vector_to_witness(*generators[0])


def test_one_certified_kernel_per_generator_degree(kernels):
    """On fresh contexts of the corpus and generic curves the walk takes a
    kernel exactly where a generator joins, and mdr takes none of its own."""
    curves = [JacobianContext.for_curve(e.polynomial()) for e in corpus_entries()]
    curves += [_curve(texts) for texts in _generic_texts(1)]
    for ctx in curves:
        kernels.clear()
        generators = relation_generators(ctx)
        assert len(kernels) == len({e for e, _ in generators}), ctx.f
        witness = mdr(ctx)
        assert len(kernels) == len({e for e, _ in generators}), ctx.f
        if generators:
            assert witness == jacobian._vector_to_witness(*generators[0])


@settings(max_examples=25, deadline=None)
@given(st.lists(_CONIC, min_size=2, max_size=3, unique_by=_primitive))
def test_mdr_engines_agree_on_products_of_conics(conics):
    """The modular mdr (the first generator of the walk, else a Koszul
    relation) agrees with the exact engine's kernel loop: in degree, and
    below d-1 in the witness too."""
    ctx = _curve([_conic_text(q) for q in conics])
    assert agrees_with_exact_mdr(ctx, mdr(ctx))


@settings(max_examples=100, deadline=None)
@given(
    e=st.integers(0, 6),
    step=st.integers(0, 4),
    picks=st.sets(st.integers(0, 3 * degree_dimension(6) - 1), max_size=30),
)
def test_leading_multiples_are_the_distinct_sorted_products(e, step, picks):
    """Against np.unique of the products, built from the monomial lists."""
    s, n = e + step, degree_dimension(e)
    terms = np.array(sorted(t for t in picks if t < 3 * n), dtype=np.int64)
    monos, targets = monomials_of_degree(e), monomials_of_degree(s)
    products = [
        t // n * len(targets) + targets.index(tuple(u + v for u, v in zip(monos[t % n], m)))
        for t in terms.tolist()
        for m in monomials_of_degree(step)
    ]
    expected = np.unique(np.array(products, dtype=np.int64))
    got = jacobian._leading_multiples(terms, e, s)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
