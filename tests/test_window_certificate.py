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


def test_a_fallback_builds_its_matrix_once(monkeypatch):
    """Without its first generator the Persson sextic falls back at every
    window degree 7, 8, 9: each A_s is built once, eliminated for its
    leading monomials and then handed to the lifted-kernel rank.  The one
    other matrix is A_5 = A_{d-1}, against which the Koszul relations are
    checked."""
    (persson,) = [e for e in corpus_entries() if e.name == "persson_triconical"]
    ctx = JacobianContext.for_curve(persson.polynomial())
    original = jacobian.relation_generators
    original(ctx)
    monkeypatch.setattr(jacobian, "relation_generators", lambda *args: original(*args)[1:])
    built, build = [], jacobian.syzygy_matrix
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda c, r: built.append(r) or build(c, r))
    fallbacks = []
    rank = linalg.rank_certified
    monkeypatch.setattr(linalg, "rank_certified", lambda m: fallbacks.append(m.cols) or rank(m))
    assert hilbert_profile(ctx).tau == 19
    assert built == [5, 7, 8, 9]
    assert fallbacks == [3 * degree_dimension(s) for s in (7, 8, 9)]


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
        f = jacobian._relation_multiples(jacobian._residues(_relations(ctx)), s)
        assert jacobian._relations_mod_p(ctx, s, f)
        f[len(f) // 2, 0] = (f[len(f) // 2, 0] + 1) % linalg.BOUND_PRIME
        assert not jacobian._relations_mod_p(ctx, s, f), name


_P = linalg.BOUND_PRIME
# the largest row l1 norm of a dense int64 product mod p, the bound of the
# dense check that the product with the gradient replaced
_DENSE_L1 = (2**63 - 1) // (_P - 1)


@lru_cache(maxsize=None)
def _weights(n):
    """The weights of _relations_mod_p, from the Weyl sequence its docstring gives."""
    return tuple(((i * 0x9E3779B9) % 2**32 >> 16) % (2**16 - 1) + 1 for i in range(1, n + 1))


def _gradient_only(d, gradient):
    """A context of degree d holding the gradient array and nothing else, the
    two things the relation check reads."""
    return JacobianContext(f=None, d=d, gradient=gradient)


def _python_image(d, gradient, t, vec):
    """A_t @ vec mod p in Python integers, built from the monomial lists: the
    degree-t monomial j of component c times the degree-(d-1) monomial g,
    with coefficient vec[c * dim S_t + j] * gradient[c][g]."""
    monos, lower = monomials_of_degree(t), monomials_of_degree(d - 1)
    index = {m: i for i, m in enumerate(monomials_of_degree(t + d - 1))}
    out = [0] * len(index)
    for c, row in enumerate(gradient):
        for j, m in enumerate(monos):
            for g, u in zip(lower, row):
                out[index[tuple(a + b for a, b in zip(m, g))]] += vec[c * len(monos) + j] * u
    return [v % _P for v in out]


@st.composite
def _relation_checks(draw):
    """A degree d, a gradient, a degree t and residues mod p as relation
    multiples of degree t.

    The gradient is int64 with a row of one sign whose l1 norm is just below
    or just above _DENSE_L1 (where the old dense product overflowed), small
    int64, or object with entries up to 2^80, above 2^62; any row may be
    zero.  The multiples number 0 to 3 * 2^16, mostly p - 1, with a last
    row that may cancel the combination.
    """
    d, t = draw(st.integers(2, 3)), draw(st.integers(0, 1))
    n = degree_dimension(d - 1)
    kind = draw(st.sampled_from(["below", "above", "small", "object"]))
    rows = []
    for _ in range(3):
        if draw(st.booleans()):
            rows.append([0] * n)
        elif kind == "object":
            rows.append([draw(st.integers(-(2**80), 2**80)) for _ in range(n)])
        else:
            rows.append([draw(st.integers(-3, 3)) for _ in range(n)])
    if kind in ("below", "above"):
        total = _DENSE_L1 + (1 if kind == "above" else -draw(st.integers(0, 2)))
        sign = draw(st.sampled_from([1, -1]))
        row = [total // n] * n
        row[0] += total - sum(row)
        rows[draw(st.integers(0, 2))] = [sign * v for v in row]
    gradient = np.array(rows, dtype=object if kind == "object" else np.int64)
    cols = 3 * degree_dimension(t)
    count = draw(st.sampled_from([0, 1, 3, 2**16 - 1, 2**16, 2**16 + 2, 3 * 2**16]))
    multiples = np.full((count, cols), _P - 1, dtype=np.int64)
    for _ in range(draw(st.integers(0, 3)) if count else 0):
        multiples[draw(st.integers(0, count - 1)), draw(st.integers(0, cols - 1))] = draw(
            st.integers(0, _P - 1)
        )
    if count and draw(st.booleans()):
        _cancel(multiples)
    return d, gradient, t, multiples


def _cancel(multiples):
    """Set the last row so that the weighted combination of the rows is 0 mod p."""
    weights = _weights(len(multiples))
    head = multiples[:-1].astype(object).T.dot(np.array(weights[:-1], dtype=object))
    multiples[-1] = [-v * pow(weights[-1], -1, _P) % _P for v in head.tolist()]


@settings(max_examples=60, deadline=None)
@given(
    _relation_checks(),
    st.lists(st.sampled_from([0, 1, _P - 1]) | st.integers(0, _P - 1), min_size=9, max_size=9),
)
def test_relation_check_matches_a_python_reference(check, x):
    """_image_mod_p and _relations_mod_p against sums of Python integers mod
    p: gradients of one sign at and past the old dense bound, object
    gradients above 2^62, zero rows, no multiples, and combinations of more
    than 2^16 rows.  Arbitrary residues in the vector make the sums at one
    monomial overflow int64 unless each term is reduced first."""
    d, gradient, t, multiples = check
    ctx = _gradient_only(d, gradient)
    rows = gradient.tolist()
    x = np.array(x[: multiples.shape[1]], dtype=np.int64)
    got = jacobian._image_mod_p(ctx, t, x)
    assert got.dtype == np.int64
    assert got.tolist() == _python_image(d, rows, t, x.tolist())
    weights = _weights(len(multiples))
    combo = (np.array(weights, dtype=object).dot(multiples.astype(object)) % _P).tolist()
    expected = not any(_python_image(d, rows, t, combo))
    assert jacobian._relations_mod_p(ctx, t, multiples) is expected


def test_relation_check_combines_many_rows_exactly():
    """3 * 2^16 rows of p - 1: one int64 product of them all would overflow,
    and only an exact combination is 0 mod p.  A_0 is the gradient
    transposed, invertible mod p here, in int64 and as an object array
    above 2^62."""
    multiples = np.full((3 * 2**16, 3), _P - 1, dtype=np.int64)
    _cancel(multiples)
    small = np.array([[1, 0, 0], [0, 1, 0], [5, -7, 1]], dtype=np.int64)
    large = np.array([[2**70 + 1, 0, 0], [0, 1, 0], [5, -7, 2**63]], dtype=object)
    for gradient in (small, large):
        ctx = _gradient_only(2, gradient)
        assert jacobian._relations_mod_p(ctx, 0, multiples)
        multiples[7, 1] -= 1
        assert not jacobian._relations_mod_p(ctx, 0, multiples)
        multiples[7, 1] += 1


def _python_matrix_image(a, vec):
    """a @ vec mod p in Python integers, over the nonzero entries of a."""
    out = [0] * a.shape[0]
    rows, cols = np.nonzero(a)
    for i, j, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
        out[i] += v * vec[j]
    return [v % _P for v in out]


def test_the_gradient_image_is_the_window_matrix_times_the_vector():
    """Oracle: at the rung d-1 and at each window degree s, _image_mod_p is
    syzygy_matrix(ctx, t).array times the vector in Python integers mod p,
    entry for entry, on the corpus and generic seed 1, for a pseudo-random
    vector of residues and for the combination _relations_mod_p takes of the
    relation multiples, whose image is 0."""
    rng = np.random.default_rng(2303)
    for ctx in [ctx for _, ctx in _corpus()] + list(_generic_inputs(1)):
        residues = jacobian._residues(_relations(ctx))
        for t in [ctx.d - 1] + _window_shifts(ctx):
            a = syzygy_matrix(ctx, t).array
            f = jacobian._relation_multiples(residues, t)
            weights = np.array(_weights(len(f)), dtype=object)
            combo = np.array(weights.dot(f.astype(object)) % _P, dtype=np.int64)
            for vec in (rng.integers(0, _P, a.shape[1]), combo):
                got = jacobian._image_mod_p(ctx, t, vec)
                assert got.tolist() == _python_matrix_image(a, vec.tolist()), (ctx.d, t)
            assert not got.any()


def test_the_window_builds_only_what_it_eliminates(monkeypatch):
    """The window's cost guard: with the relation walk run first,
    hilbert_profile on the corpus and on generic seeds 1-3 builds one
    matrix, A_{d-1} for the Koszul family's exact check, and builds relation
    multiples only at the rungs it eliminates: no A_s and no F_s at a
    window degree."""
    built, multiples, rungs = [], [], []
    build, multiply, leading = (
        jacobian.syzygy_matrix,
        jacobian._relation_multiples,
        jacobian._leading_terms,
    )

    def spy_build(curve, r):
        built.append(r)
        return build(curve, r)

    def spy_multiples(relations, s, **kwargs):
        multiples.append(s)
        return multiply(relations, s, **kwargs)

    def spy_leading(rows, t):
        if not _is_gradient_ideal(rows, t):
            rungs.append(t)
        return leading(rows, t)

    curves = [ctx for _, ctx in _corpus()]
    curves += [ctx for seed in (1, 2, 3) for ctx in _generic_inputs(seed)]
    for ctx in curves:
        ctx = _fresh(ctx)
        relation_generators(ctx)
        for calls in (built, multiples, rungs):
            calls.clear()
        with monkeypatch.context() as m:
            m.setattr(jacobian, "syzygy_matrix", spy_build)
            m.setattr(jacobian, "_relation_multiples", spy_multiples)
            m.setattr(jacobian, "_leading_terms", spy_leading)
            hilbert_profile(ctx)
        assert built == [ctx.d - 1], ctx.f
        assert multiples == rungs and rungs, ctx.f


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
