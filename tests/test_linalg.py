"""Exact linear algebra: ranks, kernels, certified modular engine."""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree import linalg
from conicfree.linalg import (
    _MOD_THRESHOLD,
    KernelBasis,
    RatMatrix,
    kernel_basis,
    kernel_basis_certified,
    rank,
    rank_certified,
)


def _det(d):
    n = len(d)
    if n == 1:
        return d[0][0]
    total = Fraction(0)
    for j in range(n):
        if d[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in d[1:]]
        total += (-1) ** j * d[0][j] * _det(minor)
    return total


def _rank_by_minors(dense):
    """Independent oracle: largest k with a nonvanishing k x k minor."""
    m, n = len(dense), len(dense[0]) if dense else 0
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[dense[r][c] for c in cols] for r in rows]
                if _det(sub) != 0:
                    return k
    return 0


def test_identity_and_zero():
    eye = RatMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(eye) == rank_certified(eye) == 3
    assert kernel_basis(eye).dimension == 0
    zero = RatMatrix(4, 7, {})
    assert rank(zero) == rank_certified(zero) == 0
    assert kernel_basis(zero).dimension == 7


def test_row_of_ones_kernel():
    m = RatMatrix.from_dense([[1, 1, 1]])
    kb = kernel_basis(m)
    assert kb.dimension == 2
    for vec in kb.vectors:
        assert all(v == 0 for v in m.mul_vector(list(vec)))
        assert sum(vec) == 0  # orthogonal to (1,1,1)


def test_rank_against_minor_oracle_fixed_seeds():
    rng = random.Random(2024)
    for _ in range(10):
        dense = [
            [Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)
        ]
        m = RatMatrix.from_dense(dense)
        expected = _rank_by_minors(dense)
        assert rank(m) == expected
        assert rank_certified(m) == expected
        kb = kernel_basis(m)
        assert kb.dimension == 6 - expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=5
    )
)
def test_kernel_properties_random(rows):
    m = RatMatrix.from_dense([[Fraction(v) for v in row] for row in rows])
    kb = kernel_basis(m)
    assert rank(m) + kb.dimension == m.cols
    for vec in kb.vectors:
        assert all(v == 0 for v in m.mul_vector(list(vec)))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=5, max_size=5), min_size=4, max_size=6
    ),
    st.randoms(use_true_random=False),
)
def test_rank_invariant_under_permutations(rows, rng):
    dense = [[Fraction(v) for v in row] for row in rows]
    base = rank(RatMatrix.from_dense(dense))
    shuffled_rows = list(dense)
    rng.shuffle(shuffled_rows)
    cols = list(range(5))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled_rows]
    assert rank(RatMatrix.from_dense(permuted)) == base


def test_hilbert_matrix_full_rank():
    dense = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    m = RatMatrix.from_dense(dense)
    assert rank(m) == 5
    assert rank_certified(m) == 5


def test_prime_dependence_guard():
    # rank drops mod 2 but not over the rationals
    assert rank_certified(RatMatrix.from_dense([[2]])) == 1
    big = RatMatrix(40, 40, {(i, i): Fraction(2) for i in range(40)})
    assert rank_certified(big) == 40


@contextmanager
def _exact_engine_refused():
    """The certified engine must certify on its own, without falling back."""

    def refuse(matrix):
        raise AssertionError(f"exact engine called on {matrix!r}")

    with mock.patch.object(linalg, "rank", refuse), mock.patch.object(
        linalg, "kernel_basis", refuse
    ):
        yield


def test_kernel_survives_a_pivot_shifting_first_prime():
    # The first prime, 2^31 - 1, kills the (0, 0) entry, so it reports the
    # full rank with the pivots shifted to columns 1..26.  Later primes see
    # the rational pivots 0..25, which must win and certify.
    entries = {(i, i): 1 for i in range(1, 26)}
    entries[(0, 0)] = 2**31 - 1
    entries[(0, 26)] = 1
    m = RatMatrix(26, 30, entries)
    expected = kernel_basis(m)
    with _exact_engine_refused():
        assert kernel_basis_certified(m) == expected
        assert rank_certified(m) == 26


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(_MOD_THRESHOLD + 1, 34),
    cols=st.integers(_MOD_THRESHOLD + 1, 34),
    inner=st.integers(1, 34),
    bits=st.tuples(st.sampled_from([1, 12, 25, 40]), st.sampled_from([1, 12, 25, 40])),
    rng=st.randoms(use_true_random=False),
)
def test_certified_engine_matches_exact_engine_on_low_rank_products(rows, cols, inner, bits, rng):
    """U*V of rank <= inner, entries up to 2^80: past int64 and near its edge."""
    u = [[rng.randint(-(2 ** bits[0]), 2 ** bits[0]) for _ in range(inner)] for _ in range(rows)]
    v = [[rng.randint(-(2 ** bits[1]), 2 ** bits[1]) for _ in range(cols)] for _ in range(inner)]
    product = RatMatrix.from_dense(
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]
    )
    for m in (product, product.transpose()):
        exact_rank, exact_kernel = rank(m), kernel_basis(m)
        with _exact_engine_refused():
            assert rank_certified(m) == exact_rank
            assert repr(kernel_basis_certified(m)) == repr(exact_kernel)


def test_certified_matches_exact_on_structured_matrix():
    # syzygy-style matrix: multiplication by the gradient of a curve
    from conicfree.jacobian import JacobianContext, syzygy_matrix
    from conicfree.poly import parse_polynomial

    f = parse_polynomial("(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)")
    ctx = JacobianContext.for_curve(f)
    m = syzygy_matrix(ctx, 9)  # 120 x 165, above the modular threshold
    assert rank_certified(m) == rank(m) == 101


def test_degree_one_syzygy_kernel_contains_the_known_relation():
    # x*f_x - y*f_y = 0 for f = x^2*y^2 + z^4; the coefficient vector of
    # (x, -y, 0) in component-major (a, b, c) monomial order must be killed
    from conicfree.jacobian import JacobianContext, syzygy_matrix
    from conicfree.poly import monomials_of_degree, parse_polynomial

    ctx = JacobianContext.for_curve(parse_polynomial("x^2*y^2+z^4"))
    m = syzygy_matrix(ctx, 1)
    monos = monomials_of_degree(1)  # [x, y, z]
    vec = [Fraction(0)] * (3 * len(monos))
    vec[monos.index((1, 0, 0))] = Fraction(1)  # a = x
    vec[len(monos) + monos.index((0, 1, 0))] = Fraction(-1)  # b = -y
    assert all(v == 0 for v in m.mul_vector(vec))
    kb = kernel_basis(m)
    assert kb.dimension == 1
    basis = kb.vectors[0]
    assert tuple(vec) in (basis, tuple(-v for v in basis))


def test_certified_kernel_is_exact_and_verified():
    from conicfree.jacobian import JacobianContext, syzygy_matrix
    from conicfree.poly import parse_polynomial

    f = parse_polynomial("(3*x^2+y^2-4*z^2)*(x^2+3*y^2-4*z^2)*(4*x^2+4*y^2-8*z^2)")
    ctx = JacobianContext.for_curve(f)
    m = syzygy_matrix(ctx, 2)
    kb_mod = kernel_basis_certified(m)
    kb_exact = kernel_basis(m)
    assert kb_mod.dimension == kb_exact.dimension
    for vec in kb_mod.vectors:
        assert all(v == 0 for v in m.mul_vector(list(vec)))


def test_transpose_and_matvec():
    m = RatMatrix.from_dense([[1, 2], [3, 4], [5, 6]])
    t = m.transpose()
    assert t.rows == 2 and t.cols == 3
    assert m.mul_vector([Fraction(1), Fraction(1)]) == [3, 7, 11]
    with pytest.raises(ValueError):
        m.mul_vector([Fraction(1)])


def test_out_of_range_entries_rejected():
    with pytest.raises(ValueError):
        RatMatrix(2, 2, {(2, 0): Fraction(1)})
