"""Exact linear algebra: ranks, kernels, certified modular engine."""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, isqrt, lcm, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicfree import linalg
from conicfree.jacobian import JacobianContext, hilbert_profile, mdr
from conicfree.linalg import (
    RatMatrix,
    kernel_basis,
    kernel_basis_certified,
    rank,
    rank_certified,
)
from conicfree.poly import parse_polynomial
from test_jacobian import GENERIC_OCTIC


def _matrix(dense):
    """The RatMatrix of a rational dense matrix, each row scaled to integers.

    Scaling a row keeps the rank and the kernel.
    """
    rows = []
    for row in dense:
        den = lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(Fraction(v) * den) for v in row])
    a = linalg.integer_zeros((len(rows), len(rows[0])), max(abs(v) for row in rows for v in row))
    a[:] = rows
    return RatMatrix(a)


def _annihilates(dense, vec):
    """Exact oracle: the rational matrix dense times the vector vec is zero."""
    return not any(np.array(dense, dtype=object) @ np.array(vec, dtype=object))


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
    eye = RatMatrix(np.eye(3, dtype=np.int64))
    assert rank(eye) == rank_certified(eye) == 3
    assert kernel_basis(eye).dimension == 0
    zero = RatMatrix(np.zeros((4, 7), dtype=np.int64))
    assert rank(zero) == rank_certified(zero) == 0
    assert kernel_basis(zero).dimension == 7


def test_row_of_ones_kernel():
    dense = [[1, 1, 1]]
    kb = kernel_basis(_matrix(dense))
    assert kb.dimension == 2
    for vec in kb.vectors:
        assert _annihilates(dense, vec)
        assert sum(vec) == 0  # orthogonal to (1,1,1)


def test_rank_against_minor_oracle_fixed_seeds():
    rng = random.Random(2024)
    for _ in range(10):
        dense = [
            [Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)
        ]
        m = _matrix(dense)
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
    dense = [[Fraction(v) for v in row] for row in rows]
    m = _matrix(dense)
    kb = kernel_basis(m)
    assert rank(m) + kb.dimension == m.cols
    for vec in kb.vectors:
        assert _annihilates(dense, vec)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=5, max_size=5), min_size=4, max_size=6
    ),
    st.randoms(use_true_random=False),
)
def test_rank_invariant_under_permutations(rows, rng):
    dense = [[Fraction(v) for v in row] for row in rows]
    base = rank(_matrix(dense))
    shuffled_rows = list(dense)
    rng.shuffle(shuffled_rows)
    cols = list(range(5))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled_rows]
    assert rank(_matrix(permuted)) == base


def test_hilbert_matrix_full_rank():
    dense = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    m = _matrix(dense)
    assert rank(m) == 5
    assert rank_certified(m) == 5


def test_prime_dependence_guard():
    # rank drops mod 2 but not over the rationals
    assert rank_certified(_matrix([[2]])) == 1
    big = RatMatrix(2 * np.eye(40, dtype=np.int64))
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
    a = np.zeros((26, 30), dtype=np.int64)
    diagonal = np.arange(1, 26)
    a[diagonal, diagonal] = 1
    a[0, 0] = 2**31 - 1
    a[0, 26] = 1
    m = RatMatrix(a)
    expected = kernel_basis(m)
    with _exact_engine_refused():
        assert kernel_basis_certified(m) == expected
        assert rank_certified(m) == 26
    assert expected.dimension == 4


def test_zero_and_full_column_rank_matrices_take_the_certified_path():
    """Every column free and the unit vectors, or no free column and the
    empty kernel, certified without the exact engine: 25 x 25 zero matrices
    and a 60 x 26 full-column-rank one with entries up to 2^70 among them."""
    n = 25
    rng = random.Random(7)
    full = [[rng.randint(-5, 5) for _ in range(30)] for _ in range(40)]
    full_tall = [[rng.randint(-(2**70), 2**70) for _ in range(n + 1)] for _ in range(60)]
    zeros = [
        np.zeros(shape, dtype=dtype)
        for shape in ((30, 40), (40, 30), (n, n))
        for dtype in (np.int64, object)
    ]
    for a in zeros:
        m = RatMatrix(a)
        unit = tuple(map(tuple, np.eye(m.cols, dtype=np.int64).tolist()))
        with _exact_engine_refused():
            assert kernel_basis_certified(m) == linalg.KernelBasis(m.cols, unit)
            assert rank_certified(m) == 0
    for dense in (full, full_tall):
        m = _matrix(dense)
        assert rank(m) == m.cols
        with _exact_engine_refused():
            assert kernel_basis_certified(m) == linalg.KernelBasis(0, ())
            assert rank_certified(m) == rank_certified(m.transpose()) == m.cols


def test_lifting_survives_a_pivot_block_no_native_prime_inverts():
    """The pivot block is diagonal, with the primes below 300 as its entries
    (grouped into products below 2^40), and its largest entry leaves 289 as
    the cap of an exact int64 lift, so every prime below the cap divides
    det b: the lift must run on Python integers instead."""
    groups = [1]
    for p in sorted(linalg._primes_below(300)):
        if groups[-1] * p >= 2**40:
            groups.append(1)
        groups[-1] *= p
    limit = (2**63 - 1) // 290
    groups[0] *= next(linalg._primes_below(limit // groups[0] + 1))
    assert len(groups) == 11 and (2**63 - 1 - groups[0]) // groups[0] == 289
    a = np.zeros((11, 30), dtype=np.int64)
    a[range(11), range(11)] = groups
    a[:, 11:] = 1
    m = RatMatrix(a)
    expected = kernel_basis(m)
    with _exact_engine_refused():
        assert kernel_basis_certified(m) == expected
        assert rank_certified(m) == 11


def _bad_prime_diagonal():
    """diag(1, p1*p2*p3) for the three largest primes below 2^31, the first
    three the certified engine tries: each of them lowers the rank."""
    primes = list(islice(linalg._primes_below(2**31), 4))
    a = linalg.integer_zeros((2, 2), prod(primes[:3]))
    a[0, 0], a[1, 1] = 1, prod(primes[:3])
    return RatMatrix(a), primes


def test_a_small_matrix_is_certified_from_the_fourth_prime():
    """A 2 x 2 matrix takes the certified path too, past three bad primes."""
    m, primes = _bad_prime_diagonal()
    tried = []
    echelon = linalg._echelon_mod

    def spy(a, p):
        tried.append(p)
        return echelon(a, p)

    with _exact_engine_refused(), mock.patch.object(linalg, "_echelon_mod", spy):
        assert kernel_basis_certified(m) == linalg.KernelBasis(0, ())
        assert tried == primes
        assert rank_certified(m) == 2
    assert kernel_basis(m) == linalg.KernelBasis(0, ())


def test_past_the_prime_budget_the_engine_raises(monkeypatch, capsys):
    """Past the budget the engine raises an internal fault instead of
    answering another way, and the CLI maps it to exit code 3."""
    from conicfree.cli import main

    m, primes = _bad_prime_diagonal()
    monkeypatch.setattr(linalg, "_prime_budget", lambda a: 2)
    with _exact_engine_refused(), pytest.raises(AssertionError, match="prime budget of 2"):
        kernel_basis_certified(m)
    # the y-partial of this quartic vanishes modulo the same three primes
    code = main(["analyze", f"x^4+{prod(primes[:3])}*y^4+z^4", "--json"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "internal error: AssertionError" in captured.err
    assert "prime budget of 2" in captured.err


def test_support_test_rejects_a_vector_past_its_free_column():
    # [2 1 1]: over Q the pivot is column 0 and the free columns are 1, 2.
    # Both bases below are exact and of full dimension; the second is in the
    # standard form of the free columns 0, 2 (a pivot moved to column 1), and
    # its vector for free column 0 is nonzero in column 1.
    a = [[2, 1, 1]]
    canonical = np.array([[-1, -1], [2, 0], [0, 2]], dtype=object)
    shifted = np.array([[1, 0], [-2, -1], [0, 1]], dtype=object)
    for basis in (canonical, shifted):
        assert all(_annihilates(a, vec) for vec in basis.T.tolist())
    assert linalg._canonical_support(canonical, np.array([1, 2]))
    assert not linalg._canonical_support(shifted, np.array([0, 2]))
    assert [list(v) for v in kernel_basis(_matrix(a)).vectors] == canonical.T.tolist()


@settings(max_examples=90, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(25, 34), st.integers(25, 34)),
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
    ),
    inner=st.integers(0, 34),
    bits=st.tuples(st.sampled_from([1, 12, 25, 40]), st.sampled_from([1, 12, 25, 40])),
    sparsity=st.sampled_from([0.0, 0.5, 0.9]),
    rng=st.randoms(use_true_random=False),
)
def test_certified_engine_matches_exact_engine_on_low_rank_products(
    shape, inner, bits, sparsity, rng
):
    """U*V of rank <= inner, entries up to 2^80: past int64 and near its edge,
    dense or sparse, the zero matrix (inner = 0) included.  Shapes are 25..34
    on each side, or 1..30 so that small matrices are certified too.

    Both engines return the same kernel: primitive integer vectors in
    standard form, each positive in its own free column (a non-pivot column
    of the exact echelon form) and 0 in the others."""
    rows, cols = shape

    def factor(height, width, b):
        return [
            [0 if rng.random() < sparsity else rng.randint(-(2**b), 2**b) for _ in range(width)]
            for _ in range(height)
        ]

    u, v = factor(rows, inner, bits[0]), factor(inner, cols, bits[1])
    product = _matrix(
        [[sum(u[i][t] * v[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]
    )
    for m in (product, product.transpose()):
        exact_rank, exact_kernel = rank(m), kernel_basis(m)
        with _exact_engine_refused():
            assert rank_certified(m) == exact_rank
            certified = kernel_basis_certified(m)
            assert repr(certified) == repr(exact_kernel)
        vectors = np.array(certified.vectors, dtype=object).reshape(-1, m.cols)
        assert linalg._kills(linalg._SparseRows(m.array), vectors.T)
        pivots = set(linalg._integer_ref(m)[1])
        free = [c for c in range(m.cols) if c not in pivots]
        assert certified.dimension == len(free)
        for vec, own in zip(certified.vectors, free):
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1
            assert vec[own] > 0 and all(vec[c] == 0 for c in free if c != own)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(2, 14)),
    inner=st.integers(1, 12),
    extra=st.integers(0, 3),
    bits=st.sampled_from([1, 8, 40]),
    rng=st.randoms(use_true_random=False),
)
def test_kernel_from_a_span_is_the_reference_basis(shape, inner, extra, bits, rng):
    """Random integer combinations of the reference kernel basis, with
    extra rows that depend on the others, give back that basis exactly."""
    rows, cols = shape
    u = [[rng.randint(-(2**bits), 2**bits) for _ in range(inner)] for _ in range(rows)]
    v = [[rng.randint(-(2**bits), 2**bits) for _ in range(cols)] for _ in range(inner)]
    m = _matrix([[sum(a * b for a, b in zip(r, c)) for c in zip(*v)] for r in u])
    reference = kernel_basis(m)
    assume(reference.dimension)
    basis = np.array(reference.vectors, dtype=object)
    mix = np.array(
        [[rng.randint(-5, 5) for _ in basis] for _ in range(len(basis) + extra)], dtype=object
    )
    spanning = mix @ basis
    assume(rank(_matrix(spanning.tolist())) == len(basis))
    with _exact_engine_refused():
        found = linalg.kernel_basis_from_span(m, spanning, reference.dimension)
    assert found is not None and repr(found) == repr(reference)


def test_kernel_from_a_span_is_none_when_the_support_test_fails(monkeypatch):
    m = _matrix([[1, 1, 1]])
    spanning = np.array(kernel_basis(m).vectors, dtype=object)
    monkeypatch.setattr(linalg, "_canonical_support", lambda vectors, free: False)
    assert linalg.kernel_basis_from_span(m, spanning, 2) is None


def test_certified_matches_exact_on_structured_matrix():
    # syzygy-style matrix: multiplication by the gradient of a curve
    from conicfree.jacobian import JacobianContext, syzygy_matrix
    from conicfree.poly import parse_polynomial

    f = parse_polynomial("(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)")
    ctx = JacobianContext.for_curve(f)
    m = syzygy_matrix(ctx, 9)  # 120 x 165
    assert rank_certified(m) == rank(m) == 101


def test_degree_one_syzygy_kernel_contains_the_known_relation():
    # x*f_x - y*f_y = 0 for f = x^2*y^2 + z^4; the coefficient vector of
    # (x, -y, 0) in component-major (a, b, c) monomial order must be killed
    from conicfree.jacobian import JacobianContext, syzygy_matrix
    from conicfree.poly import monomials_of_degree, parse_polynomial

    ctx = JacobianContext.for_curve(parse_polynomial("x^2*y^2+z^4"))
    m = syzygy_matrix(ctx, 1)
    monos = monomials_of_degree(1)  # [x, y, z]
    vec = [0] * (3 * len(monos))
    vec[monos.index((1, 0, 0))] = 1  # a = x
    vec[len(monos) + monos.index((0, 1, 0))] = -1  # b = -y
    assert _annihilates(m.array, vec)
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
        assert _annihilates(m.array, vec)


def test_package_exports_the_certified_kernel():
    """`from conicfree import kernel_basis_certified` is the engine every
    production path runs; on a corpus A_d1 it returns the reference basis."""
    import conicfree
    from conicfree.corpus import entry
    from conicfree.jacobian import JacobianContext, mdr, syzygy_matrix

    assert conicfree.kernel_basis_certified is linalg.kernel_basis_certified
    ctx = JacobianContext.for_curve(entry("celal_three_conics").polynomial())
    m = syzygy_matrix(ctx, mdr(ctx).r)
    expected = kernel_basis(m)
    assert expected.dimension > 0
    assert conicfree.kernel_basis_certified(m) == expected


def test_transpose_and_matvec():
    m = _matrix([[1, 2], [3, 4], [5, 6]])
    t = m.transpose()
    assert t.rows == 2 and t.cols == 3
    assert t.entries == {(c, r): v for (r, c), v in m.entries.items()}
    assert (m.array @ np.array([1, 1])).tolist() == [3, 7, 11]


def test_non_matrix_arrays_rejected():
    with pytest.raises(ValueError):
        RatMatrix(np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        RatMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))


def _int_kernel(dense):
    """The exact kernel basis of an integer matrix, as lists."""
    return [list(vec) for vec in kernel_basis(_matrix(dense)).vectors]


def _kills_oracle(dense, vectors):
    return all(sum(a * x for a, x in zip(row, vec)) == 0 for row in dense for vec in vectors)


def _kills(dense, vectors):
    v = np.array(vectors, dtype=object).T.reshape(len(dense[0]), len(vectors))
    return linalg._kills(linalg._SparseRows(_matrix(dense).array), v)


@settings(max_examples=60, deadline=None)
@given(
    cols=st.integers(2, 9),
    body=st.integers(1, 8),
    empty=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    bits=st.sampled_from([3, 20, 40, 56]),
    scale_bits=st.sampled_from([0, 70, 200]),
    chunk=st.sampled_from([1, 3, 1 << 18]),
    rng=st.randoms(use_true_random=False),
)
def test_limb_verifier_agrees_with_python_rows(cols, body, empty, bits, scale_bits, chunk, rng):
    """Sparse rows with empty leading, middle and trailing rows, 56-bit
    entries past the limb budget among them; kernel vectors exact, off by 1
    in one entry, and off by 2^(w*l) at a limb boundary, in chunks down to
    one row."""
    lead, mid, trail = empty

    def row():
        return [rng.randint(-(2**bits), 2**bits) if rng.random() < 0.5 else 0 for _ in range(cols)]

    half = body // 2
    dense = (
        [[0] * cols] * lead
        + [row() for _ in range(half)]
        + [[0] * cols] * mid
        + [row() for _ in range(body - half)]
        + [[0] * cols] * trail
    )
    kernel = _int_kernel(dense) or [[0] * cols]
    big = rng.randint(2**scale_bits, 2 ** (scale_bits + 1))
    vectors = [[v * big + u for v, u in zip(vec, kernel[-1])] for vec in kernel]
    w = 63 - linalg._SparseRows(np.array(dense, dtype=np.int64)).l1.bit_length()
    cases = [vectors]
    for delta in (1, -1, 2**w, -(2**w), 2 ** (2 * w)):
        bent = [list(vec) for vec in vectors]
        bent[rng.randrange(len(bent))][rng.randrange(cols)] += delta
        cases.append(bent)
    with mock.patch.object(linalg, "_CHUNK", chunk):
        for case in cases:
            assert _kills(dense, case) == _kills_oracle(dense, case)
    assert _kills(dense, vectors)


def test_limb_verifier_takes_python_rows_past_the_limb_budget():
    # row l1 norm >= 2^56 leaves no room for 8-bit limbs
    dense = [[2**60, 3, 0], [0, 0, 0], [1, 2**57 + 1, -(2**60)]]
    l1 = linalg._SparseRows(np.array(dense, dtype=np.int64)).l1
    assert 63 - l1.bit_length() < 8
    vectors = [[v * (2**90 + 7) for v in vec] for vec in _int_kernel(dense)]
    assert len(vectors) == 1
    assert _kills(dense, vectors) and _kills_oracle(dense, vectors)
    vectors[0][1] += 1
    assert not _kills(dense, vectors) and not _kills_oracle(dense, vectors)
    # object arrays: entries past 2^62
    dense = [[2**70, 1], [0, 0], [2**71, 2]]
    assert _kills(dense, [[1, -(2**70)]])
    assert not _kills(dense, [[1, 1 - 2**70]])


def _unipotent_system():
    """[b | c] with b = [[I, 0], [E, I]]: det b = 1, so X = b^-1 c is integral,
    but one 40-bit row of E makes the Hadamard bound ~1100 bits while the
    largest entry of X has ~46."""
    rng = random.Random(5)
    h, r, k = 15, 30, 4
    rows = []
    for i in range(r):
        row = [0] * (r + k)
        row[i] = 1
        if i >= h:
            for j in range(h):
                row[j] = rng.randint(-(2**40), 2**40) if i == r - 3 else rng.randint(-3, 3)
        for j in range(k):
            row[r + j] = rng.randint(-9, 9)
        rows.append(row)
    return _matrix(rows)


@contextmanager
def _lifting_spy():
    """Per lifting: h2, every (modulus, reconstruction) of the whole of X,
    and the common denominators that accept was called with."""
    log = []
    lifting = []  # the attempts of the lifting under way
    dixon, reconstruct = linalg._dixon, linalg._reconstruct_vector

    def spy_dixon(b, c, h2, accept):
        attempts, accepted = [], []
        log.append((h2, attempts, accepted))

        def spy_accept(den, nums):
            accepted.append(den)
            return accept(den, nums)

        lifting.append(attempts)
        try:
            return dixon(b, c, h2, spy_accept)
        finally:
            lifting.pop()

    def spy_reconstruct(residues, m):
        out = reconstruct(residues, m)
        if lifting:  # not the first-digit attempt of _lifted_kernel
            lifting[-1].append((m, out))
        return out

    with mock.patch.object(linalg, "_dixon", spy_dixon), mock.patch.object(
        linalg, "_reconstruct_vector", spy_reconstruct
    ):
        yield log


def test_lifting_stops_long_before_the_hadamard_bound():
    m = _unipotent_system()
    expected = kernel_basis(m)
    with _exact_engine_refused(), _lifting_spy() as log:
        assert kernel_basis_certified(m) == expected
        assert rank_certified(m) == 30
    assert log
    for h2, attempts, _ in log:
        # an entry of X still needed digits on the earlier attempts
        assert len(attempts) > 1 and all(out is None for _, out in attempts[:-1])
        m_final, out = attempts[-1]
        assert out is not None
        assert m_final.bit_length() < h2.bit_length() // 4


def test_lifting_certifies_at_the_hadamard_stop_when_entries_need_the_whole_bound():
    # X = c, whose 200-bit entries need the whole Hadamard bound
    rng = random.Random(7)
    rows = []
    for i in range(26):
        row = [0] * 30
        row[i] = 1
        for j in range(4):
            row[26 + j] = rng.choice([-1, 1]) * rng.randint(2**199, 2**200)
        rows.append(row)
    m = _matrix(rows)
    expected = kernel_basis(m)
    with _exact_engine_refused(), _lifting_spy() as log:
        assert kernel_basis_certified(m) == expected
    assert log
    for h2, attempts, _ in log:
        assert attempts[-1][0] > 2 * h2 and attempts[-1][1] is not None
        assert all(out is None for _, out in attempts[:-1])


def test_lifting_ends_at_the_first_reconstruction_and_accepts_it_once():
    """Each lifting stops at the first modulus whose reconstruction of X is
    not None, the only one handed to accept: on the unipotent system and on
    every kernel that the relation walk of the benchmark's generic octic
    lifts."""
    m = _unipotent_system()
    with _exact_engine_refused(), _lifting_spy() as log:
        assert kernel_basis_certified(m) == kernel_basis(m)
        f = parse_polynomial("*".join(f"({t})" for t in GENERIC_OCTIC))
        ctx = JacobianContext.for_curve(f)
        mdr(ctx)
        assert hilbert_profile(ctx).tau == 24
    assert len(log) >= 2
    for _, attempts, accepted in log:
        found = [out is not None for _, out in attempts]
        assert found == [False] * (len(found) - 1) + [True]
        assert accepted == [attempts[-1][1][0]]


@st.composite
def _rational_vectors(draw):
    """Rational vectors of any length, zeros included, with numerators and
    denominators of up to `bits` bits."""
    bits = draw(st.integers(1, 80))
    num = st.integers(-(2**bits), 2**bits)
    den = st.integers(1, 2**bits)
    size = draw(st.integers(0, 70))
    return [Fraction(draw(num), draw(den)) for _ in range(size)]


@settings(max_examples=200, deadline=None)
@given(
    x=_rational_vectors(),
    q=st.sampled_from([101, 2**31 - 1, 2**61 - 1, 2**89 - 1]),
    more=st.integers(-3, 2),
)
def test_reconstruct_vector_against_a_fraction_oracle(x, q, more):
    """x modulo a prime power m, as in the lifting.  With D the common
    denominator of x and N the largest |D*x_i|, m > 2*max(N, D)^2 gives
    exactly (D, D*x): both then lie within the bound sqrt(m/2).  Below it
    any result still has D <= sqrt(m/2) and D*x = nums (mod m)."""
    den = lcm(*(v.denominator for v in x))
    assume(den % q)
    nums = [int(v * den) for v in x]
    top = max([den] + [abs(n) for n in nums])
    e = 1  # the least exponent above the bound
    while q**e <= 2 * top * top:
        e += 1
    m = q ** max(1, e + more)
    residues = [v.numerator * pow(v.denominator, -1, m) % m for v in x]
    out = linalg._reconstruct_vector(residues, m)
    if m > 2 * top * top:
        assert out is not None
        assert out[0] == den and out[1].tolist() == nums
    elif out is not None:
        got_den, got_nums = out[0], out[1].tolist()
        assert 0 < got_den <= isqrt(m // 2)
        assert all((got_den * r - n) % m == 0 for r, n in zip(residues, got_nums))


def _rref_reference(rows, ncols, p):
    """Reduced echelon form mod p in pure Python, first nonzero row as pivot.

    Returns the pivot columns, the original indices of the pivot rows and
    the nonzero rows of the reduced echelon form."""
    a = [[v % p for v in row] for row in rows]
    order = list(range(len(a)))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        order[r], order[pr] = order[pr], order[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [(v - factor * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(pivots), tuple(order[:r]), a[:r]


@st.composite
def _sparse_integer_arrays(draw):
    """Sparse integer arrays of any shape, 0 x n and n x 0 included, with zero
    rows and columns and rows that are multiples of others: int64 below
    2^62, or object arrays holding entries of at least 2^62."""
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    big = draw(st.booleans())
    magnitude = st.integers(2**62, 2**80) if big else st.integers(1, 2**62 - 1)
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), magnitude, magnitude.map(lambda v: -v))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(0, 3)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(-2, 2))
            rows[i] = [k * v for v in rows[j]]
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else set()
    for row in rows:
        for c in zero_cols:
            row[c] = 0
    # a doubled row of int64 entries can reach 2^62 or more
    big = big or any(abs(v) >= 2**62 for row in rows for v in row)
    a = np.zeros((nrows, ncols), dtype=object if big else np.int64)
    if nrows and ncols:
        a[:] = rows
    return a


@settings(max_examples=150, deadline=None)
@given(a=_sparse_integer_arrays(), p=st.sampled_from([linalg.BOUND_PRIME, 2, 3, 7]))
def test_pivot_kernel_and_reduced_form_match_a_reference(a, p):
    """The row echelon form and its back substitution agree with a pure
    Python reduced elimination mod p, on the residues of int64 and object
    arrays: the same pivot columns and pivot rows, echelon rows that reduce
    to the reference's, and a solution on the free columns that is the
    reference's reduced rows there."""
    x = linalg.residues_mod(a) if p == linalg.BOUND_PRIME else linalg._mod_array(a, p)
    assert x.dtype == np.int64 and x.shape == a.shape
    pivots, pivot_rows, reduced = _rref_reference(x.tolist(), a.shape[1], p)
    got_pivots, got_rows, got_echelon = linalg._echelon_mod(x.copy(), p)
    assert got_pivots == pivots
    assert got_rows == pivot_rows
    assert got_echelon.dtype == np.int64 and got_echelon.shape == (len(pivots), a.shape[1])
    assert _rref_reference(got_echelon.tolist(), a.shape[1], p)[2] == reduced
    free = np.delete(np.arange(a.shape[1]), pivots)
    solved = linalg._back_substitute(got_echelon, got_pivots, free, p)
    assert solved.tolist() == [[row[c] for c in free.tolist()] for row in reduced]
    if p == linalg.BOUND_PRIME:
        assert linalg.pivot_columns_mod(a) == pivots
        assert len(linalg.pivot_columns_mod(a.T)) == len(pivots)


def _solve_reference(b, c, q):
    """X with b X = c mod q for a square b, by Gauss-Jordan on Python
    integers; None when b is singular mod q."""
    r = len(b)
    rows = [[v % q for v in brow + crow] for brow, crow in zip(b, c)]
    for i in range(r):
        pr = next((j for j in range(i, r) if rows[j][i]), None)
        if pr is None:
            return None
        rows[i], rows[pr] = rows[pr], rows[i]
        inv = pow(rows[i][i], -1, q)
        rows[i] = [v * inv % q for v in rows[i]]
        for j in range(r):
            if j != i and rows[j][i]:
                factor = rows[j][i]
                rows[j] = [(v - factor * w) % q for v, w in zip(rows[j], rows[i])]
    return [row[r:] for row in rows]


def _back_substitution_matches(a, q):
    """The back substitution on the echelon form of a mod q against
    _solve_reference on the same triangular system; returns (pivots, free)."""
    pivots, _, u = linalg._echelon_mod(linalg._mod_array(a, q), q)
    free = np.delete(np.arange(a.shape[1]), pivots)
    got = linalg._back_substitute(u, pivots, free, q)
    rows = u.tolist()
    block = [[row[c] for c in pivots] for row in rows]
    rhs = [[row[c] for c in free.tolist()] for row in rows]
    expected = _solve_reference(block, rhs, q)
    assert got.dtype == np.int64 and got.shape == (len(pivots), len(free))
    assert got.tolist() == expected
    return pivots, free


# a prime of the size Dixon's lifting takes for a 6 x 6 pivot block
_LIFTING_PRIME = next(linalg._primes_below(isqrt(linalg._INT64_MAX // 6) + 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 7, linalg.BOUND_PRIME, _LIFTING_PRIME]))
def test_back_substitution_and_inverse_match_a_python_solve(data, q):
    """_inverse_mod is b^-1 mod q, or None exactly when b is singular mod q,
    and the back substitution solves the echelon rows' triangular system,
    both as Gauss-Jordan on Python integers does, on int64 and object b."""
    r = data.draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    b = [data.draw(st.lists(entry, min_size=r, max_size=r)) for _ in range(r)]
    if r > 1 and data.draw(st.booleans()):
        # singular mod q, not necessarily over the rationals
        i, j = data.draw(st.permutations(range(r)))[:2]
        k, shift = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        b[i] = [k * v + q * shift for v in b[j]]
    a = linalg.integer_zeros((r, r), max((abs(v) for row in b for v in row), default=0))
    a[:] = b
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    expected = _solve_reference(b, identity, q)
    got = linalg._inverse_mod(a, q)
    if expected is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and got.tolist() == expected
        assert (a.astype(object) @ got.astype(object) % q).tolist() == identity
    extra = data.draw(st.integers(0, 3))
    wide = np.concatenate([a, a[:, :extra] * 5 + 1], axis=1) if r else a
    _back_substitution_matches(wide, q)
    _back_substitution_matches(wide.T.copy(), q)


def test_back_substitution_with_no_pivots_or_no_free_columns():
    """A zero matrix has no pivots and an empty solution; a matrix of full
    column rank has no free columns; a 0 x 0 b has the empty inverse."""
    for q in (2, 3, 7, linalg.BOUND_PRIME, _LIFTING_PRIME):
        assert _back_substitution_matches(np.zeros((3, 4), dtype=np.int64), q)[0] == ()
        full = np.array([[1, 2, 0], [0, 1, 5], [0, 0, 1], [4, 4, 4]], dtype=np.int64)
        pivots, free = _back_substitution_matches(full, q)
        assert pivots == (0, 1, 2) and free.size == 0
        assert linalg._inverse_mod(np.zeros((0, 0), dtype=np.int64), q).shape == (0, 0)
        assert linalg._inverse_mod(np.zeros((2, 2), dtype=np.int64), q) is None
