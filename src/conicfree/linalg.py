"""Exact linear algebra over the rationals for sparse matrices.

Two engines with identical contracts:

* an exact engine: row echelon form over the integers with per-row content
  stripping, whose pivot count is the rank and whose back substitution over
  Fraction gives the kernel;
* a certified modular engine.  It eliminates A modulo one 31-bit prime,
  recording the pivot columns P and the pivot rows R, and solves
  A[R,P] X = A[R,F] over the rationals for the free columns F: first from
  the echelon form itself, then, if that single p-adic digit does not give
  a verified kernel, by Dixon's p-adic lifting with vector rational
  reconstruction on a doubling schedule.  A rank r is accepted only with an
  exact certificate in both directions: the r x r minor A[R,P] is nonzero
  modulo the prime (rank >= r over the rationals), and the n - r
  standard-form kernel vectors built from X are re-verified exactly against
  every integer row (rank <= r).  Lifting stops at the latest at the
  Hadamard bound of the system, where reconstruction is guaranteed, so a
  failed certificate means the prime lowered the rank and the next prime is
  tried.  Kernel requests also need two primes that agree on the rank and
  the pivot columns, the smallest pivot tuple winning at the top rank.

All operations are pure and deterministic: primes are taken in descending
order below 2^31, pivot rules are fixed and nothing is random.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

_MOD_THRESHOLD = 24  # below this size the exact baseline is used directly
_INT64_MAX = 2**63 - 1


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24 with the standard base set.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(n: int):
    """The primes below n, in descending order."""
    for c in range(n - 1, 1, -1):
        if _is_probable_prime(c):
            yield c


class RatMatrix:
    """Sparse rational matrix keyed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction | int]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index {(r, c)} out of range")
            f = Fraction(v)
            if f != 0:
                clean[(r, c)] = f
        self.rows = rows
        self.cols = cols
        self.entries = clean

    @classmethod
    def from_dense(cls, dense: list[list[Fraction | int]]) -> "RatMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {
            (r, c): v
            for r, row in enumerate(dense)
            for c, v in enumerate(row)
            if v != 0
        }
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict[int, Fraction | int]]) -> "RatMatrix":
        entries = {
            (r, c): v for c, col in enumerate(columns) for r, v in col.items() if v != 0
        }
        return cls(rows, len(columns), entries)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    def mul_vector(self, vec: list[Fraction]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        out = [Fraction(0)] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return out

    def row_lists(self) -> list[list[tuple[int, Fraction]]]:
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r].append((c, v))
        for row in rows:
            row.sort()
        return rows

    def integer_rows(self) -> list[list[tuple[int, int]]]:
        """Rows scaled to integers (each row by the lcm of its denominators)."""
        out: list[list[tuple[int, int]]] = []
        for row in self.row_lists():
            m = 1
            for _, v in row:
                m = m * v.denominator // gcd(m, v.denominator)
            out.append([(c, int(v * m)) for c, v in row])
        return out

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class KernelBasis:
    """An exact basis of the right kernel; vectors annihilate the matrix."""

    dimension: int
    vectors: tuple[tuple[Fraction, ...], ...]


# ---------------------------------------------------------------------------
# Exact baseline


def _integer_ref(matrix: RatMatrix) -> tuple[list[dict[int, int]], list[int]]:
    """Row echelon form over the integers with per-row content stripping.

    Columns are processed left to right so the pivot column set is canonical.
    Returns the echelon rows (as sparse dicts) and their pivot columns.
    """
    rows = [dict(r) for r in matrix.integer_rows() if r]
    echelon: list[dict[int, int]] = []
    pivot_cols: list[int] = []
    for col in range(matrix.cols):
        candidates = [i for i, r in enumerate(rows) if col in r]
        if not candidates:
            continue
        pi = min(candidates, key=lambda i: (abs(rows[i][col]).bit_length(), i))
        pivot_row = rows.pop(pi)
        pivot = pivot_row[col]
        next_rows = []
        for r in rows:
            factor = r.pop(col, 0)
            if factor:
                keys = set(r) | set(pivot_row)
                keys.discard(col)
                new_r: dict[int, int] = {}
                content = 0
                for c in keys:
                    v = r.get(c, 0) * pivot - factor * pivot_row.get(c, 0)
                    if v:
                        new_r[c] = v
                        content = gcd(content, v)
                if content > 1:
                    new_r = {c: v // content for c, v in new_r.items()}
                r = new_r
            if r:
                next_rows.append(r)
        rows = next_rows
        echelon.append(pivot_row)
        pivot_cols.append(col)
    return echelon, pivot_cols


def rank(matrix: RatMatrix) -> int:
    """Exact rank over the rationals: the pivot count of the integer echelon form."""
    return len(_integer_ref(matrix)[1])


def kernel_basis(matrix: RatMatrix) -> KernelBasis:
    """Exact basis of the right kernel, one vector per free column.

    Each vector has entry 1 in its free column and 0 in the other free
    columns, so the basis is independent by construction.
    """
    echelon, pivot_cols = _integer_ref(matrix)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    vectors = []
    for fc in free_cols:
        v = [Fraction(0)] * matrix.cols
        v[fc] = Fraction(1)
        for i in range(len(echelon) - 1, -1, -1):
            pc = pivot_cols[i]
            if pc > fc:
                continue
            s = Fraction(0)
            for c, val in echelon[i].items():
                if c != pc and v[c]:
                    s += val * v[c]
            v[pc] = -s / echelon[i][pc]
        vectors.append(tuple(v))
    return KernelBasis(dimension=len(vectors), vectors=tuple(vectors))


# ---------------------------------------------------------------------------
# Certified modular engine


def _int_dense(matrix: RatMatrix) -> list[list[int]]:
    dense = [[0] * matrix.cols for _ in range(matrix.rows)]
    for r, row in enumerate(matrix.integer_rows()):
        for c, v in row:
            dense[r][c] = v
    return dense


def _mod_array(dense: list[list[int]], p: int) -> np.ndarray:
    if dense and max((max(map(abs, row), default=0) for row in dense)) < 2**62:
        a = np.array(dense, dtype=np.int64)
        return np.mod(a, p)
    return np.array([[v % p for v in row] for row in dense], dtype=np.int64)


def _rref_mod(
    a: np.ndarray, p: int
) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """Reduced row echelon form of a mod p.  Pivot rule: first nonzero row.

    Returns the pivot columns, the original indices of the pivot rows (in
    pivot order) and the nonzero rows of the echelon form.
    """
    a = a.copy()
    nrows, ncols = a.shape
    order = list(range(nrows))
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            order[r], order[pr] = order[pr], order[r]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivot_cols.append(c)
        r += 1
    return tuple(pivot_cols), tuple(order[:r]), a[:r]


def _rat_reconstruct(a: int, m: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """The fraction n/d = a mod m with |n| <= num_bound and 0 < d <= den_bound.

    Unique when 2 * num_bound * den_bound < m.
    """
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > den_bound:
        return None
    num, den = (r1, t1) if t1 > 0 else (-r1, -t1)
    if gcd(num, den) != 1:
        return None
    return num, den


def _reconstruct_vector(residues: list[int], m: int) -> tuple[int, list[int]] | None:
    """A common denominator D and the numerators D*x of residues x mod m.

    Numerators and D are bounded by sqrt(m/2).  Once D is known most entries
    cost one multiplication; the search stops at the first entry that has no
    reconstruction within the bounds.
    """
    bound = isqrt(m // 2)
    half = m // 2
    den = 1
    nums: list[int] = []
    for x in residues:
        y = den * x % m
        if y > half:
            y -= m
        if abs(y) > bound:
            rec = _rat_reconstruct(y, m, bound, bound // den)
            if rec is None:
                return None
            y, d = rec
            den *= d
            nums = [u * d for u in nums]
        nums.append(y)
    return den, nums


def _verify_kernel(matrix_int_rows: list[list[tuple[int, int]]], vec: list[int]) -> bool:
    """Exact check that an integer-scaled copy of the matrix kills an integer vector."""
    return all(sum(coef * vec[c] for c, coef in row) == 0 for row in matrix_int_rows)


def _inverse_mod(b: list[list[int]], q: int) -> np.ndarray | None:
    """Inverse of the square integer matrix b modulo q, None when singular mod q."""
    r = len(b)
    aug = np.concatenate([_mod_array(b, q), np.eye(r, dtype=np.int64)], axis=1)
    pivots, _, rref = _rref_mod(aug, q)
    if pivots != tuple(range(r)):
        return None
    return rref[:, r:]


def _dixon(b: list[list[int]], c: list[list[int]], h2: int):
    """Residues of X = b^-1 c modulo growing powers of a lifting prime q.

    Yields (q^s, entries of X mod q^s in column-major order) after s = 1, 2,
    4, ... digits and once q^s > 2*h2, then stops.  b must be nonsingular.
    The prime keeps every int64 product exact: the digit b^-1 (res mod q)
    needs r*(q-1)^2 <= 2^63 - 1, and the residual res - b*digit, whose
    entries stay below M = max(|c|, r*|b|), needs M + r*|b|*(q-1) to fit.
    A step on Python integers costs some 30 int64 steps, so int64 is used
    whenever a prime of at least 2^8 qualifies; otherwise b and the residual
    are kept as Python integers.
    """
    r = len(b)
    bmax = max(abs(v) for row in b for v in row)
    cmax = max((abs(v) for row in c for v in row), default=0)
    cap = (_INT64_MAX - max(cmax, r * bmax)) // (r * bmax)
    native = cap >= 2**8
    cap = min(cap if native else 2**31, isqrt(_INT64_MAX // r) + 1, 2**31)
    for q in _primes_below(cap):
        binv = _inverse_mod(b, q)
        if binv is not None:
            break
    dtype = np.int64 if native else object
    bq = np.array(b, dtype=dtype)
    res = np.array(c, dtype=dtype)
    x = np.zeros(res.shape, dtype=object)
    m, s = 1, 0
    while True:
        digit = binv @ (res % q).astype(np.int64) % q
        res = (res - bq @ digit) // q
        x += digit.astype(object) * m
        m *= q
        s += 1
        done = m > 2 * h2
        if done or s & (s - 1) == 0:
            yield m, x.T.ravel().tolist()
        if done:
            return


def _lifted_kernel(
    dense: list[list[int]],
    pivots: tuple[int, ...],
    pivot_rows: tuple[int, ...],
    rref: np.ndarray,
    p: int,
) -> tuple[int, list[list[int]]] | None:
    """Standard-form kernel for the pivot columns of a mod-p elimination.

    Returns a denominator D and the kernel vectors scaled by D, each with D
    in its own free column, 0 in the other free columns, and re-verified
    exactly against every row.  None when no such kernel exists, i.e. the
    prime lowered the rank.
    """
    n = len(dense[0])
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    r = len(pivots)
    int_rows = [[(c, v) for c, v in enumerate(row) if v] for row in dense]

    def certify(rec: tuple[int, list[int]] | None) -> tuple[int, list[list[int]]] | None:
        if rec is None:
            return None
        den, nums = rec
        vectors = []
        for j, fc in enumerate(free):
            vec = [0] * n
            vec[fc] = den
            for i, pc in enumerate(pivots):
                vec[pc] = -nums[j * r + i]
            if not _verify_kernel(int_rows, vec):
                return None
            vectors.append(vec)
        return den, vectors

    # The echelon form is b^-1 A[R,:] mod p, so its free columns are the
    # first p-adic digit of the solution.
    found = certify(_reconstruct_vector(rref[:, free].T.ravel().tolist(), p))
    if found is not None:
        return found
    b = [[dense[i][c] for c in pivots] for i in pivot_rows]
    c = [[dense[i][fc] for fc in free] for i in pivot_rows]
    # Hadamard: det b and every Cramer numerator (b with one column replaced
    # by a column of c) are at most sqrt(h2) in absolute value.
    h2 = max([1] + [sum(v * v for v in col) for col in zip(*c)])
    for col in zip(*b):
        h2 *= sum(v * v for v in col)
    if p > 2 * h2:  # the first digit was already conclusive
        return None
    for m, residues in _dixon(b, c, h2):
        found = certify(_reconstruct_vector(residues, m))
        if found is not None:
            return found
    return None


def _prime_budget(dense: list[list[int]]) -> int:
    """Primes after which the certificate must have been found.

    A prime that lowers the rank or moves a pivot divides one fixed nonzero
    minor of the matrix, which is below 2^(k*(bits + log2(k)/2)) for the
    order k <= min(rows, cols).  Each such prime exceeds 2^30, so at most
    that many bits / 30 of them exist; two more primes reach two good ones.
    """
    k = min(len(dense), len(dense[0]))
    bits = max(max(map(abs, row)) for row in dense).bit_length()
    return 2 + k * (2 * bits + k.bit_length()) // 60


@dataclass
class _CertifiedResult:
    rank: int
    kernel: KernelBasis | None  # kernel of the oriented matrix, when requested


def _certified(matrix: RatMatrix, want_kernel: bool) -> _CertifiedResult | None:
    """Modular rank (and optionally kernel) with an exact certificate.

    A rank or an empty kernel needs one prime; any other kernel needs two
    primes that agree on the rank and the pivot columns.  At the top rank
    the smallest pivot tuple wins: the pivots over the rationals are
    componentwise at most those of any prime of that rank.  Returns None
    only past the prime budget, which no matrix should reach; the caller
    then falls back to the exact baseline.
    """
    dense = _int_dense(matrix)
    needed = 2 if want_kernel else 1
    budget = _prime_budget(dense)
    best: tuple[int, tuple[int, ...]] | None = None
    seen = 0
    for tried, p in enumerate(_primes_below(2**31), start=1):
        pivots, pivot_rows, rref = _rref_mod(_mod_array(dense, p), p)
        if len(pivots) == matrix.cols:
            # full column rank: a nonzero maximal minor mod p is the whole
            # certificate, and the kernel is empty
            return _CertifiedResult(matrix.cols, KernelBasis(0, ()) if want_kernel else None)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, seen = key, 0
        if key == best:
            seen += 1
            if seen == needed:
                found = _lifted_kernel(dense, pivots, pivot_rows, rref, p)
                if found is not None:
                    kernel = None
                    if want_kernel:
                        den, vectors = found
                        kernel = KernelBasis(
                            len(vectors),
                            tuple(tuple(Fraction(v, den) for v in vec) for vec in vectors),
                        )
                    return _CertifiedResult(len(pivots), kernel)
        if tried >= budget:
            return None
    return None


def rank_certified(matrix: RatMatrix) -> int:
    """Exact rank; fast modular path with certification, exact fallback."""
    if matrix.rows == 0 or matrix.cols == 0 or not matrix.entries:
        return 0
    if max(matrix.rows, matrix.cols) <= _MOD_THRESHOLD:
        return rank(matrix)
    # The kernel certificate is cheapest on the orientation with fewer
    # columns, and rank is invariant under transposition.
    oriented = matrix.transpose() if matrix.cols > matrix.rows else matrix
    result = _certified(oriented, want_kernel=False)
    if result is not None:
        return result.rank
    return rank(matrix)


def kernel_basis_certified(matrix: RatMatrix) -> KernelBasis:
    """Kernel basis through the certified modular path, exact fallback."""
    if matrix.cols == 0:
        return KernelBasis(0, ())
    if matrix.rows == 0 or not matrix.entries:
        vectors = []
        for c in range(matrix.cols):
            v = [Fraction(0)] * matrix.cols
            v[c] = Fraction(1)
            vectors.append(tuple(v))
        return KernelBasis(matrix.cols, tuple(vectors))
    if max(matrix.rows, matrix.cols) <= _MOD_THRESHOLD:
        return kernel_basis(matrix)
    result = _certified(matrix, want_kernel=True)
    if result is not None and result.kernel is not None:
        return result.kernel
    return kernel_basis(matrix)


@dataclass(frozen=True)
class LinalgPolicy:
    """Chooses between the exact baseline and the certified modular engine."""

    modular: bool = True

    def rank(self, matrix: RatMatrix) -> int:
        return rank_certified(matrix) if self.modular else rank(matrix)

    def kernel(self, matrix: RatMatrix) -> KernelBasis:
        return kernel_basis_certified(matrix) if self.modular else kernel_basis(matrix)


DEFAULT_POLICY = LinalgPolicy(modular=True)
EXACT_POLICY = LinalgPolicy(modular=False)
