"""Exact linear algebra over the rationals for sparse matrices.

A matrix (:class:`RatMatrix`) is one 2-d integer array: int64, or Python
integers in an object array once an entry reaches 2^62; a rational matrix
enters with its rows scaled to integers.  A kernel (:class:`KernelBasis`)
is a tuple of primitive integer vectors in standard form, each positive in
its own free column, so both engines return the same basis:

* the reference engine, :func:`rank` and :func:`kernel_basis`: row echelon
  form over the integers with per-row content stripping, whose pivot count
  is the rank and whose back substitution gives the kernel.  No code in the
  package calls it; the tests compare against it;
* the certified modular engine, which every kernel and rank of the package
  goes through, at every size.  It works on the integer array from the
  matrix build to the certificate.  It eliminates A modulo one 31-bit
  prime, updating only the columns from each pivot on, records the pivot
  columns P and the pivot rows R, and solves A[R,P] X = A[R,F] over the
  rationals for the free columns F: first by back substitution on the
  echelon form, then, if that single p-adic digit does not give a
  verified kernel, by Dixon's p-adic lifting.  The lifting prime is the
  largest that keeps every int64 product exact for the largest row l1 norm
  of the pivot block, through which the residual is updated as a sparse
  matrix.  After every digit the whole of X is reconstructed, and the
  lifting stops at the first reconstruction whose kernel is certified, or
  at the Hadamard bound of the system, where reconstruction is guaranteed.

  A rank r is accepted only with an exact certificate in both directions:
  the r x r minor A[R,P] is nonzero modulo the prime (rank >= r over the
  rationals), and the n - r standard-form kernel vectors built from X are
  re-verified exactly against every integer row (rank <= r).  The
  re-verification splits the vectors into signed w-bit limbs, w chosen from
  the largest row l1 norm L of A so that L * 2^w fits in int64: every row
  sum of a limb product is then exact, and A v = 0 holds exactly when each
  limb sum plus the carry from the limb below is divisible by 2^w and the
  last carry is 0.  Matrices whose entries leave no room for 8-bit limbs
  go through the same chunked product on Python integers.  A failed
  certificate at the Hadamard bound means the prime lowered the rank, and
  the next prime is tried.  A certified kernel is accepted from a prime
  only when an exact support test on the lifted basis shows that the
  prime's free columns are those of the rational reduced echelon form
  (every vector 0 past its own free column), so it is the reference
  engine's basis; otherwise the next prime is tried.  Zero and
  full-column-rank matrices take the same path.  Past a prime budget that
  no matrix reaches, the engine raises.

One routine eliminates mod p, :func:`_echelon_mod`: a row echelon form
whose steps clear the pivot column below the pivot row only, which keeps
the pivot rows and their original indices.  Where only the pivot columns
are read, that is all.  Where a solution is read (the first p-adic digit
of the certificate, and b^-1 mod q for Dixon's lifting, from [b | I]),
:func:`_back_substitute` solves the triangular system of the pivot rows on
the free columns alone.

:func:`pivot_columns_mod` works modulo one fixed prime, BOUND_PRIME, the
first that the certified engine tries, and reads pivot columns only.  A
rank mod p (the count of pivot columns) is a lower bound for the rank
over the rationals;
the Hilbert window (conicfree.jacobian) pairs it with explicit exact
relations for the upper bound and calls :func:`rank_certified` only where
the two bounds do not meet.

All operations are pure and deterministic: primes are taken in descending
order below 2^31, pivot rules are fixed and nothing is random.
"""

from __future__ import annotations

import importlib
import threading
import types
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod


class _DeferredModule(types.ModuleType):
    """A module imported on the first attribute read, not when it is named.

    The first read imports the module under a lock, copies its namespace in
    and turns this object into a plain module, so later reads cost what
    reads of the module itself cost, and a thread never sees a half-filled
    namespace.  ``sys.modules`` holds the real module, as after any import.
    """

    _lock = threading.Lock()

    def __getattr__(self, name: str):
        with self._lock:
            if type(self) is _DeferredModule:
                vars(self).update(vars(importlib.import_module(self.__name__)))
                self.__class__ = types.ModuleType
        return getattr(self, name)


# surveys, incidence structures and the theorem scans never eliminate, so
# they start without numpy; the first elimination imports it
np = _DeferredModule("numpy")

# perfbench/run.py reads it to count certified kernel calls: every nonzero
# matrix is certified.  It goes with the benchmark's linalg.exact hooks.
_MOD_THRESHOLD = 0
_INT64_MAX = 2**63 - 1
_CHUNK = 1 << 18  # elements in one temporary of the lifting and verification loops


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


def integer_zeros(shape: tuple[int, int], bound: int) -> np.ndarray:
    """A zero array for integer entries of absolute value at most bound.

    int64 below 2^62, which keeps a sum of two entries exact, otherwise an
    object array of Python integers.
    """
    return np.zeros(shape, dtype=np.int64 if bound < 2**62 else object)


class RatMatrix:
    """A rational matrix, held as one 2-d integer array that is not copied.

    The array is int64 with entries below 2^62 in absolute value (see
    :func:`integer_zeros`), or object with Python integers.  A rational
    matrix enters with each row scaled to integers, which keeps its rank
    and its kernel.  ``entries`` (Python integers by (row, col)) are
    derived from the array on first use.
    """

    __slots__ = ("array", "_entries")

    def __init__(self, array: np.ndarray):
        if array.ndim != 2 or array.dtype not in (np.dtype(np.int64), np.dtype(object)):
            raise ValueError(f"not a 2-d int64 or object array: {array.dtype}, {array.ndim}-d")
        self.array = array
        self._entries: dict[tuple[int, int], int] | None = None

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        if self._entries is None:
            rr, cc = np.nonzero(self.array)
            values = self.array[rr, cc].tolist()
            self._entries = dict(zip(zip(rr.tolist(), cc.tolist()), values))
        return self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.array.T)

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class KernelBasis:
    """An exact basis of the right kernel; vectors annihilate the matrix.

    Each vector is in standard form (nonzero in its own free column, 0 in
    the other free columns) and scaled to coprime Python integers, positive
    in its free column, which makes the basis canonical.
    """

    dimension: int
    vectors: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Reference engine: for tests only


def _integer_ref(matrix: RatMatrix) -> tuple[list[dict[int, int]], list[int]]:
    """Row echelon form over the integers with per-row content stripping.

    Columns are processed left to right so the pivot column set is canonical.
    Returns the echelon rows (as sparse dicts) and their pivot columns.
    """
    rows = [dict(r) for r in _SparseRows(matrix.array).int_rows() if r]
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

    Each vector is nonzero in its free column and 0 in the other free
    columns, so the basis is independent by construction; it is solved
    with 1 in its free column and scaled to coprime integers.
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
        # the free entry 1 makes the lcm of the denominators primitive
        den = lcm(*(x.denominator for x in v))
        vectors.append(tuple(x.numerator * (den // x.denominator) for x in v))
    return KernelBasis(dimension=len(vectors), vectors=tuple(vectors))


# ---------------------------------------------------------------------------
# Certified modular engine


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _mod_array(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p as a C-ordered int64 array."""
    if a.dtype == object:
        return np.ascontiguousarray((a % p).astype(np.int64))
    out = np.empty(a.shape, dtype=np.int64)
    np.mod(a, p, out=out)
    return out


def _echelon_mod(
    a: np.ndarray, p: int
) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """Row echelon form of a mod p, in place.  Pivot rule: first nonzero row.

    The entries of a lie in [0, p) with p < 2^31.  Each step clears the
    pivot column in the rows below the pivot row only, without normalising
    the pivot row; those rows are zero left of the pivot column, so only
    the columns from the pivot on are updated (only the pivot row's nonzero
    ones when they are few).  Returns the pivot columns, the original
    indices of the pivot rows (in pivot order) and the nonzero rows U of the
    echelon form, U = L a[pivot rows] for a unit lower triangular L.
    """
    nrows, ncols = a.shape
    order = list(range(nrows))
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        row = a[pr, c:]
        if pr != r:
            # both rows are zero left of c
            row = row.copy()
            a[pr, c:] = a[r, c:]
            a[r, c:] = row
            order[r], order[pr] = order[pr], order[r]
        if nz.size > 1:
            below = r + nz[1:]
            factor = a[below, c] * pow(int(row[0]), -1, p) % p
            cols = row.nonzero()[0]
            if 2 * cols.size < row.size:
                block = (below[:, None], cols + c)
                a[block] = (a[block] - factor[:, None] * row[cols]) % p
            else:
                a[below, c:] = (a[below, c:] - factor[:, None] * row) % p
        pivot_cols.append(c)
        r += 1
    return tuple(pivot_cols), tuple(order[:r]), a[:r]


def _back_substitute(
    u: np.ndarray, pivots: tuple[int, ...], free: np.ndarray, p: int
) -> np.ndarray:
    """X with U[:, pivots] X = U[:, free] mod p, for the rows U of _echelon_mod.

    U[:, pivots] is upper triangular with a nonzero diagonal.  X is solved
    bottom row first, each solved row taken out of the right-hand sides of
    the rows above that are nonzero in its pivot column.
    """
    x = u[:, free]
    for i in range(len(pivots) - 1, -1, -1):
        x[i] = x[i] * pow(int(u[i, pivots[i]]), -1, p) % p
        col = u[:i, pivots[i]]
        above = col.nonzero()[0]
        if above.size:
            x[above] = (x[above] - col[above, None] * x[i]) % p
    return x


# The prime of the one-prime helpers below: the first one the certified engine tries.
BOUND_PRIME = next(_primes_below(2**31))


def residues_mod(a: np.ndarray) -> np.ndarray:
    """The integer array a modulo BOUND_PRIME, as int64."""
    return _mod_array(a, BOUND_PRIME)


def pivot_columns_mod(a: np.ndarray) -> tuple[int, ...]:
    """Pivot columns of the integer array a modulo BOUND_PRIME.

    Read left to right they are the greedy basis of the columns mod p.
    Their count is the rank mod p, which is at most the rank over the
    rationals: a nonzero minor mod p is nonzero over Q.
    """
    return _echelon_mod(residues_mod(a), BOUND_PRIME)[0]


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


def _reconstruct_vector(residues, m: int) -> tuple[int, np.ndarray] | None:
    """A common denominator D and the numerators D*x of residues x mod m.

    D is bounded by sqrt(m/2), and so is each numerator over the part of D
    known when its entry is reached (a later factor of D scales it), so the
    result is x itself when its D and numerators are within sqrt(m/2).
    Once D is known an entry costs one multiplication; entries are taken in
    blocks that double while D stays put.  None at the first entry that has
    no reconstruction within the bounds.
    """
    x = np.asarray(residues, dtype=object)
    bound = isqrt(m // 2)
    half = m // 2
    den = 1
    nums = np.empty(x.size, dtype=object)
    start, block = 0, 16
    while start < x.size:
        y = x[start : start + block] * den % m
        y[y > half] -= m
        bad = np.flatnonzero((y > bound) | (y < -bound))
        if bad.size == 0:
            nums[start : start + block] = y
            start += block
            block *= 2
            continue
        i = start + int(bad[0])
        nums[start:i] = y[: bad[0]]
        rec = _rat_reconstruct(int(y[bad[0]]), m, bound, bound // den)
        if rec is None:
            return None
        num, d = rec
        den *= d
        nums[:i] *= d
        nums[i] = num
        start, block = i + 1, 16
    return den, nums


class _SparseRows:
    """The nonzeros of an integer array row by row, for exact chunked products."""

    __slots__ = ("indptr", "cols", "vals", "l1")

    def __init__(self, a: np.ndarray):
        rr, cc = np.nonzero(a)
        self.cols = cc
        self.vals = a[rr, cc]
        self.indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rr, minlength=a.shape[0]), out=self.indptr[1:])
        mags = np.abs(a)
        if a.size and a.dtype != object and int(mags.max()) * a.shape[1] > _INT64_MAX:
            mags = mags.astype(object)
        # the largest row l1 norm
        self.l1 = int(mags.sum(axis=1).max()) if a.size else 0

    def chunks(self, width: int):
        """Row ranges whose products with `width` columns hold about _CHUNK elements."""
        per = max(1, _CHUNK // max(width, 1))
        n = len(self.indptr) - 1
        start = 0
        while start < n:
            stop = int(np.searchsorted(self.indptr, self.indptr[start] + per, "right")) - 1
            stop = min(n, max(stop, start + 1))
            yield start, stop
            start = stop

    def dot(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of this matrix times x.

        Exact in int64 when every row l1 norm times max |x| fits; every
        partial sum is bounded by that product as well.
        """
        lo, hi = self.indptr[start], self.indptr[stop]
        products = self.vals[lo:hi, None] * x[self.cols[lo:hi]]
        out = np.zeros((stop - start, x.shape[1]), dtype=products.dtype)
        nonempty = np.flatnonzero(np.diff(self.indptr[start : stop + 1]))
        if nonempty.size:
            # consecutive nonempty rows are separated only by empty ones, so
            # each reduceat segment is exactly one row
            out[nonempty] = np.add.reduceat(
                products, self.indptr[start:stop][nonempty] - lo, axis=0
            )
        return out

    def int_rows(self) -> list[list[tuple[int, int]]]:
        """Each row's nonzeros as (column, Python integer) pairs."""
        cols, vals = self.cols.tolist(), self.vals.tolist()
        bounds = self.indptr.tolist()
        return [list(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def _kills(a: _SparseRows, v: np.ndarray) -> bool:
    """Exact test that the integer matrix a kills every column of the integer array v.

    v = sum_l v_l 2^(w*l) with signed limbs |v_l| < 2^w, w the largest width
    with L * 2^w <= 2^63 - 1 for the largest row l1 norm L of a.  Each limb
    sum s_l = (a v_l)_i is then exact in int64, and so is s_l + c for an
    incoming carry |c| <= L.  (a v)_i = sum_l s_l 2^(w*l) is zero exactly
    when every s_l + c is divisible by 2^w, its quotient being the next
    carry (again at most L), and the last carry is 0.  When no w >= 8 fits,
    the same chunked product runs on Python integers.
    """
    width = v.shape[1]
    w = 63 - a.l1.bit_length()
    if w < 8:
        v = v.astype(object)
        return not any(a.dot(v, start, stop).any() for start, stop in a.chunks(width))
    mag = np.abs(v).astype(object)
    negative = v < 0
    bits = int(max(mag.ravel().tolist(), default=0)).bit_length()
    mask = (1 << w) - 1
    limbs = np.empty((max(1, -(-bits // w)),) + v.shape, dtype=np.int64)
    for l in range(len(limbs)):
        limbs[l] = (mag >> (w * l)) & mask
    limbs[:, negative] *= -1
    for start, stop in a.chunks(width):
        carry = np.zeros((stop - start, width), dtype=np.int64)
        for limb in limbs:
            s = a.dot(limb, start, stop) + carry
            if (s & mask).any():
                return False
            carry = s >> w
        if carry.any():
            return False
    return True


def _inverse_mod(b: np.ndarray, q: int) -> np.ndarray | None:
    """Inverse of the square integer matrix b modulo q, None when singular mod q."""
    r = len(b)
    aug = np.concatenate([_mod_array(b, q), np.eye(r, dtype=np.int64)], axis=1)
    pivots, _, u = _echelon_mod(aug, q)
    if pivots != tuple(range(r)):
        return None
    return _back_substitute(u, pivots, np.arange(r, 2 * r), q)


def _column_norms2(a: np.ndarray) -> list[int]:
    """Exact squared Euclidean norms of the columns of an integer array."""
    if a.dtype == object or _max_abs(a) ** 2 * a.shape[0] > _INT64_MAX:
        a = a.astype(object)
    return (a * a).sum(axis=0).tolist()


def _lifting_prime(b: np.ndarray, cap: int) -> tuple[int, np.ndarray] | None:
    """The largest prime q below cap modulo which b is invertible, with b^-1 mod q."""
    for q in _primes_below(cap):
        binv = _inverse_mod(b, q)
        if binv is not None:
            return q, binv
    return None


def _dixon(b: np.ndarray, c: np.ndarray, h2: int, accept):
    """X = b^-1 c over the rationals by p-adic lifting; b is nonsingular.

    Lifts modulo growing powers m = q^s of a prime q.  After every digit the
    whole of X is reconstructed modulo m (the reconstruction stops at the
    first entry that has none), and a reconstruction is handed to
    accept(D, numerators in column-major order).  Returns accept's first
    non-None value, or None once q^s > 2*h2, where reconstruction is
    guaranteed.

    The prime keeps every int64 product exact: the digit b^-1 (res mod q)
    needs r*(q-1)^2 <= 2^63 - 1, and the residual res - b*digit, whose
    entries stay below M = max(|c|, L) for the largest row l1 norm L of b,
    needs M + L*(q-1) to fit.  A step on Python integers costs some 30
    int64 steps, so int64 is used whenever a prime of at least 2^8
    qualifies and b is invertible modulo one of them; otherwise b and the
    residual are kept as Python integers, and the prime need only keep the
    digit exact.
    """
    r, k = c.shape
    bs = _SparseRows(b)
    bound = max(_max_abs(c), bs.l1)
    cap = min(isqrt(_INT64_MAX // r) + 1, 2**31)
    native_cap = (_INT64_MAX - bound) // bs.l1
    lifting = _lifting_prime(b, min(native_cap, cap)) if native_cap >= 2**8 else None
    native = lifting is not None
    q, binv = lifting or _lifting_prime(b, cap)
    if native:
        res = c.astype(np.int64)
        bs.vals = bs.vals.astype(np.int64)
    else:
        res = c.astype(object)
        bs.vals = bs.vals.astype(object)
    x, m = np.zeros((r, k), dtype=object), 1
    while True:
        digit = binv @ (res % q).astype(np.int64) % q
        for start, stop in bs.chunks(k):
            res[start:stop] -= bs.dot(digit, start, stop)
        res //= q
        x += digit.astype(object) * m
        m *= q
        rec = _reconstruct_vector(x.T.ravel(), m)
        if rec is not None:
            found = accept(*rec)
            if found is not None:
                return found
        if m > 2 * h2:
            return None


def _lifted_kernel(
    a: np.ndarray,
    pivots: tuple[int, ...],
    pivot_rows: tuple[int, ...],
    u: np.ndarray,
    p: int,
) -> np.ndarray | None:
    """Standard-form kernel for the pivot columns of a mod-p elimination.

    Returns the kernel vectors scaled by a common denominator D as the
    columns of an object array, each with D in its own free column, 0 in
    the other free columns, and re-verified exactly against every row.
    None when no such kernel exists, i.e. the prime lowered the rank.
    """
    n = a.shape[1]
    piv = np.array(pivots, dtype=np.int64)
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    r, k = len(pivots), len(free)
    rows = _SparseRows(a)

    def certify(den: int, nums: np.ndarray) -> np.ndarray | None:
        vectors = np.zeros((n, k), dtype=object)
        vectors[free, np.arange(k)] = den
        vectors[piv] = -nums.reshape(k, r).T
        return vectors if _kills(rows, vectors) else None

    # The echelon rows are L A[R,:] mod p for an invertible L, so the
    # solution of U[:,P] X = U[:,F] is b^-1 c mod p: the first p-adic digit.
    rec = _reconstruct_vector(_back_substitute(u, pivots, free, p).T.ravel(), p)
    if rec is not None:
        found = certify(*rec)
        if found is not None:
            return found
    b = a[np.ix_(pivot_rows, pivots)]
    c = a[np.ix_(pivot_rows, free)]
    # Hadamard: det b and every Cramer numerator (b with one column replaced
    # by a column of c) are at most sqrt(h2) in absolute value.
    h2 = max([1] + _column_norms2(c)) * prod(_column_norms2(b))
    if p > 2 * h2:  # the first digit was already conclusive
        return None
    return _dixon(b, c, h2, certify)


def _prime_budget(a: np.ndarray) -> int:
    """Primes after which the certificate must have been found.

    Let P be the rational pivot columns, k = |P| <= min(rows, cols), and R
    rows with det A[R,P] != 0.  A prime that does not divide this minor keeps
    P independent mod p, and keeps every non-pivot column c in the span of
    the pivots left of it: c = A[:,P] x with x = A[R,P]^-1 c_R, whose
    denominators divide the minor.  So P is the greedy basis mod p, and the
    prime certifies.  Hadamard bounds the minor by 2^(k*(bits + log2(k)/2)),
    and each prime tried exceeds 2^30, so at most that many bits / 30 primes
    divide it; one more prime reaches a good one.
    """
    k = min(a.shape)
    bits = _max_abs(a).bit_length()
    return 1 + k * (2 * bits + k.bit_length()) // 60


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    return tuple(v // g for v in vec)


def _canonical_support(vectors: np.ndarray, free: np.ndarray) -> bool:
    """Whether every kernel vector (column j of vectors) is 0 past its own
    free column free[j].

    For an exact basis of the kernel K in the standard form of the free
    columns F, this holds exactly when F is the set of free columns of the
    reduced echelon form over the rationals.  The columns on which nonzero
    vectors of K end form one set of dim K columns: a basis whose vectors
    end on distinct columns puts the end of every combination on one of
    them.  The rational standard basis ends on the rational free columns
    (each vector is supported on its free column and the pivots before
    it), and a basis that passes the test ends on F (each vector holds the
    common denominator in its own free column); so both are that set.
    Conversely, for the rational F the standard-form basis is unique, and
    it passes.
    """
    past = np.arange(len(vectors))[:, None] > free[None, :]
    return not (past & (vectors != 0)).any()


def kernel_basis_from_span(
    matrix: RatMatrix, rows: np.ndarray, dimension: int
) -> KernelBasis | None:
    """The basis kernel_basis returns, from exact integer kernel vectors (the
    rows) that span a kernel of the given dimension, or None.

    One echelon form mod p of the rows with their columns reversed gives
    both: its pivot rows, dimension rows independent mod p, are a rational
    basis, and its pivots lie on the columns F where the vectors of their
    span end mod p; their block on F is invertible mod p, so over Q.
    Fraction-free Gauss-Jordan on that block gives one vector per column of
    F, 0 in the other columns of F, and _canonical_support proves F the
    rational free set, or the result is None.
    """
    pivots, independent, _ = _echelon_mod(residues_mod(rows[:, ::-1]), BOUND_PRIME)
    free = np.sort(matrix.cols - 1 - np.array(pivots, dtype=np.int64))
    if len(free) != dimension:
        raise AssertionError(f"the rows have rank {len(free)} mod p, not {dimension}")
    picked = rows[list(independent)].astype(object)
    for i, c in enumerate(free):
        r = i + int(np.flatnonzero(picked[i:, c])[0])
        picked[[i, r]] = picked[[r, i]]
        for j in np.flatnonzero(picked[:, c]):
            if j != i:
                picked[j] = picked[i, c] * picked[j] - picked[j, c] * picked[i]
                picked[j] //= gcd(*picked[j].tolist())
    vectors = [
        _primitive(row if row[c] > 0 else [-v for v in row]) for row, c in zip(picked.tolist(), free)
    ]
    found = np.array(vectors, dtype=object).reshape(-1, matrix.cols).T
    if not _canonical_support(found, free):
        return None
    if not _kills(_SparseRows(matrix.array), found):
        raise AssertionError(f"{matrix!r}: a combination of kernel vectors is no kernel vector")
    return KernelBasis(len(vectors), tuple(vectors))


def rank_certified(matrix: RatMatrix) -> int:
    """Exact rank: the columns less the dimension of the certified kernel.

    The kernel certificate is cheapest on the orientation with fewer
    columns, and rank is invariant under transposition.
    """
    oriented = matrix.transpose() if matrix.cols > matrix.rows else matrix
    return oriented.cols - kernel_basis_certified(oriented).dimension


def kernel_basis_certified(matrix: RatMatrix) -> KernelBasis:
    """The basis kernel_basis returns, with an exact certificate, from one prime.

    The first prime whose lifted kernel is certified and passes
    _canonical_support gives the basis.  A prime that lowers the rank gives
    no certified kernel, and one that moves a pivot fails the support test;
    either way the next prime is tried.  A zero matrix and one of full
    column rank take the same path.  Past the prime budget, which no matrix
    reaches (see _prime_budget), it raises AssertionError.
    """
    a = matrix.array
    budget = _prime_budget(a)
    for tried, p in enumerate(_primes_below(2**31), start=1):
        pivots, pivot_rows, u = _echelon_mod(_mod_array(a, p), p)
        found = _lifted_kernel(a, pivots, pivot_rows, u, p)
        free = np.delete(np.arange(matrix.cols), pivots)
        if found is not None and _canonical_support(found, free):
            columns = found.T.tolist()
            return KernelBasis(len(columns), tuple(_primitive(vec) for vec in columns))
        if tried >= budget:
            raise AssertionError(f"{matrix!r}: no certificate in the prime budget of {budget}")
