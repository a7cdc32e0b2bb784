"""Graded analysis of the gradient ideal of a plane curve.

For a reduced curve f = 0 of degree d this module computes dimensions of the
graded pieces of the quotient by the gradient ideal, reads the total Tjurina
number off the stabilized window of that Hilbert function, and finds the
minimal degree of a relation among the three partial derivatives together
with an explicit, exactly verified witness.

The Hilbert value in degree t is dim S_t - rank A_s, s = t - d + 1, where
A_s maps (a, b, c) of degree s to a*f_x + b*f_y + c*f_z; its kernel is
AR(f)_s, the relations of degree s.  Kernels come from conicfree.linalg
as primitive integer vectors, so a kernel vector is a relation as it
stands, and the witness of mdr is the first one with its sign fixed.

Each rank is certified two-sided with no kernel lifted at degree s, and
both bounds count leading terms the same way.  One routine eliminates a
span mod p (one prime below 2^31) with its columns in position-over-grevlex
order (component first, descending grevlex within a component) and reads
off its leading terms; a second multiplies them by the monomials of a
higher degree.  Under that order a monomial times a
leading term is the leading term of the product, so the products number
at most the rank mod p of the multiplied span.  From below: the gradient
ideal J is generated in degree d-1, so J_{t+1} = S_1 J_t; its leading
monomials (one component) are recorded at the highest degree e <= s where
A_e was eliminated, and their multiples into degree s+d-1 number at most
rank_p(A_s) <= rank A_s.  The relation search records them, and A_s is
eliminated only where the two bounds fall short.  From above:
cols - rank_p(F), where F holds the monomial multiples into degree s of
exact relations: generators found by one walk per curve over degrees
0 .. d-2 (a certified kernel only where the multiples of the lower ones
fall short; mdr reads d1 and its witness off the first generator) and the
three Koszul relations
(f_y, -f_x, 0), (f_z, 0, -f_x), (0, f_z, -f_y) in degree d-1, re-verified
exactly as one array product.  At the window degrees rank_p(F) is
bounded from below by leading terms (three components): every relation
in F has degree <= d-1, so F_s = S_{s-d+1} F_{d-1}, and F_{d-1} is
eliminated once per window, F_s only where that count falls short.  Bounds
that overlap, or a row of F that a fixed pseudo-random combination shows
is no relation mod p, raise: either means a fault in building F.  Where
the bounds do not meet, the rank comes from the lifted-kernel certificate
of linalg.rank_certified; a missing generator can only cause that
fallback, never a wrong rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from math import lcm
from typing import Callable, Sequence

import numpy as np

# the certified engine is called as linalg.rank_certified and
# linalg.kernel_basis_certified, looked up at call time, so that code
# replacing those attributes of conicfree.linalg reaches these calls
from conicfree import linalg
from conicfree.linalg import (
    BOUND_PRIME,
    RatMatrix,
    _kills,
    _SparseRows,
    integer_zeros,
    pivot_columns_mod,
    product_mod,
    rank_mod,
    residues_mod,
)
from conicfree.poly import (
    VAR_NAMES,
    HomogeneousPolynomial,
    Mono3,
    degree_dimension,
    monomials_of_degree,
)


@dataclass(frozen=True)
class JacobianContext:
    """A curve together with its degree and partial derivatives."""

    f: HomogeneousPolynomial
    d: int
    partials: tuple[HomogeneousPolynomial, HomogeneousPolynomial, HomogeneousPolynomial]
    # relation_generators, None until it runs: the one relation walk per
    # curve, read by mdr and by the ranks of the Hilbert window
    generators: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # by degree s where A_s was eliminated: the grevlex leading monomials
    # mod p of the gradient ideal in degree s+d-1 (_leading_terms of A_s^T)
    leading: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def for_curve(cls, f: HomogeneousPolynomial) -> "JacobianContext":
        if f.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        if f.degree < 2:
            raise ValueError("curve degree must be at least 2")
        partials = tuple(f.partial(v) for v in VAR_NAMES)
        return cls(f=f, d=f.degree, partials=partials)

    @cached_property
    def integer_partials(self) -> tuple[dict[Mono3, int], ...]:
        """The partials times the lcm of their coefficients' denominators."""
        scale = lcm(*(c.denominator for g in self.partials for c in g.terms.values()))
        return tuple({m: int(c * scale) for m, c in g.terms.items()} for g in self.partials)

    @cached_property
    def row_l1(self) -> int:
        """Sum of the l1 norms of the integer partials.

        A row of syzygy_matrix(ctx, s) holds, per component, coefficients
        of one integer partial at distinct monomials, so this bounds its l1
        norm in every degree s.
        """
        return sum(abs(v) for g in self.integer_partials for v in g.values())


@dataclass(frozen=True)
class HilbertProfile:
    """Graded dimensions over a degree window, plus the total Tjurina number.

    ``tau`` is the common value at 3d-6, 3d-5, 3d-4, 0 for the smooth
    signature (1, 0, 0), and None when the window is unstable.
    """

    window: tuple[tuple[int, int], ...]
    tau: int | None
    smooth: bool


@dataclass(frozen=True)
class SyzygyWitness:
    """A relation a*f_x + b*f_y + c*f_z = 0 of minimal degree r."""

    r: int
    a: HomogeneousPolynomial
    b: HomogeneousPolynomial
    c: HomogeneousPolynomial

    def triple(self) -> tuple[HomogeneousPolynomial, ...]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"degree {self.r}: ({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class AtLeast:
    """Outcome of an exhausted relation search: the degree is >= bound."""

    bound: int

    def __str__(self) -> str:
        return f">= {self.bound}"


@cache
def _monomial_array(t: int) -> np.ndarray:
    """The exponent triples of monomials_of_degree(t), as a read-only n x 3 array."""
    monos = np.array(monomials_of_degree(t), dtype=np.int64).reshape(-1, 3)
    monos.flags.writeable = False
    return monos


def _grlex_position(exponents: np.ndarray, t: int) -> np.ndarray:
    """Positions of degree-t exponent triples (last axis) in monomials_of_degree(t)."""
    top = t - exponents[..., 0]
    return top * (top + 1) // 2 + exponents[..., 2]


def syzygy_matrix(ctx: JacobianContext, r: int) -> RatMatrix:
    """Matrix of (a, b, c) -> a*f_x + b*f_y + c*f_z on degree-r coefficients.

    Rows are indexed by degree r+d-1 monomials in descending grlex order,
    columns by (component, degree-r monomial), component-major.  The partials
    are multiplied by the lcm of their coefficients' denominators, one
    positive constant that changes neither the rank nor the kernel, so the
    matrix is an integer array.
    """
    t = r + ctx.d - 1
    monos = _monomial_array(r)
    n = len(monos)
    partials = ctx.integer_partials
    a = integer_zeros(
        (degree_dimension(t), 3 * n), max((abs(v) for g in partials for v in g.values()), default=0)
    )
    for k, g in enumerate(partials):
        if not g:
            continue
        prods = np.array(list(g), dtype=np.int64)[:, None, :] + monos[None, :, :]
        rows = _grlex_position(prods, t)
        a[rows, k * n + np.arange(n)] = np.array(list(g.values()), dtype=a.dtype)[:, None]
    return RatMatrix(a)


# A relation of degree e: its integer coefficient vector in the column layout
# of syzygy_matrix(ctx, e).
Relation = tuple[int, np.ndarray]

MAX_WINDOW_EXTEND = 10  # extra window degrees; each one grows the window's matrices

_WEIGHED_ROWS = 2**16  # rows of relation multiples per int64 product in _relations_mod_p


def _relation_multiples(relations: Sequence[Relation], s: int) -> np.ndarray:
    """Every relation times every monomial of degree s - e, one row each.

    The rows are in the column layout of syzygy_matrix(ctx, s), with the
    dtype of the relation vectors; relations of degree above s give none.
    """
    n = degree_dimension(s)
    blocks = [np.zeros((0, 3 * n), dtype=np.int64)]
    for e, vec in relations:
        if e > s:
            continue
        monos, mults = _monomial_array(e), _monomial_array(s - e)
        nz = np.flatnonzero(vec)
        comp, j = np.divmod(nz, len(monos))
        cols = comp * n + _grlex_position(monos[j][None, :, :] + mults[:, None, :], s)
        block = np.zeros((len(mults), 3 * n), dtype=vec.dtype)
        block[np.arange(len(mults))[:, None], cols] = vec[nz]
        blocks.append(block)
    return np.concatenate(blocks)


def _koszul_relations(ctx: JacobianContext) -> np.ndarray:
    """(f_y, -f_x, 0), (f_z, 0, -f_x) and (0, f_z, -f_y) in the layout of
    syzygy_matrix(ctx, d-1), as the rows of an object array.

    Zero triples are left out; the rest are re-verified exactly as one
    array product with syzygy_matrix(ctx, d-1) (linalg._kills).
    """
    e = ctx.d - 1
    n = degree_dimension(e)
    partials = ctx.integer_partials
    rows = np.zeros((3, 3 * n), dtype=object)
    for row, (f, g) in zip(rows, ((0, 1), (0, 2), (1, 2))):
        for k, h, sign in ((f, g, 1), (g, f, -1)):
            if partials[h]:
                positions = _grlex_position(np.array(list(partials[h])), e)
                row[k * n + positions] = [sign * c for c in partials[h].values()]
    rows = rows[(rows != 0).any(axis=1)]
    if not _kills(_SparseRows(syzygy_matrix(ctx, e).array), rows.T):
        raise AssertionError("a Koszul relation failed exact re-verification")
    return rows


def _residues(relations: Sequence[Relation]) -> list[Relation]:
    """The relations with their vectors reduced mod p, as int64."""
    return [(e, residues_mod(vec)) for e, vec in relations]


def _relations_mod_p(matrix: RatMatrix, multiples: np.ndarray, l1: int) -> bool:
    """Whether matrix kills one fixed pseudo-random combination of the rows mod p.

    The rows of multiples are residues mod p, int64 in [0, p), as
    _relation_multiples makes them from _residues.  A row that is not a
    relation mod p (a construction fault) leaves the product nonzero unless
    the combination happens to cancel it.  The weights, in [1, 2^16), are
    the top 16 bits of the Weyl sequence i * 0x9E3779B9 mod 2^32, reduced
    mod 2^16 - 1, plus 1.  The combination is one int64 product per
    _WEIGHED_ROWS rows, exact since 2^16 terms below 2^16 (p - 1) sum to
    less than 2^63.  l1 bounds the row l1 norms of the matrix; where it is
    small enough, linalg.product_mod multiplies the combination by the
    matrix as one dense int64 product.
    """
    if not len(multiples):
        return True
    weights = (np.arange(1, len(multiples) + 1) * 0x9E3779B9 % 2**32 >> 16) % (2**16 - 1) + 1
    combo = sum(
        weights[i : i + _WEIGHED_ROWS] @ multiples[i : i + _WEIGHED_ROWS] % BOUND_PRIME
        for i in range(0, len(multiples), _WEIGHED_ROWS)
    )
    return not product_mod(matrix.array, combo % BOUND_PRIME, l1).any()


def _leading_terms(rows: np.ndarray, t: int) -> np.ndarray:
    """The leading terms mod p of the row span of rows, position over grevlex.

    The columns of rows are blocks of the degree-t monomials in the order of
    monomials_of_degree(t), one block per component: one for A_s^T (the
    gradient ideal in degree t = s+d-1), three for relation multiples in
    the layout of syzygy_matrix(ctx, t).  They are put in descending module
    order, component first and then descending grevlex, where a smaller
    exponent of z, then of y, is larger; the pivot columns are the leading
    terms (component, monomial) of the span mod p, and their count is its
    rank mod p.  Returned as sorted column positions of rows.
    """
    monos = _monomial_array(t)
    grevlex = np.lexsort((monos[:, 1], monos[:, 2]))
    order = np.arange(rows.shape[1]).reshape(-1, len(monos))[:, grevlex].ravel()
    pivots = pivot_columns_mod(rows[:, order])
    return np.sort(order[list(pivots)])


def _leading_multiples(terms: np.ndarray, e: int, s: int) -> np.ndarray:
    """S_{s-e} times degree-e leading terms of _leading_terms, as sorted
    column positions in the same layout in degree s.

    Under position over grevlex a monomial times a leading term is the
    leading term of the product.  So for the leading terms of a span V mod
    p these are leading terms of S_{s-e} V mod p, and their count is a
    lower bound for its rank mod p.
    """
    comp, j = np.divmod(terms, degree_dimension(e))
    products = _monomial_array(e)[j][:, None, :] + _monomial_array(s - e)[None, :, :]
    # at most three components, so the positions lie below 3 * dim S_s
    hit = np.zeros(3 * degree_dimension(s), dtype=bool)
    hit[comp[:, None] * degree_dimension(s) + _grlex_position(products, s)] = True
    return np.flatnonzero(hit)


def _certified_rank(
    ctx: JacobianContext,
    s: int,
    matrix: RatMatrix,
    multiples: np.ndarray,
    terms: Callable[[], np.ndarray] | None = None,
) -> int | None:
    """rank A_s (matrix = syzygy_matrix(ctx, s)) when two bounds meet, else None.

    Both bounds count _leading_multiples of recorded _leading_terms.  The
    lower one multiplies the leading monomials of J recorded in the highest
    degree e <= s (ctx.leading): J is generated in degree d-1, so
    J_{s+d-1} = S_{s-e} J_{e+d-1}, and the count is at most rank_p(A_s).
    The rows of multiples are relations (mod p), so rank_p(A_s) <= rank <=
    cols - rank_p(multiples) over the rationals: a nonzero minor mod p is
    nonzero over Q, and relations independent mod p are independent kernel
    vectors.  Given terms(), rank_p(multiples) is bounded from below by the
    multiples of its leading terms: for s >= d-1 the rows of multiples span
    S_{s-d+1} times the relation multiples in degree d-1, and terms() gives
    their leading terms (called only here).  multiples is eliminated only
    when the bounds fall short without it, and A_s itself only when they
    still do, which records its leading monomials for the degrees above.  A
    sum above cols can only come from a row that is not a relation, and
    raises; so does a row that _relations_mod_p catches before a rank is
    accepted.
    """
    shift = ctx.d - 1
    e = max((r for r in ctx.leading if r <= s), default=None)
    lower = 0 if e is None else len(_leading_multiples(ctx.leading[e], e + shift, s + shift))
    spanned = 0
    if lower < matrix.cols and terms is not None:
        spanned = len(_leading_multiples(terms(), shift, s))
    if lower + spanned < matrix.cols:
        spanned = rank_mod(multiples)
    if lower + spanned < matrix.cols:
        ctx.leading[s] = _leading_terms(matrix.array.T, s + shift)
        lower = len(ctx.leading[s])
    if lower + spanned > matrix.cols:
        raise AssertionError(
            f"{lower} leading monomials mod p and {spanned} independent relations "
            f"exceed {matrix.cols} columns: some row is not a relation"
        )
    if lower + spanned < matrix.cols:
        return None
    if not _relations_mod_p(matrix, multiples, ctx.row_l1):
        raise AssertionError("some row of the relation multiples is not a relation mod p")
    return lower


def relation_generators(ctx: JacobianContext) -> tuple[Relation, ...]:
    """Exact relations whose monomial multiples span every relation of degree <= d-2.

    The one relation walk of a curve, memoised in ctx.generators.
    It walks the degrees e = 0 .. d-2, where every kernel vector is a
    relation that is not a Koszul one.  Where the multiples of the
    relations found so far certify the rank of A_e (_certified_rank, which
    records the leading monomials of A_e wherever it eliminates it), they
    span its kernel; below the first relation, that is a certified full
    rank.  Elsewhere the certified kernel of A_e is taken, and its vectors
    outside the span of those multiples mod p join: the greedy mod-p column
    basis of the multiples followed by the kernel.  The kernel engine
    verifies its vectors exactly, so every generator is a relation.  The
    first generator is (d1, the first vector of the certified kernel of
    A_d1, the basis linalg.kernel_basis returns): nothing precedes it, and
    a primitive vector is nonzero mod p.

    The generators are minimal, and their degrees are the curve's exponents
    below d-1, when at each degree the multiples of the lower generators
    have the same rank mod p as over the rationals.  Where the prime lowers
    that rank, a vector already in their span can join, or one outside it
    be left out; the window ranks stay correct either way, since their
    certificate is two-sided and a missing generator only costs the
    fallback.
    """
    if ctx.generators is not None:
        return ctx.generators
    found: list[Relation] = []
    for e in range(ctx.d - 1):
        known = _relation_multiples(_residues(found), e)
        matrix = syzygy_matrix(ctx, e)
        if _certified_rank(ctx, e, matrix, known) is not None:
            continue
        vectors = linalg.kernel_basis_certified(matrix).vectors
        kernel = np.array(vectors, dtype=object).reshape(-1, 3 * degree_dimension(e))
        basis = pivot_columns_mod(np.concatenate([known, kernel]).T)
        found.extend((e, kernel[i - len(known)]) for i in basis if i >= len(known))
    object.__setattr__(ctx, "generators", tuple(found))
    return ctx.generators


def _syzygy_ranks(ctx: JacobianContext, degrees: list[int]) -> list[int]:
    """rank syzygy_matrix(ctx, s) for each s in degrees, 0 for s < 0.

    Each rank is certified two-sided (_certified_rank): below by the multiples
    of the leading monomials recorded by relation_generators, the curve's
    one relation walk; above by the multiples of its generators and, once a
    degree reaches d-1, of the three Koszul relations, whose leading terms
    in degree d-1 are taken at most once per call.  No kernel is lifted at
    degree s; where the bounds do not meet, the rank comes from the
    lifted-kernel certificate of linalg.rank_certified.
    """
    relations = relation_generators(ctx)
    if max(degrees) >= ctx.d - 1:
        relations += tuple((ctx.d - 1, v) for v in _koszul_relations(ctx))
    residues = _residues(relations)

    @cache
    def terms() -> np.ndarray:
        return _leading_terms(_relation_multiples(residues, ctx.d - 1), ctx.d - 1)

    def rank(s: int) -> int:
        matrix = syzygy_matrix(ctx, s)
        multiples = _relation_multiples(residues, s)
        certified = _certified_rank(
            ctx, s, matrix, multiples, terms if s >= ctx.d - 1 else None
        )
        return linalg.rank_certified(matrix) if certified is None else certified

    return [rank(s) if s >= 0 else 0 for s in degrees]


def milnor_dim(ctx: JacobianContext, t: int) -> int:
    """Dimension of the degree-t piece of S modulo the gradient ideal."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    return degree_dimension(t) - _syzygy_ranks(ctx, [t - ctx.d + 1])[0]


def check_window_extend(extend: int) -> None:
    """Refuse a window extension outside 0 .. MAX_WINDOW_EXTEND."""
    if not 0 <= extend <= MAX_WINDOW_EXTEND:
        raise ValueError(f"window extension {extend} is not in 0..{MAX_WINDOW_EXTEND}")


def hilbert_profile(ctx: JacobianContext, extend: int = 0) -> HilbertProfile:
    """Hilbert values on [3d-6, 3d-4 + extend] with the stabilization verdict.

    The probed values equal the total Tjurina number for every singular
    reduced curve; a smooth curve instead shows the signature (1, 0, 0)
    because the quotient ring is then a complete intersection whose socle
    sits exactly at degree 3d-6.  All window degrees share one search for
    relation generators and the grevlex leading monomials it records (see
    _syzygy_ranks).  extend must lie in 0 .. MAX_WINDOW_EXTEND.
    """
    check_window_extend(extend)
    lo = 3 * ctx.d - 6
    degrees = range(lo, lo + 3 + extend)
    ranks = _syzygy_ranks(ctx, [t - ctx.d + 1 for t in degrees])
    window = tuple((t, degree_dimension(t) - r) for t, r in zip(degrees, ranks))
    core = [v for _, v in window[:3]]
    smooth = core == [1, 0, 0]
    tau: int | None
    if core[0] == core[1] == core[2]:
        tau = core[0]
    elif smooth:
        tau = 0
    else:
        tau = None
    return HilbertProfile(window=window, tau=tau, smooth=smooth)


def _vector_to_witness(r: int, vec: Sequence[int]) -> SyzygyWitness:
    """The relation with integer coefficient vector vec in the column layout
    of syzygy_matrix(ctx, r), its sign chosen to make the first nonzero
    entry positive."""
    monos = monomials_of_degree(r)
    n = len(monos)
    sign = 1 if next(v for v in vec if v) > 0 else -1
    parts = [
        HomogeneousPolynomial(r, {m: sign * c for m, c in zip(monos, vec[k * n : (k + 1) * n])})
        for k in range(3)
    ]
    return SyzygyWitness(r, *parts)


def mdr(ctx: JacobianContext) -> SyzygyWitness | AtLeast:
    """Minimal degree of a gradient relation, with a canonical witness.

    The witness is the first vector of the first nonzero kernel in degrees
    0 .. d-2, where every kernel vector is a relation: the first of
    relation_generators.  Returns :class:`AtLeast` (d-1) when there is
    none.  The witness is re-verified by exact expansion.
    """
    first = next(iter(relation_generators(ctx)), None)
    if first is None:
        return AtLeast(ctx.d - 1)
    witness = _vector_to_witness(*first)
    if not verify_witness(ctx, witness):
        raise AssertionError(f"kernel vector failed exact re-verification in degree {witness.r}")
    return witness


def verify_witness(ctx: JacobianContext, witness: SyzygyWitness) -> bool:
    """Exact expansion check of a*f_x + b*f_y + c*f_z = 0.

    Expanded over the integers: the witness and the partials are each
    scaled by one positive common denominator, which keeps a zero sum zero
    and a nonzero one nonzero.
    """
    den = lcm(*(c.denominator for g in witness.triple() for c in g.terms.values()))
    total: dict[Mono3, int] = {}
    for g, partial in zip(witness.triple(), ctx.integer_partials):
        for (i, j, k), c in g.terms.items():
            c = c.numerator * (den // c.denominator)
            for (u, v, w), e in partial.items():
                m = (i + u, j + v, k + w)
                total[m] = total.get(m, 0) + c * e
    return not any(total.values())
