"""Graded analysis of the gradient ideal of a plane curve.

For a reduced curve f = 0 of degree d this module computes dimensions of the
graded pieces of the quotient by the gradient ideal, reads the total Tjurina
number off the stabilized window of that Hilbert function, and finds the
minimal degree of a relation among the three partial derivatives together
with an explicit, exactly verified witness.

The Hilbert value in degree t is dim S_t - rank A_s, s = t - d + 1, where
A_s maps (a, b, c) of degree s to a*f_x + b*f_y + c*f_z; its kernel is
AR(f)_s, the relations of degree s.  Every step reads the partials from
one integer array, ctx.gradient.  Kernels come from conicfree.linalg as
primitive integer vectors, so a kernel vector is a relation as it
stands, and the witness of mdr is the first one with its sign fixed.
A kernel in degree d-1 always exists: the Koszul relations.  So d1 is
exact for every curve, and it is d-1 when the degrees below hold none.

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
0 .. d-2 (a certified kernel at the pool's degrees and where the
multiples of the lower ones fall short; mdr reads d1 and its witness off
the first generator, or off the first Koszul relation when there is
none) and the pool's candidates at d-1 (below): the three Koszul
relations (f_y, -f_x, 0), (f_z, 0, -f_x), (0, f_z, -f_y) (ctx.koszul).
rank_p(F_s) is bounded from below by leading terms too (three
components), on a ladder of rungs t = min(s, d-1) .. s: every relation
has degree <= d-1, so F_s = S_{s-t} F_t.  Each F_t is built and
eliminated at most once per window, and the ladder stops at the first
rung that closes the bounds; its last rung is F_s itself, the only one in
the walk (s <= d-2).  So the window builds F_s only where the ladder
reaches t = s, and A_s only where the last rung falls short, once for
the bounds and a fallback; counting needs only cols = 3 dim S_s.  The
rungs are a truncated Groebner basis built degree by degree from Macaulay
matrices (Lazard 1983; Faugere's F4, 1999).  Each F_t is checked as it is
eliminated: a fixed pseudo-random combination of its rows must be a
relation mod p, mapped by the product with the gradient mod p and no
A_t.  Bounds that overlap, or a row that this check catches, raise:
either means a fault in building F.  Where the bounds do not meet, the
rank comes from the lifted-kernel certificate of linalg.rank_certified;
a missing generator can only cause that fallback, never a wrong rank.

The walk and the window try a pool of exact candidate relations, by
degree, before they lift a kernel; each family is built and checked
exactly against A_e once per curve (_candidates).  At d-1 it holds the
Koszul relations.  Where the context carries an arrangement's integer
conics (ctx.conics, from report.analyze_curve; an expression is not
factored), each pencil that q_0 spans with another conic (conic_pencils,
exact over Q) adds a logarithmic derivation of degree 2 + 2 * (the conics
outside it) (pencil_relations): generic conics give the pairs (0, j) at
d-2, k conics in one pencil one relation at 2.  A pencil that holds a
double line L^2 (a member of rank one, poly.rank_one_member: two A3
contacts where L is secant to q_0, one A7 where it is tangent) gives
rho_L = grad q_0 x grad L at 1 + 2 * (the conics outside) instead
(double_line_relations), and where L is tangent a second one at d-2
(tangent_relations: _theta, whose products with grad L and grad q_0 are
multiples of F_u and L*F_v for the pencil's product F(q_0, L^2), so it
kills F); a full tangent pencil is free with exponents (1, d-2).
lifted_relations lifts every family to f.  At every degree the walk
bounds once, with the multiples of the lower generators and the pool's
candidates there (none outside the pool) together.  Where that closes
with candidates, they and the multiples span AR_e: above d1 the
candidates outside the span of the multiples mod p join as they stand,
and at d1, where the witness is read, linalg.kernel_basis_from_span puts
their span in the standard form a lift returns, so no output changes.
Where the bound falls short (a triple point, or a relation in the span
of the lower generators) or the support test at d1 fails, a kernel is
lifted.

The walk tries its top degree d-2 early.  Before it climbs, and wherever
generators have just joined at a degree e < d-3, it takes the top step:
the step of degree d-2 with the multiples of the generators found so far
and the pool's candidates there, never a lift.  Where that closes, a
descent shows that the relations of the degrees strictly between e and
d-2 are the multiples of those generators.  Let B_s be the multiples in
degree s of the generators found, with the vectors joined at d-2 when
s = d-2, and R_s those whose multiplier is free of x, with the joined
vectors, so that B_s is x*B_{s-1} together with R_s.  S is a domain: if
v is a relation of degree s-1 and B_s spans AR_s, then x*v = x*b + r with
b in span B_{s-1} and r in span R_s, so r = x*(v - b) vanishes at the
columns whose monomial is free of x.  Where R_s has full row rank there
mod p (a nonzero minor, so over Q), r = 0 and v = b: B_{s-1} spans
AR_{s-1}.  One minor, at s = d-2, gives full rank at every s = d-3 .. e+2
too: a dependency mod p of R_s at those columns, times y^(d-2-s), is one
of R_{d-2}, since y^j times a monomial free of x is another one and
F_p[y, z] is a domain.  So the descent reaches e+1, and the walk ends.
The minor is sufficient, not necessary: a syzygy among the generators
found can fail it where no relation is missing, and that costs a climb.
Where the top step or the minor fails, the climb goes on at e+1 and
reaches d-2 with A_{d-2}, its leading monomials and, where no generator
joined since, the top step's outcome at hand: the walk keeps its steps
at d-2 by the count of generators found, and lifts there only where the
top step stayed open or its support test failed.  The start is the top
step with no generators (e = -1): generic arrangements, whose pairs span
AR_{d-2}, end there, and so does a curve with no relation below d-1.
In the corpus, pencil_four_points_m3..m6 (generators at 2, d-1, d-1,
d-1), pencil_two_points_k3..k6 (1, d-1, d-1), ploski_m2..m5 and
two_conics_a7_e1..e3 (1, d-2) end after d1; the others climb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import gcd, lcm
from typing import Callable, Sequence

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
    np,
    pivot_columns_mod,
    residues_mod,
)
from conicfree.poly import (
    HomogeneousPolynomial,
    cofactors,
    conic_matrix,
    degree_dimension,
    monomials_of_degree,
    pencil_key,
    rank_one_member,
)


@dataclass(frozen=True)
class JacobianContext:
    """A curve together with its degree and gradient."""

    f: HomogeneousPolynomial
    d: int
    # f_x, f_y, f_z times the least integer that makes them integral: 3 x
    # dim S_{d-1} Python ints, columns in the order of monomials_of_degree(d-1)
    gradient: np.ndarray = field(compare=False, repr=False)
    # the integer conics (ConicForm.integer) whose product is a constant
    # times f, where known; their pencil relations are families of the pool
    conics: tuple[tuple[int, ...], ...] | None = field(default=None, compare=False, repr=False)
    # relation_generators, None until it runs: the one relation walk per
    # curve, read by mdr and by the ranks of the Hilbert window
    generators: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # the pool, by degree e: the candidate relations of families[e], filled
    # by _candidates on the first call for e, once per curve
    pool: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # by degree s where A_s was eliminated: the grevlex leading monomials
    # mod p of the gradient ideal in degree s+d-1 (_leading_terms of A_s^T)
    leading: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def for_curve(
        cls, f: HomogeneousPolynomial, conics: Sequence[Sequence[int]] | None = None
    ) -> "JacobianContext":
        """The context of f; conics, when given, are integer conics (six
        Python ints each) whose product is a nonzero constant times f
        (report.analyze_curve checks it), and a pencil relation that is no
        relation of f raises.  With L the lcm of f's denominators, the least
        scale of the gradient is L / gcd(L, content of grad(L*f)).
        """
        if f.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        if f.degree < 2:
            raise ValueError("curve degree must be at least 2")
        if conics is not None:
            conics = tuple(tuple(q) if isinstance(q, Sequence) else q for q in conics)
            for q in conics:
                if type(q) is not tuple or len(q) != 6 or any(type(c) is not int for c in q):
                    raise ValueError(f"conic {q!r} is not six integers")
            if 2 * len(conics) != f.degree:
                raise ValueError(f"{len(conics)} conics do not make a curve of degree {f.degree}")
        scale = lcm(*(c.denominator for c in f.terms.values()))
        coeffs = [int(f.terms.get(m, 0) * scale) for m in monomials_of_degree(f.degree)]
        gradient = _gradient(np.array(coeffs, dtype=object), f.degree)
        gradient //= gcd(scale, *gradient.flat)
        gradient.flags.writeable = False
        return cls(f=f, d=f.degree, gradient=gradient, conics=conics)

    @cached_property
    def support(self) -> tuple[np.ndarray, ...]:
        """The nonzero columns of each row of the gradient."""
        return tuple(np.flatnonzero(g) for g in self.gradient)

    @cached_property
    def max_entry(self) -> int:
        """The largest absolute entry of the gradient, so of syzygy_matrix."""
        return int(abs(self.gradient).max())

    @cached_property
    def families(self) -> dict[int, Callable[[], np.ndarray]]:
        """The pool's families by degree e, each a builder of exact relations
        of degree e as rows in the layout of syzygy_matrix(ctx, e).  Each
        pencil of q_0 (conic_pencils) gives rho at 2 + 2 * (the conics
        outside it) (pencil_relations, batched per pencil size) or, where
        poly.rank_one_member finds a double line L^2 in it, rho_L one degree
        lower (double_line_relations) and, where L is tangent to q_0 (a root
        of order 3), theta at d-2 (tangent_relations); the relations of one
        degree form one family.  The Koszul relations sit at d-1, an odd
        degree above every pencil's."""
        conics, groups = self.conics or (), {}
        for pencil in conic_pencils(conics):
            outside = 2 * (len(conics) - len(pencil))
            order, line = rank_one_member(conics[0], conics[pencil[1]])
            if line is None:
                kinds = [(2 + outside, pencil_relations, pencil)]
            else:
                kinds = [(1 + outside, double_line_relations, (pencil, line))]
                if order == 3:
                    kinds.append((self.d - 2, tangent_relations, (pencil, line)))
            for e, build, item in kinds:
                groups.setdefault(e, {}).setdefault(build, []).append(item)
        families = {
            e: partial(_stacked, [partial(build, conics, items) for build, items in group.items()])
            for e, group in sorted(groups.items())
        }
        return families | {self.d - 1: self._koszul_rows}

    def _koszul_rows(self) -> np.ndarray:
        """(f_y, -f_x, 0), (f_z, 0, -f_x), (0, f_z, -f_y) in degree d-1."""
        fx, fy, fz = self.gradient
        zero = np.zeros_like(fx)
        return np.array([[fy, -fx, zero], [fz, zero, -fx], [zero, fz, -fy]]).reshape(3, -1)

    @property
    def koszul(self) -> tuple[Relation, ...]:
        """The pool's Koszul relations, primitive, in degree d-1 (_candidates)."""
        return _candidates(self, self.d - 1)


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
    columns by (component, degree-r monomial), component-major.  The
    entries are those of ctx.gradient, the partials times one positive
    constant that changes neither the rank nor the kernel, so the matrix is
    an integer array.
    """
    n = degree_dimension(r)
    a = integer_zeros((degree_dimension(r + ctx.d - 1), 3 * n), ctx.max_entry)
    rows = _product_positions(ctx.d - 1, r)
    for k, (nz, g) in enumerate(zip(ctx.support, ctx.gradient)):
        a[rows[nz], k * n + np.arange(n)] = g[nz][:, None]
    return RatMatrix(a)


@cache
def _product_positions(s: int, t: int) -> np.ndarray:
    """Positions in monomials_of_degree(s + t) of each degree-s monomial
    (rows) times each degree-t monomial (columns), read-only.

    Every matrix layout is read from these tables.  They are int16 wherever
    the positions fit, as they do in every degree the degree limit reaches
    (dim S_78 = 3160), which keeps the tables of a whole session small.
    """
    products = _monomial_array(s)[:, None, :] + _monomial_array(t)[None, :, :]
    positions = _grlex_position(products, s + t)
    positions = positions.astype(np.int16 if degree_dimension(s + t) <= 2**15 else np.int64)
    positions.flags.writeable = False
    return positions


def _times(a: np.ndarray, s: int, b: np.ndarray, t: int) -> np.ndarray:
    """Products of coefficient vectors (last axis, in the order of
    monomials_of_degree) of degrees s and t, broadcast over the other axes,
    as an object array."""
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (degree_dimension(s + t),), dtype=object)
    np.add.at(out, (..., _product_positions(s, t)), a[..., :, None] * b[..., None, :])
    return out


def _gradient(p: np.ndarray, t: int) -> np.ndarray:
    """The three derivatives of coefficient vectors p of degree t >= 1 (last
    axis), on a new axis before it."""
    monos = _monomial_array(t)
    out = np.zeros(p.shape[:-1] + (3, degree_dimension(t - 1)), dtype=object)
    for v in range(3):
        keep = np.flatnonzero(monos[:, v])
        lower = monos[keep]
        lower[:, v] -= 1
        out[..., v, _grlex_position(lower, t - 1)] = p[..., keep] * monos[keep, v]
    return out


def conic_pencils(conics: Sequence[Sequence[int]]) -> list[list[int]]:
    """The pencils that q_0 spans with the other integer conics, as sorted
    index lists, 0 first.  q_l is in the pencil of q_0 and q_j where
    [q_0; q_j; q_l] has rank 2 over Q, that is, where the 2 x 2 minors of
    [q_0; q_l] are a multiple of those of [q_0; q_j]; so each q_j is keyed,
    exactly, by its minors made primitive, first nonzero one positive
    (poly.pencil_key).  A multiple of q_0 (no reduced curve has one) is in
    no pencil."""
    pencils: dict[tuple[int, ...], list[int]] = {}
    for j in range(1, len(conics)):
        key = pencil_key(conics[0], conics[j])
        if any(key):
            pencils.setdefault(key, [0]).append(j)
    return list(pencils.values())


_CONIC_ORDER = [0, 3, 4, 1, 5, 2]  # (xx, yy, zz, xy, xz, yz) in monomials_of_degree(2)


def _stacked(builders: Sequence[Callable[[], np.ndarray]]) -> np.ndarray:
    """The rows of every builder, one family of the pool."""
    return np.concatenate([build() for build in builders])


def _cross(u: np.ndarray, e: int, w: np.ndarray, t: int) -> np.ndarray:
    """u x w for vector fields of degrees e and t, components on axis -2."""
    return _times(np.roll(u, -1, -2), e, np.roll(w, -2, -2), t) - _times(
        np.roll(u, -2, -2), e, np.roll(w, -1, -2), t
    )


def lifted_relations(
    conics: Sequence[Sequence[int]], pencils: list[list[int]], deltas: np.ndarray, e: int
) -> np.ndarray:
    """Relations of the product f of the k integer conics, one per pencil of
    one size m, from relations delta of degree e of its members' product g
    (n x 3 x dim S_e): rows of degree e + 2(k-m) in the column layout of
    syzygy_matrix(ctx, .) for f.

    For P the product of the conics outside the pencil, theta = P*delta has
    theta . grad f = f*(delta . grad P) (K. Saito 1980; Schenck and
    Tohaneanu 2009), and by Euler's identity d*theta - (delta . grad P)*(x,
    y, z) is a relation of f, d = 2k."""
    k, n = len(conics), len(pencils)
    forms = np.array(conics, dtype=object)[:, _CONIC_ORDER]
    outside = [[l for l in range(k) if l not in pencil] for pencil in pencils]
    p, t = np.ones((n, 1), dtype=object), 0
    for m in range(len(outside[0])):
        p, t = _times(forms[[row[m] for row in outside]], 2, p, t), t + 2
    rows = 2 * k * _times(deltas, e, p[:, None, :], t)
    if t:  # delta . grad P = 0 where P = 1, a full pencil
        g = _times(deltas, e, _gradient(p, t), t - 1).sum(axis=1)
        rows -= _times(np.eye(3, dtype=object), 1, g[:, None, :], e + t - 1)
    return rows.reshape(n, -1)


def pencil_relations(conics: Sequence[Sequence[int]], pencils: list[list[int]]) -> np.ndarray:
    """One relation per pencil of conic_pencils, all of m members, of the k
    integer conics (xx, yy, zz, xy, xz, yz): rows of degree e = 2 + 2(k-m)
    in the column layout of syzygy_matrix(ctx, e) for their product f.

    rho = grad q_0 x grad q_j, q_j the pencil's second member, kills every
    member a*q_0 + b*q_j, and lifted_relations lifts it to f: for m = 2 a
    pair's relation at d-2.  Where the pencil holds a double line L^2, rho
    is L times double_line_relations' rho_L, up to a constant."""
    grads = _gradient(np.array(conics, dtype=object)[:, _CONIC_ORDER], 2)
    rho = _cross(grads[0], 1, grads[[pencil[1] for pencil in pencils]], 1)
    return lifted_relations(conics, pencils, rho, 2)


def double_line_relations(
    conics: Sequence[Sequence[int]], lines: list[tuple[list[int], tuple[int, ...]]]
) -> np.ndarray:
    """One relation per (pencil, L) of pencils of one size m that hold the
    double line L^2 (poly.rank_one_member), as pencil_relations lays them
    out, of degree 1 + 2(k-m): rho_L = grad q_0 x grad L kills q_0 and L,
    so every member a*q_0 + b*L^2, and lifted_relations lifts it to f."""
    grad = _gradient(np.array(conics[0], dtype=object)[_CONIC_ORDER], 2)
    ells = np.array([line for _, line in lines], dtype=object)[:, :, None]
    return lifted_relations(conics, [pencil for pencil, _ in lines], _cross(grad, 1, ells, 0), 1)


def tangent_relations(
    conics: Sequence[Sequence[int]], lines: list[tuple[list[int], tuple[int, ...]]]
) -> np.ndarray:
    """One relation of degree d-2 per (pencil, L) whose double line L^2 is
    tangent to q_0: _theta of the pencil, lifted to f by lifted_relations."""
    rows = [
        lifted_relations(conics, [pencil], _theta(conics, pencil, line)[None], 2 * len(pencil) - 2)
        for pencil, line in lines
    ]
    return np.concatenate(rows)


def _theta(
    conics: Sequence[Sequence[int]], pencil: list[int], ell: tuple[int, ...]
) -> np.ndarray:
    """The relation theta of degree 2m-2 of g = F(q, L^2), the product of
    the pencil's m members a_j*q + b_j*L^2, q = q_0 and L = ell . (x, y, z)
    tangent to q, made primitive (3 x dim S_{2m-2}); with rho_L it makes g
    free with exponents (1, 2m-2) (K. Saito 1980; A. Dimca and G. Sticlaru
    2018).

    With c = F_u(1, 0), G = (F_u - c*u^(m-1))/v, F_v and G at (q, L^2),
    A = conic_matrix(q), P = adj(A) ell (tangency: ell . P = 0), i the first
    index with ell_i != 0, a = (column i of A) . (x, y, z) = q_(x_i) and
    E = (x, y, z):

    theta = -2 ell_i^2 det(A) L G E - c det(A) q^(m-2) (-ell_i a E
            + (2 ell_i q + L a) e_i) + (4 ell_i^2 (F_v + q G) + c q^(m-2) a^2) P.

    With K = ell_i^2 det(A), theta . ell = -2K F_u and theta . grad q =
    4K L F_v, so theta . grad g = F_u theta . grad q + 2 L F_v theta . ell
    = 0.
    """
    m, forms = len(pencil), np.array([conics[j] for j in pencil], dtype=object)[:, _CONIC_ORDER]
    q, line = forms[0], np.array(ell, dtype=object)
    square = _times(line, 1, line, 1)
    # each member as a*q + b*L^2, read at two coefficients where q, L^2 are independent
    r, t = next((r, t) for r in range(6) for t in range(r) if q[r] * square[t] != q[t] * square[r])
    f = [1]  # F(u, v) = sum f[j] u^(m-j) v^j
    for w in forms:
        a, b = w[r] * square[t] - w[t] * square[r], q[r] * w[t] - q[t] * w[r]
        f = [a * hi + b * lo for hi, lo in zip(f + [0], [0] + f)]
    powers, squares = [np.ones(1, dtype=object)], [np.ones(1, dtype=object)]
    for j in range(m - 1):
        powers.append(_times(powers[j], 2 * j, q, 2))
        squares.append(_times(squares[j], 2 * j, square, 2))

    def binary(coeffs: list[int], top: int) -> np.ndarray:
        """The sum of coeffs[j] q^(top-j) L^(2j), of degree 2 top."""
        return sum(
            c * _times(powers[top - j], 2 * (top - j), squares[j], 2 * j)
            for j, c in enumerate(coeffs)
        )

    c = m * f[0]
    g = binary([(m - 1 - j) * f[j + 1] for j in range(m - 1)], m - 2)
    fv_qg = binary([m * f[j + 1] for j in range(m)], m - 1)  # F_v + q G
    matrix = conic_matrix(conics[0])
    cof = cofactors(matrix)
    det = sum(matrix[0][s] * cof[s] for s in range(3))
    p = [sum(cof[3 * r + s] * ell[s] for s in range(3)) for r in range(3)]
    i = next(r for r in range(3) if ell[r])
    li, col = ell[i], np.array([row[i] for row in matrix], dtype=object)
    qm, e = powers[m - 2], 2 * m - 4  # q^(m-2)
    u = -2 * li * li * det * _times(line, 1, g, e) + c * det * li * _times(qm, e, col, 1)
    v = -c * det * _times(qm, e, 2 * li * q + _times(line, 1, col, 1), 2)
    w = 4 * li * li * fv_qg + c * _times(qm, e, _times(col, 1, col, 1), 2)
    theta = _times(np.eye(3, dtype=object), 1, u, e + 1) + np.outer(p, w)
    theta[i] += v
    return theta // gcd(*theta.flat)


# A relation of degree e: its integer coefficient vector in the column layout
# of syzygy_matrix(ctx, e).
Relation = tuple[int, "np.ndarray"]

MAX_WINDOW_EXTEND = 10  # extra window degrees; each one grows the window's matrices

_WEIGHED_ROWS = 2**16  # rows of relation multiples per int64 product in _relations_mod_p


def _relation_multiples(
    relations: Sequence[Relation], s: int, free_of_x: bool = False
) -> np.ndarray:
    """Every relation times every monomial of degree s - e, one row each, or
    times the monomials free of x only (the last s - e + 1 of that degree).

    The rows are in the column layout of syzygy_matrix(ctx, s), with the
    dtype of the relation vectors; relations of degree above s give none.
    """
    n = degree_dimension(s)
    blocks = [np.zeros((0, 3 * n), dtype=np.int64)]
    for e, vec in relations:
        if e > s:
            continue
        positions = _product_positions(s - e, e)[-(s - e + 1) if free_of_x else 0 :]
        nz = np.flatnonzero(vec)
        comp, j = np.divmod(nz, degree_dimension(e))
        block = np.zeros((len(positions), 3 * n), dtype=vec.dtype)
        block[np.arange(len(positions))[:, None], comp * n + positions[:, j]] = vec[nz]
        blocks.append(block)
    return np.concatenate(blocks)


def _residues(relations: Sequence[Relation]) -> list[Relation]:
    """The relations with their vectors reduced mod p, as int64."""
    return [(e, residues_mod(vec)) for e, vec in relations]


def _image_mod_p(ctx: JacobianContext, t: int, vec: np.ndarray) -> np.ndarray:
    """A_t @ vec mod p (A_t = syzygy_matrix(ctx, t)) with no A_t built, as
    int64 in the order of monomials_of_degree(t+d-1).

    vec holds residues in [0, p) in the column layout of A_t, so the image
    is the sum over c of vec_c times the gradient's row c: the term of the
    degree-t monomial j and the degree-(d-1) monomial g, reduced mod p, is
    added at _product_positions(t, d-1)[j, g].  g fixes j, so at most
    3 dim S_{d-1} terms below 2^31 land on one monomial, at most 900 under
    poly.MAX_DEGREE = 24; every int64 sum stays below 2^41, at any height.
    """
    terms = vec.reshape(3, -1, 1) * residues_mod(ctx.gradient)[:, None, :] % BOUND_PRIME
    out = np.zeros(degree_dimension(t + ctx.d - 1), dtype=np.int64)
    np.add.at(out, _product_positions(t, ctx.d - 1), terms.sum(axis=0))
    return out % BOUND_PRIME


def _relations_mod_p(ctx: JacobianContext, t: int, rows: np.ndarray) -> bool:
    """Whether one fixed pseudo-random combination of rows is a relation mod p.

    The rows are relation multiples in the column layout of
    syzygy_matrix(ctx, t), residues mod p, int64 in [0, p), as
    _relation_multiples makes them from _residues.  A row that is not a
    relation mod p (a construction fault) leaves the image of the
    combination (_image_mod_p) nonzero unless the combination happens to
    cancel it.  The weights, in [1, 2^16), are the top 16 bits of the Weyl
    sequence i * 0x9E3779B9 mod 2^32, reduced mod 2^16 - 1, plus 1.  The
    combination is one int64 product per _WEIGHED_ROWS rows, exact since
    2^16 terms below 2^16 (p - 1) sum to less than 2^63.
    """
    if not len(rows):
        return True
    weights = (np.arange(1, len(rows) + 1) * 0x9E3779B9 % 2**32 >> 16) % (2**16 - 1) + 1
    combo = sum(
        weights[i : i + _WEIGHED_ROWS] @ rows[i : i + _WEIGHED_ROWS] % BOUND_PRIME
        for i in range(0, len(rows), _WEIGHED_ROWS)
    )
    return not _image_mod_p(ctx, t, combo % BOUND_PRIME).any()


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
    order = _grevlex_order(t, rows.shape[1])
    return np.sort(order[list(pivot_columns_mod(rows[:, order]))])


@cache
def _grevlex_order(t: int, width: int) -> np.ndarray:
    """The columns of width / dim S_t blocks of degree-t monomials (the
    layout of _leading_terms) in descending module order, read-only."""
    monos = _monomial_array(t)
    grevlex = np.lexsort((monos[:, 1], monos[:, 2]))
    order = np.arange(width).reshape(-1, len(monos))[:, grevlex].ravel()
    order.flags.writeable = False
    return order


def _leading_multiples(terms: np.ndarray, e: int, s: int) -> np.ndarray:
    """S_{s-e} times degree-e leading terms of _leading_terms, as sorted
    column positions in the same layout in degree s.

    Under position over grevlex a monomial times a leading term is the
    leading term of the product.  So for the leading terms of a span V mod
    p these are leading terms of S_{s-e} V mod p, and their count is a
    lower bound for its rank mod p.
    """
    comp, j = np.divmod(terms, degree_dimension(e))
    # at most three components, so the positions lie below 3 * dim S_s
    hit = np.zeros(3 * degree_dimension(s), dtype=bool)
    hit[comp[:, None] * degree_dimension(s) + _product_positions(e, s - e)[j]] = True
    return np.flatnonzero(hit)


def _certified_rank(
    ctx: JacobianContext,
    s: int,
    matrix: Callable[[], RatMatrix],
    residues: Sequence[Relation],
    rungs: dict[int, np.ndarray],
) -> int | None:
    """rank A_s (= syzygy_matrix(ctx, s)) when two bounds meet, else None.

    Both bounds count _leading_multiples of recorded _leading_terms, against
    cols = 3 dim S_s.  The lower one multiplies the leading monomials of J
    recorded in the highest degree e <= s (ctx.leading): J is generated in
    degree d-1, so J_{s+d-1} = S_{s-e} J_{e+d-1}, and the count is at most
    rank_p(A_s).  The rows of F_s, the multiples of residues, are relations
    (mod p), so rank_p(A_s) <= rank <= cols - rank_p(F_s) over the
    rationals: a nonzero minor mod p is nonzero over Q, and relations
    independent mod p are independent kernel vectors.  rank_p(F_s) is
    bounded from below on the ladder of rungs t = min(s, d-1) .. s (module
    docstring), whose leading terms rungs records by t; each rung F_t not
    yet recorded is built from residues, checked by _relations_mod_p and
    eliminated.  In the walk (s <= d-2) the only rung is t = s.
    A_s, which matrix() gives, is eliminated only when the last rung falls
    short and its leading monomials are not yet recorded; they then serve
    the degrees above.  A sum above cols can only come from a row that is
    not a relation, and raises; so does a rung that _relations_mod_p
    catches.
    """
    shift, cols = ctx.d - 1, 3 * degree_dimension(s)
    e = max((r for r in ctx.leading if r <= s), default=None)
    lower = 0 if e is None else len(_leading_multiples(ctx.leading[e], e + shift, s + shift))
    spanned = 0
    for t in range(min(s, shift), s + 1):
        if lower + spanned >= cols:
            break
        if t not in rungs:
            rows = _relation_multiples(residues, t)
            if not _relations_mod_p(ctx, t, rows):
                raise AssertionError("some row of the relation multiples is not a relation mod p")
            rungs[t] = _leading_terms(rows, t)
        spanned = len(_leading_multiples(rungs[t], t, s))
    if lower + spanned < cols and e != s:
        ctx.leading[s] = _leading_terms(matrix().array.T, s + shift)
        lower = len(ctx.leading[s])
    if lower + spanned > cols:
        raise AssertionError(
            f"{lower} leading monomials mod p and {spanned} independent relations "
            f"exceed {cols} columns: some row is not a relation"
        )
    return lower if lower + spanned == cols else None


def _candidates(
    ctx: JacobianContext, e: int, matrix: RatMatrix | None = None
) -> tuple[Relation, ...]:
    """The pool's candidate relations of degree e (ctx.families[e]), primitive.

    On the first call for a curve their family is built, zero rows are left
    out, and the rest are checked exactly against matrix = A_e (built here
    where not given) as one array product (linalg._kills), and kept in
    ctx.pool; a row that is no relation raises.
    """
    if e not in ctx.pool:
        rows = ctx.families[e]()
        rows = rows[(rows != 0).any(axis=1)]
        if not _kills(_SparseRows((matrix or syzygy_matrix(ctx, e)).array), rows.T):
            family = "Koszul" if e == ctx.d - 1 else "pencil"
            raise AssertionError(f"a {family} relation failed exact re-verification")
        ctx.pool[e] = tuple((e, row // gcd(*row)) for row in rows)
    return ctx.pool[e]


def _x_free_minor(found: Sequence[Relation], joined: Sequence[Relation], top: int) -> bool:
    """Whether the multiples of found (of degrees <= e < top-1, or none and
    e = -1) span every relation of the degrees e+1 .. top-1, given that
    with joined they span the relations of degree top (module docstring).
    The rows are the multiples of found by the monomials of degree top
    free of x, and joined; their entries at the monomials free of x must
    have rank len(rows) mod p, so over Q; then so have the rows of each
    lower degree.
    """
    rows = _relation_multiples(_residues(found), top, free_of_x=True)
    if joined:
        rows = np.concatenate([rows, residues_mod(np.array([v for _, v in joined]))])
    n = degree_dimension(top)  # the monomials free of x are the last top + 1
    columns = (np.arange(3)[:, None] * n + np.arange(n - top - 1, n)).ravel()
    return len(pivot_columns_mod(rows[:, columns])) == len(rows)


def _joining(e: int, known: np.ndarray, vectors: Sequence, cols: int) -> list[Relation]:
    """The vectors, relations of degree e, outside the span of known mod p:
    the greedy mod-p column basis of known followed by the vectors."""
    vectors = np.array(vectors, dtype=object).reshape(-1, cols)
    basis = pivot_columns_mod(np.concatenate([known, vectors]).T)
    return [(e, vectors[i - len(known)]) for i in basis if i >= len(known)]


def relation_generators(ctx: JacobianContext) -> tuple[Relation, ...]:
    """Exact relations whose monomial multiples span every relation of degree <= d-2.

    The one relation walk of a curve, memoised in ctx.generators.  It
    climbs the degrees e = 0 .. d-2, where every kernel vector is a
    relation that is not a Koszul one.  Each step bounds the rank of A_e
    once (_certified_rank, which records the leading monomials of A_e
    wherever it eliminates it), with the multiples of the relations found
    so far and the pool's candidates of degree e together.  Where that
    closes with no candidate, the multiples span the kernel (below the
    first relation, a certified full rank) and none joins.  Where it closes
    with candidates, they span it with the multiples: above d1 the
    candidates, exact relations checked by _candidates, are the vectors
    offered; at d1, where no generator precedes,
    linalg.kernel_basis_from_span puts their span in standard form.
    Where the bound stays open, or that form fails its support test, the
    kernel is lifted.  The standard form and the lift give the basis
    linalg.kernel_basis returns, every vector verified exactly.  The
    vectors offered outside the span of the multiples mod p join
    (_joining).

    Before the climb, and wherever generators have just joined at a degree
    e < d-3, the walk tries the top step and the descent (module
    docstring): the step at d-2 with no lift, then one x-free minor there
    (_x_free_minor).  Where both pass, the vectors joined at d-2 are the
    last generators.  Otherwise the climb goes on at e+1, and where no
    generator joined since, its step at d-2 reads the top step's vectors,
    or lifts where the top step had none.  The first generator is (d1, the
    first vector of the certified kernel of A_d1): nothing precedes it,
    and a primitive vector is nonzero mod p.  Above d1 a generator is a
    pool row where the bound closed with candidates, else a lifted one.

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
    top, found = ctx.d - 2, []
    top_matrix = syzygy_matrix(ctx, top)
    # the steps at d-2, by the count of generators found: found only grows
    # and a degree's candidates are fixed, so the count names the step
    tops: dict[int, list[Relation] | None] = {}

    def step(e: int, lift: bool) -> list[Relation] | None:
        """The relations of degree e that join found; none where the bound
        closes with no candidate of the pool; None where neither the bound
        nor a lift, which lift allows, gives the kernel."""
        tried = e == top and len(found) in tops
        if tried and tops[len(found)] is not None:
            return tops[len(found)]
        matrix = top_matrix if e == top else syzygy_matrix(ctx, e)
        candidates = list(_candidates(ctx, e, matrix)) if e in ctx.families else []
        residues = _residues(found + candidates)
        rank = None if tried else _certified_rank(ctx, e, lambda: matrix, residues, {})
        vectors = None
        if rank is not None:
            if not candidates:
                return []
            vectors = [v for _, v in candidates]
            if not found:  # d1: the witness is the standard form's first vector
                kernel = linalg.kernel_basis_from_span(matrix, np.array(vectors), matrix.cols - rank)
                vectors = None if kernel is None else kernel.vectors
        if vectors is None and lift:
            vectors = linalg.kernel_basis_certified(matrix).vectors
        joined = None
        if vectors is not None:
            known = _relation_multiples(residues[: len(found)], e)
            joined = _joining(e, known, vectors, matrix.cols)
        if e == top:
            tops[len(found)] = joined
        return joined

    joined: list[Relation] | None = None
    for e in range(-1, top + 1):
        if e >= 0:
            joined = step(e, lift=True)
            found.extend(joined)
        if e < top - 1 and (e < 0 or joined):
            joined = step(top, lift=False)
            if joined is not None and _x_free_minor(found, joined, top):
                found.extend(joined)
                break
    object.__setattr__(ctx, "generators", tuple(found))
    return ctx.generators


def _syzygy_ranks(ctx: JacobianContext, degrees: list[int]) -> list[int]:
    """rank syzygy_matrix(ctx, s) for each s in degrees, 0 for s < 0.

    Each rank is certified two-sided (_certified_rank): below by the multiples
    of the leading monomials recorded by relation_generators, the curve's
    one relation walk; above by the multiples of its generators, which span
    every relation of degree <= d-2, and of the pool's candidates of the
    degrees above d-2 that the window reaches (the Koszul relations at
    d-1), with one ladder of rungs for all the degrees, each rung built,
    checked mod p and eliminated once.  Neither A_s nor F_s is built where
    a lower rung closes the bounds.  No kernel is lifted at degree s; where
    the bounds do not meet, the rank comes from the lifted-kernel
    certificate of linalg.rank_certified, on the A_s the bounds built.
    """
    pool = (r for e in ctx.families if ctx.d - 2 < e <= max(degrees) for r in _candidates(ctx, e))
    residues = _residues([*relation_generators(ctx), *pool])
    rungs: dict[int, np.ndarray] = {}

    def rank(s: int) -> int:
        matrix = cache(lambda: syzygy_matrix(ctx, s))
        certified = _certified_rank(ctx, s, matrix, residues, rungs)
        return linalg.rank_certified(matrix()) if certified is None else certified

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


def mdr(ctx: JacobianContext) -> SyzygyWitness:
    """Minimal degree d1 of a gradient relation, with a canonical witness.

    The witness is the first vector of the first nonzero kernel in degrees
    0 .. d-2, where every kernel vector is a relation: the first of
    relation_generators.  When the walk certifies that there is none, d1 is
    d-1: the Koszul relations have degree d-1, and one of them is nonzero
    since its entries are partials.  The witness is then the first of
    ctx.koszul.  Either way it is re-verified by exact expansion.
    """
    generators = relation_generators(ctx)
    witness = _vector_to_witness(*(generators[0] if generators else ctx.koszul[0]))
    if not verify_witness(ctx, witness):
        raise AssertionError(f"kernel vector failed exact re-verification in degree {witness.r}")
    return witness


def verify_witness(ctx: JacobianContext, witness: SyzygyWitness) -> bool:
    """Exact expansion check of a*f_x + b*f_y + c*f_z = 0, with a, b, c of degree r.

    A nonzero component of another degree fails.  Expanded over the
    integers: the witness and the partials (ctx.gradient) are each scaled
    by one positive common denominator, which keeps a zero sum zero and a
    nonzero one nonzero.  Each product monomial x^i y^j z^k of degree
    D = r+d-1 is indexed by its exponents, at i*(D+1) + j, independently of
    the layout of syzygy_matrix.
    """
    if any(g.degree != witness.r and not g.is_zero() for g in witness.triple()):
        return False
    den = lcm(*(c.denominator for g in witness.triple() for c in g.terms.values()))
    D = witness.r + ctx.d - 1
    total = np.zeros((D + 1) ** 2, dtype=object)
    for g, derivative, nz in zip(witness.triple(), ctx.gradient, ctx.support):
        if not g.terms:
            continue
        coeffs = [c.numerator * (den // c.denominator) for c in g.terms.values()]
        exponents = np.array(list(g.terms))[:, None, :] + _monomial_array(ctx.d - 1)[nz]
        index = exponents[..., 0] * (D + 1) + exponents[..., 1]
        np.add.at(total, index, np.array(coeffs, dtype=object)[:, None] * derivative[nz])
    return not total.any()
