"""Rational singular points of conic arrangements.

Locates the rational intersection points of every pair of components by
resultant elimination with rational-root extraction, measures local
intersection multiplicities twice (resultant root order, and the tangents
with branch jets where the tangents agree; the two must agree), and
classifies each singular point by its branch data:
two-branch tangencies of order m give the A-series point A_{2m-1}, ordinary
points give the triple point or ordinary r-fold types, and everything else
is reported as a raw descriptor with its branch-count Milnor number.

Only rational points are located; intersections that live in a proper
extension field of the rationals are accounted for in per-pair residuals so
the survey can say exactly how much of each pair's intersection budget
(four, by Bezout) it has explained.  Whether those unlocated points are
transversal is a property of the pair, not of a projection: the
determinant cubic of the pair's pencil counts the distinct common points
over C, and the unlocated ones are transversal exactly when they number as
many as the residual.

A survey locates each point once and scans each pencil once: every pair is
keyed by the pencil it spans (poly.pencil_key), the first pair of a pencil
is scanned, and every later pair of it takes that scan, as two members of
one pencil generate one ideal; its own tangents and jets must give the same
multiplicities, and its resultant is the scanned one times a nonzero
square.  A scanned pair takes one projection: its resultant is divided
exactly by the fiber forms of the points already located on both conics,
each raised to that point's jet multiplicity, and only the quotient is
searched for rational roots, so the resultant and the jets still measure
every multiplicity twice and must agree.  A pair fully explained by located
points leaves a nonzero constant, and no root search at all.

A conic is defined up to scale, and every survey output is invariant under
scaling one component.  So the survey works on content-free integer conics,
each component's ``ConicForm.integer``, computed once per form and cached on
it: shears, resultants, rational fibers as coprime integer pairs, fiber
points, root finding and jets are all integer arithmetic, and the tangents
and jets of a survey are keyed by the integer conic and the point.  Fraction
appears only in the returned roots and in the jet coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt

from conicfree.linalg import _is_probable_prime, _primitive, _rat_reconstruct
from conicfree.poly import (
    ConicForm,
    HomogeneousPolynomial,
    ProjectivePoint,
    conic_is_smooth,
    expand_product,
    pencil_key,
    rank_one_member,
)


class NotSingularError(ValueError):
    """Fewer than two components pass through the point."""


@dataclass(frozen=True)
class SingType:
    """Local singularity type in the vocabulary this tool recognizes."""

    family: str  # "A", "D", "ordinary" or "descriptor"
    index: int | None = None

    @classmethod
    def A(cls, k: int) -> "SingType":
        return cls("A", k)

    @classmethod
    def D(cls, k: int) -> "SingType":
        return cls("D", k)

    @classmethod
    def ordinary(cls, r: int) -> "SingType":
        return cls("ordinary", r)

    @classmethod
    def descriptor(cls) -> "SingType":
        return cls("descriptor", None)

    def __str__(self) -> str:
        if self.family in ("A", "D"):
            return f"{self.family}{self.index}"
        if self.family == "ordinary":
            return f"ordinary({self.index})"
        return "descriptor"


@dataclass(frozen=True)
class ConicArrangement:
    """k >= 2 pairwise distinct smooth conics."""

    components: tuple[ConicForm, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ValueError("an arrangement needs at least 2 conics")
        for i, q in enumerate(self.components):
            if not conic_is_smooth(q):
                raise ValueError(f"component {i} is not a smooth conic: {q}")
        for i, j in combinations(range(len(self.components)), 2):
            if self.components[i].is_proportional_to(self.components[j]):
                raise ValueError(f"components {i} and {j} coincide")

    @classmethod
    def from_texts(cls, texts: list[str]) -> "ConicArrangement":
        return cls(tuple(ConicForm.parse(t) for t in texts))

    @property
    def k(self) -> int:
        return len(self.components)

    @cached_property
    def product(self) -> HomogeneousPolynomial:
        """The product of the components, expanded on first use only."""
        return expand_product(q.polynomial() for q in self.components)

    def polynomial(self) -> HomogeneousPolynomial:
        return self.product


@dataclass(frozen=True)
class BranchJet:
    """Fourth-order graph of a smooth conic branch at a rational point.

    In the chart carrying the point, after an axis swap (when needed) and a
    rational shear aligning the tangent with the first axis, the branch is
    the graph v = c2*u^2 + c3*u^3 + c4*u^4 + O(u^5).
    """

    center: ProjectivePoint
    chart: int
    swapped: bool
    shear: Fraction
    tangent: tuple[int, int]  # affine tangent line (a10, a01), coprime, canonical sign
    c2: Fraction
    c3: Fraction
    c4: Fraction


@dataclass(frozen=True)
class SingularPointRecord:
    point: ProjectivePoint
    members: tuple[int, ...]
    pair_mults: dict[tuple[int, int], int]
    branch_count: int
    sing_type: SingType
    mu: int
    tau: int | None

    def mult(self, i: int, j: int) -> int:
        return self.pair_mults.get((min(i, j), max(i, j)), 0)


@dataclass(frozen=True)
class PairIntersections:
    points: tuple[tuple[ProjectivePoint, int], ...]
    residual: int
    # True when every unlocated intersection point meets this pair
    # transversally (each carries multiplicity one).
    residual_transversal: bool = True


@dataclass(frozen=True)
class LocusSurvey:
    arrangement: ConicArrangement
    records: tuple[SingularPointRecord, ...]
    residual_per_pair: dict[tuple[int, int], int]
    complete: bool
    assume_qh: bool
    # every pair's unlocated intersections certified transversal
    residual_transversal: bool = True

    def inventory(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.records:
            key = str(rec.sing_type)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def local_tau_total(self) -> int | None:
        """Sum of local Tjurina numbers, or None when any is unknown."""
        total = 0
        for rec in self.records:
            if rec.tau is None:
                return None
            total += rec.tau
        return total


# ---------------------------------------------------------------------------
# Integer conics

# A conic as six content-free integers (xx, yy, zz, xy, xz, yz): the
# ConicForm.integer of a component.  Every survey output is invariant under
# scaling one component: points, multiplicities, residuals, and the jet
# fields, which are all ratios.
IntConic = tuple[int, int, int, int, int, int]


def _evaluate(q: IntConic, x: int, y: int, z: int) -> int:
    xx, yy, zz, xy, xz, yz = q
    return (xx * x + xy * y + xz * z) * x + (yy * y + yz * z) * y + zz * z * z


# ---------------------------------------------------------------------------
# Branch jets


def _affine_conic_coefficients(
    q: IntConic, p: ProjectivePoint
) -> tuple[int, int, tuple[int, int, int, int, int, int]]:
    """Chart, chart scale and integer local equation of q at p.

    The chart is the one :func:`dehomogenize` uses: the last nonzero
    coordinate s of the integer point (positive) is scaled to 1 and the
    point c = point/s moved to the origin.  With i < j the other two
    indices, the local equation g(u, v) = q(c + u*e_i + v*e_j) satisfies
    s^2 * g(u, v) = G(s*u, s*v) for the integer form
    G(U, V) = q(point + U*e_i + V*e_j), returned as
    (G00, G10, G01, G20, G11, G02): G00 = q(point), the linear terms are
    the partials of q at the point, the quadratic terms are q's own.
    """
    coords = p.coords()
    chart = 2 if coords[2] else (1 if coords[1] else 0)
    i, j = (k for k in range(3) if k != chart)
    xx, yy, zz, xy, xz, yz = q
    # coefficient of X_a * X_b in q; the diagonal holds the squares
    m = ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))
    x, y, z = coords

    def partial(a: int) -> int:
        return m[a][0] * x + m[a][1] * y + m[a][2] * z + m[a][a] * coords[a]

    return chart, coords[chart], (
        _evaluate(q, x, y, z),
        partial(i),
        partial(j),
        m[i][i],
        m[i][j],
        m[j][j],
    )


def _checked_tangent(
    q: ConicForm, point: ProjectivePoint, a00: int, t10: int, t01: int
) -> tuple[int, int]:
    """The affine tangent line t10*u + t01*v = 0 of q at point, as coprime
    integers whose last nonzero one is positive.

    (t10, t01) are the linear terms of the local equation of
    :func:`_affine_conic_coefficients` and a00 is a nonzero multiple of its
    constant term q(point); a point off q (a00 != 0) or a singular point of
    q raises ValueError.
    """
    if a00 != 0:
        raise ValueError(f"point {point} does not lie on the conic {q}")
    if t10 == 0 and t01 == 0:
        raise ValueError(f"conic is singular at {point}")
    g = gcd(t10, t01)
    if t01 < 0 or (t01 == 0 and t10 < 0):
        g = -g
    return t10 // g, t01 // g


def _tangent(q: ConicForm, point: ProjectivePoint) -> tuple[int, int]:
    """The tangent of q at point, as :attr:`BranchJet.tangent` holds it.

    Read from the gradient g of the integer conic at the point alone: the
    linear terms of :func:`_affine_conic_coefficients` are g's entries off
    the chart's axis, and point . g = 2*q(point) by Euler's identity, so
    the local equation is left to :func:`branch_jet`, which needs it only
    where two tangents agree.
    """
    x, y, z = point.coords()
    xx, yy, zz, xy, xz, yz = q.integer
    gx = 2 * xx * x + xy * y + xz * z
    gy = xy * x + 2 * yy * y + yz * z
    gz = xz * x + yz * y + 2 * zz * z
    t10, t01 = (gx, gy) if z else ((gx, gz) if y else (gy, gz))
    return _checked_tangent(q, point, x * gx + y * gy + z * gz, t10, t01)


def branch_jet(q: ConicForm, p: ProjectivePoint | tuple) -> BranchJet:
    """Fourth-order jet of the conic at a rational point on it.

    The frame (chart, optional axis swap, rational shear) depends only on the
    point and the tangent direction, so conics sharing a tangent at p get
    jets in the same frame and their coefficients compare directly.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    chart, s, (a00, t10, t01, a20, a11, a02) = _affine_conic_coefficients(
        q.integer, point
    )
    tangent = _checked_tangent(q, point, a00, t10, t01)
    swapped = t01 == 0
    a10, a01 = t10, t01
    if swapped:
        a10, a01, a20, a02 = a01, a10, a02, a20
    # In (U, V) = (s*u, s*v) the branch is V = sum_k (c_k / s^(k-1)) U^k.
    # The shear V -> V - (a10/a01)*U kills the linear U coefficient; b20 and
    # b11 are its U^2 and U*V coefficients times a01^2 and a01.
    b20 = (a20 * a01 - a11 * a10) * a01 + a02 * a10 * a10
    b11 = a11 * a01 - 2 * a02 * a10
    return BranchJet(
        center=point,
        chart=chart,
        swapped=swapped,
        shear=Fraction(a10, a01),
        tangent=tangent,
        c2=Fraction(-b20 * s, a01**3),
        c3=Fraction(b11 * b20 * s * s, a01**5),
        c4=Fraction(-b20 * (b11 * b11 + a02 * b20) * s**3, a01**7),
    )


class JetTable(dict):
    """The jets of one survey, keyed by (integer conic, point), and beside
    them in ``tangents`` the tangent lines, keyed alike.

    A plain dict serves as a jet table too; the tangents are then computed
    afresh on each call.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tangents: dict[tuple[IntConic, ProjectivePoint], tuple[int, int]] = {}


def _tabled(table: dict | None, build, q: ConicForm, point: ProjectivePoint):
    """build(q, point), taken from (and added to) table under (q.integer,
    point) when a table is given."""
    if table is None:
        return build(q, point)
    key = (q.integer, point)
    value = table.get(key)
    if value is None:
        value = table[key] = build(q, point)
    return value


def local_intersection_multiplicity(
    qi: ConicForm,
    qj: ConicForm,
    p: ProjectivePoint | tuple,
    *,
    jets: dict | None = None,
) -> int:
    """Intersection multiplicity of two smooth conics at a common rational point.

    1 for distinct tangents, read from the tangents alone; otherwise the
    vanishing order of the difference of the two branch jets (2, 3 or 4;
    order 5 would force the conics to coincide), so a jet is built only
    where the tangents agree.  Jets are taken from (and added to) ``jets``
    when a table is given, and tangents from (and to) its ``tangents`` when
    it is a :class:`JetTable`.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    tangents = getattr(jets, "tangents", None)
    if _tabled(tangents, _tangent, qi, point) != _tabled(tangents, _tangent, qj, point):
        return 1
    ji = _tabled(jets, branch_jet, qi, point)
    jj = _tabled(jets, branch_jet, qj, point)
    if ji.c2 != jj.c2:
        return 2
    if ji.c3 != jj.c3:
        return 3
    if ji.c4 != jj.c4:
        return 4
    raise ValueError(
        f"conics agree to order 4 at {point}; are the components proportional?"
    )


# ---------------------------------------------------------------------------
# Pairwise rational intersections via resultants


def _shear_conic(q: IntConic, a: int, b: int) -> IntConic:
    """Coordinates x = X, y = Y + aX, z = Z + bX applied to the form.

    The substitution is unimodular, so the result stays content-free.
    """
    xx, yy, zz, xy, xz, yz = q
    return (
        _evaluate(q, 1, a, b),
        yy,
        zz,
        2 * yy * a + xy + yz * b,
        2 * zz * b + xz + yz * a,
        yz,
    )


def _mul_forms(f: tuple, g: tuple) -> list:
    """Product of binary forms listed by ascending power of y."""
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _resultant_in_x(q1: IntConic, q2: IntConic) -> list[int]:
    """Resultant of two conics with respect to x, a binary quartic in (y, z).

    Each conic is split as q = A*x^2 + B(y,z)*x + C(y,z), with B = (z, y)
    and C = (z^2, y*z, y^2) coefficients.  Bezoutian form for two
    quadratics: (A1*C2 - A2*C1)^2 - (A1*B2 - A2*B1)*(B1*C2 - B2*C1).  Entry
    j is the coefficient of y^j * z^(4-j).
    """
    A1, yy1, zz1, xy1, xz1, yz1 = q1
    A2, yy2, zz2, xy2, xz2, yz2 = q2
    B1, C1 = (xz1, xy1), (zz1, yz1, yy1)
    B2, C2 = (xz2, xy2), (zz2, yz2, yy2)
    ac = [A1 * c2 - A2 * c1 for c1, c2 in zip(C1, C2)]
    ab = [A1 * b2 - A2 * b1 for b1, b2 in zip(B1, B2)]
    bc = [u - v for u, v in zip(_mul_forms(B1, C2), _mul_forms(B2, C1))]
    return [u - v for u, v in zip(_mul_forms(ac, ac), _mul_forms(ab, bc))]


def _eval_mod(cs: list[int], t: int, m: int) -> int:
    total = 0
    for c in reversed(cs):
        total = (total * t + c) % m
    return total


def _padic_rational_roots(g: tuple[int, ...]) -> list[Fraction]:
    """Rational roots of a squarefree integer polynomial with g(0) != 0.

    A root n/d in lowest terms has |n| <= |g(0)| and d <= |lc(g)|, so d is
    a unit modulo any prime p not dividing lc(g), and n/d reduces to a root
    of g mod p.  Take the smallest such p at which every root of g mod p is
    simple (every p not dividing lc(g) * disc(g) qualifies): each root mod p
    then has exactly one p-adic lift, reached by Newton steps.  Lifting past
    p^k > 2*|g(0)|*|lc(g)| makes rational reconstruction unique, and every
    reconstructed candidate is checked exactly.
    """
    degree = len(g) - 1
    if degree < 1:
        return []
    num_bound, den_bound = abs(g[0]), abs(g[-1])
    bound = 2 * num_bound * den_bound
    deriv = [i * c for i, c in enumerate(g)][1:]
    for p in filter(_is_probable_prime, count(2)):
        if g[-1] % p == 0:
            continue
        residues = [r for r in range(p) if _eval_mod(g, r, p) == 0]
        if all(_eval_mod(deriv, r, p) for r in residues):
            break
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m = m * m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        rec = _rat_reconstruct(r, m, num_bound, den_bound)
        if rec is None:
            continue
        n, d = rec
        if _eval_homogeneous(g, n, d) == 0:
            roots.append(Fraction(n, d))
    return sorted(roots)


def _eval_homogeneous(cs: list[int], n: int, d: int) -> int:
    """d^deg * f(n/d) = sum(cs[i] * n^i * d^(deg-i)), which is zero exactly
    when n/d is a root (d != 0); at (n, d) = (1, 0) it is cs[-1]."""
    total, d_power = 0, 1
    for c in reversed(cs):
        total = total * n + c * d_power
        d_power *= d
    return total


def _deflate(cs: list[int], n: int, d: int) -> list[int]:
    """cs / (d*t - n) for a root n/d in lowest terms, d > 0.

    The divisor is primitive, so by Gauss's lemma the quotient has integer
    coefficients and every step divides exactly.
    """
    out = [0] * (len(cs) - 1)
    carry = 0
    for i in range(len(cs) - 1, 0, -1):
        carry = (cs[i] + n * carry) // d
        out[i - 1] = carry
    return out


def _rational_roots(coeffs: list[int]) -> tuple[list[tuple[Fraction, int]], list[int]]:
    """Rational roots with multiplicities of sum(coeffs[i] * t^i).

    Also returns the deflated polynomial left after dividing the rational
    roots out (the part whose roots are all irrational).  The roots are
    found p-adically on the squarefree part; their multiplicities come from
    exact deflation of the whole polynomial.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no well-defined root set")
    roots: list[tuple[Fraction, int]] = []
    zero_mult = 0
    while cs[0] == 0:
        zero_mult += 1
        cs = cs[1:]
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    for cand in _padic_rational_roots(_squarefree_part(cs)):
        n, d = cand.numerator, cand.denominator
        mult = 0
        while len(cs) > 1 and _eval_homogeneous(cs, n, d) == 0:
            cs = _deflate(cs, n, d)
            mult += 1
        roots.append((cand, mult))
    return roots, cs


def _poly_gcd(f: list[int], g: list[int]) -> tuple[int, ...]:
    """Primitive gcd of integer polynomials (low-to-high, no trailing zeros,
    f nonzero), by primitive pseudo-remainder sequences."""
    a, b = _primitive(f), (_primitive(g) if g else [])
    while b:
        lead = b[-1]
        while len(a) >= len(b):
            top, shift = a[-1], len(a) - len(b)
            a = [c * lead for c in a]
            for i, c in enumerate(b):
                a[shift + i] -= top * c
            while a and a[-1] == 0:
                a.pop()
        a, b = b, (_primitive(a) if a else [])
    return a


def _squarefree_part(cs: list[int]) -> tuple[int, ...]:
    """cs / gcd(cs, cs') as a primitive integer polynomial."""
    g = _poly_gcd(cs, [i * c for i, c in enumerate(cs)][1:])
    # exact long division cs / g over the integers (g is primitive, so the
    # quotient is integral by Gauss's lemma), highest coefficient first
    f = list(cs)
    quotient = [0] * (len(f) - len(g) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = f[k + len(g) - 1] // g[-1]
        for i, c in enumerate(g):
            f[k + i] -= quotient[k] * c
    return _primitive(quotient)


def _binary_form_fibers(res: list[int]) -> list[tuple[tuple[int, int], int]]:
    """Rational roots (y0:z0) of a nonzero binary form, with multiplicities.

    ``res[j]`` is the integer coefficient of y^j * z^(n-j), n = len(res) - 1.
    Each fiber is a coprime integer pair.  A form c*z^n has no finite fiber
    to search.
    """
    if not any(res):
        raise ValueError("identically zero resultant (components share a factor?)")
    # multiplicity of the fiber (1:0) equals the power of z dividing the form
    top = max(j for j, v in enumerate(res) if v)
    fibers: list[tuple[tuple[int, int], int]] = []
    if top < len(res) - 1:
        fibers.append(((1, 0), len(res) - 1 - top))
    if top == 0:
        return fibers
    # finite fibers (t:1) from the dehomogenization in t = y
    roots, _ = _rational_roots(res[: top + 1])
    for root, mult in roots:
        fibers.append(((root.numerator, root.denominator), mult))
    return fibers


def _fiber_points(
    ti: IntConic, tj: IntConic, y0: int, z0: int
) -> list[tuple[int, int, int]] | None:
    """Common points of the two sheared conics on the fiber (y0 : z0).

    Returns integer triples in the sheared coordinates, or None when the
    common points are irrational (a conjugate pair).  On the fiber each
    conic restricts to a quadratic in x whose leading coefficient is the
    conic's xx, nonzero because the shear keeps (1:0:0) off both conics.
    """

    def restrict(q: IntConic) -> tuple[int, int, int]:
        xx, yy, zz, xy, xz, yz = q
        return xx, xy * y0 + xz * z0, (yy * y0 + yz * z0) * y0 + zz * z0 * z0

    # p = a2*x^2 + a1*x + a0 and q = b2*x^2 + b1*x + b0 restrict ti and tj
    a2, a1, a0 = restrict(ti)
    b2, b1, b0 = restrict(tj)
    # r = b2*p - a2*q vanishes at every common root and has degree <= 1
    r1, r0 = b2 * a1 - a2 * b1, b2 * a0 - a2 * b0
    if r1:
        # the one candidate root x = -r0/r1; where p and r vanish, so does
        # a2*q and hence q
        if (a2 * r0 - a1 * r1) * r0 + a0 * r1 * r1 != 0:
            raise AssertionError("resultant fiber without a common root")
        return [(-r0, r1 * y0, r1 * z0)]
    if r0:
        raise AssertionError("resultant fiber without a common root")
    # r = 0: p and q are proportional, and their common roots are p's
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return None
    root = isqrt(disc)
    den_y, den_z = 2 * a2 * y0, 2 * a2 * z0
    if root == 0:
        return [(-a1, den_y, den_z)]
    return [(-a1 + root, den_y, den_z), (-a1 - root, den_y, den_z)]


_SHEAR_GRID = sorted(
    ((a, b) for a in range(-2, 5) for b in range(-2, 5)),
    key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab),
)


def _distinct_common_points(qi: ConicForm, qj: ConicForm) -> int:
    """How many distinct points two smooth, distinct conics share over C.

    The Segre symbol of the pencil A + t*B of the conics' symmetric matrices
    fixes their intersection pattern, and c(t) = det(A + t*B) reads it off.
    Four points when c has no multiple root (c has degree 3, as det B !=
    0).  A cubic over Q has at most one multiple root t0, so t0 is
    rational; of order k, it merges k - 1 points, and one more where
    A + t0*B has rank one, a double line (poly.rank_one_member).
    """
    order, line = rank_one_member(qi.integer, qj.integer)
    return 4 - (order - 1) - (line is not None)


def _pair_scan(
    qi: ConicForm,
    qj: ConicForm,
    known: list[ProjectivePoint],
    jets: dict | None,
) -> PairIntersections:
    """The rational common points of two smooth, distinct conics, of which
    ``known`` are already located, through one projection.

    The projection is from (1:0:0) after the first shear (a, b) of the grid
    that keeps that point off both conics.  The resultant is divided exactly
    by each known point's fiber form, raised to the jet multiplicities summed
    on that fiber, and only the quotient is searched for rational roots:
    none are searched when it is a nonzero constant.  On each fiber the
    search finds, the points not already known must carry the quotient's
    root order in jet multiplicities.  The multiplicity at each point comes
    from :func:`local_intersection_multiplicity`, called through the module
    for every point: from the tangents alone where they differ, from jets
    (at most one per conic and point in ``jets``) where they agree.  The
    unlocated common points, counted by :func:`_distinct_common_points`,
    carry the residual budget and are transversal exactly when each carries
    one.  A survey scans only the first pair of each pencil this way (the
    others take its result through :func:`_pencil_scan`).
    """
    mults = {pt: local_intersection_multiplicity(qi, qj, pt, jets=jets) for pt in known}
    # a smooth conic holds at most two of the grid's points (1:a:b) on each
    # line y = a*x, 14 of 49, so some shear keeps (1:0:0) off both conics
    for a, b in _SHEAR_GRID:  # pragma: no branch
        ti, tj = _shear_conic(qi.integer, a, b), _shear_conic(qj.integer, a, b)
        if ti[0] and tj[0]:
            break
    quotient = _resultant_in_x(ti, tj)
    known_fibers: dict[tuple[int, int], int] = {}
    for pt, m in mults.items():
        x, y, z = pt.coords()
        # the fiber (y0 : z0) of the point, coprime with z0 > 0, or (1 : 0)
        y0, z0 = y - a * x, z - b * x
        g = -gcd(y0, z0) if z0 < 0 or (z0 == 0 and y0 < 0) else gcd(y0, z0)
        fiber = (y0 // g, z0 // g)
        known_fibers[fiber] = known_fibers.get(fiber, 0) + m
    for (y0, z0), m in known_fibers.items():
        for _ in range(m):
            # the form must vanish on the fiber; on (1:0) its degree drops
            if _eval_homogeneous(quotient, y0, z0) != 0:
                raise AssertionError(
                    f"jet multiplicities {list(mults.values())} disagree with the "
                    f"resultant at ({y0}:{z0})"
                )
            quotient = _deflate(quotient, y0, z0) if z0 else quotient[:-1]
    located = list(mults.items())
    located_fiber_budget = 0
    for (y0, z0), mult in _binary_form_fibers(quotient):
        points = _fiber_points(ti, tj, y0, z0)
        if points is None:
            # a conjugate pair of points sharing this rational fiber; by
            # symmetry each carries multiplicity mult/2
            if mult % 2 != 0:
                raise AssertionError(
                    "odd resultant order split over a conjugate point pair"
                )
            continue
        mapped = [ProjectivePoint.of(x, y + a * x, z + b * x) for x, y, z in points]
        new = [pt for pt in mapped if pt not in mults]
        jet_mults = [local_intersection_multiplicity(qi, qj, pt, jets=jets) for pt in new]
        if sum(jet_mults) != mult:
            raise AssertionError(
                f"jet multiplicities {jet_mults} disagree with resultant order {mult}"
            )
        located.extend(zip(new, jet_mults))
        located_fiber_budget += mult
    located.sort(key=lambda pm: pm[0].coords())
    residual = len(quotient) - 1 - located_fiber_budget
    transversal = True
    if residual:
        unlocated = _distinct_common_points(qi, qj) - len(located)
        if not 0 < unlocated <= residual:
            raise AssertionError(
                f"{unlocated} unlocated points cannot carry the residual budget {residual}"
            )
        transversal = unlocated == residual
    return PairIntersections(tuple(located), residual, transversal)


def rational_pair_intersections(
    qi: ConicForm, qj: ConicForm, *, jets: dict | None = None
) -> PairIntersections:
    """All rational common points of two conics, with local multiplicities.

    The residual is the part of the Bezout budget (4) carried by points with
    irrational coordinates.  Multiplicities of located points come from the
    resultant root order of one projection and are cross-checked against
    branch jets.  The unlocated points are transversal exactly when there
    are as many of them as the residual, counted from the pencil's
    determinant cubic (:func:`_distinct_common_points`).  Jets are shared
    through ``jets`` when given.
    """
    if not conic_is_smooth(qi) or not conic_is_smooth(qj):
        raise ValueError("both conics must be smooth")
    if qi.is_proportional_to(qj):
        raise ValueError("conics coincide")
    return _pair_scan(qi, qj, [], jets)


# ---------------------------------------------------------------------------
# Classification and survey


def classify_point(
    arr: ConicArrangement,
    p: ProjectivePoint | tuple,
    assume_qh: bool = False,
    *,
    jets: dict | None = None,
) -> SingularPointRecord:
    """Branch data and local type of a singular point of the arrangement.

    mu comes from the smooth-branch formula mu = 2*sum(m_ij) - r + 1; tau
    equals mu for the quasi-homogeneous types (A series, ordinary points of
    multiplicity below five, and ordinary points of any multiplicity under
    the assume_qh flag) and is unknown otherwise.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    comps = arr.components
    members = _members(comps, point)
    mults = {
        (i, j): local_intersection_multiplicity(comps[i], comps[j], point, jets=jets)
        for i, j in combinations(members, 2)
    }
    return _classify(point, members, mults, assume_qh)


def _members(comps: tuple[ConicForm, ...], point: ProjectivePoint) -> list[int]:
    x, y, z = point.coords()
    return [i for i, q in enumerate(comps) if _evaluate(q.integer, x, y, z) == 0]


def _classify(
    point: ProjectivePoint,
    members: list[int],
    pair_mults: dict[tuple[int, int], int],
    assume_qh: bool,
) -> SingularPointRecord:
    """:func:`classify_point`, given the components through point and the
    intersection multiplicity there of every pair of them."""
    if len(members) < 2:
        raise NotSingularError(
            f"{point} lies on {len(members)} component(s); not a singular point"
        )
    if pair_mults.keys() != set(combinations(members, 2)):
        raise AssertionError(f"scans located {point} on pairs {sorted(pair_mults)} of {members}")
    r = len(members)
    total = sum(pair_mults.values())
    mu = 2 * total - r + 1
    all_transverse = all(m == 1 for m in pair_mults.values())
    if r == 2:
        m = total
        sing_type = SingType.A(2 * m - 1)
        tau: int | None = mu
    elif all_transverse and r == 3:
        sing_type = SingType.D(4)
        tau = mu
    elif all_transverse:
        sing_type = SingType.ordinary(r)
        tau = mu if (r == 4 or assume_qh) else None
    else:
        sing_type = SingType.descriptor()
        tau = None
    return SingularPointRecord(
        point=point,
        members=tuple(members),
        pair_mults=pair_mults,
        branch_count=r,
        sing_type=sing_type,
        mu=mu,
        tau=tau,
    )


def _pencil_scan(
    qi: ConicForm, qj: ConicForm, scan: PairIntersections, jets: dict | None
) -> PairIntersections:
    """The intersection of a pair that spans the pencil of a scanned pair.

    Two distinct members of one pencil generate the same ideal, so the pair
    meets at the scanned pair's points, with its multiplicities, residual
    and transversality.  The resultant agrees too: every factor of the
    Bezoutian in :func:`_resultant_in_x` is a 2 x 2 minor of the pair's
    coefficient rows, so under one shear the resultant of (alpha*q_a +
    beta*q_b, gamma*q_a + delta*q_b) is (alpha*delta - beta*gamma)^2 times
    that of (q_a, q_b), with the same fibers and root orders.  The pair's
    own multiplicity at each point, from
    :func:`local_intersection_multiplicity` through the module, must equal
    the scanned one.
    """
    for pt, m in scan.points:
        own = local_intersection_multiplicity(qi, qj, pt, jets=jets)
        if own != m:
            raise AssertionError(
                f"multiplicity {own} at {pt} disagrees with {m} of the pencil's scanned pair"
            )
    return scan


def survey(arr: ConicArrangement, assume_qh: bool = False) -> LocusSurvey:
    """Locate, classify and account for the rational singular points.

    Every pair is keyed by the pencil it spans (poly.pencil_key), and each
    pencil is scanned once.  The first pair of a pencil is scanned with the
    points that earlier pairs located on both of its conics
    (:func:`_pair_scan`), whose fiber forms divide its resultant exactly,
    raised to their jet multiplicities, before only the quotient is
    root-searched; so the pair's resultant root orders and jet
    multiplicities (read from the tangents where they differ, from jets
    where they agree) must agree at known and new points alike.  Every
    later pair of that pencil takes the scan, its own multiplicities checked
    against it (:func:`_pencil_scan`).  Each pair's located multiplicities
    and residual must make four, and its residual is the multiplicity still
    unlocated.  The survey's :class:`JetTable` holds each tangent and each
    jet at most once per (integer conic, point).  The survey is complete
    exactly when every pair's budget is explained by classified rational
    points.
    """
    comps = arr.components
    # the arrangement already checked that its components are smooth and
    # pairwise distinct, so the pairs go straight to the scan
    jets = JetTable()  # each (component, point) tangent and jet at most once per survey
    # point -> {(i, j): multiplicity} for every pair that located it
    located: dict[ProjectivePoint, dict[tuple[int, int], int]] = {}
    members: dict[ProjectivePoint, list[int]] = {}  # the components through each point
    pencils: dict[tuple[int, ...], PairIntersections] = {}  # pencil -> its first pair's scan
    residual_per_pair: dict[tuple[int, int], int] = {}
    residual_transversal = True
    for i, j in combinations(range(arr.k), 2):
        key = pencil_key(comps[i].integer, comps[j].integer)
        if key in pencils:
            pair = _pencil_scan(comps[i], comps[j], pencils[key], jets)
        else:
            known = [pt for pt, on in members.items() if i in on and j in on]
            pair = pencils[key] = _pair_scan(comps[i], comps[j], known, jets)
        bezout = pair.residual
        for pt, m in pair.points:
            bezout += m
            located.setdefault(pt, {})[(i, j)] = m
            if pt not in members:
                members[pt] = _members(comps, pt)
        if bezout != 4:
            raise AssertionError(
                f"pair ({i},{j}) located {list(pair.points)} with residual "
                f"{pair.residual}, not the four points Bezout counts"
            )
        residual_per_pair[i, j] = pair.residual
        if pair.residual and not pair.residual_transversal:
            residual_transversal = False
    records = tuple(
        _classify(pt, members[pt], located[pt], assume_qh)
        for pt in sorted(located, key=lambda p: p.coords())
    )
    return LocusSurvey(
        arrangement=arr,
        records=records,
        residual_per_pair=residual_per_pair,
        complete=not any(residual_per_pair.values()),
        assume_qh=assume_qh,
        residual_transversal=residual_transversal,
    )
