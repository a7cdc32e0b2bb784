"""Rational singular points of conic arrangements.

Locates the rational intersection points of every pair of components by
resultant elimination with rational-root extraction, measures local
intersection multiplicities twice (resultant root order and branch jets,
which must agree), and classifies each singular point by its branch data:
two-branch tangencies of order m give the A-series point A_{2m-1}, ordinary
points give the triple point or ordinary r-fold types, and everything else
is reported as a raw descriptor with its branch-count Milnor number.

Only rational points are located; intersections that live in a proper
extension field of the rationals are accounted for in per-pair residuals so
the survey can say exactly how much of each pair's intersection budget
(four, by Bezout) it has explained.

A conic is defined up to scale, and every survey output is invariant under
scaling one component.  So the survey works on content-free integer conics
(each ConicForm times the lcm of its denominators, divided by the content):
shears, resultants, rational fibers as coprime integer pairs, fiber points,
root finding and jets are all integer arithmetic.  Fraction appears only in
the returned roots and in the jet coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from conicfree.linalg import _rat_reconstruct
from conicfree.poly import (
    ConicForm,
    HomogeneousPolynomial,
    ProjectivePoint,
    conic_is_smooth,
)


class NotSingularError(ValueError):
    """Fewer than two components pass through the point."""


class IrrationalTangentFrameError(ValueError):
    """Tangent normalization would need an irrational frame.

    Unreachable for rational points on rational conics (the tangent of a
    rational conic at a rational point is rational); kept as a declared
    failure mode of the jet construction.
    """


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
        for i in range(len(self.components)):
            for j in range(i + 1, len(self.components)):
                if self.components[i].is_proportional_to(self.components[j]):
                    raise ValueError(f"components {i} and {j} coincide")

    @classmethod
    def from_texts(cls, texts: list[str]) -> "ConicArrangement":
        return cls(tuple(ConicForm.parse(t) for t in texts))

    @property
    def k(self) -> int:
        return len(self.components)

    def polynomial(self) -> HomogeneousPolynomial:
        product = HomogeneousPolynomial(0, {(0, 0, 0): Fraction(1)})
        for q in self.components:
            product = product * q.polynomial()
        return product


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
    # True when every unlocated intersection point is certified to meet this
    # pair transversally (each conjugate point carries multiplicity one).
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

    def record_at(self, point: ProjectivePoint) -> SingularPointRecord | None:
        for rec in self.records:
            if rec.point == point:
                return rec
        return None

    def points_of_type(self, type_name: str) -> list[ProjectivePoint]:
        return [rec.point for rec in self.records if str(rec.sing_type) == type_name]


# ---------------------------------------------------------------------------
# Integer conics

# A conic as six content-free integers (xx, yy, zz, xy, xz, yz), the
# coefficients of a ConicForm in field order after clearing denominators.
IntConic = tuple[int, int, int, int, int, int]


def _integer_conic(q: ConicForm) -> IntConic:
    """q times the lcm of its denominators, divided by the content.

    The scale factor is positive, so signs are kept.  Every survey output
    is invariant under scaling one component: points, multiplicities,
    residuals, and the jet fields, which are all ratios.
    """
    cs = (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


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


def branch_jet(q: ConicForm, p: ProjectivePoint | tuple) -> BranchJet:
    """Fourth-order jet of the conic at a rational point on it.

    The frame (chart, optional axis swap, rational shear) depends only on the
    point and the tangent direction, so conics sharing a tangent at p get
    jets in the same frame and their coefficients compare directly.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    chart, s, (a00, t10, t01, a20, a11, a02) = _affine_conic_coefficients(
        _integer_conic(q), point
    )
    if a00 != 0:
        raise ValueError(f"point {point} does not lie on the conic {q}")
    if t10 == 0 and t01 == 0:
        raise ValueError(f"conic is singular at {point}")
    swapped = t01 == 0
    a10, a01 = t10, t01
    if swapped:
        a10, a01, a20, a02 = a01, a10, a02, a20
    # In (U, V) = (s*u, s*v) the branch is V = sum_k (c_k / s^(k-1)) U^k.
    # The shear V -> V - (a10/a01)*U kills the linear U coefficient; b20 and
    # b11 are its U^2 and U*V coefficients times a01^2 and a01.
    b20 = (a20 * a01 - a11 * a10) * a01 + a02 * a10 * a10
    b11 = a11 * a01 - 2 * a02 * a10
    ti, tj = t10 // gcd(t10, t01), t01 // gcd(t10, t01)
    if tj < 0 or (tj == 0 and ti < 0):
        ti, tj = -ti, -tj
    return BranchJet(
        center=point,
        chart=chart,
        swapped=swapped,
        shear=Fraction(a10, a01),
        tangent=(ti, tj),
        c2=Fraction(-b20 * s, a01**3),
        c3=Fraction(b11 * b20 * s * s, a01**5),
        c4=Fraction(-b20 * (b11 * b11 + a02 * b20) * s**3, a01**7),
    )


# Jets computed during one survey, keyed by (id of the conic, point).  A
# survey makes one table and drops it on return; its arrangement keeps every
# keyed conic alive meanwhile, so an id cannot be reused inside the table.
JetTable = dict[tuple[int, ProjectivePoint], BranchJet]


def _jet(q: ConicForm, point: ProjectivePoint, jets: JetTable | None) -> BranchJet:
    if jets is None:
        return branch_jet(q, point)
    key = (id(q), point)
    jet = jets.get(key)
    if jet is None:
        jet = jets[key] = branch_jet(q, point)
    return jet


def local_intersection_multiplicity(
    qi: ConicForm,
    qj: ConicForm,
    p: ProjectivePoint | tuple,
    *,
    jets: JetTable | None = None,
) -> int:
    """Intersection multiplicity of two smooth conics at a common rational point.

    1 for distinct tangents, otherwise the vanishing order of the jet
    difference (2, 3 or 4; order 5 would force the conics to coincide).
    Jets are taken from (and added to) ``jets`` when a table is given.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    ji = _jet(qi, point, jets)
    jj = _jet(qj, point, jets)
    if ji.tangent != jj.tangent:
        return 1
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


def _primes():
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _eval_mod(cs: list[int], t: int, m: int) -> int:
    total = 0
    for c in reversed(cs):
        total = (total * t + c) % m
    return total


def _padic_rational_roots(g: list[int]) -> list[Fraction]:
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
    for p in _primes():
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
    when n/d is a root (d != 0)."""
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


def _primitive(f: list[int]) -> list[int]:
    g = gcd(*f)
    return [c // g for c in f]


def _poly_gcd(f: list[int], g: list[int]) -> list[int]:
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


def _squarefree_part(cs: list[int]) -> list[int]:
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


def _is_squarefree(cs: list[int]) -> bool:
    """Whether an integer polynomial (low-to-high, nonzero leading
    coefficient) is squarefree."""
    return len(cs) <= 2 or len(_poly_gcd(cs, [i * c for i, c in enumerate(cs)][1:])) == 1


def _binary_quartic_fibers(
    res: list[int],
) -> tuple[list[tuple[tuple[int, int], int]], bool]:
    """Rational roots (y0:z0) of a binary quartic, with multiplicities.

    ``res[j]`` is the integer coefficient of y^j * z^(4-j).  Each fiber is a
    coprime integer pair.  The second component reports whether the
    non-rational part of the form is squarefree; in that case every
    irrational fiber carries exactly one intersection point of multiplicity
    one.
    """
    if not any(res):
        raise ValueError("identically zero resultant (components share a factor?)")
    # multiplicity of the fiber (1:0) equals the power of z dividing the form
    top = max(j for j, v in enumerate(res) if v)
    z_power = 4 - top
    fibers: list[tuple[tuple[int, int], int]] = []
    if z_power > 0:
        fibers.append(((1, 0), z_power))
    # finite fibers (t:1) from the dehomogenization in t = y
    roots, remainder = _rational_roots(res[: top + 1])
    for root, mult in roots:
        fibers.append(((root.numerator, root.denominator), mult))
    return fibers, _is_squarefree(remainder)


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
_MAX_CERT_SHEARS = 8


def _scan_with_shear(
    qi: ConicForm,
    qj: ConicForm,
    ti: IntConic,
    tj: IntConic,
    a: int,
    b: int,
    jets: JetTable | None,
) -> tuple[list[tuple[ProjectivePoint, int]], int, bool]:
    """Locate rational common points through the projection (a, b).

    ``ti`` and ``tj`` are the integer conics of qi and qj under the shear
    (a, b).  Returns (located points with jet multiplicities, residual
    budget, residual certified transversal under this projection).
    """
    located: list[tuple[ProjectivePoint, int]] = []
    residual = 0
    transversal = True
    fibers, irrational_part_squarefree = _binary_quartic_fibers(_resultant_in_x(ti, tj))
    located_fiber_budget = 0
    for (y0, z0), mult in fibers:
        points = _fiber_points(ti, tj, y0, z0)
        if points is None:
            # a conjugate pair of points sharing this rational fiber; by
            # symmetry each carries multiplicity mult/2
            if mult % 2 != 0:
                raise AssertionError(
                    "odd resultant order split over a conjugate point pair"
                )
            residual += mult
            if mult != 2:
                transversal = False
            continue
        mapped = [ProjectivePoint.of(x, y + a * x, z + b * x) for x, y, z in points]
        jet_mults = [
            local_intersection_multiplicity(qi, qj, pt, jets=jets) for pt in mapped
        ]
        if sum(jet_mults) != mult:
            raise AssertionError(
                f"jet multiplicities {jet_mults} disagree with resultant order {mult}"
            )
        located.extend(zip(mapped, jet_mults))
        located_fiber_budget += mult
    # what remains sits on irrational fibers; multiplicity-one fibers carry
    # exactly one transversal point each
    irrational_fiber_budget = 4 - located_fiber_budget - residual
    residual += irrational_fiber_budget
    if irrational_fiber_budget and not irrational_part_squarefree:
        transversal = False
    located.sort(key=lambda pm: pm[0].coords())
    return located, residual, transversal


def _pair_scan(
    qi: ConicForm, qj: ConicForm, iqi: IntConic, iqj: IntConic, jets: JetTable | None
) -> PairIntersections:
    """:func:`rational_pair_intersections` on two smooth, distinct conics,
    given also as their integer conics."""
    first: tuple[list[tuple[ProjectivePoint, int]], int, bool] | None = None
    certified = False
    tried = 0
    for a, b in _SHEAR_GRID:
        ti = _shear_conic(iqi, a, b)
        if ti[0] == 0:
            continue
        tj = _shear_conic(iqj, a, b)
        if tj[0] == 0:
            continue
        scan = _scan_with_shear(qi, qj, ti, tj, a, b, jets)
        if first is None:
            first = scan
        elif scan[0] != first[0]:
            raise AssertionError(
                "projections disagree on the located rational points"
            )
        if first[1] == 0 or scan[2]:
            certified = True
            break
        tried += 1
        if tried >= _MAX_CERT_SHEARS:
            break
    if first is None:  # pragma: no cover - the grid always has a good shear
        raise AssertionError("no valid shear found")
    located, residual, _ = first
    return PairIntersections(
        points=tuple(located),
        residual=residual,
        residual_transversal=certified or residual == 0,
    )


def rational_pair_intersections(
    qi: ConicForm, qj: ConicForm, *, jets: JetTable | None = None
) -> PairIntersections:
    """All rational common points of two conics, with local multiplicities.

    The residual is the part of the Bezout budget (4) carried by points with
    irrational coordinates.  Multiplicities of located points come from the
    resultant root order and are cross-checked against branch jets.

    A point's fiber multiplicity in every projection is at least its local
    intersection multiplicity, so a projection whose unlocated fibers are
    all simple certifies the unlocated points transversal; several
    projections are tried because conjugate point clusters can share fibers
    in unlucky directions.  Jets are shared through ``jets`` when given.
    """
    if not conic_is_smooth(qi) or not conic_is_smooth(qj):
        raise ValueError("both conics must be smooth")
    if qi.is_proportional_to(qj):
        raise ValueError("conics coincide")
    return _pair_scan(qi, qj, _integer_conic(qi), _integer_conic(qj), jets)


# ---------------------------------------------------------------------------
# Classification and survey


def classify_point(
    arr: ConicArrangement,
    p: ProjectivePoint | tuple,
    assume_qh: bool = False,
    *,
    jets: JetTable | None = None,
) -> SingularPointRecord:
    """Branch data and local type of a singular point of the arrangement.

    mu comes from the smooth-branch formula mu = 2*sum(m_ij) - r + 1; tau
    equals mu for the quasi-homogeneous types (A series, ordinary points of
    multiplicity below five, and ordinary points of any multiplicity under
    the assume_qh flag) and is unknown otherwise.
    """
    point = p if isinstance(p, ProjectivePoint) else ProjectivePoint.of(*p)
    ints = [_integer_conic(q) for q in arr.components]
    return _classify(arr, ints, point, assume_qh, jets)


def _members(ints: list[IntConic], point: ProjectivePoint) -> list[int]:
    x, y, z = point.coords()
    return [i for i, q in enumerate(ints) if _evaluate(q, x, y, z) == 0]


def _classify(
    arr: ConicArrangement,
    ints: list[IntConic],
    point: ProjectivePoint,
    assume_qh: bool,
    jets: JetTable | None,
) -> SingularPointRecord:
    """:func:`classify_point`, given also the integer conics of arr."""
    members = _members(ints, point)
    if len(members) < 2:
        raise NotSingularError(
            f"{point} lies on {len(members)} component(s); not a singular point"
        )
    pair_mults: dict[tuple[int, int], int] = {}
    for a_idx in range(len(members)):
        for b_idx in range(a_idx + 1, len(members)):
            i, j = members[a_idx], members[b_idx]
            pair_mults[(i, j)] = local_intersection_multiplicity(
                arr.components[i], arr.components[j], point, jets=jets
            )
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


def survey(
    arr: ConicArrangement,
    extra_points: list[ProjectivePoint] | None = None,
    assume_qh: bool = False,
) -> LocusSurvey:
    """Locate, classify and account for the rational singular points.

    Per-pair residuals track the multiplicity still unlocated; the survey is
    complete exactly when every pair's Bezout budget of 4 is explained by
    classified rational points.
    """
    k = arr.k
    comps = arr.components
    # the arrangement already checked that its components are smooth and
    # pairwise distinct, so the pairs go straight to the scan
    ints = [_integer_conic(q) for q in comps]
    jets: JetTable = {}  # each (component, point) jet is built once per survey
    candidates: dict[ProjectivePoint, None] = {}
    residual_transversal = True
    for i in range(k):
        for j in range(i + 1, k):
            pair = _pair_scan(comps[i], comps[j], ints[i], ints[j], jets)
            for pt, _ in pair.points:
                candidates.setdefault(pt, None)
            if pair.residual and not pair.residual_transversal:
                residual_transversal = False
    for pt in extra_points or []:
        if len(_members(ints, pt)) >= 2:
            candidates.setdefault(pt, None)
    records = tuple(
        _classify(arr, ints, pt, assume_qh, jets)
        for pt in sorted(candidates, key=lambda p: p.coords())
    )
    residual_per_pair: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(i + 1, k):
            located = sum(rec.mult(i, j) for rec in records)
            if located > 4:
                raise AssertionError(
                    f"pair ({i},{j}) exceeds its Bezout budget: {located}"
                )
            residual_per_pair[(i, j)] = 4 - located
    complete = all(v == 0 for v in residual_per_pair.values())
    return LocusSurvey(
        arrangement=arr,
        records=records,
        residual_per_pair=residual_per_pair,
        complete=complete,
        assume_qh=assume_qh,
        residual_transversal=residual_transversal,
    )
