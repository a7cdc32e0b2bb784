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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

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

    def members_through(self, point: ProjectivePoint) -> list[int]:
        return [
            i for i, q in enumerate(self.components) if q.evaluate(point) == 0
        ]


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
# Branch jets


def _affine_conic_coefficients(
    q: ConicForm, p: ProjectivePoint
) -> tuple[int, tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]]:
    """Chart and local equation of q at p, in closed form.

    The chart is the one :func:`dehomogenize` uses: the last nonzero
    coordinate is scaled to 1 and the point c moved to the origin.  The local
    equation g(u, v) = q(c + u*e_i + v*e_j), with i < j the other two
    indices, is returned as (g00, g10, g01, g20, g11, g02): g00 = q(c), the
    linear terms are the partials of q at c, the quadratic terms are q's own.
    """
    coords = p.coords()
    chart = max(k for k in range(3) if coords[k] != 0)
    i, j = (k for k in range(3) if k != chart)
    # coefficient of X_a * X_b in q; the diagonal holds the squares
    m = ((q.xx, q.xy, q.xz), (q.xy, q.yy, q.yz), (q.xz, q.yz, q.zz))
    s = coords[chart]

    def partial(a: int) -> Fraction:
        # dq/dX_a at the integer point; at c = point/s it is this over s
        return sum(m[a][b] * coords[b] * (2 if a == b else 1) for b in range(3))

    return chart, (
        q.evaluate(coords) / (s * s),
        partial(i) / s,
        partial(j) / s,
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
    chart, (a00, t10, t01, a20, a11, a02) = _affine_conic_coefficients(q, point)
    if a00 != 0:
        raise ValueError(f"point {point} does not lie on the conic {q}")
    if t10 == 0 and t01 == 0:
        raise ValueError(f"conic is singular at {point}")
    swapped = t01 == 0
    a10, a01 = t10, t01
    if swapped:
        a10, a01, a20, a02 = a01, a10, a02, a20
    lam = a10 / a01
    # substitute v -> v - lam*u, killing the linear u coefficient
    b20 = a20 - a11 * lam + a02 * lam * lam
    b11 = a11 - 2 * a02 * lam
    b02 = a02
    c2 = -b20 / a01
    c3 = -(b11 * c2) / a01
    c4 = -(b11 * c3 + b02 * c2 * c2) / a01

    denom_lcm = t10.denominator * t01.denominator // gcd(
        t10.denominator, t01.denominator
    )
    ti, tj = int(t10 * denom_lcm), int(t01 * denom_lcm)
    g = gcd(abs(ti), abs(tj))
    ti, tj = ti // g, tj // g
    if (tj, ti) < (0, 0) or tj < 0 or (tj == 0 and ti < 0):
        ti, tj = -ti, -tj
    return BranchJet(
        center=point,
        chart=chart,
        swapped=swapped,
        shear=lam,
        tangent=(ti, tj),
        c2=c2,
        c3=c3,
        c4=c4,
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


def _shear_conic(q: ConicForm, a: int, b: int) -> ConicForm:
    """Coordinates x = X, y = Y + aX, z = Z + bX applied to the form."""
    return ConicForm(
        xx=q.evaluate((1, a, b)),
        yy=q.yy,
        zz=q.zz,
        xy=2 * q.yy * a + q.xy + q.yz * b,
        xz=2 * q.zz * b + q.xz + q.yz * a,
        yz=q.yz,
    )


def _conic_as_quadratic_in_x(
    q: ConicForm,
) -> tuple[Fraction, tuple[Fraction, Fraction], tuple[Fraction, Fraction, Fraction]]:
    """Split q = A*x^2 + B(y,z)*x + C(y,z).

    B and C are binary forms listed by ascending power of y: B = (z, y)
    coefficients, C = (z^2, y*z, y^2) coefficients.
    """
    return q.xx, (q.xz, q.xy), (q.zz, q.yz, q.yy)


def _mul_forms(f: tuple, g: tuple) -> list:
    """Product of binary forms listed by ascending power of y."""
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _resultant_in_x(q1: ConicForm, q2: ConicForm) -> list[Fraction]:
    """Resultant of two conics with respect to x, a binary quartic in (y, z).

    Bezoutian form for two quadratics: (A1*C2 - A2*C1)^2
    - (A1*B2 - A2*B1)*(B1*C2 - B2*C1).  Entry j is the coefficient of
    y^j * z^(4-j).
    """
    A1, B1, C1 = _conic_as_quadratic_in_x(q1)
    A2, B2, C2 = _conic_as_quadratic_in_x(q2)
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
        if sum(c * n**i * d ** (degree - i) for i, c in enumerate(g)) == 0:
            roots.append(Fraction(n, d))
    return sorted(roots)


def _rational_roots(coeffs: list[int]) -> tuple[list[tuple[Fraction, int]], list[int]]:
    """Rational roots with multiplicities of sum(coeffs[i] * t^i).

    Also returns the deflated polynomial left after dividing the rational
    roots out (the part whose roots are all irrational).  The roots are
    found p-adically on the squarefree part; their multiplicities come from
    exact deflation of the whole polynomial.
    """

    def evaluate(cs: list[int], t: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(cs):
            total = total * t + c
        return total

    def deflate(cs: list[int], t: Fraction) -> list[int]:
        # synthetic division by (x - t) over the rationals, result re-integered
        out: list[Fraction] = [Fraction(0)] * (len(cs) - 1)
        carry = Fraction(0)
        for i in range(len(cs) - 1, 0, -1):
            carry = Fraction(cs[i]) + carry * t
            out[i - 1] = carry
        m = 1
        for v in out:
            m = m * v.denominator // gcd(m, v.denominator)
        return [int(v * m) for v in out]

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
        mult = 0
        while len(cs) > 1 and evaluate(cs, cand) == 0:
            cs = deflate(cs, cand)
            mult += 1
        roots.append((cand, mult))
    return roots, cs


def _squarefree_part(cs: list[int]) -> list[int]:
    """cs / gcd(cs, cs') as a primitive integer polynomial."""
    f = [Fraction(c) for c in cs]
    g = _poly_gcd(f, [i * c for i, c in enumerate(f)][1:])
    # exact long division f / g, highest coefficient first
    quotient = [Fraction(0)] * (len(f) - len(g) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = f[k + len(g) - 1] / g[-1]
        for i, c in enumerate(g):
            f[k + i] -= quotient[k] * c
    den = 1
    for v in quotient:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in quotient]
    content = 0
    for v in ints:
        content = gcd(content, v)
    return [v // content for v in ints]


def _is_rational_square(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _binary_quartic_fibers(
    res: list[Fraction],
) -> tuple[list[tuple[tuple[Fraction, Fraction], int]], bool]:
    """Rational roots (y0:z0) of a binary quartic, with multiplicities.

    ``res[j]`` is the coefficient of y^j * z^(4-j).  The second component
    reports whether the non-rational part of the form is squarefree; in that
    case every irrational fiber carries exactly one intersection point of
    multiplicity one.
    """
    m = 1
    for c in res:
        m = m * c.denominator // gcd(m, c.denominator)
    coeff_int = [int(c * m) for c in res]
    if not any(coeff_int):
        raise ValueError("identically zero resultant (components share a factor?)")
    # multiplicity of the fiber (1:0) equals the power of z dividing the form
    top = max(j for j, v in enumerate(coeff_int) if v)
    z_power = 4 - top
    fibers: list[tuple[tuple[Fraction, Fraction], int]] = []
    if z_power > 0:
        fibers.append(((Fraction(1), Fraction(0)), z_power))
    # finite fibers (t:1) from the dehomogenization in t = y
    roots, remainder = _rational_roots(coeff_int[: top + 1])
    for root, mult in roots:
        fibers.append(((root, Fraction(1)), mult))
    return fibers, _is_squarefree(remainder)


def _is_squarefree(coeffs: list[int]) -> bool:
    """Whether an integer polynomial (low-to-high coefficients) is squarefree."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 2:
        return True
    deriv = [i * c for i, c in enumerate(cs)][1:]
    g = _poly_gcd(cs, deriv)
    return len(g) == 1


_SHEAR_GRID = sorted(
    ((a, b) for a in range(-2, 5) for b in range(-2, 5)),
    key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab),
)
_MAX_CERT_SHEARS = 8


def _scan_with_shear(
    qi: ConicForm, qj: ConicForm, a: int, b: int, jets: JetTable | None
) -> tuple[list[tuple[ProjectivePoint, int]], int, bool]:
    """Locate rational common points through the projection (a, b).

    Returns (located points with jet multiplicities, residual budget,
    residual certified transversal under this projection).
    """
    ti = _shear_conic(qi, a, b)
    tj = _shear_conic(qj, a, b)
    res = _resultant_in_x(ti, tj)
    located: list[tuple[ProjectivePoint, int]] = []
    residual = 0
    transversal = True
    fibers, irrational_part_squarefree = _binary_quartic_fibers(res)
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
        mapped = [
            ProjectivePoint.of(x0, y0 + a * x0, z0 + b * x0) for x0 in points
        ]
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
    first: tuple[list[tuple[ProjectivePoint, int]], int, bool] | None = None
    certified = False
    tried = 0
    for a, b in _SHEAR_GRID:
        if qi.evaluate((1, a, b)) == 0 or qj.evaluate((1, a, b)) == 0:
            continue
        scan = _scan_with_shear(qi, qj, a, b, jets)
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


def _fiber_points(
    ti: ConicForm, tj: ConicForm, y0: Fraction, z0: Fraction
) -> list[Fraction] | None:
    """Common x-roots of the two sheared conics on the fiber (y0 : z0).

    Returns None when the common roots are irrational (conjugate pair).
    """
    def restrict(q: ConicForm) -> tuple[Fraction, Fraction, Fraction]:
        A, (bz, by), (czz, cyz, cyy) = _conic_as_quadratic_in_x(q)
        return (A, by * y0 + bz * z0, (cyy * y0 + cyz * z0) * y0 + czz * z0 * z0)

    p1 = restrict(ti)
    p2 = restrict(tj)
    g = _poly_gcd([p1[2], p1[1], p1[0]], [p2[2], p2[1], p2[0]])
    if len(g) == 2:  # linear: one rational root
        return [-g[0] / g[1]]
    if len(g) == 3:  # the restrictions are proportional quadratics
        a2, a1, a0 = g[2], g[1], g[0]
        disc = a1 * a1 - 4 * a2 * a0
        root = _is_rational_square(disc)
        if root is None:
            return None
        if root == 0:
            return [-a1 / (2 * a2)]
        return [(-a1 + root) / (2 * a2), (-a1 - root) / (2 * a2)]
    raise AssertionError("resultant fiber without a common root")


def _poly_gcd(p1: list[Fraction], p2: list[Fraction]) -> list[Fraction]:
    """Euclidean gcd of univariate polynomials, coefficients low-to-high."""

    def normalize(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    a = normalize(list(p1))
    b = normalize(list(p2))
    while b:
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] -= factor * b[i]
            a = normalize(a)
            if not a:
                break
        a, b = b, a
    return a


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
    members = arr.members_through(point)
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
    jets: JetTable = {}  # each (component, point) jet is built once per survey
    candidates: dict[ProjectivePoint, None] = {}
    residual_transversal = True
    for i in range(k):
        for j in range(i + 1, k):
            pair = rational_pair_intersections(
                arr.components[i], arr.components[j], jets=jets
            )
            for pt, _ in pair.points:
                candidates.setdefault(pt, None)
            if pair.residual and not pair.residual_transversal:
                residual_transversal = False
    for pt in extra_points or []:
        if len(arr.members_through(pt)) >= 2:
            candidates.setdefault(pt, None)
    records = tuple(
        classify_point(arr, pt, assume_qh=assume_qh, jets=jets)
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
