"""Closed-form conic algebra and the p-adic rational-root finder of the survey.

The closed forms are checked against the generic polynomial code they
replace (dehomogenization, evaluation, substitution), which stays as the
oracle.  The root finder is checked against trial division on small
coefficients and against a factorization over QQ (sympy) on coefficients
up to 2^64.  The survey runs on content-free integer conics, so its
results must not change when a component is scaled.  The distinct-point
count read off a pair's determinant cubic is checked against pairs
q, q + lam*l1*l2 whose common points are solved exactly (sympy).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conicfree.locus import (
    _affine_conic_coefficients,
    _binary_form_fibers,
    _distinct_common_points,
    _fiber_points,
    _poly_gcd,
    _rational_roots,
    _resultant_in_x,
    _shear_conic,
    ConicArrangement,
    branch_jet,
    rational_pair_intersections,
    survey,
)
from conicfree.poly import (
    VAR_NAMES,
    ConicForm,
    HomogeneousPolynomial,
    ProjectivePoint,
    conic_is_smooth,
    dehomogenize,
    determinant_cubic,
    rank_one_member,
)

# ---------------------------------------------------------------------------
# Closed-form conic algebra

_rationals = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 1, 1, 2, 3, 5]))
_conics = st.tuples(*[_rationals] * 6).filter(any).map(lambda c: ConicForm(*c))
# every chart, with the line z = 0 and the vertex (1:0:0) drawn often
_points = st.one_of(
    st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (-2, 3, 0), (3, 0, -2)]),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)).filter(any),
).map(lambda p: ProjectivePoint.of(*p))


def _conic_at(q, point):
    """The conic q at a point (a ProjectivePoint or its coordinates), from
    its six coefficients."""
    x, y, z = point.coords() if isinstance(point, ProjectivePoint) else point
    return q.xx * x * x + q.yy * y * y + q.zz * z * z + q.xy * x * y + q.xz * x * z + q.yz * y * z


def _evaluate(f, point):
    """f at a point of Q^3, by summing its terms exactly."""
    x, y, z = (Fraction(v) for v in point)
    return sum((c * x**i * y**j * z**k for (i, j, k), c in f.terms.items()), Fraction(0))


def _shear_by_substitution(q: ConicForm, a: int, b: int) -> ConicForm:
    """x = X, y = Y + aX, z = Z + bX, substituted into the expanded form."""
    x, y, z = (HomogeneousPolynomial.variable(v) for v in "xyz")
    xs, ys, zs = x, y + x.scale(a), z + x.scale(b)
    out = HomogeneousPolynomial.zero(2)
    for (i, j, k), c in q.polynomial().terms.items():
        out = out + (xs**i * ys**j * zs**k).scale(c)
    return ConicForm.from_polynomial(out)


@settings(max_examples=200, deadline=None)
@given(q=_conics, p=_points)
@example(q=ConicForm(1, 2, 3, 4, 5, 6), p=ProjectivePoint.of(1, 0, 0))
@example(q=ConicForm(1, 2, 3, 4, 5, 6), p=ProjectivePoint.of(2, -3, 0))
def test_affine_coefficients_match_dehomogenize(q, p):
    iq = q.integer
    chart, s, coeffs = _affine_conic_coefficients(iq, p)
    oracle = dehomogenize(ConicForm(*iq).polynomial(), p)
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # s^2 * g(u, v) = G(s*u, s*v): the coefficient of u^a*v^b is G_ab / s^(2-a-b)
    assert s == p.coords()[chart] > 0
    assert {m: Fraction(c, s ** (2 - sum(m))) for m, c in zip(monos, coeffs) if c != 0} == (
        oracle.terms
    )
    assert VAR_NAMES[chart] not in oracle.var_names


@settings(max_examples=200, deadline=None)
@given(q=_conics, p=_points)
def test_conic_evaluate_matches_polynomial(q, p):
    assert _conic_at(q, p) == _evaluate(q.polynomial(), p.coords())
    assert _conic_at(q, p.coords()) == _evaluate(q.polynomial(), p.coords())


@settings(max_examples=200, deadline=None)
@given(q=_conics, a=st.integers(-3, 4), b=st.integers(-3, 4))
def test_shear_matches_substitution(q, a, b):
    assert _shear_conic(q.integer, a, b) == _shear_by_substitution(q, a, b).integer


# ---------------------------------------------------------------------------
# Rational roots


def _trial_division_roots(coeffs):
    """Rational roots by trial division: every +-p/q with p | c_0 and q | c_n."""

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                if d != n // d:
                    out.append(n // d)
            d += 1
        return out

    def evaluate(cs: list[int], t: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(cs):
            total = total * t + c
        return total

    def deflate(cs: list[int], t: Fraction) -> list[int]:
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
    roots: list[tuple[Fraction, int]] = []
    zero_mult = 0
    while cs[0] == 0:
        zero_mult += 1
        cs = cs[1:]
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    candidates = set()
    for p_div in divisors(cs[0]):
        for q_div in divisors(cs[-1]):
            candidates.add(Fraction(p_div, q_div))
            candidates.add(Fraction(-p_div, q_div))
    for cand in sorted(candidates):
        if len(cs) <= 1:
            break
        mult = 0
        while len(cs) > 1 and evaluate(cs, cand) == 0:
            cs = deflate(cs, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, cs


def _sympy_roots(coeffs):
    """Rational roots with multiplicities from a factorization over QQ."""
    import sympy

    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), t), domain="QQ")
    roots = []
    for factor, mult in factors:
        poly = sympy.Poly(factor, t)
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            r = -sympy.Rational(b) / sympy.Rational(a)
            roots.append((Fraction(int(r.p), int(r.q)), mult))
    return sorted(roots)


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _proportional(f, g):
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if len(f) != len(g):
        return False
    ratio = f[-1] / g[-1]
    return all(u == ratio * v for u, v in zip(f, g))


def _planted(roots, zero_mult, irrational):
    """coeffs (low to high) of t^zero_mult * prod (d*t - n)^m * irrational."""
    poly = [0] * zero_mult + [1]
    for n, d, m in roots:
        for _ in range(m):
            poly = _mul(poly, [-n, d])
    return _mul(poly, irrational)


def _irreducible_quadratics(lead):
    """a*t^2 + b*t + c with a divisible by ``lead`` and no rational root."""

    def build(a, b, c):
        a *= lead
        disc = b * b - 4 * a * c
        if disc >= 0 and int(disc**0.5 + 0.5) ** 2 == disc:
            return None
        return [c, b, a]

    return st.builds(
        build, st.integers(1, 9), st.integers(-9, 9), st.integers(-9, 9).filter(bool)
    ).filter(lambda q: q is not None)


def _distinct_roots(max_abs, max_den, min_count, max_count):
    def canonical(nd):
        n, d = nd
        g = gcd(n, d)
        return (n // g, d // g)

    return st.lists(
        st.tuples(st.integers(-max_abs, max_abs).filter(bool), st.integers(1, max_den)).map(
            canonical
        ),
        min_size=min_count,
        max_size=max_count,
        unique=True,
    )


@st.composite
def _small_polynomials(draw):
    roots = draw(_distinct_roots(6, 6, 0, 3))
    mults = [draw(st.integers(1, 4 if len(roots) == 1 else 2)) for _ in roots]
    lead = draw(st.sampled_from([1, 2, 6]))
    irrational = draw(st.one_of(st.just([lead]), _irreducible_quadratics(lead)))
    zero_mult = draw(st.integers(0, 2))
    return _planted([(n, d, m) for (n, d), m in zip(roots, mults)], zero_mult, irrational)


@st.composite
def _large_polynomials(draw):
    """Coefficients below 2^64; leading coefficients often divisible by 2*3*5*7."""
    count = draw(st.integers(1, 3))
    mults = [draw(st.integers(1, 4)) for _ in range(count)]
    lead = draw(st.sampled_from([1, 210, 2310]))
    irrational = draw(st.one_of(st.just([lead]), _irreducible_quadratics(lead)))
    zero_mult = draw(st.integers(0, 2))
    # each of the sum(mults) linear factors gets an equal share of 60 bits
    bits = (60 - max(abs(c) for c in irrational).bit_length()) // sum(mults) - 1
    roots = draw(_distinct_roots(2**bits - 1, 2**bits - 1, count, count))
    poly = _planted([(n, d, m) for (n, d), m in zip(roots, mults)], zero_mult, irrational)
    assert max(abs(c) for c in poly) < 2**64
    return poly


@settings(max_examples=60, deadline=None)
@given(coeffs=_small_polynomials())
def test_rational_roots_match_trial_division(coeffs):
    roots, remainder = _rational_roots(coeffs)
    expected_roots, expected_remainder = _trial_division_roots(coeffs)
    assert roots == expected_roots
    assert _proportional(remainder, expected_remainder)


@settings(max_examples=60, deadline=None)
@given(coeffs=_large_polynomials())
@example(coeffs=_planted([(2**31 - 1, 2**30 + 7, 2)], 1, [1, 0, 1]))
@example(coeffs=_planted([(65521, 2310 * 17, 1), (-65519, 65497, 2)], 0, [5, 1, 210]))
def test_rational_roots_match_factorization_up_to_2_64(coeffs):
    assert max(abs(c) for c in coeffs) < 2**64
    roots, remainder = _rational_roots(coeffs)
    assert sorted(roots) == _sympy_roots(coeffs)
    assert [r for r, _ in roots[1:]] == sorted(r for r, _ in roots[1:])
    # what is left has no rational root, and the roots account for the degree
    assert _sympy_roots(remainder) == []
    assert sum(m for _, m in roots) + len(remainder) - 1 == len(coeffs) - 1


def test_rational_roots_prime_choice_skips_bad_primes():
    # the leading coefficient rules out 2..11, and t^2 + 13 has the double root 0 mod 13
    coeffs = _planted([(1, 2310, 2), (-7, 3, 1)], 1, [13, 0, 1])
    roots, remainder = _rational_roots(coeffs)
    assert roots == [(Fraction(0), 1), (Fraction(-7, 3), 1), (Fraction(1, 2310), 2)]
    assert _proportional(remainder, [13, 0, 1])


def test_rational_roots_constant_and_linear():
    assert _rational_roots([5]) == ([], [5])
    assert _rational_roots([0, 0, 3]) == ([(Fraction(0), 2)], [3])
    roots, remainder = _rational_roots([-3, 4])
    assert roots == [(Fraction(3, 4), 1)] and len(remainder) == 1


@st.composite
def _binary_quartics(draw):
    """A binary quartic (coefficients low to high in y) with the product of its
    irrational factors: up to two irreducible quadratics, possibly equal, and
    rational linear factors, possibly repeated, possibly z."""
    quadratics = draw(st.lists(_irreducible_quadratics(1), max_size=2))
    if len(quadratics) == 2 and draw(st.booleans()):
        quadratics[1] = quadratics[0]
    irrational = [1]
    for q in quadratics:
        irrational = _mul(irrational, q)
    linear = 4 - 2 * len(quadratics)
    at_infinity = draw(st.integers(0, linear))
    factors = st.tuples(st.integers(-6, 6), st.integers(1, 6))
    quartic = irrational
    for n, d in draw(st.lists(factors, min_size=linear - at_infinity, max_size=linear - at_infinity)):
        quartic = _mul(quartic, [-n, d])
    return quartic + [0] * at_infinity, irrational


@settings(max_examples=200, deadline=None)
@given(quartic=_binary_quartics())
def test_binary_form_fibers_tell_a_squarefree_irrational_part(quartic):
    """The rational fibers carry exactly what the planted irrational part,
    squarefree or not, leaves of the quartic's degree."""
    res, irrational = quartic
    fibers = _binary_form_fibers(res)
    assert sum(m for _, m in fibers) == 4 - (len(irrational) - 1)


# A conic pair with nine-digit coefficients: x^2 + y^2 - z^2 and
# x^2 + 4*y^2 - z^2 (tangent at (1:0:1) and (-1:0:1)) after an integer
# change of coordinates with four-digit entries.  Trial division never
# finishes on its resultant, whose coefficients have up to 33 digits.
NINE_DIGIT_PAIR = (
    "49800913*x^2 - 237673894*x*y + 110402030*x*z + 96451081*y^2"
    " + 118939710*y*z + 13520161*z^2",
    "118604476*x^2 - 490619296*x*y - 79213636*x*z + 328929508*y^2"
    " + 467485692*y*z + 144160564*z^2",
)


def test_nine_digit_pair_resultant_roots():
    q1, q2 = (ConicForm.parse(t) for t in NINE_DIGIT_PAIR)
    res = coeffs = _resultant_in_x(q1.integer, q2.integer)
    assert max(abs(c) for c in coeffs) > 10**30
    roots, remainder = _rational_roots(coeffs)
    assert roots == _sympy_roots(coeffs)
    assert [m for _, m in roots] == [2, 2] and len(remainder) == 1
    assert sorted(m for _, m in _binary_form_fibers(res)) == [2, 2]
    # the tangency points are the images of (1:0:1) and (-1:0:1)
    pair = rational_pair_intersections(q1, q2)
    assert pair.residual == 0
    assert sorted(pair.points, key=lambda pm: pm[0].coords()) == sorted(
        [
            (ProjectivePoint.of(4516595, -40270139, 56997728), 2),
            (ProjectivePoint.of(91965023, 37048179, 17318590), 2),
        ],
        key=lambda pm: pm[0].coords(),
    )
    assert all(_conic_at(q1, p) == 0 == _conic_at(q2, p) for p, _ in pair.points)


def test_fiber_points_solve_the_fiber_exactly():
    # x^2 + y^2 - z^2 and x^2 + 4*y^2 - z^2 are tangent at (1:0:1) and (-1:0:1)
    ti = ConicForm.parse("x^2+y^2-z^2").integer
    tj = ConicForm.parse("x^2+4*y^2-z^2").integer
    points = _fiber_points(ti, tj, 0, 1)
    assert {ProjectivePoint.of(*pt) for pt in points} == {
        ProjectivePoint.of(1, 0, 1),
        ProjectivePoint.of(-1, 0, 1),
    }
    # x^2 + z^2 and x^2 + y^2 + z^2 share the conjugate pair (+-i:0:1)
    conj = ConicForm.parse("x^2+z^2").integer, ConicForm.parse("x^2+y^2+z^2").integer
    assert _fiber_points(*conj, 0, 1) is None
    # one common root on a fiber where the restrictions are not proportional
    tk = ConicForm.parse("x^2+x*y+y^2-z^2").integer
    assert [ProjectivePoint.of(*pt) for pt in _fiber_points(ti, tk, 1, 1)] == [
        ProjectivePoint.of(0, 1, 1)
    ]
    # a fiber that is not a root of the resultant has no common point
    with pytest.raises(AssertionError, match="without a common root"):
        _fiber_points(ti, tj, 1, 1)
    with pytest.raises(AssertionError, match="without a common root"):
        _fiber_points(ti, tk, 1, 2)


# ---------------------------------------------------------------------------
# Scale invariance

_scales = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12)
)


def _scaled(q: ConicForm, c: Fraction) -> ConicForm:
    return ConicForm(*(c * v for v in (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)))


@settings(max_examples=200, deadline=None)
@given(q=_conics, c=_scales)
def test_integer_conic_is_content_free_and_keeps_the_sign_of_the_scale(q, c):
    iq = q.integer
    assert all(type(v) is int for v in iq) and gcd(*iq) == 1
    # a positive multiple of q: one positive ratio over the nonzero coefficients
    assert [v == 0 for v in iq] == [u == 0 for u in _coefficients(q)]
    ratios = {v / u for u, v in zip(_coefficients(q), iq) if u}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert _scaled(q, c).integer == (iq if c > 0 else tuple(-v for v in iq))


def _assert_survey_scale_invariant(arr, scales, assume_qh=False):
    """Scaling each component by a nonzero rational changes no survey output
    and no branch jet; the jet fields stay exact Fractions."""
    moved = ConicArrangement(tuple(_scaled(q, c) for q, c in zip(arr.components, scales)))
    sv = survey(arr, assume_qh=assume_qh)
    tv = survey(moved, assume_qh=assume_qh)
    assert tv.records == sv.records
    assert tv.residual_per_pair == sv.residual_per_pair
    assert tv.complete == sv.complete
    assert tv.residual_transversal == sv.residual_transversal
    for rec in sv.records:
        for i in rec.members:
            jet = branch_jet(moved.components[i], rec.point)
            assert jet == branch_jet(arr.components[i], rec.point)
            assert all(type(v) is Fraction for v in (jet.shear, jet.c2, jet.c3, jet.c4))
    return sv


def _corpus_arrangements():
    from conicfree.corpus import corpus_entries

    return [(e.arrangement(), e.assume_qh) for e in corpus_entries() if e.component_texts]


@settings(max_examples=30, deadline=None)
@given(index=st.integers(0, 14), data=st.data())
def test_survey_invariant_under_scaling_corpus_components(index, data):
    arrangements = _corpus_arrangements()
    assert len(arrangements) == 15
    arr, assume_qh = arrangements[index]
    scales = data.draw(st.lists(_scales, min_size=arr.k, max_size=arr.k))
    _assert_survey_scale_invariant(arr, scales, assume_qh)


def _tangent(q: ConicForm, p: tuple) -> tuple:
    x, y, z = p
    return (
        2 * q.xx * x + q.xy * y + q.xz * z,
        q.xy * x + 2 * q.yy * y + q.yz * z,
        q.xz * x + q.yz * y + 2 * q.zz * z,
    )


def _line_product(t: tuple, m: tuple) -> tuple:
    return (
        t[0] * m[0],
        t[1] * m[1],
        t[2] * m[2],
        t[0] * m[1] + t[1] * m[0],
        t[0] * m[2] + t[2] * m[0],
        t[1] * m[2] + t[2] * m[1],
    )


@st.composite
def _conics_through_a_point(draw):
    """A smooth conic q through a rational point P, with P."""
    from hypothesis import assume

    p = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    base = ConicForm(*draw(st.tuples(*[st.integers(-9, 9)] * 6).filter(any)))
    # m(P)*base - base(P)*m passes through P for the square m of a coordinate
    # that does not vanish at P
    i = next(n for n in range(3) if p[n])
    square = ConicForm(*(1 if n == i else 0 for n in range(6)))
    q = _scaled(base, Fraction(p[i] * p[i])).polynomial() - square.polynomial().scale(
        _conic_at(base, p)
    )
    assume(not q.is_zero())
    q = ConicForm.from_polynomial(q)
    assume(conic_is_smooth(q))
    return q, p


def _line_through(p: tuple, u: tuple) -> tuple:
    """The line through p and u (the zero vector when they coincide)."""
    return tuple(
        p[(k + 1) % 3] * u[(k + 2) % 3] - p[(k + 2) % 3] * u[(k + 1) % 3] for k in range(3)
    )


def _plus_line_pair(q: ConicForm, lam: int, l1: tuple, l2: tuple) -> ConicForm:
    return ConicForm(*(a + lam * b for a, b in zip(_coefficients(q), _line_product(l1, l2))))


@st.composite
def _contact_pairs(draw):
    """q and q + lam*T*M with T the tangent of q at a rational point P of q:
    contact of order 4 (M = T), 3 (M through P) or 2 (M any other line)."""
    from hypothesis import assume

    q, p = draw(_conics_through_a_point())
    t = _tangent(q, p)
    kind = draw(st.sampled_from(["tangent", "through", "other"]))
    if kind == "tangent":
        m = t
    else:
        u = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        m = _line_through(p, u) if kind == "through" else u
    lam = draw(st.integers(-4, 4).filter(bool))
    contact = _plus_line_pair(q, lam, t, m)
    assume(conic_is_smooth(contact))
    assume(not q.is_proportional_to(contact))
    return ConicArrangement((q, contact))


def _coefficients(q: ConicForm) -> tuple:
    return (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)


@settings(max_examples=80, deadline=None)
@given(arr=_contact_pairs(), c1=_scales, c2=_scales)
def test_survey_invariant_under_scaling_contact_pairs(arr, c1, c2):
    sv = _assert_survey_scale_invariant(arr, [c1, c2])
    q1, q2 = arr.components
    pair = rational_pair_intersections(_scaled(q1, c1), _scaled(q2, c2))
    assert pair == rational_pair_intersections(q1, q2)
    assert sum(m for _, m in pair.points) + pair.residual == 4
    assert sv.residual_per_pair[(0, 1)] == pair.residual


# ---------------------------------------------------------------------------
# Distinct common points from the pencil's determinant cubic


def _points_on_line(q: ConicForm, line: tuple) -> list:
    """The common points of q and a line over C, exactly (sympy)."""
    import sympy

    s = sympy.Symbol("s")
    u, v = sympy.Matrix([line]).nullspace()
    # the line is {s*u + v} together with u
    xx, yy, zz, xy, xz, yz = q.integer
    x, y, z = s * u + v
    f = sympy.Poly(xx * x**2 + yy * y**2 + zz * z**2 + xy * x * y + xz * x * z + yz * y * z, s)
    points = [list(r * u + v) for r in sympy.roots(f)]
    if f.degree() < 2:
        points.append(list(u))
    return points


def _distinct_points_oracle(q: ConicForm, l1: tuple, l2: tuple) -> int:
    """How many distinct points q shares with q + lam*l1*l2: those of q on l1
    and on l2, merged when all 2x2 minors of their coordinates vanish."""
    import sympy

    distinct: list = []
    for p in _points_on_line(q, l1) + _points_on_line(q, l2):
        if not any(
            all(sympy.simplify(p[i] * r[j] - p[j] * r[i]) == 0 for i, j in ((0, 1), (0, 2), (1, 2)))
            for r in distinct
        ):
            distinct.append(p)
    return len(distinct)


@st.composite
def _line_pair_pencils(draw):
    """(q, lam, l1, l2) for the pair q, q + lam*l1*l2, with P a rational
    point of q and T its tangent there.  The Segre symbol of the pencil is
    [1,1,1] for general lines, [2,1] for l1 = T, [(1,1),1] for l1 = l2,
    [3] for l1 = T and l2 through P, and [(2,1)] for l1 = l2 = T."""
    from hypothesis import assume

    q, p = draw(_conics_through_a_point())
    lines = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
    l1 = _tangent(q, p) if draw(st.booleans()) else draw(lines)
    kind = draw(st.sampled_from(["same", "through", "other"]))
    l2 = l1 if kind == "same" else draw(lines)
    if kind == "through":
        l2 = _line_through(p, l2)
    assume(any(l2))
    lam = draw(st.integers(-4, 4).filter(bool))
    assume(conic_is_smooth(_plus_line_pair(q, lam, l1, l2)))
    return q, lam, l1, l2


@settings(max_examples=60, deadline=None)
@given(pencil=_line_pair_pencils())
def test_distinct_common_points_match_the_line_pair_oracle(pencil):
    q, lam, l1, l2 = pencil
    count = _distinct_common_points(q, _plus_line_pair(q, lam, l1, l2))
    assert count == _distinct_points_oracle(q, l1, l2)


@settings(max_examples=60, deadline=None)
@given(pencil=_line_pair_pencils())
def test_rank_one_member_reads_the_multiple_root_as_the_gcd_does(pencil):
    """The discriminant rule gives the order of the multiple root that
    gcd(c, c') gives (its degree plus one), and the member there is the
    double line L^2 exactly when l1 = l2 up to scale, with L = l1."""
    q, lam, l1, l2 = pencil
    cubic = determinant_cubic(q.integer, _plus_line_pair(q, lam, l1, l2).integer)
    order, line = rank_one_member(q.integer, _plus_line_pair(q, lam, l1, l2).integer)
    assert order == len(_poly_gcd(cubic, [cubic[1], 2 * cubic[2], 3 * cubic[3]]))
    same = not any(_line_through(l1, l2))
    assert (line is not None) == same
    if same:
        assert not any(_line_through(line, l1)) and order >= 2


# one pair per Segre symbol: the unit circle q with P = (1:0:1) and T = x - z
@pytest.mark.parametrize(
    "l1, l2, lam, count",
    [
        ((1, 1, 0), (1, -1, 2), 1, 4),  # [1,1,1]
        ((1, 0, -1), (0, 1, -2), 2, 3),  # [2,1]
        ((1, 0, -2), (1, 0, -2), 1, 2),  # [(1,1),1], bitangent at conjugate points
        ((1, 0, -1), (1, 1, -1), 2, 2),  # [3]
        ((1, 0, -1), (1, 0, -1), 1, 1),  # [(2,1)]
    ],
)
def test_distinct_common_points_read_each_segre_symbol(l1, l2, lam, count):
    q = ConicForm.parse("x^2+y^2-z^2")
    other = _plus_line_pair(q, lam, l1, l2)
    assert conic_is_smooth(other)
    assert _distinct_points_oracle(q, l1, l2) == count
    assert _distinct_common_points(q, other) == count


_small_conics = st.tuples(*[st.integers(-3, 3)] * 6)


@settings(max_examples=40, deadline=None)
@given(_small_conics, _small_conics)
def test_determinant_cubic_is_det_of_the_pencil(qi, qj):
    import sympy

    t = sympy.symbols("t")

    def matrix(q):
        xx, yy, zz, xy, xz, yz = q
        return sympy.Matrix([[2 * xx, xy, xz], [xy, 2 * yy, yz], [xz, yz, 2 * zz]])

    det = sympy.Poly((matrix(qi) + t * matrix(qj)).det(), t)
    assert determinant_cubic(qi, qj) == [det.coeff_monomial(t**i) for i in range(4)]
