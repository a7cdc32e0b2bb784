"""Singular locus: pair intersections, jets, classification, surveys."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicfree.locus import (
    ConicArrangement,
    JetTable,
    NotSingularError,
    SingType,
    branch_jet,
    classify_point,
    local_intersection_multiplicity,
    rational_pair_intersections,
    survey,
)
from conicfree.poly import ConicForm, ProjectivePoint, conic_is_smooth, dehomogenize

P4_COMPONENTS = [
    "x^2+y^2-z^2",
    "2*x^2+y^2+2*x*z",
    "x^2+y^2+2*x*z",
    "4*x^2+6*y^2+4*x*z-8*z^2",
]
PENCIL_F = "3*x^2+y^2-4*z^2"
PENCIL_G = "x^2+3*y^2-4*z^2"


def _conic_at(q, point):
    """The conic q at a point (a ProjectivePoint or its coordinates), from
    its six coefficients."""
    x, y, z = point.coords() if isinstance(point, ProjectivePoint) else point
    return q.xx * x * x + q.yy * y * y + q.zz * z * z + q.xy * x * y + q.xz * x * z + q.yz * y * z


def _record_at(sv, point):
    """The survey's record at point, or None."""
    return next((rec for rec in sv.records if rec.point == point), None)


def _points_of_type(sv, type_name):
    return [rec.point for rec in sv.records if str(rec.sing_type) == type_name]


def test_pair_single_fourth_order_contact():
    pair = rational_pair_intersections(
        ConicForm.parse(P4_COMPONENTS[1]), ConicForm.parse(P4_COMPONENTS[2])
    )
    assert pair.residual == 0
    assert [(str(p), m) for p, m in pair.points] == [("(0:0:1)", 4)]


def test_pair_four_transverse_rational_points():
    pair = rational_pair_intersections(
        ConicForm.parse(PENCIL_F), ConicForm.parse(PENCIL_G)
    )
    assert pair.residual == 0
    assert sorted(str(p) for p, _ in pair.points) == [
        "(-1:-1:1)",
        "(-1:1:1)",
        "(1:-1:1)",
        "(1:1:1)",
    ]
    assert all(m == 1 for _, m in pair.points)


def test_pair_disjoint_over_the_rationals():
    pair = rational_pair_intersections(
        ConicForm.parse("x^2+y^2-z^2"), ConicForm.parse("x^2+y^2-2*z^2")
    )
    assert pair.points == ()
    assert pair.residual == 4
    # concentric circles are bitangent at the circular points at infinity:
    # two conjugate contacts of order two, correctly not certified transversal
    assert not pair.residual_transversal


def test_pair_residual_transversality_certificate(monkeypatch):
    """The octic's pair whose four complex nodes lie on two conjugate fibers
    of its projection: the determinant cubic still certifies them transversal,
    from the pair's one resultant."""
    import conicfree.locus as locus

    real = locus._resultant_in_x
    resultants = []

    def spy(q1, q2):
        resultants.append((q1, q2))
        return real(q1, q2)

    monkeypatch.setattr(locus, "_resultant_in_x", spy)
    pair = rational_pair_intersections(
        ConicForm.parse(P4_COMPONENTS[1]), ConicForm.parse(P4_COMPONENTS[3])
    )
    assert pair.points == () and pair.residual == 4
    assert pair.residual_transversal
    assert len(resultants) == 1


@pytest.mark.parametrize(
    "q1, q2, transversal",
    [
        # bitangent at two conjugate points: the second conic is the first
        # plus (x - 2*z)^2
        ("x^2+y^2-z^2", "2*x^2+y^2-4*x*z+3*z^2", False),
        # a pencil with four irrational base points
        ("x^2+y^2-3*z^2", "x^2-2*y^2+z^2", True),
    ],
)
def test_pair_residual_transversality_of_irrational_points(q1, q2, transversal):
    pair = rational_pair_intersections(ConicForm.parse(q1), ConicForm.parse(q2))
    assert pair.points == () and pair.residual == 4
    assert pair.residual_transversal is transversal


@pytest.mark.parametrize("wrong", [0, 5])
def test_pair_refuses_a_point_count_that_cannot_carry_the_residual(wrong, monkeypatch):
    """0 unlocated points for a residual of 4, or 5 points for it."""
    import conicfree.locus as locus

    monkeypatch.setattr(locus, "_distinct_common_points", lambda qi, qj: wrong)
    with pytest.raises(AssertionError, match="cannot carry the residual budget 4"):
        rational_pair_intersections(
            ConicForm.parse("x^2+y^2-z^2"), ConicForm.parse("2*x^2+y^2-4*x*z+3*z^2")
        )


def test_pair_rejects_degenerate_input():
    with pytest.raises(ValueError):
        rational_pair_intersections(
            ConicForm.parse("x^2+y^2-z^2"), ConicForm.parse("2*x^2+2*y^2-2*z^2")
        )
    with pytest.raises(ValueError):
        rational_pair_intersections(
            ConicForm.parse("x*y"), ConicForm.parse("x^2+y^2-z^2")
        )


def test_branch_jet_parabola_exact_graph():
    jet = branch_jet(ConicForm.parse("x^2-y*z"), (0, 0, 1))
    assert (jet.c2, jet.c3, jet.c4) == (1, 0, 0)


def test_branch_jet_circle_series():
    jet = branch_jet(ConicForm.parse("x^2+y^2-z^2"), (0, 1, 1))
    assert (jet.c2, jet.c3, jet.c4) == (
        Fraction(-1, 2),
        Fraction(0),
        Fraction(-1, 8),
    )


def test_branch_jet_reproduces_local_equation_to_order_four():
    q = ConicForm.parse("2*x^2+y^2+2*x*z")
    p = ProjectivePoint.of(0, 0, 1)
    jet = branch_jet(q, p)
    g = dehomogenize(q.polynomial(), p)
    if jet.swapped:
        g_terms = {(j, i): c for (i, j), c in g.terms.items()}
    else:
        g_terms = dict(g.terms)
    # substitute u = t, v = c2 t^2 + c3 t^3 + c4 t^4 and expand to order 4
    series = {1: Fraction(0), 2: jet.c2, 3: jet.c3, 4: jet.c4}
    shear = jet.shear
    coeffs = {k: Fraction(0) for k in range(5)}
    for (i, j), c in g_terms.items():
        # v_original = v_new - shear * u; expand (t, series(t) - shear*t)^(i,j)
        base = {1: -shear}
        base.update({k: series[k] for k in (2, 3, 4)})
        # multiply out c * t^i * (sum base_k t^k)^j keeping order <= 4
        acc = {0: Fraction(1)}
        for _ in range(j):
            nxt: dict[int, Fraction] = {}
            for da, va in acc.items():
                for db, vb in base.items():
                    if da + db <= 4:
                        nxt[da + db] = nxt.get(da + db, Fraction(0)) + va * vb
            acc = nxt
        for deg, val in acc.items():
            if i + deg <= 4:
                coeffs[i + deg] += c * val
    assert all(v == 0 for v in coeffs.values())


def test_branch_jet_requires_point_on_conic():
    with pytest.raises(ValueError):
        branch_jet(ConicForm.parse("x^2+y^2-z^2"), (0, 0, 1))


@pytest.mark.parametrize("jets", [None, {}, JetTable()])
def test_multiplicity_refuses_a_singular_point_of_a_conic(jets):
    """The line pair x*y is singular at (0:0:1), where the tangents are read."""
    line_pair, parabola = ConicForm.parse("x*y"), ConicForm.parse("x^2-y*z")
    with pytest.raises(ValueError, match="conic is singular at"):
        local_intersection_multiplicity(line_pair, parabola, (0, 0, 1), jets=jets)


def test_local_multiplicity_ladder():
    # transverse intersection at a pencil base point
    assert (
        local_intersection_multiplicity(
            ConicForm.parse(PENCIL_F), ConicForm.parse(PENCIL_G), (1, 1, 1)
        )
        == 1
    )
    # tacnode: second order contact
    assert (
        local_intersection_multiplicity(
            ConicForm.parse("2*x^2+y^2+2*x*z"),
            ConicForm.parse("2*x^2+y^2-2*x*z"),
            (0, 0, 1),
        )
        == 2
    )
    # fourth order contact
    assert (
        local_intersection_multiplicity(
            ConicForm.parse(P4_COMPONENTS[1]),
            ConicForm.parse(P4_COMPONENTS[2]),
            (0, 0, 1),
        )
        == 4
    )


def test_classify_tacnode_triple_and_a7():
    arr = ConicArrangement.from_texts(
        ["2*x^2+y^2+2*x*z", "2*x^2+y^2-2*x*z"]
    )
    rec = classify_point(arr, (0, 0, 1))
    assert str(rec.sing_type) == "A3" and rec.mu == rec.tau == 3

    arr = ConicArrangement.from_texts(
        ["-3*x^2+x*y+y*z+z*x", "-3*y^2+x*y+y*z+z*x", "-3*z^2+x*y+y*z+z*x"]
    )
    rec = classify_point(arr, (1, 1, 1))
    assert str(rec.sing_type) == "D4" and rec.mu == rec.tau == 4

    arr = ConicArrangement.from_texts([P4_COMPONENTS[1], P4_COMPONENTS[2]])
    rec = classify_point(arr, (0, 0, 1))
    assert str(rec.sing_type) == "A7" and rec.tau == 7


def test_classify_requires_two_components():
    arr = ConicArrangement.from_texts(["x^2+y^2-z^2", "x^2+y^2-4*z^2"])
    with pytest.raises(NotSingularError):
        classify_point(arr, (0, 1, 1))


def test_classify_ordinary_multiplicity_and_qh_flag():
    comps = [PENCIL_F, PENCIL_G] + [
        f"({PENCIL_F})+{lam}*({PENCIL_G})" for lam in (1, 2, 3)
    ]
    arr = ConicArrangement.from_texts(comps)
    rec = classify_point(arr, (1, 1, 1))
    assert str(rec.sing_type) == "ordinary(5)"
    assert rec.mu == 16 and rec.tau is None
    rec_qh = classify_point(arr, (1, 1, 1), assume_qh=True)
    assert rec_qh.tau == 16


def test_survey_p4_finds_the_collinear_contact_points():
    sv = survey(ConicArrangement.from_texts(P4_COMPONENTS))
    assert sorted(str(p) for p in _points_of_type(sv, "A7")) == [
        "(-1:0:1)",
        "(-2:0:1)",
        "(0:0:1)",
        "(1:0:1)",
    ]
    assert sv.inventory() == {"A7": 4}
    assert not sv.complete  # the eight nodes are complex
    assert sv.residual_transversal
    assert sum(sv.residual_per_pair.values()) == 8


def test_survey_bezout_bookkeeping():
    for texts in (
        P4_COMPONENTS,
        ["-3*x^2+x*y+y*z+z*x", "-3*y^2+x*y+y*z+z*x", "-3*z^2+x*y+y*z+z*x"],
        [f"x*z+{i}*x^2+y^2" for i in (1, 2, 3)],
    ):
        arr = ConicArrangement.from_texts(texts)
        sv = survey(arr)
        k = arr.k
        for i in range(k):
            for j in range(i + 1, k):
                located = sum(rec.mult(i, j) for rec in sv.records)
                assert located + sv.residual_per_pair[(i, j)] == 4


def test_survey_classification_order_independent():
    texts = [
        "-3*x^2+x*y+y*z+z*x",
        "-3*y^2+x*y+y*z+z*x",
        "-3*z^2+x*y+y*z+z*x",
    ]
    sv1 = survey(ConicArrangement.from_texts(texts))
    sv2 = survey(ConicArrangement.from_texts(list(reversed(texts))))
    # same points, same multiset of types, permuted member indices
    assert [str(r.point) for r in sv1.records] == [str(r.point) for r in sv2.records]
    assert sorted(str(r.sing_type) for r in sv1.records) == sorted(
        str(r.sing_type) for r in sv2.records
    )


def test_pair_mults_symmetric_by_construction():
    arr = ConicArrangement.from_texts(
        ["-3*x^2+x*y+y*z+z*x", "-3*y^2+x*y+y*z+z*x", "-3*z^2+x*y+y*z+z*x"]
    )
    rec = classify_point(arr, (1, 1, 1))
    for i in rec.members:
        for j in rec.members:
            if i != j:
                assert rec.mult(i, j) == rec.mult(j, i) >= 1


def _conic_from(coeffs):
    from conicfree.poly import HomogeneousPolynomial

    xx, yy, zz, xy, xz, yz = coeffs
    terms = {
        (2, 0, 0): xx,
        (0, 2, 0): yy,
        (0, 0, 2): zz,
        (1, 1, 0): xy,
        (1, 0, 1): xz,
        (0, 1, 1): yz,
    }
    f = HomogeneousPolynomial(2, terms)
    if f.is_zero():
        return None
    q = ConicForm.from_polynomial(f)
    from conicfree.poly import conic_is_smooth

    return q if conic_is_smooth(q) else None


def _rational_solutions_oracle(q1, q2):
    """Rational common points by a resultant and factorization over QQ (sympy)."""
    import sympy

    x, y, z = sympy.symbols("x y z")

    def expr(q):
        total = 0
        for (i, j, k), c in q.polynomial().terms.items():
            total += sympy.Rational(c.numerator, c.denominator) * x**i * y**j * z**k
        return sympy.expand(total)

    def rational_roots(f, var):
        _, factors = sympy.factor_list(f, var, domain="QQ")
        roots = []
        for factor, _ in factors:
            poly = sympy.Poly(factor, var)
            if poly.degree() == 1:
                a, b = poly.all_coeffs()
                roots.append(-b / a)
        return roots

    def common_roots(f, g, var):
        return rational_roots(sympy.gcd(f, g), var)

    e1, e2 = expr(q1), expr(q2)
    found = set()
    # affine chart z = 1: every common point has x among the resultant's roots
    a1, a2 = e1.subs(z, 1), e2.subs(z, 1)
    for vx in rational_roots(sympy.resultant(a1, a2, y), x):
        for vy in common_roots(a1.subs(x, vx), a2.subs(x, vx), y):
            found.add(ProjectivePoint.of(Fraction(str(vx)), Fraction(str(vy)), 1))
    # line z = 0, chart y = 1
    for vx in common_roots(e1.subs({z: 0, y: 1}), e2.subs({z: 0, y: 1}), x):
        found.add(ProjectivePoint.of(Fraction(str(vx)), 1, 0))
    # the remaining point (1:0:0)
    if _conic_at(q1, (1, 0, 0)) == 0 and _conic_at(q2, (1, 0, 0)) == 0:
        found.add(ProjectivePoint.of(1, 0, 0))
    return found


def _coefficients(q):
    return [q.xx, q.yy, q.zz, q.xy, q.xz, q.yz]


def _det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adjugate(m):
    """adj(m) = det(m) * m^-1, so adj(m) maps points like m^-1."""
    return [
        [
            m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _apply(m, p):
    return tuple(sum(m[i][k] * p[k] for k in range(3)) for i in range(3))


def _pull_back(q, m):
    """The conic v -> q(m v); a point p of q maps to m^-1 p on it."""
    h = Fraction(1, 2)
    s = [
        [q.xx, h * q.xy, h * q.xz],
        [h * q.xy, q.yy, h * q.yz],
        [h * q.xz, h * q.yz, q.zz],
    ]
    r = [
        [sum(m[k][a] * s[k][l] * m[l][b] for k in range(3) for l in range(3)) for b in range(3)]
        for a in range(3)
    ]
    return ConicForm(r[0][0], r[1][1], r[2][2], 2 * r[0][1], 2 * r[0][2], 2 * r[1][2])


def _conic_through(rng, points):
    """A random smooth integer conic through the given points, or None."""
    import sympy

    rows = [[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in points]
    basis = sympy.Matrix(rows or [[0] * 6]).nullspace()
    combo = sum((rng.randint(-3, 3) * v for v in basis), sympy.zeros(6, 1))
    den = sympy.ilcm(1, *(sympy.fraction(c)[1] for c in combo))
    return _conic_from(tuple(int(c * den) for c in combo))


@settings(max_examples=40, deadline=None)
@given(
    c1=st.tuples(*[st.integers(-4, 4)] * 6),
    c2=st.tuples(*[st.integers(-4, 4)] * 6),
)
def test_pair_scan_bezout_bookkeeping_random(c1, c2):
    from hypothesis import assume

    q1, q2 = _conic_from(c1), _conic_from(c2)
    assume(q1 is not None and q2 is not None)
    assume(not q1.is_proportional_to(q2))
    pair = rational_pair_intersections(q1, q2)
    # Bezout bookkeeping holds on arbitrary smooth pairs
    assert sum(m for _, m in pair.points) + pair.residual == 4
    for pt, mult in pair.points:
        assert _conic_at(q1, pt) == 0 and _conic_at(q2, pt) == 0
        assert 1 <= mult <= 4


def test_pair_scan_against_independent_solver():
    """Located rational points match an independent solver on a fixed sample.

    Besides the named pairs, the sample plants up to three common points
    from a pool that includes points on the line z = 0, among them (0:1:0):
    through it both conics lose their y^2 term, so in the chart z = 1 the
    leading coefficients in y vanish at a root of the resultant.
    """
    import random

    rng = random.Random(424242)
    on_z0 = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -3, 0)]
    pool = on_z0 + [(0, 0, 1), (1, 2, 1), (-1, 1, 2), (3, -1, 1)]
    pairs = [
        # the named pairs exercised elsewhere, plus deterministic random ones
        (ConicForm.parse(P4_COMPONENTS[0]), ConicForm.parse(P4_COMPONENTS[3]), ()),
        (ConicForm.parse(PENCIL_F), ConicForm.parse(PENCIL_G), ()),
        (ConicForm.parse("x^2-y*z"), ConicForm.parse("x^2-y*z+3*y^2"), ()),
    ]
    while len(pairs) < 120:
        planted = rng.sample(pool, rng.randint(0, 3))
        q1, q2 = _conic_through(rng, planted), _conic_through(rng, planted)
        if q1 is None or q2 is None or q1.is_proportional_to(q2):
            continue
        pairs.append((q1, q2, planted))
    # pairs with 9- to 12-digit coefficients: planted pairs seen through an
    # integer change of coordinates
    large_rng = random.Random(515151)
    large = []
    while len(large) < 16:
        planted = large_rng.sample(pool, large_rng.randint(0, 3))
        q1, q2 = _conic_through(large_rng, planted), _conic_through(large_rng, planted)
        m = [[large_rng.choice([-1, 1]) * large_rng.randint(300, 6000) for _ in range(3)] for _ in range(3)]
        if q1 is None or q2 is None or q1.is_proportional_to(q2) or _det(m) == 0:
            continue
        q1, q2 = _pull_back(q1, m), _pull_back(q2, m)
        size = max(abs(c) for c in _coefficients(q1) + _coefficients(q2))
        if not 10**8 <= size < 10**12:
            continue
        large.append((q1, q2, [_apply(_adjugate(m), pt) for pt in planted]))
    on_line = vanishing_lead = 0
    for index, (q1, q2, planted) in enumerate(pairs + large):
        pair = rational_pair_intersections(q1, q2)
        expected = _rational_solutions_oracle(q1, q2)
        assert {ProjectivePoint.of(*pt) for pt in planted} <= expected
        assert {pt for pt, _ in pair.points} == expected
        if index < len(pairs):
            on_line += any(pt.z == 0 for pt in expected)
            vanishing_lead += _conic_at(q1, (0, 1, 0)) == 0 == _conic_at(q2, (0, 1, 0))
    assert on_line >= 20 and vanishing_lead >= 10
    assert sum(len(planted) for _, _, planted in large) >= 10


@settings(max_examples=20, deadline=None)
@given(c=st.integers(1, 6), lin=st.integers(0, 3))
def test_mu_formula_for_a_series(c, lin):
    """Two-branch contact of order m yields mu = 2m - 1, type A_{2m-1}."""
    q1 = ConicForm.parse("x^2-y*z")
    q2 = ConicForm.parse(f"x^2-y*z+{c}*y^2" + (f"+{lin}*x*y" if lin else ""))
    arr = ConicArrangement(components=(q1, q2))
    m = local_intersection_multiplicity(q1, q2, (0, 0, 1))
    rec = classify_point(arr, (0, 0, 1))
    assert rec.mu == 2 * m - 1
    assert str(rec.sing_type) == f"A{2 * m - 1}"


def _jet_rule(qi, qj, point):
    """The multiplicity by the fourth-order jet rule: both branch jets built,
    then compared term by term (tangent, c2, c3, c4)."""
    ji, jj = branch_jet(qi, point), branch_jet(qj, point)
    for order, field in enumerate(("tangent", "c2", "c3", "c4"), start=1):
        if getattr(ji, field) != getattr(jj, field):
            return order
    raise AssertionError("the conics agree to order 4")


def _line_product(a, b):
    """The conic a*b of two lines given by their (x, y, z) coefficients."""
    return (
        a[0] * b[0],
        a[1] * b[1],
        a[2] * b[2],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[2] * b[0],
        a[1] * b[2] + a[2] * b[1],
    )


_small = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(
    c=st.integers(1, 4),
    q=st.tuples(_small, _small, _small, _small, _small),
    secant=st.tuples(_small, _small),
    off=st.tuples(_small, _small, st.sampled_from([-2, -1, 1, 3])),
    lam=st.sampled_from([-3, -2, -1, 1, 2, 3]),
    m=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
def test_tangents_first_agree_with_the_jet_rule_on_planted_contact(c, q, secant, off, lam, m):
    """q through P = (0:0:1) with tangent T there, and q' = q + lam*A*B with
    A*B = S*N, T*N, T*S or T*T (S a secant through P, N a line off it), so
    that q and q' meet at P with multiplicity c = 1..4.  Moved by a rational
    PGL(3), the multiplicity read from the tangents first equals c and the
    jet rule, with or without tables; a point off a conic still raises."""
    xx, yy, xy, xz, yz = q
    tangent, secant = (xz, yz, 0), (*secant, 0)
    assume(secant[0] * tangent[1] != secant[1] * tangent[0])
    lines = {1: (secant, off), 2: (tangent, off), 3: (tangent, secant), 4: (tangent, tangent)}[c]
    base = ConicForm(xx, yy, 0, xy, xz, yz)
    touching = ConicForm(
        *(u + lam * v for u, v in zip((xx, yy, 0, xy, xz, yz), _line_product(*lines)))
    )
    assume(conic_is_smooth(base) and conic_is_smooth(touching))
    move = [m[0:3], m[3:6], m[6:9]]
    assume(_det(move) != 0)
    qi, qj = _pull_back(base, move), _pull_back(touching, move)
    point = ProjectivePoint.of(*_apply(_adjugate(move), (0, 0, 1)))
    assert _conic_at(qi, point) == _conic_at(qj, point) == 0
    for jets in (None, {}, JetTable()):
        assert local_intersection_multiplicity(qi, qj, point, jets=jets) == c
    assert _jet_rule(qi, qj, point) == c
    # a smooth conic holds at most two of three points on the line z = 0
    outside = next(
        ProjectivePoint.of(*pt) for pt in ((1, 0, 0), (0, 1, 0), (1, 1, 0)) if _conic_at(qi, pt) != 0
    )
    for jets in (None, JetTable()):
        with pytest.raises(ValueError, match="does not lie on the conic"):
            local_intersection_multiplicity(qi, qj, outside, jets=jets)


def _spy_on_branch_jets(monkeypatch):
    """The (integer conic, point) of every branch_jet the survey builds."""
    import conicfree.locus as locus

    built = []
    real = locus.branch_jet

    def counting(q, p):
        built.append((q.integer, p))
        return real(q, p)

    monkeypatch.setattr(locus, "branch_jet", counting)
    return built


@pytest.mark.parametrize("name", ["pencil_m8", "contact_triple", "celal_three_conics"])
def test_survey_builds_a_branch_jet_only_where_two_conics_share_a_tangent(name, monkeypatch):
    """Transverse pairs are told from their tangents: the 8-member pencil,
    whose 4 base points are ordinary, builds no jet at all.  Where two
    conics touch, each of them gets one jet at that point, and no more."""
    from conicfree.corpus import entry

    f, g = PENCIL_F, PENCIL_G
    arr = {
        "pencil_m8": lambda: ConicArrangement.from_texts(
            [f, g] + [f"({f})+{lam}*({g})" for lam in range(1, 7)]
        ),
        "contact_triple": lambda: ConicArrangement.from_texts(CONTACT_TRIPLE),
        "celal_three_conics": lambda: entry("celal_three_conics").arrangement(),
    }[name]()
    built = _spy_on_branch_jets(monkeypatch)
    sv = survey(arr)
    assert sv.complete
    contacts = {
        (arr.components[c].integer, rec.point)
        for rec in sv.records
        for pair, m in rec.pair_mults.items()
        if m > 1
        for c in pair
    }
    assert len(built) == len(set(built)) and set(built) == contacts
    assert len(built) == {"pencil_m8": 0, "contact_triple": 4, "celal_three_conics": 6}[name]


def test_jet_table_is_keyed_by_the_integer_conic():
    """A jet depends only on the integer conic and the point, so a scaled
    copy of a component finds the jet its original left in the table."""
    q, r = ConicForm.parse("x^2-y*z"), ConicForm.parse("x^2-y*z+3*y^2")
    p = ProjectivePoint.of(0, 0, 1)
    jets = {}
    assert local_intersection_multiplicity(q, r, p, jets=jets) == 4
    assert jets.keys() == {(q.integer, p), (r.integer, p)}
    half = ConicForm(*(Fraction(-1, 2) * c for c in (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)))
    assert half.integer == tuple(-v for v in q.integer)
    assert local_intersection_multiplicity(half, r, p, jets=jets) == 4
    assert len(jets) == 3 and jets[(half.integer, p)] == branch_jet(half, p)
    third = ConicForm(*(Fraction(1, 3) * c for c in (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)))
    assert local_intersection_multiplicity(third, r, p, jets=jets) == 4
    assert len(jets) == 3


def _moved_corpus_arrangements():
    """(entry, arrangement, [(m, moved arrangement)] * 3) for the 15 corpus
    arrangements, each moved by three seeded rational PGL(3) changes of
    coordinates m."""
    import random

    from conicfree.corpus import corpus_entries

    rng = random.Random(20231)
    entries = [e for e in corpus_entries() if e.component_texts]
    assert len(entries) == 15
    for e in entries:
        arr = e.arrangement()
        moves = []
        for _ in range(3):
            while True:
                m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
                if _det(m) != 0:
                    break
            moves.append((m, ConicArrangement(tuple(_pull_back(q, m) for q in arr.components))))
        yield e, arr, moves


def test_survey_invariant_under_rational_coordinate_changes():
    """Random rational PGL(3) changes of coordinates of the corpus arrangements
    keep the points and types, the pair multiplicities, the residuals and the
    completeness, and the surveyed points map onto the transformed survey's."""
    for e, arr, moves in _moved_corpus_arrangements():
        sv = survey(arr, assume_qh=e.assume_qh)
        for m, moved in moves:
            tv = survey(moved, assume_qh=e.assume_qh)
            assert tv.inventory() == sv.inventory()
            assert tv.residual_per_pair == sv.residual_per_pair
            assert tv.complete == sv.complete
            inverse = _adjugate(m)
            images = []
            for rec in sv.records:
                image = _record_at(tv, ProjectivePoint.of(*_apply(inverse, rec.point.coords())))
                assert image is not None, (e.name, rec.point)
                assert (image.members, image.pair_mults, image.sing_type, image.mu, image.tau) == (
                    rec.members, rec.pair_mults, rec.sing_type, rec.mu, rec.tau
                )
                images.append(image.point)
            assert sorted(images, key=lambda p: p.coords()) == [r.point for r in tv.records]


def _invariants(arr, assume_qh):
    """d1, tau, nu, the verdict, the effective inventory and whether a
    modular point proves the arrangement supersolvable, from the analysis
    document of the arrangement's curve."""
    from conicfree.report import analysis_document, analyze_curve

    analysis = analyze_curve(arr.polynomial(), arrangement=arr, assume_qh=assume_qh)
    doc = analysis_document(analysis, supersolvable=True)
    checks = doc["checks"]
    return (
        doc["mdr"]["d1"],
        analysis.tau,
        doc["freeness"]["nu"],
        doc["freeness"]["verdict"],
        checks["effective_inventory"],
        checks["supersolvable"]["modular_point"] is not None,
    )


def test_analysis_invariant_under_rational_coordinate_changes():
    """The same changes of coordinates keep d1, tau, nu, the verdict, the
    effective inventory and the supersolvability answer of the analysis.
    The moved conics are denser: their relation walks run Dixon's lifting,
    which the corpus's own kernels never need."""
    for e, arr, moves in _moved_corpus_arrangements():
        expected = _invariants(arr, e.assume_qh)
        assert expected[1] == e.expected.get("tau", expected[1]), e.name
        for _, moved in moves:
            assert _invariants(moved, e.assume_qh) == expected, e.name


def _bench_inputs():
    """The benchmark's input generators (perfbench/inputs.py)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_INPUTS = _bench_inputs()


def _records_match_classify_point(arr, assume_qh=False):
    """Every survey record equals classify_point, which measures the pair
    multiplicities from branch jets instead of reading the pair scans."""
    sv = survey(arr, assume_qh=assume_qh)
    for rec in sv.records:
        assert classify_point(arr, rec.point, assume_qh) == rec, rec.point
    return sv


def test_survey_records_match_classify_point_on_the_corpus():
    from conicfree.corpus import corpus_entries

    entries = [e for e in corpus_entries() if e.component_texts]
    records = [_records_match_classify_point(e.arrangement(), e.assume_qh).records for e in entries]
    assert len(entries) == 15 and all(records)



@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), contact=st.sampled_from([2, 3, 4]))
def test_survey_records_match_classify_point_on_planted_pairs(seed, contact):
    import random

    conics, expect = BENCH_INPUTS._planted_pair(random.Random(seed), contact, (1, 64))
    arr = ConicArrangement.from_texts([BENCH_INPUTS.conic_text(q) for q in conics])
    sv = _records_match_classify_point(arr)
    assert expect["type"] in {str(rec.sing_type) for rec in sv.records}


def test_survey_refuses_a_point_a_member_pair_scan_missed(monkeypatch):
    """The three pencil members meet at four base points; if the scan of the
    first pair locates none of them, classifying them must fail, not guess."""
    import dataclasses

    import conicfree.locus as locus

    arr = ConicArrangement.from_texts([PENCIL_F, PENCIL_G, f"({PENCIL_F})+({PENCIL_G})"])
    real = locus._pair_scan
    scans = []

    def first_pair_blind(*args):
        scans.append(real(*args))
        return dataclasses.replace(scans[-1], points=()) if len(scans) == 1 else scans[-1]

    monkeypatch.setattr(locus, "_pair_scan", first_pair_blind)
    with pytest.raises(AssertionError, match="located"):
        survey(arr)


def test_survey_refuses_a_pair_scan_that_misses_a_base_point_of_its_pencil(monkeypatch):
    """The first pair of the pencil F, G, F + G is the only one scanned; if
    its scan drops one of the four base points, the later pairs would take
    three points from it and the survey would pass as merely incomplete.
    The scanned pair's located multiplicities and residual make three, not
    four, so the survey refuses it."""
    import dataclasses

    import conicfree.locus as locus

    arr = ConicArrangement.from_texts([PENCIL_F, PENCIL_G, f"({PENCIL_F})+({PENCIL_G})"])
    real = locus._pair_scan

    def drops_a_point(*args):
        pair = real(*args)
        return dataclasses.replace(pair, points=pair.points[:-1])

    monkeypatch.setattr(locus, "_pair_scan", drops_a_point)
    with pytest.raises(AssertionError, match="located"):
        survey(arr)


def _survey_matches_the_pair_oracle(arr, assume_qh=False):
    """Every pair's multiplicities over the survey records and its residual
    equal a standalone rational_pair_intersections of the pair, and the
    survey equals one that root-searches every pair's whole resultant."""
    import conicfree.locus as locus

    sv = survey(arr, assume_qh=assume_qh)
    for (i, j), residual in sv.residual_per_pair.items():
        oracle = rational_pair_intersections(arr.components[i], arr.components[j])
        assert {rec.point: rec.mult(i, j) for rec in sv.records if rec.mult(i, j)} == dict(
            oracle.points
        ), (i, j)
        assert residual == oracle.residual, (i, j)
    real = locus._pair_scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locus, "_pair_scan", lambda qi, qj, known, jets: real(qi, qj, [], jets))
        assert survey(arr, assume_qh=assume_qh) == sv
    return sv


def test_survey_pairs_match_the_pair_oracle_on_the_corpus():
    from conicfree.corpus import corpus_entries

    entries = [e for e in corpus_entries() if e.component_texts]
    assert len(entries) == 15
    for e in entries:
        _survey_matches_the_pair_oracle(e.arrangement(), e.assume_qh)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(4, 8))
def test_survey_pairs_match_the_pair_oracle_on_shuffled_bench_pencils(seed, k):
    import random

    rng = random.Random(seed)
    members, expect = BENCH_INPUTS._pencil(rng, k)
    rng.shuffle(members)
    arr = ConicArrangement.from_texts([BENCH_INPUTS.conic_text(q) for q in members])
    sv = _survey_matches_the_pair_oracle(arr)
    assert sv.inventory() == {f"ordinary({k})": 4} and sv.complete
    assert [rec.point for rec in sv.records] == sorted(
        (ProjectivePoint.parse(p) for p in expect["base_points"]), key=lambda p: p.coords()
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_survey_pairs_match_the_pair_oracle_on_moved_pencils(seed):
    import random

    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        if _det(m) != 0:
            break
    f, g = PENCIL_F, PENCIL_G
    pencil = ConicArrangement.from_texts([f, g] + [f"({f})+{lam}*({g})" for lam in range(1, 5)])
    moved = ConicArrangement(tuple(_pull_back(q, m) for q in pencil.components))
    sv = _survey_matches_the_pair_oracle(moved)
    assert sv.inventory() == {"ordinary(6)": 4} and sv.complete


# Pencils of the members s*F + t*G, with a rational base point P of every
# member, or None where the base points are all irrational:
#   "four": y*z - x*z and x*z - x*y, base points (1:0:0), (0:1:0), (0:0:1), (1:1:1);
#   "conjugate": x^2 + y^2 - z^2 and y*(y - 2*z), base points (1:0:1), (-1:0:1)
#     and the conjugate pair (+-sqrt(-3):2:1);
#   "a3": x^2 + y^2 - z^2 and y^2, two A3 points (1:0:1), (-1:0:1);
#   "a7": x^2 + y^2 - z^2 and (y - z)^2, tangent at its one A7 point (0:1:1);
#   "irrational": x^2 - 2*z^2 and y^2 - 3*z^2, base points (+-sqrt2:+-sqrt3:1).
PENCIL_FAMILIES = {
    "four": ((0, 0, 0, 0, -1, 1), (0, 0, 0, -1, 1, 0), (1, 0, 0)),
    "conjugate": ((1, 1, -1, 0, 0, 0), (0, 1, 0, 0, 0, -2), (1, 0, 1)),
    "a3": ((1, 1, -1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 1)),
    "a7": ((1, 1, -1, 0, 0, 0), (0, 1, 1, 0, 0, -2), (0, 1, 1)),
    "irrational": ((1, 0, -2, 0, 0, 0), (0, 1, -3, 0, 0, 0), None),
}


def _spy_on_pair_results(monkeypatch):
    """(integer conic, integer conic) -> PairIntersections for every pair
    the survey scans (locus._pair_scan), and the same for every pair that
    takes its pencil's scan (locus._pencil_scan)."""
    import conicfree.locus as locus

    scanned, inherited = {}, {}
    for name, results in (("_pair_scan", scanned), ("_pencil_scan", inherited)):

        def spy(qi, qj, *args, real=getattr(locus, name), results=results):
            results[qi.integer, qj.integer] = real(qi, qj, *args)
            return results[qi.integer, qj.integer]

        monkeypatch.setattr(locus, name, spy)
    return scanned, inherited


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(sorted(PENCIL_FAMILIES)),
    lams=st.lists(
        st.tuples(st.integers(1, 3), st.integers(-6, 6)),
        min_size=3,
        max_size=6,
        unique_by=lambda st_: Fraction(st_[1], st_[0]),
    ),
    outside=st.tuples(*[st.integers(-4, 4)] * 6),
    data=st.data(),
    position=st.integers(0, 6),
    m=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
def test_every_pencil_pair_matches_its_own_pair_scan(family, lams, outside, data, position, m):
    """A pencil of 3-6 members (rational base points, a conjugate pair of
    them, a double line giving A3 or A7 points, or no rational base point)
    and one conic outside it (through a rational base point P or not), at a
    drawn position, moved by a random integer PGL(3).  The survey scans the pencil once, and every
    pair's points, multiplicities, residual and transversality equal
    rational_pair_intersections of that pair alone."""
    from math import comb

    from conicfree.locus import _evaluate
    from conicfree.poly import pencil_key

    f, g, base = PENCIL_FAMILIES[family]
    members = [tuple(s * u + t * v for u, v in zip(f, g)) for s, t in lams]
    members = [q for q in members if conic_is_smooth(ConicForm(*q))]
    assume(len(members) >= 3)
    if base is not None and data.draw(st.booleans(), label="through"):
        # subtract q(P) from the square of P's first nonzero coordinate, 1 at P
        square = next(c for c in range(3) if base[c])
        value = _evaluate(outside, *base)
        outside = tuple(c - value * (n == square) for n, c in enumerate(outside))
    assume(any(outside) and conic_is_smooth(ConicForm(*outside)))
    assume(pencil_key(f, g) not in (pencil_key(f, outside), pencil_key(g, outside)))
    move = [m[0:3], m[3:6], m[6:9]]
    assume(_det(move) != 0)
    conics = members[:position] + [outside] + members[position:]
    arr = ConicArrangement(tuple(_pull_back(ConicForm(*q), move) for q in conics))
    with pytest.MonkeyPatch.context() as mp:
        scanned, inherited = _spy_on_pair_results(mp)
        sv = survey(arr)
    assert len(inherited) == comb(len(members), 2) - 1
    assert len(scanned) + len(inherited) == comb(arr.k, 2)
    oracles = {}
    for i, j in sv.residual_per_pair:
        qi, qj = arr.components[i], arr.components[j]
        oracle = oracles[i, j] = rational_pair_intersections(qi, qj)
        surveyed = scanned.get((qi.integer, qj.integer)) or inherited[qi.integer, qj.integer]
        assert surveyed == oracle, (i, j)
        assert {rec.point: rec.mult(i, j) for rec in sv.records if rec.mult(i, j)} == dict(
            oracle.points
        ), (i, j)
        assert sv.residual_per_pair[i, j] == oracle.residual, (i, j)
    assert sv.residual_transversal == all(
        o.residual_transversal for o in oracles.values() if o.residual
    )


@settings(max_examples=200, deadline=None)
@given(
    qa=st.tuples(*[st.integers(-9, 9)] * 6),
    qb=st.tuples(*[st.integers(-9, 9)] * 6),
    change=st.tuples(*[st.integers(-5, 5)] * 4),
    shear=st.tuples(st.integers(-2, 4), st.integers(-2, 4)),  # the shears of locus._SHEAR_GRID
)
def test_resultant_of_two_pencil_members_is_a_square_multiple(qa, qb, change, shear):
    """Under one shear, the Bezoutian of (alpha*q_a + beta*q_b, gamma*q_a +
    delta*q_b) is exactly (alpha*delta - beta*gamma)^2 times that of (q_a,
    q_b), with the same fibers and root orders where both are nonzero."""
    from conicfree.locus import _binary_form_fibers, _resultant_in_x, _shear_conic

    alpha, beta, gamma, delta = change
    qi = tuple(alpha * u + beta * v for u, v in zip(qa, qb))
    qj = tuple(gamma * u + delta * v for u, v in zip(qa, qb))
    a, b = shear
    res = _resultant_in_x(_shear_conic(qa, a, b), _shear_conic(qb, a, b))
    det = alpha * delta - beta * gamma
    assert _resultant_in_x(_shear_conic(qi, a, b), _shear_conic(qj, a, b)) == [
        det * det * c for c in res
    ]
    if det and any(res):
        fibers = _binary_form_fibers(res)
        assert _binary_form_fibers([det * det * c for c in res]) == fibers


def test_survey_refuses_a_wrong_multiplicity_on_a_pair_that_takes_its_pencil_scan(monkeypatch):
    """In the pencil F, G, F + G only the pair (0, 1) is scanned; a
    multiplicity that is wrong on the pair (1, 2) alone, at one base point,
    must still be refused."""
    import conicfree.locus as locus

    arr = ConicArrangement.from_texts([PENCIL_F, PENCIL_G, f"({PENCIL_F})+({PENCIL_G})"])
    pair = {arr.components[1].integer, arr.components[2].integer}
    base = ProjectivePoint.of(1, 1, 1)
    real = locus.local_intersection_multiplicity

    def corrupted(qi, qj, p, *, jets=None):
        if {qi.integer, qj.integer} == pair and p == base:
            return 2
        return real(qi, qj, p, jets=jets)

    scanned, inherited = _spy_on_pair_results(monkeypatch)
    assert survey(arr).inventory() == {"D4": 4}
    assert len(scanned) == 1 and len(inherited) == 2
    monkeypatch.setattr(locus, "local_intersection_multiplicity", corrupted)
    with pytest.raises(AssertionError, match="pencil's scanned pair"):
        survey(arr)


# x^2 - y*z and x^2 + y^2 - 2*y*z = (x^2 - y*z) + y*(y - z) meet on y*(y - z):
# tangent at P = (0:0:1) (the tangent line y = 0) and transversally at
# Q = (1:1:1) and R = (-1:1:1).  The first component passes through P, Q and R,
# so the first two pairs locate all three before the contact pair comes up.
CONTACT_TRIPLE = ["x^2+x*y-x*z+y^2-2*y*z", "x^2-y*z", "x^2+y^2-2*y*z"]


def _spy_on_root_searches(monkeypatch, name="_rational_roots"):
    """The polynomials the survey root-searches (locus._rational_roots), or
    the binary forms whose fibers it takes (name="_binary_form_fibers")."""
    import conicfree.locus as locus

    real = getattr(locus, name)
    searched = []

    def spy(coeffs):
        searched.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(locus, name, spy)
    return searched


def test_contact_pair_is_certified_from_known_points(monkeypatch):
    arr = ConicArrangement.from_texts(CONTACT_TRIPLE)
    searched = _spy_on_root_searches(monkeypatch)
    sv = survey(arr)
    assert len(searched) == 2
    P, Q, R = (ProjectivePoint.of(*p) for p in ((0, 0, 1), (1, 1, 1), (-1, 1, 1)))
    assert {p: _record_at(sv, p).mult(1, 2) for p in (P, Q, R)} == {P: 2, Q: 1, R: 1}
    assert sv.residual_per_pair[(1, 2)] == 0


def test_known_point_certificate_refuses_corrupted_jet_multiplicities(monkeypatch):
    """Multiplicities P: 1, Q: 2 still sum to four, but the resultant's root
    orders (2 on P's fiber, 1 on Q's) refuse them."""
    import conicfree.locus as locus

    arr = ConicArrangement.from_texts(CONTACT_TRIPLE)
    contact = {arr.components[1].integer, arr.components[2].integer}
    corrupt = {ProjectivePoint.of(0, 0, 1): 1, ProjectivePoint.of(1, 1, 1): 2}
    real = locus.local_intersection_multiplicity

    def corrupted(qi, qj, p, *, jets=None):
        if {qi.integer, qj.integer} == contact and p in corrupt:
            return corrupt[p]
        return real(qi, qj, p, jets=jets)

    monkeypatch.setattr(locus, "local_intersection_multiplicity", corrupted)
    searched = _spy_on_root_searches(monkeypatch)
    with pytest.raises(AssertionError, match="disagree with the resultant"):
        survey(arr)
    assert len(searched) == 2


def test_survey_scans_one_pair_of_a_pencil_and_of_a_contact_pair(monkeypatch):
    f, g = PENCIL_F, PENCIL_G
    pencil = ConicArrangement.from_texts([f, g] + [f"({f})+{lam}*({g})" for lam in range(1, 7)])
    searched = _spy_on_root_searches(monkeypatch)
    assert survey(pencil).inventory() == {"ordinary(8)": 4}
    assert len(searched) == 1
    searched.clear()
    assert survey(ConicArrangement.from_texts(CONTACT_TRIPLE[1:])).inventory() == {"A1": 2, "A3": 1}
    assert len(searched) == 1


def _celal_pair_through_the_d4_point():
    """celal_three_conics: the first pair locates the ordinary triple point
    (1:1:1) and the A5 point (0:0:1); the pair (0, 2) meets transversally at
    (1:1:1) and with contact order 3 at the A5 point (0:1:0), not yet
    located."""
    from conicfree.corpus import entry

    arr = entry("celal_three_conics").arrangement()
    return arr, arr.components[0], arr.components[2], ProjectivePoint.of(1, 1, 1)


def test_partly_explained_pair_divides_out_the_located_point(monkeypatch):
    import conicfree.locus as locus

    arr, q0, q2, d4 = _celal_pair_through_the_d4_point()
    forms = _spy_on_root_searches(monkeypatch, "_binary_form_fibers")
    pair = locus._pair_scan(q0, q2, [d4], {})
    # the D4 fiber is divided out, so only a binary cubic is left
    assert [len(form) - 1 for form in forms] == [3]
    assert pair == rational_pair_intersections(q0, q2)
    assert dict(pair.points) == {d4: 1, ProjectivePoint.of(0, 1, 0): 3}
    forms.clear()
    sv = survey(arr)
    assert sv.inventory() == {"A5": 3, "D4": 1} and sv.complete
    assert [len(form) - 1 for form in forms] == [4, 3, 3]


def test_partly_explained_pair_refuses_a_corrupted_jet_multiplicity(monkeypatch):
    """The located D4 point given multiplicity 2 on the pair (0, 2): the
    resultant's root order on its fiber refuses it."""
    import conicfree.locus as locus

    arr, q0, q2, d4 = _celal_pair_through_the_d4_point()
    pair = {q0.integer, q2.integer}
    real = locus.local_intersection_multiplicity

    def corrupted(qi, qj, p, *, jets=None):
        if {qi.integer, qj.integer} == pair and p == d4:
            return 2
        return real(qi, qj, p, jets=jets)

    monkeypatch.setattr(locus, "local_intersection_multiplicity", corrupted)
    with pytest.raises(AssertionError, match="disagree with the resultant"):
        locus._pair_scan(q0, q2, [d4], {})
    with pytest.raises(AssertionError, match="disagree with the resultant"):
        survey(arr)


# The pair (1, 2) meets at the ordinary triple point (1:1:1), which the pair
# (0, 1) locates first, and at (2:1:1): both on the fiber (1:1) of its first
# projection, the shear (0, 0) from (1:0:0).  So that fiber is still a root
# of the quotient, and only (2:1:1) is new on it.
SHARED_FIBER = [
    "5*x^2-6*y^2+z^2-x*y+2*x*z-y*z",
    "-5*x^2-25*y^2+9*z^2+6*x*y+9*x*z+6*y*z",
    "2*x^2-11*y^2+6*z^2+3*x*y-9*x*z+9*y*z",
]


def test_a_new_point_on_the_fiber_of_a_known_point_is_located():
    import conicfree.locus as locus

    arr = ConicArrangement.from_texts(SHARED_FIBER)
    # the pair's projection is the grid's first shear, (0, 0): (1:0:0) lies on neither conic
    assert locus._SHEAR_GRID[0] == (0, 0) and all(q.integer[0] for q in arr.components[1:])
    sv = _survey_matches_the_pair_oracle(arr)
    assert sv.inventory() == {"A1": 3, "D4": 1} and sv.residual_per_pair[(1, 2)] == 0
    assert _record_at(sv, ProjectivePoint.of(2, 1, 1)).members == (1, 2)
