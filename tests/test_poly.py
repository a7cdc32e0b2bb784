"""Polynomial core: parsing, arithmetic, charts, conics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree.poly import (
    AffinePolynomial,
    ConicForm,
    HomogeneousPolynomial,
    NonHomogeneousError,
    PolynomialSyntaxError,
    ProjectivePoint,
    conic_is_smooth,
    dehomogenize,
    monomials_of_degree,
    parse_polynomial,
    pencil_key,
)

X, Y, Z = (HomogeneousPolynomial.variable(v) for v in "xyz")


def test_parse_simple_conic():
    f = parse_polynomial("x^2+y^2-z^2")
    assert f.degree == 2
    assert f.terms == {
        (2, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(1),
        (0, 0, 2): Fraction(-1),
    }


def test_parse_triconical_product_expands():
    f = parse_polynomial("(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)")
    assert f.degree == 6
    # spot-check two expanded coefficients
    assert f.terms[(6, 0, 0)] == 4
    assert f.terms[(0, 6, 0)] == 1


def test_parse_mixed_degrees_rejected():
    with pytest.raises(NonHomogeneousError):
        parse_polynomial("x^2+y")


def test_parse_syntax_error_carries_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("x^2 + @")
    assert err.value.position == 6


def test_parse_rational_literals_and_unary_minus():
    f = parse_polynomial("-1/2*x^2 + 3/4*y^2 - z^2")
    assert f.terms[(2, 0, 0)] == Fraction(-1, 2)
    assert f.terms[(0, 2, 0)] == Fraction(3, 4)


def test_parse_raises_a_constant_in_one_power():
    f = parse_polynomial("2^10*x^2+y^2-z^2")
    assert f.terms == {(2, 0, 0): 1024, (0, 2, 0): 1, (0, 0, 2): -1}
    assert parse_polynomial("(1/2)^3*x+(-2)^3*y+0^0*z+(1-1)^2*x").terms == {
        (1, 0, 0): Fraction(1, 8),
        (0, 1, 0): -8,
        (0, 0, 1): 1,
    }
    assert parse_polynomial("1^99999999*x").terms == {(1, 0, 0): 1}


def test_parse_rejects_general_division():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x/2")


def test_partial_derivative_power_rule():
    f = parse_polynomial("x^2*y^2+z^4")
    assert f.partial("z") == parse_polynomial("4*z^3")
    assert parse_polynomial("x^2+y^2-z^2").partial("x") == parse_polynomial("2*x")
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        f.partial("w")


def test_euler_identity_on_named_sextic():
    f = parse_polynomial("(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)")
    euler = X * f.partial("x") + Y * f.partial("y") + Z * f.partial("z")
    assert euler == f.scale(f.degree)


def test_zero_polynomial_keeps_declared_degree():
    zero = HomogeneousPolynomial.zero(5)
    assert zero.is_zero() and zero.degree == 5
    assert (zero * X).degree == 6
    with pytest.raises(ValueError):
        zero + HomogeneousPolynomial.zero(4)


def test_monomials_of_degree_order_and_count():
    monos = monomials_of_degree(2)
    assert monos == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(monomials_of_degree(7)) == 9 * 8 // 2


def _evaluate(f, point):
    """f at a point of Q^3, by summing its terms exactly."""
    x, y, z = (Fraction(v) for v in point)
    return sum((c * x**i * y**j * z**k for (i, j, k), c in f.terms.items()), Fraction(0))


# random homogeneous polynomials for property tests
def _poly_strategy(degree: int):
    monos = monomials_of_degree(degree)
    return st.lists(
        st.tuples(st.sampled_from(monos), st.integers(-9, 9)),
        min_size=0,
        max_size=6,
    ).map(
        lambda pairs: HomogeneousPolynomial(
            degree, {m: sum(c for mm, c in pairs if mm == m) for m, _ in pairs}
        )
    )


@settings(max_examples=60, deadline=None)
@given(f=_poly_strategy(2), g=_poly_strategy(2), h=_poly_strategy(3))
def test_ring_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@settings(max_examples=60, deadline=None)
@given(f=_poly_strategy(2))
def test_powers_negation_and_difference(f):
    product = HomogeneousPolynomial(0, {(0, 0, 0): 1})
    for n in range(4):
        assert f**n == product
        product = product * f
    assert f - f == HomogeneousPolynomial.zero(f.degree)
    assert -(-f) == f


@settings(max_examples=60, deadline=None)
@given(f=_poly_strategy(4))
def test_derivative_commutation(f):
    assert f.partial("x").partial("y") == f.partial("y").partial("x")


@settings(max_examples=60, deadline=None)
@given(f=_poly_strategy(3))
def test_print_parse_round_trip(f):
    # the zero form prints as "0", which cannot carry a declared degree
    if f.is_zero():
        assert parse_polynomial(str(f)).is_zero()
    else:
        assert parse_polynomial(str(f)) == f


@settings(max_examples=40, deadline=None)
@given(f=_poly_strategy(3))
def test_euler_identity_random(f):
    euler = X * f.partial("x") + Y * f.partial("y") + Z * f.partial("z")
    assert euler == f.scale(3)


def test_round_trip_on_corpus_polynomials():
    from conicfree.corpus import corpus_entries

    for e in corpus_entries():
        f = e.polynomial()
        assert parse_polynomial(str(f)) == f


def test_dehomogenize_circle_at_unit_point():
    f = parse_polynomial("x^2+y^2-z^2")
    g = dehomogenize(f, (0, 1, 1))
    assert g == AffinePolynomial({(2, 0): 1, (0, 2): 1, (0, 1): 2})
    assert g.terms.get((0, 0), 0) == 0


def test_dehomogenize_chart_x():
    f = parse_polynomial("x^2*y^2+z^4")
    g = dehomogenize(f, (1, 0, 0))
    # chart x = 1, local variables (y, z): y^2 + z^4
    assert g == AffinePolynomial({(2, 0): 1, (0, 4): 1})
    assert g.var_names == ("y", "z")


def test_dehomogenize_off_curve_nonzero_constant():
    f = parse_polynomial("x^2+y^2-z^2")
    g = dehomogenize(f, (0, 0, 1))
    assert g.terms.get((0, 0), 0) == -1


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
# points in each of the three charts: the chart coordinate is nonzero, the later ones 0
_chart_points = st.sampled_from((0, 1, 2)).flatmap(
    lambda chart: st.tuples(
        *(st.integers(-3, 3) for _ in range(chart)),
        st.integers(-3, 3).filter(bool),
        *(st.just(0) for _ in range(2 - chart)),
    )
)


@settings(max_examples=60, deadline=None)
@given(
    f=st.integers(0, 5).flatmap(_poly_strategy),
    p=_chart_points,
    u=_rationals,
    v=_rationals,
)
def test_dehomogenize_evaluates_like_the_form_in_its_chart(f, p, u, v):
    # the chart is the last nonzero coordinate; c is p with that coordinate 1
    chart = max(i for i in range(3) if p[i])
    i, j = (k for k in range(3) if k != chart)
    c = [Fraction(x, p[chart]) for x in p]
    c[i] += u
    c[j] += v
    g = dehomogenize(f, p)
    local = sum(
        (coeff * u**a * v**b for (a, b), coeff in g.terms.items()), Fraction(0)
    )
    assert local == _evaluate(f, c)


def test_projective_point_canonical_form():
    assert ProjectivePoint.of(Fraction(-2), Fraction(0), Fraction(-2)) == ProjectivePoint.of(1, 0, 1)
    assert str(ProjectivePoint.of(2, -2, 2)) == "(1:-1:1)"
    assert ProjectivePoint.parse("(-1:0:1)") == ProjectivePoint.of(-1, 0, 1)
    with pytest.raises(ValueError):
        ProjectivePoint.of(0, 0, 0)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _symmetric_matrix(q):
    """M with q(v) = v^T M v: the squares on the diagonal, half of each
    cross term off it."""
    h = Fraction(1, 2)
    return [
        [q.xx, h * q.xy, h * q.xz],
        [h * q.xy, q.yy, h * q.yz],
        [h * q.xz, h * q.yz, q.zz],
    ]


def _coefficients(q):
    return (q.xx, q.yy, q.zz, q.xy, q.xz, q.yz)


def _proportional_by_ratios(q, other):
    """One common ratio over the nonzero coefficients, with the zeros in the
    same places."""
    ratio = None
    for u, v in zip(_coefficients(q), _coefficients(other)):
        if u == 0 and v == 0:
            continue
        if u == 0 or v == 0:
            return False
        if ratio is None:
            ratio = u / v
        elif u / v != ratio:
            return False
    return True


@pytest.mark.parametrize(
    "text,smooth",
    [
        ("x^2+y^2-z^2", True),
        ("x*y", False),
        ("2*x^2+y^2+2*x*z", True),
        ("x^2-y*z", True),
    ],
)
def test_conic_smoothness_matches_cofactor_oracle(text, smooth):
    q = ConicForm.parse(text)
    assert conic_is_smooth(q) is smooth
    assert (_det3(_symmetric_matrix(q)) != 0) is smooth


# small coefficients over small denominators, so that singular and
# proportional forms are drawn often
_small_rationals = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))
_small_conics = st.tuples(*[_small_rationals] * 6).filter(any).map(lambda c: ConicForm(*c))
_scales = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(q=_small_conics)
def test_conic_smoothness_matches_the_fraction_determinant(q):
    assert conic_is_smooth(q) is (_det3(_symmetric_matrix(q)) != 0)


@settings(max_examples=300, deadline=None)
@given(q=_small_conics, other=_small_conics, c=_scales, scaled=st.booleans())
def test_proportionality_matches_the_fraction_ratios(q, other, c, scaled):
    if scaled:
        other = ConicForm(*(c * v for v in _coefficients(q)))
    assert q.is_proportional_to(other) is _proportional_by_ratios(q, other)
    assert other.is_proportional_to(q) is _proportional_by_ratios(q, other)
    if scaled:
        assert q.is_proportional_to(other)


_int_conics = st.tuples(*[st.integers(-4, 4)] * 6)


def _outer_minor_key(qi, qj):
    """The pencil key as the relation pool built it before pencil_key:
    the upper triangle of outer(qi, qj) - outer(qj, qi) over object arrays,
    made primitive with the first nonzero entry positive."""
    from math import gcd

    import numpy as np

    a, b = np.array(qi, dtype=object), np.array(qj, dtype=object)
    minors = (np.outer(a, b) - np.outer(b, a))[np.triu_indices(6, 1)]
    if not minors.any():
        return tuple(minors)
    sign = 1 if minors[minors != 0][0] > 0 else -1
    return tuple(minors // (sign * gcd(*minors)))


@settings(max_examples=300, deadline=None)
@given(qi=_int_conics, qj=_int_conics, change=st.tuples(*[st.integers(-3, 3)] * 4))
def test_pencil_key_names_the_pencil_a_pair_spans(qi, qj, change):
    """The key equals the outer-product construction it replaced, is zero
    exactly for proportional conics, and is the same for every basis
    (alpha*qi + beta*qj, gamma*qi + delta*qj) of the pencil."""
    key = pencil_key(qi, qj)
    assert key == _outer_minor_key(qi, qj)
    assert all(type(m) is int for m in key)
    proportional = all(u * w == v * t for u, v in zip(qi, qj) for t, w in zip(qi, qj))
    assert (not any(key)) is proportional
    alpha, beta, gamma, delta = change
    ri = tuple(alpha * u + beta * v for u, v in zip(qi, qj))
    rj = tuple(gamma * u + delta * v for u, v in zip(qi, qj))
    if alpha * delta - beta * gamma and not proportional:
        assert pencil_key(ri, rj) == pencil_key(rj, ri) == key
    else:
        assert not any(pencil_key(ri, rj))


def test_conic_rejects_wrong_degree_and_zero():
    with pytest.raises(ValueError):
        ConicForm.parse("x^3")
    with pytest.raises(ValueError):
        ConicForm.from_polynomial(HomogeneousPolynomial.zero(2))
