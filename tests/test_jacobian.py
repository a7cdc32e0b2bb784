"""Gradient-ideal analysis: Hilbert window, Tjurina numbers, relations."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfree import jacobian, linalg
from conicfree.corpus import corpus_entries, entry
from conicfree.jacobian import (
    MAX_WINDOW_EXTEND,
    JacobianContext,
    SyzygyWitness,
    hilbert_profile,
    mdr,
    milnor_dim,
    syzygy_matrix,
    verify_witness,
)
from conicfree.poly import HomogeneousPolynomial, monomials_of_degree, parse_polynomial
from conicfree.report import analyze_curve
from exact_engine import exact_mdr, exact_window

PERSSON = "(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(2*x^2+y^2-2*x*z)"
CELAL = "(-3*x^2+x*y+y*z+z*x)*(-3*y^2+x*y+y*z+z*x)*(-3*z^2+x*y+y*z+z*x)"
RATIONAL_PAIR = "(1/2*x^2+3/4*y^2-z^2)*(x^2-2/3*y*z)"
# four dense conics in general position, drawn once from a fixed seed
GENERIC_OCTIC = (
    "3*x^2-5*y^2+3*z^2+5*x*y-2*x*z-2*y*z",
    "2*x^2-y^2+3*z^2+2*x*y-x*z+y*z",
    "5*x^2+y^2+3*z^2-5*x*y+x*z+5*y*z",
    "-2*x^2-5*y^2-4*z^2-4*x*y-5*x*z-4*y*z",
)


def _ctx(text):
    return JacobianContext.for_curve(parse_polynomial(text))


def _tau(text):
    return hilbert_profile(_ctx(text)).tau


def _nullity(ctx, r):
    """Dimension of the space of degree-r relations among the partials."""
    matrix = syzygy_matrix(ctx, r)
    return matrix.cols - linalg.rank_certified(matrix)


def test_milnor_dim_smooth_conic():
    ctx = _ctx("x^2+y^2-z^2")
    assert milnor_dim(ctx, 2) == 0
    assert milnor_dim(ctx, 1) == 0
    assert milnor_dim(ctx, 0) == 1


def test_milnor_dim_stabilizes_at_local_tjurina_sum():
    # two tangential A7 points (tau 7 each), one tacnode (3), two nodes (1+1)
    ctx = _ctx(PERSSON)
    assert milnor_dim(ctx, 14) == 19
    ctx2 = _ctx(CELAL)
    assert milnor_dim(ctx2, 14) == 19


def test_total_tjurina_examples():
    assert _tau(PERSSON) == 19
    # x^k*y^k + z^(2k) with k = 2: two points with local number 3 each
    assert _tau("x^2*y^2+z^4") == 6
    # moustache curve with m = 2: (2m-1)^2 - (2m-2) = 7
    assert _tau("(x*z+x^2+y^2)*(x*z+2*x^2+y^2)") == 7
    # octic with four A7 and eight nodes
    assert (
        _tau(
            "(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(x^2+y^2+2*x*z)"
            "*(4*x^2+6*y^2+4*x*z-8*z^2)"
        )
        == 36
    )


def test_total_tjurina_smooth_signature():
    assert _tau("x^2+y^2-z^2") == 0
    profile = hilbert_profile(_ctx("x^2+y^2-z^2"))
    assert profile.smooth
    assert [v for _, v in profile.window] == [1, 0, 0]


def test_total_tjurina_unstable_on_nonreduced():
    assert _tau("x^2*y") is None


def test_window_equal_values_on_singular_curves():
    for text in (PERSSON, CELAL, "x^2*y^2+z^4"):
        profile = hilbert_profile(_ctx(text))
        values = [v for _, v in profile.window]
        assert values[0] == values[1] == values[2]
        assert profile.tau == values[0]


def test_mdr_moustache_degree_one():
    for m in (2, 3):
        comps = "*".join(f"(x*z+{i}*x^2+y^2)" for i in range(1, m + 1))
        w = mdr(_ctx(comps))
        assert isinstance(w, SyzygyWitness) and w.r == 1


def test_mdr_pencil_witness_is_the_symmetric_triple():
    fF = parse_polynomial("3*x^2+y^2-4*z^2")
    gG = parse_polynomial("x^2+3*y^2-4*z^2")
    prod = fF * gG * (fF + gG) * (fF + gG.scale(2))
    ctx = JacobianContext.for_curve(prod)
    w = mdr(ctx)
    assert isinstance(w, SyzygyWitness) and w.r == 2
    assert w.a == parse_polynomial("y*z")
    assert w.b == parse_polynomial("x*z")
    assert w.c == parse_polynomial("x*y")


def test_mdr_smooth_conic_exhausts_search():
    """No relation in degree 0, so d1 = d-1 = 1 with the first Koszul
    relation (f_y, -f_x, 0) = (2y, -2x, 0), made primitive."""
    ctx = _ctx("x^2+y^2-z^2")
    w = mdr(ctx)
    assert w.r == 1
    assert (w.a, w.b) == (parse_polynomial("y"), parse_polynomial("-x")) and w.c.is_zero()
    assert verify_witness(ctx, w)


def test_mdr_minimality_reasserted():
    ctx = _ctx(PERSSON)
    w = mdr(ctx)
    assert isinstance(w, SyzygyWitness) and w.r == 2
    for r in range(w.r):
        assert _nullity(ctx, r) == 0


def test_syzygy_space_dimension_monotone_from_mdr():
    ctx = _ctx(CELAL)
    w = mdr(ctx)
    dims = [_nullity(ctx, r) for r in range(w.r, ctx.d - 1)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    assert dims[0] >= 1


def test_verify_witness_examples():
    ctx = _ctx("x^2*y^2+z^4")
    x = HomogeneousPolynomial.variable("x")
    y = HomogeneousPolynomial.variable("y")
    zero1 = HomogeneousPolynomial.zero(1)
    good = SyzygyWitness(r=1, a=x, b=-y, c=zero1)
    assert verify_witness(ctx, good)

    fF = parse_polynomial("3*x^2+y^2-4*z^2")
    gG = parse_polynomial("x^2+3*y^2-4*z^2")
    prod = fF * gG * (fF + gG) * (fF + gG.scale(2))
    ctx2 = JacobianContext.for_curve(prod)
    triple = SyzygyWitness(
        r=2,
        a=parse_polynomial("y*z"),
        b=parse_polynomial("x*z"),
        c=parse_polynomial("x*y"),
    )
    assert verify_witness(ctx2, triple)

    ctx3 = _ctx(PERSSON)
    one = HomogeneousPolynomial(0, {(0, 0, 0): 1})
    zero0 = HomogeneousPolynomial.zero(0)
    assert not verify_witness(ctx3, SyzygyWitness(r=0, a=one, b=zero0, c=zero0))
    # 2x - 2y: x and y have distinct places in the expansion's index
    conic = _ctx("x^2+y^2-z^2")
    assert not verify_witness(conic, SyzygyWitness(r=0, a=one, b=-one, c=zero0))


def test_verify_witness_refuses_a_component_of_another_degree():
    """f_x = 0 for y*z*(y-z), so x*f_x vanishes, but x has degree 1, not r = 2."""
    ctx = _ctx("y*z*(y-z)")
    zero = HomogeneousPolynomial.zero(2)
    x = HomogeneousPolynomial.variable("x")
    assert not verify_witness(ctx, SyzygyWitness(r=2, a=x, b=zero, c=zero))
    assert verify_witness(ctx, SyzygyWitness(r=1, a=x, b=zero, c=zero))


@pytest.mark.parametrize("e", corpus_entries(), ids=lambda e: e.name)
def test_a_corpus_witness_with_one_coefficient_changed_fails(e):
    """Changing one coefficient of the witness by +-1, at any monomial of
    any component, adds +-1 times a nonzero partial to the relation."""
    arrangement = e.arrangement()
    conics = None if arrangement is None else [q.integer for q in arrangement.components]
    ctx = JacobianContext.for_curve(e.polynomial(), conics)
    w = mdr(ctx)
    assert verify_witness(ctx, w)
    for k in range(3):
        for m in monomials_of_degree(w.r):
            for delta in (1, -1):
                parts = list(w.triple())
                parts[k] = parts[k] + HomogeneousPolynomial(w.r, {m: delta})
                assert not verify_witness(ctx, SyzygyWitness(w.r, *parts)), (k, m, delta)


def test_hilbert_function_matches_resolution_prediction():
    """Graded dimensions against the closed homological formulas.

    A free curve with exponents (d1, d2 = d-1-d1) has
    dim M(f)_t = C(t) - 3C(t-d+1) + C(t-d+1-d1) + C(t-d+1-d2),
    and a nearly free one (d1, d2 = d3 = d-d1, e1 = d+d2) has
    dim M(f)_t = C(t) - 3C(t-d+1) + C(t-d+1-d1) + 2C(t-d+1-d2) - C(t-e1),
    writing C(s) for the dimension of the degree-s graded piece.
    """
    from conicfree.poly import degree_dimension as C

    ctx = _ctx(PERSSON)  # free, d = 6, exponents (2, 3)
    d, d1 = 6, 2
    d2 = d - 1 - d1
    for t in range(16):
        predicted = C(t) - 3 * C(t - d + 1) + C(t - d + 1 - d1) + C(t - d + 1 - d2)
        assert milnor_dim(ctx, t) == predicted, t

    ctx = _ctx(
        "(x^2+y^2-z^2)*(2*x^2+y^2+2*x*z)*(x^2+y^2+2*x*z)"
        "*(4*x^2+6*y^2+4*x*z-8*z^2)"
    )  # nearly free, d = 8, d1 = 3
    d, d1 = 8, 3
    d2 = d - d1
    e1 = d + d2
    for t in range(22):
        predicted = (
            C(t)
            - 3 * C(t - d + 1)
            + C(t - d + 1 - d1)
            + 2 * C(t - d + 1 - d2)
            - C(t - e1)
        )
        assert milnor_dim(ctx, t) == predicted, t


def test_generic_octic_window_certifies_without_exact_engine(monkeypatch):
    """Bezout: k = 4 conics meeting transversally give tau = 2k(k-1) = 24.

    The window matrices' kernels have entries of several hundred bits; the
    certified engine must reach them without the exact engine.
    """

    def refuse(matrix):
        raise AssertionError(f"exact engine called on {matrix!r}")

    monkeypatch.setattr(linalg, "rank", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    profile = hilbert_profile(_ctx("*".join(f"({q})" for q in GENERIC_OCTIC)))
    assert [v for _, v in profile.window] == [24, 24, 24]


def test_exact_policy_agrees_with_certified():
    ctx = _ctx(PERSSON)
    profile = hilbert_profile(ctx)
    assert exact_window(ctx) == profile.window and profile.tau == 19
    w1, w2 = exact_mdr(ctx), mdr(ctx)
    assert isinstance(w1, SyzygyWitness) and isinstance(w2, SyzygyWitness)
    assert w1 == w2 and w1.r == 2


@pytest.mark.parametrize("extend", [-1, 11])
def test_window_extension_out_of_range_is_refused(extend, monkeypatch):
    """The library refuses what the CLI refuses: a negative extension is no
    silent 0, and past MAX_WINDOW_EXTEND the matrices grow without bound.
    analyze_curve refuses before it starts the relation walk."""
    assert MAX_WINDOW_EXTEND == 10
    f = entry("two_conics_a7_e1").polynomial()
    with pytest.raises(ValueError, match=f"extension {extend} is not in 0..10"):
        hilbert_profile(JacobianContext.for_curve(f), extend=extend)

    def walk(ctx):
        raise AssertionError("relation walk started before the extension was checked")

    monkeypatch.setattr("conicfree.report.mdr", walk)
    with pytest.raises(ValueError, match=f"extension {extend} is not in 0..10"):
        analyze_curve(f, window_extend=extend)


def test_context_rejects_degenerate_input():
    with pytest.raises(ValueError):
        JacobianContext.for_curve(parse_polynomial("x"))
    with pytest.raises(ValueError):
        JacobianContext.for_curve(HomogeneousPolynomial.zero(3))


@pytest.mark.parametrize(
    "bad",
    [(2, 1, 0, 0, 2, 0.5), (2, 1, 0, 0, 2, "1"), (2, 1, 0, 0, 2), "2x^2+y^2+2xz", 2],
    ids=["float", "str", "five", "text", "int"],
)
def test_context_rejects_a_conic_that_is_not_six_integers(bad):
    f = parse_polynomial("(2*x^2+y^2+2*x*z)*(x^2+y^2-z^2)")
    with pytest.raises(ValueError, match="not six integers"):
        JacobianContext.for_curve(f, [bad, (1, 1, -1, 0, 0, 0)])


def _partials(f):
    return [f.partial(v) for v in "xyz"]


def _least_scale(partials):
    """The least positive integer whose multiple of every partial is integral."""
    return lcm(*(c.denominator for g in partials for c in g.terms.values()))


def _fraction_syzygy_matrix(ctx, r):
    """The matrix of syzygy_matrix with the partials' own Fraction coefficients."""
    t = r + ctx.d - 1
    row_index = {m: i for i, m in enumerate(monomials_of_degree(t))}
    monos = monomials_of_degree(r)
    entries = {}
    for k, g in enumerate(_partials(ctx.f)):
        for j, mono in enumerate(monos):
            for gm, c in g.terms.items():
                m = (gm[0] + mono[0], gm[1] + mono[1], gm[2] + mono[2])
                entries[(row_index[m], k * len(monos) + j)] = c
    return len(row_index), 3 * len(monos), entries


@pytest.mark.parametrize(
    "f",
    [
        parse_polynomial(RATIONAL_PAIR),
        entry("p4_four_conics").polynomial(),
        entry("ploski_m3").polynomial(),
    ],
)
def test_integer_syzygy_matrix_is_a_positive_multiple_of_the_fraction_build(f):
    ctx = JacobianContext.for_curve(f)
    for r in range(0, 2 * ctx.d - 2):  # mdr and the whole Hilbert window
        m = syzygy_matrix(ctx, r)
        rows, cols, expected = _fraction_syzygy_matrix(ctx, r)
        assert (m.rows, m.cols) == (rows, cols)
        assert m.entries.keys() == expected.keys()
        assert all(type(v) is int for v in m.entries.values())
        ratios = {Fraction(v) / expected[key] for key, v in m.entries.items()}
        # the least scale, so every mod-p step sees the same matrix
        assert ratios == {_least_scale(_partials(f))}
        assert len(ratios) == 1 and ratios.pop() > 0


def _dense_gradient(f):
    """The least integer multiple of f's partials, as lists over monomials_of_degree(d-1)."""
    partials = _partials(f)
    scale = _least_scale(partials)
    monos = monomials_of_degree(f.degree - 1)
    return [[int(g.terms.get(m, 0) * scale) for m in monos] for g in partials]


@pytest.mark.parametrize("e", corpus_entries(), ids=lambda e: e.name)
def test_gradient_is_the_least_integer_multiple_of_the_partials_on_the_corpus(e):
    f = e.polynomial()
    ctx = JacobianContext.for_curve(f)
    assert ctx.gradient.shape == (3, len(monomials_of_degree(f.degree - 1)))
    assert ctx.gradient.tolist() == _dense_gradient(f)
    assert all(type(v) is int for v in ctx.gradient.flat)


@st.composite
def _rational_forms(draw):
    """A nonzero form of degree 2..6 with rational coefficients, in a
    nonempty subset of the variables: with fewer than three, a partial is zero."""
    d = draw(st.integers(2, 6))
    variables = draw(st.sets(st.sampled_from(range(3)), min_size=1))
    monos = [m for m in monomials_of_degree(d) if all(m[v] == 0 for v in {0, 1, 2} - variables)]
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(monos), coeffs, min_size=1))
    return HomogeneousPolynomial(d, terms)


@settings(max_examples=60, deadline=None)
@given(f=_rational_forms())
def test_gradient_is_the_least_integer_multiple_of_the_partials(f):
    ctx = JacobianContext.for_curve(f)
    assert ctx.gradient.tolist() == _dense_gradient(f)


def test_rational_input_analyzes_like_its_denominator_cleared_copy():
    f = parse_polynomial(RATIONAL_PAIR)
    cleared = f.scale(12)
    assert all(c.denominator == 1 for c in cleared.terms.values())
    a, b = analyze_curve(f), analyze_curve(cleared)
    assert a.witness == b.witness and a.witness.r == 2
    assert verify_witness(a.ctx, a.witness)
    assert a.tau == b.tau
    assert a.report.verdict == b.report.verdict
    assert (a.report.d1, a.report.nu) == (b.report.d1, b.report.nu)


@pytest.mark.parametrize("text", ["x^4+y^4+z^4", PERSSON])
def test_koszul_relations_are_built_once_per_analysis(text, monkeypatch):
    """mdr (with no relation below d-1 for the Fermat quartic) and the window
    share one build of the Koszul relations, with one exact check: the only
    _kills of the jacobian module."""
    checks = []
    original = jacobian._kills

    def spy(a, v):
        checks.append(v.shape)
        return original(a, v)

    monkeypatch.setattr(jacobian, "_kills", spy)
    analysis = analyze_curve(parse_polynomial(text))
    koszul = analysis.ctx.koszul
    assert checks == [(3 * len(monomials_of_degree(analysis.ctx.d - 1)), len(koszul))]
    assert all(e == analysis.ctx.d - 1 and gcd(*vec) == 1 for e, vec in koszul)
