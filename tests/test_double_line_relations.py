"""Double-line pencil relations of a conic arrangement.

A pencil of q_0 that holds a double line L^2 gives the pool rho_L =
grad q_0 x grad L at degree 1 + 2 * (the conics outside it), and where L
is tangent to q_0 a second relation theta at d-2; both are lifted to f by
the product of the conics outside.  These tests draw tangent and secant
double-line pencils of m = 2..5 conics with up to two conics outside,
under rational changes of coordinates, and hold: every row against sympy,
independently of the pool's exact check; a full tangent pencil against
Saito's criterion rho_L x theta = c * grad f, c a nonzero constant, which
makes it free with exponents (1, d-2); a secant pencil against theta; a
corrupted theta against the pool's check; and the walk with components
against the walk without them.  Then the cost ladder: the inputs whose
kernels these relations span lift none, the Płoski walks do not climb,
and generic arrangements, which hold no double line, make the calls they
make with the rule switched off.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conicfree import jacobian, linalg
from conicfree.corpus import entry
from conicfree.jacobian import (
    JacobianContext,
    conic_pencils,
    relation_generators,
)
from conicfree.locus import ConicArrangement
from conicfree.poly import ConicForm, conic_matrix, monomials_of_degree, rank_one_member
from conicfree.report import analyze_curve
from walks import assert_same_walk

ROOT = Path(__file__).resolve().parent.parent
X, Y, Z = sympy.symbols("x y z")
MONOS = (X**2, Y**2, Z**2, X * Y, X * Z, Y * Z)
EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))  # of MONOS


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tangent_ladder(k):
    script = _load("bench_windows", "scripts/bench_windows.py")
    return ConicArrangement.from_texts(script.tangent_texts(k, script.TANGENT_SEED))


def _conic(expr):
    poly = sympy.Poly(sympy.expand(expr), X, Y, Z)
    return ConicForm(*(Fraction(str(poly.coeff_monomial(m))) for m in MONOS))


_SMALL = st.integers(-3, 3)
_RATIONAL = st.builds(Fraction, _SMALL, st.sampled_from((1, 1, 2, 3)))


@st.composite
def _double_line_pencils(draw):
    """(arrangement, the pencil's indices, tangent): q = y^2 - x*z and m - 1 members q + lam*L^2,
    L = x (tangent to q at (0:0:1)) or y (secant, through (1:0:0) and
    (0:0:1)), then up to two dense conics, k <= 6, all moved by one random
    rational change of coordinates; q_0 first, the rest in a drawn order."""
    tangent = draw(st.booleans())
    m = draw(st.integers(2, 5))
    # lam = -1 would make q + lam*y^2 singular
    lam = st.integers(-4, 4).filter(lambda lam: lam not in (0, -1))
    lams = draw(st.lists(lam, min_size=m - 1, max_size=m - 1, unique=True))
    outside = draw(st.integers(0, min(2, 6 - m)))
    q, line = Y**2 - X * Z, X if tangent else Y
    members = [q + lam * line**2 for lam in lams]
    dense = [
        sum(c * mono for c, mono in zip(draw(st.tuples(*[_SMALL] * 6)), MONOS))
        for _ in range(outside)
    ]
    entries = draw(st.tuples(*[_RATIONAL] * 9))
    change = sympy.Matrix(3, 3, [sympy.Rational(c.numerator, c.denominator) for c in entries])
    assume(change.det() != 0)
    moved = dict(zip((X, Y, Z), change * sympy.Matrix([X, Y, Z])))
    order = draw(st.permutations(range(1, m + outside)))
    conics = [q] + [(members + dense)[i - 1] for i in order]
    try:
        arr = ConicArrangement(tuple(_conic(c.subs(moved, simultaneous=True)) for c in conics))
    except ValueError:  # a zero or singular form, or two that coincide
        assume(False)
    pencil = sorted([0] + [j + 1 for j, i in enumerate(order) if i < m])
    # a dense conic that falls into the pencil would change it
    assume(pencil in conic_pencils([c.integer for c in arr.components]))
    return arr, pencil, tangent


def _context(arr, components=True):
    conics = [q.integer for q in arr.components] if components else None
    return JacobianContext.for_curve(arr.polynomial(), conics)


def _poly(coeffs, monos):
    return sympy.Poly.from_dict({m: int(c) for c, m in zip(coeffs, monos)}, X, Y, Z)


def _field(row, e):
    """The vector field of a row in the layout of syzygy_matrix(ctx, e), as Polys."""
    monos = monomials_of_degree(e)
    n = len(monos)
    return [_poly(row[i * n : (i + 1) * n], monos) for i in range(3)]


def _cross(u, w):
    return [u[i - 2] * w[i - 1] - u[i - 1] * w[i - 2] for i in range(3)]


def _theta_calls(monkeypatch):
    calls, original = [], jacobian._theta
    monkeypatch.setattr(jacobian, "_theta", lambda *a: calls.append(a[1]) or original(*a))
    return calls


@settings(max_examples=20, deadline=None)
@given(_double_line_pencils())
@example((entry("ploski_m4").arrangement(), [0, 1, 2, 3], True))
@example((entry("two_conics_a7_e3").arrangement(), [0, 1], True))
@example((entry("p4_four_conics").arrangement(), [0, 1], True))
@example((entry("persson_triconical").arrangement(), [0, 2], True))
@example((_tangent_ladder(4), [0, 1], False))
def test_double_line_pencils_give_rho_l_and_theta_where_l_is_tangent(pencil):
    """The drawn pencil holds one double line: rank_one_member finds it,
    and it is tangent to q_0 exactly when sympy gives ell . adj(A) ell = 0.
    Every row of every family kills grad f, in sympy.  The family at
    1 + 2 * (conics outside) holds rho_L, and theta is built once per
    pencil, only where L is tangent.  A full tangent pencil meets Saito's
    criterion rho_L x theta = c * grad f with c a nonzero constant."""
    arr, members, tangent = pencil
    conics = [q.integer for q in arr.components]
    forms = [_poly(q, EXPONENTS) for q in conics]
    f = sympy.prod(forms)
    grad = [f.diff(v) for v in (X, Y, Z)]
    order, ell = rank_one_member(conics[0], conics[members[1]])
    assert ell is not None
    adjugate = sympy.Matrix(conic_matrix(conics[0])).adjugate()
    assert (order == 3) == tangent == ((sympy.Matrix([ell]) * adjugate * sympy.Matrix(ell))[0] == 0)
    with pytest.MonkeyPatch.context() as patch:
        thetas = _theta_calls(patch)
        ctx = _context(arr)
        fields = {e: [_field(row, e) for row in family()] for e, family in ctx.families.items()}
    assert thetas.count(members) == tangent and len({tuple(p) for p in thetas}) == len(thetas)
    for e, rows in fields.items():
        for field in rows:
            assert sum((a * g for a, g in zip(field, grad)), sympy.Poly(0, X, Y, Z)).is_zero, e
    d, outside = ctx.d, arr.k - len(members)
    rho = _cross([forms[0].diff(v) for v in (X, Y, Z)], [sympy.Poly(c, X, Y, Z) for c in ell])
    if outside == 0:  # the family at 1 is rho_L itself, times d
        (field,) = fields[1]
        assert all(c == d * r for c, r in zip(field, rho)) and any(not r.is_zero for r in rho)
    else:
        assert 1 + 2 * outside in fields
    if tangent and outside == 0:
        (theta,) = fields[d - 2]
        cross = _cross(rho, theta)
        i = next(i for i in range(3) if not grad[i].is_zero)
        # cross = (a / b) grad, a and b the leading coefficients at component i
        a, b = cross[i].LC(), grad[i].LC()
        assert a != 0 and all(b * c == a * g for c, g in zip(cross, grad))


@settings(max_examples=15, deadline=None)
@given(_double_line_pencils())
def test_the_walk_with_double_line_pencils_is_the_walk_without_components(pencil):
    arr, _, _ = pencil
    assert_same_walk(_context(arr), _context(arr, components=False))


@pytest.mark.parametrize("name", ["ploski_m3", "two_conics_a7_e2", "a7_5_3"])
def test_a_corrupted_theta_raises(name, monkeypatch):
    """theta with one coefficient changed is no relation, and the pool's
    exact check refuses it before the walk uses it."""
    original = jacobian._theta

    def corrupted(*args):
        theta = original(*args)
        theta[0, 0] += 1
        return theta

    monkeypatch.setattr(jacobian, "_theta", corrupted)
    if name == "a7_5_3":
        script = _load("bench_windows", "scripts/bench_windows.py")
        arr = ConicArrangement.from_texts(script.a7_texts(5, 3))
    else:
        arr = entry(name).arrangement()
    with pytest.raises(AssertionError, match="a pencil relation failed exact re-verification"):
        relation_generators(_context(arr))


@pytest.fixture
def kernels(monkeypatch):
    """The (rows, cols) of every certified kernel lifted."""
    calls = []
    original = linalg.kernel_basis_certified
    monkeypatch.setattr(
        linalg, "kernel_basis_certified", lambda m: calls.append((m.rows, m.cols)) or original(m)
    )
    return calls


def _double_line_inputs():
    script = _load("bench_windows", "scripts/bench_windows.py")
    out = {f"ploski_m{m}": entry(f"ploski_m{m}").arrangement() for m in (2, 3, 4, 5)}
    out |= {f"two_conics_a7_e{i}": entry(f"two_conics_a7_e{i}").arrangement() for i in (1, 2, 3)}
    out |= {f"tangent_{k}": _tangent_ladder(k) for k in (4, 5, 6)}
    out["a7_5_3"] = ConicArrangement.from_texts(script.a7_texts(5, 3))
    return out


def test_double_line_inputs_lift_no_kernel(monkeypatch, kernels):
    """Cost ladder: the Płoski curves, the two conics with an A7 point, the
    tangent ladder and a7_texts(5, 3) take every kernel of the walk from
    the double-line relations and the multiples of the generators found,
    and the Płoski walks build no A_e for 2 <= e <= d-3: after d1 = 1 the
    top step closes with theta and the walk does not climb."""
    built, build = [], jacobian.syzygy_matrix
    monkeypatch.setattr(jacobian, "syzygy_matrix", lambda ctx, r: built.append(r) or build(ctx, r))
    for name, arr in _double_line_inputs().items():
        built.clear()
        analysis = analyze_curve(arr.polynomial(), arrangement=arr)
        assert kernels == [], name
        d = analysis.ctx.d
        if name.startswith("ploski"):
            assert [e for e in built if 2 <= e <= d - 3] == [], name
            assert [e for e, _ in analysis.ctx.generators] == [1, d - 2], name


def test_generic_arrangements_make_the_calls_of_the_walk_without_the_rule(monkeypatch):
    """The benchmark's generic arrangements of seeds 1-3 hold no double
    line, so they bound and eliminate exactly what they do with the rule
    switched off (rank_one_member reading no double line)."""
    inputs = _load("bench_inputs", "perfbench/inputs.py")
    calls = []
    rank, leading = jacobian._certified_rank, jacobian._leading_terms

    def spy_rank(ctx, s, *args):
        calls.append(("rank", s))
        return rank(ctx, s, *args)

    def spy_leading(rows, t):
        calls.append(("lead", rows.shape, t))
        return leading(rows, t)

    monkeypatch.setattr(jacobian, "_certified_rank", spy_rank)
    monkeypatch.setattr(jacobian, "_leading_terms", spy_leading)

    def run():
        calls.clear()
        for seed in (1, 2, 3):
            for item in inputs.generic_inputs(seed):
                arr = ConicArrangement.from_texts(item["texts"])
                analyze_curve(arr.polynomial(), arrangement=arr)
        return list(calls)

    with_rule = run()
    monkeypatch.setattr(jacobian, "rank_one_member", lambda qi, qj: (1, None))
    assert with_rule == run() and with_rule
