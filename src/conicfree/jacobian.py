"""Graded analysis of the gradient ideal of a plane curve.

For a reduced curve f = 0 of degree d this module computes dimensions of the
graded pieces of the quotient by the gradient ideal, reads the total Tjurina
number off the stabilized window of that Hilbert function, and finds the
minimal degree of a relation among the three partial derivatives together
with an explicit, exactly verified witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from conicfree.linalg import DEFAULT_POLICY, LinalgPolicy, RatMatrix, integer_zeros
from conicfree.poly import (
    VAR_NAMES,
    HomogeneousPolynomial,
    Mono3,
    degree_dimension,
    monomials_of_degree,
)


class UnstableWindowError(ArithmeticError):
    """The three probed Hilbert values disagree.

    For squarefree input the graded dimensions are constant on the probed
    window, so disagreement signals a non-reduced curve (or a caller bug).
    """

    def __init__(self, window: list[tuple[int, int]]):
        super().__init__(f"Hilbert window did not stabilize: {window}")
        self.window = window


@dataclass(frozen=True)
class JacobianContext:
    """A curve together with its degree and partial derivatives."""

    f: HomogeneousPolynomial
    d: int
    partials: tuple[HomogeneousPolynomial, HomogeneousPolynomial, HomogeneousPolynomial]

    @classmethod
    def for_curve(cls, f: HomogeneousPolynomial) -> "JacobianContext":
        if f.degree < 2:
            raise ValueError("curve degree must be at least 2")
        if f.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        partials = tuple(f.partial(v) for v in VAR_NAMES)
        return cls(f=f, d=f.degree, partials=partials)


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


def syzygy_matrix(ctx: JacobianContext, r: int) -> RatMatrix:
    """Matrix of (a, b, c) -> a*f_x + b*f_y + c*f_z on degree-r coefficients.

    Rows are indexed by degree r+d-1 monomials in descending grlex order,
    columns by (component, degree-r monomial), component-major.  The partials
    are multiplied by the lcm of their coefficients' denominators, one
    positive constant that changes neither the rank nor the kernel, so the
    matrix is an integer array.
    """
    t = r + ctx.d - 1
    monos = np.array(monomials_of_degree(r), dtype=np.int64).reshape(-1, 3)
    n = len(monos)
    scale = lcm(*(c.denominator for g in ctx.partials for c in g.terms.values()))
    coefs = [[int(c * scale) for c in g.terms.values()] for g in ctx.partials]
    a = integer_zeros(
        (degree_dimension(t), 3 * n), max((abs(v) for vals in coefs for v in vals), default=0)
    )
    for k, (g, vals) in enumerate(zip(ctx.partials, coefs)):
        if not vals:
            continue
        prods = np.array(list(g.terms), dtype=np.int64)[:, None, :] + monos[None, :, :]
        # position of (i, j, l) among the degree-t monomials in descending grlex
        top = t - prods[..., 0]
        rows = top * (top + 1) // 2 + prods[..., 2]
        a[rows, k * n + np.arange(n)] = np.array(vals, dtype=a.dtype)[:, None]
    return RatMatrix.from_integer_array(a)


def milnor_dim(
    ctx: JacobianContext, t: int, policy: LinalgPolicy = DEFAULT_POLICY
) -> int:
    """Dimension of the degree-t piece of S modulo the gradient ideal."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    s = t - ctx.d + 1
    if s < 0:
        return degree_dimension(t)
    return degree_dimension(t) - policy.rank(syzygy_matrix(ctx, s))


def hilbert_profile(
    ctx: JacobianContext, extend: int = 0, policy: LinalgPolicy = DEFAULT_POLICY
) -> HilbertProfile:
    """Hilbert values on [3d-6, 3d-4 + extend] with the stabilization verdict.

    The probed values equal the total Tjurina number for every singular
    reduced curve; a smooth curve instead shows the signature (1, 0, 0)
    because the quotient ring is then a complete intersection whose socle
    sits exactly at degree 3d-6.
    """
    lo = 3 * ctx.d - 6
    window = tuple(
        (t, milnor_dim(ctx, t, policy)) for t in range(lo, lo + 3 + max(extend, 0))
    )
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


def total_tjurina(ctx: JacobianContext, policy: LinalgPolicy = DEFAULT_POLICY) -> int:
    """Total Tjurina number via stabilization of the Hilbert function.

    Returns :attr:`HilbertProfile.tau`; raises :class:`UnstableWindowError`
    when the window is unstable.
    """
    profile = hilbert_profile(ctx, policy=policy)
    if profile.tau is None:
        raise UnstableWindowError(list(profile.window))
    return profile.tau


def _vector_to_witness(
    ctx: JacobianContext, r: int, vec: tuple[Fraction, ...]
) -> SyzygyWitness:
    monos = monomials_of_degree(r)
    n = len(monos)
    denom_lcm = 1
    for v in vec:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vec]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    if content > 1:
        ints = [v // content for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    parts = []
    for comp in range(3):
        terms: dict[Mono3, Fraction] = {}
        for i, mono in enumerate(monos):
            c = ints[comp * n + i]
            if c:
                terms[mono] = Fraction(c)
        parts.append(HomogeneousPolynomial(r, terms))
    return SyzygyWitness(r=r, a=parts[0], b=parts[1], c=parts[2])


def mdr(
    ctx: JacobianContext, policy: LinalgPolicy = DEFAULT_POLICY
) -> SyzygyWitness | AtLeast:
    """Minimal degree of a gradient relation, with a canonical witness.

    Searches degrees 0 .. d-2 in order; every kernel element in that range
    is a genuine relation (the Koszul relations only start in degree d-1).
    Returns :class:`AtLeast` (d-1) when all searched kernels are trivial.
    The returned witness is re-verified by exact expansion.
    """
    for r in range(0, ctx.d - 1):
        matrix = syzygy_matrix(ctx, r)
        kernel = policy.kernel(matrix)
        if kernel.dimension > 0:
            witness = _vector_to_witness(ctx, r, kernel.vectors[0])
            if not verify_witness(ctx, witness):
                raise AssertionError(
                    f"kernel vector failed exact re-verification in degree {r}"
                )
            return witness
    return AtLeast(ctx.d - 1)


def syzygy_space_dimension(
    ctx: JacobianContext, r: int, policy: LinalgPolicy = DEFAULT_POLICY
) -> int:
    """Dimension of the space of degree-r relations among the partials."""
    matrix = syzygy_matrix(ctx, r)
    return matrix.cols - policy.rank(matrix)


def verify_witness(ctx: JacobianContext, witness: SyzygyWitness) -> bool:
    """Exact expansion check of a*f_x + b*f_y + c*f_z = 0."""
    fx, fy, fz = ctx.partials
    total = witness.a * fx + witness.b * fy + witness.c * fz
    return total.is_zero()
