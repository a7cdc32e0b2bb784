"""Exact trivariate polynomial arithmetic over the rationals.

Polynomials are sparse maps from exponent triples to nonzero Fraction
coefficients.  Homogeneous forms carry an explicit degree so that the zero
form of each degree stays well typed under graded maps.  Coefficients are
restricted to the rationals; every value is immutable after construction and
every operation is pure, so the module is safe to use from multiple threads.
A ConicForm computes its content-free integer coefficients (``integer``) on
first use and caches them; the cached value is a function of the immutable
fields, so two threads racing on it store equal tuples.  The conic helpers
at the end (pencil_key, conic_matrix, cofactors, determinant_cubic,
rank_one_member) take those integer tuples; the survey reads from them
which pairs span one pencil and how many distinct points a pair shares, and
the relation walk the pencils of q_0 and the double line of a pencil.

The expression grammar accepted by :func:`parse_polynomial`::

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" NAT)?
    base   := NUMBER ["/" NUMBER] | "x" | "y" | "z" | "(" expr ")"

Whitespace is insignificant, ``^`` binds tighter than ``*`` binds tighter
than ``+``/``-``, and ``p/q`` is a rational literal (general division is not
part of the grammar).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, log10
from operator import add, mul
from typing import Iterable, Sequence

Mono3 = tuple[int, int, int]
Mono2 = tuple[int, int]
Terms = dict[tuple[int, ...], Fraction | int]

VAR_NAMES = ("x", "y", "z")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}

# the largest curve degree accepted: d = 24 (twelve conics) takes some 10 s
# to analyze, and the time grows steeply with d
MAX_DEGREE = 24


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial expression.  ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonHomogeneousError(ValueError):
    """An expression expanded to terms of mixed total degree."""


class DegreeLimitError(ValueError):
    """A curve of degree above :data:`MAX_DEGREE`."""


def degree_dimension(t: int) -> int:
    """Dimension of the space of degree-t forms in three variables."""
    return (t + 1) * (t + 2) // 2 if t >= 0 else 0


def monomials_of_degree(t: int) -> list[Mono3]:
    """All exponent triples of total degree t in descending grlex order."""
    if t < 0:
        return []
    return [(i, j, t - i - j) for i in range(t, -1, -1) for j in range(t - i, -1, -1)]


# ---------------------------------------------------------------------------
# Sparse arithmetic on term maps (exponent tuple -> nonzero coefficient), for
# exponent tuples of any length.  Sums start from the integer 0, so a map with
# integer coefficients stays integer.


def _add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for mono, c in b.items():
        v = out.get(mono, 0) + c
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


def _scale(a: Terms, c: Fraction | int) -> Terms:
    if c == 0:
        return {}
    return {m: c * v for m, v in a.items()}


def _mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    # cancellation is rare: drop the zeros once per product
    return {m: c for m, c in out.items() if c}


def _power(a: Terms, n: int, arity: int) -> Terms:
    result: Terms = {(0,) * arity: 1}
    for _ in range(n):
        result = _mul(result, a)
    return result


def _degree(a: Terms) -> int:
    return max(map(sum, a), default=0)


def _grlex_key(mono: tuple[int, ...]) -> tuple[int, ...]:
    return (sum(mono),) + mono[:-1]


def _mono_text(mono: tuple[int, ...], names: tuple[str, ...]) -> str:
    factors = []
    for name, e in zip(names, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def _format_terms(items: list[tuple[str, Fraction]]) -> str:
    """Join (monomial text, coefficient) pairs into a parseable expression."""
    parts: list[str] = []
    for mono_text, coeff in items:
        mag = abs(coeff)
        if mono_text:
            body = mono_text if mag == 1 else f"{mag}*{mono_text}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


class HomogeneousPolynomial:
    """A homogeneous form in x, y, z with exact rational coefficients.

    The zero form is the empty term map together with a declared degree.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Mono3, Fraction | int]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Mono3, Fraction] = {}
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(mono) != 3 or min(mono) < 0:
                raise ValueError(f"bad exponent triple {mono!r}")
            if sum(mono) != degree:
                raise ValueError(
                    f"monomial {mono} has degree {sum(mono)}, expected {degree}"
                )
            clean[mono] = c
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousPolynomial":
        return cls(degree, {})

    @classmethod
    def variable(cls, name: str) -> "HomogeneousPolynomial":
        mono = [0, 0, 0]
        mono[_VAR_INDEX[name]] = 1
        return cls(1, {tuple(mono): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousPolynomial):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return HomogeneousPolynomial(self.degree, _add(self.terms, other.terms))

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + (-other)

    def __neg__(self) -> "HomogeneousPolynomial":
        return self.scale(-1)

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree + other.degree, _mul(self.terms, other.terms))

    def __pow__(self, n: int) -> "HomogeneousPolynomial":
        if n < 0:
            raise ValueError("negative power")
        return HomogeneousPolynomial(self.degree * n, _power(self.terms, n, 3))

    def scale(self, c: Fraction | int) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(self.degree, _scale(self.terms, c))

    def partial(self, var: str) -> "HomogeneousPolynomial":
        """Formal partial derivative; the degree drops by one."""
        if var not in _VAR_INDEX:
            raise ValueError(f"unknown variable {var!r}")
        if self.degree < 1:
            raise ValueError("derivative needs degree >= 1")
        i = _VAR_INDEX[var]
        out: dict[Mono3, Fraction] = {}
        for mono, c in self.terms.items():
            if mono[i] == 0:
                continue
            m = list(mono)
            m[i] -= 1
            out[tuple(m)] = c * mono[i]
        return HomogeneousPolynomial(self.degree - 1, out)

    def sorted_terms(self) -> list[tuple[Mono3, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        return _format_terms([(_mono_text(m, VAR_NAMES), c) for m, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"HomogeneousPolynomial({self.degree}, {self})"


def expand_product(forms: Iterable[HomogeneousPolynomial]) -> HomogeneousPolynomial:
    """The product of forms, expanded once.

    Integral coefficients enter _mul as Python integers (the numerator where
    the denominator is 1), so integer input multiplies in integers and the
    product is converted to Fraction once; other coefficients stay Fraction.
    Raises ValueError on a coefficient past the digit limit (_check_digits).
    """
    degree, terms = 0, {(0, 0, 0): 1}
    for g in forms:
        degree += g.degree
        integral = {m: c.numerator if c.denominator == 1 else c for m, c in g.terms.items()}
        terms = _mul(terms, integral)
    _check_digits(terms)
    return HomogeneousPolynomial(degree, terms)


class AffinePolynomial:
    """A bivariate polynomial with exact rational coefficients.

    The local equation of a curve in an affine chart centered at a point of
    interest, as :func:`dehomogenize` returns it; a value, with no arithmetic
    of its own.  ``var_names`` records which projective coordinates the two
    local variables came from; it is display metadata only and does not
    participate in equality.
    """

    __slots__ = ("terms", "var_names")

    def __init__(
        self,
        terms: dict[Mono2, Fraction | int],
        var_names: tuple[str, str] = ("x", "y"),
    ):
        clean: dict[Mono2, Fraction] = {}
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(mono) != 2 or min(mono) < 0:
                raise ValueError(f"bad exponent pair {mono!r}")
            clean[mono] = c
        self.terms = clean
        self.var_names = var_names

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[Mono2, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        return _format_terms([(_mono_text(m, self.var_names), c) for m, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"AffinePolynomial({self})"


@dataclass(frozen=True)
class ProjectivePoint:
    """A rational projective point in canonical integer form.

    Coordinates are coprime integers and the last nonzero coordinate is
    positive, so equal points compare equal and hash consistently.
    """

    x: int
    y: int
    z: int

    @classmethod
    def of(cls, x: Fraction | int, y: Fraction | int, z: Fraction | int) -> "ProjectivePoint":
        ix, iy, iz = x, y, z
        if not (type(x) is int and type(y) is int and type(z) is int):
            fx, fy, fz = Fraction(x), Fraction(y), Fraction(z)
            denom_lcm = lcm(fx.denominator, fy.denominator, fz.denominator)
            ix, iy, iz = (f.numerator * (denom_lcm // f.denominator) for f in (fx, fy, fz))
        if ix == iy == iz == 0:
            raise ValueError("(0,0,0) is not a projective point")
        g = gcd(ix, iy, iz)
        ix, iy, iz = ix // g, iy // g, iz // g
        last = iz if iz != 0 else (iy if iy != 0 else ix)
        if last < 0:
            ix, iy, iz = -ix, -iy, -iz
        return cls(ix, iy, iz)

    @classmethod
    def parse(cls, text: str) -> "ProjectivePoint":
        """Parse ``a:b:c`` (optionally parenthesized) with rational entries."""
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        parts = body.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'x:y:z', got {text!r}")
        return cls.of(*(Fraction(p.strip()) for p in parts))

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __hash__(self) -> int:
        # The hash of the coordinates, as the dataclass would give, computed
        # once per point: points key the survey's tables at every lookup.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.x, self.y, self.z))
            object.__setattr__(self, "_hash", value)
            return value

    def __str__(self) -> str:
        return f"({self.x}:{self.y}:{self.z})"


# ---------------------------------------------------------------------------
# Parsing


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(), the most digits int() reads, or 0 for
    no limit: Python has none before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _check_digits(terms: Terms) -> None:
    """Refuse an expansion with a coefficient whose numerator or denominator
    has more digits than the limit, which str() would refuse to print."""
    limit = _digit_limit()
    sizes = (max(abs(c.numerator), c.denominator) for c in terms.values())
    # below 2^(3.32 * limit) < 10^limit a number has at most limit digits
    if limit and any(n.bit_length() > 3.32 * limit and n >= 10**limit for n in sizes):
        raise ValueError(
            f"an expanded coefficient has more than {limit} digits, the limit for integers"
        )


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> PolynomialSyntaxError:
        return PolynomialSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> Terms:
        result = self.parse_expr()
        if self.peek():
            raise self.error(f"unexpected character {self.peek()!r}")
        return result

    def parse_expr(self) -> Terms:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        total = _scale(self.parse_term(), sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            total = _add(total, _scale(term, -1 if op == "-" else 1))
        return total

    def check_degree(self, degree: int) -> None:
        """Refuse to expand a product whose degree would pass the limit."""
        if degree > MAX_DEGREE:
            raise DegreeLimitError(
                f"degree {degree} is above the limit of {MAX_DEGREE} (at position {self.pos})"
            )

    def parse_term(self) -> Terms:
        product = self.parse_factor()
        while self.peek() == "*":
            self.take()
            factor = self.parse_factor()
            self.check_degree(_degree(product) + _degree(factor))
            product = _mul(product, factor)
        return product

    def parse_factor(self) -> Terms:
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            exponent = self.parse_nat()
            if _degree(base) == 0:
                return self.constant_power(base.get((0, 0, 0), 0), exponent)
            self.check_degree(_degree(base) * exponent)
            return _power(base, exponent, 3)
        return base

    def constant_power(self, c: Fraction | int, exponent: int) -> Terms:
        """c^exponent in one power, refused when its numerator or denominator
        would have more digits than int() accepts in a literal."""
        size = max(abs(c.numerator), c.denominator)
        limit = _digit_limit()
        # size^exponent has floor(exponent*log10(size)) + 1 digits
        if limit and size > 1 and exponent >= limit / log10(size):
            raise ValueError(
                f"the constant {c} to the power {exponent} has more than {limit} digits,"
                f" the limit for integers (at position {self.pos})"
            )
        value = c**exponent
        return {(0, 0, 0): value} if value else {}

    def parse_base(self) -> Terms:
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return inner
        if ch in _VAR_INDEX:
            self.take()
            mono = [0, 0, 0]
            mono[_VAR_INDEX[ch]] = 1
            return {tuple(mono): 1}
        if ch.isdigit():
            num = self.parse_nat()
            if self.peek() == "/":
                self.take()
                if not self.peek().isdigit():
                    raise self.error("expected denominator after '/'")
                den = self.parse_nat()
                if den == 0:
                    raise self.error("zero denominator")
                return {(0, 0, 0): Fraction(num, den)}
            return {(0, 0, 0): num}
        if ch == "":
            raise self.error("unexpected end of expression")
        raise self.error(f"unexpected character {ch!r}")

    def parse_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        limit = _digit_limit()
        if limit and self.pos - start > limit:
            raise PolynomialSyntaxError(
                f"the number has {self.pos - start} digits, more than {limit},"
                " the limit for integers",
                start,
            )
        return int(self.text[start : self.pos])


def parse_polynomial(text: str) -> HomogeneousPolynomial:
    """Parse and expand an expression into a homogeneous form.

    Raises :class:`PolynomialSyntaxError` on malformed input and on a
    number literal with more digits than ``sys.get_int_max_str_digits()``,
    :class:`NonHomogeneousError` when the expansion mixes total degrees,
    :class:`DegreeLimitError`, before expanding it, on a product of degree
    above :data:`MAX_DEGREE`, and ``ValueError`` on a constant power or an
    expanded coefficient with more digits than that limit.
    """
    expanded = _Parser(text).parse()
    _check_digits(expanded)
    degrees = {sum(mono) for mono in expanded}
    if len(degrees) > 1:
        raise NonHomogeneousError(
            f"terms of mixed degrees {sorted(degrees)} in {text!r}"
        )
    degree = degrees.pop() if degrees else 0
    return HomogeneousPolynomial(degree, expanded)


def content_lines(text: str) -> list[tuple[int, str]]:
    """(line number from 1, line) of an input file, ``#`` comments and blank lines dropped."""
    lines = ((n, line.split("#", 1)[0].strip()) for n, line in enumerate(text.splitlines(), 1))
    return [(n, line) for n, line in lines if line]


def dehomogenize(
    f: HomogeneousPolynomial, point: ProjectivePoint | tuple
) -> AffinePolynomial:
    """Local equation of f in an affine chart centered at a rational point.

    The chart is the last nonzero coordinate of the point; that coordinate is
    set to 1 and the point is translated to the origin, so the result vanishes
    at (0, 0) exactly when f vanishes at the point.
    """
    p = point if isinstance(point, ProjectivePoint) else ProjectivePoint.of(*point)
    coords = p.coords()
    chart = max(i for i in range(3) if coords[i] != 0)
    u, v = (i for i in range(3) if i != chart)
    u_shift = {(1, 0): 1, (0, 0): Fraction(coords[u], coords[chart])}
    v_shift = {(0, 1): 1, (0, 0): Fraction(coords[v], coords[chart])}
    result: Terms = {}
    for mono, c in f.terms.items():
        term = _mul(_power(u_shift, mono[u], 2), _power(v_shift, mono[v], 2))
        result = _add(result, _scale(term, c))
    return AffinePolynomial(result, (VAR_NAMES[u], VAR_NAMES[v]))


# ---------------------------------------------------------------------------
# Conics


@dataclass(frozen=True)
class ConicForm:
    """A ternary quadratic form, stored by its six coefficients."""

    xx: Fraction
    yy: Fraction
    zz: Fraction
    xy: Fraction
    xz: Fraction
    yz: Fraction

    def __post_init__(self) -> None:
        for name in ("xx", "yy", "zz", "xy", "xz", "yz"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if all(
            getattr(self, name) == 0 for name in ("xx", "yy", "zz", "xy", "xz", "yz")
        ):
            raise ValueError("the zero form is not a conic")

    @classmethod
    def from_polynomial(cls, f: HomogeneousPolynomial) -> "ConicForm":
        if f.degree != 2:
            raise ValueError(f"a conic must have degree 2, got {f.degree}")
        g = f.terms.get
        return cls(
            xx=g((2, 0, 0), Fraction(0)),
            yy=g((0, 2, 0), Fraction(0)),
            zz=g((0, 0, 2), Fraction(0)),
            xy=g((1, 1, 0), Fraction(0)),
            xz=g((1, 0, 1), Fraction(0)),
            yz=g((0, 1, 1), Fraction(0)),
        )

    @classmethod
    def parse(cls, text: str) -> "ConicForm":
        return cls.from_polynomial(parse_polynomial(text))

    @cached_property
    def integer(self) -> tuple[int, int, int, int, int, int]:
        """The six coefficients times the lcm of their denominators, divided
        by the content.

        The scale factor is positive, so signs are kept: two forms are
        proportional exactly when their integer forms are equal or opposite.
        """
        cs = (self.xx, self.yy, self.zz, self.xy, self.xz, self.yz)
        den = lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (den // c.denominator) for c in cs]
        g = gcd(*ints)
        return tuple(v // g for v in ints)

    def polynomial(self) -> HomogeneousPolynomial:
        return HomogeneousPolynomial(
            2,
            {
                (2, 0, 0): self.xx,
                (0, 2, 0): self.yy,
                (0, 0, 2): self.zz,
                (1, 1, 0): self.xy,
                (1, 0, 1): self.xz,
                (0, 1, 1): self.yz,
            },
        )

    def is_proportional_to(self, other: "ConicForm") -> bool:
        a, b = self.integer, other.integer
        return a == b or a == tuple(-v for v in b)

    def __str__(self) -> str:
        return str(self.polynomial())


def conic_is_smooth(q: ConicForm) -> bool:
    """True exactly when the symmetric matrix M of q has nonzero determinant.

    For the integer form, 2M has the coefficients themselves off the
    diagonal, and the expression below is det(2M)/2.
    """
    xx, yy, zz, xy, xz, yz = q.integer
    return 4 * xx * yy * zz + xy * xz * yz - xx * yz * yz - yy * xz * xz - zz * xy * xy != 0


def pencil_key(qi: Sequence[int], qj: Sequence[int]) -> tuple[int, ...]:
    """The pencil that the integer conics qi and qj span: the 15 minors
    qi[a]*qj[b] - qj[a]*qi[b] (a < b, in lexicographic order) of [qi; qj],
    made primitive with the first nonzero one positive.

    The minors of [alpha*qi + beta*qj; gamma*qi + delta*qj] are those of
    [qi; qj] times alpha*delta - beta*gamma, so two pairs of conics get one
    key exactly when they span one pencil.  Proportional conics span none
    and get the 15 zeros.
    """
    a0, a1, a2, a3, a4, a5 = qi
    b0, b1, b2, b3, b4, b5 = qj
    minors = (
        a0 * b1 - b0 * a1, a0 * b2 - b0 * a2, a0 * b3 - b0 * a3, a0 * b4 - b0 * a4,
        a0 * b5 - b0 * a5, a1 * b2 - b1 * a2, a1 * b3 - b1 * a3, a1 * b4 - b1 * a4,
        a1 * b5 - b1 * a5, a2 * b3 - b2 * a3, a2 * b4 - b2 * a4, a2 * b5 - b2 * a5,
        a3 * b4 - b3 * a4, a3 * b5 - b3 * a5, a4 * b5 - b4 * a5,
    )
    g = gcd(*minors)
    if not g:
        return minors
    if next(filter(None, minors)) < 0:
        g = -g
    return tuple([m // g for m in minors])


def conic_matrix(q: Sequence[int]) -> list[list[int]]:
    """2M for the integer conic q = (xx, yy, zz, xy, xz, yz) (ConicForm.integer),
    M its symmetric matrix."""
    xx, yy, zz, xy, xz, yz = q
    return [[2 * xx, xy, xz], [xy, 2 * yy, yz], [xz, yz, 2 * zz]]


def cofactors(m: list[list[int]]) -> list[int]:
    """The nine signed cofactors of a 3x3 matrix, row by row."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        e * i - f * h, f * g - d * i, d * h - e * g,
        c * h - b * i, a * i - c * g, b * g - a * h,
        b * f - c * e, c * d - a * f, a * e - b * d,
    ]


def determinant_cubic(qi: Sequence[int], qj: Sequence[int]) -> list[int]:
    """The coefficients c_0 .. c_3 of c(t) = det(A + t*B), A and B the
    conic_matrix of the integer conics qi and qj.

    For two smooth, distinct conics the Segre symbol of this pencil fixes
    their intersection pattern; they meet in four distinct points exactly
    when c has no multiple root.
    """
    a, b = conic_matrix(qi), conic_matrix(qj)
    flat_a, flat_b, cof_a, cof_b = sum(a, []), sum(b, []), cofactors(a), cofactors(b)
    return [
        sum(map(mul, flat_a[:3], cof_a[:3])),  # det A
        sum(map(mul, flat_b, cof_a)),
        sum(map(mul, flat_a, cof_b)),
        sum(map(mul, flat_b[:3], cof_b[:3])),  # det B
    ]


def rank_one_member(qi: Sequence[int], qj: Sequence[int]) -> tuple[int, tuple[int, ...] | None]:
    """The multiple root t0 of determinant_cubic(qi, qj) for two smooth
    integer conics: its order (1 where there is none) and, where the member
    qi + t0*qj is a double line L^2 (rank one: all cofactors zero), L as a
    primitive integer triple with its first nonzero entry positive.

    A cubic c_0 + c_1 t + c_2 t^2 + c_3 t^3 (c_3 = det B != 0) has a
    multiple root exactly where its discriminant is zero, so generic pairs
    stop there; a cubic over Q has at most one multiple root, so t0 is
    rational: -c_2 / (3 c_3) of order 3 where c_2^2 = 3 c_1 c_3, else
    (9 c_0 c_3 - c_1 c_2) / (2 (c_2^2 - 3 c_1 c_3)) of order 2.  A singular
    conic gives (1, None).
    """
    c0, c1, c2, c3 = determinant_cubic(qi, qj)
    disc = (c1 * c2) ** 2 - 4 * (c0 * c2**3 + c1**3 * c3) + c0 * c3 * (18 * c1 * c2 - 27 * c0 * c3)
    if disc or not c0 * c3:
        return 1, None
    top = c2 * c2 - 3 * c1 * c3
    order, n, d = (3, -c2, 3 * c3) if top == 0 else (2, 9 * c0 * c3 - c1 * c2, 2 * top)
    a, b = conic_matrix(qi), conic_matrix(qj)
    member = [[d * u + n * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    if any(cofactors(member)):
        return order, None
    row = next(r for r in member if any(r))
    g = gcd(*row) * (1 if next(v for v in row if v) > 0 else -1)
    return order, tuple(v // g for v in row)
