"""Seeded inputs for the generated workloads, built from stdlib integers only.

Nothing here imports ``conicfree``: the program under test receives only the
text each input renders to, and every fact an oracle relies on is derived
here by independent integer arithmetic.  Candidates are rejected only by
stated mathematical criteria (smoothness, general position, degenerate
pencil members), never by how long the program takes on them.

A conic is a tuple of six integers ``(xx, yy, zz, xy, xz, yz)`` for
``xx*x^2 + yy*y^2 + zz*z^2 + xy*x*y + xz*x*z + yz*y*z``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

MONOMIALS = ("x^2", "y^2", "z^2", "x*y", "x*z", "y*z")

# generic: eight k = 3 sextics from the seed (so the median input is the
# middle of eight sextics, not the second slowest of a few), then one k = 4
# octic from a fixed seed (see generic_inputs); coefficients in [-5, 5]
GENERIC_SEXTICS = (3,) * 8
GENERIC_OCTIC_SEED = "conicfree-bench/generic-octic"
GENERIC_COEFF = 5

# planted: contact orders of the planted pairs, pencil sizes, height ladder
PLANTED_CONTACTS = (2, 3, 4)
# Three k = 4 pencils sit between the nine pairs below and nine larger pencils
# above, so the median input of a batch is the middle k = 4 pencil rather
# than the boundary between pairs and pencils.
PLANTED_PENCILS = (4, 4, 4, 5, 5, 6, 6, 6, 7, 7, 8, 8)
# Rungs [lo, hi) of pair height, the largest coefficient of the two conics.
# Capped where trial division in the rational root finder still lets a batch
# finish in seconds; see perfbench/README.md ("height ladder cap").
PLANTED_RUNGS = ((8, 16), (32, 64), (128, 256))


# ---------------------------------------------------------------------------
# Integer helpers


def content_free(values: tuple[int, ...]) -> tuple[int, ...]:
    """Divide out the content and make the first nonzero entry positive."""
    g = 0
    for v in values:
        g = gcd(g, v)
    if g == 0:
        return values
    out = tuple(v // g for v in values)
    lead = next(v for v in out if v)
    return out if lead > 0 else tuple(-v for v in out)


def canonical_point(p: tuple[int, int, int]) -> str:
    """Text of a projective point: coprime, last nonzero coordinate positive."""
    g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
    x, y, z = (c // g for c in p)
    last = z if z else (y if y else x)
    if last < 0:
        x, y, z = -x, -y, -z
    return f"({x}:{y}:{z})"


def cross(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


def conic_eval(q: tuple[int, ...], p: tuple[int, ...]) -> int:
    x, y, z = p
    return (
        q[0] * x * x + q[1] * y * y + q[2] * z * z
        + q[3] * x * y + q[4] * x * z + q[5] * y * z
    )


def conic_gradient(q: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, int, int]:
    x, y, z = p
    return (
        2 * q[0] * x + q[3] * y + q[4] * z,
        2 * q[1] * y + q[3] * x + q[5] * z,
        2 * q[2] * z + q[4] * x + q[5] * y,
    )


def conic_det(q: tuple[int, ...]) -> int:
    """Determinant of twice the symmetric matrix; zero exactly when singular."""
    a, b, c, d, e, f = 2 * q[0], q[3], q[4], 2 * q[1], q[5], 2 * q[2]
    return a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)


def line_product(l1: tuple[int, ...], l2: tuple[int, ...]) -> tuple[int, ...]:
    """The conic l1 * l2 for two linear forms."""
    return (
        l1[0] * l2[0],
        l1[1] * l2[1],
        l1[2] * l2[2],
        l1[0] * l2[1] + l1[1] * l2[0],
        l1[0] * l2[2] + l1[2] * l2[0],
        l1[1] * l2[2] + l1[2] * l2[1],
    )


def combine(a: int, q1: tuple[int, ...], b: int, q2: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a * u + b * v for u, v in zip(q1, q2))


def proportional(q1: tuple[int, ...], q2: tuple[int, ...]) -> bool:
    return content_free(q1) == content_free(q2) or content_free(q1) == content_free(
        tuple(-v for v in q2)
    )


def conic_text(q: tuple[int, ...]) -> str:
    parts: list[str] = []
    for c, mono in zip(q, MONOMIALS):
        if c == 0:
            continue
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{body}")
    return "".join(parts)


def height(conics: list[tuple[int, ...]]) -> int:
    return max(abs(c) for q in conics for c in q)


# ---------------------------------------------------------------------------
# General position of generic conics (exact, over the rationals)


def _resultant_x(q1: tuple[int, ...], q2: tuple[int, ...]) -> list[int]:
    """Res_x(q1, q2) as a binary quartic, coefficient i of y^i z^(4-i).

    Writes q = A x^2 + B x + C with B linear and C quadratic in (y, z) and
    uses the Bezoutian (A1 C2 - A2 C1)^2 - (A1 B2 - A2 B1)(B1 C2 - B2 C1).
    """

    def split(q):
        # polynomials in t = y/z scaled by z-degree, low-to-high in y
        return q[0], [q[4], q[3]], [q[2], q[5], q[1]]

    def mul(p1, p2):
        out = [0] * (len(p1) + len(p2) - 1)
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                out[i + j] += a * b
        return out

    def sub(p1, p2):
        n = max(len(p1), len(p2))
        p1 = p1 + [0] * (n - len(p1))
        p2 = p2 + [0] * (n - len(p2))
        return [a - b for a, b in zip(p1, p2)]

    a1, b1, c1 = split(q1)
    a2, b2, c2 = split(q2)
    ac = sub([a1 * v for v in c2], [a2 * v for v in c1])
    ab = sub([a1 * v for v in b2], [a2 * v for v in b1])
    bc = sub(mul(b1, c2), mul(b2, c1))
    return sub(mul(ac, ac), mul(ab, bc))


def _poly_gcd_degree(p1: list[int], p2: list[int]) -> int:
    """Degree of gcd of two univariate polynomials (low-to-high), -1 for zero."""

    def trim(p):
        p = [Fraction(v) for v in p]
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(p1), trim(p2)
    while b:
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            s = len(a) - len(b)
            for i, v in enumerate(b):
                a[s + i] -= f * v
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _binary_squarefree(form: list[int]) -> bool:
    """Binary quartic with four distinct roots in P^1 (nonzero discriminant)."""
    if form[4] == 0 and form[3] == 0:
        return False  # double root at (1:0)
    deriv = [i * v for i, v in enumerate(form)][1:]
    return _poly_gcd_degree(form, deriv) == 0


def _binary_coprime(f1: list[int], f2: list[int]) -> bool:
    if f1[4] == 0 and f2[4] == 0:
        return False  # common root at (1:0)
    return _poly_gcd_degree(f1, f2) == 0


def in_general_position(conics: list[tuple[int, ...]]) -> bool:
    """Every pair meets in four distinct points and no three conics share one.

    Projects from (1:0:0), which must lie on no conic.  A squarefree
    resultant gives four distinct fibers, hence four transverse points per
    pair; coprime resultants of (i, j) and (i, l) rule out a point common to
    three conics.  Both criteria are sufficient, so some arrangements in
    general position are rejected too, which only thins the distribution.
    """
    if any(q[0] == 0 for q in conics):
        return False
    k = len(conics)
    res = {}
    for i in range(k):
        for j in range(i + 1, k):
            r = _resultant_x(conics[i], conics[j])
            if not _binary_squarefree(r):
                return False
            res[(i, j)] = r
    for i in range(k):
        for j in range(i + 1, k):
            for m in range(j + 1, k):
                if not _binary_coprime(res[(i, j)], res[(i, m)]):
                    return False
    return True


# ---------------------------------------------------------------------------
# Workload generators


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"conicfree-bench/{workload}/{seed}/{batch}")


def _generic_conics(rng: random.Random, k: int) -> list[tuple[int, ...]]:
    while True:
        conics: list[tuple[int, ...]] = []
        while len(conics) < k:
            q = tuple(rng.randint(-GENERIC_COEFF, GENERIC_COEFF) for _ in range(6))
            if 0 in q or conic_det(q) == 0 or any(proportional(q, p) for p in conics):
                continue
            conics.append(q)
        if in_general_position(conics):
            return conics


def generic_inputs(seed: int, batch: int = 0) -> list[dict]:
    """Random dense smooth conics in general position, coefficients in [-5, 5].

    The sextics are drawn from the seed; the octic is one arrangement drawn
    from a fixed seed.  Its time is dominated by the exact fallback, whose
    cost depends on the presentation of the input (between random octics,
    and even between coordinate permutations of one octic, by a factor 1.5
    or more), and one octic per run is all the run time allows.  Oracle by
    Bezout and general position: every pair gives four nodes, so
    tau = 2k(k-1) and the effective inventory is {A1: tau}.
    """
    rng = _rng("generic", seed, batch)
    arrangements = [_generic_conics(rng, k) for k in GENERIC_SEXTICS]
    arrangements.append(_generic_conics(random.Random(GENERIC_OCTIC_SEED), 4))
    return [
        {
            "id": f"g{batch}.{index}.k{len(conics)}",
            "kind": "analyze",
            "texts": [conic_text(q) for q in conics],
            "expect": {"k": len(conics), "tau": 2 * len(conics) * (len(conics) - 1)},
        }
        for index, conics in enumerate(arrangements)
    ]


def _random_point(rng: random.Random, bound: int) -> tuple[int, int, int]:
    while True:
        p = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(p):
            g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
            return tuple(c // g for c in p)


def _conic_through(rng: random.Random, p: tuple[int, int, int], h: int) -> tuple[int, ...]:
    """A smooth integer conic through p: m(p) * Q - Q(p) * m for a monomial m."""
    i = next(n for n in range(3) if p[n])
    square = [0] * 6
    square[i] = 1
    while True:
        base = tuple(rng.randint(-h, h) for _ in range(6))
        q = combine(p[i] * p[i], base, -conic_eval(base, p), tuple(square))
        if any(q) and conic_det(q) != 0:
            return content_free(q)


def _line_meets_conic(q: tuple[int, ...], line: tuple[int, int, int]) -> int:
    """Rational points of q on the line: 2 or 0 (tangency is excluded)."""
    # two independent points spanning the line
    basis = [cross(line, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    basis = [b for b in basis if any(b)]
    u = basis[0]
    v = next(b for b in basis[1:] if any(cross(u, b)))
    # q(s u + t v) = alpha s^2 + beta s t + gamma t^2
    alpha = conic_eval(q, u)
    gamma = conic_eval(q, v)
    beta = conic_eval(q, tuple(a + b for a, b in zip(u, v))) - alpha - gamma
    disc = beta * beta - 4 * alpha * gamma
    if disc == 0:
        return -1
    if disc > 0 and isqrt(disc) ** 2 == disc:
        return 2
    return 0


def _planted_pair(rng: random.Random, c: int, rung: tuple[int, int]) -> tuple[list, dict]:
    """Two smooth conics with contact order exactly c at a rational point P.

    q' = q + lam*T*M with T the tangent of q at P: q and q' meet on T*M = 0,
    i.e. at P doubly (T) plus q.M.  c = 4 takes M = T; c = 3 takes M through
    P but not tangent; c = 2 takes M off P and not tangent to q.  The pair's
    height (largest coefficient) must fall in the rung [lo, hi); the
    coefficient range of q is steered towards it between candidates.
    """
    lo, hi = rung
    h = 1
    while True:
        p = _random_point(rng, 2)
        q = _conic_through(rng, p, h)
        t = content_free(conic_gradient(q, p))
        if c == 4:
            m = t
            extra = 0
        elif c == 3:
            m = content_free(cross(p, _random_point(rng, 2)))
            if not any(m) or proportional(m, t):
                continue
            extra = 1  # M meets q again at one rational point
        else:
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            if not any(m) or dot(m, p) == 0:
                continue
            extra = _line_meets_conic(q, m)
            if extra < 0:
                continue  # M tangent to q: a second tacnode
        lam = rng.choice((-2, -1, 1, 2))
        q2 = content_free(combine(1, q, lam, line_product(t, m)))
        if conic_det(q2) == 0 or proportional(q, q2):
            continue
        pair_height = height([q, q2])
        if not lo <= pair_height < hi:
            h = h + 1 if pair_height < lo else max(1, h - 1)
            continue
        expect = {
            "point": canonical_point(p),
            "contact": c,
            "type": f"A{2 * c - 1}",
            "extra_points": extra,
            "complete": c + extra == 4,
        }
        return [q, q2], expect


def _pencil(rng: random.Random, k: int) -> tuple[list, dict]:
    """k members of the pencil through four rational points in general position.

    Spanned by the line pairs L12*L34 and L13*L24; the third line pair of the
    pencil and every other singular member are rejected by their determinant.
    """
    while True:
        pts = [_random_point(rng, 1) for _ in range(4)]
        if any(
            dot(cross(pts[a], pts[b]), pts[c]) == 0
            for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4)
        ):
            continue  # three collinear base points (or a repeated one)
        f = line_product(cross(pts[0], pts[1]), cross(pts[2], pts[3]))
        g = line_product(cross(pts[0], pts[2]), cross(pts[1], pts[3]))
        members: list[tuple[int, ...]] = []
        params = [(a, b) for a in range(-3, 4) for b in range(1, 4) if gcd(a, b) == 1]
        rng.shuffle(params)
        for a, b in params:
            q = content_free(combine(a, f, b, g))
            if conic_det(q) == 0 or any(proportional(q, m) for m in members):
                continue
            members.append(q)
            if len(members) == k:
                break
        if len(members) == k:
            expect = {"base_points": sorted(canonical_point(p) for p in pts), "k": k}
            return members, expect


def planted_inputs(seed: int, batch: int = 0) -> list[dict]:
    """Pairs with planted contact order on a height ladder, then pencils."""
    rng = _rng("planted", seed, batch)
    out = []
    for rung in PLANTED_RUNGS:
        for c in PLANTED_CONTACTS:
            conics, expect = _planted_pair(rng, c, rung)
            out.append(
                {
                    "id": f"p{batch}.h{rung[0]}.c{c}",
                    "kind": "survey",
                    "texts": [conic_text(q) for q in conics],
                    "expect": dict(expect, shape="pair", height=height(conics)),
                }
            )
    for index, k in enumerate(PLANTED_PENCILS):
        conics, expect = _pencil(rng, k)
        out.append(
            {
                "id": f"p{batch}.pencil{k}.{index}",
                "kind": "survey",
                "texts": [conic_text(q) for q in conics],
                "expect": dict(expect, shape="pencil", height=height(conics)),
            }
        )
    return out
