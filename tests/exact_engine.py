"""The exact engine as an oracle for the certified pipeline.

Window values and the minimal relation come from linalg.rank and
linalg.kernel_basis on the syzygy matrices alone, with none of the
relation walk, the leading-term bounds or the modular engine.
"""

from conicfree import jacobian, linalg
from conicfree.jacobian import syzygy_matrix
from conicfree.poly import degree_dimension


def exact_window(ctx):
    """(t, dim S_t - rank A_{t-d+1}) for t = 3d-6 .. 3d-4, the window of hilbert_profile."""
    lo = 3 * ctx.d - 6
    return tuple(
        (t, degree_dimension(t) - linalg.rank(syzygy_matrix(ctx, t - ctx.d + 1)))
        for t in range(lo, lo + 3)
    )


def exact_mdr(ctx):
    """The first vector of the first nonzero kernel in degrees 0 .. d-1, as a witness.

    Degree d-1 always has one: the Koszul relations.
    """
    for r in range(ctx.d):
        vectors = linalg.kernel_basis(syzygy_matrix(ctx, r)).vectors
        if vectors:
            return jacobian._vector_to_witness(r, vectors[0])
    raise AssertionError("no relation in degree d-1, where the Koszul relations lie")


def agrees_with_exact_mdr(ctx, witness):
    """Whether witness has the degree of exact_mdr(ctx) and, below d-1, its vector.

    In degree d-1 mdr takes a Koszul relation, which need not be the
    first vector of the exact kernel basis there, so only the degrees are
    compared.
    """
    exact = exact_mdr(ctx)
    return witness.r == exact.r and (exact.r == ctx.d - 1 or witness == exact)
