"""The exact engine as an oracle for the certified pipeline.

Window values and the minimal relation come from linalg.rank and
linalg.kernel_basis on the syzygy matrices alone, with none of the
relation walk, the leading-term bounds or the modular engine.
"""

from conicfree import jacobian, linalg
from conicfree.jacobian import AtLeast, syzygy_matrix
from conicfree.poly import degree_dimension


def exact_window(ctx):
    """(t, dim S_t - rank A_{t-d+1}) for t = 3d-6 .. 3d-4, the window of hilbert_profile."""
    lo = 3 * ctx.d - 6
    return tuple(
        (t, degree_dimension(t) - linalg.rank(syzygy_matrix(ctx, t - ctx.d + 1)))
        for t in range(lo, lo + 3)
    )


def exact_mdr(ctx):
    """The first vector of the first nonzero kernel in degrees 0 .. d-2, as a witness."""
    for r in range(ctx.d - 1):
        vectors = linalg.kernel_basis(syzygy_matrix(ctx, r)).vectors
        if vectors:
            return jacobian._vector_to_witness(r, vectors[0])
    return AtLeast(ctx.d - 1)
