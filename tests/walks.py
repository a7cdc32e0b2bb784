"""Two relation walks of one curve, compared by what the analysis reads of them.

Below d1 no walk finds a relation, and at d1 both put the kernel in the
standard form linalg.kernel_basis returns, so the witness is one vector.
Above d1 a walk may take the pool's candidates where another lifts or
spans the kernel: their generators then differ as vectors, but not in
degree, and at each degree their multiples span the same relations.
"""

import numpy as np

from conicfree import jacobian, linalg
from conicfree.jacobian import hilbert_profile, mdr, relation_generators
from conicfree.linalg import RatMatrix


def assert_same_walk(ctx, other):
    """The walks of two contexts of one curve agree: the same generator
    degrees, the same first generator vector for vector, at every
    generator degree e multiples of equal exact span (each stack has the
    certified rank of both stacked), and the same mdr and window."""
    mine, theirs = relation_generators(ctx), relation_generators(other)
    assert [e for e, _ in mine] == [e for e, _ in theirs]
    if mine:
        assert tuple(mine[0][1]) == tuple(theirs[0][1])
    for e in sorted({e for e, _ in mine}):
        a, b = (jacobian._relation_multiples(g, e) for g in (mine, theirs))
        ranks = [linalg.rank_certified(RatMatrix(m)) for m in (a, b, np.concatenate([a, b]))]
        assert ranks[0] == ranks[1] == ranks[2], (e, ranks)
    assert mdr(ctx) == mdr(other)
    assert hilbert_profile(ctx) == hilbert_profile(other)
