"""Exact freeness and nearly-freeness analysis for plane conic arrangements."""

from conicfree.combinatorics import (
    EnumerationCertificate,
    IncidenceStructure,
    WeakCombinatorialType,
    bezout_count_check,
    enumerate_nearly_free_bound,
    enumerate_theorem_char,
    enumerate_theorem_near,
    is_combinatorially_supersolvable,
    weak_type_from_survey,
)
from conicfree.corpus import (
    CorpusEntry,
    CorpusNotFoundError,
    corpus_entries,
    entry,
    run_regression,
)
from conicfree.freeness import (
    FREE,
    NEARLY_FREE,
    NEITHER,
    DeformationCheck,
    FreenessReport,
    LctEntry,
    UnsupportedTypeError,
    arnold_exponent,
    build_report,
    check_bound_consistency,
    check_deformation,
    effective_inventory,
    eta_of,
    lct,
    mdr_lower_bound,
)
from conicfree.jacobian import (
    HilbertProfile,
    JacobianContext,
    SyzygyWitness,
    hilbert_profile,
    mdr,
    milnor_dim,
    syzygy_matrix,
    verify_witness,
)
from conicfree.linalg import (
    KernelBasis,
    RatMatrix,
    kernel_basis,
    kernel_basis_certified,
    rank,
    rank_certified,
)
from conicfree.locus import (
    BranchJet,
    ConicArrangement,
    LocusSurvey,
    NotSingularError,
    SingType,
    SingularPointRecord,
    branch_jet,
    classify_point,
    local_intersection_multiplicity,
    rational_pair_intersections,
    survey,
)
from conicfree.poly import (
    AffinePolynomial,
    ConicForm,
    HomogeneousPolynomial,
    NonHomogeneousError,
    PolynomialSyntaxError,
    ProjectivePoint,
    conic_is_smooth,
    dehomogenize,
    parse_polynomial,
)
from conicfree.report import Analysis, analysis_document, analyze_curve, render_text, to_json

__version__ = "0.1.0"
