"""Maximum-distance-separable multidimensional convolutional codes over
finite fields: construction, certification, and empirical distance probing."""

from .galois import FiniteField, GaloisError, make_field
from .multipoly import (
    NEG_INF,
    Polynomial,
    PolyMatrix,
    monomials_upto,
    term_key,
)
from .superreg import (
    ConstMatrix,
    SearchExhaustedError,
    SuperregularityReport,
    cauchy_matrix,
    is_superregular,
    nullspace,
    random_superregular,
)
from .codes import (
    CERTIFIED_DISTANCE,
    CERTIFIED_MDS,
    MD_STAIRCASE_BOUND,
    NOT_CERTIFIED,
    RATE_1N,
    STAIRCASE_KN,
    CodeDescriptor,
    ConstructionError,
    FieldTooSmallError,
    FlattenedMatrix,
    MdsCertificate,
    certify,
    construct_mds_rate_1n,
    construct_mds_staircase,
    phi_flatten,
    phi_lift,
    singleton_bound,
    singleton_witness,
    staircase_distance_bound,
    support_count,
    support_count_identity_check,
)
from .distance import (
    DistanceReport,
    codeword_weight_profile,
    default_cap,
    encode,
    free_distance_estimate,
)
