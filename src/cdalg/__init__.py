"""cdalg: exact construction, checking and classification of
finite-dimensional real nonassociative algebras given by structure constants.

Highlights: the doubling (Cayley-Dickson) tower with involutions and natural
gradings; two exceptional twisted tables in dimensions 8 and 16; exact
decision procedures for quadratic / locally complex / alternative /
super-alternative / nicely normed algebras; constructive recognizers for the
alternative division algebras and the seven super-alternative locally
complex algebras; alter-scalar spaces, annihilators, zero-divisor searches;
and the full canonical-form classification in dimensions 3 and 4.
"""

from .analysis import (
    AlterScalarSpace,
    CensusReport,
    HomomorphismCheck,
    RecognitionResult,
    ZeroDivisorSearch,
    alter_scalar_space,
    annihilator,
    check_homomorphism,
    classify_super_alternative,
    find_unit_square_vector,
    random_rational_orthogonal,
    recognize_alternative_division,
    rotated_copy,
    subalgebra_census,
    verify_iso,
    zero_divisor_search,
)
from .construct import (
    Grading,
    InvolutiveAlgebra,
    NamedAlgebra,
    cayley_dickson,
    cayley_dickson_tower,
    jordan_spin_algebra,
    named_algebra,
    natural_grading,
)
from .core import (
    Algebra,
    Element,
    MinimalQuadratic,
    change_of_basis,
    generated_subalgebra,
    minimal_quadratic,
)
from .errors import (
    CdalgError,
    DimensionMismatchError,
    InconsistentInputError,
    InvalidGradingError,
    MalformedInputError,
    NonUnitalError,
    NotAlternativeError,
    NotLocallyComplexError,
    NotQuadraticError,
    UnknownAlgebraError,
    UnsupportedRationalClassError,
)
from .fileio import (
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    parse_element,
    save_algebra,
)
from .linalg import Subspace
from .lowdim import (
    CanonicalForm3,
    DivisionCheck,
    Equiv4Result,
    GeometricType,
    HyperboloidConfig,
    Params4,
    build_3d,
    build_4d,
    build_raw_3d,
    canonical_params_3d,
    equiv_4d,
    extract_params_4d,
    geometric_type,
    hyperboloid_config,
    is_division_4d,
    params_equal_3d,
)
from .properties import (
    LocallyComplexCertificate,
    Verdict,
    is_alternative,
    is_commutative_jn,
    is_locally_complex,
    is_nicely_normed,
    is_quadratic,
    is_super_alternative,
    middle_moufang_on_basis,
)
from .verify import VerificationReport, run_claim, run_verification

__version__ = "0.1.0"
