"""SVD feature extraction from noisy discrete joints, weak-symmetry
measurement, and error-exponent verification."""

from .dependence import (
    CdmMatrix,
    canonical_dependence_matrix,
    chain_residual_operator,
    select_features,
    uncentered_b,
)
from .ensemble import (
    AttributeEnsembleSpec,
    configuration_stream,
    information_ensemble,
    sample_configuration,
)
from .errors import (
    AlphabetMismatchError,
    FeasibilityError,
    MaxcorrError,
    RankDeficiencyError,
    ValidationError,
)
from .exponent import (
    ExponentReport,
    SideExponents,
    analytic_pairwise_exponent,
    average_exponents,
    iprojection_exponent,
    mc_error_curve,
    exponent_bound,
)
from .geometry import (
    Configuration,
    FeatureSet,
    InformationMatrix,
    config_from_information_matrix,
    feature_vectors,
    information_matrix,
    normalize_features,
)
from .model import (
    Channel,
    JointPmf,
    Pmf,
    apply_channels,
    joint_from_samples,
    make_channel,
)
from .symmetry import (
    MatrixEnsemble,
    SecondMomentForm,
    delta_report,
    moment_symmetry_report,
    projection_bound_check,
    propagation_check,
    rank_one_range,
    second_moment_form,
)

__version__ = "0.1.0"
