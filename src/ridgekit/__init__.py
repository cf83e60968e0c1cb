"""ridgekit: exact density analysis and constructive approximation for
single-hidden-layer networks whose weights are restricted to finitely many
directions.

The package decides, for a finite point set and a finite direction family,
whether sums of per-direction univariate profiles can match arbitrary data
on the points (producing an exact annihilating-measure certificate when they
cannot), and constructs explicit networks - either with a user-supplied
continuous nonpolynomial activation, or with a built activation that needs
exactly one unit per direction.
"""

from .activation import (
    ActivationSpec,
    EncoderBudgetError,
    Network,
    NetworkTerm,
    UnivariateEncoding,
    build_k_network,
    encode_univariate,
    eval_network,
    sigma_eval,
    smooth_step,
)
from .bolts import (
    Bolt,
    BoltGenerationError,
    BoltGenerator,
    PointTest,
    ProbeReport,
    RidgeTest,
    bolt_measure,
    build_bolt_graph,
    find_closed_bolt,
    orbits,
    paper_orbit_generator,
    verify_bolt,
    weak_star_probe,
)
from .enumeration import (
    RationalPoly,
    calkin_wilf_index,
    calkin_wilf_rational,
    code_rational,
    decode_poly,
    encode_poly,
    rational_code,
)
from .incidence import (
    ClosedPathCertificate,
    DensityPreconditionError,
    DensityVerdict,
    IncidenceStructure,
    LevelTable,
    PointConfig,
    RidgeSum,
    build_incidence,
    density_verdict,
    find_closed_path,
    interpolate_ridge,
)
from .measures import (
    Direction,
    DiscreteMeasure,
    Point,
    ProjectedMeasure,
    integrate,
    is_annihilating,
    pushforward,
    total_variation,
)
from .netapprox import (
    FitBudgetError,
    PolynomialActivationError,
    SigmaOracle,
    ThetaInterval,
    UnivariateFit,
    approx_network,
    approx_univariate,
    logistic_oracle,
    polynomial_degree_probe,
    sigma_by_name,
    table_oracle,
    table_oracle_from_csv,
    tanh_ramp_oracle,
)
from .rationals import format_rational, rationalize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
