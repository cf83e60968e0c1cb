"""ridgekit: exact density analysis and constructive approximation for
single-hidden-layer networks whose weights are restricted to finitely many
directions.

The package decides, for a finite point set and a finite direction family,
whether sums of per-direction univariate profiles can match arbitrary data
on the points (producing an exact annihilating-measure certificate when they
cannot), and constructs explicit networks - either with a user-supplied
continuous nonpolynomial activation, or with a built activation that needs
exactly one unit per direction.

Importing the package loads none of its modules: each name it exports is
imported from its module on first use (PEP 562), and so is each module, as
in ``ridgekit.bolts``.  Only ``netapprox`` and ``kfit`` import numpy.
"""

from importlib import import_module as _import_module

# module -> the names the package re-exports from it
_EXPORTS = {
    "activation": (
        "ActivationSpec", "Network", "NetworkTerm", "eval_network", "sigma_eval", "smooth_step",
    ),
    "bolts": (
        "Bolt", "BoltGenerationError", "BoltGenerator", "PointTest", "ProbeReport", "RidgeTest",
        "bolt_measure", "build_bolt_graph", "find_closed_bolt", "orbits",
        "paper_orbit_generator", "verify_bolt", "weak_star_probe",
    ),
    "enumeration": (
        "RationalPoly", "calkin_wilf_index", "calkin_wilf_rational", "code_rational",
        "decode_poly", "encode_poly", "rational_code",
    ),
    "incidence": (
        "ClosedPathCertificate", "DensityPreconditionError", "DensityVerdict",
        "IncidenceStructure", "LevelTable", "PointConfig", "RidgeSum", "build_incidence",
        "density_verdict", "find_closed_path", "interpolate_ridge",
    ),
    "kfit": (
        "EncoderBudgetError", "UnivariateEncoding", "build_k_network", "encode_univariate",
    ),
    "measures": (
        "Direction", "DiscreteMeasure", "Point", "ProjectedMeasure", "integrate",
        "is_annihilating", "pushforward", "total_variation",
    ),
    "netapprox": (
        "FitBudgetError", "PolynomialActivationError", "SigmaOracle", "ThetaInterval",
        "UnivariateFit", "approx_network", "approx_univariate", "logistic_oracle",
        "polynomial_degree_probe", "sigma_by_name", "table_oracle", "table_oracle_from_csv",
        "tanh_ramp_oracle",
    ),
    "rationals": (
        "format_rational", "rationalize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "activation", "bolts", "cli", "enumeration", "exactlinalg", "incidence",
    "kfit", "measures", "netapprox", "presets", "rationals",
)

# what ``from ridgekit import *`` binds: the re-exports and the library
# modules other than kfit, cli and presets
__all__ = [
    "ActivationSpec", "Bolt", "BoltGenerationError", "BoltGenerator", "ClosedPathCertificate",
    "DensityPreconditionError", "DensityVerdict", "Direction", "DiscreteMeasure",
    "EncoderBudgetError", "FitBudgetError", "IncidenceStructure", "LevelTable", "Network",
    "NetworkTerm", "Point", "PointConfig", "PointTest", "PolynomialActivationError",
    "ProbeReport", "ProjectedMeasure", "RationalPoly", "RidgeSum", "RidgeTest", "SigmaOracle",
    "ThetaInterval", "UnivariateEncoding", "UnivariateFit", "activation", "approx_network",
    "approx_univariate", "bolt_measure", "bolts", "build_bolt_graph", "build_incidence",
    "build_k_network", "calkin_wilf_index", "calkin_wilf_rational", "code_rational",
    "decode_poly", "density_verdict", "encode_poly", "encode_univariate", "enumeration",
    "eval_network", "exactlinalg", "find_closed_bolt", "find_closed_path", "format_rational",
    "incidence", "integrate", "interpolate_ridge", "is_annihilating", "logistic_oracle",
    "measures", "netapprox", "orbits", "paper_orbit_generator", "polynomial_degree_probe",
    "pushforward", "rational_code", "rationalize", "rationals", "sigma_by_name", "sigma_eval",
    "smooth_step", "table_oracle", "table_oracle_from_csv", "tanh_ramp_oracle",
    "total_variation", "verify_bolt", "weak_star_probe",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name or a module, imported on first use and then kept
    as a module global, which later lookups find without this call."""
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
