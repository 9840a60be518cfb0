"""Verification lab for sharp weighted Fourier extension estimates on the circle.

Exact rational classifiers for the boundedness regions of the weighted
circle-extension operators, constructive interpolation-exponent
certificates, and numerical experiments reproducing every counterexample
scaling: Knapp caps, constant-density divergence, endpoint blow-ups and the
oscillatory-integral small-parameter law.
"""

from .analysis import (
    ExtremaTable,
    bessel_j0,
    cosine_weight_kernel,
    fresnel_constant,
    hankel_decay_transform,
    j0_extrema,
    j0_zeros,
)
from .errors import ConfigurationError, NumericalError
from .experiments import (
    ConstantSumResult,
    PittResult,
    PredictedExponent,
    ScanResult,
    ScanSample,
    SlopeFit,
    constant_density_sums,
    dual_scan,
    fit_loglog_slope,
    knapp_scan,
    l2_endpoint_scan,
    pitt_sweep,
    predicted_exponent,
)
from .exponents import (
    INF,
    DomainError,
    ExtScalar,
    RadialParams,
    SeparableParams,
    Verdict,
    classify_radial,
    classify_separable,
    conjugate_exponent,
    inv_conjugate,
    riesz_diagram,
)
from .feasibility import (
    CertificateOne,
    CertificateTwo,
    Infeasible,
    solve_one,
    solve_two,
    verify_one,
    verify_two,
)
from .norms import Grid2, Sampled1, WeightSpec, weak_lq_1d, weighted_lq_2d
from .operator import (
    Density,
    Point2,
    circle_norm,
    constant_reference,
    extend,
)

__all__ = [
    "INF",
    "DomainError",
    "NumericalError",
    "ConfigurationError",
    "ExtScalar",
    "RadialParams",
    "SeparableParams",
    "Verdict",
    "classify_radial",
    "classify_separable",
    "conjugate_exponent",
    "inv_conjugate",
    "riesz_diagram",
    "CertificateOne",
    "CertificateTwo",
    "Infeasible",
    "solve_one",
    "solve_two",
    "verify_one",
    "verify_two",
    "ExtremaTable",
    "bessel_j0",
    "j0_extrema",
    "j0_zeros",
    "cosine_weight_kernel",
    "fresnel_constant",
    "hankel_decay_transform",
    "Density",
    "Point2",
    "extend",
    "circle_norm",
    "constant_reference",
    "Grid2",
    "WeightSpec",
    "Sampled1",
    "weighted_lq_2d",
    "weak_lq_1d",
    "PredictedExponent",
    "SlopeFit",
    "ScanSample",
    "ScanResult",
    "predicted_exponent",
    "fit_loglog_slope",
    "knapp_scan",
    "ConstantSumResult",
    "constant_density_sums",
    "l2_endpoint_scan",
    "PittResult",
    "pitt_sweep",
    "dual_scan",
]

__version__ = "0.1.0"
