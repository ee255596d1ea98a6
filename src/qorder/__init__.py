"""Symbolic normal ordering for the Heisenberg algebra plus a numeric
verification layer (Bessel evaluation, oscillatory quadrature, Fourier
reconstruction, ODE residuals)."""

from .scalars import (HBAR, I, ONE, ZERO, ParamSymbol, ScalarError,
                      ScalarExpr)
from .exponents import ExponentExpr
from .operators import (BaseKind, Factor, OperatorExpr, OperatorWord,
                        func_power, p_power, x_power)
from .parser import ParseError, SourceSpan, parse_operator, print_operator
from .ordering import (AmbiguityReport, Convention, NormalForm,
                       ODEDescriptor, OrderingError, build_two_sided,
                       detect_ambiguity, hermitian_conjugate, hermitize,
                       momentum_rep_ode, normal_order)
from .bessel import (BesselDomainError, BesselEval, bessel_first_zero,
                     bessel_j, bessel_j_derivatives)
from .quadrature import (QuadratureError, QuadratureSpec, sin_cos_integral,
                         sin_phase_integral)
from .verification import (CoordinateEigenfunction, MomentumEigenfunction,
                           Reconstruction, ResidualReport,
                           coordinate_ode_residual, determine_bessel_order,
                           fourier_reconstruct, fourier_reconstruct_detailed,
                           momentum_ode_residual, reconstruction_first_zero,
                           verify_integral_identity)

__version__ = "0.1.0"

__all__ = [
    "HBAR", "I", "ONE", "ZERO", "ParamSymbol", "ScalarError", "ScalarExpr",
    "ExponentExpr",
    "BaseKind", "Factor", "OperatorExpr", "OperatorWord",
    "func_power", "p_power", "x_power",
    "ParseError", "SourceSpan", "parse_operator", "print_operator",
    "AmbiguityReport", "Convention", "NormalForm", "ODEDescriptor",
    "OrderingError", "build_two_sided", "detect_ambiguity",
    "hermitian_conjugate", "hermitize", "momentum_rep_ode", "normal_order",
    "BesselDomainError", "BesselEval", "bessel_first_zero", "bessel_j",
    "bessel_j_derivatives",
    "QuadratureError", "QuadratureSpec", "sin_cos_integral",
    "sin_phase_integral",
    "CoordinateEigenfunction", "MomentumEigenfunction", "Reconstruction",
    "ResidualReport", "coordinate_ode_residual", "determine_bessel_order",
    "fourier_reconstruct", "fourier_reconstruct_detailed",
    "momentum_ode_residual", "reconstruction_first_zero",
    "verify_integral_identity",
]
