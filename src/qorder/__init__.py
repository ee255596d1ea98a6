"""Symbolic normal ordering for the Heisenberg algebra plus a numeric
verification layer (Bessel evaluation, oscillatory quadrature, Fourier
reconstruction, ODE residuals).

The numeric layer is imported on the first access to one of its names,
so symbolic work never loads it.  Of its modules only ``quadrature`` and
``verification`` load numpy; ``bessel`` and ``coordinate`` (the Bessel
side and the order fit) are plain Python.
"""

import importlib

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
from .errors import BesselDomainError, QuadratureError

# public name -> the numeric module that defines it
_LAZY = {name: module for module, names in (
    ("bessel", ("BesselEval", "bessel_first_zero", "bessel_j",
                "bessel_j_derivatives")),
    ("quadrature", ("QuadratureSpec", "sin_cos_integral",
                    "sin_phase_integral")),
    ("coordinate", ("CoordinateEigenfunction", "ResidualReport",
                    "coordinate_ode_residual", "determine_bessel_order")),
    ("verification", ("MomentumEigenfunction", "Reconstruction",
                      "fourier_reconstruct", "fourier_reconstruct_detailed",
                      "momentum_ode_residual", "reconstruction_first_zero",
                      "verify_integral_identity")),
) for name in names}

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
    "BesselDomainError", "QuadratureError",
    *_LAZY,
]


def __getattr__(name):
    """Import a numeric name on first access and keep it in the module
    globals, so later lookups do not come here (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
