"""Symbolic normal ordering for the Heisenberg algebra plus a numeric
verification layer (Bessel evaluation, oscillatory quadrature, Fourier
reconstruction, ODE residuals).

``import qorder`` loads no submodule: every public name is imported
from its module on first access, and so is every module named in the
table below (``qorder.parser``, ``qorder.bessel``, ...), so a program
loads only the layers it uses.  Every module is plain Python: the
Bessel side and the order fit (``bessel``, ``coordinate``) and the lobe
quadrature (``quadrature``, ``verification``) alike, and the package
depends on nothing outside the standard library.  The errors of every
layer live in ``errors``, which imports none of them.
"""

import importlib

# public name -> the module that defines it
_LAZY = {name: module for module, names in (
    ("scalars", ("HBAR", "I", "ONE", "ZERO", "ParamSymbol", "ScalarError",
                 "ScalarExpr")),
    ("exponents", ("ExponentExpr",)),
    ("operators", ("BaseKind", "Convention", "Factor", "OperatorExpr",
                   "OperatorWord", "func_power", "p_power", "x_power")),
    ("parser", ("parse_operator", "print_operator")),
    ("ordering", ("AmbiguityReport", "NormalForm",
                  "ODEDescriptor", "detect_ambiguity",
                  "hermitian_conjugate", "hermitize", "momentum_rep_ode",
                  "normal_order")),
    ("errors", ("BesselDomainError", "OrderingError", "ParseError",
                "QuadratureError", "SourceSpan")),
    ("bessel", ("BesselEval", "bessel_j", "bessel_j_derivatives")),
    ("quadrature", ("QuadratureSpec", "sin_cos_integral",
                    "sin_phase_integral")),
    ("coordinate", ("CoordinateEigenfunction", "ResidualReport",
                    "coordinate_ode_residual", "determine_bessel_order")),
    ("verification", ("MomentumEigenfunction", "Reconstruction",
                      "fourier_reconstruct_detailed", "momentum_ode_residual",
                      "verify_integral_identity")),
) for name in names}

__version__ = "0.1.0"

__all__ = [*_LAZY]


def __getattr__(name):
    """Import a public name or a module of the table on first access and
    keep it in the module globals, so later lookups do not come here
    (PEP 562)."""
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
