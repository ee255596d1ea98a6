"""The numeric layer's errors, importable without numpy.

``qorder.bessel`` and ``qorder.quadrature`` raise these and re-export
them under the same names; the CLI catches them from here, so its
symbolic commands never import the numeric layer.
"""


class BesselDomainError(ValueError):
    """Raised for a Bessel order or argument outside the documented range."""


class QuadratureError(RuntimeError):
    """Raised when the lobe sums fail to converge; carries the partial
    value, the error estimate and the number of lobes summed."""

    def __init__(self, message, value=None, error=None, lobes=None):
        super().__init__(message)
        self.value = value
        self.error = error
        self.lobes = lobes
