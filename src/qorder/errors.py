"""The package's errors, importable without the layers that raise them.

``parser``, ``ordering``, ``bessel`` and ``quadrature`` raise these and
re-export them under the same names; the CLI catches them from here, so
each command loads only the layer it uses.
"""

from ._value import Record, Value, _set


class SourceSpan(Value):
    __slots__ = _fields = ("start", "end")

    def __init__(self, start: int, end: int):
        if start > end:
            raise ValueError("span start after end")
        _set(self, "start", start)
        _set(self, "end", end)


class ParseError(Record, ValueError):
    """Raised on text outside the operator grammar: what went wrong, its
    span, and the tokens that would have been accepted there."""

    _fields = ("message", "span", "expected")

    def __init__(self, message: str, span: SourceSpan,
                 expected: list[str] | None = None):
        if not message:
            raise ValueError("empty parse error message")
        self.message = message
        self.span = span
        self.expected = [] if expected is None else expected

    def __str__(self):
        loc = f"at {self.span.start}..{self.span.end}"
        if self.expected:
            return f"{self.message} {loc} (expected {', '.join(self.expected)})"
        return f"{self.message} {loc}"


class OrderingError(ValueError):
    """Raised when an expression cannot be normal-ordered as requested."""


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
