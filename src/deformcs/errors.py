"""Exception types shared across the package."""


class DeformError(Exception):
    """Base class for package-specific errors."""


class InvalidInputError(DeformError, ValueError):
    """Malformed or inconsistent input data."""


class StencilRangeError(DeformError, IndexError):
    """A residual stencil reaches outside the sampled grid."""


class UnsupportedDDAError(DeformError):
    """The requested DDA does not support the operation (e.g. L1 drives no flow)."""


class SingularFlowError(DeformError):
    """A continuous flow reached a singular configuration."""


class SingularOrbitError(DeformError):
    """A discrete map step hit a vanishing denominator."""


class SingularGaugeError(DeformError):
    """The gauge matrix is not invertible at the requested point."""
