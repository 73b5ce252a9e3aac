"""Exception and warning types shared across the package."""


class FracflowError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FracflowError, ValueError):
    """A parameter, grid, measure, or run configuration is invalid."""


class NumericError(FracflowError, ArithmeticError):
    """A field, flux or coefficient array became non-finite."""


class ResolutionError(FracflowError):
    """The requested quantity is not representable on the given grid
    (e.g. a kernel too peaked for the mesh spacing)."""


class NonContractionError(FracflowError):
    """Picard iteration hit the iteration cap with a growing residual."""

    def __init__(self, measured_ratio: float, bound: float, iterations: int):
        self.measured_ratio = measured_ratio
        self.bound = bound
        self.iterations = iterations
        super().__init__(
            f"residual still growing after {iterations} iterations: "
            f"measured ratio {measured_ratio:.6g} vs contraction bound {bound:.6g}"
        )


class StepSizeError(FracflowError):
    """The inner fixed-point loop of the marching solver diverged; the
    time step is too large for the nonlinearity."""


class LadderWarning(UserWarning):
    """A cut-off ladder run is not behaving like a Cauchy sequence
    (pairwise distances fail to decrease); carries the measured data."""

    def __init__(self, message: str, data=None):
        super().__init__(message)
        self.data = data
