"""Exception types shared across the package, and the two
checks every config record makes: the record check (a mapping whose keys
are a dataclass's fields) and the number check on each value."""

import dataclasses
import numbers


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

    def __reduce__(self):
        # rebuilt from its fields, so it can cross a process boundary
        return type(self), (self.measured_ratio, self.bound, self.iterations)


class StepSizeError(FracflowError):
    """The inner fixed-point loop of the marching solver diverged; the
    time step is too large for the nonlinearity."""


def require_number(value, what: str, integer: bool = False):
    """A real number from a config record, as float (as int when
    ``integer``, which also rejects fractional values); bools, strings,
    None and containers raise ConfigurationError naming ``what``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (integer and not float(value).is_integer())):
        kind = "an integer" if integer else "a number"
        raise ConfigurationError(f"{what} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def from_record(cls, record, what: str):
    """``cls(**record)`` for a dataclass ``cls``, after checking that
    ``record`` is a mapping whose keys are fields of ``cls`` and that it
    holds every field without a default; values are left to
    ``cls.__post_init__``.  Errors name the record by ``what``."""
    if not isinstance(record, dict):
        raise ConfigurationError(f"{what} record must be a mapping")
    fields = dataclasses.fields(cls)
    extra = set(record) - {f.name for f in fields}
    if extra:
        raise ConfigurationError(
            f"unknown {what} keys: {sorted(extra, key=str)}")
    missing = [f.name for f in fields if f.name not in record
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigurationError(f"{what} record missing {sorted(missing)}")
    return cls(**record)
