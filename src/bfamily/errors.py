"""Exception hierarchy shared across the package."""


class BFamilyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BFamilyError):
    """A run configuration or manifest is invalid."""


class NonFiniteFieldError(BFamilyError):
    """A physical-space field contains NaN or infinite samples."""


class SymmetryError(BFamilyError):
    """A spectrum claimed to represent a real field is not Hermitian."""


class BlowUpOverflowError(BFamilyError):
    """A computed value left the floating range: a right-hand side, an RK4 step or a norm."""


class NoiseFloorError(BFamilyError):
    """A requested fit mode sits below the round-off noise floor."""


class EmptyWindowError(BFamilyError):
    """No admissible wavenumbers remain in the requested fit window."""


class ExtrapolationError(BFamilyError):
    """An extrapolated fit parameter leaves the representable range."""
