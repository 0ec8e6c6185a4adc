"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Fields or weights living on different grids were combined."""


class SizeGuardError(RuntimeError):
    """A dense O(N^2)-or-worse routine was asked for more points than allowed,
    or the j_alpha table for more Taylor steps than its budget."""


class IntegrabilityGuardError(ValueError):
    """A sigma-region reaches the integrability boundary of the dilation measure."""


class SigmaRangeError(ValueError):
    """The configured sigma range is too narrow for the requested tolerance."""


class ConfigError(ValueError):
    """An experiment configuration document failed validation."""


class MeasureRangeError(ArithmeticError):
    """The measure's normalization constant or weights leave the float range."""
