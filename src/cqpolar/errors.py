"""Exception types shared across the package."""


class StructuralError(ValueError):
    """An input violates a structural contract (wrong group, bad matrix, ...)."""


class LoadError(StructuralError):
    """A channel/plan file failed validation."""


class CapacityError(RuntimeError):
    """A computation exceeds the configured resource ceiling.

    Raised eagerly instead of switching to approximations: every downstream
    quantity feeds an exact inequality check, so silent truncation is worse
    than failure.
    """
