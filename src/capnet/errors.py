"""Exception types shared across the package."""


class InstanceFormatError(ValueError):
    """Raised when instance or label-cover JSON violates the schema.

    `field` names the offending entry, e.g. "edges[3][2]".
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class CapabilityError(RuntimeError):
    """Input exceeds a documented size cap or work budget of an exact
    routine."""


class InfeasibleError(RuntimeError):
    """No edge selection can meet the requirements.  Carries a witness cut."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class DisconnectedError(RuntimeError):
    """Enumeration relative to the minimum cut is undefined at min cut zero."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, not bad input.  Raised by
    explicit checks, so `python -O` keeps them."""


def invariant(holds, message):
    if not holds:
        raise InvariantError(message)
