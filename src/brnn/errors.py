"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent dimensions, unknown options, or out-of-range settings."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values.

    ``k`` is the first offending time step when known; ``epoch`` is attached
    by the training loop before re-raising.
    """

    def __init__(self, message, k=None, epoch=None):
        super().__init__(message)
        self.k = k
        self.epoch = epoch


class StateOverflowError(NumericalError):
    """Forward recursion produced a non-finite state or output."""


class CostateExplosionError(NumericalError):
    """Backward multiplier recursion blew up (exploding-gradient detector)."""


class DivergenceError(NumericalError):
    """Training diverged: a total cost that is not finite or grows past the
    divergence limit, or a parameter update with non-finite entries."""


class UnboundedRegionError(NumericalError):
    """No stability certificate: ||A||_2 >= 1, so no bounded invariant
    region exists; a relu/identity state with ||A||_2 + ||U||_2 >= 1, which
    has no small-gain bound; or a certificate that overflows float64. k and
    epoch stay None."""


class DatasetFormatError(ValueError):
    """Malformed dataset CSV. ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointFormatError(ValueError):
    """Malformed or unrecognized checkpoint file."""
