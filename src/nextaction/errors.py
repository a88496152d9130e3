"""Exception types shared across the package.

Every type survives a pickle round trip, so an error raised in a fold
worker process reaches the command line as itself.
"""


class NextactionError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRecordError(NextactionError):
    """A record of an input file that does not match its format.

    ``lineno`` is a line number in a text file, or a byte offset when
    ``unit`` is "byte".
    """

    def __init__(self, lineno: int, reason: str, unit: str = "line"):
        super().__init__(f"{unit} {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason
        self.unit = unit

    def __reduce__(self):
        return type(self), (self.lineno, self.reason, self.unit)


class ConfigError(NextactionError):
    """An invalid configuration value."""


class UnfittedModelError(NextactionError):
    """A prediction was requested from a model with no observations."""


class DuplicateItemError(NextactionError):
    """A course-order file lists the same token more than once."""


class NumericalFaultError(NextactionError):
    """Non-finite values were fed into a numerical routine."""
