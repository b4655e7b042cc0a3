"""Exception hierarchy.  ``exit_code`` is what the CLI returns to the shell."""


class QbmError(Exception):
    exit_code = 2


class ValidationError(QbmError):
    """Bad user input: config keys, parameter ranges, malformed tables."""

    exit_code = 1


class FileError(QbmError):
    """Missing or unreadable/unwritable files."""

    exit_code = 3


class NumericalError(QbmError):
    """A numerical procedure failed or left its domain of validity."""

    exit_code = 2


class StabilityError(NumericalError):
    """Time step too large for the explicit integrator."""


class LeakageError(NumericalError):
    """Population reached the top of the truncated Fock basis."""


class DomainTooSmallError(NumericalError):
    """Integration domain does not contain the integrand's support."""
