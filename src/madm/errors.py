"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures (non-finite values, violated bounds, non-termination)
exit with 3.
"""


class MadmError(Exception):
    """Base class for all package errors."""


class ConfigError(MadmError):
    """Invalid configuration: unknown keys, missing capabilities, bad presets."""


class DomainError(MadmError, ValueError):
    """An argument lies outside its mathematical domain."""


class NonFiniteError(MadmError, FloatingPointError):
    """A score, drift, or estimate came back NaN or infinite."""


class BoundViolationError(MadmError):
    """The envelope C failed to dominate the line integrand."""


class DegenerateMixtureError(MadmError):
    """Mixture target requested at zero noise (sigma_t = 0)."""


class NonterminationError(MadmError):
    """The accept/reject loop hit its round cap without deciding.

    Carries diagnostics so the caller can see how stuck the loop was.
    """

    def __init__(self, message: str, *, rounds: int, c_bound: float,
                 log_h: float):
        super().__init__(message)
        self.rounds = rounds
        self.c_bound = c_bound
        self.log_h = log_h
