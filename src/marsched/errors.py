"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
training divergence exits 3, I/O failures exit 4.
"""


class MarschedError(Exception):
    """Base class for all package errors."""


class ConfigError(MarschedError):
    """Invalid configuration value, unknown key, or inconsistent options."""


class TraceFormatError(MarschedError):
    """Unrecoverable problem with a trace file."""


class ContractError(MarschedError):
    """A caller violated an API precondition (programming error, not input error)."""


class SchedulingError(MarschedError):
    """Simulation cannot make progress, e.g. a job larger than the machine."""


class ModelFormatError(MarschedError):
    """Model file is unreadable, carries an unsupported format version, or
    does not match its own hyperparameters."""


class TrainingDiverged(MarschedError):
    """Nonfinite gradients or parameters encountered during optimization."""
