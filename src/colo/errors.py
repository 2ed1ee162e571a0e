"""The error bases a ``colo`` command's exit code follows.

A project error derives from the base of the exit code it maps to:
:class:`ConfigError` (2) for a setting the user gave, :class:`DataError` (3)
for an input file, :class:`NumericError` (4) for a training run that went
non-finite.  Any other exception is a programming error and propagates.
"""


class ConfigError(ValueError):
    """A setting from a flag or config file is malformed or out of range."""


class DataError(Exception):
    """An input file is malformed, truncated, or does not fit the run."""


class NumericError(Exception):
    """Training hit a non-finite loss."""
