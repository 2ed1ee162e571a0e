"""The error bases a ``colo`` command's exit code follows.

A project error derives from the base of the exit code it maps to:
:class:`ConfigError` (2) for a setting the user gave, :class:`DataError` (3)
for an input file, :class:`NumericError` (4) for a training run that went
non-finite.  Any other exception is a programming error and propagates.
:func:`fits` is the type rule a config value from a file must obey, for
config files and checkpoint headers alike.
"""


class ConfigError(ValueError):
    """A setting from a flag or config file is malformed or out of range."""


class DataError(Exception):
    """An input file is malformed, truncated, or does not fit the run."""


class NumericError(Exception):
    """Training hit a non-finite loss."""


def fits(value, default):
    """Whether a value read from a file can stand for a config field whose default is ``default``."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(fits(v, default[0]) for v in value)
    return isinstance(value, type(default))
