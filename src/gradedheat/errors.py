"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (bad shapes, out-of-range
parameters) and ``ConfigError`` for a config that cannot be read.  The
subclasses of ``NumericalError`` mark the numerical failures: capability
limits, time-step preconditions, iteration breakdowns, and mollifier
supports the grid box cannot hold or its cells cannot resolve.  Only these
make a sweep's verdict ``Fail`` (any other exception from a sweep
propagates), and outside a sweep the CLI exits 3 on them.  Each keeps its
builtin base, so ``except ValueError`` and ``except RuntimeError`` still
catch it.
"""

from __future__ import annotations


class NumericalError(Exception):
    """A computation on a valid config failed; a sweep reports it as Fail."""


class CapabilityError(NumericalError, RuntimeError):
    """Requested computation exceeds a documented size or feature limit."""


class StabilityError(NumericalError, RuntimeError):
    """A time-step precondition is violated; the message names the bound."""


class ConvergenceError(NumericalError, RuntimeError):
    """An iterative solver failed to contract within its budget."""


class SupportError(NumericalError, ValueError):
    """A scaled mollifier support does not fit inside the grid box."""


class ResolutionError(NumericalError, ValueError):
    """A scaled mollifier support covers too few grid cells to be sampled."""


class ConfigError(ValueError):
    """A config file or config value could not be parsed."""
