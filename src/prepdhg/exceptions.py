class ConfigurationError(ValueError):
    """Raised when a solver/metric/problem is assembled inconsistently.

    Configuration problems (unsupported prox/metric pairs, stepsize bounds,
    indefinite metrics) are rejected when objects are built or a solve
    starts, never in the middle of an iteration.
    """


def require(message, **bounds):
    """Refuse with ``message``, naming the first parameter whose bound does
    not hold; ``bounds`` maps each name to ``(value, holds)``, and ``holds``
    is written so that NaN fails it (``x > 0``, not ``not x <= 0``)."""
    for name, (value, holds) in bounds.items():
        if not holds:
            raise ConfigurationError(f"{message} ({name} = {value})")
