"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """A numerical search or integration did not converge."""


class NoCoherenceError(ValueError):
    """Initial state has no anti-diagonal coherence; the dephasing QSLT
    prefactor is undefined (nothing evolves under the channel)."""


class FrozenDynamicsError(RuntimeError):
    """The attenuation factor is identically 1 on the requested window, so
    the QSLT ratio is 0/0 and carries no information."""


class ConfigError(ValueError):
    """Scenario configuration is invalid. ``field`` and ``line`` locate the
    offending entry when known."""

    def __init__(self, message, field=None, line=None):
        loc = []
        if field is not None:
            loc.append(f"field '{field}'")
        if line is not None:
            loc.append(f"line {line}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.field = field
        self.line = line
