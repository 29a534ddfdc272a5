"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid configuration: unknown fields, out-of-range values, bad combinations."""


class ProtocolError(RuntimeError):
    """A communication protocol invariant was violated at runtime."""


class NumericalAbort(RuntimeError):
    """A non-finite value appeared in worker state; carries a diagnostic record."""

    def __init__(self, message, diagnostic=None, trace=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}
        self.trace = trace
