"""Exception types shared across the package."""


class StabilityError(ValueError):
    """Self-excitation jump size is not strictly below the decay rate."""


class PolicyError(ValueError):
    """An investment-rate callback returned an inadmissible (negative) value."""


class SolverError(RuntimeError):
    """The backward solve failed (grid too large, Newton not converged or a
    non-finite stage); carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(ValueError):
    """Invalid run configuration; carries one diagnostic per violation."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class GainUndefinedError(ValueError):
    """Relative gain is undefined because the benchmark value is not positive."""
