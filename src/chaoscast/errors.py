"""Named error types raised across the pipeline."""


class ChaoscastError(Exception):
    """Base class for all library errors."""


class IntegrationDivergedError(ChaoscastError):
    """The surrogate integrator produced a non-finite state.

    ``step`` is the first non-finite step and ``row`` the first diverged
    row of the integrated batch at that step.
    """

    def __init__(self, step: int, row: int, message: str | None = None):
        self.step = step
        self.row = row
        super().__init__(message or f"integration diverged at step {step}")


class ConfigError(ChaoscastError):
    """Invalid pipeline configuration or window schedule."""


class StationarityNotReachedError(ConfigError):
    """No steady window, or too few steady seasons: the config and seed fix that,
    so it is a config error, naming the surrogate settings to change."""


class PanelFormatError(ChaoscastError):
    """Malformed input file: a ground or attractor panel, or a key or model file."""
