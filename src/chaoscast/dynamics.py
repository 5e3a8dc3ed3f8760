"""Surrogate dynamics: stationary attractor estimates at fixed forcing.

A Lorenz-96 ring plays the role of a climate model run at a constant
tuning parameter. One routine, :func:`steady_run`, integrates a run past
its transient, aggregates it to seasonal means and truncates it at the
detected steady state. The attractor library standardizes each such run
and tags it with its forcing value; a fresh synthetic ground record is
another such run, at a forcing outside the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationDivergedError, StationarityNotReachedError
from .panel import Coord, Panel
from .seeding import derive_rng

WET = "wet"  # per-site seasonal mean of the raw state (precipitation analog)
TMP = "tmp"  # per-site seasonal mean of a short trailing average (temperature analog)
IDX = "idx"  # derived two-region difference indices


@dataclass(frozen=True)
class TuningParameter:
    """A fixed external control of the dynamics (forcing F)."""

    value: float
    label: str

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("tuning parameter value must be finite")


@dataclass
class Trajectory:
    states: np.ndarray  # (n_steps + 1, K), includes the initial state
    dt: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] < 1:
            raise ValueError("states must be a non-empty (steps, K) array")
        if self.K < 4:
            raise ValueError("Lorenz-96 coupling needs at least 4 sites")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite entries")

    @property
    def K(self) -> int:
        return self.states.shape[1]

    def energy(self) -> np.ndarray:
        """0.5 * sum_i x_i(t)^2 per stored step."""
        return 0.5 * np.sum(self.states**2, axis=1)


@dataclass
class AttractorEstimate:
    """Steady-state seasonal panel of one fixed-parameter run."""

    parameter: TuningParameter
    panel: Panel  # steady seasons only, standardized per series
    steady_start: int  # season index of the original run where stationarity begins
    seed: int
    scale: dict[Coord, tuple[float, float]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.parameter.label

    def trailing_mean(self, variable: str = WET, n_seasons: int = 100) -> float:
        """Mean of the raw (de-standardized) observable over the trailing seasons.

        Cross-site mean of the last ``n_seasons`` steady seasons, the
        run's realized steady-state level on the parameter axis.
        """
        vals = []
        for (var, site), series in self.panel.values.items():
            if var != variable:
                continue
            mean, sd = self.scale.get((var, site), (0.0, 1.0))
            vals.append(series[-n_seasons:] * sd + mean)
        if not vals:
            raise ValueError(f"no series for variable {variable!r}")
        return float(np.mean(vals))


def _l96_rhs(x: np.ndarray, F: float) -> np.ndarray:
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + F


def integrate_lorenz96(F, K, dt, n_steps, x0=None, seed=None,
                       perturbation=1e-3) -> Trajectory:
    """Integrate the Lorenz-96 ring dx_i/dt = (x_{i+1}-x_{i-2}) x_{i-1} - x_i + F.

    Fixed-step classic 4th-order Runge-Kutta. Deterministic given
    (x0, F, dt, n_steps); ``seed`` only draws an optional Gaussian
    perturbation of the initial condition (used to kick runs off the
    x = F fixed point). Raises IntegrationDivergedError naming the step
    if the state blows up.
    """
    if K < 4:
        raise ValueError("Lorenz-96 coupling needs at least 4 sites (K >= 4)")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if x0 is None:
        x = np.full(K, float(F))
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (K,):
            raise ValueError(f"x0 must have shape ({K},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("x0 must be finite")
    if seed is not None:
        x = x + perturbation * derive_rng(seed, "x0").standard_normal(K)

    states = np.empty((n_steps + 1, K))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = _l96_rhs(x, F)
            k2 = _l96_rhs(x + 0.5 * dt * k1, F)
            k3 = _l96_rhs(x + 0.5 * dt * k2, F)
            k4 = _l96_rhs(x + dt * k3, F)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise IntegrationDivergedError(i)
            states[i] = x
    return Trajectory(states=states, dt=dt)


@dataclass(frozen=True)
class Observable:
    """One panel series extracted from a trajectory.

    ``smooth_steps`` > 1 applies a trailing moving average on the step
    series before seasonal aggregation (the temperature analog).
    """

    variable: str
    site: str
    site_index: int
    smooth_steps: int = 1


def site_id(i: int) -> str:
    return f"s{i:02d}"


def default_observables(K: int, temp_smooth: int = 5) -> list[Observable]:
    """Per-site precipitation analog (raw) and temperature analog (smoothed)."""
    obs = [Observable(WET, site_id(i), i, 1) for i in range(K)]
    obs += [Observable(TMP, site_id(i), i, temp_smooth) for i in range(K)]
    return obs


def _trailing_mean(series: np.ndarray, w: int) -> np.ndarray:
    if w <= 1:
        return series
    c = np.cumsum(series)
    out = np.empty_like(series)
    out[:w] = c[:w] / np.arange(1, w + 1)
    out[w:] = (c[w:] - c[:-w]) / w
    return out


def seasonal_aggregate(traj: Trajectory, season_length: int,
                       observables: list[Observable]) -> Panel:
    """Seasonal means of selected observables; trailing partial season dropped."""
    if season_length < 1:
        raise ValueError("season_length must be >= 1")
    if not observables:
        raise ValueError("at least one observable is required")
    n_steps = traj.states.shape[0]
    if n_steps < season_length:
        raise ValueError("trajectory shorter than one season")
    n_seasons = n_steps // season_length
    used = n_seasons * season_length
    series = {}
    for ob in observables:
        if not (0 <= ob.site_index < traj.K):
            raise ValueError(f"site index {ob.site_index} outside 0..{traj.K - 1}")
        raw = _trailing_mean(traj.states[:, ob.site_index], ob.smooth_steps)
        series[(ob.variable, ob.site)] = raw[:used].reshape(n_seasons, season_length).mean(axis=1)
    return Panel(series)


def synth_index(panel: Panel, region_a: set[str], region_b: set[str],
                variable: str = TMP) -> np.ndarray:
    """Two-region difference series: mean over region_a minus mean over region_b."""
    if not region_a or not region_b:
        raise ValueError("region sets must be non-empty")
    if set(region_a) & set(region_b):
        raise ValueError("region sets must be disjoint")
    a = np.mean([panel.series(variable, s) for s in sorted(region_a)], axis=0)
    b = np.mean([panel.series(variable, s) for s in sorted(region_b)], axis=0)
    return a - b


def _standardized_slope(y: np.ndarray) -> float:
    """|least-squares slope| of y against season index, in units of sd(y)/season."""
    w = y.size
    t = np.arange(w, dtype=float)
    t -= t.mean()
    denom = float(t @ t)
    slope = float(t @ (y - y.mean())) / denom
    sd = float(np.std(y))
    if sd < 1e-300:
        return 0.0 if abs(slope) < 1e-300 else np.inf
    return abs(slope) / sd


def detect_steady_state(series, window: int, slope_tol: float) -> int:
    """Earliest season s where every monitored series has |slope| < slope_tol
    over [s, s + window), with slopes measured in that window's sd units.

    Raises StationarityNotReachedError when no window qualifies; the
    caller must lengthen the run.
    """
    if isinstance(series, np.ndarray) and series.ndim == 1:
        series = [series]
    series = [np.asarray(s, dtype=float) for s in series]
    if not series:
        raise ValueError("no series to monitor")
    n = series[0].size
    if any(s.size != n for s in series):
        raise ValueError("monitored series must share length")
    if n < 2 * window:
        raise ValueError("series must cover at least two windows")
    for s in range(n - window + 1):
        if all(_standardized_slope(y[s:s + window]) < slope_tol for y in series):
            return s
    raise StationarityNotReachedError(
        f"no {window}-season window with standardized slope below {slope_tol}")


@dataclass
class SurrogateConfig:
    """Forcing grid plus the integration, aggregation and steady-state settings."""

    forcings: list[float] = field(default_factory=lambda: [5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    K: int = 36
    dt: float = 0.05
    steps_per_season: int = 20
    n_seasons: int = 400
    temp_smooth: int = 5
    indices: dict[str, list[list[str]]] = field(default_factory=dict)
    steady_window: int = 40
    slope_tol: float = 0.01
    min_steady_seasons: int = 60

    def label(self, forcing: float) -> str:
        return f"F{forcing:g}"

    def parameters(self) -> list[TuningParameter]:
        return [TuningParameter(float(f), self.label(f)) for f in self.forcings]


def steady_run(forcing: float, seed: int,
               surrogate: SurrogateConfig) -> tuple[Panel, int]:
    """Integrate one run at a fixed forcing and keep its steady seasons.

    The run starts from x = F kicked by a ``seed``-drawn perturbation, is
    aggregated to seasonal means with the configured two-region indices
    appended, and is cut where the cross-site mean of every variable is
    first steady. Returns the raw steady panel and the season it starts at.
    """
    sur = surrogate
    traj = integrate_lorenz96(forcing, sur.K, sur.dt, sur.n_seasons * sur.steps_per_season,
                              seed=seed)
    panel = seasonal_aggregate(traj, sur.steps_per_season,
                               default_observables(sur.K, sur.temp_smooth))
    for name, (ra, rb) in sorted(sur.indices.items()):
        panel.add(IDX, name, synth_index(panel, set(ra), set(rb)))

    variables = sorted({var for var, _ in panel.values})
    monitored = [np.mean([panel.series(var, site) for v2, site in panel.catalog() if v2 == var], axis=0)
                 for var in variables]
    steady = detect_steady_state(monitored, sur.steady_window, sur.slope_tol)
    return panel.window(steady, panel.n_seasons), steady


def _attractor_from_run(param: TuningParameter, surrogate: SurrogateConfig,
                        seed: int) -> AttractorEstimate:
    run_seed = int(derive_rng(seed, "attractor", param.label).integers(2**32))
    steady_panel, steady = steady_run(param.value, run_seed, surrogate)
    if steady_panel.n_seasons < surrogate.min_steady_seasons:
        raise StationarityNotReachedError(
            f"only {steady_panel.n_seasons} steady seasons, need "
            f"{surrogate.min_steady_seasons}; lengthen the run")

    scale = {}
    for key, vals in steady_panel.values.items():
        mean, sd = float(np.mean(vals)), float(np.std(vals))
        if sd < 1e-12:
            sd = 1.0
        steady_panel.values[key] = (vals - mean) / sd
        scale[key] = (mean, sd)
    return AttractorEstimate(parameter=param, panel=steady_panel,
                             steady_start=steady, seed=seed, scale=scale)


def build_attractor_library(parameters: list[TuningParameter], surrogate: SurrogateConfig,
                            seed: int) -> list[AttractorEstimate]:
    """One steady, standardized attractor estimate per parameter, sorted by value."""
    values = [p.value for p in parameters]
    labels = [p.label for p in parameters]
    if len(set(values)) != len(values) or len(set(labels)) != len(labels):
        raise ValueError("tuning parameters must have distinct values and labels")
    library = []
    for param in parameters:
        try:
            library.append(_attractor_from_run(param, surrogate, seed))
        except IntegrationDivergedError as exc:
            raise IntegrationDivergedError(
                exc.step, f"parameter {param.label}: {exc}") from exc
        except StationarityNotReachedError as exc:
            raise StationarityNotReachedError(f"parameter {param.label}: {exc}") from exc
    library.sort(key=lambda a: a.parameter.value)
    return library
