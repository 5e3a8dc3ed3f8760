"""Surrogate dynamics: stationary attractor estimates at fixed forcing.

A Lorenz-96 ring plays the role of a climate model run at a constant
tuning parameter. One batched RK4 kernel, :func:`integrate_grid`, steps
a whole forcing grid as one ``(P, K)`` state, each row bit-identical to
a single-ring run. One routine, :func:`steady_run`, integrates a grid
past its transient, aggregates each row to seasonal means and truncates
it at the detected steady state. The attractor library is one such call
over the whole grid, standardized per row and tagged with its forcing
value. A fresh synthetic ground run, at a forcing the library need not
hold, rides in the same call as one more row: its cost is per-step
Python overhead, not rows, so the extra row is almost free. The library
keeps that row's raw steady run, never an attractor of it. At the
default 6-forcing, 400-season grid the batched state array is about
14 MB.
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
PERTURBATION = 1e-3  # sd of the seed-drawn kick off the x = F fixed point


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


def check_integration(K: int, dt: float, n_steps: int) -> None:
    """The integrator's rule for a ring size, step and run length."""
    if K < 4:
        raise ValueError("Lorenz-96 coupling needs at least 4 sites (K >= 4)")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")


def start_state(F, K, x0, seed, perturbation) -> np.ndarray:
    """Initial ring state: ``x0`` (x = F when None), kicked by a
    ``seed``-drawn Gaussian perturbation when a seed is given."""
    if x0 is None:
        x = np.full(K, float(F))
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (K,):
            raise ValueError(f"x0 must have shape ({K},)")
    if seed is not None:
        x = x + perturbation * derive_rng(seed, "x0").standard_normal(K)
    return x


def integrate_grid(x0, forcings, dt: float, n_steps: int) -> np.ndarray:
    """Integrate a batch of Lorenz-96 rings dx_i/dt = (x_{i+1}-x_{i-2}) x_{i-1} - x_i + F.

    Row p of the ``(P, K)`` initial state ``x0`` runs at forcing
    ``forcings[p]``. Fixed-step classic 4th-order Runge-Kutta on the whole
    batch: every element goes through the same float operations as a
    single-ring run, so each row is bit-identical to integrating it alone.
    Returns the ``(P, n_steps + 1, K)`` states, initial state included.
    Raises IntegrationDivergedError at the earliest step where a row
    blows up, with ``row`` the first such row in batch order.
    """
    x = np.asarray(x0, dtype=float)
    P, K = x.shape
    check_integration(K, dt, n_steps)
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    F = np.asarray(forcings, dtype=float).reshape(P, 1)
    sites = np.arange(K)
    ahead, behind, behind2 = (sites + 1) % K, (sites - 1) % K, (sites - 2) % K

    def rhs(x):
        return (x.take(ahead, axis=1) - x.take(behind2, axis=1)) * x.take(behind, axis=1) - x + F

    states = np.empty((P, n_steps + 1, K))
    states[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise IntegrationDivergedError(i, int(np.argmin(np.isfinite(x).all(axis=1))))
            states[:, i] = x
    return states


def integrate_lorenz96(F, K, dt, n_steps, x0=None, seed=None,
                       perturbation=PERTURBATION) -> Trajectory:
    """Integrate one Lorenz-96 ring: the one-row case of :func:`integrate_grid`.

    Deterministic given (x0, F, dt, n_steps); ``seed`` only draws an
    optional Gaussian perturbation of the initial condition (used to kick
    runs off the x = F fixed point). Raises IntegrationDivergedError
    naming the step if the state blows up.
    """
    x = start_state(F, K, x0, seed, perturbation)
    return Trajectory(states=integrate_grid(x[None], [F], dt, n_steps)[0], dt=dt)


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

    def check(self) -> None:
        """Raise ValueError for run settings :func:`steady_run` cannot integrate,
        aggregate or scan for a steady window."""
        check_integration(self.K, self.dt, self.n_seasons * self.steps_per_season)
        if self.steps_per_season < 1:
            raise ValueError("steps_per_season must be >= 1")
        if self.steady_window < 2 or self.n_seasons < 2 * self.steady_window:
            raise ValueError("steady_window must be >= 2 and n_seasons must cover "
                             "two steady windows")
        ring = {site_id(i) for i in range(self.K)}
        for name, regions in sorted(self.indices.items()):
            sets = [set(region) for region in regions]
            if (len(sets) != 2 or not all(sets) or sets[0] & sets[1]
                    or not set.union(*sets) <= ring):
                raise ValueError(f"index {name} needs two disjoint, non-empty regions "
                                 f"of the sites s00..{site_id(self.K - 1)}")

    def parameters(self) -> list[TuningParameter]:
        return [TuningParameter(float(f), self.label(f)) for f in self.forcings]


def check_grid(parameters: list[TuningParameter]) -> None:
    """The library's rule for a tuning-parameter grid."""
    if not parameters:
        raise ValueError("the grid needs at least one tuning parameter")
    values = [p.value for p in parameters]
    labels = [p.label for p in parameters]
    if len(set(values)) != len(values) or len(set(labels)) != len(labels):
        raise ValueError("tuning parameters must have distinct values and labels")


def steady_run(parameters: list[TuningParameter], seeds: list[int],
               surrogate: SurrogateConfig,
               names: list[str] | None = None) -> list[tuple[Panel, int]]:
    """Integrate one run per grid row at its fixed forcing and keep its steady seasons.

    All rows are integrated together as one ``(P, K)`` batch. Row p starts
    from x = F kicked by a ``seeds[p]``-drawn perturbation, is aggregated
    to seasonal means with the configured two-region indices appended,
    and is cut where the cross-site mean of every variable is first
    steady. Returns each row's raw steady panel and the season it starts
    at. Errors name a row by ``names[p]`` (``parameter <label>`` by
    default). Divergence comes first: the row that diverges at the
    earliest step, the first in batch order at that step, whatever its
    name. Then the first row in batch order that never settles.
    """
    sur = surrogate
    sur.check()
    if names is None:
        names = [f"parameter {p.label}" for p in parameters]
    x0 = np.stack([start_state(p.value, sur.K, None, seed, PERTURBATION)
                   for p, seed in zip(parameters, seeds, strict=True)])
    try:
        states = integrate_grid(x0, [p.value for p in parameters], sur.dt,
                                sur.n_seasons * sur.steps_per_season)
    except IntegrationDivergedError as exc:
        raise IntegrationDivergedError(exc.step, exc.row, f"{names[exc.row]}: {exc}") from exc

    observables = default_observables(sur.K, sur.temp_smooth)
    runs = []
    for name, row in zip(names, states, strict=True):
        panel = seasonal_aggregate(Trajectory(states=row, dt=sur.dt), sur.steps_per_season,
                                   observables)
        for index, (ra, rb) in sorted(sur.indices.items()):
            panel.add(IDX, index, synth_index(panel, set(ra), set(rb)))
        variables = sorted({var for var, _ in panel.values})
        monitored = [np.mean([panel.series(var, site) for v2, site in panel.catalog()
                              if v2 == var], axis=0)
                     for var in variables]
        try:
            steady = detect_steady_state(monitored, sur.steady_window, sur.slope_tol)
        except StationarityNotReachedError as exc:
            raise StationarityNotReachedError(f"{name}: {exc}") from exc
        runs.append((panel.window(steady, panel.n_seasons), steady))
    return runs


def fresh_ground_name(param: TuningParameter) -> str:
    """How errors name the fresh ground run."""
    return f"fresh ground run at {param.label}"


class AttractorLibrary(list):
    """Attractor estimates sorted by parameter value, plus the raw steady runs
    (panel, steady start) of fresh ground rows integrated in their batch,
    keyed by each row's (parameter, seed). Those rows are not attractors."""

    def __init__(self, estimates=()):
        super().__init__(estimates)
        self.fresh_ground: dict[tuple[TuningParameter, int], tuple[Panel, int]] = {}


def _standardized_attractor(param: TuningParameter, steady_panel: Panel, steady: int,
                            surrogate: SurrogateConfig, seed: int) -> AttractorEstimate:
    if steady_panel.n_seasons < surrogate.min_steady_seasons:
        raise StationarityNotReachedError(
            f"parameter {param.label}: only {steady_panel.n_seasons} steady seasons, "
            f"need {surrogate.min_steady_seasons}; lengthen the run")

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
                            seed: int,
                            fresh_ground: tuple[TuningParameter, int] | None = None,
                            ) -> AttractorLibrary:
    """One steady, standardized attractor estimate per parameter, sorted by value.

    The whole grid is one :func:`steady_run` call. ``fresh_ground``, a
    (parameter, seed) row, is integrated as the last row of that call;
    its raw steady run is kept in ``fresh_ground`` of the result,
    bit-identical to a lone run. Errors name the failing row: divergence
    first, then a row that never settles, then a grid row with too few
    steady seasons, each the first in batch order.
    """
    check_grid(parameters)
    run_seeds = [int(derive_rng(seed, "attractor", p.label).integers(2**32))
                 for p in parameters]
    rows = list(parameters)
    names = [f"parameter {p.label}" for p in parameters]
    if fresh_ground is not None:
        rows.append(fresh_ground[0])
        run_seeds.append(fresh_ground[1])
        names.append(fresh_ground_name(fresh_ground[0]))
    runs = steady_run(rows, run_seeds, surrogate, names)
    library = AttractorLibrary()
    if fresh_ground is not None:
        library.fresh_ground[fresh_ground] = runs.pop()
    library.extend(_standardized_attractor(param, panel, steady, surrogate, seed)
                   for param, (panel, steady) in zip(parameters, runs, strict=True))
    library.sort(key=lambda a: a.parameter.value)
    return library
