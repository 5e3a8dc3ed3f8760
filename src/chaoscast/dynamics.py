"""Surrogate dynamics: stationary attractor estimates at fixed forcing.

A Lorenz-96 ring plays the role of a climate model run at a constant
tuning parameter, its forcing F. A grid is a list of forcings, such as the
config's ``surrogate.forcings`` (which ``PipelineConfig.validate`` checks,
with every other setting here), and :func:`label` (``F{F:g}``) names each
one's attractor. One batched RK4 kernel, :func:`integrate_grid`, steps a
whole grid as one ``(P, K)`` state, each row bit-identical to a single-ring
run. One routine, :func:`steady_run`, integrates a grid past its transient,
aggregates each row to seasonal means and truncates it at the detected
steady state. The attractor library is one such call over the whole grid,
standardized per row and tagged with its forcing. A fresh synthetic ground
run, at a forcing the library need not hold, rides in the same call as one
more row: its cost is per-step Python overhead, not rows, so the extra row
is almost free. The library keeps that row's raw steady run, never an
attractor of it.

The kernel stores each step site-major and gathers it once per step into a
vector padded with ghost sites, so every RK stage reads contiguous slices:
29 small ufunc calls per step into buffers allocated once per call. Its one
output is the state array, seen as ``(P, n_steps + 1, K)``: at the default
6-forcing, 400-season grid about 14 MB, about 16 MB with the fresh ground
row. A run is one row of that view, a strided ``(n_steps + 1, K)`` array
that :func:`seasonal_aggregate` turns into its seasonal panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module's labels and series names
    from .config import SurrogateConfig
from .errors import ConfigError, IntegrationDivergedError, StationarityNotReachedError
from .panel import Coord, Panel
from .seeding import derive_rng

WET = "wet"  # per-site seasonal mean of the raw state (precipitation analog)
TMP = "tmp"  # per-site seasonal mean of a short trailing average (temperature analog)
IDX = "idx"  # derived two-region difference indices
PERTURBATION = 1e-3  # sd of the seed-drawn kick off the x = F fixed point
CONSTANT_SD = 1e-9  # relative sd at or below which a steady series is constant


def label(forcing: float) -> str:
    """The name of the attractor at ``forcing``."""
    return f"F{forcing:g}"


@dataclass
class AttractorEstimate:
    """Steady-state seasonal panel of one fixed-forcing run."""

    forcing: float
    panel: Panel  # steady seasons only, standardized per series
    steady_start: int  # season index of the original run where stationarity begins
    seed: int
    scale: dict[Coord, tuple[float, float]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return label(self.forcing)

    def raw_series(self, key: Coord) -> np.ndarray:
        """Panel series ``key`` de-standardized, ``vals * sd + mean``; a series
        without a stored scale is returned as a copy."""
        mean, sd = self.scale.get(key, (0.0, 1.0))
        return self.panel.values[key] * sd + mean

    def trailing_mean(self, n_seasons: int = 100) -> float:
        """Mean of the raw (de-standardized) ``WET`` observable over the trailing
        seasons: the cross-site mean of the last ``n_seasons`` steady seasons,
        the run's realized steady-state level on the parameter axis.
        """
        vals = [self.raw_series(key)[-n_seasons:] for key in self.panel.values
                if key[0] == WET]
        if not vals:
            raise ValueError(f"no series for variable {WET!r}")
        return float(np.mean(vals))


def start_state(F, K, seed, perturbation) -> np.ndarray:
    """Initial ring state: x = F, kicked by a ``seed``-drawn Gaussian
    perturbation when a seed is given."""
    x = np.full(K, float(F))
    if seed is not None:
        x = x + perturbation * derive_rng(seed, "x0").standard_normal(K)
    return x


def integrate_grid(x0, forcings, dt: float, n_steps: int) -> np.ndarray:
    """Integrate a batch of Lorenz-96 rings dx_i/dt = (x_{i+1}-x_{i-2}) x_{i-1} - x_i + F.

    Row p of the ``(P, K)`` initial state ``x0`` runs at forcing
    ``forcings[p]``, one finite value per row. Fixed-step classic
    4th-order Runge-Kutta on the whole batch. Returns the
    ``(P, n_steps + 1, K)`` states, initial state included, as a view of
    one site-major ``(n_steps + 1, K*P)`` array: element (site s, row p)
    of a step sits at ``s*P + p``. ``x0`` is not modified.

    A step copies the stored state with one ``take`` into a vector of
    ``K + 12`` sites, 8 ghost sites before the ring and 4 after it (ghost
    site s holds ring site s mod K). A stage reads 2 sites to the left
    and 1 to the right, so the four stages work on sites ``[-6, K+3)``,
    ``[-4, K+2)``, ``[-2, K+1)`` and ``[0, K)``; every operand is a
    contiguous slice made before the loop, and the last ``add`` writes
    the new state into the output: 29 ufunc calls per step. The constants
    0.5 dt, dt, dt/6 and 2 are full-length arrays, as are the forcings.

    Bit-identity rule: each row must equal a single-ring run bit for bit, so
    every element goes through the same IEEE operations in the same order as
    ``k2 = rhs(x + (0.5*dt) * k1)`` ... and
    ``x + (dt/6) * (((k1 + 2*k2) + 2*k3) + k4)``, with
    ``rhs = ((x_{i+1} - x_{i-2}) * x_{i-1} - x) + F``. A ghost site repeats
    its ring twin's operations on the same inputs, a gather is an exact copy,
    operands may swap (IEEE + and * commute), and a constant array gives the
    bits of its scalar; no regrouping or fused update.

    No check runs inside the loop. A non-finite element stays non-finite,
    so a finite final state means no step blew up; otherwise the stored
    states locate the earliest non-finite step, and IntegrationDivergedError
    names it with ``row`` the first such row in batch order.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError("x0 must be a (P, K) array, one ring state per row")
    P, K = x.shape
    if K < 4:
        raise ValueError("Lorenz-96 coupling needs at least 4 sites (K >= 4)")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    F = np.asarray(forcings, dtype=float)
    if F.shape != (P,):
        raise ValueError(f"forcings must hold one value per row of x0 ({P}), not {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("forcings must be finite")

    states = np.empty((n_steps + 1, K * P))
    states[0].reshape(K, P)[...] = x.T
    G = 8  # ghost sites before the ring; 4 after it
    pad = ((np.arange(-G, K + 4) % K)[:, None] * P + np.arange(P)).ravel()
    F = np.tile(F, K + 12)
    half, full, sixth, two = (np.full(F.size, c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    x, y, k = np.empty(F.size), np.empty(F.size), np.empty((4, F.size))

    def at(v, lo, hi):  # sites [lo, hi) of padded site-major vectors
        return v[..., (lo + G) * P:(hi + G) * P]

    spans = [(2 * j - 6, K + 3 - j) for j in range(4)]  # stage j's sites
    (e1, w1, v1, c1), (e2, w2, v2, c2), (e3, w3, v3, c3), (e4, w4, v4, c4) = (
        [at(src, lo + d, hi + d) for d in (1, -2, -1, 0)]  # x_{i+1}, x_{i-2}, x_{i-1}, x_i
        for src, (lo, hi) in zip((x, y, y, y), spans))
    k1, k2, k3, k4 = (at(kj, *span) for kj, span in zip(k, spans))
    f1, f2, f3, f4 = (at(F, *span) for span in spans)
    h1, h2, h3 = (at(h, *span) for h, span in zip((half, half, full), spans))
    (x1, x2, x3), (y1, y2, y3) = ([at(v, *span) for span in spans[:3]] for v in (x, y))
    (r1, r2, r3), k23, xr, yr, sixth, two = (  # on the ring
        at(v, 0, K) for v in (k[:3], k[1:3], x, y, sixth, two))
    sub, mul, add = np.subtract, np.multiply, np.add  # 3rd argument: output (out= parses slower)

    with np.errstate(over="ignore", invalid="ignore"):
        for now, nxt in zip(states, states[1:]):
            now.take(pad, out=x, mode="clip")  # np.take or mode="raise" would copy
            add(sub(mul(sub(e1, w1, k1), v1, k1), c1, k1), f1, k1)
            add(x1, mul(h1, k1, y1), y1)
            add(sub(mul(sub(e2, w2, k2), v2, k2), c2, k2), f2, k2)
            add(x2, mul(h2, k2, y2), y2)
            add(sub(mul(sub(e3, w3, k3), v3, k3), c3, k3), f3, k3)
            add(x3, mul(h3, k3, y3), y3)
            add(sub(mul(sub(e4, w4, k4), v4, k4), c4, k4), f4, k4)
            mul(k23, two, k23)
            add(add(add(r1, r2, yr), r3, yr), k4, yr)
            add(xr, mul(sixth, yr, yr), nxt)
    rows = states.reshape(n_steps + 1, K, P).transpose(2, 0, 1)
    if not np.all(np.isfinite(states[-1])):
        bad = ~np.isfinite(rows).all(axis=2)
        step = int(np.argmax(bad.any(axis=0)))
        raise IntegrationDivergedError(step, int(np.argmax(bad[:, step])))
    return rows


# kept for perfbench/traced.py, which times it as dynamics.rk4_step_us
def integrate_lorenz96(F, K, dt, n_steps, seed=None) -> np.ndarray:
    """Integrate one Lorenz-96 ring from x = F: the one-row case of :func:`integrate_grid`.

    Returns the ``(n_steps + 1, K)`` states, initial state included, a view
    of :func:`integrate_grid`'s state array. Deterministic given (F, K, dt,
    n_steps, seed); ``seed`` draws a Gaussian kick of sd ``PERTURBATION`` off
    the x = F fixed point. Raises IntegrationDivergedError naming the step if
    the state blows up.
    """
    x = start_state(F, K, seed, PERTURBATION)
    return integrate_grid(x[None], [F], dt, n_steps)[0]


def site_id(i: int) -> str:
    return f"s{i:02d}"


def _trailing_mean(series: np.ndarray, w: int) -> np.ndarray:
    if w <= 1:
        return series
    c = np.cumsum(series)
    out = np.empty_like(series)
    out[:w] = c[:w] / np.arange(1, w + 1)
    out[w:] = (c[w:] - c[:-w]) / w
    return out


def seasonal_aggregate(states: np.ndarray, season_length: int, temp_smooth: int) -> Panel:
    """Seasonal means of one run's ``(steps, K)`` states, trailing partial season dropped.

    Every site's raw state (``wet``), then every site's trailing mean over
    ``temp_smooth`` steps (``tmp``), shorter at the run's start. A strided
    ``states``, such as a row of :func:`integrate_grid`'s output, gives
    the bits of the same run stored contiguously.
    """
    if season_length < 1:
        raise ValueError("season_length must be >= 1")
    n_steps, K = states.shape
    if n_steps < season_length:
        raise ValueError("run shorter than one season")
    n_seasons = n_steps // season_length
    used = n_seasons * season_length
    series = {}
    for variable, w in ((WET, 1), (TMP, temp_smooth)):
        for i in range(K):
            raw = _trailing_mean(states[:, i], w)
            series[(variable, site_id(i))] = (
                raw[:used].reshape(n_seasons, season_length).mean(axis=1))
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
    """Earliest season s where every series of the list ``series`` has
    |slope| < slope_tol over [s, s + window), with slopes measured in that
    window's sd units.

    Raises StationarityNotReachedError when no window qualifies; the
    caller must lengthen the run.
    """
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


def steady_run(forcings: list[float], seeds: list[int],
               surrogate: SurrogateConfig, names: list[str]) -> list[tuple[Panel, int]]:
    """Integrate one run per grid row at its fixed forcing and keep its steady seasons.

    All rows are integrated together as one ``(P, K)`` batch. Row p starts
    from x = F kicked by a ``seeds[p]``-drawn perturbation, is aggregated
    to seasonal means with the configured two-region indices appended,
    and is cut where the cross-site mean of every variable is first
    steady. Returns each row's raw steady panel and the season it starts
    at. Errors name a row by ``names[p]``. Divergence comes first: the row
    that diverges at the earliest step, the first in batch order at that
    step, whatever its name. Then the first row in batch order that never
    settles.
    """
    sur = surrogate
    x0 = np.stack([start_state(F, sur.K, seed, PERTURBATION)
                   for F, seed in zip(forcings, seeds, strict=True)])
    try:
        states = integrate_grid(x0, forcings, sur.dt, sur.n_seasons * sur.steps_per_season)
    except IntegrationDivergedError as exc:
        raise IntegrationDivergedError(exc.step, exc.row, f"{names[exc.row]}: {exc}") from exc

    runs = []
    for name, row in zip(names, states, strict=True):
        panel = seasonal_aggregate(row, sur.steps_per_season, sur.temp_smooth)
        for index, (ra, rb) in sorted(sur.indices.items()):
            panel.add(IDX, index, synth_index(panel, set(ra), set(rb)))
        variables = sorted({var for var, _ in panel.values})
        monitored = [np.mean([panel.series(var, site) for v2, site in panel.catalog()
                              if v2 == var], axis=0)
                     for var in variables]
        try:
            steady = detect_steady_state(monitored, sur.steady_window, sur.slope_tol)
        except StationarityNotReachedError as exc:
            raise StationarityNotReachedError(
                f"{name}: {exc}; lengthen the run (surrogate.n_seasons, steps_per_season "
                "or dt) or change surrogate.steady_window or slope_tol") from exc
        runs.append((panel.window(steady, panel.n_seasons), steady))
    return runs


class AttractorLibrary(list):
    """Attractor estimates sorted by forcing, plus ``fresh_ground``:
    the raw steady panel of the fresh ground row integrated in their batch,
    or None. That row is not an attractor."""

    fresh_ground: Panel | None = None


def _standardized_attractor(forcing: float, steady_panel: Panel, steady: int,
                            surrogate: SurrogateConfig, seed: int) -> AttractorEstimate:
    if steady_panel.n_seasons < surrogate.min_steady_seasons:
        raise StationarityNotReachedError(
            f"parameter {label(forcing)}: only {steady_panel.n_seasons} steady seasons, "
            f"need {surrogate.min_steady_seasons}; lengthen the run (surrogate.n_seasons, "
            "steps_per_season or dt) or lower surrogate.min_steady_seasons")

    keys, stack = list(steady_panel.values), np.stack(list(steady_panel.values.values()))
    mean, sd = stack.mean(axis=1), stack.std(axis=1)
    constant = sd <= CONSTANT_SD * np.maximum(1.0, np.abs(mean))
    if constant.any():
        first = int(np.argmax(constant))
        raise ConfigError(
            f"parameter {label(forcing)}: series {keys[first]} is constant on the steady run "
            f"(sd {sd[first]:.3g}); the ring settles on a fixed point, which has no "
            "attractor to fit; drop this forcing from surrogate.forcings")
    steady_panel.values = dict(zip(keys, (stack - mean[:, None]) / sd[:, None]))
    scale = dict(zip(keys, zip(mean.tolist(), sd.tolist())))
    return AttractorEstimate(forcing=forcing, panel=steady_panel,
                             steady_start=steady, seed=seed, scale=scale)


def build_attractor_library(forcings: list[float], surrogate: SurrogateConfig, seed: int,
                            fresh_ground: tuple[float, int] | None = None,
                            ) -> AttractorLibrary:
    """One steady, standardized attractor estimate per forcing, sorted by forcing.

    The whole grid is one :func:`steady_run` call. ``fresh_ground``, a
    (forcing, seed) row, is integrated as the last row of that call;
    its raw steady panel is the result's ``fresh_ground``, bit-identical to
    a lone run's. Errors name the failing row: divergence
    first, then a row that never settles, then a grid row with too few
    steady seasons or a constant series (a fixed point, a ConfigError),
    each the first in batch order.
    """
    forcings = [float(F) for F in forcings]
    run_seeds = [int(derive_rng(seed, "attractor", label(F)).integers(2**32)) for F in forcings]
    rows = list(forcings)
    names = [f"parameter {label(F)}" for F in forcings]
    if fresh_ground is not None:
        rows.append(fresh_ground[0])
        run_seeds.append(fresh_ground[1])
        names.append(f"fresh ground run at {label(fresh_ground[0])}")
    runs = steady_run(rows, run_seeds, surrogate, names)
    library = AttractorLibrary()
    if fresh_ground is not None:
        library.fresh_ground = runs.pop()[0]
    library.extend(_standardized_attractor(F, panel, steady, surrogate, seed)
                   for F, (panel, steady) in zip(forcings, runs, strict=True))
    library.sort(key=lambda a: a.forcing)
    return library
