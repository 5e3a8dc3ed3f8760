"""Ground-record ingestion, synthesis, and anomaly standardization.

The ground panel shares the attractor panels' (variable, site)
coordinate system; file input maps weather-station rows onto configured
sites, and synthetic ground copies a library member or runs the
surrogate afresh, with observation noise at a chosen signal-to-noise
ratio. The fresh run is integrated as the last row of the library's
batch (see :func:`fresh_ground_row`), and the ground reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module's season constants
    from .config import PipelineConfig
from .dynamics import AttractorLibrary, TuningParameter
from .errors import ConfigError, PanelFormatError
from .panel import Coord, Panel
from .seeding import derive_rng

SEASON_NAMES = ("winter", "spring", "summer", "fall")
SEASONS_PER_YEAR = len(SEASON_NAMES)  # a panel's season t is season-of-year t % 4
MIN_REFERENCE_VALUES = 3  # per series and season of the year, to standardize


def load_panel(path, station_sites: dict[str, tuple[str, str]]) -> Panel:
    """Parse a station,year,season,value file into a raw panel.

    Seasons are winter/spring/summer/fall within calendar years; the
    global season index runs from the earliest year seen. Stations map
    to panel coordinates through ``station_sites``. Duplicate (station,
    season) rows are a hard error naming the line; missing cells stay NaN
    and fall out of the predictions and scores downstream.
    """
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise PanelFormatError(f"{path}: empty file")
    header = lines[0].strip().lower()
    if header != "station,year,season,value":
        raise PanelFormatError(f"{path}:1: expected header station,year,season,value")
    problems = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            problems.append(f"line {lineno}: expected 4 fields, got {len(parts)}")
            continue
        station, year_s, season_s, value_s = parts
        try:
            year = int(year_s)
            season = SEASON_NAMES.index(season_s.lower())
            value = float(value_s)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse {line!r}")
            continue
        rows.append((lineno, station, year, season, value))
    if problems:
        raise PanelFormatError(f"{path}: " + "; ".join(problems))
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")

    year0 = min(r[2] for r in rows)
    n_seasons = max((r[2] - year0) * SEASONS_PER_YEAR + r[3] for r in rows) + 1
    series: dict[Coord, np.ndarray] = {}
    filled: dict[tuple[Coord, int], int] = {}
    for lineno, station, year, season, value in rows:
        if station not in station_sites:
            raise PanelFormatError(
                f"{path}: station {station!r} has no configured site mapping")
        coord = station_sites[station]
        t = (year - year0) * SEASONS_PER_YEAR + season
        prev = filled.get((coord, t))
        if prev is not None:
            raise PanelFormatError(
                f"{path}: line {lineno} duplicates (station={station}, "
                f"year={year}, season={SEASON_NAMES[season]}) from line {prev}")
        filled[(coord, t)] = lineno
        series.setdefault(coord, np.full(n_seasons, np.nan))[t] = value
    return Panel(series)


@dataclass
class StandardizationFactors:
    """Per-series, per-season-of-year means and sds from a reference window."""

    means: dict[Coord, np.ndarray]
    sds: dict[Coord, np.ndarray]


def standardize_anomalies(panel: Panel,
                          reference_window: tuple[int, int]) -> tuple[Panel, StandardizationFactors]:
    """Per-series, per-season-of-year z-scores against the reference window.

    Factors come from the reference window only, so later data cannot
    move them; they are stored with the ground panel. A zero
    reference sd is an error naming the series and season.
    """
    lo, hi = reference_window
    if not 0 <= lo < hi <= panel.n_seasons:
        raise ConfigError(f"reference window [{lo}, {hi}) outside panel")
    soy_all = np.arange(panel.n_seasons) % SEASONS_PER_YEAR
    means: dict[Coord, np.ndarray] = {}
    sds: dict[Coord, np.ndarray] = {}
    out = {}
    for key, vals in panel.values.items():
        m = np.empty(SEASONS_PER_YEAR)
        s = np.empty(SEASONS_PER_YEAR)
        for season in range(SEASONS_PER_YEAR):
            ref = vals[lo:hi][soy_all[lo:hi] == season]
            ref = ref[np.isfinite(ref)]
            if ref.size < MIN_REFERENCE_VALUES:
                raise ConfigError(
                    f"series {key}: fewer than {MIN_REFERENCE_VALUES} reference values for "
                    f"season-of-year {season}")
            m[season] = ref.mean()
            s[season] = ref.std()
            if s[season] <= 1e-12:
                raise ConfigError(
                    f"series {key}: zero variance in reference window for "
                    f"season-of-year {season}")
        means[key] = m
        sds[key] = s
        out[key] = (vals - m[soy_all]) / s[soy_all]
    return Panel(out), StandardizationFactors(means=means, sds=sds)


def fresh_ground_row(cfg: PipelineConfig) -> tuple[TuningParameter, int]:
    """The (parameter, seed) row of the fresh ground run at ``ground.forcing``."""
    forcing = float(cfg.ground.forcing)
    seed = int(derive_rng(cfg.seed, "ground", "fresh").integers(2**32))
    return TuningParameter(forcing, cfg.surrogate.label(forcing)), seed


def make_ground_panel(cfg: PipelineConfig, library: AttractorLibrary) -> tuple[Panel, dict]:
    """Raw (unstandardized) ground panel plus provenance metadata.

    Synthetic modes add per-series Gaussian observation noise with
    sd = series sd / snr; file mode parses the configured input. Fresh
    mode takes its raw steady panel from ``library.fresh_ground``, the
    :func:`fresh_ground_row` that ``build_attractor_library`` integrated
    in the library's batch; it integrates nothing itself.
    """
    windows = cfg.schedule.windows()
    n_seasons = windows.end
    mode = cfg.ground.mode
    if mode == "file":
        stations = cfg.resolved_stations()
        panel = load_panel(cfg.ground.path, station_sites=stations)
        if panel.n_seasons < n_seasons:
            raise ConfigError(f"ground file covers {panel.n_seasons} seasons, "
                              f"schedule needs {n_seasons}")
        return panel, {"mode": "file", "path": str(cfg.ground.path)}

    if mode == "member":
        label = cfg.ground.member or library[0].label
        members = {a.label: a for a in library}
        member = members[label]
        raw = Panel({key: member.raw_series(key) for key in member.panel.values})
        base = raw.window(0, n_seasons)
        meta = {"mode": "member", "member": label,
                "true_forcing": member.parameter.value}
    else:
        steady = library.fresh_ground
        if steady.n_seasons < n_seasons:
            raise ConfigError(
                f"fresh ground run has only {steady.n_seasons} steady seasons, "
                f"need {n_seasons}; lengthen surrogate.n_seasons")
        base = steady.window(0, n_seasons)
        meta = {"mode": "fresh", "true_forcing": float(cfg.ground.forcing)}

    rng = derive_rng(cfg.seed, "ground", "noise")
    noisy = {}
    for key in sorted(base.values):
        vals = base.values[key]
        sd = float(np.std(vals[np.isfinite(vals)]))
        noise_sd = sd / cfg.ground.snr if sd > 0 else 0.0
        noisy[key] = vals + noise_sd * rng.standard_normal(vals.size)
    meta["snr"] = cfg.ground.snr
    return Panel(noisy), meta
