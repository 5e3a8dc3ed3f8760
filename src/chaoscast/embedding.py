"""Random delay maps and regression plumbing around them.

A delay map is a fixed set of (variable, site, lag) coordinates; lags
are counted in seasons before the season being predicted and must be
at least 1, so no design row ever touches the response season or
anything after it. ``lagged_designs`` is the one read of the lagged rows
that fits, predictions and ``build_design_matrix`` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .panel import Coord, Panel
from .seeding import derive_rng

MapCoord = tuple[str, str, int]  # (variable, site, lag in seasons)


@dataclass(frozen=True)
class DelayMap:
    coords: tuple[MapCoord, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("a delay map needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("delay-map coordinates must be distinct")
        for var, site, lag in self.coords:
            if lag < 1:
                raise ValueError(f"lag {lag} for ({var}, {site}) reads the response "
                                 "season or later (need lag >= 1)")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def max_lag(self) -> int:
        return max(lag for _, _, lag in self.coords)


def sample_delay_maps(catalog: list[Coord], n_maps: int, dim: int,
                      lag_min: int, lag_max: int, seed: int) -> list[DelayMap]:
    """Uniform distinct coordinate sets from catalog x {lag_min..lag_max}.

    Maps are deduplicated by exact set equality; duplicates are redrawn
    until n_maps distinct maps exist or the coordinate space is
    exhausted (then the distinct ones found are returned). Deterministic
    given the seed.
    """
    if n_maps < 1 or dim < 1:
        raise ValueError("n_maps and dim must be >= 1")
    if lag_min > lag_max:
        raise ValueError("lag_min must not exceed lag_max")
    catalog = sorted(set((str(v), str(s)) for v, s in catalog))
    space = [(v, s, lag) for v, s in catalog for lag in range(lag_min, lag_max + 1)]
    if len(space) < dim:
        raise ValueError(f"coordinate space of size {len(space)} cannot host "
                         f"dimension-{dim} maps")
    rng = derive_rng(seed, "delay-maps")
    seen: set[frozenset] = set()
    maps: list[DelayMap] = []
    attempts = 0
    cap = max(50 * n_maps, 1000)
    while len(maps) < n_maps and attempts < cap:
        attempts += 1
        idx = rng.choice(len(space), size=dim, replace=False)
        coords = tuple(sorted(space[i] for i in idx))
        key = frozenset(coords)
        if key in seen:
            continue
        seen.add(key)
        maps.append(DelayMap(coords=coords))
    return maps


def lagged_designs(maps, panel: Panel, seasons: tuple[int, int]) -> np.ndarray:
    """Predictor rows of maps of one dimension for each response season in [start, stop).

    Returns the (maps, stop - start, dim) stack from one indexed read of
    the panel: row t of map g holds panel[var, site][t - lag] per
    coordinate, NaN where the lag reaches before season 0 or the panel
    has no value.
    """
    start, stop = seasons
    if not 0 <= start < stop <= panel.n_seasons:
        raise ValueError(f"season interval [{start}, {stop}) outside panel "
                         f"of {panel.n_seasons} seasons")
    coords = sorted({(v, s) for dmap in maps for v, s, _ in dmap.coords})
    row_of = {c: i for i, c in enumerate(coords)}
    # each series is padded with NaN history reaching back to the largest lag
    pad = max(0, max(dmap.max_lag for dmap in maps) - start)
    series = np.full((len(coords), pad + stop), np.nan)
    series[:, pad:] = [panel.series(*c)[:stop] for c in coords]
    which, lags = np.array([[(row_of[v, s], pad - lag) for v, s, lag in dmap.coords]
                            for dmap in maps]).transpose(2, 0, 1)
    return series[which[:, None, :], np.arange(start, stop)[:, None] + lags[:, None, :]]


# kept for perfbench/traced.py, which reads each search's design with it
def build_design_matrix(panel: Panel, dmap: DelayMap, target: Coord,
                        seasons: tuple[int, int]):
    """Design matrix, response, and usable response-season list.

    Row for season t holds panel[var, site][t - lag] per coordinate and
    response panel[target][t]; rows with any missing value are dropped.
    """
    X = lagged_designs([dmap], panel, seasons)[0]
    y = panel.series(*target)[seasons[0]:seasons[1]]
    usable = np.isfinite(X).all(axis=1) & np.isfinite(y)
    if not np.any(usable):
        raise ValueError("no usable rows: every season misses data or history")
    used_seasons = [int(s) for s in np.arange(*seasons)[usable]]
    return X[usable], y[usable], used_seasons


@dataclass(frozen=True)
class WindowSchedule:
    """Rank / select / retain / predict season intervals, in time order."""

    rank: tuple[int, int]
    select: tuple[int, int]
    retain: tuple[int, int]
    predict: tuple[int, int]

    def __post_init__(self):
        windows = [self.rank, self.select, self.retain, self.predict]
        for lo, hi in windows:
            if hi <= lo:
                raise ConfigError(f"empty window [{lo}, {hi})")
        for (_, hi), (lo, _) in zip(windows, windows[1:]):
            if lo < hi:
                raise ConfigError("windows must be disjoint and in "
                                  "rank < select < retain < predict order")

    @property
    def end(self) -> int:
        return self.predict[1]

    def calibration(self, length: int) -> tuple[int, int]:
        """The ``length`` seasons immediately before the predict window."""
        start = self.predict[0] - length
        if start < self.rank[0]:
            raise ConfigError(f"calibration window of {length} seasons reaches "
                              "before the schedule start")
        return (start, self.predict[0])


def split_windows(first_season: int,
                  lengths: tuple[int, int, int, int] = (28, 8, 8, 5)) -> WindowSchedule:
    """Contiguous schedule from per-window lengths (rank, select, retain, predict)."""
    if any(length < 1 for length in lengths):
        raise ConfigError("window lengths must be >= 1")
    edges = np.cumsum((first_season,) + tuple(lengths))
    return WindowSchedule(rank=(int(edges[0]), int(edges[1])),
                          select=(int(edges[1]), int(edges[2])),
                          retain=(int(edges[2]), int(edges[3])),
                          predict=(int(edges[3]), int(edges[4])))
