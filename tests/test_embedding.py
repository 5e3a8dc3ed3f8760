import numpy as np
import pytest

from chaoscast.embedding import (
    DelayMap,
    WindowSchedule,
    build_design_matrix,
    sample_delay_maps,
    split_windows,
)
from chaoscast.errors import ConfigError
from chaoscast.panel import Panel


def test_delay_map_rejects_leaky_lags():
    with pytest.raises(ValueError, match="lag 0 for \\(wet, s00\\)"):
        DelayMap(coords=(("tmp", "s01", 1), ("wet", "s00", 0)))
    with pytest.raises(ValueError):
        DelayMap(coords=(("wet", "s00", -2),))
    with pytest.raises(ValueError):
        DelayMap(coords=(("wet", "s00", 4), ("wet", "s00", 4)))
    assert DelayMap(coords=(("wet", "s00", 1),)).max_lag == 1
    dm = DelayMap(coords=(("wet", "s00", 4), ("tmp", "s01", 11)))
    assert dm.dim == 2 and dm.max_lag == 11


def test_sample_forced_single_map():
    maps = sample_delay_maps([("wet", "s00")], n_maps=3, dim=8,
                             lag_min=4, lag_max=11, seed=0)
    assert len(maps) == 1
    assert maps[0].coords == tuple(("wet", "s00", lag) for lag in range(4, 12))


def test_sample_impossible_dimension_errors():
    with pytest.raises(ValueError):
        sample_delay_maps([("wet", "s00")], n_maps=1, dim=9,
                          lag_min=4, lag_max=11, seed=0)


def test_sample_adversarial_lag_min_fails():
    with pytest.raises(ValueError):
        # every map of the one-site, lag 0..1 space holds lag 0
        sample_delay_maps([("wet", "s00")], n_maps=5, dim=2, lag_min=0, lag_max=1, seed=0)


def test_sample_thousand_maps_properties():
    catalog = [("wet", f"s{i:02d}") for i in range(10)] + \
              [("tmp", f"s{i:02d}") for i in range(10)]
    maps = sample_delay_maps(catalog, n_maps=1000, dim=8,
                             lag_min=4, lag_max=11, seed=42)
    assert len(maps) == 1000
    seen = set()
    for dm in maps:
        assert dm.dim == 8
        assert len(set(dm.coords)) == 8
        assert all(4 <= lag <= 11 for _, _, lag in dm.coords)
        seen.add(frozenset(dm.coords))
    assert len(seen) == 1000
    again = sample_delay_maps(catalog, n_maps=1000, dim=8,
                              lag_min=4, lag_max=11, seed=42)
    assert [m.coords for m in again] == [m.coords for m in maps]


def test_sample_exchangeable_under_catalog_permutation():
    catalog = [("wet", f"s{i:02d}") for i in range(6)]
    maps = sample_delay_maps(list(reversed(catalog)), n_maps=50, dim=4,
                             lag_min=4, lag_max=9, seed=7)
    assert len(maps) == 50
    for dm in maps:
        assert all(4 <= lag <= 9 for _, _, lag in dm.coords)


def _toy_panel(n=20):
    rng = np.random.default_rng(0)
    return Panel({
        ("wet", "a"): rng.standard_normal(n),
        ("wet", "b"): rng.standard_normal(n),
        ("tmp", "a"): rng.standard_normal(n),
    })


def test_design_single_coordinate_is_lagged_series():
    panel = _toy_panel()
    dm = DelayMap(coords=(("wet", "a", 4),))
    X, y, seasons = build_design_matrix(panel, dm, ("wet", "a"), (4, 12))
    series = panel.series("wet", "a")
    assert np.array_equal(X[:, 0], series[0:8])
    assert np.array_equal(y, series[4:12])
    assert seasons == list(range(4, 12))


def test_design_constant_panel_is_constant():
    panel = Panel({("wet", "a"): np.full(15, 2.0)})
    dm = DelayMap(coords=(("wet", "a", 4), ("wet", "a", 5)))
    X, y, _ = build_design_matrix(panel, dm, ("wet", "a"), (5, 15))
    assert np.all(X == 2.0) and np.all(y == 2.0)


def test_design_matches_hand_built_matrix():
    values = {
        ("wet", "a"): np.arange(10.0),
        ("wet", "b"): np.arange(10.0) ** 2,
        ("tmp", "a"): -np.arange(10.0),
    }
    panel = Panel(values)
    dm = DelayMap(coords=(("tmp", "a", 4), ("wet", "a", 5), ("wet", "b", 6)))
    X, y, seasons = build_design_matrix(panel, dm, ("wet", "a"), (6, 10))
    # coords are stored in the given order; rows for t = 6..9
    want = np.array([[-(t - 4), (t - 5), (t - 6) ** 2] for t in range(6, 10)], dtype=float)
    assert np.array_equal(X, want)
    assert np.array_equal(y, np.arange(6.0, 10.0))
    assert seasons == [6, 7, 8, 9]


def test_design_drops_missing_rows_and_reports():
    panel = _toy_panel()
    panel.series("wet", "a")[2] = np.nan
    dm = DelayMap(coords=(("wet", "a", 4),))
    X, y, seasons = build_design_matrix(panel, dm, ("wet", "a"), (4, 12))
    assert 6 not in seasons  # predictor at 6 - 4 = 2 is missing
    assert len(seasons) == 7
    assert np.all(np.isfinite(X)) and np.all(np.isfinite(y))


def test_design_insufficient_history_errors():
    panel = _toy_panel()
    dm = DelayMap(coords=(("wet", "a", 8),))
    with pytest.raises(ValueError):
        build_design_matrix(panel, dm, ("wet", "a"), (0, 5))


def test_design_is_causal_by_construction():
    # encode the season index as the value: every predictor entry must
    # sit at least the map's smallest lag before its response
    n = 30
    panel = Panel({("wet", "a"): np.arange(float(n)), ("tmp", "a"): np.arange(float(n))})
    dm = DelayMap(coords=(("wet", "a", 4), ("tmp", "a", 7)))
    X, y, _ = build_design_matrix(panel, dm, ("wet", "a"), (7, n))
    min_lag = min(lag for _, _, lag in dm.coords)
    assert np.all(X <= y[:, None] - min_lag)
    assert np.any(X == y[:, None] - min_lag)


def test_split_windows_defaults_and_custom():
    ws = split_windows(0)
    assert (ws.rank, ws.select, ws.retain, ws.predict) == \
        ((0, 28), (28, 36), (36, 44), (44, 49))
    ws2 = split_windows(0, (4, 4, 4, 2))
    assert (ws2.rank, ws2.select, ws2.retain, ws2.predict) == \
        ((0, 4), (4, 8), (8, 12), (12, 14))


def test_split_windows_contiguous_property():
    ws = split_windows(5, (3, 2, 4, 1))
    windows = [ws.rank, ws.select, ws.retain, ws.predict]
    for (_, hi), (lo, _) in zip(windows, windows[1:]):
        assert hi == lo
    assert windows[0][0] == 5


def test_window_schedule_validation():
    with pytest.raises(ConfigError):
        WindowSchedule(rank=(0, 10), select=(8, 12), retain=(12, 14), predict=(14, 16))
    with pytest.raises(ConfigError):
        WindowSchedule(rank=(0, 10), select=(10, 10), retain=(12, 14), predict=(14, 16))
    with pytest.raises(ConfigError):
        split_windows(0, (4, 0, 4, 2))


def test_calibration_window():
    ws = split_windows(0)
    assert ws.calibration(8) == (36, 44)
    assert ws.calibration(12) == (32, 44)
    with pytest.raises(ConfigError):
        ws.calibration(60)
