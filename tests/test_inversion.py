import numpy as np
import pytest

from chaoscast.embedding import DelayMap
from chaoscast.ensemble import PredictorKey, Station
from chaoscast.inversion import (
    InversionResult,
    estimate_parameter,
    key_significance_counts,
    smooth_counts,
)
from chaoscast.panel import Panel
from chaoscast.subset import SubsetModel
from test_ensemble import table_groups


LAG = 4  # the smallest lag of a third-season-ahead delay map


def planted_keys(panel, series_list):
    """One-station, one-member mean keys: each predicts its series unchanged.

    Member i is a one-column group with coefficient 1 and intercept 0 on
    the panel series ("planted", i), which holds series i LAG seasons
    early, so its prediction is the planted series itself, exactly.
    """
    for i, series in enumerate(series_list):
        panel.add("planted", str(i), np.concatenate([series, np.full(LAG, np.nan)]))
    members = table_groups("A", [
        (i, DelayMap(coords=(("planted", str(i), LAG),)),
         {"a": SubsetModel(columns=(0,), coefficients=np.array([1.0]), intercept=0.0,
                           rss=0.0, cp=0.0, n_rows=series.size)})
        for i, series in enumerate(series_list)])
    return [PredictorKey(attractor_id="A", top_percent=100, combiner="mean",
                         stations=(Station("a", "wet", "a"),), members=(member,),
                         shrink_factor=1.0) for member in members]


def planted_series(obs, rho, rng):
    o = obs - obs.mean()
    o = o / np.linalg.norm(o)
    w = rng.standard_normal(obs.size)
    w -= w.mean()
    w -= (w @ o) * o
    w /= np.linalg.norm(w)
    return rho * o + np.sqrt(max(1.0 - rho * rho, 0.0)) * w


def target_panel(obs):
    """Station a observes obs over the seasons window(obs.size), after LAG of history."""
    return Panel({("wet", "a"): np.concatenate([np.full(LAG, np.nan), obs])})


def window(n):
    return (LAG, LAG + n)


def _panel(n=60, seed=0):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal(n)
    return target_panel(obs), obs, rng


def test_counts_all_keys_significant_when_near_perfect():
    panel, obs, rng = _panel()
    planted = [planted_series(obs, 0.99, rng) for _ in range(6)]
    keys = planted_keys(panel, planted)
    for key, series in zip(keys, planted):
        assert np.array_equal(key.members[0].predict(panel, key.stations, window(60)),
                              series[None])
    counts = key_significance_counts({"A": keys}, panel, window(60), q=0.01,
                                     n_fitted_means=0)
    assert counts["A"] == 6


def test_counts_default_dof_bookkeeping_needs_enough_pairs():
    # the default charges one fitted regional mean per target season, so
    # a single station never reaches positive adjusted dof: nothing passes
    panel, obs, rng = _panel()
    keys = planted_keys(panel, [planted_series(obs, 0.99, rng) for _ in range(4)])
    counts = key_significance_counts({"A": keys}, panel, window(60), q=0.01)
    assert counts["A"] == 0


def test_counts_null_keys_rarely_significant():
    rng = np.random.default_rng(1)
    zero_hits = 0
    trials = 40
    for trial in range(trials):
        obs = rng.standard_normal(60)
        panel = target_panel(obs)
        keys = planted_keys(panel, [rng.standard_normal(60) for _ in range(6)])
        counts = key_significance_counts({"A": keys}, panel, window(60), q=0.01,
                                         n_fitted_means=0)
        zero_hits += counts["A"] == 0
    assert zero_hits / trials >= 0.95


def test_counts_mixed_planted_set():
    rng = np.random.default_rng(2)
    results = []
    for trial in range(20):
        obs = rng.standard_normal(80)
        panel = target_panel(obs)
        strong = [planted_series(obs, 0.9, rng) for _ in range(5)]
        null = [rng.standard_normal(80) for _ in range(5)]
        counts = key_significance_counts({"A": planted_keys(panel, strong + null)}, panel,
                                         window(80), q=0.01, n_fitted_means=0)
        results.append(counts["A"])
    # half the keys are strongly predictive; binomial slack on the rest
    assert 4.5 <= np.mean(results) <= 6.5


def test_counts_validation():
    panel, obs, rng = _panel()
    with pytest.raises(ValueError):
        key_significance_counts({"A": []}, panel, window(60))


def test_smooth_constant_unchanged():
    params = [5.0, 6.0, 7.0, 8.0, 9.0]
    out = smooth_counts([3, 3, 3, 3, 3], params)
    assert np.allclose(out, 3.0)


def test_smooth_spike_hand_computed():
    params = [5.0, 6.0, 7.0, 8.0, 9.0]
    out = smooth_counts([0, 0, 10, 0, 0], params, bandwidth=1.0)
    # weights: self 1, neighbor 1/2, further 0; edges renormalize
    assert np.allclose(out, [0.0, 2.5, 5.0, 2.5, 0.0])


def test_smooth_bandwidth_zero_is_identity():
    params = [1.0, 2.0, 3.0]
    counts = [4, 0, 2]
    assert np.array_equal(smooth_counts(counts, params, bandwidth=0.0),
                          np.asarray(counts, dtype=float))


@pytest.mark.parametrize("counts, params", [([4], [8.0]), ([4, 1], [6.0, 8.0])],
                         ids=["one-attractor", "two-attractors"])
def test_smooth_fewer_than_three_attractors_is_identity(counts, params):
    for bandwidth in (None, 1.0, 1e14):
        assert np.array_equal(smooth_counts(counts, params, bandwidth=bandwidth),
                              np.asarray(counts, dtype=float))


def test_smooth_huge_bandwidth_preserves_mass():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 10, size=7).astype(float)
    params = np.arange(7, dtype=float)
    out = smooth_counts(counts, params, bandwidth=1e14)
    assert out.sum() == pytest.approx(counts.sum(), abs=1e-9)


def test_estimate_single_dominant_attractor():
    res = estimate_parameter(("a5", "a6", "a7"), (5.0, 6.0, 7.0),
                             (0, 9, 0), (0.5, 9.0, 0.5), q=0.01)
    assert res.estimate == pytest.approx(6.0)
    assert res.chosen == ("a6",)


def test_estimate_equal_counts_averages():
    res = estimate_parameter(("a6", "a7", "a8"), (6.0, 7.0, 8.0),
                             (4, 0, 4), (4.0, 0.5, 4.0), q=0.01)
    assert res.estimate == pytest.approx(7.0)
    assert set(res.chosen) == {"a6", "a8"}


def test_estimate_empty_selection_is_a_no_estimate_result():
    res = estimate_parameter(("a", "b", "c"), (1.0, 2.0, 3.0), (0, 0, 0),
                             (0.0, 0.0, 0.0), q=0.01, observables=(4.0, 5.0, 6.0))
    assert res.estimate is None and res.observable_estimate is None
    assert res.chosen == ()
    assert (res.raw_counts, res.smoothed_counts) == ((0, 0, 0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        estimate_parameter(("a", "b"), (1.0, 2.0), (0, 0), (0.0, 0.0), q=0.01,
                           fraction_of_max=0.0)


def test_estimate_observable_axis():
    res = estimate_parameter(("a", "b", "c"), (5.0, 6.0, 7.0),
                             (2, 2, 0), (2.0, 2.0, 0.1), q=0.01,
                             observables=(1.5, 2.5, 9.0))
    assert res.observable_estimate == pytest.approx(2.0)


def test_inversion_result_invariants():
    with pytest.raises(ValueError):
        InversionResult(attractor_ids=("a",), parameters=(5.0,), raw_counts=(1,),
                        smoothed_counts=(1.0,), chosen=("zzz",), estimate=5.0,
                        observable_estimate=None, q=0.01)
    with pytest.raises(ValueError):
        InversionResult(attractor_ids=("a", "b"), parameters=(5.0, 6.0),
                        raw_counts=(1, 1), smoothed_counts=(1.0, 1.0),
                        chosen=("a",), estimate=6.0,
                        observable_estimate=None, q=0.01)
