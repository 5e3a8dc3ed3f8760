import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest

from chaoscast.embedding import DelayMap
from chaoscast.ensemble import (
    EnsembleForecast,
    ModelGroup,
    PredictorKey,
    RankedModel,
    Station,
    combine_members,
    combine_vote,
    fit_model_groups,
    form_keys,
    group_to_dict,
    key_from_dict,
    key_to_dict,
    load_keys,
    median_combine,
    observation_matrix,
    predict_groups,
    rank_models,
    retain_predictors,
    save_keys,
    take_top_percent,
)
from chaoscast.panel import Panel
from test_metrics import reference_pooled_correlation


def unit_corr_series(obs, rho, rng):
    """A series whose sample correlation with obs is exactly rho."""
    o = obs - obs.mean()
    o = o / np.linalg.norm(o)
    w = rng.standard_normal(obs.size)
    w = w - w.mean()
    w = w - (w @ o) * o
    w = w / np.linalg.norm(w)
    return rho * o + np.sqrt(1.0 - rho * rho) * w


def stub_predictions(groups, panel, stations, seasons):
    """The (groups, stations, seasons) stack of StubGroup predictions."""
    return np.stack([g.predict(panel, stations, seasons) for g in groups])


@dataclass
class StubGroup:
    series: np.ndarray  # full-length per-station predictions
    size: int = 3

    @property
    def total_size(self):
        return self.size

    def predict(self, panel, stations, seasons):
        return self.series[:, seasons[0]:seasons[1]]


def test_rank_models_orders_planted_correlations():
    rng = np.random.default_rng(0)
    n = 40
    obs = rng.standard_normal(n)
    panel = Panel({("wet", "a"): obs})
    stations = (Station("a", "wet", "a"),)
    rhos = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
    groups = [StubGroup(unit_corr_series(obs, r, rng)[None, :]) for r in rhos]
    shuffled = [groups[i] for i in rng.permutation(len(groups))]
    ranked = rank_models(shuffled, stub_predictions(shuffled, panel, stations, (0, n)),
                         observation_matrix(panel, stations, (0, n)), shrink_factor=1.0)
    got = [rm.correlation for rm in ranked]
    assert np.allclose(got, sorted(rhos, reverse=True), atol=1e-9)
    assert all(shuffled[rm.index] is rm.group for rm in ranked)


def test_rank_models_perfect_and_flipped():
    rng = np.random.default_rng(1)
    obs = rng.standard_normal(30)
    panel = Panel({("wet", "a"): obs})
    stations = (Station("a", "wet", "a"),)
    perfect = StubGroup(obs[None, :].copy())
    flipped = StubGroup(-obs[None, :])
    flat = StubGroup(np.zeros((1, 30)))
    groups = [flipped, flat, perfect]
    ranked = rank_models(groups, stub_predictions(groups, panel, stations, (0, 30)),
                         observation_matrix(panel, stations, (0, 30)), 1.0)
    assert ranked[0].correlation == pytest.approx(1.0)
    assert ranked[-1].correlation == pytest.approx(-1.0)
    degenerate = [rm for rm in ranked if rm.degenerate]
    assert len(degenerate) == 1 and degenerate[0].correlation == 0.0


def test_take_top_percent_counts():
    rng = np.random.default_rng(2)
    ranked = [RankedModel(StubGroup(np.zeros((1, 4))), r, i)
              for i, r in enumerate(rng.uniform(size=1000))]
    assert len(take_top_percent(ranked, 10)) == 100
    assert take_top_percent(ranked, 100) == ranked
    assert len(take_top_percent(ranked[:7], 30)) == 3
    with pytest.raises(ValueError):
        take_top_percent(ranked, 25)
    with pytest.raises(ValueError):
        take_top_percent([], 10)


def combine_cell(values):
    """The mean combiner on a one-cell stack of the given member values."""
    return combine_members(np.asarray(values, dtype=float).reshape(-1, 1, 1), "mean")[0, 0]


def test_combine_mean():
    assert combine_cell([1.0, 1.0, 1.0]) == 1.0
    assert combine_cell([0.0, 10.0]) == 5.0
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(100)
    assert combine_cell(vals) == vals.mean()
    assert combine_cell(vals) == pytest.approx(vals.sum() / 100.0, rel=1e-14)


def brute_force_vote(values, k=2):
    """Oracle: try every set of k-1 sorted cut points, recompute costs directly.

    Shares only the documented tie rule (majority; distance tie within
    epsilon falls to the lower mean), not the search or cost algebra.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    assert n >= 2
    best_cost, best_runs = np.inf, None
    for cuts in itertools.combinations(range(1, n), min(k, n) - 1):
        runs = np.split(xs, cuts)
        cost = sum(np.sum((run - run.mean()) ** 2) for run in runs)
        if cost < best_cost:
            best_cost, best_runs = cost, runs
    top = max(run.size for run in best_runs)
    means = [run.mean() for run in best_runs if run.size == top]
    overall = xs.mean()
    dists = [abs(m - overall) for m in means]
    scale = 1.0 + abs(overall) + max(abs(m) for m in means)
    nearest = [m for m, d in zip(means, dists) if d <= min(dists) + 1e-9 * scale]
    return float(min(nearest))


def test_combine_vote_trivial_and_hand_cases():
    assert combine_vote([2.5, 2.5, 2.5]) == 2.5
    assert combine_vote([0.10, 0.11, 0.12, 0.95]) == pytest.approx(0.11)


def test_combine_vote_matches_brute_force_on_200_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 26))
        values = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        assert combine_vote(values, k=2) == brute_force_vote(values)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_combine_vote_matches_brute_force_for_every_k(k):
    # n from 2 to 12, so k >= n (every value its own cluster) is covered
    rng = np.random.default_rng(40 + k)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        values = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        assert combine_vote(values, k=k) == brute_force_vote(values, k=k), (n, values)


def test_combine_vote_k1_equals_mean_exactly():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(17)
    assert combine_vote(values, k=1) == values.mean()


def test_combine_vote_permutation_and_translation():
    rng = np.random.default_rng(6)
    values = rng.standard_normal(15)
    base = combine_vote(values)
    assert combine_vote(values[rng.permutation(15)]) == pytest.approx(base, abs=1e-12)
    assert combine_vote(values + 4.2) == pytest.approx(base + 4.2, abs=1e-9)


def test_combine_vote_two_cluster_average_mode():
    # three clear clusters; the two most populous get averaged together
    values = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 9.0])
    got = combine_vote(values, k=3, mode="two_cluster_average")
    want = np.mean([0.0, 0.1, 0.2, 5.0, 5.1])
    assert got == pytest.approx(want)


def test_combine_vote_general_k_matches_dp_expectation():
    values = np.array([0.0, 0.05, 1.0, 1.05, 1.1, 3.0, 3.05])
    # k=3 splits at the obvious gaps; majority cluster is the middle one
    assert combine_vote(values, k=3) == pytest.approx(np.mean([1.0, 1.05, 1.1]))


def intermittency_scenario(seed, n_models=30, bad_frac=0.4, n_seasons=16):
    """Rule-3 construction: a systematically biased sub-population that
    wanders off on a random subset of seasons."""
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(n_seasons)
    corrupt = rng.random(n_seasons) < 0.5
    n_bad = int(round(bad_frac * n_models))
    preds = np.empty((n_models, n_seasons))
    for m in range(n_models):
        noise = 0.3 * rng.standard_normal(n_seasons)
        if m < n_models - n_bad:
            preds[m] = truth + noise
        else:
            preds[m] = truth + 5.0 * corrupt + noise
    return truth, preds


def test_rule3_vote_beats_mean_on_intermittent_bias():
    wins = 0
    for seed in range(25):
        truth, preds = intermittency_scenario(seed)
        mean_series = preds.mean(axis=0)
        vote_series = np.array([combine_vote(preds[:, t]) for t in range(preds.shape[1])])
        r_mean, _ = reference_pooled_correlation(mean_series, truth)
        r_vote, _ = reference_pooled_correlation(vote_series, truth)
        wins += r_vote >= r_mean
    assert wins >= 20


def _fixture_panels(n_seasons=80, noise=0.05, seed=8):
    """Attractor and ground panels sharing an exact lag-4 dependence."""
    rng = np.random.default_rng(seed)
    base_a = rng.standard_normal(n_seasons + 4)
    base_g = rng.standard_normal(n_seasons + 4)

    def build(base, eps):
        driver = base[:-4]
        target = base[4:] * 0.0 + driver  # y[t] = driver[t-4] exactly
        values = {
            ("wet", "a"): np.concatenate([base[:4], driver]),
            ("tmp", "a"): rng.standard_normal(n_seasons + 4)[4:n_seasons + 4 + 0][:n_seasons],
        }
        # target series: y[t] = wet[t-4] + eps
        wet = values[("wet", "a")][:n_seasons]
        y = np.empty(n_seasons)
        y[:4] = rng.standard_normal(4)
        y[4:] = wet[:n_seasons - 4] + eps * rng.standard_normal(n_seasons - 4)
        values[("wet", "a")] = wet
        values[("wet", "tgt")] = y
        values[("tmp", "a")] = values[("tmp", "a")][:n_seasons]
        return Panel(values)

    return build(base_a, noise), build(base_g, noise)


def test_fit_form_retain_round_trip(tmp_path):
    attractor, ground = _fixture_panels()
    stations = (Station("tgt", "wet", "tgt"),)
    maps = [
        DelayMap(coords=(("wet", "a", 4), ("tmp", "a", 5)), lead=3),
        DelayMap(coords=(("wet", "a", 5), ("tmp", "a", 4)), lead=3),
        DelayMap(coords=(("tmp", "a", 6),), lead=3),
    ]
    groups = fit_model_groups("F8", maps, attractor, stations)
    # seasons 11..72 predicted once: rank 11..40, select 40..56, retain 56..72
    preds = predict_groups(groups, ground, stations, (11, 72))
    obs = observation_matrix(ground, stations, (11, 72))
    ranked = rank_models(groups, preds[:, :, :29], obs[:, :29], shrink_factor=1.0)
    assert ranked[0].group.map_index == 0  # the informative map wins

    keys = form_keys("F8", ranked, preds[:, :, 29:], obs[:, 29:], 16, stations,
                     shrink_factor=1.0)
    assert len(keys) == 6
    assert {k.key_id for k in keys} == {
        f"F8/X{x:03d}/{c}" for x in (10, 30, 100) for c in ("mean", "vote")}

    # replaying a key reproduces its stored select and retain correlations
    for key in keys:
        for name, window in (("select", (40, 56)), ("retain", (56, 72))):
            pred = key.predict(ground, window)
            obs = observation_matrix(ground, key.stations, window)
            r, _ = reference_pooled_correlation(pred, obs)
            assert r == pytest.approx(key.correlations[name], abs=1e-12)

    retained = retain_predictors(keys, threshold=0.5, top_k=10)
    assert retained, "strong planted signal must survive retention"
    for key in retained:
        assert key.correlations["retain"] > 0.5

    # serialization round trip replays identically
    path = tmp_path / "keys.json"
    save_keys(retained, path, header={"seed": 8})
    loaded = load_keys(path)
    assert len(loaded) == len(retained)
    for a, b in zip(retained, loaded):
        assert key_to_dict(a) == key_to_dict(b)
        assert list(map(group_to_dict, a.members)) == list(map(group_to_dict, b.members))
        assert np.array_equal(a.predict(ground, (56, 72)), b.predict(ground, (56, 72)))


_MEMBER = ModelGroup("A", 0, DelayMap(coords=(("wet", "a", 4),), lead=3), fits={})


def _key(attractor, top_percent, combiner, select, retain):
    """A key that carries its window correlations and nothing to predict."""
    return PredictorKey(attractor_id=attractor, top_percent=top_percent,
                        combiner=combiner, lead=3, stations=(), members=(_MEMBER,),
                        shrink_factor=1.0,
                        correlations={"select": select, "retain": retain})


def _ids(keys):
    return [k.key_id for k in keys]


def test_retain_thresholds_and_switching():
    keys = [_key("A", 10, "mean", 0.9, 0.9), _key("A", 30, "mean", 0.8, 0.5),
            _key("A", 100, "mean", 0.7, 0.3)]
    assert _ids(retain_predictors(keys, threshold=0.5)) == ["A/X010/mean"]
    # strict threshold: a sibling exactly at it is no better a choice
    keys = [_key("A", 10, "mean", 0.9, 0.2), _key("A", 10, "vote", 0.1, 0.5)]
    assert retain_predictors(keys, threshold=0.5, top_k=1) == []

    mean = _key("A", 10, "mean", 0.9, 0.1)
    vote = _key("A", 10, "vote", 0.2, 0.8)  # outside top_k=1 by select r
    switched = retain_predictors([mean, vote], threshold=0.5, top_k=1)
    assert switched == [vote]  # the sibling itself, with its own select r
    assert retain_predictors([mean, vote], threshold=0.5, top_k=1,
                             allow_switching=False) == []


def test_retain_keeps_each_key_once():
    keys = [_key("A", 10, "mean", 0.9, 0.6), _key("A", 10, "vote", 0.8, 0.7),
            _key("A", 30, "vote", 0.7, 0.9), _key("A", 30, "mean", 0.6, 0.9),
            _key("B", 30, "mean", 0.5, 0.8)]
    # both X010 keys switch to the vote key; the X030 keys tie and keep
    # themselves, so the first kept stands for its cut
    assert _ids(retain_predictors(keys, threshold=0.5)) == [
        "A/X010/vote", "A/X030/vote", "B/X030/mean"]
    assert _ids(retain_predictors(keys, threshold=0.5, allow_switching=False)) == [
        "A/X010/mean", "A/X030/vote", "B/X030/mean"]


def test_retain_top_k_per_attractor():
    keys = [_key(a, x, c, 0.9 - 0.1 * i, 0.9) for a in ("B", "A")
            for i, (x, c) in enumerate(itertools.product((10, 30, 100), ("mean", "vote")))]
    retained = retain_predictors(keys, threshold=0.5, top_k=4, allow_switching=False)
    # the top 4 are both keys of X010 and X030; each cut is kept once
    assert _ids(retained) == [f"{a}/X{x:03d}/mean" for a in ("A", "B") for x in (10, 30)]


def test_median_combine():
    stack = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
    assert median_combine(stack)[0, 0] == 2.0
    stack4 = np.array([1.0, 2.0, 3.0, 10.0]).reshape(4, 1, 1)
    assert median_combine(stack4)[0, 0] == 2.5


def test_median_robust_to_single_corruption():
    rng = np.random.default_rng(11)
    preds = rng.standard_normal((9, 1, 1))
    base = median_combine(preds)[0, 0]
    corrupted = preds.copy()
    corrupted[3, 0, 0] += 100.0
    shift = abs(median_combine(corrupted)[0, 0] - base)
    assert shift < 100.0 / 9.0


def test_combine_members_nan_cells():
    stack = np.full((3, 1, 2), np.nan)
    stack[:, 0, 0] = [1.0, 2.0, 3.0]
    out = combine_members(stack, "mean")
    assert out[0, 0] == pytest.approx(2.0)
    assert np.isnan(out[0, 1])

    # NaN members are skipped; each cell against the mean of its finite members
    rng = np.random.default_rng(12)
    for m in (1, 2, 5, 7, 8, 12, 30):
        stack = rng.standard_normal((m, 4, 9))
        stack[rng.random(stack.shape) < 0.3] = np.nan
        stack[:, 0, 0] = np.nan  # a cell without members
        out = combine_members(stack, "mean")
        assert out.shape == (4, 9)
        for i, j in itertools.product(range(4), range(9)):
            cell = stack[:, i, j]
            finite = cell[np.isfinite(cell)]
            if finite.size == 0:
                assert np.isnan(out[i, j])
            elif finite.size == m or m < 8:  # the same sum, bit for bit
                assert out[i, j] == finite.mean(), (m, i, j)
            else:
                assert out[i, j] == pytest.approx(finite.mean(), rel=1e-14, abs=1e-15)


def test_ensemble_forecast_provenance_required():
    with pytest.raises(ValueError):
        EnsembleForecast(stations=("a",), seasons=(44,),
                         predictions=np.zeros((1, 1)), raw_median=np.zeros((1, 1)),
                         contributing_keys=(), combiner_by_key={},
                         calibration_slope=1.0, calibration_intercept=0.0)
    EnsembleForecast(stations=("a",), seasons=(44,),
                     predictions=np.zeros((1, 1)), raw_median=np.zeros((1, 1)),
                     contributing_keys=(), combiner_by_key={},
                     calibration_slope=0.0, calibration_intercept=0.0,
                     no_forecast=True)


def test_key_validation():
    group = ModelGroup("A", 0, DelayMap(coords=(("wet", "a", 4),), lead=3), fits={})
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=25, combiner="mean", lead=3,
                     stations=(), members=(group,), shrink_factor=1.0)
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=10, combiner="blend", lead=3,
                     stations=(), members=(group,), shrink_factor=1.0)
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=10, combiner="mean", lead=3,
                     stations=(), members=(), shrink_factor=1.0)
