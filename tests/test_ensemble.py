import itertools
import json

import numpy as np
import pytest

from chaoscast.embedding import DelayMap
from chaoscast.ensemble import (
    VOTE_MODES,
    EnsembleForecast,
    GroupTable,
    PredictorKey,
    Station,
    combine_members,
    fit_model_groups,
    form_keys,
    key_from_dict,
    key_to_dict,
    load_keys,
    median_combine,
    observation_matrix,
    predict_groups,
    rank_models,
    retain_predictors,
    save_keys,
    table_to_dict,
    take_top_percent,
)
from chaoscast.metrics import pooled_correlations
from chaoscast.panel import Panel
from chaoscast.shrinkage import stein_adjust
from chaoscast.subset import ModelTable, SubsetModel
from test_metrics import reference_pooled_correlation


def table_groups(attractor_id, rows):
    """Views of one model table holding (map_index, dmap, {station id: SubsetModel})
    rows; the models of a row share its row count and dropped columns."""
    stations = tuple(rows[0][2]) if rows else ()
    G, S, p = len(rows), len(stations), max((dmap.dim for _, dmap, _ in rows), default=1)
    columns, coefficients = np.full((G, S, p), -1), np.zeros((G, S, p))
    intercept, rss, cp = np.zeros((3, G, S))
    n_rows, dropped = np.zeros(G, dtype=int), np.zeros((G, p), dtype=bool)
    for g, (_, _, fits) in enumerate(rows):
        for s, m in enumerate(fits[sid] for sid in stations):
            columns[g, s, :m.size], coefficients[g, s, :m.size] = m.columns, m.coefficients
            intercept[g, s], rss[g, s], cp[g, s] = m.intercept, m.rss, m.cp
            n_rows[g], dropped[g, list(m.dropped)] = m.n_rows, True
    return GroupTable(attractor_id, tuple(dmap for _, dmap, _ in rows),
                      tuple(i for i, _, _ in rows), stations,
                      ModelTable(columns, coefficients, intercept, rss, cp, n_rows,
                                 dropped)).groups()


def unit_corr_series(obs, rho, rng):
    """A series whose sample correlation with obs is exactly rho."""
    o = obs - obs.mean()
    o = o / np.linalg.norm(o)
    w = rng.standard_normal(obs.size)
    w = w - w.mean()
    w = w - (w @ o) * o
    w = w / np.linalg.norm(w)
    return rho * o + np.sqrt(1.0 - rho * rho) * w


def sized_groups(sizes):
    """Views of one table whose row g holds, per station s, a model of
    ``sizes[g][s]`` columns; only the sizes of these models are read."""
    sizes = np.atleast_2d(sizes)
    dmap = DelayMap(coords=tuple(("wet", "a", lag) for lag in range(1, sizes.max() + 1)))
    return table_groups("F8", [
        (g, dmap, {f"st{s}": SubsetModel(tuple(range(k)), np.zeros(k), 0.0, 0.0, 0.0, 10)
                   for s, k in enumerate(row)})
        for g, row in enumerate(sizes.tolist())])


def test_rank_models_orders_planted_correlations():
    rng = np.random.default_rng(0)
    obs = rng.standard_normal((1, 40))
    rhos = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0])[rng.permutation(10)]
    preds = np.stack([unit_corr_series(obs[0], r, rng)[None, :] for r in rhos])
    order = rank_models(sized_groups([[3]] * 10), preds, obs, shrink_factor=1.0)
    assert np.allclose(rhos[order], sorted(rhos, reverse=True), atol=1e-9)
    assert sorted(order.tolist()) == list(range(10))


def test_rank_models_perfect_and_flipped():
    rng = np.random.default_rng(1)
    obs = rng.standard_normal((1, 30))
    flipped, flat, perfect = -obs, np.zeros((1, 30)), obs.copy()
    order = rank_models(sized_groups([[3]] * 3), np.stack([flipped, flat, perfect]), obs, 1.0)
    assert order.tolist() == [2, 1, 0]  # the flat row ranks at r 0


def test_rank_models_breaks_exact_ties_by_size_then_row():
    # duplicated rows and constant rows of different model sizes, summed over
    # three stations, against the rule spelt out as a sort key
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((3, 12))
    base = rng.standard_normal((4, 3, 12))
    preds = np.concatenate([base, base[[0, 0, 2, 1]], np.zeros((3, 3, 12)),
                            np.full((2, 3, 12), 1.5), -base[[3]]])
    sizes = rng.integers(1, 4, size=(len(preds), 3))
    sizes[4] = sizes[0]  # one duplicate of the same size as its original
    perm = rng.permutation(len(preds))
    preds, sizes = preds[perm], sizes[perm]
    r = pooled_correlations(stein_adjust(preds, 0.7), obs)[0]
    assert len(preds) - len(set(r.tolist())) == 7  # rows whose r ties an earlier one
    want = sorted(range(len(preds)), key=lambda g: (-r[g], sizes[g].sum(), g))
    assert rank_models(sized_groups(sizes), preds, obs, 0.7).tolist() == want


def test_take_top_percent_counts():
    order = np.random.default_rng(2).permutation(1000)
    assert np.array_equal(take_top_percent(order, 10), order[:100])
    assert np.array_equal(take_top_percent(order, 100), order)
    assert np.array_equal(take_top_percent(order[:7], 30), order[:3])
    with pytest.raises(ValueError):
        take_top_percent(order, 25)
    with pytest.raises(ValueError):
        take_top_percent(order[:0], 10)


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


def combine_vote(values, k=2, mode="majority"):
    """The vote of one cell of finite values: ``combine_members`` on a one-cell stack."""
    return float(combine_members(np.asarray(values, dtype=float)[:, None, None], "vote", k,
                                 mode)[0, 0])


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


def partition_indices(sorted_vals, k):
    """Per-cell reference: the exact minimum within-SS split of n >= 2 sorted
    values into min(k, n) runs, one lone Fisher (1958) DP per cell.

    The first run's cost is a vector over its end; each middle run is one
    (n+1, n+1) pass of best-cost-so-far plus run cost, minimised over its
    start; the last run is a vector over its start with the end fixed at n.
    Equal costs go to the first (lowest) start.
    """
    n = sorted_vals.size
    k = min(k, n)
    pref = np.concatenate([[0.0], np.cumsum(sorted_vals)])
    pref2 = np.concatenate([[0.0], np.cumsum(sorted_vals**2)])

    def seg(i, j):
        """Within-SS of run [i, j); +inf where the run would be empty."""
        width = j - i
        s = pref[j] - pref[i]
        ss = (pref2[j] - pref2[i]) - s * s / np.maximum(width, 1)
        return np.where(width > 0, ss, np.inf)

    ends = np.arange(n + 1)
    cost = seg(0, ends)  # cost[j]: best cost of the runs so far covering [0, j)
    starts = []
    for _ in range(k - 2):
        total = cost[:, None] + seg(ends[:, None], ends)
        start = np.argmin(total, axis=0)
        starts.append(start)
        cost = total[start, ends]
    bounds = [n, int(np.argmin(cost + seg(ends, n)))]
    for start in reversed(starts):
        bounds.append(int(start[bounds[-1]]))
    bounds = [0, *reversed(bounds)]
    return [sorted_vals[i:j] for i, j in zip(bounds, bounds[1:])]


def reference_vote(values, k, mode):
    """Per-cell reference vote of finite values, with the documented tie rules."""
    values = np.asarray(values, dtype=float)
    if k == 1 or values.size == 1:
        return float(values.mean())
    clusters = partition_indices(np.sort(values), k)
    if mode == "two_cluster_average":
        ranked = sorted(clusters, key=lambda c: (-c.size, float(c.mean())))
        return float(np.concatenate(ranked[:2]).mean())
    overall = float(values.mean())
    top = max(c.size for c in clusters)
    finalists = [c for c in clusters if c.size == top]
    if len(finalists) == 1:
        return float(finalists[0].mean())
    means = [float(c.mean()) for c in finalists]
    dists = [abs(m - overall) for m in means]
    scale = 1.0 + abs(overall) + max(abs(m) for m in means)
    nearest = [m for m, d in zip(means, dists) if d <= min(dists) + 1e-9 * scale]
    return float(finalists[means.index(min(nearest))].mean())


def reference_members(stack, k, mode):
    """The vote of a (members, stations, seasons) stack, one cell at a time."""
    out = np.full(stack.shape[1:], np.nan)
    for i, j in itertools.product(*map(range, stack.shape[1:])):
        cell = stack[:, i, j]
        cell = cell[np.isfinite(cell)]
        if cell.size:
            out[i, j] = reference_vote(cell, k, mode)
    return out


def vote_stack(rng, n, cells, kind):
    """A (members, 1, cells) stack with n finite members per cell, at random member
    positions among NaN and +-inf ones; ``kind`` draws the finite values."""
    values = {"normal": lambda: rng.standard_normal((cells, n)) * 10 ** rng.uniform(-3, 3),
              "integer": lambda: rng.integers(-2, 3, (cells, n)).astype(float),
              "equal": lambda: np.full((cells, n), rng.standard_normal())}[kind]()
    m = n + 4
    stack = rng.choice([np.nan, np.inf, -np.inf], (cells, m))
    for row, vals in zip(stack, values):
        row[np.sort(rng.choice(m, n, replace=False))] = vals
    return stack.T[:, None, :].copy()


@pytest.mark.parametrize("mode", VOTE_MODES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_combine_members_vote_equals_the_per_cell_reference(k, mode):
    rng = np.random.default_rng(70 + k)
    stacks = [vote_stack(rng, n, 1 if n == 1000 else 5, kind)
              for n in (1, 2, 7, 8, 9, 127, 128, 129, 1000)
              for kind in ("normal", "integer", "equal")]
    mixed = rng.integers(-3, 4, (40, 3, 7)).astype(float)  # 0 to 40 finite members a cell
    mixed[rng.random(mixed.shape) < rng.random((1, 3, 7))] = np.nan
    mixed[0, 0, :3] = np.inf
    mixed[:, 2, 6] = np.nan  # a cell without members
    stacks.append(mixed)
    for stack in stacks:
        got = combine_members(stack, "vote", k, mode)
        assert got.tobytes() == reference_members(stack, k, mode).tobytes(), stack.shape
    for stack in stacks[:-1:3]:  # the one-cell call runs the same kernel
        cell = stack[:, 0, 0]
        cell = cell[np.isfinite(cell)]
        assert combine_vote(cell, k, mode) == reference_vote(cell, k, mode)


@pytest.mark.parametrize("settings, message", [
    ({"vote_k": 0}, "k must be >= 1"), ({"vote_mode": "bogus"}, "unknown vote mode")])
def test_combine_members_checks_the_vote_settings_before_any_cell(settings, message):
    empty = np.full((3, 2, 4), np.nan)
    populated = np.arange(24.0).reshape(3, 2, 4)
    for stack in (empty, populated):
        with pytest.raises(ValueError, match=message):
            combine_members(stack, "vote", **settings)


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
        DelayMap(coords=(("wet", "a", 4), ("tmp", "a", 5))),
        DelayMap(coords=(("wet", "a", 5), ("tmp", "a", 4))),
        DelayMap(coords=(("tmp", "a", 6),)),
    ]
    groups = fit_model_groups("F8", maps, attractor, stations)
    # seasons 11..72 predicted once: rank 11..40, select 40..56, retain 56..72
    preds = predict_groups(groups, ground, stations, (11, 72))
    obs = observation_matrix(ground, stations, (11, 72))
    order = rank_models(groups, preds[:, :, :29], obs[:, :29], shrink_factor=1.0)
    assert groups[order[0]].map_index == 0  # the informative map wins

    keys = form_keys("F8", groups, order, preds[:, :, 29:], obs[:, 29:], 16, stations,
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
        assert table_to_dict(a.members) == table_to_dict(b.members)
        assert np.array_equal(a.predict(ground, (56, 72)), b.predict(ground, (56, 72)))


(_MEMBER,) = table_groups("A", [(0, DelayMap(coords=(("wet", "a", 4),)), {})])


def _key(attractor, top_percent, combiner, select, retain):
    """A key that carries its window correlations and nothing to predict."""
    return PredictorKey(attractor_id=attractor, top_percent=top_percent,
                        combiner=combiner, stations=(), members=(_MEMBER,),
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


def test_predict_and_save_take_the_groups_of_one_table(tmp_path):
    fit = SubsetModel(columns=(0,), coefficients=np.array([1.0]), intercept=0.0, rss=0.0,
                      cp=0.0, n_rows=16)
    dmap = DelayMap(coords=(("wet", "a", 4),))
    (a,), (b,) = (table_groups("A", [(i, dmap, {"a": fit})]) for i in (0, 1))
    panel = Panel({("wet", "a"): np.arange(20.0)})
    stations = (Station("a", "wet", "a"),)
    assert np.array_equal(predict_groups([a], panel, stations, (4, 20)),
                          np.arange(16.0)[None, None])
    with pytest.raises(ValueError, match="views of one model table"):
        predict_groups([a, b], panel, stations, (4, 20))
    keys = [PredictorKey(attractor_id="A", top_percent=100, combiner="mean",
                         stations=stations, members=(g,), shrink_factor=1.0) for g in (a, b)]
    with pytest.raises(ValueError, match="views of one model table"):
        save_keys(keys, tmp_path / "keys.json")
    assert list(tmp_path.iterdir()) == []


def test_key_validation():
    (group,) = table_groups("A", [(0, DelayMap(coords=(("wet", "a", 4),)), {})])
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=25, combiner="mean",
                     stations=(), members=(group,), shrink_factor=1.0)
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=10, combiner="blend",
                     stations=(), members=(group,), shrink_factor=1.0)
    with pytest.raises(ValueError):
        PredictorKey(attractor_id="A", top_percent=10, combiner="mean",
                     stations=(), members=(), shrink_factor=1.0)
