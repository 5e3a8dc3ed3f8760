import json
import shutil
from collections import Counter

import numpy as np
import pytest

from chaoscast import cli, dynamics, ensemble, inversion
from chaoscast import pipeline as pl
from chaoscast.artifacts import write_json, write_text
from chaoscast.config import PipelineConfig, load_config, save_config
from chaoscast.embedding import DelayMap
from chaoscast.ensemble import (ModelGroup, PredictorKey, load_keys, observation_matrix,
                                save_keys)
from chaoscast.ground import SEASON_NAMES, make_ground_panel
from chaoscast.inversion import key_significance_counts
from chaoscast.metrics import adjusted_dof, benjamini_hochberg, correlation_pvalue
from test_metrics import reference_pooled_correlation

GOLDEN_CONFIG = {"seed": 7,
                 "surrogate": {"forcings": [6.0, 8.0, 10.0], "n_seasons": 200},
                 "embedding": {"n_maps": 20}}

GOLDEN_ARTIFACTS = {
    "attractors/F6.csv", "attractors/F6.meta.json",
    "attractors/F8.csv", "attractors/F8.meta.json",
    "attractors/F10.csv", "attractors/F10.meta.json",
    "config.json", "ground.csv", "ground.meta.json", "shrinkage.json",
    "maps.json", "models.json", "keys.json", "retained_keys.json",
    "forecast.json", "skill.csv", "plots/fig2_scatter.csv",
}

STAGED_VERBS = ("generate-library", "embed", "fit", "select", "forecast", "score",
                "emit-plots")

# golden variants that retain keys, with both combiners of each cut in the top_k;
# in "two-members-per-cut" the X010 vote of 2 members is its mean sibling
RETAINING_CONFIGS = {
    "vote-k4-threshold-0.2": {
        **GOLDEN_CONFIG, "embedding": {"n_maps": 30, "dim": 4},
        "selection": {"vote_k": 4, "vote_mode": "two_cluster_average",
                      "retention_threshold": 0.2}},
    "threshold-0.1": {**GOLDEN_CONFIG, "selection": {"retention_threshold": 0.1}},
    "two-members-per-cut": {
        **GOLDEN_CONFIG, "embedding": {"n_maps": 20, "dim": 4},
        "selection": {"vote_k": 4, "vote_mode": "two_cluster_average",
                      "retention_threshold": 0.1}},
}


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The golden config and the artifact directory of one run-all on it."""
    root = tmp_path_factory.mktemp("golden")
    config = _write_config(root / "config.json", GOLDEN_CONFIG)
    assert cli.main(["run-all", "-c", config, "-o", str(root / "out")]) == 0
    return config, root / "out"


def _write_ground_file(path, run_out):
    """station,year,season,value rows of a run's raw ground, per default station."""
    ground, factors, _ = pl.load_ground(run_out)
    raw = factors.inverse(ground)
    stations = PipelineConfig.from_dict(GOLDEN_CONFIG).resolved_stations()
    lines = ["station,year,season,value"]
    for sid, target in stations.items():
        for t, value in enumerate(raw.series(*target)):
            lines.append(f"{sid},{1950 + t // 4},{SEASON_NAMES[t % 4]},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_run_all_is_complete_and_byte_reproducible(tmp_path):
    # member ground (the default), a fresh ground run outside the library, and
    # a ground file holding the member run's raw ground at the default stations
    ground_file = tmp_path / "ground_file.csv"
    for mode, extra in (("member", {}),
                        ("fresh", {"ground": {"mode": "fresh", "forcing": 7.0}}),
                        ("file", {"ground": {"mode": "file", "path": str(ground_file)}})):
        config = _write_config(tmp_path / f"{mode}.json", {**GOLDEN_CONFIG, **extra})
        trees = []
        for name in ("a", "b"):
            out = tmp_path / mode / name
            assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
            trees.append(_tree(out))
        if mode == "member":
            _write_ground_file(ground_file, tmp_path / mode / "a")
        assert set(trees[0]) == GOLDEN_ARTIFACTS
        assert trees[0] == trees[1]
        assert json.loads(trees[0]["shrinkage.json"])["bootstrap_seed"] >= 0
        assert json.loads(trees[0]["ground.meta.json"])["provenance"]["mode"] == mode


def test_staged_verbs_write_the_same_bytes_as_run_all(golden_run, tmp_path):
    config, run_all_out = golden_run
    out = tmp_path / "staged"
    for verb in STAGED_VERBS:
        assert cli.main([verb, "-c", config, "-o", str(out)]) == 0, verb
    expected = _tree(run_all_out)
    del expected["config.json"]  # written by run-all only
    assert _tree(out) == expected


def test_forecast_rejects_a_retained_keys_file_of_another_version(golden_run, tmp_path):
    config, run_all_out = golden_run
    out = tmp_path / "out"
    shutil.copytree(run_all_out, out)
    assert cli.main(["forecast", "-c", config, "-o", str(out)]) == 0
    path = out / "retained_keys.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 2}))
    assert cli.main(["forecast", "-c", config, "-o", str(out)]) != 0


@pytest.mark.parametrize("name", sorted(RETAINING_CONFIGS))
def test_retained_keys_are_stored_and_forecast_once(tmp_path, name):
    config = _write_config(tmp_path / "config.json", RETAINING_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    keys = {k["key_id"]: k for k in json.loads((out / "keys.json").read_text())["keys"]}
    retained = json.loads((out / "retained_keys.json").read_text())["keys"]
    ids = [k["key_id"] for k in retained]
    assert ids and len(set(ids)) == len(ids)
    # the combiner is a switch within a cut: at most one key per (attractor, cut)
    cuts = [(k["attractor_id"], k["top_percent"]) for k in retained]
    assert len(set(cuts)) == len(cuts)
    # a retained key is the key itself, with its own select and retain r
    assert retained == [keys[key_id] for key_id in ids]
    assert json.loads((out / "forecast.json").read_text())["contributing_keys"] == ids


def _count_predict_groups(monkeypatch, *modules):
    """Record the (attractor, map_index) groups of each predict_groups call."""
    calls = []
    predict = ensemble.predict_groups

    def counted(groups, *args, **kwargs):
        groups = list(groups)
        calls.append(Counter((g.attractor_id, g.map_index) for g in groups))
        return predict(groups, *args, **kwargs)

    for module in (ensemble, *modules):
        monkeypatch.setattr(module, "predict_groups", counted)
    return calls


def test_stage_select_predicts_each_model_group_once(golden_run, monkeypatch):
    config, out = golden_run
    cfg = load_config(config)
    groups = pl.load_groups(out)
    ground, _, _ = pl.load_ground(out)
    calls = _count_predict_groups(monkeypatch, pl)
    correlated = []
    correlate = ensemble.pooled_correlations

    def counted(pred, obs):
        correlated.append(np.shape(pred)[:-2])
        return correlate(pred, obs)

    monkeypatch.setattr(ensemble, "pooled_correlations", counted)
    keys_by_attractor, _ = pl.stage_select(cfg, groups, ground, pl.stage_shrinkage(cfg))
    # one batched call per attractor, holding each of its groups once
    assert calls == [Counter((g.attractor_id, g.map_index) for g in groups[label])
                     for label in sorted(groups)]
    assert {n for call in calls for n in call.values()} == {1}
    # per attractor, one correlation call ranks its groups and one per window
    # (select, retain) scores its keys
    assert correlated == [shape for label in sorted(groups)
                          for shape in ((len(groups[label]),),
                                        *[(len(keys_by_attractor[label]),)] * 2)]


@pytest.mark.parametrize("section, settings", [
    ("selection", {"vote_k": 0}),
    ("selection", {"top_k": -1}),
    ("selection", {"vote_mode": "plurality"}),
    ("selection", {"x_grid": []}),
    ("embedding", {"max_subset_size": 0}),
    ("calibration", {"direction": "sideways"}),
    ("shrinkage", {"n_reps": 50}),
    ("shrinkage", {"n_points": 6}),
    ("shrinkage", {"target_r": 1.0}),
    ("schedule", {"first_season": -5}),
    ("stations", {"a": ["wet", "s99"], "b": ["wet", "s03"]}),
    ("stations", {"a": ["wet", "s03"]}),
    ("surrogate", {"K": 3}),
    ("surrogate", {"dt": -0.05}),
    ("surrogate", {"forcings": [8.0, 8.0]}),
    ("surrogate", {"forcings": []}),
    ("surrogate", {"steps_per_season": 0}),
    ("surrogate", {"forcings": [8.0, 1e400]}),
    ("surrogate", {"steady_window": 1}),
    ("surrogate", {"n_seasons": 50}),
    ("surrogate", {"indices": {"a": [["s00"], ["s99"]]}}),
    ("ground", {"mode": "fresh", "forcing": 1e400}),
    ("embedding", {"lag_max": 250}),
    ("embedding", {"lag_max": 500}),
    ("embedding", {"lag_max": 195}),
    ("schedule", {"lengths": [28, 8, 8, 1]}),
    ("inversion", {"enabled": True, "q": 0}),
    ("inversion", {"enabled": True, "q": 1.5}),
    ("inversion", {"fraction_of_max": 0}),
    ("inversion", {"enabled": True, "target_window": [44, 40]}),
    ("inversion", {"trailing_seasons": 0}),
    ("selection", {"x_grid": [10, 10]}),
    ("inversion", {"enabled": True, "n_fitted_means": -200}),
    ("inversion", {"enabled": True, "bandwidth": -1.0}),
], ids=["vote_k-0", "top_k-negative", "vote_mode-plurality", "x_grid-empty", "max_subset_size-0",
        "direction-sideways", "n_reps-50", "n_points-6", "target_r-1",
        "first_season-negative", "station-series-unknown", "stations-one", "K-3", "dt-negative",
        "forcings-duplicate", "forcings-empty", "steps_per_season-0", "forcings-overflow",
        "steady_window-1", "n_seasons-below-two-windows", "index-site-outside-ring",
        "fresh-forcing-overflow", "lag_max-250", "lag_max-500", "lag_max-195",
        "predict-window-1", "q-0", "q-1.5", "fraction_of_max-0", "target_window-reversed",
        "trailing_seasons-0", "x_grid-repeated", "n_fitted_means-negative",
        "bandwidth-negative"])
def test_run_all_rejects_an_invalid_setting_as_a_config_error(tmp_path, section, settings):
    payload = {**GOLDEN_CONFIG, section: {**GOLDEN_CONFIG.get(section, {}), **settings}}
    config = _write_config(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 1
    assert not (out / "ground.csv").exists()
    if section != "stations":  # station targets are checked against the ground panel
        assert not out.exists()


def test_invert_rejects_a_target_window_past_the_ground_panel(tmp_path, capsys):
    # the golden ground panel ends with the schedule, at season 49; a file-mode
    # ground can be longer, so validate() cannot know the panel's length
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "inversion": {"enabled": True, "target_window": [40, 100]}})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 1
    assert "past the 49-season ground panel" in capsys.readouterr().err
    assert (out / "forecast.json").exists() and not (out / "inversion.json").exists()
    assert cli.main(["invert", "-c", config, "-o", str(out)]) == 1
    assert not (out / "inversion.json").exists()


def test_run_all_rejects_a_steady_panel_too_short_to_fit(tmp_path, capsys):
    # F10's steady panel has 197 seasons: n_seasons passes validate(), but a map
    # reaching lag 188 would leave 9 rows where a dim-8 fit needs 10
    payload = {**GOLDEN_CONFIG, "embedding": {**GOLDEN_CONFIG["embedding"], "lag_max": 188}}
    config = _write_config(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 1
    message = capsys.readouterr().err
    assert "attractor F10 has 197 steady seasons" in message
    assert "lag_max 188" in message and "dim 8" in message
    assert not (out / "models.json").exists()


def test_stage_fit_makes_one_solve_per_chunk_and_subset_size(golden_run, monkeypatch):
    config, out = golden_run
    cfg = load_config(config)
    library, maps = pl.load_library(out), pl.load_maps(out)
    by_lag = Counter(m.max_lag for m in maps)
    chunks = sum(-(-count // ensemble.FIT_CHUNK) for count in by_lag.values())
    assert len(by_lag) > 1
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for est in library:
        calls.clear()
        pl.stage_fit(cfg, [est], maps)
        # one per (chunk, subset size) and one for the full model; one per map and
        # size plus the full model (9 x maps) before the maps were batched
        assert 0 < len(calls) <= chunks * (cfg.embedding.dim + 1) < 9 * len(maps)


def test_run_all_with_inversion_ends_with_a_no_estimate_result(golden_run, tmp_path):
    # no key of the golden run is FDR-significant on the predict window: the
    # usual outcome, pinned here as a result rather than made to go away
    _, golden_out = golden_run
    config = _write_config(tmp_path / "config.json",
                           {**GOLDEN_CONFIG, "inversion": {"enabled": True}})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    inversion = json.loads((out / "inversion.json").read_text())
    assert inversion["attractor_ids"] == ["F6", "F8", "F10"]
    assert inversion["raw_counts"] == [0, 0, 0]
    assert inversion["smoothed_counts"] == [0.0, 0.0, 0.0]
    assert inversion["chosen"] == []
    assert inversion["estimate"] is None and inversion["observable_estimate"] is None
    assert (out / "plots/fig3_inversion.csv").read_text().splitlines()[1:] == [
        "true_parameter,estimated_parameter,observable_estimate", "6.0,,"]
    tree = _tree(out)
    assert set(tree) == GOLDEN_ARTIFACTS | {"inversion.json", "plots/fig3_inversion.csv"}
    # the stages before invert give the golden values; only the config hash differs
    golden_models = json.loads((golden_out / "models.json").read_text())
    assert json.loads(tree["models.json"])["groups"] == golden_models["groups"]
    assert cli.main(["invert", "-c", config, "-o", str(out)]) == 0
    assert _tree(out) == tree


def test_run_all_inverts_on_a_two_forcing_grid(tmp_path):
    # fewer than 3 attractors: smoothing is the identity, not an error
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "surrogate": {**GOLDEN_CONFIG["surrogate"], "forcings": [6.0, 8.0]},
        "inversion": {"enabled": True, "q": 0.9}})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    written = (out / "inversion.json").read_bytes()
    inversion = json.loads(written)
    assert inversion["attractor_ids"] == ["F6", "F8"]
    assert inversion["smoothed_counts"] == inversion["raw_counts"]
    assert inversion["estimate"] is not None
    assert cli.main(["invert", "-c", config, "-o", str(out)]) == 0
    assert (out / "inversion.json").read_bytes() == written


def test_fresh_ground_rides_in_the_library_batch(tmp_path, monkeypatch):
    cfg = PipelineConfig.from_dict({**GOLDEN_CONFIG,
                                    "ground": {"mode": "fresh", "forcing": 7.0}})
    config = _write_config(tmp_path / "config.json", cfg.to_dict())
    calls = []  # the row count of each integrate_grid call
    integrate = dynamics.integrate_grid

    def counted(x0, *args, **kwargs):
        calls.append(len(x0))
        return integrate(x0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_grid", counted)
    result = pl.run_pipeline(cfg)
    assert calls == [4]  # the 3 forcings and the ground row
    assert [a.label for a in result.library] == ["F6", "F8", "F10"]
    calls.clear()
    assert cli.main(["generate-library", "-c", config, "-o", str(tmp_path / "out")]) == 0
    assert calls == [4]
    # a plain list has no batched row: the ground run is integrated alone, the same
    calls.clear()
    alone, _ = make_ground_panel(cfg, list(result.library))
    assert calls == [1]
    batched, _ = make_ground_panel(cfg, result.library)
    assert alone.values.keys() == batched.values.keys()
    assert all(np.array_equal(alone.values[k], batched.values[k]) for k in alone.values)


def test_run_all_names_a_diverged_fresh_ground_run(tmp_path, capsys):
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "ground": {"mode": "fresh", "forcing": 30}})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "chaoscast: fresh ground run at F30: integration diverged at step 9\n")
    assert not (out / "attractors").exists()


def test_invert_predicts_each_member_once_and_counts_as_per_key(golden_run, monkeypatch):
    config, out = golden_run
    cfg = load_config(config)
    ground, _, _ = pl.load_ground(out)
    keys_by_attractor = {}
    for key in load_keys(out / "keys.json"):
        keys_by_attractor.setdefault(key.attractor_id, []).append(key)
    target = cfg.schedule.windows().predict
    n_means = target[1] - target[0]

    def per_key_counts(q):
        """The counts with each key predicting its own members."""
        counts = {}
        for label, keys in sorted(keys_by_attractor.items()):
            pvals = []
            for key in keys:
                pred = key.predict(ground, target)
                obs = observation_matrix(ground, key.stations, target)
                r, degenerate = reference_pooled_correlation(pred, obs)
                n_pairs = int((np.isfinite(pred) & np.isfinite(obs)).sum())
                pvals.append(1.0 if degenerate or n_pairs <= n_means + 2 else
                             correlation_pvalue(r, adjusted_dof(n_pairs, n_means)))
            counts[label] = len(benjamini_hochberg(pvals, q))
        return counts

    expected = {q: per_key_counts(q) for q in (0.01, 0.5, 0.9)}
    calls = _count_predict_groups(monkeypatch, inversion)
    for q, counts in expected.items():
        calls.clear()
        assert key_significance_counts(keys_by_attractor, ground, target, q=q) == counts
        # one batched call per attractor, holding each distinct member once
        assert calls == [Counter({(g.attractor_id, g.map_index)
                                  for k in keys_by_attractor[label] for g in k.members})
                         for label in sorted(keys_by_attractor)]
    assert sum(expected[0.9].values()) > 0  # some counts are not 0


def test_failed_json_artifact_leaves_no_file(tmp_path):
    path = tmp_path / "shrinkage.json"
    with pytest.raises(TypeError):
        write_json(path, {"seed": np.int64(3)})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_older_complete_file(tmp_path):
    path = tmp_path / "skill.csv"
    write_json(path, {"seed": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"seed": object()})
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "ok\n\ud800")  # fails while the file is written
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["skill.csv"]

    # the config and key savers write through the same writer
    cfg = PipelineConfig.from_dict(GOLDEN_CONFIG)
    save_config(cfg, tmp_path / "config.json")
    member = ModelGroup("F8", 0, DelayMap(coords=(("wet", "s00", 4),), lead=3), fits={})
    key = PredictorKey(attractor_id="F8", top_percent=100, combiner="mean", lead=3,
                       stations=(), members=(member,), shrink_factor=1.0)
    save_keys([key], tmp_path / "keys.json", {"seed": 7})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    cfg.selection.vote_mode = object()
    with pytest.raises(TypeError):
        save_config(cfg, tmp_path / "config.json")
    with pytest.raises(TypeError):
        save_keys([key], tmp_path / "keys.json", {"seed": object()})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_config_ignores_the_retired_threads_key():
    old = PipelineConfig.from_dict({**GOLDEN_CONFIG, "threads": 4})
    assert "threads" not in old.to_dict()
    assert old.config_hash() == PipelineConfig.from_dict(GOLDEN_CONFIG).config_hash()
