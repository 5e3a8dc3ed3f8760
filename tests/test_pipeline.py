import base64
import concurrent.futures
import hashlib
import io
import json
import dataclasses
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chaoscast import cli, dynamics, ensemble, inversion, subset
from chaoscast import pipeline as pl
from chaoscast.artifacts import write_json, write_text
from chaoscast.config import PipelineConfig, load_config, save_config
from chaoscast.embedding import DelayMap
from chaoscast.ensemble import PredictorKey, load_keys, observation_matrix, save_keys
from chaoscast.errors import ConfigError, PanelFormatError
from chaoscast.ground import SEASON_NAMES, SEASONS_PER_YEAR
from chaoscast.inversion import key_significance_counts
from chaoscast.metrics import adjusted_dof, benjamini_hochberg, correlation_pvalue
from test_ensemble import table_groups
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

STAGED_VERBS = ("generate-library", "embed", "fit", "select", "forecast", "score")

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


# the configs whose run-all artifacts golden_digests.json pins, byte for byte
DIGEST_CONFIGS = {
    "golden": GOLDEN_CONFIG,
    "golden-inversion": {**GOLDEN_CONFIG, "inversion": {"enabled": True}},
    "fresh": {**GOLDEN_CONFIG, "ground": {"mode": "fresh", "forcing": 7.0}},
    **RETAINING_CONFIGS,
}
DIGESTS = Path(__file__).with_name("golden_digests.json")

# the configs the run_all fixture runs: a retaining run with inversion writes
# every optional artifact, each plot file among them
RUN_CONFIGS = {**DIGEST_CONFIGS, "threshold-0.1-inversion": {
    **RETAINING_CONFIGS["threshold-0.1"], "inversion": {"enabled": True}}}
OPTIONAL_ARTIFACTS = {"running_skill.csv", "inversion.json", "plots/fig3_inversion.csv"}


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _digests(root):
    return {path: hashlib.sha256(data).hexdigest() for path, data in _tree(root).items()}


def _build():
    """The numpy version and BLAS the digests depend on."""
    try:  # numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def run_all(tmp_path_factory):
    """run-all once per module on a named RUN_CONFIGS entry: name -> (config, out)."""
    runs = {}

    def run(name):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            config = _write_config(root / "config.json", RUN_CONFIGS[name])
            assert cli.main(["run-all", "-c", config, "-o", str(root / "out")]) == 0
            runs[name] = config, root / "out"
        return runs[name]
    return run


@pytest.fixture(scope="module")
def golden_run(run_all):
    """The golden config and the artifact directory of one run-all on it."""
    return run_all("golden")


@pytest.mark.parametrize("name", sorted(DIGEST_CONFIGS))
def test_run_all_writes_the_recorded_golden_bytes(run_all, name):
    recorded = json.loads(DIGESTS.read_text())
    if (build := _build()) != recorded["build"]:
        pytest.skip(f"{DIGESTS.name} holds digests for numpy {recorded['build']['numpy']} "
                    f"with {recorded['build']['blas']}; this is numpy {build['numpy']} "
                    f"with {build['blas']}")
    differ = _differ(_digests(run_all(name)[1]), recorded["runs"][name])
    assert not differ, f"{name}: these artifacts differ from {DIGESTS.name}: {differ}"


def _differ(got, want):
    """The paths whose digests differ, or that only one side holds."""
    return sorted(p for p in got.keys() | want.keys() if got.get(p) != want.get(p))


def record_golden_digests(root: Path) -> None:
    """Rewrite golden_digests.json from one run-all per DIGEST_CONFIGS entry,
    first printing each (config, path) whose digest changed."""
    recorded = json.loads(DIGESTS.read_text())["runs"] if DIGESTS.exists() else {}
    runs = {}
    for name, payload in sorted(DIGEST_CONFIGS.items()):
        config = _write_config(root / f"{name}.json", payload)
        assert cli.main(["run-all", "-c", config, "-o", str(root / name)]) == 0
        runs[name] = _digests(root / name)
        for path in _differ(runs[name], recorded.get(name, {})):
            print(f"changed: {name} {path}")
    DIGESTS.write_text(json.dumps({"build": _build(), "runs": runs}, indent=1,
                                  sort_keys=True) + "\n")


def _raw_series(ground, factors, target):
    """A standardized ground series on its raw scale: the anomalies' inverse."""
    soy = np.arange(ground.n_seasons) % SEASONS_PER_YEAR
    return ground.series(*target) * factors.sds[target][soy] + factors.means[target][soy]


def _write_ground_file(path, run_out):
    """station,year,season,value rows of a run's raw ground, per default station."""
    ground, factors, _ = pl.load_ground(run_out)
    stations = PipelineConfig.from_dict(GOLDEN_CONFIG).resolved_stations()
    lines = ["station,year,season,value"]
    for sid, target in stations.items():
        for t, value in enumerate(_raw_series(ground, factors, target)):
            lines.append(f"{sid},{1950 + t // 4},{SEASON_NAMES[t % 4]},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")


def test_run_all_is_complete_and_byte_reproducible(run_all, tmp_path):
    # member ground (the default), a fresh ground run outside the library, and
    # a ground file holding the member run's raw ground at the default stations;
    # the first member and fresh runs are the module's golden and fresh runs
    ground_file = tmp_path / "ground_file.csv"
    for mode, payload in (("member", GOLDEN_CONFIG), ("fresh", DIGEST_CONFIGS["fresh"]),
                          ("file", {**GOLDEN_CONFIG, "ground": {"mode": "file",
                                                                "path": str(ground_file)}})):
        config = _write_config(tmp_path / f"{mode}.json", payload)
        outs = [tmp_path / mode / name for name in ("a", "b")]
        if mode != "file":
            outs[0] = run_all("golden" if mode == "member" else mode)[1]
        for out in outs[mode != "file":]:
            assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
        trees = [_tree(out) for out in outs]
        if mode == "member":
            _write_ground_file(ground_file, outs[0])
        assert set(trees[0]) == GOLDEN_ARTIFACTS
        assert trees[0] == trees[1]
        assert json.loads(trees[0]["shrinkage.json"])["bootstrap_seed"] >= 0
        assert json.loads(trees[0]["ground.meta.json"])["provenance"]["mode"] == mode


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_a_run_tree_stores_each_content_once(run_all, name):
    paths_by_content = {}
    for path, data in _tree(run_all(name)[1]).items():
        paths_by_content.setdefault(data, []).append(path)
    assert [paths for paths in paths_by_content.values() if len(paths) > 1] == []


def test_a_run_without_a_forecast_never_loads_scipy():
    # metrics imports scipy.special on first use, and the golden run retains no key
    code = ("import json, sys; import chaoscast; "
            "cfg = chaoscast.PipelineConfig.from_dict(json.loads(sys.argv[1])); "
            "assert chaoscast.run_pipeline(cfg).forecast.no_forecast; "
            "print('scipy.special' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(GOLDEN_CONFIG)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_run_pipeline_bootstrap_beside_fit_equals_the_serial_stage():
    cfg = PipelineConfig.from_dict(GOLDEN_CONFIG)
    assert dataclasses.asdict(pl.run_pipeline(cfg).shrinkage) == \
        dataclasses.asdict(pl.stage_shrinkage(cfg))


def test_each_thread_reuses_its_own_draw_buffer():
    shape = (2, 3, 4, 5)
    mine = pl._draw_buffer(shape)
    assert pl._draw_buffer(shape) is mine
    assert pl._draw_buffer((2, 3, 4, 6)).shape == (2, 3, 4, 6)
    other = []
    worker = threading.Thread(target=lambda: other.append(pl._draw_buffer((2, 3, 4, 6))))
    worker.start()
    worker.join()
    assert other[0] is not pl._draw_buffer((2, 3, 4, 6))


def _hold_bootstrap(monkeypatch, release: threading.Event):
    """Make run_pipeline's bootstrap wait, up to 60 s, until ``release`` is set."""
    make = pl._bootstrap

    def held(cfg):
        run = make(cfg)

        def call():
            release.wait(60)
            return run()
        return call

    monkeypatch.setattr(pl, "_bootstrap", held)


def test_a_failed_fit_joins_the_bootstrap_and_writes_no_shrinkage(tmp_path, monkeypatch):
    _assert_a_failure_joins_the_bootstrap(tmp_path, monkeypatch, "stage_fit")


def test_a_failed_prediction_joins_the_bootstrap_and_writes_no_shrinkage(tmp_path,
                                                                         monkeypatch):
    _assert_a_failure_joins_the_bootstrap(tmp_path, monkeypatch, "predict_groups")


def _assert_a_failure_joins_the_bootstrap(tmp_path, monkeypatch, failing):
    """``failing`` raises inside run_pipeline's bootstrap window; the worker is
    joined, the error re-raised, and no shrinkage.json written."""
    error = RuntimeError(f"{failing} failed")
    started = []
    release = threading.Event()

    def fail(*args, **kwargs):
        started.append(threading.active_count())
        release.set()
        raise error

    _hold_bootstrap(monkeypatch, release)  # a prediction fails while it runs
    monkeypatch.setattr(pl, failing, fail)
    before = threading.enumerate()
    with pytest.raises(RuntimeError) as raised:
        pl.run_pipeline(PipelineConfig.from_dict(GOLDEN_CONFIG), tmp_path)
    assert raised.value is error
    assert started == [len(before) + 1]  # the bootstrap's worker ran beside the failure
    assert threading.enumerate() == before
    assert (tmp_path / "maps.json").exists() and not (tmp_path / "shrinkage.json").exists()
    assert (tmp_path / "models.json").exists() == (failing == "predict_groups")


class _SerialExecutor:
    """A ThreadPoolExecutor stand-in whose submit runs the call at once."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        future = concurrent.futures.Future()
        future.set_result(fn())
        return future


@pytest.mark.parametrize("bootstrap", ["running", "done"])
def test_select_predicts_inside_the_window_only_while_the_bootstrap_runs(monkeypatch,
                                                                         bootstrap):
    cfg = PipelineConfig.from_dict(GOLDEN_CONFIG)
    expected = pl.run_pipeline(cfg).keys_by_attractor
    recorded, after_record = [], []
    record, predict = pl._record_shrinkage, ensemble.predict_groups
    release = threading.Event()

    def counted(*args, **kwargs):
        after_record.append(bool(recorded))
        if len(after_record) == len(cfg.surrogate.forcings):
            release.set()
        return predict(*args, **kwargs)

    monkeypatch.setattr(pl, "_record_shrinkage", lambda *a: recorded.append(record(*a)))
    monkeypatch.setattr(pl, "predict_groups", counted)
    if bootstrap == "running":
        _hold_bootstrap(monkeypatch, release)
    else:
        monkeypatch.setattr(pl, "ThreadPoolExecutor", _SerialExecutor)
    keys_by_attractor = pl.run_pipeline(cfg).keys_by_attractor
    # every attractor's stack is formed before the join while the bootstrap
    # runs, and after it, one at a time in select, once it is done
    assert after_record == [bootstrap == "done"] * len(cfg.surrogate.forcings)
    assert [[(k.top_percent, k.combiner, k.correlations) for k in keys_by_attractor[a]]
            for a in sorted(expected)] == \
        [[(k.top_percent, k.combiner, k.correlations) for k in expected[a]]
         for a in sorted(expected)]


def test_the_shrinkage_line_reports_the_bootstraps_seconds_and_the_wait(caplog):
    cfg = PipelineConfig.from_dict(GOLDEN_CONFIG)
    pattern = (r"shrinkage: factor=[0-9.]+ over 2000 replicates "
               r"\(bootstrap ([0-9.]+) s, main thread waited ([0-9.]+) s\)")
    for run in (pl.run_pipeline, pl.stage_shrinkage):
        caplog.clear()
        with caplog.at_level("INFO", logger="chaoscast"):
            run(cfg)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("shrinkage")]
        assert len(lines) == 1
        seconds, waited = map(float, re.fullmatch(pattern, lines[0]).groups())
        assert seconds > 0.0
        # serially the main thread waits for all of it; beside the fit, for at most all
        assert waited == seconds if run is pl.stage_shrinkage else waited <= seconds


@pytest.mark.parametrize("name", ["golden", "threshold-0.1-inversion"])
def test_staged_verbs_write_the_same_bytes_as_run_all(run_all, tmp_path, name):
    # each plot file is written by the verb of its stage: fig2 by forecast,
    # fig3 by invert
    config, run_all_out = run_all(name)
    out = tmp_path / "staged"
    inverts = load_config(config).inversion.enabled
    for verb in STAGED_VERBS + ("invert",) * inverts:
        assert cli.main([verb, "-c", config, "-o", str(out)]) == 0, verb
    expected = _tree(run_all_out)
    del expected["config.json"]  # written by run-all only
    assert (OPTIONAL_ARTIFACTS <= set(expected)) == inverts
    assert _tree(out) == expected


def test_run_all_into_a_reused_directory_leaves_no_earlier_optional_artifact(run_all,
                                                                            tmp_path):
    # the golden run has no forecast and no inversion: run after a run that had
    # both, it removes the running skill and inversion files it does not write
    config, golden_out = run_all("golden")
    out = tmp_path / "out"
    shutil.copytree(run_all("threshold-0.1-inversion")[1], out)
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    assert _tree(out) == _tree(golden_out)


def test_run_all_on_a_smaller_grid_removes_the_earlier_grids_attractors(golden_run, tmp_path):
    # the golden grid is 6, 8 and 10; a 6-and-8 run into its directory leaves
    # the tree of a fresh 6-and-8 run, with no F10 stamped by the golden config
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "surrogate": {**GOLDEN_CONFIG["surrogate"], "forcings": [6.0, 8.0]}})
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    shutil.copytree(golden_run[1], reused)
    for out in (reused, fresh):
        assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    assert _tree(reused) == _tree(fresh)


def test_staged_verbs_read_only_the_attractors_of_the_configs_grid(golden_run, tmp_path,
                                                                   capsys):
    # the golden run's F10 files stay in the reused directory; a grid of F6 and
    # F8 fits and selects on those two alone, as in a fresh directory
    _, golden_out = golden_run
    surrogate = GOLDEN_CONFIG["surrogate"]
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "surrogate": {**surrogate, "forcings": [6.0, 8.0]}})
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    shutil.copytree(golden_out, reused)
    for out in (reused, fresh):
        for verb in ("generate-library", "embed", "fit", "select"):
            assert cli.main([verb, "-c", config, "-o", str(out)]) == 0, verb
    for name in ("models.json", "keys.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    # an attractor of the grid that is not on disk is named, not skipped
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "surrogate": {**surrogate, "forcings": [6.0, 8.0, 12.0]}})
    capsys.readouterr()
    assert cli.main(["fit", "-c", config, "-o", str(reused)]) == 1
    assert "no attractor F12 under" in capsys.readouterr().err


def test_forecast_rejects_a_retained_keys_file_of_another_version(golden_run, tmp_path,
                                                                     capsys):
    config, run_all_out = golden_run
    out = tmp_path / "out"
    shutil.copytree(run_all_out, out)
    assert cli.main(["forecast", "-c", config, "-o", str(out)]) == 0
    path = out / "retained_keys.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 3}))
    capsys.readouterr()
    assert cli.main(["forecast", "-c", config, "-o", str(out)]) == 1
    assert f"{path}: key file format version 3; rerun select" in capsys.readouterr().err


def test_select_rejects_a_models_file_of_another_version(golden_run, tmp_path, capsys):
    config, run_all_out = golden_run
    out = tmp_path / "out"
    shutil.copytree(run_all_out, out)
    path = out / "models.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 3}))
    capsys.readouterr()
    assert cli.main(["select", "-c", config, "-o", str(out)]) == 1
    assert f"{path}: model file format version 3; rerun fit" in capsys.readouterr().err


def test_invert_rejects_a_key_naming_a_member_the_file_lacks(golden_run, tmp_path, capsys):
    config, run_all_out = golden_run
    out = tmp_path / "out"
    shutil.copytree(run_all_out, out)
    path = out / "keys.json"
    payload = json.loads(path.read_text())
    key = payload["keys"][0]
    lost = key["members"][0]
    table = payload["groups"][key["attractor_id"]]
    kept = _recoded(table)["map_index"] != lost
    _recoded(table, lambda arrays: {name: a[kept] for name, a in arrays.items()})
    table["maps"] = [m for m, keep in zip(table["maps"], kept) if keep]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["invert", "-c", config, "-o", str(out)]) == 1
    assert (f"{path}: key {key['key_id']} names member map_index [{lost}], which the "
            "file's groups do not hold") in capsys.readouterr().err


@pytest.mark.parametrize("name", ["golden", "two-members-per-cut"])
def test_key_files_hold_each_member_group_once(tmp_path, name):
    payload = GOLDEN_CONFIG if name == "golden" else RETAINING_CONFIGS[name]
    out = tmp_path / "out"
    result = pl.run_pipeline(PipelineConfig.from_dict(payload), out)
    models = json.loads((out / "models.json").read_text())
    assert models["format_version"] == 5
    all_keys = [k for label in sorted(result.keys_by_attractor)
                for k in result.keys_by_attractor[label]]
    for file, keys in (("keys.json", all_keys), ("retained_keys.json", result.retained)):
        stored = json.loads((out / file).read_text())
        assert stored["format_version"] == 5
        # each (attractor, map_index) group once, in map_index order, as one table
        # holding the rows of models.json's table
        indices = {label: _recoded(table)["map_index"].tolist()
                   for label, table in stored["groups"].items()}
        for label, table in stored["groups"].items():
            fitted = models["groups"][label]
            assert indices[label] == sorted(set(indices[label]))
            rows = [_recoded(fitted)["map_index"].tolist().index(i) for i in indices[label]]
            expected = {**fitted, "maps": [fitted["maps"][j] for j in rows]}
            _recoded(expected, lambda arrays: {name: a[rows] for name, a in arrays.items()})
            assert table == expected
        assert {(label, i) for label, held in indices.items() for i in held} == {
            (k.attractor_id, g.map_index) for k in keys for g in k.members}
        # a key names its members by map_index, in member order
        assert [d["members"] for d in stored["keys"]] == [
            [g.map_index for g in k.members] for k in keys]
        assert all("format_version" not in d for d in stored["keys"])


@pytest.mark.parametrize("name", sorted(RETAINING_CONFIGS))
def test_retained_keys_are_stored_and_forecast_once(run_all, name):
    _, out = run_all(name)
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
    _assert_each_model_group_is_predicted_once(golden_run, monkeypatch, "stage_select")


def test_run_pipeline_predicts_each_model_group_once(golden_run, monkeypatch):
    _assert_each_model_group_is_predicted_once(golden_run, monkeypatch, "run_pipeline")


def _assert_each_model_group_is_predicted_once(golden_run, monkeypatch, caller):
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
    if caller == "stage_select":
        keys_by_attractor, _ = pl.stage_select(cfg, groups, ground, pl.stage_shrinkage(cfg))
    else:  # the golden run retains no key, so select makes every prediction of the run
        run = pl.run_pipeline(cfg)
        assert not run.retained and run.inversion is None
        keys_by_attractor = run.keys_by_attractor
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
    ("embedding", {"lead": 1}),
    ("embedding", {"lag_min": 0}),
    ("schedule", {"lengths": [28, 8, 8, 1]}),
    ("inversion", {"enabled": True, "q": 0}),
    ("inversion", {"enabled": True, "q": 1.5}),
    ("inversion", {"fraction_of_max": 0}),
    ("inversion", {"enabled": True, "target_window": [44, 40]}),
    ("inversion", {"trailing_seasons": 0}),
    ("selection", {"x_grid": [10, 10]}),
    ("inversion", {"enabled": True, "n_fitted_means": -200}),
    ("inversion", {"enabled": True, "bandwidth": -1.0}),
    ("surrogate", {"temp_smooth": 0}),
    ("surrogate", {"temp_smooth": -3}),
    ("surrogate", {"temp_smooth": 4001}),
    ("surrogate", {"temp_smooth": 10**6}),
    ("seed", 7.5),
    ("seed", True),
    ("embedding", {"n_maps": 20.5}),
    ("surrogate", {"n_seasons": 200.5}),
    ("surrogate", {"temp_smooth": 2.5}),
    ("embedding", {"dim": 8.0}),
    ("embedding", {"lag_max": 11.0}),
    ("selection", {"vote_k": 2.0}),
    ("selection", {"vote_k": True}),
    ("selection", {"top_k": 2.5}),
    ("selection", {"x_grid": [10.0, 30, 100]}),
    ("inversion", {"enabled": True, "target_window": [40, 44.5]}),
    ("selction", {"vote_k": 3}),
    ("selection", {"retention_threshold": "0.5"}),
    ("surrogate", {"slope_tol": "0.01"}),
    ("selection", {"allow_switching": "no"}),
    ("shrinkage", {"positive_part": 1}),
    ("inversion", {"enabled": "yes"}),
    ("surrogate", {"slope_tol": 0.0}),
    ("surrogate", {"min_steady_seasons": 300}),
    ("inversion", {"enabled": True, "target_window": [40, 160]}),
    ("schedule", {"lengths": [4, 2, 2, 2]}),
    ("schedule", {"lengths": [28, 8, 8]}),
    ("seed", None),
    ("seed", ...),
    ("embedding", {"lag_min": 6, "lag_max": 5}),
    ("embedding", {"n_maps": 0}),
    ("embedding", 5),
    ("calibration", {"window": 10}),
    ("selection", {"x_grid": [50]}),
    ("ground", {"mode": "satellite"}),
    ("ground", {"member": "F7"}),
    ("ground", {"mode": "file"}),
    ("ground", {"snr": 0}),
    ("surrogate", {"min_steady_seasons": 40}),
    ("stations", {"a": ["wet"], "b": ["wet", "s03"]}),
], ids=["vote_k-0", "top_k-negative", "vote_mode-plurality", "x_grid-empty", "max_subset_size-0",
        "direction-sideways", "n_reps-50", "n_points-6", "target_r-1",
        "first_season-negative", "station-series-unknown", "stations-one", "K-3", "dt-negative",
        "forcings-duplicate", "forcings-empty", "steps_per_season-0", "forcings-overflow",
        "steady_window-1", "n_seasons-below-two-windows", "index-site-outside-ring",
        "fresh-forcing-overflow", "lag_max-250", "lag_max-500", "lag_max-195",
        "lead-retired", "lag_min-0",
        "predict-window-1", "q-0", "q-1.5", "fraction_of_max-0", "target_window-reversed",
        "trailing_seasons-0", "x_grid-repeated", "n_fitted_means-negative",
        "bandwidth-negative", "temp_smooth-0", "temp_smooth-negative",
        "temp_smooth-past-the-run", "temp_smooth-1e6", "seed-float", "seed-bool",
        "n_maps-float", "n_seasons-float", "temp_smooth-float", "dim-float", "lag_max-float",
        "vote_k-float", "vote_k-bool", "top_k-float", "x_grid-float",
        "target_window-float", "unknown-section", "retention_threshold-string",
        "slope_tol-string", "allow_switching-string", "positive_part-int", "enabled-string",
        "slope_tol-0", "min_steady_seasons-past-the-run", "target_window-past-the-ground",
        "reference-window-below-three-years", "lengths-3", "seed-null", "seed-missing",
        "lag_max-below-lag_min", "n_maps-0", "embedding-not-a-section", "calibration-window-10",
        "x_grid-50", "mode-satellite", "member-outside-the-grid", "file-mode-without-path",
        "snr-0", "min_steady_seasons-below-the-schedule", "station-target-without-site"])
def test_run_all_rejects_an_invalid_setting_as_a_config_error(tmp_path, section, settings):
    # settings ... leaves the section out
    if isinstance(settings, dict):
        settings = {**GOLDEN_CONFIG.get(section, {}), **settings}
    payload = {key: value for key, value in {**GOLDEN_CONFIG, section: settings}.items()
               if value is not ...}
    config = _write_config(tmp_path / "config.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 1
    assert not (out / "ground.csv").exists()
    if section != "stations":  # station targets are checked against the ground panel
        assert not out.exists()


def test_invert_rejects_a_target_window_past_the_ground_panel(golden_run, tmp_path, capsys):
    # a file-mode ground can be longer than the schedule, so validate() cannot
    # know the panel's length; this file holds the golden run's 49-season ground
    ground_file = tmp_path / "ground.csv"
    _write_ground_file(ground_file, golden_run[1])
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "ground": {"mode": "file", "path": str(ground_file)},
        "inversion": {"enabled": True, "target_window": [40, 100]}})
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
    library, maps = pl.load_library(out, cfg), pl.load_maps(out)
    by_bucket = Counter((m.max_lag, m.dim) for m in maps)
    assert len(by_bucket) > 1
    calls, searches = [], []
    solve, select = np.linalg.solve, subset._select

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def searched(X, Y, *args):
        searches.append((len(X), Y.shape[1]))
        return select(X, Y, *args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(subset, "_select", searched)
    for fit_chunk in (ensemble.FIT_CHUNK, 3):
        monkeypatch.setattr(ensemble, "FIT_CHUNK", fit_chunk)
        chunks = sum(-(-count // fit_chunk) for count in by_bucket.values())
        assert (chunks > len(by_bucket)) == (fit_chunk == 3)
        for est in library:
            calls.clear()
            searches.clear()
            pl.stage_fit(cfg, [est], maps)
            # one search of every station per (bucket, chunk), with no regrouping
            assert len(searches) == chunks
            assert sum(g for g, _ in searches) == len(maps)
            assert {t for _, t in searches} == {len(cfg.resolved_stations())}
            # one per (chunk, subset size) and one for the full model; one per map
            # and size plus the full model (9 x maps) before the maps were batched
            assert 0 < len(calls) <= chunks * (cfg.embedding.dim + 1) < 9 * len(maps)


@pytest.mark.parametrize("lost", ["one-row", "a-station-series"])
def test_fit_rejects_an_attractor_file_with_a_missing_row(golden_run, tmp_path, capsys, lost):
    # only a hand-edited library has a gap: the staged fit names the file
    config, golden_out = golden_run
    out = tmp_path / "out"
    shutil.copytree(golden_out, out)
    path = out / "attractors" / "F8.csv"
    lines = path.read_text().splitlines(keepends=True)
    if lost == "one-row":
        lines = lines[:40] + lines[41:]
    else:  # st00's target, wet/s00
        lines = [line for line in lines if not line.startswith("wet,s00,")]
    path.write_text("".join(lines))
    capsys.readouterr()
    assert cli.main(["fit", "-c", config, "-o", str(out)]) == 1
    message = capsys.readouterr().err
    assert "F8.csv" in message and "must be complete" in message
    assert (out / "models.json").read_bytes() == (golden_out / "models.json").read_bytes()


# configs that pass validate() and once ended in an unexpected error, or split
# the fit's column screens end to end (the temperature series equal the wet ones)
GUARD_CONFIGS = {
    "fixed-point-forcing": ({**GOLDEN_CONFIG,
                             "surrogate": {**GOLDEN_CONFIG["surrogate"],
                                           "forcings": [0.5, 8.0, 10.0]},
                             "ground": {"mode": "member", "member": "F8"}},
                            1, "parameter F0.5: series ('wet', 's00') is constant on the "
                               "steady run"),
    "space-below-dim": ({**GOLDEN_CONFIG, "surrogate": {**GOLDEN_CONFIG["surrogate"], "K": 4},
                         "embedding": {**GOLDEN_CONFIG["embedding"], "dim": 12,
                                       "lag_min": 4, "lag_max": 4}},
                        1, "embedding.dim 12"),
    "temp-smooth-1": ({**GOLDEN_CONFIG,
                       "surrogate": {**GOLDEN_CONFIG["surrogate"], "temp_smooth": 1}},
                      0, ""),
    "lag-min-1": ({**GOLDEN_CONFIG, "embedding": {**GOLDEN_CONFIG["embedding"], "lag_min": 1}},
                  0, ""),
    # every map's first predicted season, its largest lag, is after the calibration window
    "calibration-before-any-prediction": (
        {**GOLDEN_CONFIG, "surrogate": {"forcings": [6.0, 8.0], "n_seasons": 200},
         "embedding": {"n_maps": 20, "lag_min": 14, "lag_max": 20},
         "schedule": {"lengths": [6, 3, 3, 2]}, "selection": {"retention_threshold": -1.0}},
        1, "calibration.window: seasons 4..11 hold 0 predicted seasons with an observation"),
}


@pytest.mark.parametrize("name", sorted(GUARD_CONFIGS))
def test_run_all_on_a_valid_config_never_ends_in_an_unexpected_error(tmp_path, capsys, name):
    payload, code, named = GUARD_CONFIGS[name]
    config = _write_config(tmp_path / "config.json", payload)
    PipelineConfig.from_dict(payload).validate()
    assert cli.main(["run-all", "-c", config, "-o", str(tmp_path / "out")]) == code
    message = capsys.readouterr().err
    assert "unexpected error" not in message
    assert named in message


def test_run_all_with_inversion_ends_with_a_no_estimate_result(golden_run, run_all):
    # no key of the golden run is FDR-significant on the predict window: the
    # usual outcome, pinned here as a result rather than made to go away
    _, golden_out = golden_run
    config, out = run_all("golden-inversion")
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


@pytest.mark.parametrize("ground", [{"mode": "member"}, {"mode": "fresh", "forcing": 7.0}],
                         ids=["member", "fresh"])
def test_run_all_carries_a_two_region_index_into_both_panels(tmp_path, ground):
    config = _write_config(tmp_path / "config.json", {
        **GOLDEN_CONFIG, "ground": ground,
        "surrogate": {**GOLDEN_CONFIG["surrogate"],
                      "indices": {"nino": [["s00", "s01", "s02"], ["s18", "s19", "s20"]]}}})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
    library, (ground_panel, _, _) = pl.load_library(out, load_config(config)), pl.load_ground(out)
    assert all(("idx", "nino") in a.panel.values for a in library)
    assert ("idx", "nino") in ground_panel.values


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


def _tables(groups):
    """attractor id -> the one table its groups view."""
    tables = {}
    for g in groups:
        assert tables.setdefault(g.attractor_id, g.table) is g.table
    return tables


@pytest.mark.parametrize("name", sorted(DIGEST_CONFIGS))
def test_loaders_rebuild_the_fitted_tables_bit_for_bit(run_all, name):
    config, out = run_all(name)
    cfg = load_config(config)
    fitted = pl.stage_fit(cfg, pl.load_library(out, cfg), pl.load_maps(out))
    stored = {label: _tables(groups)[label] for label, groups in pl.load_groups(out).items()}
    keyed = _tables(g for key in load_keys(out / "keys.json") for g in key.members)
    assert set(stored) == set(keyed) == set(fitted)
    for label, groups in fitted.items():
        want = _tables(groups)[label]
        for got in (stored[label], keyed[label]):
            rows = list(got.map_index)
            assert rows == list(range(len(groups)))  # x_grid holds 100: every group
            assert (got.maps, got.stations) == (want.maps, want.stations)
            for field in dataclasses.fields(subset.ModelTable):
                a, b = getattr(got.models, field.name), getattr(want.models, field.name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), field.name


# a stored table's arrays, in blob order
STORED_ARRAYS = ("map_index", *(f.name for f in dataclasses.fields(subset.ModelTable)))


def _recoded(table, change=lambda arrays: arrays) -> dict:
    """A stored table's arrays by name, decoded; the table then stores ``change``
    of them, written back to back by ``np.save`` and base64-encoded."""
    blob = io.BytesIO(base64.b64decode(table["arrays"], validate=True))
    arrays = change({name: np.load(blob) for name in STORED_ARRAYS})
    blob = io.BytesIO()
    for a in arrays.values():
        np.save(blob, a)
    table["arrays"] = base64.b64encode(blob.getvalue()).decode("ascii")
    return arrays


def _put(name, value, *index, dtype=None):
    """A change storing ``value`` at ``index`` of the array ``name``, cast to
    ``dtype`` first when one is given."""
    def edit(arrays):
        a = arrays[name].astype(dtype or arrays[name].dtype)
        a[index] = value
        return {**arrays, name: a}
    return lambda table: _recoded(table, edit)


def _set(name, value, dtype=None):
    """A change to the stored model of map_index 3 and station st01 (row 3, column 1)."""
    return _put(name, value, 3, 1, dtype=dtype)


def _blob(edit):
    """A change to the bytes the stored table's base64 text decodes to."""
    def change(table):
        table["arrays"] = base64.b64encode(edit(base64.b64decode(table["arrays"]))).decode()
    return change


def _not_a(name, shape, dtype):
    """The loader's message for F8's stored array ``name`` that is not ``shape`` ``dtype``."""
    return re.escape(f"attractor F8: {name} is not a stored {shape} {dtype} array")


@pytest.mark.parametrize("change, error, message", [
    (_set("columns", [-1] * 8), ValueError, "at least one column"),
    (_set("coefficients", [float("nan")] + [0.0] * 7), ValueError,
     "coefficients must be finite"),
    (_set("intercept", float("inf")), ValueError, "coefficients must be finite"),
    (_set("cp", float("nan")), ValueError, "cp must be finite"),
    (_set("rss", -1e-8), ValueError, "rss must be finite and non-negative"),
    (_set("rss", float("inf")), ValueError, "rss must be finite and non-negative"),
    (_set("columns", [0, -1, 2] + [-1] * 5), ValueError,
     "columns must increase, padded with -1 only at the tail"),
    (_set("columns", [8] + [-1] * 7), ValueError, re.escape("columns must lie in [0, 8)")),
    # the same kinds of bad entry as typed arrays: another dtype or shape
    (lambda table: _recoded(table, lambda arrays: {**arrays,
                                                   "columns": arrays["columns"][:, :, :2]}),
     PanelFormatError, _not_a("columns", (20, 4, 8), "int64")),
    (_set("columns", [0, 2.5] + [-1] * 6, dtype=float), PanelFormatError,
     _not_a("columns", (20, 4, 8), "int64")),
    (_put("map_index", 3.5, 3, dtype=float), PanelFormatError,
     _not_a("map_index", (20,), "int64")),
    (_put("n_rows", 170.25, 3, dtype=float), PanelFormatError,
     _not_a("n_rows", (20,), "int64")),
    (_put("dropped", 0.25, 3, 0, dtype=float), PanelFormatError,
     _not_a("dropped", (20, 8), "bool")),
    (_put("dropped", 2, 3, 0, dtype=int), PanelFormatError,
     _not_a("dropped", (20, 8), "bool")),
    (_set("columns", ["0", "2"] + ["-1"] * 6, dtype=str), PanelFormatError,
     _not_a("columns", (20, 4, 8), "int64")),
    (_put("n_rows", "188", 3, dtype=str), PanelFormatError,
     _not_a("n_rows", (20,), "int64")),
    # an object array is stored as a pickle, which the loader never reads
    (_set("cp", None, dtype=object), PanelFormatError, _not_a("cp", (20, 4), "float64")),
    (_blob(lambda data: data[:-8]), PanelFormatError, _not_a("dropped", (20, 8), "bool")),
    (_blob(lambda data: data + b"\0"), PanelFormatError,
     "attractor F8: bytes follow the last array, dropped"),
    (lambda table: table.update(arrays="*" + table["arrays"][1:]), PanelFormatError,
     "attractor F8: arrays is not base64 text"),
], ids=["no-column", "coefficient", "intercept", "cp", "negative-rss", "rss",
        "inner-padding", "column-range", "wrong-shape", "fractional-column",
        "fractional-map-index", "fractional-n-rows", "fractional-dropped", "dropped-two",
        "string-column", "string-n-rows", "null-cp", "truncated", "trailing-bytes",
        "not-base64"])
def test_loaders_reject_what_a_subset_model_rejects(golden_run, tmp_path, change, error,
                                                    message):
    # a table stores a map's stations, row count and dropped columns once, so
    # stations that disagree on them cannot be written
    _, out = golden_run
    for name in ("models.json", "keys.json"):
        payload = json.loads((out / name).read_text())
        table = payload["groups"]["F8"]
        assert _recoded(table)["map_index"][3] == 3 and table["stations"][1] == "st01"
        change(table)
        (tmp_path / name).write_text(json.dumps(payload))
    with pytest.raises(error, match=message):
        pl.load_groups(tmp_path)
    with pytest.raises(error, match=message):
        load_keys(tmp_path / "keys.json")


def test_no_stage_builds_a_subset_model(monkeypatch):
    built = []
    init = subset.SubsetModel.__init__

    def counted(model, *args, **kwargs):
        built.append(model)
        init(model, *args, **kwargs)

    monkeypatch.setattr(subset.SubsetModel, "__init__", counted)
    cfg = PipelineConfig.from_dict({**RETAINING_CONFIGS["threshold-0.1"],
                                    "inversion": {"enabled": True}})
    result = pl.run_pipeline(cfg)
    assert result.retained and result.inversion is not None
    assert built == []
    # the count sees the one-model views: a group's fits build one per station
    assert len(result.groups["F8"][0].fits) == len(built) == len(cfg.resolved_stations())


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
    (member,) = table_groups("F8", [(0, DelayMap(coords=(("wet", "s00", 4),)), {})])
    key = PredictorKey(attractor_id="F8", top_percent=100, combiner="mean",
                       stations=(), members=(member,), shrink_factor=1.0)
    save_keys([key], tmp_path / "keys.json", {"seed": 7})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    cfg.selection.vote_mode = object()
    with pytest.raises(TypeError):
        save_config(cfg, tmp_path / "config.json")
    with pytest.raises(TypeError):
        save_keys([key], tmp_path / "keys.json", {"seed": object()})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("payload, named", [
    ({"seed": 7.5}, "seed must be an integer, not 7.5"),
    ({"seed": 7, "embedding": {"n_maps": 20.5}}, "embedding.n_maps must be an integer"),
    ({"seed": 7, "selection": {"vote_k": True}}, "selection.vote_k must be an integer"),
    ({"seed": 7, "selection": {"x_grid": [10.0, 30]}},
     "selection.x_grid must be a list of integers"),
    ({"seed": 7, "inversion": {"target_window": [40, 44.5]}},
     "inversion.target_window must be a list of integers"),
    ({"seed": 7, "surrogate": {"temp_smooth": 0}}, "surrogate: temp_smooth must lie in 1..8000"),
    ({"seed": 7, "selction": {"vote_k": 3}}, "unknown config key: 'selction'"),
    ({"seed": 7, "selection": {"retention_threshold": "0.5"}},
     "selection.retention_threshold must be a number, not '0.5'"),
    ({"seed": 7, "surrogate": {"forcings": [6, "8"]}}, "surrogate.forcings must be a list of numbers"),
    ({"seed": 7, "shrinkage": {"positive_part": 1}},
     "shrinkage.positive_part must be true or false, not 1"),
    ({"seed": 7, "ground": {"mode": 2}}, "ground.mode must be a string, not 2"),
    ({"seed": 7, "embedding": {"lead": 1}}, "unknown config key: 'embedding.lead'"),
    ({"seed": 7, "selection": {"vote_kk": 3}}, "unknown config key: 'selection.vote_kk'"),
    ({"seed": 7, "embedding": {"lag_min": 0}}, "embedding.lag_min must be >= 1, not 0"),
    ({"seed": 7, "embedding": {"lag_min": 4, "lag_max": 3}},
     "embedding.lag_max (3) must be >= embedding.lag_min (4)"),
    ({"seed": 7, "selection": {"x_grid": []}}, "selection.x_grid must not be empty"),
    ({"seed": 7, "selection": {"x_grid": [10, 10]}},
     "selection.x_grid entries must be distinct, not [10, 10]"),
    ({"seed": 7, "stations": {"a": ["wet"], "b": ["wet", "s03"]}},
     "stations.a must be of length 2, not ['wet']"),
    ({"seed": 7, "schedule": {"lengths": [28, 8, 8, 1]}}, "schedule.lengths: the predict window"),
    ({"seed": 7, "stations": {"a": ["wet", "s00"]}}, "stations x schedule.lengths predict seasons"),
    ({"seed": 7, "schedule": {"first_season": 0, "lengths": [4, 4, 3, 5]}},
     "schedule.first_season and schedule.lengths start the predict window at season 11"),
    ({"seed": 7, "ground": {"snr": 0}}, "ground.snr must be > 0 for ground.mode=member, not 0"),
], ids=["seed", "n_maps", "vote_k-bool", "x_grid", "target_window", "temp_smooth",
        "unknown-key", "retention_threshold", "forcings", "positive_part", "mode",
        "lead-retired", "unknown-section-key", "lag_min-0", "lag_max-below-lag_min",
        "x_grid-empty", "x_grid-repeated", "station-target-without-site", "predict-window-1",
        "stations-one", "reference-window-below-three-years", "snr-0"])
def test_config_error_names_the_setting(payload, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        PipelineConfig.from_dict(payload)


@pytest.mark.parametrize("settings, named", [
    ({"stations": [1, 2]}, "stations must be a map of lists of strings, not [1, 2]"),
    ({"stations": "x"}, "stations must be a map of lists of strings, not 'x'"),
    ({"surrogate": {**GOLDEN_CONFIG["surrogate"], "indices": [1]}},
     "surrogate.indices must be a map of lists of lists of strings, not [1]"),
    ({"stations": {"a": "ws", "b": ["wet", "s03"]}},
     "stations must be a map of lists of strings, not {'a': 'ws', "),
    ({"stations": {"a": ["wet", 3], "b": ["wet", "s03"]}},
     "stations must be a map of lists of strings, not {'a': ['wet', 3], "),
], ids=["stations-list", "stations-string", "indices-list", "target-string", "target-int-site"])
def test_run_all_rejects_a_malformed_map_setting(tmp_path, capsys, settings, named):
    config = _write_config(tmp_path / "config.json", {**GOLDEN_CONFIG, **settings})
    out = tmp_path / "out"
    assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"chaoscast: {named}")
    assert not out.exists()


# (section, setting, a value just past its bound, the bound, the bound's own value
# if the bound admits it); a list setting's bound holds for each of its items
@pytest.mark.parametrize("section, name, past, bound, limit", [
    ("embedding", "n_maps", 0, ">= 1", 1),
    ("embedding", "dim", 0, ">= 1", 1),
    ("embedding", "dim", subset.MAX_COLUMNS + 1, f"<= {subset.MAX_COLUMNS}", subset.MAX_COLUMNS),
    ("embedding", "lag_min", 0, ">= 1", 1),
    ("embedding", "max_subset_size", 0, ">= 1", 1),
    ("schedule", "first_season", -1, ">= 0", 0),
    ("schedule", "lengths", [28, 0, 8, 5], ">= 1", [28, 1, 8, 5]),
    ("calibration", "window", 10, "one of (8, 12)", None),
    ("calibration", "direction", "sideways", "one of ('obs_on_pred', 'pred_on_obs')", None),
    ("selection", "x_grid", [10, 50], "one of (10, 30, 100)", None),
    ("selection", "top_k", 0, ">= 1", 1),
    ("selection", "vote_k", 0, ">= 1", 1),
    ("selection", "vote_mode", "plurality", "one of ('majority', 'two_cluster_average')", None),
    ("shrinkage", "n_reps", 99, ">= 100", 100),
    ("shrinkage", "n_points", 6, "> 6", None),
    ("shrinkage", "target_r", 0.0, "> 0.0", None),
    ("shrinkage", "target_r", 1.0, "< 1.0", None),
    ("ground", "mode", "satellite", "one of ('member', 'fresh', 'file')", None),
    ("inversion", "q", 0.0, "> 0.0", None),
    ("inversion", "q", 1.0, "< 1.0", None),
    ("inversion", "fraction_of_max", 0.0, "> 0.0", None),
    ("inversion", "fraction_of_max", math.nextafter(1.0, 2.0), "<= 1.0", 1.0),
    ("inversion", "trailing_seasons", 0, ">= 1", 1),
    ("inversion", "bandwidth", math.nextafter(0.0, -1.0), ">= 0", 0.0),
    ("inversion", "n_fitted_means", -1, ">= 0", 0),
], ids=["n_maps", "dim-min", "dim-max", "lag_min", "max_subset_size", "first_season", "lengths",
        "window", "direction", "x_grid", "top_k", "vote_k", "vote_mode", "n_reps", "n_points",
        "target_r-min", "target_r-max", "mode", "q-min", "q-max", "fraction_of_max-min",
        "fraction_of_max-max", "trailing_seasons", "bandwidth", "n_fitted_means"])
def test_a_bounded_setting_is_rejected_past_its_bound(section, name, past, bound, limit):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{name}") + ".* must be "
                       + re.escape(f"{bound}, not ")):
        PipelineConfig.from_dict({"seed": 7, section: {name: past}})
    if limit is not None:  # an inclusive bound admits its own value
        cfg = PipelineConfig.from_dict({"seed": 7, section: {name: limit}})
        assert getattr(getattr(cfg, section), name) == limit


def test_config_takes_an_integer_as_a_number():
    cfg = PipelineConfig.from_dict({**GOLDEN_CONFIG, "surrogate": {"forcings": [6, 8, 10]},
                                    "selection": {"retention_threshold": 1}})
    assert cfg.surrogate.forcings == [6, 8, 10]
    assert cfg.selection.retention_threshold == 1


def test_config_rejects_the_retired_threads_key():
    # a setting that does nothing is an unknown key, as embedding.lead is
    with pytest.raises(ConfigError, match="unknown config key: 'threads'"):
        PipelineConfig.from_dict({**GOLDEN_CONFIG, "threads": 4})


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_pipeline.py
    with tempfile.TemporaryDirectory() as tmp:
        record_golden_digests(Path(tmp))
