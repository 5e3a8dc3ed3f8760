import json
import shutil

import numpy as np
import pytest

from chaoscast import cli
from chaoscast import pipeline as pl
from chaoscast.config import PipelineConfig

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


def test_run_all_is_complete_and_byte_reproducible(tmp_path):
    # member ground (the default) and a fresh ground run outside the library
    for mode, extra in (("member", {}),
                        ("fresh", {"ground": {"mode": "fresh", "forcing": 7.0}})):
        config = _write_config(tmp_path / f"{mode}.json", {**GOLDEN_CONFIG, **extra})
        trees = []
        for name in ("a", "b"):
            out = tmp_path / mode / name
            assert cli.main(["run-all", "-c", config, "-o", str(out)]) == 0
            trees.append(_tree(out))
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


@pytest.mark.parametrize("section, field, value", [
    ("selection", "vote_k", 0),
    ("selection", "vote_mode", "plurality"),
    ("selection", "x_grid", []),
    ("embedding", "max_subset_size", 0),
    ("calibration", "direction", "sideways"),
], ids=["vote_k-0", "vote_mode-plurality", "x_grid-empty", "max_subset_size-0",
        "direction-sideways"])
def test_run_all_rejects_an_invalid_setting_as_a_config_error(tmp_path, section, field,
                                                              value):
    payload = {**GOLDEN_CONFIG,
               section: {**GOLDEN_CONFIG.get(section, {}), field: value}}
    config = _write_config(tmp_path / "config.json", payload)
    assert cli.main(["run-all", "-c", config, "-o", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_failed_json_artifact_leaves_no_file(tmp_path):
    path = tmp_path / "shrinkage.json"
    with pytest.raises(TypeError):
        pl._write_json(path, {"seed": np.int64(3)})
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_older_complete_file(tmp_path):
    path = tmp_path / "skill.csv"
    pl._write_json(path, {"seed": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        pl._write_json(path, {"seed": object()})
    with pytest.raises(UnicodeEncodeError):
        pl._write_text(path, "ok\n\ud800")  # fails while the file is written
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["skill.csv"]


def test_config_ignores_the_retired_threads_key():
    old = PipelineConfig.from_dict({**GOLDEN_CONFIG, "threads": 4})
    assert "threads" not in old.to_dict()
    assert old.config_hash() == PipelineConfig.from_dict(GOLDEN_CONFIG).config_hash()
