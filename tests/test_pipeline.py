import json

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


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_all_is_complete_and_byte_reproducible(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["run-all", "-c", str(config), "-o", str(out)]) == 0
        trees.append(_tree(out))
    assert set(trees[0]) == GOLDEN_ARTIFACTS
    assert trees[0] == trees[1]
    assert json.loads(trees[0]["shrinkage.json"])["bootstrap_seed"] >= 0


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
