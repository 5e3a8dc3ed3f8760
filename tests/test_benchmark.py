"""The benchmark's traced run, on a miniature of one workload.

``perfbench/traced.py`` reads the pipeline's stage results and the model
group API (``dmap``, ``map_index``, ``predict`` and ``fits``); a change
that breaks ``--trace 1`` fails here.
"""

from pathlib import Path

from chaoscast.config import PipelineConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_is_correct_on_a_miniature_map_ensemble(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from check import OutputCheck
    from traced import traced_run
    from workloads import warmup_config

    cfg = PipelineConfig.from_dict(warmup_config("map-ensemble", 7))
    check = OutputCheck("map-ensemble", cfg.selection.retention_threshold,
                        against_reference=False)
    metrics, record = traced_run("map-ensemble", cfg, check, tmp_path / "scratch")
    # the traced operation and its untraced twin both pass the output checks
    assert (check.attempted, check.failed, check.errors) == (2, 0, [])
    assert metrics["cli.run_all_exit"] == 0
    assert metrics["subset.searches"] == 2 * len(cfg.resolved_stations())
    assert "models.json" in record["artifacts"]
