"""The traced run: per-layer spans and kernel timings, taken from outside.

The pipeline's public ``stage_*`` functions are called here in the order
``run_pipeline`` calls them, each inside a span named after the module it
enters. Below the stages, a few kernels are timed on the workload's own
data, and three probes cover paths the untraced operation leaves out:
key serialisation, inversion and the ``run-all`` CLI with artifacts.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from chaoscast import cli
from chaoscast import pipeline as pl
from chaoscast.config import PipelineConfig, save_config
from chaoscast.dynamics import integrate_lorenz96
from chaoscast.embedding import build_design_matrix
from chaoscast.ensemble import combine_members, load_keys, save_keys
from chaoscast.shrinkage import stein_adjust
from chaoscast.subset import select_model

from check import OutputCheck, summarize, summarize_result

RK4_BATCH_STEPS = 1000
KERNEL_REPS = 3
STEIN_REPS = 200
SEARCH_MAPS = 10
NO_ESTIMATE = "no attractor has FDR-significant keys"

STAGES = ("dynamics.library", "ground.ground", "shrinkage.bootstrap",
          "embedding.embed", "subset.fit", "ensemble.select",
          "ensemble.forecast", "metrics.score")


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory spans; a span's parent is the span open when it began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def traced_operation(cfg: PipelineConfig, tr: Tracer) -> dict:
    """``run_pipeline(cfg, out_dir=None)`` stage by stage, each in a span."""
    with tr.span("pipeline.run"):
        with tr.span("dynamics.library"):
            library = pl.stage_library(cfg)
        with tr.span("ground.ground"):
            ground, _, _ = pl.stage_ground(cfg, library)
        with tr.span("shrinkage.bootstrap"):
            shrink = pl.stage_shrinkage(cfg)
        with tr.span("embedding.embed"):
            maps = pl.stage_embed(cfg, library, ground)
        with tr.span("subset.fit"):
            groups = pl.stage_fit(cfg, library, maps)
        with tr.span("ensemble.select"):
            keys_by_attractor, retained = pl.stage_select(cfg, groups, ground, shrink)
        with tr.span("ensemble.forecast"):
            forecast = pl.stage_forecast(cfg, retained, ground)
        with tr.span("metrics.score"):
            skill, _, _ = pl.stage_score(cfg, forecast, ground)
    return {"library": library, "ground": ground, "shrink": shrink,
            "groups": groups, "keys_by_attractor": keys_by_attractor,
            "retained": retained, "forecast": forecast, "skill": skill}


def _timed(tr: Tracer, name: str, fn, reps: int) -> list[float]:
    for _ in range(reps):
        with tr.span(name):
            fn()
    return tr.durations(name)


def time_kernels(cfg: PipelineConfig, run: dict, tr: Tracer) -> dict:
    """Median time of one call of each hot kernel on the workload's data."""
    sur, sel = cfg.surrogate, cfg.selection
    windows = cfg.schedule.windows()
    with tr.span("kernels"):
        rk4 = _timed(tr, "dynamics.integrate_lorenz96", lambda: integrate_lorenz96(
            sur.forcings[0], sur.K, sur.dt, RK4_BATCH_STEPS, seed=cfg.seed), KERNEL_REPS)

        est = run["library"][0]
        targets = list(cfg.resolved_stations().values())
        for group in run["groups"][est.label][:SEARCH_MAPS]:
            seasons = (group.dmap.max_lag, est.panel.n_seasons)
            for target in targets:
                X, y, _ = build_design_matrix(est.panel, group.dmap, target, seasons)
                with tr.span("subset.select_model"):
                    select_model(X, y, max_size=cfg.embedding.max_subset_size)

        key = next(k for k in run["keys_by_attractor"][est.label]
                   if k.top_percent == 100 and k.combiner == "vote")
        predict = _timed(tr, "ensemble.key_predict",
                         lambda: key.predict(run["ground"], windows.select), KERNEL_REPS)
        stack = np.stack([g.predict(run["ground"], key.stations, windows.select)
                          for g in key.members])
        vote = _timed(tr, "ensemble.combine_members", lambda: combine_members(
            stack, "vote", sel.vote_k, sel.vote_mode), KERNEL_REPS)
        block = combine_members(stack, "vote", sel.vote_k, sel.vote_mode)
        stein = _timed(tr, "shrinkage.stein_adjust", lambda: stein_adjust(
            block, key.shrink_factor, positive_part=key.positive_part), STEIN_REPS)
    cells = stack.shape[1] * stack.shape[2]
    return {
        "dynamics.rk4_step_us": statistics.median(rk4) / RK4_BATCH_STEPS * 1e6,
        "subset.search_ms": statistics.median(tr.durations("subset.select_model")) * 1e3,
        "ensemble.key_predict_ms": statistics.median(predict) * 1e3,
        "ensemble.vote_cell_us": statistics.median(vote) / cells * 1e6,
        "shrinkage.stein_adjust_us": statistics.median(stein) * 1e6,
    }


def probe_keys_io(cfg: PipelineConfig, run: dict, tr: Tracer, scratch: Path) -> dict:
    """Round-trip every key through ``save_keys``/``load_keys``."""
    keys = [k for label in sorted(run["keys_by_attractor"])
            for k in run["keys_by_attractor"][label]]
    path = scratch / "keys.json"
    with tr.span("ensemble.save_keys"):
        save_keys(keys, path, header={"config_hash": cfg.config_hash(), "seed": cfg.seed})
    with tr.span("ensemble.load_keys"):
        loaded = load_keys(path)
    if len(loaded) != len(keys):
        raise RuntimeError(f"load_keys returned {len(loaded)} of {len(keys)} keys")
    return {"ensemble.keys_json_bytes": path.stat().st_size,
            "ensemble.keys_write_s": tr.seconds("ensemble.save_keys"),
            "ensemble.keys_read_s": tr.seconds("ensemble.load_keys")}


def probe_invert(cfg: PipelineConfig, run: dict, tr: Tracer) -> dict:
    """Time ``stage_invert`` and record whether it gave an estimate."""
    kba = run["keys_by_attractor"]
    no_estimate = 0
    with tr.span("inversion.invert"):
        try:
            pl.stage_invert(cfg, run["library"], kba, run["ground"])
        except ValueError as exc:
            if NO_ESTIMATE not in str(exc):
                raise
            no_estimate = 1
    # Both outcomes score every key before the estimate is attempted.
    return {"inversion.invert_s": tr.seconds("inversion.invert"),
            "inversion.keys_scored": sum(len(keys) for keys in kba.values()),
            "inversion.no_estimate": no_estimate}


def probe_cli(cfg: PipelineConfig, tr: Tracer, scratch: Path) -> tuple[dict, dict]:
    """``chaoscast run-all`` with artifacts: exit code and bytes per artifact."""
    config_path = scratch / "config.json"
    save_config(cfg, config_path)
    out = scratch / "out"
    with tr.span("cli.run_all"):
        code = cli.main(["run-all", "-c", str(config_path), "-o", str(out)])
    artifacts = {p.relative_to(out).as_posix(): p.stat().st_size
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return ({"cli.run_all_exit": code, "cli.artifact_bytes": sum(artifacts.values())},
            artifacts)


def traced_run(workload: str, cfg: PipelineConfig, check: OutputCheck,
               scratch_root: Path) -> tuple[dict, dict]:
    """One traced operation, one untraced twin, kernels and probes.

    Returns the per-layer metrics and a record of the spans and artifacts.
    """
    tr = Tracer()
    run = traced_operation(cfg, tr)
    check.record(summarize(run["library"], run["keys_by_attractor"], run["retained"],
                           run["forecast"], run["skill"]))
    t0 = time.perf_counter()
    twin = pl.run_pipeline(cfg)
    untraced_s = time.perf_counter() - t0
    check.record(summarize_result(twin))

    groups = run["groups"]
    fits = [m for gs in groups.values() for g in gs for m in g.fits.values()]
    keys = [k for ks in run["keys_by_attractor"].values() for k in ks]
    rescored = sum(min(cfg.selection.top_k, len(ks))
                   for ks in run["keys_by_attractor"].values())
    sur = cfg.surrogate
    rk4_steps = len(sur.forcings) * sur.n_seasons * sur.steps_per_season
    metrics = {
        "dynamics.library_s": tr.seconds("dynamics.library"),
        "dynamics.rk4_steps": rk4_steps,
        "dynamics.rk4_steps_per_s": rk4_steps / tr.seconds("dynamics.library"),
        "dynamics.steady_seasons_min": min(a.panel.n_seasons for a in run["library"]),
        "ground.ground_s": tr.seconds("ground.ground"),
        "shrinkage.bootstrap_s": tr.seconds("shrinkage.bootstrap"),
        "embedding.embed_s": tr.seconds("embedding.embed"),
        "subset.fit_s": tr.seconds("subset.fit"),
        "subset.searches": len(fits),
        "subset.searches_per_s": len(fits) / tr.seconds("subset.fit"),
        "subset.mean_model_size": float(np.mean([m.size for m in fits])),
        "ensemble.select_s": tr.seconds("ensemble.select"),
        "ensemble.keys": len(keys),
        "ensemble.keys_retained": len(run["retained"]),
        "ensemble.retain_ratio": len(run["retained"]) / rescored,
        "ensemble.forecast_s": tr.seconds("ensemble.forecast"),
        "metrics.score_s": tr.seconds("metrics.score"),
        "pipeline.untraced_gap_s": untraced_s - sum(tr.seconds(s) for s in STAGES),
    }
    metrics.update(time_kernels(cfg, run, tr))
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        metrics.update(probe_keys_io(cfg, run, tr, scratch))
        metrics.update(probe_invert(cfg, run, tr))
        cli_metrics, artifacts = probe_cli(cfg, tr, scratch)
        metrics.update(cli_metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"untraced_run_s": untraced_s,
              "stage_share": {s: tr.seconds(s) / tr.seconds("pipeline.run")
                              for s in STAGES},
              "spans": [asdict(s) for s in sorted(tr.spans, key=lambda s: s.start)],
              "artifacts": artifacts}
    return metrics, record
