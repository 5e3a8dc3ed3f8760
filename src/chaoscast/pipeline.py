"""Pipeline orchestration and artifact emission.

Stages run in a fixed order (library -> ground -> embed -> fit -> select
-> forecast -> score [-> invert]), each writing a self-describing
artifact carrying the config hash and master seed. The shrinkage
bootstrap depends only on the config and only select reads it, so it
runs on a worker thread beside ground, embed, fit and, while it still
runs, select's predictions; its log line and ``shrinkage.json`` come
just before select ranks, and a run that fails before then writes no
``shrinkage.json``.
Every random draw derives from the master seed, so rerunning an
identical config reproduces every artifact byte for byte. An empty
retention is a successful run with an explicit no-forecast marker.
Each plot file under ``plots/`` is written by the stage that computes its
values (forecast, score, invert), from the values it holds; no stage reads
back an artifact of the same run. A run into a reused directory removes the
optional artifacts it does not write: the running skill of a no-forecast
run and, with inversion off, the inversion files.
"""

from __future__ import annotations

import functools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_json, write_text
from .config import PipelineConfig, save_config
from .dynamics import AttractorEstimate, TuningParameter, build_attractor_library
from .embedding import DelayMap, sample_delay_maps
from .ensemble import (KEY_FORMAT_VERSION, EnsembleForecast, ModelGroup, PredictorKey,
                       Station, fit_model_groups, form_keys, map_from_dict, map_to_dict,
                       median_combine, observation_matrix, predict_groups, rank_models,
                       retain_predictors, save_keys, table_from_dict, table_to_dict)
from .errors import ConfigError, PanelFormatError
from .ground import (StandardizationFactors, fresh_ground_row, make_ground_panel,
                     standardize_anomalies)
from .inversion import InversionResult, invert_parameter
from .metrics import (SkillReport, adjusted_dof, box_ljung, correlation_pvalue, heidke_skill,
                      pooled_correlations, running_skill, tercile_boundaries)
from .panel import Panel, panel_from_text, panel_to_text
from .seeding import derive_rng
from .shrinkage import (MIN_CALIBRATION_PAIRS, ShrinkageReport, bootstrap_shrinkage, calibrate,
                        draw_buffer_shape)

log = logging.getLogger("chaoscast")


@dataclass
class PipelineResult:
    library: list[AttractorEstimate]
    shrinkage: ShrinkageReport
    groups: dict[str, list[ModelGroup]]
    keys_by_attractor: dict[str, list[PredictorKey]]
    retained: list[PredictorKey]
    forecast: EnsembleForecast
    skill: SkillReport | None
    inversion: InversionResult | None = None


def _header(cfg: PipelineConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed}


def _write_table(cfg: PipelineConfig, paths, columns, rows, comment: str | None = None):
    """Write one text table to each of ``paths``: the header line, an optional
    ``# comment`` line, the ``columns`` line and one line per row, a None cell empty."""
    lines = ["# " + " ".join(f"{k}={v}" for k, v in _header(cfg).items()),
             *([f"# {comment}"] if comment else []), columns,
             *(",".join("" if c is None else str(c) for c in row) for row in rows)]
    text = "\n".join(lines) + "\n"
    for path in paths:
        write_text(path, text)


def _finite(v) -> float | None:
    """A finite number as a float, anything else as None (a JSON null, an empty cell)."""
    return float(v) if v is not None and np.isfinite(v) else None


def _by_key(by_coord: dict, value) -> dict:
    """A (variable, site)-keyed mapping as JSON stores it, by sorted "variable|site" keys."""
    return {"|".join(coord): value(x) for coord, x in sorted(by_coord.items())}


def _by_coord(by_key: dict, value) -> dict:
    return {tuple(k.split("|")): value(x) for k, x in by_key.items()}


def _stations(cfg: PipelineConfig) -> tuple[Station, ...]:
    return tuple(Station(sid, var, site)
                 for sid, (var, site) in cfg.resolved_stations().items())


# --- library -------------------------------------------------------------

def stage_library(cfg: PipelineConfig, out: Path | None = None) -> list[AttractorEstimate]:
    """The attractor library; in fresh ground mode it also carries the fresh
    ground run, integrated in the same batch for :func:`stage_ground`."""
    fresh = fresh_ground_row(cfg) if cfg.ground.mode == "fresh" else None
    library = build_attractor_library(cfg.surrogate.parameters(), cfg.surrogate, cfg.seed,
                                      fresh)
    log.info("library: %d attractors, %d steady seasons each (min)",
             len(library), min(a.panel.n_seasons for a in library))
    if out is not None:
        adir = out / "attractors"
        adir.mkdir(parents=True, exist_ok=True)
        keep = {adir / f"{est.label}{ext}" for est in library for ext in (".csv", ".meta.json")}
        for path in {*adir.glob("*.csv"), *adir.glob("*.meta.json")} - keep:
            path.unlink()  # an attractor of another grid
        for est in library:
            text = panel_to_text(est.panel, header_comments={
                **_header(cfg), "parameter": est.parameter.value,
                "steady_start": est.steady_start})
            write_text(adir / f"{est.label}.csv", text)
            write_json(adir / f"{est.label}.meta.json", {
                **_header(cfg),
                "label": est.label,
                "parameter_value": est.parameter.value,
                "steady_start": est.steady_start,
                "n_seasons": est.panel.n_seasons,
                "attractor_seed": est.seed,
                "scale": _by_key(est.scale, list),
            })
    return library


def load_library(out: Path, cfg: PipelineConfig) -> list[AttractorEstimate]:
    """The attractors of the config's grid that :func:`stage_library` wrote;
    every panel must be complete. Files of another grid in ``out`` are not read."""
    adir = out / "attractors"
    library = []
    for param in cfg.surrogate.parameters():
        meta_path = adir / f"{param.label}.meta.json"
        if not meta_path.exists():
            raise ConfigError(f"no attractor {param.label} under {out}; "
                              "run generate-library")
        meta = read_json(meta_path)
        path = adir / f"{param.label}.csv"
        panel = panel_from_text(path.read_text())
        scale = _by_coord(meta["scale"], lambda m_sd: tuple(map(float, m_sd)))
        for key in sorted(scale):
            if key not in panel.values or not np.isfinite(panel.values[key]).all():
                raise PanelFormatError(f"{path}: series {key} misses a season or holds a "
                                       "non-finite value; an attractor panel must be complete")
        library.append(AttractorEstimate(
            parameter=TuningParameter(float(meta["parameter_value"]), meta["label"]),
            panel=panel, steady_start=int(meta["steady_start"]),
            seed=int(meta["attractor_seed"]), scale=scale))
    library.sort(key=lambda a: a.parameter.value)
    return library


# --- ground --------------------------------------------------------------

def stage_ground(cfg: PipelineConfig, library, out: Path | None = None):
    windows = cfg.schedule.windows()
    raw, meta = make_ground_panel(cfg, library)
    shared = set(raw.values) & set(library[0].panel.values)
    for sid, target in cfg.resolved_stations().items():
        if target not in shared:
            raise ConfigError(f"station {sid} targets series {target}, which the "
                              "ground and attractor panels do not share")
    reference = (0, windows.predict[0])
    ground, factors = standardize_anomalies(raw, reference)
    log.info("ground: %d seasons, %d series, mode=%s", ground.n_seasons,
             len(ground.values), meta.get("mode"))
    if out is not None:
        text = panel_to_text(ground, header_comments={
            **_header(cfg), "reference_window": f"{reference[0]}:{reference[1]}"})
        write_text(out / "ground.csv", text)
        write_json(out / "ground.meta.json", {
            **_header(cfg), "provenance": meta,
            "reference_window": list(reference),
            "means": _by_key(factors.means, np.ndarray.tolist),
            "sds": _by_key(factors.sds, np.ndarray.tolist),
        })
    return ground, factors, meta


def load_ground(out: Path):
    path = out / "ground.csv"
    if not path.exists():
        raise ConfigError(f"no ground panel under {out}; run generate-library")
    panel = panel_from_text(path.read_text())
    meta = read_json(out / "ground.meta.json")
    factors = StandardizationFactors(means=_by_coord(meta["means"], np.array),
                                     sds=_by_coord(meta["sds"], np.array))
    return panel, factors, meta.get("provenance", {})


# --- shrinkage -----------------------------------------------------------

def stage_shrinkage(cfg: PipelineConfig, out: Path | None = None) -> ShrinkageReport:
    report, seconds = _bootstrap(cfg)()
    _record_shrinkage(cfg, report, out, seconds, waited=seconds)
    return report


_DRAWS = threading.local()  # the bootstrap's draw buffer, one per calling thread


def _draw_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """The calling thread's draw buffer, kept for its next runs: a 12 MB buffer
    freed each run left malloc's heap a hole that a longer-lived block could split,
    and the next one then grew the heap by its size, in some processes only."""
    buffer = getattr(_DRAWS, "buffer", None)
    if buffer is None or buffer.shape != shape:
        buffer = _DRAWS.buffer = np.empty(shape)
    return buffer


def _bootstrap(cfg: PipelineConfig):
    """The config's bootstrap as a call with no arguments that returns its report
    and its own seconds. Its draw buffer is the caller's thread's (see
    ``_draw_buffer``): the call must finish before that thread starts another run."""
    n_stations, sh = len(cfg.resolved_stations()), cfg.shrinkage
    run = functools.partial(
        bootstrap_shrinkage, n_stations=n_stations, n_points=sh.n_points,
        target_r=sh.target_r, n_reps=sh.n_reps,
        seed=int(derive_rng(cfg.seed, "shrinkage").integers(2**32)),
        draws=_draw_buffer(draw_buffer_shape(n_stations, sh.n_points, sh.n_reps)))

    def timed():
        start = time.perf_counter()
        return run(), time.perf_counter() - start
    return timed


def _record_shrinkage(cfg: PipelineConfig, report: ShrinkageReport, out: Path | None,
                      seconds: float, waited: float) -> None:
    """Log the report, with the bootstrap's own seconds and the seconds the main
    thread spent waiting for it, and write ``shrinkage.json``."""
    log.info("shrinkage: factor=%.4f over %d replicates (bootstrap %.3f s, "
             "main thread waited %.3f s)", report.shrinkage_factor, report.n_replicates,
             seconds, waited)
    if out is not None:
        payload = asdict(report)
        payload["bootstrap_seed"] = payload.pop("seed")
        write_json(out / "shrinkage.json", {**payload, **_header(cfg)})


# --- embed ---------------------------------------------------------------

def stage_embed(cfg: PipelineConfig, library, ground: Panel,
                out: Path | None = None) -> list[DelayMap]:
    catalog = sorted(set(library[0].panel.values) & set(ground.values))
    emb = cfg.embedding
    n_lags = emb.lag_max - emb.lag_min + 1
    if len(catalog) * n_lags < emb.dim:
        raise ConfigError(
            f"{len(catalog)} coordinates shared by the attractor and ground panels at "
            f"lags {emb.lag_min}..{emb.lag_max} give {len(catalog) * n_lags} delay "
            f"coordinates, fewer than embedding.dim {emb.dim}")
    maps = sample_delay_maps(catalog, emb.n_maps, emb.dim, emb.lag_min, emb.lag_max,
                             seed=int(derive_rng(cfg.seed, "maps").integers(2**32)))
    log.info("embed: %d delay maps of dimension %d over %d coordinates",
             len(maps), emb.dim, len(catalog))
    if out is not None:
        write_json(out / "maps.json", {
            **_header(cfg),
            "catalog": [list(c) for c in catalog],
            "maps": [map_to_dict(m) for m in maps]})
    return maps


def load_maps(out: Path) -> list[DelayMap]:
    payload = read_json(out / "maps.json")
    return [map_from_dict(d) for d in payload["maps"]]


# --- fit -----------------------------------------------------------------

def stage_fit(cfg: PipelineConfig, library, maps, out: Path | None = None):
    stations = _stations(cfg)
    emb = cfg.embedding
    for est in library:
        if est.panel.n_seasons < emb.lag_max + emb.dim + 2:
            raise ConfigError(
                f"attractor {est.label} has {est.panel.n_seasons} steady seasons; a fit "
                f"at embedding.lag_max {emb.lag_max} and dim {emb.dim} needs at least "
                f"{emb.lag_max + emb.dim + 2}")
    groups = {est.label: fit_model_groups(est.label, maps, est.panel, stations,
                                          max_size=emb.max_subset_size)
              for est in library}
    log.info("fit: %d model groups over %d attractors (%d stations each)",
             sum(map(len, groups.values())), len(groups), len(stations))
    if out is not None:
        write_json(out / "models.json", {
            **_header(cfg), "format_version": KEY_FORMAT_VERSION,
            "stations": [[st.station_id, st.variable, st.site] for st in stations],
            "groups": {label: table_to_dict(fitted) for label, fitted in sorted(groups.items())}})
    return groups


def load_groups(out: Path) -> dict[str, list[ModelGroup]]:
    payload = read_json(path := out / "models.json")
    if (version := payload.get("format_version")) != KEY_FORMAT_VERSION:
        raise PanelFormatError(f"{path}: model file format version {version}; rerun fit")
    return {label: table_from_dict(d, label).groups() for label, d in payload["groups"].items()}


# --- select --------------------------------------------------------------

def _select_span(cfg: PipelineConfig) -> tuple[int, int]:
    """The contiguous rank, select and retain windows that select predicts over."""
    windows = cfg.schedule.windows()
    return (windows.rank[0], windows.retain[1])


def _select_prediction(cfg: PipelineConfig, groups, ground: Panel) -> np.ndarray:
    """One attractor's (groups, stations, seasons) prediction over the select
    span, one per group: the stack ``stage_select`` ranks and scores. It does
    not depend on the shrinkage factor."""
    return predict_groups(groups, ground, _stations(cfg), _select_span(cfg))


def stage_select(cfg: PipelineConfig, groups, ground: Panel,
                 shrinkage: ShrinkageReport, out: Path | None = None,
                 predictions: dict[str, np.ndarray] | None = None):
    """Rank, select and retain keys. ``predictions`` holds the stacks of
    ``_select_prediction`` already formed, by attractor; the others are
    formed here."""
    windows = cfg.schedule.windows()
    stations = _stations(cfg)
    sel = cfg.selection
    factor, positive_part = shrinkage.shrinkage_factor, cfg.shrinkage.positive_part
    predictions = predictions or {}
    n_rank = windows.rank[1] - windows.rank[0]
    n_select = windows.select[1] - windows.select[0]
    obs = observation_matrix(ground, stations, _select_span(cfg))
    keys_by_attractor: dict[str, list[PredictorKey]] = {}
    for label in sorted(groups):
        preds = predictions.get(label)
        if preds is None:
            preds = _select_prediction(cfg, groups[label], ground)
        order = rank_models(groups[label], preds[:, :, :n_rank], obs[:, :n_rank],
                            factor, positive_part=positive_part)
        keys = form_keys(label, groups[label], order, preds[:, :, n_rank:], obs[:, n_rank:],
                         n_select, stations, factor, x_grid=tuple(sel.x_grid),
                         vote_k=sel.vote_k, vote_mode=sel.vote_mode,
                         positive_part=positive_part)
        keys_by_attractor[label] = keys
    all_keys = [k for keys in keys_by_attractor.values() for k in keys]
    retained = retain_predictors(all_keys, threshold=sel.retention_threshold,
                                 top_k=sel.top_k, allow_switching=sel.allow_switching)
    best = ", ".join(f"{label} {max(k.correlations['select'] for k in keys):.3f}/"
                     f"{max(k.correlations['retain'] for k in keys):.3f}"
                     for label, keys in keys_by_attractor.items())
    log.info("select: %d distinct of %d keys retained (threshold %.2f); best select/retain "
             "r by attractor: %s", len(retained), len(all_keys), sel.retention_threshold, best)
    if out is not None:
        save_keys(all_keys, out / "keys.json", _header(cfg))
        save_keys(retained, out / "retained_keys.json",
                  {**_header(cfg), "no_forecast": not retained})
    return keys_by_attractor, retained


# --- forecast ------------------------------------------------------------

def stage_forecast(cfg: PipelineConfig, retained, ground: Panel,
                   out: Path | None = None) -> EnsembleForecast:
    windows = cfg.schedule.windows()
    stations = _stations(cfg)
    station_ids = tuple(st.station_id for st in stations)
    predict = windows.predict
    seasons = tuple(range(predict[0], predict[1]))
    if not retained:
        forecast = EnsembleForecast(
            stations=station_ids, seasons=seasons,
            predictions=np.full((len(stations), len(seasons)), np.nan),
            raw_median=np.full((len(stations), len(seasons)), np.nan),
            contributing_keys=(), combiner_by_key={},
            calibration_slope=0.0, calibration_intercept=0.0, no_forecast=True)
        log.info("forecast: no predictor retained; emitting no-forecast marker")
    else:
        calib = windows.calibration(cfg.calibration.window)
        span = (calib[0], predict[1])
        stack = np.stack([k.predict(ground, span) for k in retained])
        median = median_combine(stack)
        n_calib = predict[0] - calib[0]
        obs_calib = observation_matrix(ground, stations, calib)
        n_pairs = int((np.isfinite(median[:, :n_calib]) & np.isfinite(obs_calib)).sum())
        if n_pairs < MIN_CALIBRATION_PAIRS:
            raise ConfigError(
                f"calibration.window: seasons {calib[0]}..{calib[1] - 1} hold {n_pairs} "
                f"predicted seasons with an observation, fewer than {MIN_CALIBRATION_PAIRS}; "
                "a map predicts only from its largest lag (embedding.lag_min/lag_max) on: "
                "raise schedule.first_season or shorten the lags")
        fit = calibrate(median[:, :n_calib].ravel(), obs_calib.ravel(),
                        direction=cfg.calibration.direction)
        calibrated = fit.apply(median[:, n_calib:])
        forecast = EnsembleForecast(
            stations=station_ids, seasons=seasons,
            predictions=calibrated, raw_median=median[:, n_calib:],
            contributing_keys=tuple(k.key_id for k in retained),
            combiner_by_key={k.key_id: k.combiner for k in retained},
            calibration_slope=fit.slope, calibration_intercept=fit.intercept,
            no_forecast=False)
        log.info("forecast: %d stations x %d seasons from %d keys "
                 "(calibration slope %.3f)", len(stations), len(seasons),
                 len(retained), fit.slope)
    if out is not None:
        obs = observation_matrix(ground, stations, predict)
        matrices = {"predictions": forecast.predictions, "raw_median": forecast.raw_median,
                    "observed": obs}
        write_json(out / "forecast.json", {  # every field of the forecast, and the observations
            **_header(cfg), **vars(forecast),
            **{name: [[_finite(v) for v in row] for row in m] for name, m in matrices.items()}})
        _write_table(cfg, [out / "plots/fig2_scatter.csv"], "station,season,observed,predicted",
                     ((sid, season, _finite(o), _finite(p))
                      for sid, o_row, p_row in zip(station_ids, obs, forecast.predictions)
                      for season, o, p in zip(seasons, o_row, p_row)))
    return forecast


# --- score ---------------------------------------------------------------

_RUNNING_SKILL_FILES = ("running_skill.csv", "plots/s4_running_skill.csv")


def stage_score(cfg: PipelineConfig, forecast: EnsembleForecast, ground: Panel,
                out: Path | None = None):
    windows = cfg.schedule.windows()
    stations = _stations(cfg)
    predict = windows.predict
    columns = "region,pearson_r,p_value,dof,heidke,n_pairs,box_ljung_q,box_ljung_p"
    if forecast.no_forecast:
        if out is not None:
            _write_table(cfg, [out / "skill.csv"], columns, (), comment="no_forecast=true")
            for path in _RUNNING_SKILL_FILES:
                (out / path).unlink(missing_ok=True)
        return None, None, None

    obs = observation_matrix(ground, stations, predict)
    pred = forecast.predictions
    r, _, n_pairs = pooled_correlations(pred, obs)
    r, n_pairs = float(r), int(n_pairs)
    n_seasons = predict[1] - predict[0]
    dof = adjusted_dof(n_pairs, n_seasons)
    p = correlation_pvalue(r, dof)

    reference = observation_matrix(ground, stations, (0, predict[0]))
    boundaries = tercile_boundaries(reference.ravel())
    finite = np.isfinite(pred) & np.isfinite(obs)
    hss = heidke_skill(pred[finite], obs[finite], boundaries)
    # the station with the smallest Ljung-Box p over its finite reference seasons
    bl_p, bl_q = min(box_ljung(series, n_lags=min(10, series.size // 5))[::-1]
                     for series in (row[np.isfinite(row)] for row in reference))

    report = SkillReport(pearson_r=r, dof=dof, p_value=p, heidke=hss, n_pairs=n_pairs,
                         box_ljung_q=bl_q, box_ljung_p=bl_p)
    running = running_skill(pred, obs, boundaries, window=min(4, n_seasons))
    log.info("score: r=%.3f (dof=%d, p=%.3g), Heidke=%.1f over %d pairs",
             r, dof, p, hss, n_pairs)
    if out is not None:
        _write_table(cfg, [out / "skill.csv"], columns,
                     [("all-stations", r, p, dof, hss, n_pairs, bl_q, bl_p)])
        _write_table(cfg, [out / path for path in _RUNNING_SKILL_FILES],
                     "start_season,pearson_r,heidke",
                     ((start + predict[0], rr, hh) for start, rr, hh in running))
    return report, running, boundaries


# --- invert --------------------------------------------------------------

def stage_invert(cfg: PipelineConfig, library, keys_by_attractor, ground: Panel,
                 out: Path | None = None, provenance: dict | None = None) -> InversionResult:
    """The inversion; ``provenance``, the ground's, gives the plot file its true
    forcing, left empty when it has none (a ground file)."""
    windows = cfg.schedule.windows()
    inv = cfg.inversion
    target = tuple(inv.target_window) if inv.target_window else windows.predict
    if target[1] > ground.n_seasons:
        raise ConfigError(f"inversion.target_window ends at season {target[1]}, past the "
                          f"{ground.n_seasons}-season ground panel")
    result = invert_parameter(library, keys_by_attractor, ground, target,
                              q=inv.q, bandwidth=inv.bandwidth,
                              fraction_of_max=inv.fraction_of_max,
                              n_fitted_means=inv.n_fitted_means,
                              trailing_seasons=inv.trailing_seasons)
    if result.estimate is None:
        log.info("invert: no estimate: no attractor of %d has FDR-significant keys "
                 "(q=%.3g)", len(result.attractor_ids), inv.q)
    else:
        log.info("invert: estimate=%.3f from %d/%d attractors (q=%.3g)",
                 result.estimate, len(result.chosen), len(result.attractor_ids), inv.q)
    if out is not None:
        write_json(out / "inversion.json", {**asdict(result), **_header(cfg),
                                            "target_window": list(target)})
        true = (provenance or {}).get("true_forcing")
        _write_table(cfg, [out / "plots/fig3_inversion.csv"],
                     "true_parameter,estimated_parameter,observable_estimate",
                     [map(_finite, (true, result.estimate, result.observable_estimate))])
    return result


# --- orchestration -------------------------------------------------------

def run_pipeline(cfg: PipelineConfig, out_dir=None) -> PipelineResult:
    """Execute every stage in order; see module docstring for contracts."""
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.json")
    library = stage_library(cfg, out)
    # The bootstrap runs on a worker beside ground, embed, fit and, while it
    # still runs, select's predictions, which need no shrinkage factor. Both
    # threads spend most of their time in numpy calls that release the GIL, so
    # the window's length is set by how often they hand it back and forth: each
    # numpy call is one handoff, and the bootstrap makes few, on whole blocks.
    # A prediction formed after the bootstrap is done gains nothing here and
    # would only be held through select (at the default config, 1.4 MB per
    # attractor). The block exit joins the worker on every path, so the
    # thread's draw buffer is free for its next run.
    with ThreadPoolExecutor(max_workers=1) as pool:
        bootstrap = pool.submit(_bootstrap(cfg))
        ground, _, meta = stage_ground(cfg, library, out)
        maps = stage_embed(cfg, library, ground, out)
        groups = stage_fit(cfg, library, maps, out)
        predictions = {}
        for label in sorted(groups):
            if bootstrap.done():
                break
            predictions[label] = _select_prediction(cfg, groups[label], ground)
        start = time.perf_counter()
        shrink, seconds = bootstrap.result()
        waited = time.perf_counter() - start
    _record_shrinkage(cfg, shrink, out, seconds, waited)
    keys_by_attractor, retained = stage_select(cfg, groups, ground, shrink, out,
                                               predictions)
    forecast = stage_forecast(cfg, retained, ground, out)
    skill, _, _ = stage_score(cfg, forecast, ground, out)
    inversion = None
    if cfg.inversion.enabled:
        inversion = stage_invert(cfg, library, keys_by_attractor, ground, out, meta)
    elif out is not None:
        for path in ("inversion.json", "plots/fig3_inversion.csv"):
            (out / path).unlink(missing_ok=True)
    return PipelineResult(library=library, shrinkage=shrink, groups=groups,
                          keys_by_attractor=keys_by_attractor, retained=retained,
                          forecast=forecast, skill=skill, inversion=inversion)
