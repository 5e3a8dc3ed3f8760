"""Pipeline orchestration and artifact emission.

Stages run in a fixed order (library -> ground -> shrinkage -> embed ->
fit -> select -> forecast -> score [-> invert]), each writing a
self-describing artifact carrying the config hash and master seed.
Every random draw derives from the master seed, so rerunning an
identical config reproduces every artifact byte for byte. An empty
retention is a successful run with an explicit no-forecast marker.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_json, write_text
from .config import PipelineConfig, save_config
from .dynamics import AttractorEstimate, TuningParameter, build_attractor_library
from .embedding import DelayMap, sample_delay_maps
from .ensemble import (EnsembleForecast, ModelGroup, PredictorKey, Station,
                       fit_model_groups, form_keys, group_from_dict, group_to_dict,
                       map_from_dict, map_to_dict, median_combine, observation_matrix,
                       predict_groups, rank_models, retain_predictors, save_keys)
from .errors import ConfigError
from .ground import (StandardizationFactors, fresh_ground_row, make_ground_panel,
                     standardize_anomalies)
from .inversion import InversionResult, invert_parameter
from .metrics import (SkillReport, adjusted_dof, box_ljung, correlation_pvalue, heidke_skill,
                      pooled_correlations, running_skill, tercile_boundaries)
from .panel import Panel, panel_from_text, panel_to_text
from .seeding import derive_rng
from .shrinkage import ShrinkageReport, bootstrap_shrinkage, calibrate

log = logging.getLogger("chaoscast")


@dataclass
class PipelineResult:
    config: PipelineConfig
    library: list[AttractorEstimate]
    ground: Panel
    factors: StandardizationFactors
    ground_meta: dict
    shrinkage: ShrinkageReport
    maps: list[DelayMap]
    groups: dict[str, list[ModelGroup]]
    keys_by_attractor: dict[str, list[PredictorKey]]
    retained: list[PredictorKey]
    forecast: EnsembleForecast
    skill: SkillReport | None
    running: list | None
    inversion: InversionResult | None = None
    boundaries: tuple[float, float] | None = None


def _header(cfg: PipelineConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed}


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
        for est in library:
            text = panel_to_text(est.panel, header_comments={
                "config_hash": cfg.config_hash(), "seed": cfg.seed,
                "parameter": est.parameter.value, "steady_start": est.steady_start})
            write_text(adir / f"{est.label}.csv", text)
            write_json(adir / f"{est.label}.meta.json", {
                **_header(cfg),
                "label": est.label,
                "parameter_value": est.parameter.value,
                "steady_start": est.steady_start,
                "n_seasons": est.panel.n_seasons,
                "attractor_seed": est.seed,
                "scale": {f"{v}|{s}": [m, sd] for (v, s), (m, sd) in
                          sorted(est.scale.items())},
            })
    return library


def load_library(out: Path) -> list[AttractorEstimate]:
    adir = out / "attractors"
    if not adir.is_dir():
        raise ConfigError(f"no attractor library under {out}; run generate-library")
    library = []
    for meta_path in sorted(adir.glob("*.meta.json")):
        meta = read_json(meta_path)
        panel, _ = panel_from_text((adir / f"{meta['label']}.csv").read_text())
        scale = {tuple(k.split("|")): (float(m), float(sd))
                 for k, (m, sd) in meta["scale"].items()}
        library.append(AttractorEstimate(
            parameter=TuningParameter(float(meta["parameter_value"]), meta["label"]),
            panel=panel, steady_start=int(meta["steady_start"]),
            seed=int(meta["attractor_seed"]), scale=scale))
    library.sort(key=lambda a: a.parameter.value)
    return library


# --- ground --------------------------------------------------------------

def stage_ground(cfg: PipelineConfig, library, out: Path | None = None,
                 raw_override: Panel | None = None):
    windows = cfg.schedule.windows()
    if raw_override is not None:
        raw, meta = raw_override, {"mode": "override"}
    else:
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
            "config_hash": cfg.config_hash(), "seed": cfg.seed,
            "reference_window": f"{reference[0]}:{reference[1]}"})
        write_text(out / "ground.csv", text)
        write_json(out / "ground.meta.json", {
            **_header(cfg), "provenance": meta,
            "reference_window": list(reference),
            "means": {f"{v}|{s}": list(map(float, arr))
                      for (v, s), arr in sorted(factors.means.items())},
            "sds": {f"{v}|{s}": list(map(float, arr))
                    for (v, s), arr in sorted(factors.sds.items())},
        })
    return ground, factors, meta


def load_ground(out: Path):
    path = out / "ground.csv"
    if not path.exists():
        raise ConfigError(f"no ground panel under {out}; run generate-library")
    panel, _ = panel_from_text(path.read_text())
    meta = read_json(out / "ground.meta.json")
    lo, hi = meta["reference_window"]
    factors = StandardizationFactors(
        reference_window=(int(lo), int(hi)),
        seasons_per_year=panel.seasons_per_year,
        means={tuple(k.split("|")): np.array(v) for k, v in meta["means"].items()},
        sds={tuple(k.split("|")): np.array(v) for k, v in meta["sds"].items()})
    return panel, factors, meta.get("provenance", {})


# --- shrinkage -----------------------------------------------------------

def stage_shrinkage(cfg: PipelineConfig, out: Path | None = None) -> ShrinkageReport:
    n_stations = len(cfg.resolved_stations())
    report = bootstrap_shrinkage(
        n_stations=n_stations, n_points=cfg.shrinkage.n_points,
        target_r=cfg.shrinkage.target_r, n_reps=cfg.shrinkage.n_reps,
        seed=int(derive_rng(cfg.seed, "shrinkage").integers(2**32)))
    log.info("shrinkage: factor=%.4f over %d replicates",
             report.shrinkage_factor, report.n_replicates)
    if out is not None:
        write_json(out / "shrinkage.json", {
            **_header(cfg),
            "shrinkage_factor": report.shrinkage_factor,
            "n_replicates": report.n_replicates,
            "sd_observed": report.sd_observed,
            "sd_predicted": report.sd_predicted,
            "signal_noise_ratio": report.signal_noise_ratio,
            "bootstrap_seed": report.seed,
            "n_stations": report.n_stations,
            "n_points": report.n_points,
            "target_r": report.target_r,
            "mean_sample_corr": report.mean_sample_corr,
            "mean_fit_slope": report.mean_fit_slope,
        })
    return report


# --- embed ---------------------------------------------------------------

def stage_embed(cfg: PipelineConfig, library, ground: Panel,
                out: Path | None = None) -> list[DelayMap]:
    catalog = sorted(set(library[0].panel.values) & set(ground.values))
    if not catalog:
        raise ConfigError("attractor and ground panels share no coordinates")
    emb = cfg.embedding
    maps = sample_delay_maps(catalog, emb.n_maps, emb.dim, emb.lag_min, emb.lag_max,
                             seed=int(derive_rng(cfg.seed, "maps").integers(2**32)),
                             lead=emb.lead)
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
    groups: dict[str, list[ModelGroup]] = {}
    for est in library:
        fitted = fit_model_groups(est.label, maps, est.panel, stations,
                                  max_size=emb.max_subset_size)
        groups[est.label] = fitted
        log.info("fit: attractor %s -> %d model groups (%d stations each)",
                 est.label, len(fitted), len(stations))
    if out is not None:
        write_json(out / "models.json", {
            **_header(cfg),
            "stations": [[st.station_id, st.variable, st.site] for st in stations],
            "groups": {label: [group_to_dict(g) for g in fitted]
                       for label, fitted in sorted(groups.items())}})
    return groups


def load_groups(out: Path) -> dict[str, list[ModelGroup]]:
    payload = read_json(out / "models.json")
    return {label: [group_from_dict(g, label) for g in items]
            for label, items in payload["groups"].items()}


# --- select --------------------------------------------------------------

def stage_select(cfg: PipelineConfig, groups, ground: Panel,
                 shrinkage: ShrinkageReport, out: Path | None = None):
    windows = cfg.schedule.windows()
    stations = _stations(cfg)
    sel = cfg.selection
    factor, positive_part = shrinkage.shrinkage_factor, cfg.shrinkage.positive_part
    # one prediction per group over the contiguous rank, select and retain windows
    span = (windows.rank[0], windows.retain[1])
    n_rank = windows.rank[1] - windows.rank[0]
    n_select = windows.select[1] - windows.select[0]
    obs = observation_matrix(ground, stations, span)
    keys_by_attractor: dict[str, list[PredictorKey]] = {}
    for label in sorted(groups):
        preds = predict_groups(groups[label], ground, stations, span)
        ranked = rank_models(groups[label], preds[:, :, :n_rank], obs[:, :n_rank],
                             factor, positive_part=positive_part)
        keys = form_keys(label, ranked, preds[:, :, n_rank:], obs[:, n_rank:], n_select,
                         stations, factor, x_grid=tuple(sel.x_grid),
                         lead=cfg.embedding.lead, vote_k=sel.vote_k,
                         vote_mode=sel.vote_mode, positive_part=positive_part)
        keys_by_attractor[label] = keys
        log.info("select: attractor %s -> %d keys (best select r=%.3f, "
                 "best retain r=%.3f vs threshold %.2f)", label, len(keys),
                 max(k.correlations["select"] for k in keys),
                 max(k.correlations["retain"] for k in keys), sel.retention_threshold)
    all_keys = [k for keys in keys_by_attractor.values() for k in keys]
    retained = retain_predictors(all_keys, threshold=sel.retention_threshold,
                                 top_k=sel.top_k, allow_switching=sel.allow_switching)
    log.info("select: %d distinct of %d keys retained (threshold %.2f)",
             len(retained), len(all_keys), sel.retention_threshold)
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
        write_json(out / "forecast.json", {
            **_header(cfg),
            "no_forecast": forecast.no_forecast,
            "stations": list(station_ids),
            "seasons": list(seasons),
            "predictions": [[_jf(v) for v in row] for row in forecast.predictions],
            "raw_median": [[_jf(v) for v in row] for row in forecast.raw_median],
            "observed": [[_jf(v) for v in row] for row in obs],
            "contributing_keys": list(forecast.contributing_keys),
            "combiner_by_key": forecast.combiner_by_key,
            "calibration_slope": forecast.calibration_slope,
            "calibration_intercept": forecast.calibration_intercept,
        })
    return forecast


def _jf(v) -> float | None:
    return None if not np.isfinite(v) else float(v)


# --- score ---------------------------------------------------------------

def stage_score(cfg: PipelineConfig, forecast: EnsembleForecast, ground: Panel,
                out: Path | None = None):
    windows = cfg.schedule.windows()
    stations = _stations(cfg)
    predict = windows.predict
    if forecast.no_forecast:
        if out is not None:
            write_text(
                out / "skill.csv",
                f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n"
                "# no_forecast=true\n"
                "region,pearson_r,p_value,dof,heidke,n_pairs,box_ljung_q,box_ljung_p\n")
        return None, None, None

    obs = observation_matrix(ground, stations, predict)
    pred = forecast.predictions
    r, _, n_pairs = pooled_correlations(pred, obs)
    r, n_pairs = float(r), int(n_pairs)
    n_seasons = predict[1] - predict[0]
    dof = adjusted_dof(n_pairs, n_seasons)
    p = correlation_pvalue(r, dof)

    reference = np.concatenate([
        ground.series(*st.target)[0:predict[0]] for st in stations])
    boundaries = tercile_boundaries(reference)
    finite = np.isfinite(pred) & np.isfinite(obs)
    hss = heidke_skill(pred[finite], obs[finite], boundaries)

    bl_results = []
    for st in stations:
        series = ground.series(*st.target)[0:predict[0]]
        series = series[np.isfinite(series)]
        q, pv = box_ljung(series, n_lags=min(10, series.size // 5))
        bl_results.append((pv, q, st.station_id))
    bl_p, bl_q, _ = min(bl_results)

    report = SkillReport(region="all-stations", pearson_r=r, dof=dof, p_value=p,
                         heidke=hss, n_pairs=n_pairs, box_ljung_q=bl_q,
                         box_ljung_p=bl_p)
    running = running_skill(pred, obs, boundaries, window=min(4, n_seasons))
    log.info("score: r=%.3f (dof=%d, p=%.3g), Heidke=%.1f over %d pairs",
             r, dof, p, hss, n_pairs)
    if out is not None:
        lines = [f"# config_hash={cfg.config_hash()} seed={cfg.seed}",
                 "region,pearson_r,p_value,dof,heidke,n_pairs,box_ljung_q,box_ljung_p",
                 f"all-stations,{r!r},{p!r},{dof},{hss!r},{n_pairs},{bl_q!r},{bl_p!r}"]
        write_text(out / "skill.csv", "\n".join(lines) + "\n")
        rlines = [f"# config_hash={cfg.config_hash()} seed={cfg.seed}",
                  "start_season,pearson_r,heidke"]
        for start, rr, hh in running:
            rlines.append(f"{start + predict[0]},{rr!r},{hh!r}")
        write_text(out / "running_skill.csv", "\n".join(rlines) + "\n")
    return report, running, boundaries


# --- invert --------------------------------------------------------------

def stage_invert(cfg: PipelineConfig, library, keys_by_attractor, ground: Panel,
                 out: Path | None = None) -> InversionResult:
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
        write_json(out / "inversion.json", {
            **_header(cfg),
            "attractor_ids": list(result.attractor_ids),
            "parameters": list(result.parameters),
            "raw_counts": list(result.raw_counts),
            "smoothed_counts": list(result.smoothed_counts),
            "chosen": list(result.chosen),
            "estimate": result.estimate,
            "observable_estimate": result.observable_estimate,
            "q": result.q,
            "target_window": list(target),
        })
    return result


# --- plots ---------------------------------------------------------------

def emit_plot_data(cfg: PipelineConfig, out: Path) -> list[Path]:
    """Plot-ready delimited text for the scatter, running-skill, and
    inversion figure analogs. No rendering."""
    out = Path(out)
    plots = out / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written = []
    head = f"# config_hash={cfg.config_hash()} seed={cfg.seed}"

    fpath = out / "forecast.json"
    if fpath.exists():
        payload = read_json(fpath)
        lines = [head, "station,season,observed,predicted"]
        for i, sid in enumerate(payload["stations"]):
            for j, season in enumerate(payload["seasons"]):
                obs = payload["observed"][i][j]
                prd = payload["predictions"][i][j]
                lines.append(f"{sid},{season},{_csv(obs)},{_csv(prd)}")
        path = plots / "fig2_scatter.csv"
        write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    rpath = out / "running_skill.csv"
    if rpath.exists():
        path = plots / "s4_running_skill.csv"
        write_text(path, rpath.read_text())
        written.append(path)

    ipath = out / "inversion.json"
    if ipath.exists():
        payload = read_json(ipath)
        gmeta = read_json(out / "ground.meta.json") if (out / "ground.meta.json").exists() else {}
        true_param = gmeta.get("provenance", {}).get("true_forcing", "")
        lines = [head, "true_parameter,estimated_parameter,observable_estimate"]
        lines.append(f"{_csv(true_param)},{_csv(payload['estimate'])},"
                     f"{_csv(payload['observable_estimate'])}")
        path = plots / "fig3_inversion.csv"
        write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    log.info("plots: wrote %d plot-data files", len(written))
    return written


def _csv(v) -> str:
    if v is None or v == "":
        return ""
    return repr(float(v)) if isinstance(v, (int, float)) else str(v)


# --- orchestration -------------------------------------------------------

def run_pipeline(cfg: PipelineConfig, out_dir=None,
                 raw_ground_override: Panel | None = None) -> PipelineResult:
    """Execute every stage in order; see module docstring for contracts."""
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.json")
    library = stage_library(cfg, out)
    ground, factors, meta = stage_ground(cfg, library, out, raw_ground_override)
    shrink = stage_shrinkage(cfg, out)
    maps = stage_embed(cfg, library, ground, out)
    groups = stage_fit(cfg, library, maps, out)
    keys_by_attractor, retained = stage_select(cfg, groups, ground, shrink, out)
    forecast = stage_forecast(cfg, retained, ground, out)
    skill, running, boundaries = stage_score(cfg, forecast, ground, out)
    inversion = None
    if cfg.inversion.enabled:
        inversion = stage_invert(cfg, library, keys_by_attractor, ground, out)
    if out is not None:
        emit_plot_data(cfg, out)
    return PipelineResult(config=cfg, library=library, ground=ground,
                          factors=factors, ground_meta=meta, shrinkage=shrink,
                          maps=maps, groups=groups,
                          keys_by_attractor=keys_by_attractor, retained=retained,
                          forecast=forecast, skill=skill, running=running,
                          inversion=inversion, boundaries=boundaries)
