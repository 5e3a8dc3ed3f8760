"""Pipeline configuration: one nested key/value file, all constants overridable.

Defaults carry the published constants (1000 maps of dimension 8, lags
4..11 for lead 3, top percents {10, 30, 100}, retention threshold 0.5
over the top 10, FDR q = 0.01, calibration over 8 seasons). The seed is
mandatory; nothing falls back to wall-clock entropy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

from .artifacts import write_json
from .dynamics import SurrogateConfig, check_grid
from .embedding import WindowSchedule, split_windows
from .ensemble import ALLOWED_TOP_PERCENT, VOTE_MODES
from .errors import ConfigError
from .metrics import adjusted_dof
from .shrinkage import CALIBRATION_DIRECTIONS, MIN_REPS, N_HOLDOUT
from .subset import MAX_COLUMNS

CONFIG_VERSION = 1


@dataclass
class EmbeddingConfig:
    n_maps: int = 1000
    # coordinates per delay map, at most subset.MAX_COLUMNS (12): every
    # subset of a map's columns is enumerated, 2**dim - 1 of them
    dim: int = 8
    lag_min: int = 4
    lag_max: int = 11
    lead: int = 3
    max_subset_size: int | None = None


@dataclass
class ScheduleConfig:
    first_season: int = 0
    lengths: list[int] = field(default_factory=lambda: [28, 8, 8, 5])

    def windows(self) -> WindowSchedule:
        if len(self.lengths) != 4:
            raise ConfigError("schedule.lengths must have 4 entries")
        return split_windows(self.first_season, tuple(self.lengths))


@dataclass
class SelectionConfig:
    x_grid: list[int] = field(default_factory=lambda: [10, 30, 100])
    retention_threshold: float = 0.5
    top_k: int = 10
    vote_k: int = 2
    vote_mode: str = "majority"
    allow_switching: bool = True


@dataclass
class ShrinkageConfig:
    n_points: int = 100
    target_r: float = 1.0 / 3.0
    n_reps: int = 2000
    positive_part: bool = False  # clamp the deviation-shrink factor at zero


@dataclass
class CalibrationConfig:
    window: int = 8  # seasons immediately before the predict window (8 or 12)
    direction: str = "obs_on_pred"


@dataclass
class GroundConfig:
    mode: str = "member"  # member | fresh | file
    member: str | None = None  # attractor label for mode=member
    forcing: float | None = None  # fresh-run forcing for mode=fresh
    snr: float = 2.0  # signal sd over noise sd for synthetic ground
    path: str | None = None  # input file for mode=file


@dataclass
class InversionConfig:
    enabled: bool = False
    q: float = 0.01
    bandwidth: float | None = None
    fraction_of_max: float = 0.9
    target_window: list[int] | None = None  # defaults to the predict window
    n_fitted_means: int | None = None
    trailing_seasons: int = 100


@dataclass
class PipelineConfig:
    seed: int
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    shrinkage: ShrinkageConfig = field(default_factory=ShrinkageConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    ground: GroundConfig = field(default_factory=GroundConfig)
    inversion: InversionConfig = field(default_factory=InversionConfig)
    stations: dict[str, list[str]] = field(default_factory=dict)  # id -> [variable, site]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is mandatory")
        emb = self.embedding
        if emb.lag_min < emb.lead + 1:
            raise ConfigError(f"lag_min {emb.lag_min} leaks inside lead {emb.lead}")
        if emb.lag_max < emb.lag_min:
            raise ConfigError("lag_max must be >= lag_min")
        if emb.n_maps < 1 or emb.dim < 1:
            raise ConfigError("n_maps and dim must be >= 1")
        if emb.dim > MAX_COLUMNS:
            raise ConfigError(f"dim {emb.dim} exceeds the exhaustive subset "
                              f"search cap of {MAX_COLUMNS} columns")
        if emb.lag_max + emb.dim + 2 > self.surrogate.n_seasons:
            # a fit needs dim + 2 rows, and a map reaching lag_max leaves
            # n_seasons - lag_max of them even before the transient is cut
            raise ConfigError(
                f"embedding.lag_max ({emb.lag_max}) + dim ({emb.dim}) + 2 exceeds "
                f"surrogate.n_seasons ({self.surrogate.n_seasons}): a delay map's fit "
                "would have too few rows")
        if emb.max_subset_size is not None and emb.max_subset_size < 1:
            raise ConfigError("embedding.max_subset_size must be >= 1 or null")
        if self.schedule.first_season < 0:
            raise ConfigError("schedule.first_season must be >= 0")
        windows = self.schedule.windows()  # raises on overlap
        windows.calibration(self.calibration.window)
        if self.calibration.window not in (8, 12):
            raise ConfigError("calibration.window must be 8 or 12")
        if self.calibration.direction not in CALIBRATION_DIRECTIONS:
            raise ConfigError(
                f"calibration.direction must be one of {CALIBRATION_DIRECTIONS}")
        sel = self.selection
        if not sel.x_grid:
            raise ConfigError("selection.x_grid must not be empty")
        for x in sel.x_grid:
            if x not in ALLOWED_TOP_PERCENT:
                raise ConfigError(f"x_grid entries must be among {ALLOWED_TOP_PERCENT}")
        if len(set(sel.x_grid)) < len(sel.x_grid):
            raise ConfigError("selection.x_grid entries must be distinct")
        if sel.top_k < 1:
            raise ConfigError("selection.top_k must be >= 1")
        if sel.vote_k < 1:
            raise ConfigError("selection.vote_k must be >= 1")
        if sel.vote_mode not in VOTE_MODES:
            raise ConfigError(f"selection.vote_mode must be one of {VOTE_MODES}")
        if self.shrinkage.n_reps < MIN_REPS:
            raise ConfigError(f"shrinkage.n_reps must be >= {MIN_REPS}")
        if self.shrinkage.n_points <= N_HOLDOUT + 2:
            raise ConfigError(f"shrinkage.n_points must exceed {N_HOLDOUT + 2}")
        if not 0.0 < self.shrinkage.target_r < 1.0:
            raise ConfigError("shrinkage.target_r must lie in (0, 1)")
        try:
            self.surrogate.check()
            check_grid(self.surrogate.parameters())
        except ValueError as exc:
            raise ConfigError(f"surrogate: {exc}") from exc
        if self.ground.mode not in ("member", "fresh", "file"):
            raise ConfigError("ground.mode must be member, fresh, or file")
        if self.ground.mode == "member":
            labels = [self.surrogate.label(f) for f in self.surrogate.forcings]
            member = self.ground.member or labels[0]
            if member not in labels:
                raise ConfigError(f"ground.member {member!r} is not in the library")
        if self.ground.mode == "fresh" and (self.ground.forcing is None
                                            or not math.isfinite(self.ground.forcing)):
            raise ConfigError("ground.mode=fresh requires a finite ground.forcing")
        if self.ground.mode == "file" and not self.ground.path:
            raise ConfigError("ground.mode=file requires ground.path")
        if self.ground.mode != "file" and self.ground.snr <= 0:
            raise ConfigError("ground.snr must be positive")
        if self.surrogate.min_steady_seasons < windows.end:
            raise ConfigError(
                f"surrogate.min_steady_seasons ({self.surrogate.min_steady_seasons}) "
                f"must cover the schedule end ({windows.end})")
        for sid, target in self.stations.items():
            if len(target) != 2:
                raise ConfigError(f"station {sid} target must be [variable, site]")
        n_predict = windows.predict[1] - windows.predict[0]
        if n_predict < 2:
            raise ConfigError("the running skill needs a predict window of >= 2 seasons")
        try:  # the score pools stations x predict seasons against one mean per season
            adjusted_dof(len(self.resolved_stations()) * n_predict, n_predict)
        except ValueError as exc:
            raise ConfigError(f"stations x predict seasons: {exc}; add a station") from exc
        inv = self.inversion  # checked when disabled too: the invert verb ignores enabled
        if not 0.0 < inv.q < 1.0:
            raise ConfigError("inversion.q must lie in (0, 1)")
        if not 0.0 < inv.fraction_of_max <= 1.0:
            raise ConfigError("inversion.fraction_of_max must lie in (0, 1]")
        if (tw := inv.target_window) and not (len(tw) == 2 and 0 <= tw[0] < tw[1]):
            raise ConfigError("inversion.target_window must be [start, end], 0 <= start < end")
        if inv.trailing_seasons < 1:
            raise ConfigError("inversion.trailing_seasons must be >= 1")
        for name in ("bandwidth", "n_fitted_means"):
            if (value := getattr(inv, name)) is not None and not value >= 0:
                raise ConfigError(f"inversion.{name} must be null or >= 0")

    def resolved_stations(self) -> dict[str, tuple[str, str]]:
        """Station map, defaulting to four evenly spaced surrogate sites."""
        if self.stations:
            return {sid: (str(v), str(s)) for sid, (v, s) in sorted(self.stations.items())}
        K = self.surrogate.K
        picks = sorted({(i * K) // 4 for i in range(4)})
        return {f"st{j:02d}": ("wet", f"s{site:02d}") for j, site in enumerate(picks)}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config_version"] = CONFIG_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        d.pop("config_version", None)
        try:
            return cls(
                seed=d["seed"],
                surrogate=SurrogateConfig(**d.get("surrogate", {})),
                embedding=EmbeddingConfig(**d.get("embedding", {})),
                schedule=ScheduleConfig(**d.get("schedule", {})),
                selection=SelectionConfig(**d.get("selection", {})),
                shrinkage=ShrinkageConfig(**d.get("shrinkage", {})),
                calibration=CalibrationConfig(**d.get("calibration", {})),
                ground=GroundConfig(**d.get("ground", {})),
                inversion=InversionConfig(**d.get("inversion", {})),
                stations=d.get("stations", {}),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"bad config structure: {exc}") from exc

    def config_hash(self) -> str:
        """Hash of the scientific payload (paths excluded)."""
        d = self.to_dict()
        d["ground"] = {k: v for k, v in d["ground"].items() if k != "path"}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return PipelineConfig.from_dict(data)


def save_config(cfg: PipelineConfig, path) -> None:
    write_json(path, cfg.to_dict())
