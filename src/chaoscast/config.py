"""Pipeline configuration: one nested key/value file, all constants overridable.

Defaults carry the published constants (1000 maps of dimension 8, lags
4..11 for the third-season-ahead forecast, top percents {10, 30, 100},
retention threshold 0.5 over the top 10, FDR q = 0.01, calibration over
8 seasons). The seed is mandatory; nothing falls back to wall-clock
entropy.

A bound on one setting is declared on its field (``_bounded``) and checked,
after the field's type, by the one walk over every field (``_check_fields``);
a rule that ties settings together lives in ``PipelineConfig.validate``.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .artifacts import write_json
from .dynamics import SurrogateConfig, check_grid
from .embedding import WindowSchedule, split_windows
from .ensemble import ALLOWED_TOP_PERCENT, VOTE_MODES
from .errors import ConfigError
from .ground import MIN_REFERENCE_VALUES, SEASONS_PER_YEAR
from .metrics import adjusted_dof
from .shrinkage import CALIBRATION_DIRECTIONS, MIN_REPS, N_HOLDOUT
from .subset import MAX_COLUMNS

CONFIG_VERSION = 1
IGNORED_KEYS = ("config_version",)  # the version tag to_dict writes

# a bound's operator: whether a value meets the bound's limit
BOUND_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
             "one of": lambda value, allowed: value in allowed}


def _bounded(default, *bounds):
    """A config field whose value, or each item of a list value, must meet every
    ``(op, limit)`` of ``bounds``, op a key of ``BOUND_OPS``; None meets them all."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"bounds": bounds})
    return field(default=default, metadata={"bounds": bounds})


@dataclass
class EmbeddingConfig:
    n_maps: int = _bounded(1000, (">=", 1))
    # coordinates per delay map, at most subset.MAX_COLUMNS (12): all
    # 2**dim - 1 subsets of a map's columns are screened, the near-best solved
    dim: int = _bounded(8, (">=", 1), ("<=", MAX_COLUMNS))
    # the horizon: season t's newest predictor is season t - lag_min, so 4
    # is the paper's third-season-ahead forecast; a lag of 0 reads the
    # response season itself
    lag_min: int = _bounded(4, (">=", 1))
    lag_max: int = 11
    max_subset_size: int | None = _bounded(None, (">=", 1))


@dataclass
class ScheduleConfig:
    first_season: int = _bounded(0, (">=", 0))
    lengths: list[int] = _bounded([28, 8, 8, 5], (">=", 1))

    def windows(self) -> WindowSchedule:
        if len(self.lengths) != 4:
            raise ConfigError("schedule.lengths must have 4 entries")
        return split_windows(self.first_season, tuple(self.lengths))


@dataclass
class SelectionConfig:
    x_grid: list[int] = _bounded([10, 30, 100], ("one of", ALLOWED_TOP_PERCENT))
    retention_threshold: float = 0.5
    top_k: int = _bounded(10, (">=", 1))
    vote_k: int = _bounded(2, (">=", 1))
    vote_mode: str = _bounded("majority", ("one of", VOTE_MODES))
    allow_switching: bool = True


@dataclass
class ShrinkageConfig:
    n_points: int = _bounded(100, (">", N_HOLDOUT + 2))
    target_r: float = _bounded(1.0 / 3.0, (">", 0.0), ("<", 1.0))
    n_reps: int = _bounded(2000, (">=", MIN_REPS))
    positive_part: bool = False  # clamp the deviation-shrink factor at zero


@dataclass
class CalibrationConfig:
    window: int = _bounded(8, ("one of", (8, 12)))  # seasons just before the predict window
    direction: str = _bounded("obs_on_pred", ("one of", CALIBRATION_DIRECTIONS))


@dataclass
class GroundConfig:
    mode: str = _bounded("member", ("one of", ("member", "fresh", "file")))
    member: str | None = None  # attractor label for mode=member
    forcing: float | None = None  # fresh-run forcing for mode=fresh
    snr: float = 2.0  # signal sd over noise sd for synthetic ground
    path: str | None = None  # input file for mode=file


@dataclass
class InversionConfig:
    enabled: bool = False
    q: float = _bounded(0.01, (">", 0.0), ("<", 1.0))
    bandwidth: float | None = _bounded(None, (">=", 0))
    fraction_of_max: float = _bounded(0.9, (">", 0.0), ("<=", 1.0))
    target_window: list[int] | None = None  # defaults to the predict window
    n_fitted_means: int | None = _bounded(None, (">=", 0))
    trailing_seasons: int = _bounded(100, (">=", 1))


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
        _check_fields(self)
        emb, sur = self.embedding, self.surrogate
        if emb.lag_max < emb.lag_min:
            raise ConfigError(f"embedding.lag_max ({emb.lag_max}) must be >= "
                              f"embedding.lag_min ({emb.lag_min})")
        if emb.lag_max + emb.dim + 2 > sur.n_seasons:
            # a fit needs dim + 2 rows, and a map reaching lag_max leaves
            # n_seasons - lag_max of them even before the transient is cut
            raise ConfigError(
                f"embedding.lag_max ({emb.lag_max}) + embedding.dim ({emb.dim}) + 2 exceeds "
                f"surrogate.n_seasons ({sur.n_seasons}): a delay map's fit "
                "would have too few rows")
        windows = self.schedule.windows()  # raises on overlap
        windows.calibration(self.calibration.window)
        if windows.predict[0] < MIN_REFERENCE_VALUES * SEASONS_PER_YEAR:
            raise ConfigError(f"schedule.first_season and schedule.lengths start the predict "
                              f"window at season {windows.predict[0]}; the ground is "
                              "standardized on the seasons before it, which need "
                              f"{MIN_REFERENCE_VALUES} of each season of the year")
        x_grid = self.selection.x_grid
        if not x_grid:
            raise ConfigError("selection.x_grid must not be empty")
        if len(set(x_grid)) < len(x_grid):
            raise ConfigError(f"selection.x_grid entries must be distinct, not {x_grid}")
        try:
            sur.check()
            check_grid(sur.parameters())
        except ValueError as exc:
            raise ConfigError(f"surrogate: {exc}") from exc
        ground = self.ground
        if ground.mode == "member":
            labels = [sur.label(f) for f in sur.forcings]
            member = ground.member or labels[0]
            if member not in labels:
                raise ConfigError(f"ground.member {member!r} is not in the library")
        if ground.mode == "fresh" and (ground.forcing is None
                                       or not math.isfinite(ground.forcing)):
            raise ConfigError("ground.mode=fresh requires a finite ground.forcing")
        if ground.mode == "file" and not ground.path:
            raise ConfigError("ground.mode=file requires ground.path")
        if ground.mode != "file" and ground.snr <= 0:
            raise ConfigError(f"ground.snr must be > 0 for ground.mode={ground.mode}, "
                              f"not {ground.snr!r}")
        if sur.min_steady_seasons < windows.end:
            raise ConfigError(
                f"surrogate.min_steady_seasons ({sur.min_steady_seasons}) "
                f"must cover the schedule end ({windows.end})")
        if sur.min_steady_seasons > sur.n_seasons:
            raise ConfigError(
                f"surrogate.min_steady_seasons ({sur.min_steady_seasons}) "
                f"exceeds surrogate.n_seasons ({sur.n_seasons}), which bounds "
                "a run's steady seasons")
        for sid, target in self.stations.items():
            if len(target) != 2:
                raise ConfigError(f"stations.{sid} must be [variable, site], not {target!r}")
        n_predict = windows.predict[1] - windows.predict[0]
        if n_predict < 2:
            raise ConfigError(f"schedule.lengths: the predict window of {n_predict} season "
                              "is too short; the running skill needs >= 2 seasons")
        try:  # the score pools stations x predict seasons against one mean per season
            adjusted_dof(len(self.resolved_stations()) * n_predict, n_predict)
        except ValueError as exc:
            raise ConfigError(f"stations x schedule.lengths predict seasons: {exc}; "
                              "add a station") from exc
        # checked when disabled too: the invert verb ignores enabled
        if (tw := self.inversion.target_window) and not (len(tw) == 2 and 0 <= tw[0] < tw[1]):
            raise ConfigError("inversion.target_window must be [start, end], 0 <= start < end")
        if tw and ground.mode != "file" and tw[1] > windows.end:
            # a file's panel may run past the schedule; a synthetic one ends with it
            raise ConfigError(f"inversion.target_window ends at season {tw[1]}, past the "
                              f"{windows.end}-season {ground.mode} ground panel")

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
        d = {k: v for k, v in d.items() if k not in IGNORED_KEYS}
        # each section field's default factory is its config class
        sections = {f.name: f.default_factory for f in fields(cls)
                    if f.name not in ("seed", "stations")}
        unknown = sorted(set(d) - {f.name for f in fields(cls)}) + [
            f"{name}.{key}" for name, section in sections.items()
            if isinstance(given := d.get(name), dict)
            for key in sorted(set(given) - {f.name for f in fields(section)})]
        if unknown:
            raise ConfigError(f"unknown config key: {', '.join(map(repr, unknown))}")
        try:
            return cls(seed=d["seed"], stations=d.get("stations", {}),
                       **{name: section(**d.get(name, {})) for name, section in sections.items()})
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


# field type: (the Python types it admits, a message's name for one, for a list)
FIELD_TYPES = {"int": (int, "an integer", "integers"),
               "float": ((int, float), "a number", "numbers"),
               "bool": (bool, "true or false", "booleans"),
               "str": (str, "a string", "strings")}


def _check_fields(cfg, prefix: str = "") -> None:
    """Reject a value of the wrong type, then one past a bound, in every field of
    ``cfg`` and of its nested config dataclasses. The typed fields are those annotated
    ``int``, ``float``, ``bool`` or ``str``, or a ``list`` of one, either of them
    possibly ``| None``; an int is a number, but a bool is only true or false. The
    bounds are the field's ``_bounded`` ones, met by each item of a list."""
    for f in fields(cfg):
        name, value = prefix + f.name, getattr(cfg, f.name)
        if is_dataclass(value):
            _check_fields(value, f"{name}.")
            continue
        kind = f.type.removesuffix(" | None")
        item = kind[5:-1] if kind.startswith("list[") else kind
        if item not in FIELD_TYPES or (value is None and kind != f.type):
            continue
        _, one, many = FIELD_TYPES[item]
        if item == kind and not _is_of(value, item):
            raise ConfigError(f"{name} must be {one}, not {value!r}")
        if item != kind and not (isinstance(value, list) and all(_is_of(v, item) for v in value)):
            raise ConfigError(f"{name} must be a list of {many}, not {value!r}")
        items, what = ([value], name) if item == kind else (value, f"{name} entries")
        for op, limit in f.metadata.get("bounds", ()):
            for v in items:
                if not BOUND_OPS[op](v, limit):
                    raise ConfigError(f"{what} must be {op} {limit}, not {v!r}")


def _is_of(v, item: str) -> bool:
    """Whether ``v`` is of the field type ``item``; a bool is of no type but bool."""
    return isinstance(v, FIELD_TYPES[item][0]) and isinstance(v, bool) == (item == "bool")


def load_config(path) -> PipelineConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return PipelineConfig.from_dict(data)


def save_config(cfg: PipelineConfig, path) -> None:
    write_json(path, cfg.to_dict())
