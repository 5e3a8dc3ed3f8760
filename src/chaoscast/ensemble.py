"""Ensemble selection over fitted delay-map models.

A model group is one delay map fitted per station. An attractor's groups
are one ``GroupTable``: its ``subset.ModelTable`` holds every model as
arrays over (map, station), written straight from the subset search by
``fit_model_groups``, and a ``ModelGroup`` is a (table, row) view of one
map. ``predict_groups`` predicts from those arrays, one product per model
size, on designs read by ``embedding.lagged_designs``; every prediction
goes through it and equals a lone one bit for bit. Each attractor's
groups are predicted once; the rank, select and retain windows are
column slices of that stack. Ranking orders the stack's rows by the pooled
correlation of their shrunken predictions, the first X percent of that
order are combined by mean or by the most populous 1-D cluster (vote)
into keys scored on the select and retain windows, retention keeps at
most one key per cut (a key or its other-combiner sibling) whose retain r
is strictly above a threshold, and the survivors' per-season median is
the forecast. An attractor's groups,
and its keys, are scored in one ``metrics.pooled_correlations`` call per
window.

``models.json`` and key files store each attractor's groups as one table
(``table_to_dict``): its station ids and maps as JSON, and ``map_index``
with the seven ``ModelTable`` arrays of those rows, padded as in memory,
as one base64 string of ``np.save`` bytes, so each array keeps its dtype
and shape. A key file holds each member group once, and its keys name
their members by ``map_index``. Both files carry ``KEY_FORMAT_VERSION``,
and a loader rejects any other.
"""

from __future__ import annotations

import base64
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_json, write_json
from .embedding import DelayMap, lagged_designs
from .errors import PanelFormatError
from .metrics import pooled_correlations
from .panel import Panel
from .shrinkage import stein_adjust
from .subset import ModelTable, SubsetModel, same_rows, select_stacks

KEY_FORMAT_VERSION = 5  # of models.json and key files, which store the same tables as .npy bytes
ALLOWED_TOP_PERCENT = (10, 30, 100)
COMBINERS = ("mean", "vote")
VOTE_MODES = ("majority", "two_cluster_average")
FIT_CHUNK = 128  # delay maps per batched fit; bounds the design and solve buffers
VOTE_CHUNK = 1 << 16  # floats per vote DP pass buffer; bounds its (cells, n+1, n+1) passes


@dataclass(frozen=True)
class Station:
    """A ground target: station id plus the panel coordinate it observes."""

    station_id: str
    variable: str
    site: str

    @property
    def target(self) -> tuple[str, str]:
        return (self.variable, self.site)


@dataclass(eq=False)
class GroupTable:
    """An attractor's model groups as one table: ``models`` row i is the
    delay map ``maps[i]``, numbered ``map_index[i]``, and its target s is
    the station ``stations[s]``."""

    attractor_id: str
    maps: tuple[DelayMap, ...]
    map_index: tuple[int, ...]
    stations: tuple[str, ...]  # station ids
    models: ModelTable

    def groups(self) -> list[ModelGroup]:
        return [ModelGroup(self, row) for row in range(len(self.maps))]


@dataclass(frozen=True)
class ModelGroup:
    """One delay map with a fitted subset model per station: row ``row`` of
    its attractor's table."""

    table: GroupTable
    row: int

    @property
    def attractor_id(self) -> str:
        return self.table.attractor_id

    @property
    def map_index(self) -> int:
        return self.table.map_index[self.row]

    @property
    def dmap(self) -> DelayMap:
        return self.table.maps[self.row]

    @property  # kept for perfbench/traced.py, which reads subset.mean_model_size from it
    def fits(self) -> dict[str, SubsetModel]:
        """Each station's model as a SubsetModel, built on every call."""
        return {sid: self.table.models.model(self.row, s)
                for s, sid in enumerate(self.table.stations)}

    # kept for perfbench/traced.py, which stacks member predictions for its vote timing
    def predict(self, panel: Panel, stations: tuple[Station, ...],
                seasons: tuple[int, int]) -> np.ndarray:
        """(stations, seasons) predictions; NaN where history is missing."""
        return predict_groups([self], panel, stations, seasons)[0]


def fit_model_groups(attractor_id: str, maps, panel: Panel, stations,
                     max_size: int | None = None) -> list[ModelGroup]:
    """Fit the Cp-selected subset model per station for every delay map.

    Map i becomes row i of the attractor's one table and the group with
    ``map_index`` i, fitted on the response seasons from its largest lag
    to the end of the attractor panel, which must be complete: a missing
    or non-finite value raises ValueError. Maps are bucketed by (largest
    lag, dimension), so a bucket shares its response rows, and fitted in
    chunks of at most ``FIT_CHUNK`` maps, each read by one
    ``lagged_designs`` call only when it is fitted. ``select_stacks``
    searches a chunk for every station at once and writes its winners
    straight into the rows of the attractor's one table, with no
    per-model object. Every model equals a lone fit of its map and
    station, bit for bit.
    """
    stations = tuple(stations)
    targets = np.stack([panel.series(*st.target) for st in stations], axis=1)

    def stacks():
        for indices in same_rows(np.array([(dmap.max_lag, dmap.dim) for dmap in maps])):
            start = maps[indices[0]].max_lag
            for lo in range(0, len(indices), FIT_CHUNK):
                chunk = indices[lo:lo + FIT_CHUNK]
                yield (lagged_designs([maps[i] for i in chunk], panel, (start, panel.n_seasons)),
                       targets[start:], chunk)

    shape = (len(maps), len(stations), max((dmap.dim for dmap in maps), default=1))
    return GroupTable(attractor_id, tuple(maps), tuple(range(len(maps))),
                      tuple(st.station_id for st in stations),
                      select_stacks(stacks(), shape, max_size)).groups()


def predict_groups(groups, panel: Panel, stations, seasons: tuple[int, int]) -> np.ndarray:
    """(groups, stations, seasons) predictions; NaN where history is missing.

    The groups must view one table (ValueError otherwise), and are
    predicted from its arrays. Groups of one dimension share a
    ``lagged_designs`` read. Groups with the same usable rows make one
    product per model size, bucketed on the table's size array, over all
    their (group, station) models of that size and over those rows only: a
    C-ordered (models, size, rows) gather seen as (models, rows, size),
    times the (models, size, 1) coefficients. Each slice then has the
    layout of a lone ``X[usable][:, columns]``, so each value equals
    ``SubsetModel.predict`` bit for bit; a C-ordered (models, rows, size)
    operand or extra rows change the BLAS call and the last bits.
    """
    groups, stations = list(groups), tuple(stations)
    out = np.full((len(groups), len(stations), seasons[1] - seasons[0]), np.nan)
    table = _one_table(groups)
    m, rows = table.models, np.array([g.row for g in groups])
    targets = np.array([table.stations.index(st.station_id) for st in stations], dtype=int)
    sizes = m.sizes[:, targets]
    for dim in same_rows(np.array([[table.maps[r].dim] for r in rows])):
        X = lagged_designs([table.maps[r] for r in rows[dim]], panel, seasons)
        usable = np.isfinite(X).all(axis=2)
        for same in same_rows(usable):
            where = np.array(dim)[same]
            r, t = rows[where], np.flatnonzero(usable[same[0]])
            XT = X[np.ix_(same, t)].transpose(0, 2, 1)  # (groups, dim, rows)
            for k in np.unique(sizes[r]):
                g, s = np.nonzero(sizes[r] == k)
                cols = m.columns[r[g], targets[s], :k]
                coef = m.coefficients[r[g], targets[s], :k][:, :, None]
                icpt = m.intercept[r[g], targets[s]][:, None]
                Xs = XT[g[:, None], cols].transpose(0, 2, 1)
                out[where[g, None], s[:, None], t] = icpt + (Xs @ coef)[:, :, 0]
    return out


def observation_matrix(panel: Panel, stations: tuple[Station, ...],
                       seasons: tuple[int, int]) -> np.ndarray:
    return np.vstack([panel.series(*st.target)[seasons[0]:seasons[1]]
                      for st in stations])


def rank_models(groups, preds: np.ndarray, obs: np.ndarray, shrink_factor: float,
                positive_part: bool = False) -> np.ndarray:
    """Rows of the groups, best first, by pooled correlation of shrunken predictions.

    ``preds`` is the (groups, stations, seasons) stack on the rank window,
    shrunk and correlated in one call each, and the result indexes its rows.
    Zero-variance predictions rank with correlation 0 (``pooled_correlations``
    flags them degenerate); ties go to the smaller model, its sizes summed
    over stations from the table's ``sizes``, then to the earlier row.
    """
    r = pooled_correlations(stein_adjust(preds, shrink_factor, positive_part=positive_part),
                            obs)[0]
    size = _one_table(groups).models.sizes[[g.row for g in groups]].sum(axis=1)
    return np.lexsort((np.arange(len(r)), size, -r))


def take_top_percent(order: np.ndarray, top_percent: int) -> np.ndarray:
    """The first ceil(X% of count) rows of a best-first order."""
    if top_percent not in ALLOWED_TOP_PERCENT:
        raise ValueError(f"top_percent must be one of {ALLOWED_TOP_PERCENT}")
    if not len(order):
        raise ValueError("no ranked models to draw from")
    return order[:math.ceil(len(order) * top_percent / 100.0)]


def _cut_bounds(ordered: np.ndarray, k: int) -> np.ndarray:
    """(cells, k + 1) run bounds of each sorted row's minimum within-SS split into
    2 <= k <= n runs: Fisher's (1958) grouping DP over prefix sums. Each middle
    run is one (cells, n+1, n+1) pass, in [end, start] layout, of run cost plus
    best cost so far, minimised over the start; equal costs go to the lowest
    start. Passes share two buffers of ``VOTE_CHUNK`` floats (or one cell)."""
    cells, n = ordered.shape
    p, p2 = np.pad(np.cumsum(np.stack([ordered, ordered**2]), axis=2), [(0, 0), (0, 0), (1, 0)])
    ends = np.arange(n + 1)
    width = np.maximum(ends[:, None] - ends, 1).astype(float)  # [end, start]
    cost = p2 - p * p / width[:, 0]  # cost[:, j]: one run over [0, j)
    cost[:, 0] = np.inf
    starts = np.empty((k - 2, cells, n + 1), dtype=np.intp)
    chunk = max(1, VOTE_CHUNK // (n + 1) ** 2)  # cells per pass, at least one
    seg, total = np.empty((2, min(chunk, cells), n + 1, n + 1))
    # [q_end, 1] @ [1, -q_start] is q_end - q_start rounded once: both products are exact
    one = np.ones_like(p)
    pe, p2e = (np.stack([q, one], axis=2) for q in (p, p2))
    ps, p2s = (np.stack([one, -q], axis=1) for q in (p, p2))
    for lo in range(0, cells if k > 2 else 0, chunk):  # no middle run at k = 2
        c = slice(lo, lo + chunk)
        g, t = seg[:cells - lo], total[:cells - lo]
        np.matmul(pe[c], ps[c], out=t)
        np.multiply(t, t, out=t)
        np.divide(t, width, out=t)
        np.matmul(p2e[c], p2s[c], out=g)
        np.subtract(g, t, out=g)
        np.copyto(g, np.inf, where=ends[:, None] <= ends)  # empty runs
        for d in range(k - 2):
            np.add(g, cost[c, None, :], out=t)
            starts[d, c] = t.argmin(axis=2)
            cost[c] = np.take_along_axis(t, starts[d, c, :, None], axis=2)[:, :, 0]
    s = p[:, -1:] - p
    tail = (p2[:, -1:] - p2) - s * s / width[-1]  # the last run, from each start to n
    tail[:, -1] = np.inf
    bounds = np.full((cells, k + 1), n)
    bounds[:, 0], bounds[:, k - 1] = 0, np.argmin(cost + tail, axis=1)
    for d in reversed(range(k - 2)):
        bounds[:, d + 1] = starts[d, np.arange(cells), bounds[:, d + 2]]
    return bounds


def _run_means(ordered: np.ndarray, rows: np.ndarray, runs) -> np.ndarray:
    """Per item i, the mean of row ``rows[i]`` of ``ordered`` over its runs joined in
    order; ``runs`` is a list of (starts, lengths) arrays over the items. Items of equal
    lengths share one gather of contiguous rows, each summed as a lone cell is."""
    code = np.ravel_multi_index([n for _, n in runs], [ordered.shape[1] + 1] * len(runs))
    order = np.argsort(code, kind="stable")
    out = np.empty(len(rows))
    for at in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
        take = np.hstack([a[at, None] + np.arange(n[at[0]]) for a, n in runs])
        out[at] = ordered[rows[at, None], take].mean(axis=1)
    return out


def combine_members(member_preds: np.ndarray, combiner: str,
                    vote_k: int = 2, vote_mode: str = "majority") -> np.ndarray:
    """Reduce an (members, stations, seasons) stack to (stations, seasons).

    The mean skips NaN members and the vote non-finite ones; a cell
    without members is NaN. The mean is a ``nanmean`` over a member-last
    copy, so a NaN-free cell sums in the order of a lone 1-D cell; with
    NaN members and 8 or more members the last bit may differ from it.
    The vote checks its settings first, then splits all cells of n finite
    members at once into min(k, n) sorted runs (``_cut_bounds``), read on
    one array path per mode, with a lone cell's bits. ``two_cluster_average``
    averages the two largest clusters, ranked by (-size, index). ``majority``
    takes the largest cluster's mean; of tied ones, the nearest the overall
    mean within 1e-9 * (1 + |overall| + largest tied |mean|), then the lower:
    with two equal-size clusters the overall mean sits exactly midway, a tie
    that must fall to the lower mean, not to rounding noise.
    """
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {COMBINERS}")
    cells = np.ascontiguousarray(np.moveaxis(member_preds, 0, -1))
    if combiner == "mean":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN cells
            return np.nanmean(cells, axis=-1)
    if vote_k < 1:
        raise ValueError("k must be >= 1")
    if vote_mode not in VOTE_MODES:
        raise ValueError("unknown vote mode")
    m, s, t = member_preds.shape
    cells = cells.reshape(s * t, m)
    finite = np.isfinite(cells)
    counts = finite.sum(axis=1)
    out = np.full(s * t, np.nan)
    for n in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == n)
        values = cells[rows][finite[rows]].reshape(-1, n)
        if vote_k == 1 or n == 1:
            out[rows] = values.mean(axis=1)
            continue
        ordered = np.sort(values, axis=1)
        bounds = _cut_bounds(ordered, min(vote_k, n))
        sizes = np.diff(bounds, axis=1)
        if vote_mode == "two_cluster_average":
            i, a = np.arange(len(rows)), sizes.argmax(axis=1)
            b = np.where(np.arange(sizes.shape[1]) == a[:, None], -1, sizes).argmax(axis=1)
            out[rows] = _run_means(ordered, i, [(bounds[i, a], sizes[i, a]),
                                                (bounds[i, b], sizes[i, b])])
            continue
        top = sizes == sizes.max(axis=1, keepdims=True)  # every largest cluster
        c, j = np.nonzero(top)
        means = np.zeros(sizes.shape)
        means[c, j] = _run_means(ordered, c, [(bounds[c, j], sizes[c, j])])
        overall = values.mean(axis=1)[:, None]
        dist = np.where(top, np.abs(means - overall), np.inf)
        scale = 1.0 + np.abs(overall) + np.abs(means).max(axis=1, keepdims=True)
        nearest = top & (dist <= dist.min(axis=1, keepdims=True) + 1e-9 * scale)
        out[rows] = np.where(nearest, means, np.inf).min(axis=1)
    return out.reshape(s, t)


@dataclass
class PredictorKey:
    """One ensemble predictor, with everything needed to replay it on a panel:
    its member groups (delay maps with per-station subset fits), the top-percent
    cut, the combiner and the shrinkage factor. A key file stores each
    member group once, and the key names its members by ``map_index`` in order.
    """

    attractor_id: str
    top_percent: int
    combiner: str
    stations: tuple[Station, ...]
    members: tuple[ModelGroup, ...]
    shrink_factor: float
    correlations: dict[str, float] = field(default_factory=dict)
    vote_k: int = 2
    vote_mode: str = "majority"
    positive_part: bool = False

    def __post_init__(self):
        if self.top_percent not in ALLOWED_TOP_PERCENT:
            raise ValueError(f"top_percent must be one of {ALLOWED_TOP_PERCENT}")
        if self.combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        if not self.members:
            raise ValueError("a key needs at least one member model")
        for r in self.correlations.values():
            if not -1.0 - 1e-12 <= r <= 1.0 + 1e-12:
                raise ValueError("stored correlations must lie in [-1, 1]")

    @property
    def key_id(self) -> str:
        return f"{self.attractor_id}/X{self.top_percent:03d}/{self.combiner}"

    def combine(self, member_preds: np.ndarray) -> np.ndarray:
        """Shrunken (stations, seasons) predictions from a member stack."""
        combined = combine_members(member_preds, self.combiner, self.vote_k,
                                   self.vote_mode)
        return stein_adjust(combined, self.shrink_factor,
                            positive_part=self.positive_part)

    def predict(self, panel: Panel, seasons: tuple[int, int]) -> np.ndarray:
        """Shrunken (stations, seasons) ensemble predictions."""
        return self.combine(predict_groups(self.members, panel, self.stations, seasons))


def form_keys(attractor_id: str, groups, order: np.ndarray, preds: np.ndarray,
              obs: np.ndarray, n_select: int, stations: tuple[Station, ...],
              shrink_factor: float, x_grid=(10, 30, 100), vote_k: int = 2,
              vote_mode: str = "majority", positive_part: bool = False) -> list[PredictorKey]:
    """One key per (top-percent, combiner), scored on the select and retain windows.

    ``order`` is the groups' best-first rows (``rank_models``), ``preds`` their
    (groups, stations, seasons) stack and ``obs`` its observations:
    ``n_select`` select seasons, then the retain seasons. The combined keys
    are stacked and scored in one ``pooled_correlations`` call per window.
    """
    keys, combined = [], []
    for x in x_grid:
        top = take_top_percent(order, x)
        stack = preds[top]
        for comb in COMBINERS:
            keys.append(PredictorKey(
                attractor_id=attractor_id, top_percent=x, combiner=comb,
                stations=stations, members=tuple(groups[i] for i in top),
                shrink_factor=shrink_factor, vote_k=vote_k, vote_mode=vote_mode,
                positive_part=positive_part))
            combined.append(keys[-1].combine(stack))
    combined = np.stack(combined)
    select = pooled_correlations(combined[:, :, :n_select], obs[:, :n_select])[0]
    retain = pooled_correlations(combined[:, :, n_select:], obs[:, n_select:])[0]
    for key, rs, rr in zip(keys, select, retain):
        key.correlations = {"select": float(rs), "retain": float(rr)}
    return keys


def retain_predictors(keys: list[PredictorKey], threshold: float = 0.5, top_k: int = 10,
                      allow_switching: bool = True) -> list[PredictorKey]:
    """Strictly-above-threshold keys chosen from the per-attractor top_k.

    Each of an attractor's ``top_k`` keys by select r stands for itself
    or, with switching allowed, for its sibling (same cut, other
    combiner) if the sibling's retain r is higher. A choice whose retain
    r is strictly above the threshold is kept, in the order first chosen,
    unless a key of the same (attractor, cut) was kept before it: the
    combiner is a switch within a cut, so a cut enters the forecast once.
    An empty list (no forecast) is a valid outcome.
    """
    cuts = {(k.attractor_id, k.top_percent, k.combiner): k for k in keys}
    other = {"mean": "vote", "vote": "mean"}
    ranked = sorted(keys, key=lambda k: (k.attractor_id, -k.correlations["select"]))
    retained: dict[tuple[str, int], PredictorKey] = {}
    for attractor_id, group in itertools.groupby(ranked, key=lambda k: k.attractor_id):
        for key in itertools.islice(group, top_k):
            sibling = cuts.get((attractor_id, key.top_percent, other[key.combiner]), key)
            # max keeps the first of equals: a tie does not switch
            choice = (max(key, sibling, key=lambda k: k.correlations["retain"])
                      if allow_switching else key)
            if choice.correlations["retain"] > threshold:
                retained.setdefault((attractor_id, choice.top_percent), choice)
    return list(retained.values())


def median_combine(key_preds: np.ndarray) -> np.ndarray:
    """Per-season median across retained keys (even count: middle-two mean)."""
    key_preds = np.asarray(key_preds, dtype=float)
    if key_preds.ndim != 3 or key_preds.shape[0] < 1:
        raise ValueError("need a (keys, stations, seasons) stack")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmedian(key_preds, axis=0)


@dataclass
class EnsembleForecast:
    """Final per-station, per-season predictions with provenance."""

    stations: tuple[str, ...]
    seasons: tuple[int, ...]
    predictions: np.ndarray  # (stations, seasons), calibrated anomalies
    raw_median: np.ndarray
    contributing_keys: tuple[str, ...]
    combiner_by_key: dict[str, str]
    calibration_slope: float
    calibration_intercept: float
    no_forecast: bool = False

    def __post_init__(self):
        if not self.no_forecast and not self.contributing_keys:
            raise ValueError("forecast provenance must be non-empty")


# --- key serialization (self-describing, versioned) ---------------------

def map_to_dict(dmap: DelayMap) -> dict:
    return {"coords": [list(c) for c in dmap.coords]}


def map_from_dict(d: dict) -> DelayMap:
    return DelayMap(coords=tuple((str(v), str(s), int(lag)) for v, s, lag in d["coords"]))


def _one_table(groups: list[ModelGroup]) -> GroupTable:
    """The one table every group views; ValueError if they view several."""
    if len({id(g.table) for g in groups}) > 1:
        raise ValueError("the groups must be views of one model table")
    return groups[0].table


# a stored table's arrays in blob order: name, dtype and axes over G maps, S
# stations and p, the largest map dimension
_STORED = (("map_index", np.int64, "G"), ("columns", np.int64, "GSp"),
           ("coefficients", np.float64, "GSp"), ("intercept", np.float64, "GS"),
           ("rss", np.float64, "GS"), ("cp", np.float64, "GS"), ("n_rows", np.int64, "G"),
           ("dropped", np.bool_, "Gp"))


def table_to_dict(groups) -> dict:
    """The groups of one table, in order, as ``models.json`` and key files store
    them: station ids, maps, and base64 text of the ``_STORED`` arrays of their
    rows, padded to their largest map dimension, written back to back by ``np.save``."""
    groups = list(groups)
    table, rows, blob = _one_table(groups), [g.row for g in groups], io.BytesIO()
    p = max((table.maps[r].dim for r in rows), default=1)
    source = {"map_index": np.asarray(table.map_index), **vars(table.models)}
    for name, dtype, axes in _STORED:
        a = source[name][rows]
        np.save(blob, (a[..., :p] if axes[-1] == "p" else a).astype(dtype, copy=False),
                allow_pickle=False)
    return {"stations": list(table.stations), "maps": [map_to_dict(table.maps[r]) for r in rows],
            "arrays": base64.b64encode(blob.getvalue()).decode("ascii")}


def table_from_dict(d: dict, attractor_id: str) -> GroupTable:
    """The stored table of one attractor. PanelFormatError names it and the array
    if the text is not base64, an array is not ``.npy`` data of its ``_STORED`` dtype
    and shape (pickled data is never read), or bytes follow the last array; then
    ``ModelTable`` rejects a model it cannot hold."""
    maps = tuple(map_from_dict(m) for m in d["maps"])
    size = {"G": len(maps), "S": len(d["stations"]), "p": max((m.dim for m in maps), default=1)}
    try:
        blob = io.BytesIO(base64.b64decode(d["arrays"], validate=True))
    except (TypeError, ValueError):  # not a string, or not base64 (binascii.Error)
        raise PanelFormatError(f"attractor {attractor_id}: arrays is not base64 text") from None
    arrays = {}
    for name, dtype, axes in _STORED:
        shape = tuple(size[axis] for axis in axes)
        try:  # np.load's .npy reader: ValueError if truncated, not .npy, or pickled
            a = arrays[name] = np.lib.format.read_array(blob, allow_pickle=False)
        except ValueError:
            a = None
        if a is None or a.dtype != dtype or a.shape != shape:
            raise PanelFormatError(f"attractor {attractor_id}: {name} is not a stored "
                                   f"{shape} {np.dtype(dtype)} array")
    if blob.read(1):
        raise PanelFormatError(f"attractor {attractor_id}: bytes follow the last array, {name}")
    return GroupTable(attractor_id, maps, tuple(arrays.pop("map_index").tolist()),
                      tuple(d["stations"]), ModelTable(**arrays))


def key_to_dict(key: PredictorKey) -> dict:
    return {
        "key_id": key.key_id,
        "attractor_id": key.attractor_id,
        "top_percent": key.top_percent,
        "combiner": key.combiner,
        "vote_k": key.vote_k,
        "vote_mode": key.vote_mode,
        "positive_part": key.positive_part,
        "shrink_factor": key.shrink_factor,
        "stations": [[st.station_id, st.variable, st.site] for st in key.stations],
        "correlations": {k: float(v) for k, v in sorted(key.correlations.items())},
        "members": [g.map_index for g in key.members],
    }


def key_from_dict(d: dict, groups: dict[int, ModelGroup]) -> PredictorKey:
    return PredictorKey(
        attractor_id=d["attractor_id"], top_percent=int(d["top_percent"]),
        combiner=d["combiner"], stations=tuple(Station(*st) for st in d["stations"]),
        members=tuple(groups[i] for i in d["members"]), shrink_factor=float(d["shrink_factor"]),
        correlations={k: float(v) for k, v in d["correlations"].items()},
        vote_k=int(d["vote_k"]), vote_mode=d["vote_mode"],
        positive_part=bool(d["positive_part"]))


def save_keys(keys: list[PredictorKey], path, header: dict | None = None) -> None:
    """Write the keys atomically, with the header fields at the top level; each
    attractor's member groups are stored once, as one table in ``map_index``
    order. A key's members must view its attractor's one table (ValueError)."""
    members = {(k.attractor_id, g.map_index): g for k in keys for g in k.members}
    groups: dict[str, list[ModelGroup]] = {}
    for aid, i in sorted(members):
        groups.setdefault(aid, []).append(members[aid, i])
    write_json(path, {**(header or {}), "format_version": KEY_FORMAT_VERSION,
                      "groups": {aid: table_to_dict(gs) for aid, gs in groups.items()},
                      "keys": [key_to_dict(k) for k in keys]})


def load_keys(path) -> list[PredictorKey]:
    payload = read_json(path)
    if (version := payload.get("format_version")) != KEY_FORMAT_VERSION:
        raise PanelFormatError(f"{path}: key file format version {version}; rerun select")
    groups = {aid: {g.map_index: g for g in table_from_dict(d, aid).groups()}
              for aid, d in payload["groups"].items()}
    for d in payload["keys"]:
        if missing := sorted(set(d["members"]) - set(groups.get(d["attractor_id"], {}))):
            raise PanelFormatError(f"{path}: key {d['key_id']} names member map_index "
                                   f"{missing}, which the file's groups do not hold")
    return [key_from_dict(d, groups[d["attractor_id"]]) for d in payload["keys"]]
