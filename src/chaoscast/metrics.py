"""Skill and diagnostic statistics.

``pooled_correlations`` is the one pooled Pearson r (model ranking, key
scores, FDR tests of keys, forecast skill); also a one-sided t test on
adjusted degrees of freedom, tercile Heidke skill, running 4-season skill
curves, the Ljung-Box portmanteau test, and Benjamini-Hochberg FDR selection.
Tail probabilities go through scipy's regularized incomplete beta /
gamma evaluations (target accuracy well below 1e-12 relative). scipy is
loaded on first use: a run that makes no forecast never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subset import same_rows


@dataclass
class SkillReport:
    """Table-row summary of predictive skill over all stations and the predict window."""

    pearson_r: float
    dof: int
    p_value: float
    heidke: float
    n_pairs: int
    box_ljung_q: float | None = None
    box_ljung_p: float | None = None

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.pearson_r <= 1.0 + 1e-12:
            raise ValueError("pearson_r outside [-1, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value outside [0, 1]")
        if self.dof < 1:
            raise ValueError("dof must be >= 1")


def pooled_correlations(pred, obs):
    """Pooled Pearson r of each (stations, seasons) prediction of a stack.

    ``pred`` is (..., stations, seasons) and ``obs`` (stations, seasons);
    each prediction pools the pairs where both are finite. Returns r, a
    degenerate flag and the pair count, shaped like the leading axes;
    fewer than 3 pairs or zero variance gives r 0, flagged degenerate.
    Rows with the same pairs form one C-ordered (rows, pairs) block, so a
    mean is a lone row's pairwise sum and a product the stacked (1, n) @
    (n, 1) ``ddot``: r is the same bits alone or stacked. A gemv
    (``da @ db`` on the block) or an ``einsum`` changes the last bits.
    """
    pred, obs = np.asarray(pred, dtype=float), np.asarray(obs, dtype=float)
    if obs.ndim != 2 or pred.shape[-2:] != obs.shape:
        raise ValueError("pred must be a (..., stations, seasons) stack over obs")
    lead = pred.shape[:-2]
    rows, o = pred.reshape(-1, obs.size), obs.ravel()
    ok = np.isfinite(rows) & np.isfinite(o)
    r, degenerate = np.zeros(len(rows)), np.ones(len(rows), dtype=bool)
    for group in same_rows(ok):
        at = np.flatnonzero(ok[group[0]])
        if at.size < 3:
            continue
        a, b = rows[np.ix_(group, at)], o[at]
        da, db = a - a.mean(axis=1, keepdims=True), b - b.mean()
        va, vb = (da[:, None, :] @ da[:, :, None])[:, 0, 0], db @ db
        flat = (va <= 0.0) | (vb <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # flat rows are 0
            ab = (da[:, None, :] @ db[:, None])[:, 0, 0] / np.sqrt(va * vb)
        r[group] = np.where(flat, 0.0, np.clip(ab, -1.0, 1.0))
        degenerate[group] = flat
    return tuple(x.reshape(lead)[()] for x in (r, degenerate, ok.sum(axis=1)))


def correlation_pvalue(r: float, dof: int) -> float:
    """One-sided (upper tail) Student-t probability for a zero-correlation
    null: small p means the correlation is convincingly positive."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if abs(r) > 1.0:
        raise ValueError("|r| must be <= 1")
    if abs(r) == 1.0:
        return 0.0
    t = r * np.sqrt(dof / (1.0 - r * r))
    from scipy import special  # on first use: the import costs more than a run's scoring
    return float(special.stdtr(dof, -t))


def adjusted_dof(n_pairs: int, n_fitted_means: int) -> int:
    """Correlation dof minus the count of fitted regional seasonal means."""
    if n_pairs <= n_fitted_means + 2:
        raise ValueError(
            f"{n_pairs} pairs cannot support {n_fitted_means} fitted means")
    return n_pairs - 2 - n_fitted_means


def tercile_boundaries(reference) -> tuple[float, float]:
    """Equiprobable 3-category boundaries from a declared reference sample."""
    reference = np.asarray(reference, dtype=float)
    reference = reference[np.isfinite(reference)]
    if reference.size < 3:
        raise ValueError("need at least 3 reference values for terciles")
    lo, hi = np.quantile(reference, [1.0 / 3.0, 2.0 / 3.0])
    return float(lo), float(hi)


def heidke_skill(pred, obs, boundaries: tuple[float, float]) -> float:
    """Tercile Heidke skill: 100 perfect, 0 chance, -50 perfectly wrong.

    Categories are the three equiprobable bins cut at ``boundaries``
    (computed from a reference window, never from the scored window);
    expected hits under chance are T/3.
    """
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if pred.size == 0 or pred.shape != obs.shape:
        raise ValueError("pred and obs must be equal-length and non-empty")
    hits = int(np.sum(np.digitize(pred, boundaries) == np.digitize(obs, boundaries)))
    total = pred.size
    expected = total / 3.0
    return 100.0 * (hits - expected) / (total - expected)


def running_skill(pred, obs, boundaries, window: int = 4):
    """Per-start pooled (r, Heidke) over consecutive ``window``-season blocks.

    ``pred``/``obs`` are (stations, seasons) panels; each start pools the
    station x window pairs. Starts with fewer than 3 finite pairs are
    emitted as NaN gap markers.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if pred.shape != obs.shape:
        raise ValueError("pred and obs must share shape")
    if window < 2:
        raise ValueError("window must be >= 2")
    out = []
    for start in range(pred.shape[1] - window + 1):
        p, o = pred[:, start:start + window], obs[:, start:start + window]
        r, _, n_pairs = pooled_correlations(p, o)
        if n_pairs < 3:
            out.append((start, np.nan, np.nan))
            continue
        ok = np.isfinite(p) & np.isfinite(o)
        out.append((start, float(r), heidke_skill(p[ok], o[ok], boundaries)))
    return out


def box_ljung(series, n_lags: int) -> tuple[float, float]:
    """Ljung-Box portmanteau statistic and chi-square tail probability."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n <= n_lags + 1:
        raise ValueError("series too short for the requested lag count")
    x = x - x.mean()
    denom = float(x @ x)
    if denom <= 0.0:
        raise ValueError("zero-variance series")
    q = 0.0
    for k in range(1, n_lags + 1):
        rho = float(x[k:] @ x[:-k]) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    from scipy import special  # on first use, as in correlation_pvalue
    p = float(special.chdtrc(n_lags, q))
    return q, p


def benjamini_hochberg(pvalues, q: float) -> set[int]:
    """Indices rejected by the step-up FDR rule at level q."""
    p = np.asarray(pvalues, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if p.size == 0:
        return set()
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    m = p.size
    thresholds = q * (np.arange(1, m + 1) / m)
    passing = np.nonzero(p[order] <= thresholds)[0]
    if passing.size == 0:
        return set()
    cut = passing[-1]
    return set(int(i) for i in order[:cut + 1])
