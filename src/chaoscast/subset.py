"""Best-subset least squares by exhaustive enumeration under the Cp criterion.

For each delay map a small all-subsets regression problem is solved
exactly by scoring every column subset on the centered Gram system.
One batched solve per subset size covers every subset of that size and
every target that shares the design matrix, so the stations fitted on
one delay map share the column screening, the Gram product and the
solves. The per-size winner has the minimum residual sum of squares;
exact ties go to the first subset in ``itertools.combinations`` order.
The per-size winners are compared on Mallows' Cp, ties going to fewer
columns. A design with p columns costs 2**p - 1 solves, so designs are
capped at ``MAX_COLUMNS`` columns. On a 2-vCPU VM (190 rows, 4 targets)
enumeration beat a branch-and-bound (leaps) search up to 12 columns
(11.7 ms against 38.3 ms) and lost at 14 (82.7 ms against 78.7 ms).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10  # relative pivot threshold for dropping dependent columns
MAX_COLUMNS = 12  # enumeration cap: 4095 subsets


@dataclass
class SubsetModel:
    """A fitted least-squares model on a column subset of one delay map."""

    columns: tuple[int, ...]  # indices into the original design matrix
    coefficients: np.ndarray  # one per selected column
    intercept: float
    rss: float
    cp: float
    n_rows: int
    dropped: tuple[int, ...] = ()  # dependent/constant columns excluded up front

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if len(self.columns) < 1:
            raise ValueError("a subset model needs at least one column")
        if self.rss < -1e-9 or not np.isfinite(self.rss):
            raise ValueError("rss must be finite and non-negative")
        if not np.all(np.isfinite(self.coefficients)) or not np.isfinite(self.intercept):
            raise ValueError("coefficients must be finite")
        if not np.isfinite(self.cp):
            raise ValueError("cp must be finite")
        self.rss = max(self.rss, 0.0)

    @property
    def size(self) -> int:
        return len(self.columns)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.intercept + X[:, list(self.columns)] @ self.coefficients


def _validate_xy(X, y):
    """X as (rows, columns) and y as (rows, targets); a vector is one target."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2:
        Y = Y.reshape(-1, 1)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and y row counts differ")
    if Y.size == 0:
        raise ValueError("zero rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("X and y must be finite")
    return X, Y


def _independent_columns(Xc: np.ndarray) -> tuple[list[int], list[int]]:
    """Split centered columns into (independent, dropped).

    Sequential orthogonalization in column order: the first occurrence
    of a direction is kept, later dependents are dropped, so reports are
    deterministic and reference the earliest coordinate.
    """
    n, p = Xc.shape
    if p == 0:
        return [], []
    scale = float(np.max(np.linalg.norm(Xc, axis=0), initial=0.0))
    if scale == 0.0:
        return [], list(range(p))
    keep: list[int] = []
    dropped: list[int] = []
    basis = np.empty((n, 0))
    for j in range(p):
        col = Xc[:, j]
        resid = col - basis @ (basis.T @ col)
        norm = float(np.linalg.norm(resid))
        if norm > RANK_TOL * scale:
            keep.append(j)
            basis = np.column_stack([basis, resid / norm])
        else:
            dropped.append(j)
    return keep, dropped


def mallows_cp(rss_p, sigma2_full, n: int, p):
    """Cp = RSS_p / sigma2_full - n + 2p, with p counting the intercept.

    Elementwise over arrays of residual sums, variances and sizes.
    """
    if np.any(np.asarray(sigma2_full) <= 0.0):
        raise ValueError("sigma2_full must be positive")
    return rss_p / sigma2_full - n + 2.0 * p


@functools.cache
def _combinations(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) as a (C(m, k), k) table, in combinations order.

    Built on first use; at most MAX_COLUMNS**2 small tables are ever cached.
    """
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    table.flags.writeable = False
    return table


def _enumerate(X: np.ndarray, Y: np.ndarray, max_size: int | None):
    """Minimum-RSS subset per size of the independent columns of X, per column of Y.

    Returns Cp as (sizes, targets) and ``model(k, target)``, which builds
    the size-k winner of one target.
    """
    n, p = X.shape
    if p > MAX_COLUMNS:
        raise ValueError(f"exhaustive subset search is capped at {MAX_COLUMNS} "
                         f"columns, got {p}")
    if n <= p:
        raise ValueError("need more rows than columns")
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    keep, dropped = _independent_columns(Xc)
    if not keep:
        raise ValueError("no independent columns to search")
    m = len(keep)
    max_size = m if max_size is None else min(max_size, m)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if n <= m + 1:
        raise ValueError("cannot estimate residual variance: n <= p_full")
    Xk = Xc[:, keep]
    G = Xk.T @ Xk
    B = Xk.T @ Yc  # (m, targets)
    tss = np.einsum("it,it->t", Yc, Yc)

    def solve(idx: np.ndarray):
        """Coefficients (C, k, targets) and RSS (C, targets) of C subsets."""
        Bs = B[idx]
        sol = np.linalg.solve(G[idx[:, :, None], idx[:, None, :]], Bs)
        return sol, np.maximum(tss - np.einsum("ckt,ckt->ct", Bs, sol), 0.0)

    # residual variance of the full independent-column model
    rss_full = solve(np.arange(m)[None, :])[1][0]
    sigma2 = rss_full / (n - m - 1)
    # exact fit: fall back to a tiny positive variance so Cp stays finite
    sigma2 = np.where(sigma2 > 0.0, sigma2, np.maximum(rss_full, 1e-30))

    targets = np.arange(Y.shape[1])
    winners = []  # size k at [k - 1]: (targets, k) positions, coefficients, RSS
    for k in range(1, max_size + 1):
        idx = _combinations(m, k)
        sol, rss = solve(idx)
        best = np.argmin(rss, axis=0)  # first of exact ties
        winners.append((idx[best], sol[best, :, targets], rss[best, targets]))
    cp = mallows_cp(np.array([w[2] for w in winners]), sigma2, n,
                    np.arange(2, max_size + 2)[:, None])
    keep = np.array(keep)

    def model(k: int, t: int) -> SubsetModel:
        positions, coefficients, rss = winners[k - 1]
        cols = keep[positions[t]]
        return SubsetModel(columns=tuple(int(c) for c in cols),
                           coefficients=coefficients[t],
                           intercept=float(y_mean[t] - x_mean[cols] @ coefficients[t]),
                           rss=float(rss[t]), cp=float(cp[k - 1, t]),
                           n_rows=n, dropped=tuple(dropped))

    return cp, model


def best_subsets(X, y, max_size: int | None = None) -> dict[int, SubsetModel]:
    """Exact minimum-RSS subset per size 1..max_size by enumeration.

    Dependent and constant columns are screened out first and reported
    in ``dropped``. Every subset of the remaining columns is scored; an
    exact RSS tie within a size goes to the lexicographically first
    column tuple. Designs of more than MAX_COLUMNS columns raise
    ValueError.
    """
    cp, model = _enumerate(*_validate_xy(X, np.ravel(y)), max_size)
    return {k: model(k, 0) for k in range(1, len(cp) + 1)}


def select_models(X, Y, max_size: int | None = None) -> list[SubsetModel]:
    """Minimum-Cp subset model for each column of Y, all on the design X.

    Ties go to fewer columns. Each size has a single winner, so no
    further tie-break is needed and selection is deterministic.
    """
    cp, model = _enumerate(*_validate_xy(X, Y), max_size)
    return [model(int(k) + 1, t) for t, k in enumerate(np.argmin(cp, axis=0))]


def select_model(X, y, max_size: int | None = None) -> SubsetModel:
    """Minimum-Cp subset among per-size winners for one target; see select_models."""
    return select_models(X, np.ravel(y), max_size)[0]
