"""Best-subset least squares by exhaustive enumeration under the Cp criterion.

Each delay map poses a small all-subsets regression problem, solved
exactly by scoring every column subset on the centered Gram system. The
kernel takes a stack of designs, ``(G, n, p)`` for G delay maps, that
share one ``(n, t)`` response block: the stations fitted on a map share
its column screen, Gram product and solves, and the maps of one row
range share the batched calls. The screen runs once for the whole stack;
``same_rows`` splits it into sub-batches of equal screens, and one
batched solve per (sub-batch, subset size) covers every subset of that
size, every map and every target. By its array layout, each map's slice
of a batched Gram product or solve is the BLAS or LAPACK call a lone map
makes, so its models do not depend on the maps it is batched with, a rule
``ensemble.predict_groups`` keeps for ``SubsetModel.predict``. The per-size
winner has the minimum residual sum of squares; exact ties go to the
first subset in ``itertools.combinations`` order. The per-size winners
are compared on Mallows' Cp, ties going to fewer columns. A design with
p columns costs 2**p - 1 solves, so designs are capped at
``MAX_COLUMNS`` columns. On a 2-vCPU VM (190 rows, 4 targets)
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
    """X as a (G, rows, columns) stack and y as (rows, targets).

    A 2-D X is a stack of one design; a vector y is one target.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 3:
        X = np.atleast_2d(X)[None]
    Y = np.asarray(y, dtype=float)
    if Y.ndim != 2:
        Y = Y.reshape(-1, 1)
    if X.shape[1] != Y.shape[0]:
        raise ValueError("X and y row counts differ")
    if Y.size == 0:
        raise ValueError("zero rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("X and y must be finite")
    return X, Y


def same_rows(mask: np.ndarray) -> list[list[int]]:
    """Indices of a 2-D array's rows grouped by equal rows, in first-seen order."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    return list(groups.values())


def _independent_columns(XcT: np.ndarray) -> np.ndarray:
    """(G, p) mask of the independent columns of a stack of centered designs.

    ``XcT`` holds each design transposed, as (G, p, n). Sequential
    orthogonalization in column order, one step per column for the whole
    stack: per design, the first occurrence of a direction is kept and
    later dependents are dropped, so reports are deterministic and
    reference the earliest coordinate. A dropped column leaves a zero
    basis vector, which projects nothing out of later columns.
    """
    G, p, n = XcT.shape
    scale = np.linalg.norm(XcT, axis=2).max(axis=1, initial=0.0)
    keep = np.zeros((G, p), dtype=bool)
    basis = np.zeros((G, p, n))
    for j in range(p):
        col = XcT[:, j]
        prior = basis[:, :j]
        resid = col - ((col[:, None, :] @ prior.transpose(0, 2, 1)) @ prior)[:, 0]
        norm = np.linalg.norm(resid, axis=1)
        keep[:, j] = norm > RANK_TOL * scale
        basis[:, j] = resid / np.where(keep[:, j], norm, np.inf)[:, None]
    return keep


def mallows_cp(rss_p, sigma2_full, n: int, p):
    """Cp = RSS_p / sigma2_full - n + 2p, with p counting the intercept.

    Elementwise over arrays of residual sums, variances and sizes.
    """
    if np.any(np.asarray(sigma2_full) <= 0.0):
        raise ValueError("sigma2_full must be positive")
    return rss_p / sigma2_full - n + 2.0 * p


@functools.cache
def _combinations(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset of range(m) as a (C(m, k), k) table, in combinations order.

    Also returns each subset's Gram submatrix as (C(m, k), k, k) positions
    in a flattened (m, m) Gram matrix. Built on first use; at most
    MAX_COLUMNS**2 pairs of small tables are ever cached.
    """
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    flat = table[:, :, None] * m + table[:, None, :]
    table.flags.writeable = flat.flags.writeable = False
    return table, flat


def _search(XkT: np.ndarray, Yc: np.ndarray, tss: np.ndarray, max_size: int | None):
    """Per-size minimum-RSS subsets of a stack of independent centered columns.

    ``XkT`` holds each design transposed, as a C-ordered (G, m, n) array:
    a design's Gram product and right-hand sides are then the BLAS calls
    on the same operands as ``Xk.T @ Xk`` and ``Xk.T @ Yc`` on the
    column-indexed copy of a lone design. Returns the per-size winners,
    size k at [k - 1] as (G, targets, k) positions, (G, targets, k)
    coefficients and (G, targets) RSS, and Cp as (G, sizes, targets).
    """
    G, m, n = XkT.shape
    max_size = m if max_size is None else min(max_size, m)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if n <= m + 1:
        raise ValueError("cannot estimate residual variance: n <= p_full")
    gram = (XkT @ XkT.transpose(0, 2, 1)).reshape(G, m * m)
    B = XkT @ Yc  # (G, m, targets)

    def solve(idx: np.ndarray, flat: np.ndarray):
        """Coefficients (G, C, k, targets) and RSS (G, C, targets) of C subsets."""
        Bs = B.take(idx, axis=1)  # C order, as B[idx] of a lone design
        sol = np.linalg.solve(gram.take(flat, axis=1), Bs)
        return sol, np.maximum(tss - np.einsum("gckt,gckt->gct", Bs, sol), 0.0)

    # residual variance of the full independent-column model
    rss_full = solve(*_combinations(m, m))[1][:, 0]
    sigma2 = rss_full / (n - m - 1)
    # exact fit: fall back to a tiny positive variance so Cp stays finite
    sigma2 = np.where(sigma2 > 0.0, sigma2, np.maximum(rss_full, 1e-30))

    g, t = np.arange(G)[:, None], np.arange(Yc.shape[1])
    winners = []
    for k in range(1, max_size + 1):
        idx, flat = _combinations(m, k)
        sol, rss = solve(idx, flat)
        best = np.argmin(rss, axis=1)  # (G, targets), first of exact ties
        winners.append((idx[best], sol[g, best, :, t], rss[g, best, t]))
    cp = mallows_cp(np.stack([w[2] for w in winners], axis=1), sigma2[:, None, :], n,
                    np.arange(2, max_size + 2)[:, None])
    return winners, cp


def _enumerate(X: np.ndarray, Y: np.ndarray, max_size: int | None):
    """Minimum-RSS subset per size of each design's independent columns, per column of Y.

    X is a (G, n, p) stack of designs and Y the (n, targets) block they
    share. Returns Cp per design as (sizes, targets) and ``model(g, k,
    target)``, which builds the size-k winner of one target on design g.
    """
    G, n, p = X.shape
    if p > MAX_COLUMNS:
        raise ValueError(f"exhaustive subset search is capped at {MAX_COLUMNS} "
                         f"columns, got {p}")
    if n <= p:
        raise ValueError("need more rows than columns")
    x_mean = X.mean(axis=1)
    y_mean = Y.mean(axis=0)
    XcT = np.subtract(X.transpose(0, 2, 1), x_mean[:, :, None], order="C")
    Yc = Y - y_mean
    keep = _independent_columns(XcT)
    if not keep.any(axis=1).all():
        raise ValueError("no independent columns to search")
    tss = np.einsum("it,it->t", Yc, Yc)
    batches = same_rows(keep)
    cps: list = [None] * G
    found: list = [None] * G  # per design: winners, its row in them, kept and dropped columns
    for members in batches:
        columns = np.flatnonzero(keep[members[0]])
        XkT = (XcT if len(batches) == 1 and columns.size == p
               else np.ascontiguousarray(XcT[np.ix_(members, columns)]))
        winners, cp = _search(XkT, Yc, tss, max_size)
        dropped = tuple(int(c) for c in np.flatnonzero(~keep[members[0]]))
        for row, i in enumerate(members):
            cps[i] = cp[row]
            found[i] = (winners, row, columns, dropped)

    def model(i: int, k: int, t: int) -> SubsetModel:
        winners, row, columns, dropped = found[i]
        positions, coefficients, rss = winners[k - 1]
        cols = columns[positions[row, t]]
        beta = coefficients[row, t]
        return SubsetModel(columns=tuple(int(c) for c in cols), coefficients=beta,
                           intercept=float(y_mean[t] - x_mean[i, cols] @ beta),
                           rss=float(rss[row, t]), cp=float(cps[i][k - 1, t]),
                           n_rows=n, dropped=dropped)

    return cps, model


def best_subsets(X, y, max_size: int | None = None) -> dict[int, SubsetModel]:
    """Exact minimum-RSS subset per size 1..max_size by enumeration.

    Dependent and constant columns are screened out first and reported
    in ``dropped``. Every subset of the remaining columns is scored; an
    exact RSS tie within a size goes to the lexicographically first
    column tuple. Designs of more than MAX_COLUMNS columns raise
    ValueError.
    """
    cps, model = _enumerate(*_validate_xy(X, np.ravel(y)), max_size)
    return {k: model(0, k, 0) for k in range(1, len(cps[0]) + 1)}


def select_stack(X, Y, max_size: int | None = None) -> list[list[SubsetModel]]:
    """Minimum-Cp subset model per design of a (G, n, p) stack, per column of Y.

    The designs share the (n, targets) response block Y. Ties go to
    fewer columns. Each size has a single winner, so no further
    tie-break is needed and selection is deterministic.
    """
    cps, model = _enumerate(*_validate_xy(X, Y), max_size)
    return [[model(i, int(k) + 1, t) for t, k in enumerate(np.argmin(cp, axis=0))]
            for i, cp in enumerate(cps)]


def select_model(X, y, max_size: int | None = None) -> SubsetModel:
    """Minimum-Cp subset among per-size winners for one target; see select_stack."""
    return select_stack(X, np.ravel(y), max_size)[0][0]
