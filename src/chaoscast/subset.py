"""Best-subset least squares by exhaustive enumeration under the Cp criterion.

Each delay map poses a small all-subsets regression problem, solved
exactly on the centered Gram system. The kernel takes a stack of
designs, ``(G, n, p)`` for G delay maps, that share one ``(n, t)``
response block: the stations fitted on a map share its column screen,
Gram product and solves, and the maps of one row range share the batched
calls. The column screen, which drops dependent columns, runs once for
the whole stack. It first certifies, from each design's centered Gram
product, the designs whose every column it would keep
(``_certified_independent``): a design whose normalized Gram has every
Cholesky pivot, in column order, at least ``PIVOT_TOL`` has each
column's residual on the earlier ones at least 3e-3 of that column's
norm, orders of magnitude above the ``RESIDUAL_TOL`` and ``RANK_TOL``
cuts of the orthogonalization (``_independent_columns``), so only the
other designs are orthogonalized. The Gram product is then reused by the
search. ``same_rows`` splits the stack into sub-batches of equal screens.
In a sub-batch, ``_screen`` scores every subset of every map in
one pass of batched Cholesky steps (leaps-and-bounds RSS updating). Only
the subsets whose screened RSS is within ``SCREEN_TOL * TSS`` of their
size's screened minimum, for some target, are solved: one batched solve
per (sub-batch, subset size) covers them for every map and target. By
its array layout, each map's slice of a batched Gram product or solve is
the BLAS or LAPACK call a lone map makes, so its models do not depend on
the maps it is batched with. The per-size winner has the minimum solved
residual sum of squares; exact ties go to the first subset in
``itertools.combinations`` order. One writer, ``_select``, which both
``select_stacks`` and ``select_stack`` call, compares them on Mallows' Cp,
ties going to fewer columns, and writes each minimum-Cp winner straight
into a ``ModelTable``, one array per field, one size at a time.
``ensemble.predict_groups`` predicts from those arrays with one product
per model size whose slices are the calls a lone ``SubsetModel.predict``
makes, so a prediction does not depend on the models it is batched with.

Measured on 2 vCPUs with 1 BLAS thread, on 188-row designs with 4
targets:

- Over the 84,150 subsets of one ``map-ensemble`` benchmark operation
  (330 maps of 8 columns), the screened RSS was within 4.8e-16 of TSS
  of the solved one, and the smallest relative pivot was 3.6e-2. 9,555
  subsets (11 percent) were solved.
- On near-collinear designs the screen's error grows about as 1e-16 over
  the smallest relative pivot: 2.9e-12 of TSS at a pivot of 3.2e-5 and
  5.7e-10 at 3.8e-7. A winner stays a candidate while every error is
  below half of ``SCREEN_TOL``, so a design with a pivot below
  ``PIVOT_TOL`` solves every subset.
- The screen's cost is mostly fixed per sub-batch, so a sub-batch of
  fewer than ``SCREEN_MIN_SUBSETS`` subsets in all solves every subset.
  With every subset solved against screened, one search took 4.8 against
  3.8 ms at 79 maps of 5 columns (2,449 subsets), 2.7 against 1.8 ms at
  5 maps of 8 (1,275), 1.8 against 1.9 ms at 25 maps of 5 (775) and 1.2
  against 1.6 ms at one map of 8 (255).
- At the default config (6,000 designs of 8 columns), every design was
  certified, and the fit took 0.365 s against 0.523 s when every design
  was orthogonalized and read by an element gather (``lagged_designs``
  now reads windows); on one ``map-ensemble`` operation, 23.2 against
  26.7 ms.
- Designs are capped at ``MAX_COLUMNS`` columns, whose 4,095 subsets a
  lone design searches in 2.8 ms (14 columns: 9.2 ms), and 79 designs in
  91 ms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10  # relative pivot threshold for dropping dependent columns
# A column whose residual on the earlier columns is a fraction f of its own
# norm leaves their Gram submatrix a relative pivot of f**2. On stacks with
# one such column, LU rounded that pivot to exactly zero, and gesv raised
# "Singular matrix", in some stacks at every f up to 5e-8 and in none at
# 6e-8 or more. That bound did not move with the row count: it was measured
# on designs of 40, 188, 4,000 and 20,000 rows. 1e-7 keeps a margin of two.
RESIDUAL_TOL = 1e-7
MAX_COLUMNS = 12  # column cap: 4095 subsets per design, a (t, 4096, G) screened RSS
SCREEN_TOL = 1e-9  # candidate margin over a size's screened minimum RSS, as a share of TSS
PIVOT_TOL = 1e-5  # smallest relative pivot of a screened design; see the module docstring
SCREEN_MIN_SUBSETS = 1000  # G * (2**m - 1) below which a sub-batch solves every subset


# kept for perfbench/traced.py, which reads model sizes through ModelGroup.fits
@dataclass
class SubsetModel:
    """A fitted least-squares model on a column subset of one delay map: the
    one-model view of a ModelTable, whose construction checks it."""

    columns: tuple[int, ...]  # indices into the original design matrix
    coefficients: np.ndarray  # one per selected column
    intercept: float
    rss: float
    cp: float
    n_rows: int
    dropped: tuple[int, ...] = ()  # dependent/constant columns excluded up front

    @property
    def size(self) -> int:
        return len(self.columns)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.intercept + X[:, list(self.columns)] @ self.coefficients


@dataclass(eq=False)
class ModelTable:
    """Subset models of G designs by S targets, one array per field.

    Model (g, s) holds its columns in increasing order at the front of
    ``columns[g, s]`` and their coefficients at the front of
    ``coefficients[g, s]``; the rest is padding, -1 and 0, so its size is
    the count of columns >= 0. The models of a design share its row count
    and the mask of the dependent columns it screened out. ``models.json``
    and key files store these seven arrays as typed ``.npy`` bytes, each
    attractor's rows as one table (``ensemble.table_to_dict``). Construction
    checks every model at once, rejecting a model with no column, with
    columns that are not an increasing prefix in [0, p) padded with -1 only
    at the tail, with a non-finite coefficient, intercept or Cp, or with an
    RSS below -1e-9, and clamps RSS at 0.
    """

    columns: np.ndarray  # (G, S, p) column indices, padded with -1
    coefficients: np.ndarray  # (G, S, p), padded with 0
    intercept: np.ndarray  # (G, S)
    rss: np.ndarray  # (G, S)
    cp: np.ndarray  # (G, S)
    n_rows: np.ndarray  # (G,)
    dropped: np.ndarray  # (G, p) mask of dependent/constant columns excluded up front

    def __post_init__(self):
        c = self.columns
        if not (c[..., :1] >= 0).all():
            raise ValueError("a subset model needs at least one column")
        if not ((c >= -1) & (c < c.shape[-1])).all():
            raise ValueError(f"columns must lie in [0, {c.shape[-1]}), padded with -1")
        if not ((c[..., 1:] == -1) | ((c[..., :-1] >= 0) & (c[..., 1:] > c[..., :-1]))).all():
            raise ValueError("columns must increase, padded with -1 only at the tail")
        if not (np.isfinite(self.rss) & (self.rss >= -1e-9)).all():
            raise ValueError("rss must be finite and non-negative")
        if not (np.isfinite(self.coefficients).all() and np.isfinite(self.intercept).all()):
            raise ValueError("coefficients must be finite")
        if not np.isfinite(self.cp).all():
            raise ValueError("cp must be finite")
        self.rss = np.where(self.rss < 0.0, 0.0, self.rss)

    @property
    def sizes(self) -> np.ndarray:
        """(G, S) model sizes."""
        return (self.columns >= 0).sum(axis=-1)

    # kept for ModelGroup.fits and select_model, which perfbench/traced.py reads
    def model(self, g: int, s: int) -> SubsetModel:
        """Model (g, s) as a SubsetModel."""
        k = int((self.columns[g, s] >= 0).sum())
        return SubsetModel(columns=tuple(self.columns[g, s, :k].tolist()),
                           coefficients=self.coefficients[g, s, :k].copy(),
                           intercept=float(self.intercept[g, s]), rss=float(self.rss[g, s]),
                           cp=float(self.cp[g, s]), n_rows=int(self.n_rows[g]),
                           dropped=tuple(np.flatnonzero(self.dropped[g]).tolist()))


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
    reference the earliest coordinate. A column is dependent when its
    residual is at most ``RANK_TOL`` of the design's largest column norm,
    or at most ``RESIDUAL_TOL`` of its own norm. A dropped column leaves a
    zero basis vector, which projects nothing out of later columns.
    """
    G, p, n = XcT.shape
    norms = np.linalg.norm(XcT, axis=2)
    scale = norms.max(axis=1, initial=0.0)
    keep = np.zeros((G, p), dtype=bool)
    basis = np.zeros((G, p, n))
    for j in range(p):
        col = XcT[:, j]
        prior = basis[:, :j]
        resid = col - ((col[:, None, :] @ prior.transpose(0, 2, 1)) @ prior)[:, 0]
        norm = np.linalg.norm(resid, axis=1)
        keep[:, j] = (norm > RANK_TOL * scale) & (norm > RESIDUAL_TOL * norms[:, j])
        basis[:, j] = resid / np.where(keep[:, j], norm, np.inf)[:, None]
    return keep


def _certified_independent(gram: np.ndarray) -> np.ndarray:
    """(G,) mask of the designs of a stack whose every column ``_independent_columns``
    provably keeps, from their (G, p, p) centered Gram matrices.

    A design is certified when every column's square norm is above 1e-12
    of the largest, and each Cholesky pivot of its normalized Gram,
    in column order, is at least ``PIVOT_TOL``. Pivot j is the square of
    column j's residual on columns 0..j-1 over its own norm, so the
    residual is at least 3e-3 of the column's norm, 3e4 times
    ``RESIDUAL_TOL``, and at least 3e-9 of the largest norm, 30 times
    ``RANK_TOL``; the rounding of either route is far inside those margins.
    A zero column, a non-finite Gram or a smaller pivot is not certified.
    """
    d = np.einsum("gjj->gj", gram)
    scale = np.sqrt(d)
    with np.errstate(divide="ignore", invalid="ignore"):  # uncertified designs read NaN
        A = gram / (scale[:, :, None] * scale[:, None, :])
        pivot = np.full(len(gram), np.inf)
        for _ in range(gram.shape[1]):
            pivot = np.minimum(pivot, A[:, 0, 0])
            A = A[:, 1:, 1:] - A[:, 1:, :1] * (A[:, :1, 1:] / A[:, :1, :1])
    return (pivot >= PIVOT_TOL) & (d > 1e-12 * d.max(axis=1, initial=0.0)[:, None]).all(axis=1)


def mallows_cp(rss_p, sigma2_full, n: int, p):
    """Cp = RSS_p / sigma2_full - n + 2p, with p counting the intercept.

    Elementwise over arrays of residual sums, variances and sizes.
    """
    if np.any(np.asarray(sigma2_full) <= 0.0):
        raise ValueError("sigma2_full must be positive")
    return rss_p / sigma2_full - n + 2.0 * p


@functools.cache
def _combinations(m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every k-subset of range(m) as a (C(m, k), k) table, in combinations order.

    Also returns each subset's Gram submatrix as (C(m, k), k, k) positions
    in a flattened (m, m) Gram matrix, and each subset's bitmask. Built on
    first use; at most MAX_COLUMNS**2 triples of small tables are ever
    cached.
    """
    table = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    flat = table[:, :, None] * m + table[:, None, :]
    masks = (1 << table).sum(axis=1)
    for a in (table, flat, masks):
        a.flags.writeable = False
    return table, flat, masks


def _screen(gram: np.ndarray, B: np.ndarray, tss: np.ndarray):
    """Screened RSS of every subset of a stack, and each design's smallest relative pivot.

    The RSS updating of leaps and bounds (Furnival & Wilson 1974), the
    SWEEP of Goodnight (1979): step c extends every subset of the columns
    before c by column c, with one Cholesky step on the residual Gram and
    cross-product blocks of columns c..m-1, for the whole stack at once.
    The subsets with bitmask s are at [:, s] of the (targets, 2**m, G)
    RSS; the layout keeps the designs on the contiguous last axis. A
    relative pivot is a column's residual square norm on a subset over
    its own, 1 - R**2 of the column on the subset.
    """
    G, m, targets = B.shape
    R = np.ascontiguousarray(gram.transpose(1, 2, 0))[:, :, None]  # (m, m, subsets, G)
    r = np.ascontiguousarray(B.transpose(1, 2, 0))[:, :, None]  # (m, targets, subsets, G)
    rss = np.broadcast_to(tss[:, None, None], (targets, 1, G))
    pivot = np.full(G, np.inf)
    for c in range(m):
        S, L = R.shape[2], m - c - 1
        d = R[0, 0]
        pivot = np.minimum(pivot, (d / gram[:, c, c]).min(axis=0))
        u, h = R[0, 1:] / d, r[0] / d
        nR, nr = np.empty((L, L, 2 * S, G)), np.empty((L, targets, 2 * S, G))
        nrss = np.empty((targets, 2 * S, G))
        nR[:, :, :S], nr[:, :, :S], nrss[:, :S] = R[1:, 1:], r[1:], rss  # without c
        np.subtract(R[1:, 1:], R[1:, 0, None] * u, out=nR[:, :, S:])  # with c
        np.subtract(r[1:], R[1:, 0, None] * h, out=nr[:, :, S:])
        np.subtract(rss, r[0] * h, out=nrss[:, S:])
        R, r, rss = nR, nr, nrss
    return rss, pivot


def _search(XkT: np.ndarray, Yc: np.ndarray, tss: np.ndarray, max_size: int | None,
            gram: np.ndarray | None = None):
    """Per-size minimum-RSS subsets of a stack of independent centered columns.

    ``XkT`` holds each design transposed, as a C-ordered (G, m, n) array:
    a design's Gram product and right-hand sides are then the BLAS calls
    on the same operands as ``Xk.T @ Xk`` and ``Xk.T @ Yc`` on the
    column-indexed copy of a lone design. ``gram`` is that Gram product
    when the caller has formed it, and is formed here otherwise. With
    ``SCREEN_MIN_SUBSETS`` or more subsets in the stack, ``_screen``
    scores every subset first, and per (design, size) only the candidates
    within ``SCREEN_TOL * tss`` of that size's screened minimum for some
    target are solved. A design
    whose smallest relative pivot is below ``PIVOT_TOL``, or a smaller
    stack, solves every subset. Each size makes one batched solve of its
    candidates with each design's (k, targets) right-hand-side block, so
    a candidate's bits do not depend on the systems sharing the batch.
    The winner has the minimum solved RSS, exact ties going to the first
    subset in combinations order: a subset whose solved RSS ties the
    winner's is screened within the margin too, so it is a candidate.
    Returns the per-size winners, size k at [k - 1] as (G, targets, k)
    positions, (G, targets, k) coefficients and (G, targets) RSS, and Cp
    as (G, sizes, targets).
    """
    G, m, n = XkT.shape
    max_size = m if max_size is None else min(max_size, m)
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if n <= m + 1:
        raise ValueError("cannot estimate residual variance: n <= p_full")
    targets = Yc.shape[1]
    if gram is None:
        gram = XkT @ XkT.transpose(0, 2, 1)
    B = XkT @ Yc  # (G, m, targets)

    def solve(k: int, chosen: np.ndarray | slice):
        """Coefficients (N, k, targets) and RSS (N, targets) of N size-k
        subsets, chosen by flat position in the (G, C(m, k)) table."""
        idx, flat, _ = _combinations(m, k)
        Bs = B.take(idx, axis=1).reshape(-1, k, targets)[chosen]
        A = gram.reshape(G, m * m).take(flat, axis=1).reshape(-1, k, k)[chosen]
        sol = np.linalg.solve(A, Bs)  # as np.linalg.solve(A[idx], B[idx]) of a lone design
        return sol, np.maximum(tss - np.einsum("ckt,ckt->ct", Bs, sol), 0.0)

    # residual variance of the full independent-column model
    rss_full = solve(m, slice(None))[1]
    sigma2 = rss_full / (n - m - 1)
    # exact fit: fall back to a tiny positive variance so Cp stays finite
    sigma2 = np.where(sigma2 > 0.0, sigma2, np.maximum(rss_full, 1e-30))

    screened = None
    if G * ((1 << m) - 1) >= SCREEN_MIN_SUBSETS:
        with np.errstate(divide="ignore", invalid="ignore"):  # zero pivots solve everything
            screened, pivot = _screen(gram, B, tss)
        exhaustive = ~(pivot >= PIVOT_TOL)
    g, t = np.arange(G)[:, None], np.arange(targets)
    winners = []
    for k in range(1, max_size + 1):
        idx, _, masks = _combinations(m, k)
        size = G * len(idx)
        chosen = slice(None)  # every subset of every design
        if screened is not None:
            s = screened[:, masks]  # (targets, C, G)
            near = s <= s.min(axis=1, keepdims=True) + SCREEN_TOL * tss[:, None, None]
            chosen = np.flatnonzero(near.any(axis=0).T | exhaustive[:, None])
        sol, rss = solve(k, chosen)
        rows = np.arange(size)[chosen]  # flat (design, subset) position of each solve
        table = np.full((size, targets), np.inf)
        table[rows] = rss
        best = table.reshape(G, -1, targets).argmin(axis=1)  # (G, targets), first of ties
        at = np.searchsorted(rows, best + g * len(idx))  # its row in sol and rss
        winners.append((idx[best], sol[at, :, t], rss[at, t]))
    cp = mallows_cp(np.stack([w[2] for w in winners], axis=1), sigma2[:, None, :], n,
                    np.arange(2, max_size + 2)[:, None])
    return winners, cp


def _blank(G: int, S: int, p: int) -> list[np.ndarray]:
    """The fields of a (G, S) ModelTable padded to p columns, with no model
    written: the arrays ``_select`` fills."""
    return [np.full((G, S, p), -1), np.zeros((G, S, p)), np.empty((G, S)), np.empty((G, S)),
            np.empty((G, S)), np.empty(G, dtype=int), np.zeros((G, p), dtype=bool)]


def _select(X: np.ndarray, Y: np.ndarray, max_size: int | None, fields: list[np.ndarray],
            rows: np.ndarray) -> None:
    """Search a validated (G, n, p) stack of designs that share the (n, targets)
    block Y, and write each design's minimum-Cp models into ``_blank`` fields at
    row ``rows[g]``. The stack's Gram product decides which designs are
    certified to keep every column; only the others are orthogonalized. With
    every column of every design kept, the search reuses that Gram product.
    One size's winners are written at once, each intercept by one batched
    ``(N, 1, k) @ (N, k, 1)`` product: a lone model's dot products."""
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
    gram = XcT @ XcT.transpose(0, 2, 1)
    keep = np.ones((G, p), dtype=bool)
    doubt = ~_certified_independent(gram)
    if doubt.any():
        keep[doubt] = _independent_columns(XcT[doubt])
    if not keep.any(axis=1).all():
        raise ValueError("no independent columns to search")
    tss = np.einsum("it,it->t", Yc, Yc)
    columns, coefficients, intercept, rss, cp, n_rows, dropped = fields
    for members in same_rows(keep):
        kept = np.flatnonzero(keep[members[0]])
        if len(members) == G and kept.size == p:
            winners, cps = _search(XcT, Yc, tss, max_size, gram)
        else:
            winners, cps = _search(np.ascontiguousarray(XcT[np.ix_(members, kept)]),
                                   Yc, tss, max_size)
        members, picked = np.array(members), cps.argmin(axis=1)
        for k in (np.unique(picked) + 1).tolist():
            positions, betas, rsss = winners[k - 1]
            i, t = np.nonzero(picked == k - 1)
            at, cols, beta = rows[members[i]], kept[positions[i, t]], betas[i, t]
            columns[at, t, :k], coefficients[at, t, :k] = cols, beta
            intercept[at, t] = y_mean[t] - (x_mean[members[i][:, None], cols][:, None]
                                            @ beta[:, :, None])[:, 0, 0]
            rss[at, t], cp[at, t] = rsss[i, t], cps[i, k - 1, t]
    n_rows[rows] = n
    dropped[rows, :p] = ~keep


def select_stacks(stacks, shape: tuple[int, int, int],
                  max_size: int | None = None) -> ModelTable:
    """Minimum-Cp subset models of several stacks as one ``shape`` = (G, S, p) table.

    Each item of ``stacks`` is (X, Y, rows): a stack of designs and the
    response block of S targets they share, as ``select_stack`` takes
    them, and the table row of each design. Every winner is written
    straight into the table's arrays, padded to p columns, which are
    checked once; a row no stack writes fails that check.
    """
    fields = _blank(*shape)
    for X, Y, rows in stacks:
        _select(*_validate_xy(X, Y), max_size, fields, np.asarray(rows))
    return ModelTable(*fields)


def select_stack(X, Y, max_size: int | None = None) -> ModelTable:
    """Minimum-Cp subset model per design of a (G, n, p) stack, per column of Y.

    The designs share the (n, targets) response block Y; the models are
    returned as a (G, targets) ModelTable. Ties go to fewer columns. Each
    size has a single winner, so no further tie-break is needed and
    selection is deterministic.
    """
    X, Y = _validate_xy(X, Y)
    fields = _blank(len(X), Y.shape[1], X.shape[2])
    _select(X, Y, max_size, fields, np.arange(len(X)))
    return ModelTable(*fields)


# kept for perfbench/traced.py, which times it as subset.search_ms
def select_model(X, y, max_size: int | None = None) -> SubsetModel:
    """Minimum-Cp subset among per-size winners for one target; see select_stack."""
    return select_stack(X, np.ravel(y), max_size).model(0, 0)
