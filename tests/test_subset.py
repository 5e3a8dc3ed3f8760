import itertools

import numpy as np
import pytest

from chaoscast import ensemble, subset
from chaoscast.config import PipelineConfig
from chaoscast.dynamics import build_attractor_library
from chaoscast.embedding import (DelayMap, build_design_matrix, lagged_designs,
                                 sample_delay_maps)
from chaoscast.ensemble import Station, fit_model_groups, predict_groups
from chaoscast.errors import ConfigError
from chaoscast.subset import (MAX_COLUMNS, PIVOT_TOL, RANK_TOL, RESIDUAL_TOL, SCREEN_MIN_SUBSETS,
                              SCREEN_TOL, SubsetModel, _independent_columns, mallows_cp,
                              same_rows, select_model, select_stack)
from test_ensemble import table_groups


def exhaustive_best(X, y, max_size):
    """Oracle: enumerate every subset, refit from the raw columns."""
    n, p = X.shape
    yc = y - y.mean()
    best = {}
    for k in range(1, max_size + 1):
        for subset in itertools.combinations(range(p), k):
            Xc = X[:, list(subset)] - X[:, list(subset)].mean(axis=0)
            beta, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
            resid = yc - Xc @ beta
            rss = float(resid @ resid)
            if k not in best or rss < best[k][0]:
                best[k] = (rss, subset)
    return best


def best_subsets(X, y, max_size=None):
    """Each size's minimum-RSS model of a full-rank (n, p) design, as {size: SubsetModel}:
    the per-size winners of ``subset._search`` on the centred design."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    x_mean, yc = X.mean(axis=0), (y - y.mean())[:, None]
    XkT = np.ascontiguousarray((X - x_mean).T)[None]
    assert _independent_columns(XkT).all(), "the search helper takes full-rank designs"
    winners, cp = subset._search(XkT, yc, np.sum(yc * yc, axis=0), max_size)
    models = {}
    for k, (positions, beta, rss) in enumerate(winners, start=1):
        cols, coefficients = positions[0, 0], beta[0, 0]
        models[k] = SubsetModel(columns=tuple(cols.tolist()), coefficients=coefficients,
                                intercept=float(y.mean() - x_mean[cols] @ coefficients),
                                rss=float(rss[0, 0]), cp=float(cp[0, k - 1, 0]), n_rows=len(y))
    return models


def ols(X, y):
    """The ordinary least-squares fit: best_subsets' winner of the largest size."""
    per_size = best_subsets(X, y)
    return per_size[max(per_size)]


def test_ols_exact_proportional_fit():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 1))
    fit = ols(x, 2.0 * x[:, 0])
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.rss == pytest.approx(0.0, abs=1e-18)


def test_ols_orthogonal_columns_give_univariate_projections():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 3)))
    Q = Q - Q.mean(axis=0)  # re-centering keeps columns nearly orthogonal
    Q, _ = np.linalg.qr(Q)
    y = Q @ np.array([1.5, -2.0, 0.7]) + 0.01 * rng.standard_normal(40)
    fit = ols(Q, y)
    assert fit.columns == (0, 1, 2)
    yc = y - y.mean()
    for j in range(3):
        uni = float(Q[:, j] @ yc / (Q[:, j] @ Q[:, j]))
        assert fit.coefficients[j] == pytest.approx(uni, abs=1e-8)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 3))
    y = X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(20)
    fit = ols(X, y)
    A = np.column_stack([np.ones(20), X])
    beta = np.linalg.solve(A.T @ A, A.T @ y)
    assert fit.intercept == pytest.approx(beta[0], rel=1e-8, abs=1e-10)
    assert np.allclose(fit.coefficients, beta[1:], rtol=1e-8, atol=1e-10)
    resid = y - A @ beta
    assert fit.rss == pytest.approx(float(resid @ resid), rel=1e-8)


def test_ols_drops_dependent_columns_with_report():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(25)
    X = np.column_stack([x, 2.0 * x, rng.standard_normal(25)])
    fit = select_stack(X, x + 1.0).model(0, 0)
    assert fit.dropped == (1,)
    assert fit.columns[0] == 0 and 1 not in fit.columns
    assert fit.rss == pytest.approx(0.0, abs=1e-18)
    assert ols(X[:, [0, 2]], x + 1.0).rss == pytest.approx(0.0, abs=1e-18)


def test_ols_constant_response_and_validation():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 2))
    fit = ols(X, np.full(10, 3.0))
    assert np.allclose(fit.coefficients, 0.0, atol=1e-12)
    assert fit.intercept == pytest.approx(3.0)
    with pytest.raises(ValueError, match="zero rows"):
        select_stack(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="more rows than columns"):
        select_stack(X[:2], np.ones(2))  # rows < columns + 1


def test_ols_residuals_orthogonal_to_columns():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 6))
    y = rng.standard_normal(50)
    fit = ols(X, y)
    assert fit.columns == tuple(range(6))
    resid = y - fit.predict(X)
    bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(y)
    assert np.all(np.abs(X.T @ resid) <= bound)


def test_mallows_cp_identities():
    # full model: rss = sigma2 * (n - p_full) gives Cp = p_full
    assert mallows_cp(2.0 * (30 - 5), 2.0, 30, 5) == pytest.approx(5.0)
    assert mallows_cp(0.7 * (20 - 3), 0.7, 20, 3) == pytest.approx(3.0)
    # hand computation on a 10-row toy: 4.5/1.5 - 10 + 2*2 = -3
    assert mallows_cp(4.5, 1.5, 10, 2) == pytest.approx(-3.0)
    with pytest.raises(ValueError):
        mallows_cp(1.0, 0.0, 10, 2)


@pytest.mark.parametrize("p,n_instances", [(4, 8), (8, 6), (12, 4)])
def test_best_subsets_equals_exhaustive(p, n_instances):
    rng = np.random.default_rng(100 + p)
    for _ in range(n_instances):
        n = 40
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[rng.choice(p, size=max(1, p // 3), replace=False)] = rng.standard_normal(max(1, p // 3))
        y = X @ beta + rng.standard_normal(n)
        got = best_subsets(X, y, max_size=p)
        want = exhaustive_best(X, y, p)
        for k in range(1, p + 1):
            assert got[k].columns == want[k][1], f"size {k} subsets differ"
            assert got[k].rss == pytest.approx(want[k][0], rel=1e-8, abs=1e-10)


def test_rss_monotone_under_nesting():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 10))
    y = rng.standard_normal(60)
    per_size = best_subsets(X, y)
    scale = float(y @ y)
    sizes = sorted(per_size)
    for a, b in zip(sizes, sizes[1:]):
        assert per_size[b].rss <= per_size[a].rss + 1e-9 * scale


def test_best_subsets_excludes_dependent_columns():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    X = np.column_stack([x, rng.standard_normal(40), x * 1.0])
    y = x + 0.1 * rng.standard_normal(40)
    table = select_stack(X, y, max_size=2)
    assert table.model(0, 0).dropped == (2,)
    assert 2 not in table.model(0, 0).columns


def test_select_model_single_column():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 1))
    y = 0.5 * x[:, 0] + 0.1 * rng.standard_normal(20)
    model = select_model(x, y)
    assert model.columns == (0,)
    assert np.isfinite(model.cp)


def test_select_model_prefers_small_models_on_noise():
    rng = np.random.default_rng(9)
    full_wins = small_wins = 0
    for _ in range(200):
        X = rng.standard_normal((40, 8))
        y = rng.standard_normal(40)
        model = select_model(X, y)
        full_wins += model.size == 8
        small_wins += model.size <= 2
    assert small_wins > 5 * max(full_wins, 1)
    assert full_wins < 40


def test_select_model_recovers_planted_columns():
    # both informative columns must appear in the chosen subset; the
    # chance a pure-noise column sneaks in alongside them is scale-free
    # under Cp, so exact-set equality is not the contract
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(100):
        X = rng.standard_normal((60, 8))
        y = 2.0 * X[:, 1] - 1.5 * X[:, 5] + 0.05 * rng.standard_normal(60)
        model = select_model(X, y)
        hits += {1, 5} <= set(model.columns)
    assert hits >= 90


def test_prediction_scales_affinely_with_zero_intercept():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((50, 4))
    X -= X.mean(axis=0)  # centered columns force a zero intercept
    y = X @ np.array([1.0, 0.0, -2.0, 0.5])
    model = select_model(X, y)
    assert model.intercept == pytest.approx(0.0, abs=1e-10)
    a = 3.7
    assert np.allclose(model.predict(a * X), a * model.predict(X), atol=1e-8)


def test_best_subsets_validation():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        select_stack(rng.standard_normal((5, 6)), rng.standard_normal(5))
    with pytest.raises(ValueError):
        select_stack(rng.standard_normal((40, 31)), rng.standard_normal(40))


def test_best_subsets_rejects_more_than_the_column_cap():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((40, MAX_COLUMNS + 1))
    with pytest.raises(ValueError, match="capped"):
        select_stack(X, rng.standard_normal(40))
    assert select_stack(X[:, :MAX_COLUMNS], rng.standard_normal(40)).columns.shape[-1] == \
        MAX_COLUMNS


def test_exact_rss_ties_go_to_the_first_subset():
    # two orthogonal columns that explain y equally well, bit for bit
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
    y = X[:, 0] + X[:, 1]
    assert best_subsets(X, y)[1].columns == (0,)
    assert best_subsets(X[:, ::-1], y)[1].columns == (0,)


def test_config_rejects_dim_above_the_column_cap():
    with pytest.raises(ConfigError, match="cap"):
        PipelineConfig.from_dict({"seed": 1, "embedding": {"dim": MAX_COLUMNS + 1}})
    PipelineConfig.from_dict({"seed": 1, "embedding": {"dim": MAX_COLUMNS}})


def brute_force_cp(X, y):
    """Oracle: Cp-selected (columns, coefficients) by refitting every subset."""
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()

    def fit(subset):
        beta, *_ = np.linalg.lstsq(Xc[:, list(subset)], yc, rcond=None)
        resid = yc - Xc[:, list(subset)] @ beta
        return float(resid @ resid), beta

    sigma2 = fit(range(p))[0] / (n - p - 1)
    scored = []
    for k in range(1, p + 1):
        fits = [(fit(s), s) for s in itertools.combinations(range(p), k)]
        (rss, beta), subset = min(fits, key=lambda f: f[0][0])
        scored.append((mallows_cp(rss, sigma2, n, k + 1), k, subset, beta))
    _, _, subset, beta = min(scored, key=lambda item: item[:3])
    return subset, beta


@pytest.fixture(scope="module")
def short_attractor():
    cfg = PipelineConfig.from_dict({"seed": 7, "surrogate": {"forcings": [8.0],
                                                             "n_seasons": 200}})
    (est,) = build_attractor_library(cfg.surrogate.parameters(), cfg.surrogate, cfg.seed)
    stations = tuple(Station(sid, var, site)
                     for sid, (var, site) in cfg.resolved_stations().items())
    maps = sample_delay_maps(est.panel.catalog(), 3, 8, 4, 11, seed=11)
    return est.panel, stations, maps


def _assert_groups_match_per_station_fits(panel, stations, maps):
    """Every station's model equals its lone fit; the first map's equals brute force."""
    groups = fit_model_groups("F8", maps, panel, stations)
    for i, (dmap, group) in enumerate(zip(maps, groups)):
        assert group.map_index == i and group.dmap == dmap
        assert list(group.fits) == [st.station_id for st in stations]
        for st in stations:
            X, y, _ = build_design_matrix(panel, dmap, st.target,
                                          (dmap.max_lag, panel.n_seasons))
            got = group.fits[st.station_id]
            assert got.n_rows == len(y)
            alone = select_model(X, y)
            assert got.columns == alone.columns
            assert np.allclose(got.coefficients, alone.coefficients, rtol=1e-9, atol=0)
            if i == 0:
                columns, beta = brute_force_cp(X, y)
                assert got.columns == columns
                assert np.allclose(got.coefficients, beta, rtol=1e-9, atol=0)
    return groups


def test_fit_model_group_matches_per_station_and_brute_force(short_attractor):
    panel, stations, maps = short_attractor
    _assert_groups_match_per_station_fits(panel, stations, maps)


def test_fit_model_group_station_with_missing_target_seasons(short_attractor):
    # attractor panels are complete; load_library names a file that is not
    panel, stations, maps = short_attractor
    gappy = panel.copy()
    gappy.series(*stations[1].target)[90] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        fit_model_groups("F8", maps[:1], gappy, stations)


def reference_independent_columns(Xc):
    """The per-design sequential screen: (kept, dropped) column lists."""
    n, p = Xc.shape
    scale = float(np.max(np.linalg.norm(Xc, axis=0), initial=0.0))
    if scale == 0.0:
        return [], list(range(p))
    keep, dropped = [], []
    basis = np.empty((n, 0))
    for j in range(p):
        col = Xc[:, j]
        resid = col - basis @ (basis.T @ col)
        norm = float(np.linalg.norm(resid))
        if norm > RANK_TOL * scale and norm > RESIDUAL_TOL * float(np.linalg.norm(col)):
            keep.append(j)
            basis = np.column_stack([basis, resid / norm])
        else:
            dropped.append(j)
    return keep, dropped


def reference_select_models(X, Y, max_size=None):
    """The per-design search that select_stack replaced, on a finite (n, p) design."""
    n, p = X.shape
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - x_mean, Y - y_mean
    keep, dropped = reference_independent_columns(Xc)
    m = len(keep)
    max_size = m if max_size is None else min(max_size, m)
    Xk = Xc[:, keep]
    G = Xk.T @ Xk
    B = Xk.T @ Yc
    tss = np.einsum("it,it->t", Yc, Yc)

    def solve(idx):
        Bs = B[idx]
        sol = np.linalg.solve(G[idx[:, :, None], idx[:, None, :]], Bs)
        return sol, np.maximum(tss - np.einsum("ckt,ckt->ct", Bs, sol), 0.0)

    rss_full = solve(np.arange(m)[None, :])[1][0]
    sigma2 = rss_full / (n - m - 1)
    sigma2 = np.where(sigma2 > 0.0, sigma2, np.maximum(rss_full, 1e-30))
    targets = np.arange(Y.shape[1])
    winners = []
    for k in range(1, max_size + 1):
        idx = np.array(list(itertools.combinations(range(m), k)))
        sol, rss = solve(idx)
        best = np.argmin(rss, axis=0)
        winners.append((idx[best], sol[best, :, targets], rss[best, targets]))
    cp = mallows_cp(np.array([w[2] for w in winners]), sigma2, n,
                    np.arange(2, max_size + 2)[:, None])
    keep = np.array(keep)
    models = []
    for t, k in enumerate(np.argmin(cp, axis=0)):
        positions, coefficients, rss = winners[k]
        cols = keep[positions[t]]
        models.append(SubsetModel(
            columns=tuple(int(c) for c in cols), coefficients=coefficients[t],
            intercept=float(y_mean[t] - x_mean[cols] @ coefficients[t]), rss=float(rss[t]),
            cp=float(cp[k, t]), n_rows=n, dropped=tuple(dropped)))
    return models


def lagged_rows(panel, dmap, seasons):
    """The per-map design read that lagged_designs replaced: (X, usable rows)."""
    start, stop = seasons
    t = np.arange(start, stop)
    X = np.full((t.size, dmap.dim), np.nan)
    for j, (var, site, lag) in enumerate(dmap.coords):
        series = panel.series(var, site)
        src = t - lag
        ok = src >= 0
        X[ok, j] = series[src[ok]]
    return X, np.all(np.isfinite(X), axis=1)


def reference_predict(group, panel, stations, seasons):
    """The per-group prediction that predict_groups replaced: one lone product per station."""
    out = np.full((len(stations), seasons[1] - seasons[0]), np.nan)
    X, usable = lagged_rows(panel, group.dmap, seasons)
    for i, st in enumerate(stations):
        out[i, usable] = group.fits[st.station_id].predict(X[usable])
    return out


def reference_fit_model_group(dmap, attractor_panel, stations, max_size=None):
    """The per-map fit that fit_model_groups replaced: one search of every station,
    as {station id: SubsetModel}."""
    seasons = (dmap.max_lag, attractor_panel.n_seasons)
    X, _ = lagged_rows(attractor_panel, dmap, seasons)
    Y = np.column_stack([attractor_panel.series(*st.target)[seasons[0]:seasons[1]]
                         for st in stations])
    models = reference_select_models(X, Y, max_size)
    return {st.station_id: m for st, m in zip(stations, models)}


def table_models(table):
    """A (G, S) ModelTable as G lists of S SubsetModels."""
    G, S = table.intercept.shape
    return [[table.model(g, s) for s in range(S)] for g in range(G)]


def _screened_panel(panel):
    """The panel plus a constant and a duplicate series."""
    out = panel.copy()
    out.add("wet", "const", np.full(panel.n_seasons, 0.25))
    out.add("wet", "dup", panel.series("wet", "s01").copy())
    return out


def _gappy_panel(panel, stations):
    """The screened panel with a gappy predictor and target, as a ground panel can be."""
    out = _screened_panel(panel)
    out.series("tmp", "s05")[[40, 41, 120]] = np.nan
    out.series(*stations[2].target)[[25, 90, 91, 180]] = np.nan
    return out


@pytest.mark.parametrize("case", ["several-lags", "screened", "max-size-2",
                                  "several-chunks"])
def test_fit_model_groups_equals_the_per_map_fit_bit_for_bit(short_attractor, monkeypatch,
                                                             case):
    panel, stations, _ = short_attractor
    maps = (sample_delay_maps(panel.catalog(), 16, 8, 4, 11, seed=5)
            + sample_delay_maps(panel.catalog(), 16, 3, 4, 11, seed=6)
            + sample_delay_maps(panel.catalog(), 8, 1, 4, 11, seed=7))
    assert len({(m.max_lag, m.dim) for m in maps}) > 10
    max_size = 2 if case == "max-size-2" else None
    if case == "several-chunks":
        monkeypatch.setattr(ensemble, "FIT_CHUNK", 3)
    if case == "screened":
        panel = _screened_panel(panel)
        maps += [
            DelayMap((("wet", "const", 5), ("wet", "s03", 7), ("tmp", "s05", 9))),
            DelayMap((("wet", "s01", 6), ("wet", "dup", 6), ("wet", "s04", 9))),
            DelayMap((("wet", "s02", 5), ("wet", "s07", 8), ("wet", "s11", 9))),
            DelayMap((("wet", "s01", 5), ("wet", "const", 9), ("wet", "dup", 5))),
        ]
    got = fit_model_groups("F8", maps, panel, stations, max_size=max_size)
    assert len(got) == len(maps)
    for i, (group, dmap) in enumerate(zip(got, maps)):
        assert (group.attractor_id, group.map_index, group.dmap) == ("F8", i, dmap)
        want = reference_fit_model_group(dmap, panel, stations, max_size=max_size)
        assert list(group.fits) == list(want)
        _assert_same_bits(list(group.fits.values()), list(want.values()))
    if case == "screened":
        assert {m.dropped for g in got[-4:] for m in g.fits.values()} == {(0,), (1,), (), (1, 2)}
    assert all(m.n_rows == panel.n_seasons - g.dmap.max_lag
               for g in got for m in g.fits.values())


def test_batched_screen_keeps_the_columns_of_the_per_design_screen():
    rng = np.random.default_rng(14)
    designs = []
    for case in range(40):
        X = rng.standard_normal((30, 6))
        if case % 4 == 1:
            X[:, 2] = 3.0  # constant
        if case % 4 == 2:
            X[:, 4] = X[:, 1] - 2.0 * X[:, 3]  # a combination of earlier columns
        if case % 4 == 3:
            X[:, 0] = X[:, 5] = 1.0  # two constants
        designs.append(X - X.mean(axis=0))
    designs.append(np.zeros((30, 6)))
    keep = _independent_columns(np.ascontiguousarray(np.stack(designs).transpose(0, 2, 1)))
    for mask, Xc in zip(keep, designs):
        kept, _ = reference_independent_columns(Xc)
        assert list(np.flatnonzero(mask)) == kept


@pytest.mark.parametrize("p", [1, 4])
def test_select_stack_equals_lone_searches_and_leaves_its_input(p):
    rng = np.random.default_rng(15)
    X = rng.standard_normal((5, 40, p))
    X[1, :, p - 1] = X[1, :, 0] if p > 1 else 2.0
    Y = rng.standard_normal((40, 3))
    full_rank = X[[0, 2, 3, 4]]  # screens that keep every column
    stacked = table_models(select_stack(full_rank, Y[:, :1]))
    assert np.array_equal(full_rank, X[[0, 2, 3, 4]])
    for lone, batch in zip((reference_select_models(x, Y[:, :1]) for x in full_rank), stacked):
        for a, b in zip(lone, batch):
            assert (a.columns, a.dropped, a.intercept, a.rss, a.cp) == \
                (b.columns, b.dropped, b.intercept, b.rss, b.cp)
            assert np.array_equal(a.coefficients, b.coefficients)
    if p > 1:
        for lone, batch in zip((reference_select_models(x, Y) for x in X),
                               table_models(select_stack(X, Y))):
            for a, b in zip(lone, batch):
                assert (a.columns, a.dropped, a.rss, a.cp) == (b.columns, b.dropped, b.rss, b.cp)
                assert np.array_equal(a.coefficients, b.coefficients)
        assert [m.dropped for m in table_models(select_stack(X, Y))[1]] == [(p - 1,)] * 3
    else:
        with pytest.raises(ValueError, match="no independent columns"):
            select_stack(X, Y)


def _assert_same_bits(got, want):
    """Lists of models that are equal bit for bit, compared by tobytes()."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.columns, a.dropped, a.n_rows) == (b.columns, b.dropped, b.n_rows)
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert np.array([a.intercept, a.rss, a.cp]).tobytes() == \
            np.array([b.intercept, b.rss, b.cp]).tobytes()


def _centered_transposed(X):
    """A (G, n, p) stack as _search takes it: centered, transposed, C-ordered."""
    return np.ascontiguousarray((X - X.mean(axis=1, keepdims=True)).transpose(0, 2, 1))


def _relative_pivots(X, Y):
    """Each design's smallest relative pivot in the RSS screen."""
    XkT, Yc = _centered_transposed(X), Y - Y.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return subset._screen(XkT @ XkT.transpose(0, 2, 1), XkT @ Yc,
                              np.sum(Yc * Yc, axis=0))[1]


def _screen_stack(case, m, rng):
    """A (24, 60, p) stack and a (60, 3) response block for one bit-equality case."""
    X = rng.standard_normal((24, 60, m)) * 10.0 ** rng.uniform(-2, 2, (24, 1, m))
    Y = rng.standard_normal((60, 3))
    Y[:, 0] += X[0, :, 1] / X[0, :, 1].std() - X[0, :, m - 1] / X[0, :, m - 1].std()
    if case == "near-tie-columns":  # columns 1 and 4 differ by 1e-7 relative noise:
        # some designs keep column 4 and search near-singular Grams, others drop it
        # by RESIDUAL_TOL (at 1e-8 some subset's Gram was singular to gesv)
        X[:, :, 4] = X[:, :, 1] * (1.0 + 1e-7 * rng.standard_normal((24, 60)))
        Y[:, 1] = X[3, :, 1] + 0.1 * Y[:, 1]
    if case == "near-tie-rss":  # sizes whose best subsets differ by ~1e-12 of TSS
        Q = np.linalg.qr(X[0] - X[0].mean(axis=0))[0] * 7.0
        X[0] = Q
        noise = Y[:, 1] - Q @ np.linalg.lstsq(Q, Y[:, 1], rcond=None)[0]
        Y[:, 1] = Q[:, 0] + Q[:, 1] * (1.0 + 1e-12) + Q[:, 2] * (1.0 - 1e-12) + 0.01 * noise
    if case == "dependent":  # eight columns, of which m are independent
        X = np.concatenate([X, X[:, :, :8 - m] * 2.0 - X[:, :, 1:2]], axis=2)
    if case == "mixed-fallback":  # even designs: a column 1e-4 from its neighbour
        near = X[::2, :, 2]
        X[::2, :, m - 1] = near + 1e-4 * near.std(axis=1, keepdims=True) * \
            rng.standard_normal((12, 60))
    return X, Y


@pytest.mark.parametrize("m", [6, 7, 8])
@pytest.mark.parametrize("case", ["random", "near-tie-columns", "near-tie-rss",
                                  "mixed-fallback"])
def test_screened_search_equals_the_reference_bit_for_bit(case, m):
    rng = np.random.default_rng(30 + m)
    X, Y = _screen_stack(case, m, rng)
    assert len(X) * (2**m - 1) >= SCREEN_MIN_SUBSETS
    pivots = _relative_pivots(X, Y)
    if case == "near-tie-columns":
        assert (pivots < PIVOT_TOL).all()
        dropped = select_stack(X, Y).dropped[:, 4]
        assert dropped.any() and not dropped.all()
    elif case == "mixed-fallback":  # the fallback pivot is below PIVOT_TOL, above RANK_TOL
        assert (pivots[::2] < PIVOT_TOL).all() and (pivots[1::2] >= PIVOT_TOL).all()
        assert (pivots[::2] > RANK_TOL ** 2).all()
    else:
        assert (pivots >= PIVOT_TOL).all()
    for max_size in (None, m - 1, m - 3):
        for x, got in zip(X, table_models(select_stack(X, Y, max_size=max_size))):
            _assert_same_bits(got, reference_select_models(x, Y, max_size))


@pytest.mark.parametrize("n, eps", [(188, 1e-9), (188, 3e-9), (188, 1e-8), (188, 3e-8),
                                    (4000, 1e-8), (4000, 3e-8)])
def test_a_near_duplicate_column_is_dropped_where_its_gram_was_singular(n, eps):
    # column 4 is column 1 times (1 + eps * noise), so its residual on the earlier
    # columns is about eps of its norm; gesv used to raise "Singular matrix" here,
    # at 4,000 rows as at 188
    for p in (6, 7, 8):
        rng = np.random.default_rng(100 + p)
        X = rng.standard_normal((10, n, p))
        X[:, :, 4] = X[:, :, 1] * (1.0 + eps * rng.standard_normal((10, n)))
        Y = rng.standard_normal((n, 4))
        table = select_stack(X, Y)
        assert table.dropped[:, 4].all() and table.dropped.sum() == len(X)
        for x, got in zip(X, table_models(table)):
            _assert_same_bits(got, reference_select_models(x, Y))
        assert select_stack(X[0], Y[:, 0]).model(0, 0).dropped == (4,)


def test_dependent_columns_below_the_crossover_equal_the_reference_bit_for_bit():
    rng = np.random.default_rng(40)
    m = 5
    X, Y = _screen_stack("dependent", m, rng)
    assert X.shape[2] == 8 and len(X) * (2**8 - 1) >= SCREEN_MIN_SUBSETS
    assert len(X) * (2**m - 1) < SCREEN_MIN_SUBSETS
    for x, got in zip(X, table_models(select_stack(X, Y))):
        want = reference_select_models(x, Y)
        assert all(len(model.dropped) == 8 - m for model in want)
        _assert_same_bits(got, want)


def test_exact_rss_ties_go_to_the_first_subset_in_a_wide_design():
    # eight orthogonal +-1 columns that explain y equally well, bit for bit
    m = 8
    X = np.zeros((2 * m + 3, m))
    X[np.arange(m), np.arange(m)], X[m + np.arange(m), np.arange(m)] = 1.0, -1.0
    y = X.sum(axis=1)
    y[2 * m:] = [0.5, -0.25, 0.125]
    stack = np.stack([X, X[:, ::-1]] * 2)
    assert len(stack) * (2**m - 1) >= SCREEN_MIN_SUBSETS
    XkT, yc = _centered_transposed(stack), (y - y.mean())[:, None]
    tss = np.sum(yc * yc, axis=0)
    every = _every_subset_rss(XkT, yc, tss)
    winners, _ = subset._search(XkT, yc, tss, None)
    for k, (positions, _, rss) in enumerate(winners, start=1):
        sized = [sum(1 << c for c in s) for s in itertools.combinations(range(m), k)]
        assert len(set(every[:, sized].ravel())) == 1  # every k-subset ties exactly
        assert (positions == np.arange(k)).all()
    for x, got in zip(stack, table_models(select_stack(stack, y))):
        _assert_same_bits(got, reference_select_models(x, y[:, None]))


def _every_subset_rss(XkT, Yc, tss):
    """(G, 2**m, targets) RSS of every subset by bitmask, from today's batched solve."""
    G, m, _ = XkT.shape
    gram, B = XkT @ XkT.transpose(0, 2, 1), XkT @ Yc
    out = np.empty((G, 1 << m, Yc.shape[1]))
    out[:, 0] = tss
    for k in range(1, m + 1):
        idx = np.array(list(itertools.combinations(range(m), k)))
        Bs = B[:, idx]
        sol = np.linalg.solve(gram[:, idx[:, :, None], idx[:, None, :]], Bs)
        out[:, (1 << idx).sum(axis=1)] = np.maximum(
            tss - np.einsum("gckt,gckt->gct", Bs, sol), 0.0)
    return out


@pytest.mark.parametrize("case", ["random", "near-collinear"])
def test_screened_rss_is_within_the_candidate_margin_of_the_solved_rss(case):
    # a per-size winner stays a candidate when every screened RSS is within
    # SCREEN_TOL / 2 of TSS of its solved RSS: the winner's screened RSS is
    # then at most the screened minimum plus SCREEN_TOL of TSS
    rng = np.random.default_rng(50)
    smallest = []
    for m in (6, 8, MAX_COLUMNS):
        X = rng.standard_normal((8, 80, m)) * 10.0 ** rng.uniform(-3, 3, (8, 1, m))
        if case == "near-collinear":  # columns 1e-2.4 to 1e-1 of their norm off column 0
            eps = 10.0 ** rng.uniform(-2.4, -1.0, (8, 1, m - 1))
            base = X[:, :, :1] / X[:, :, :1].std(axis=1, keepdims=True)
            X[:, :, 1:] *= eps
            X[:, :, 1:] += base * X[:, :, 1:].std(axis=1, keepdims=True) / eps
        Y = rng.standard_normal((80, 4))
        Y[:, 0] += X[0] @ rng.standard_normal(m) / X[0].std()
        XkT, Yc = _centered_transposed(X), Y - Y.mean(axis=0)
        tss = np.sum(Yc * Yc, axis=0)
        screened, pivot = subset._screen(XkT @ XkT.transpose(0, 2, 1), XkT @ Yc, tss)
        assert (pivot >= PIVOT_TOL).all()
        smallest.append(pivot.min())
        err = np.abs(screened.transpose(2, 1, 0) - _every_subset_rss(XkT, Yc, tss)) / tss
        assert err.max() <= SCREEN_TOL / 2
    if case == "near-collinear":  # the margin holds down to the fallback's threshold
        assert min(smallest) < 2 * PIVOT_TOL


def test_a_small_pivot_solves_every_subset(monkeypatch):
    rng = np.random.default_rng(60)
    X, Y = _screen_stack("mixed-fallback", 8, rng)
    pivots = _relative_pivots(X, Y)
    small, fine = X[::2][:4], X[1::2][:4]
    assert (pivots[::2] < PIVOT_TOL).all() and (pivots[1::2] >= PIVOT_TOL).all()
    solved = []
    solve = np.linalg.solve

    def counted(a, b):
        solved.append(len(a))
        return solve(a, b)

    def systems(stack):
        solved.clear()
        select_stack(stack, Y)
        assert len(solved) == 9  # the full model, then one solve per size
        return sum(solved) - len(stack)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert 8 * (2**8 - 1) >= SCREEN_MIN_SUBSETS
    # a design's candidates do not depend on the designs it is stacked with
    screened = systems(np.concatenate([fine, fine])) // 2
    assert screened < 4 * (2**8 - 1) // 4
    assert systems(np.concatenate([small, fine])) == 4 * (2**8 - 1) + screened
    assert systems(np.concatenate([small, small])) == 8 * (2**8 - 1)


def test_same_rows_groups_equal_rows_in_first_seen_order():
    mask = np.array([[1, 0], [0, 1], [1, 0], [1, 1], [0, 1]], dtype=bool)
    assert same_rows(mask) == [[0, 2], [1, 4], [3]]
    assert same_rows(mask.T) == [[0], [1]]


def _mixed_maps(panel):
    """Maps of dimension 8, 3 and 1, and three reading the gappy tmp/s05 at other lags."""
    return (sample_delay_maps(panel.catalog(), 12, 8, 4, 11, seed=5)
            + sample_delay_maps(panel.catalog(), 12, 3, 4, 11, seed=6)
            + sample_delay_maps(panel.catalog(), 6, 1, 4, 11, seed=7)
            + [DelayMap((("tmp", "s05", lag), ("wet", "s03", 4), ("wet", "s09", 6)))
               for lag in (4, 7, 11)])


def _every_size_groups(maps, stations, seed):
    """Groups whose station models take every size from 1 to the map's dimension."""
    rng = np.random.default_rng(seed)
    rows = []
    for i, dmap in enumerate(maps):
        fits = {}
        for j, st in enumerate(stations):
            k = (i + j) % dmap.dim + 1
            fits[st.station_id] = SubsetModel(
                columns=tuple(int(c) for c in np.sort(rng.choice(dmap.dim, k, replace=False))),
                coefficients=rng.standard_normal(k), intercept=float(rng.standard_normal()),
                rss=0.0, cp=0.0, n_rows=1)
        rows.append((i, dmap, fits))
    return table_groups("F8", rows)


def test_lagged_designs_equals_the_per_map_read(short_attractor):
    panel, _, _ = short_attractor
    panel = _gappy_panel(panel, short_attractor[1])
    maps = sample_delay_maps(panel.catalog(), 20, 3, 4, 11, seed=3)
    maps += [DelayMap((("tmp", "s05", lag), ("wet", "const", 5), ("wet", "s01", 9)))
             for lag in (4, 8)]
    for seasons in ((0, 30), (3, 60), (11, panel.n_seasons), (150, 181)):
        X = lagged_designs(maps, panel, seasons)
        assert X.shape == (len(maps), seasons[1] - seasons[0], 3)
        for dmap, x in zip(maps, X):
            assert np.array_equal(x, lagged_rows(panel, dmap, seasons)[0], equal_nan=True)
    with pytest.raises(ValueError, match="outside panel"):
        lagged_designs(maps, panel, (0, panel.n_seasons + 1))


@pytest.mark.parametrize("case", ["fitted", "every-size", "single-group"])
def test_predict_groups_equals_lone_predictions_bit_for_bit(short_attractor, case):
    panel, stations, _ = short_attractor
    complete = _screened_panel(panel)
    panel = _gappy_panel(panel, stations)  # tmp/s05 has gaps: usable rows differ
    maps = _mixed_maps(panel)
    assert {m.dim for m in maps} == {1, 3, 8}
    if case == "fitted":  # fitted on the complete panel, predicted on the gappy one
        groups = fit_model_groups("F8", maps, complete, stations)
    else:
        groups = _every_size_groups(maps, stations, seed=21)
        assert {m.size for g in groups[:12] for m in g.fits.values()} == set(range(1, 9))
    if case == "single-group":
        groups = groups[:1]
    # spans that start before the largest lag (NaN history rows) and after it
    for seasons in ((0, 60), (5, 49), (40, 181), (120, 125)):
        got = predict_groups(groups, panel, stations, seasons)
        want = np.stack([reference_predict(g, panel, stations, seasons) for g in groups])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got).any()
        if seasons[0] == 0:  # no lag reaches back to a season before 0
            assert np.isnan(got[:, :, :4]).all()
        if case != "single-group":  # groups differ in their usable rows
            assert len(same_rows(np.isfinite(got[:, 0]))) > 1
        for g, lone in zip(groups[:3], want):  # ModelGroup.predict is its one-group call
            assert np.array_equal(g.predict(panel, stations, seasons), lone, equal_nan=True)
