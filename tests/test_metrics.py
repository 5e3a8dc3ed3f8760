import numpy as np
import pytest

from chaoscast.metrics import (
    SkillReport,
    adjusted_dof,
    benjamini_hochberg,
    box_ljung,
    correlation_pvalue,
    heidke_skill,
    pooled_correlations,
    running_skill,
    tercile_boundaries,
)


def t_tail_by_quadrature(t, dof, dps=50):
    """Independent oracle: adaptive quadrature of the t density."""
    import mpmath as mp

    with mp.workdps(dps):
        nu = mp.mpf(dof)
        c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
        val = mp.quad(lambda x: c * (1 + x * x / nu) ** (-(nu + 1) / 2),
                      [t, mp.inf])
        return float(val)


def box_ljung_by_quadrature(x, n_lags, dps=50):
    """Independent oracle: Q summed in mpmath, its chi-square tail by quadrature."""
    import mpmath as mp

    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in x]
        n = len(xs)
        mean = mp.fsum(xs) / n
        d = [v - mean for v in xs]
        denom = mp.fsum(v * v for v in d)
        q = n * (n + 2) * mp.fsum(
            (mp.fsum(d[t] * d[t - k] for t in range(k, n)) / denom) ** 2 / (n - k)
            for k in range(1, n_lags + 1))
        h = mp.mpf(n_lags) / 2
        c = 1 / (mp.gamma(h) * 2**h)
        tail = mp.quad(lambda u: c * u ** (h - 1) * mp.exp(-u / 2), [q, mp.inf])
        return float(q), float(tail)


def reference_pooled_correlation(pred, obs) -> tuple[float, bool]:
    """Per-row reference for ``pooled_correlations``: one prediction at a time.

    Pearson r over all finite (station, season) pairs, from the 1-D
    vectors of those pairs; fewer than 3 pairs or zero variance gives 0
    with a degenerate flag.
    """
    p = np.asarray(pred, dtype=float).ravel()
    o = np.asarray(obs, dtype=float).ravel()
    ok = np.isfinite(p) & np.isfinite(o)
    if ok.sum() < 3:
        return 0.0, True
    a, b = p[ok], o[ok]
    da, db = a - a.mean(), b - b.mean()
    va, vb = float(da @ da), float(db @ db)
    if va <= 0.0 or vb <= 0.0:
        return 0.0, True
    r = float(da @ db / np.sqrt(va * vb))
    return float(np.clip(r, -1.0, 1.0)), False


def one_row_r(a, b):
    """The kernel's one-row call: a lone (1, n) prediction against (1, n) observations."""
    return pooled_correlations(np.atleast_2d(a), np.atleast_2d(b))[0]


def test_pearson_endpoints():
    a = np.array([0.3, 1.2, -0.7, 2.2])
    assert one_row_r(a, a) == pytest.approx(1.0)
    assert one_row_r(a, -a) == pytest.approx(-1.0)


def test_pearson_hand_dataset():
    r = one_row_r([1.0, 2.0, 3.0], [2.0, 4.0, 5.0])
    assert r == pytest.approx(0.9820, abs=1e-4)


def test_pearson_zero_variance_is_degenerate_zero():
    assert one_row_r([1.0, 1.0, 1.0], [0.0, 2.0, 5.0]) == 0.0
    r, degenerate, n_pairs = pooled_correlations([[1.0, 1.0, 1.0]], [[0.0, 2.0, 5.0]])
    assert (r, degenerate, n_pairs) == (0.0, True, 3)


def test_pearson_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(50), rng.standard_normal(50)
    r = one_row_r(a, b)
    assert one_row_r(3.0 * a + 1.0, b) == pytest.approx(r, abs=1e-12)
    assert one_row_r(a, 0.1 * b - 7.0) == pytest.approx(r, abs=1e-12)
    assert one_row_r(-2.0 * a, b) == pytest.approx(-r, abs=1e-12)


def _prediction_stack(rng, lead, obs):
    """Correlated predictions shaped lead + obs.shape, with NaN history columns
    (a span from season 0: each row misses its first 0-11 seasons), scattered
    -inf values, and offsets and scales that stress the mean's rounding."""
    pred = (0.4 * obs + rng.standard_normal(lead + obs.shape)) * rng.choice(
        [1e-3, 1.0, 7.0], lead + (1, 1)) + rng.choice([0.0, -3.5, 1e4], lead + (1, 1))
    history = rng.choice([0, 4, 7, 11], lead)
    for idx in np.ndindex(lead):
        pred[idx][:, :history[idx]] = np.nan
    pred[rng.random(pred.shape) < 0.01] = -np.inf
    return pred


def _plant_edge_rows(pred):
    """An all-inf row, zero-variance rows, and rows of 2 and 3 pairs."""
    flat = pred.reshape(-1, *pred.shape[-2:])
    flat[0] = np.inf
    flat[1] = 0.75  # exact in binary, so its mean is too
    flat[2, :, :3] = -2.0
    flat[3] = np.nan
    flat[3, 0, -2:] = (1.0, 2.0)
    flat[4] = np.nan
    flat[4, 1, -3:] = (1.0, -2.0, 0.5)


@pytest.mark.parametrize("lead, seasons", [((), 30), ((40,), 30), ((3, 25), 18),
                                           ((300,), 250), ((2, 150), 60)])
def test_pooled_correlations_equal_the_per_row_reference_bit_for_bit(lead, seasons):
    rng = np.random.default_rng(len(lead) * 1000 + seasons)
    obs = rng.standard_normal((4, seasons))
    obs[1, 5] = obs[3, -1] = np.nan  # NaN observations
    pred = _prediction_stack(rng, lead, obs)
    if lead:
        _plant_edge_rows(pred)
    for observed in (obs, np.where(np.isfinite(obs), 0.25, np.nan)):  # and a constant block
        r, degenerate, n_pairs = pooled_correlations(pred, observed)
        assert np.shape(r) == np.shape(degenerate) == np.shape(n_pairs) == lead
        expected = [reference_pooled_correlation(pred[idx], observed) for idx in np.ndindex(lead)]
        ok = np.isfinite(pred) & np.isfinite(observed)
        # bits, so sign bits count too
        assert (np.reshape(r, -1).view(np.uint64)
                == np.array([e[0] for e in expected]).view(np.uint64)).all()
        assert np.reshape(degenerate, -1).tolist() == [e[1] for e in expected]
        assert np.array_equal(n_pairs, ok.sum(axis=(-2, -1)))
        if lead and observed is obs:  # the planted rows
            assert degenerate.reshape(-1)[[0, 1, 3]].all() and not degenerate.reshape(-1)[4]
            assert n_pairs.reshape(-1)[[0, 3, 4]].tolist() == [0, 2, 3]
    assert np.all(degenerate) and not np.any(r)  # under the constant block
    with pytest.raises(ValueError):
        pooled_correlations(pred, obs[:, 1:])


def test_pvalue_trivial_points():
    assert correlation_pvalue(0.0, 33) == pytest.approx(0.5)
    assert correlation_pvalue(1.0, 10) == 0.0
    assert correlation_pvalue(-1.0, 10) == 0.0


TABLE1 = [  # (r, dof, reported p)
    (0.894, 33, 2.3e-13),
    (0.532, 22, 0.003),
    (0.455, 22, 0.01),
    (0.757, 28, 6.3e-7),
]


@pytest.mark.parametrize("r,dof,reported", TABLE1)
def test_pvalue_matches_reported_values(r, dof, reported):
    p = correlation_pvalue(r, dof)
    assert reported / 3.0 <= p <= reported * 3.0


@pytest.mark.parametrize("r,dof", [(r, d) for r, d, _ in TABLE1] + [(0.2, 5), (0.95, 60)])
def test_pvalue_agrees_with_quadrature_oracle(r, dof):
    t = r * np.sqrt(dof / (1.0 - r * r))
    oracle = t_tail_by_quadrature(t, dof)
    p = correlation_pvalue(r, dof)
    assert abs(p - oracle) <= 1e-10 * oracle


def test_pvalue_monotone_in_r_and_dof():
    rs = np.linspace(0.05, 0.9, 12)
    ps = [correlation_pvalue(r, 20) for r in rs]
    assert np.all(np.diff(ps) < 0)
    ps_dof = [correlation_pvalue(0.4, d) for d in (5, 10, 20, 40, 80)]
    assert np.all(np.diff(ps_dof) < 0)


def test_adjusted_dof():
    assert adjusted_dof(40, 5) == 33
    assert adjusted_dof(30, 0) == 28
    with pytest.raises(ValueError):
        adjusted_dof(7, 5)


def _spread_values(rng, n, boundaries):
    # values guaranteed to visit all three categories
    lo, hi = boundaries
    cats = rng.integers(0, 3, size=n)
    pick = {0: lo - 1.0, 1: (lo + hi) / 2.0, 2: hi + 1.0}
    return np.array([pick[c] for c in cats]), cats


def test_heidke_perfect_is_100():
    rng = np.random.default_rng(1)
    bounds = (-0.43, 0.43)
    vals, _ = _spread_values(rng, 30, bounds)
    assert heidke_skill(vals, vals, bounds) == pytest.approx(100.0)


def test_heidke_always_wrong_is_minus_50():
    bounds = (-0.43, 0.43)
    pred = np.array([-1.0, 0.0, 1.0] * 10)
    obs = np.array([0.0, 1.0, -1.0] * 10)  # category always differs
    assert heidke_skill(pred, obs, bounds) == pytest.approx(-50.0)


def test_heidke_random_categories_mean_near_zero():
    rng = np.random.default_rng(2)
    trials, n = 10_000, 30
    cp = rng.integers(0, 3, size=(trials, n))
    co = rng.integers(0, 3, size=(trials, n))
    hits = (cp == co).sum(axis=1)
    hss = 100.0 * (hits - n / 3.0) / (n - n / 3.0)
    assert abs(hss.mean()) < 2.0


def test_heidke_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    pred, obs = rng.standard_normal(40), rng.standard_normal(40)
    ref = rng.standard_normal(200)
    bounds = tercile_boundaries(ref)
    base = heidke_skill(pred, obs, bounds)

    def warp(x):
        return np.exp(x) + 0.1 * x  # strictly increasing

    warped_bounds = (warp(np.array([bounds[0]]))[0], warp(np.array([bounds[1]]))[0])
    assert heidke_skill(warp(pred), warp(obs), warped_bounds) == pytest.approx(base)


def test_running_skill_perfect_and_global_consistency():
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((3, 12))
    bounds = tercile_boundaries(obs.ravel())
    curve = running_skill(obs, obs, bounds, window=4)
    assert all(r == pytest.approx(1.0) and h == pytest.approx(100.0)
               for _, r, h in curve)
    full = running_skill(obs, obs, bounds, window=12)
    assert len(full) == 1


def test_running_skill_constant_predictions():
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((2, 8))
    pred = np.zeros_like(obs)
    bounds = (-0.43, 0.43)
    curve = running_skill(pred, obs, bounds, window=4)
    for _, r, h in curve:
        assert r == 0.0  # degenerate contract
        assert np.isfinite(h)


def test_running_skill_gap_marker():
    obs = np.full((1, 8), np.nan)
    obs[0, :2] = 1.0
    pred = np.ones_like(obs)
    curve = running_skill(pred, obs, (-1.0, 1.0), window=4)
    assert any(np.isnan(r) for _, r, _ in curve)


def test_box_ljung_zero_autocorrelation_series():
    # every lag-1 product hits a zero entry; Q is exactly 0
    x = np.array([1.0, 0.0, -1.0, 0.0] * 5)
    q, p = box_ljung(x, 1)
    assert q == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_box_ljung_matches_reference_implementation():
    sm = pytest.importorskip("statsmodels.stats.diagnostic")
    rng = np.random.default_rng(6)
    x = rng.standard_normal(80)
    q, p = box_ljung(x, 6)
    table = sm.acorr_ljungbox(x, lags=[6])
    assert q == pytest.approx(float(table["lb_stat"].iloc[0]), rel=1e-9)
    assert p == pytest.approx(float(table["lb_pvalue"].iloc[0]), rel=1e-9)


@pytest.mark.parametrize("n_lags", [1, 6])
def test_box_ljung_matches_a_high_precision_reference(n_lags):
    x = np.random.default_rng(6).standard_normal(80)
    q, p = box_ljung(x, n_lags)
    want_q, want_p = box_ljung_by_quadrature(x, n_lags)
    assert q == pytest.approx(want_q, rel=1e-12)
    assert p == pytest.approx(want_p, rel=1e-12)


def test_box_ljung_white_noise_rejection_rate():
    rng = np.random.default_rng(7)
    n, h, trials = 100, 10, 10_000
    x = rng.standard_normal((trials, n))
    x = x - x.mean(axis=1, keepdims=True)
    denom = np.sum(x * x, axis=1)
    q = np.zeros(trials)
    for k in range(1, h + 1):
        rho = np.sum(x[:, k:] * x[:, :-k], axis=1) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    from scipy import special
    pvals = special.chdtrc(h, q)
    rate = float(np.mean(pvals < 0.05))
    assert abs(rate - 0.05) < 0.015


def test_box_ljung_detects_strong_ar1():
    rng = np.random.default_rng(8)
    reject = 0
    trials = 500
    for _ in range(trials):
        e = rng.standard_normal(100)
        x = np.empty(100)
        x[0] = e[0]
        for t in range(1, 100):
            x[t] = 0.9 * x[t - 1] + e[t]
        _, p = box_ljung(x, 10)
        reject += p < 0.001
    assert reject / trials >= 0.99


def test_box_ljung_affine_invariance_and_errors():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(60)
    q1, _ = box_ljung(x, 5)
    q2, _ = box_ljung(3.5 * x - 2.0, 5)
    assert q1 == pytest.approx(q2, rel=1e-12)
    with pytest.raises(ValueError):
        box_ljung(np.ones(50), 5)
    with pytest.raises(ValueError):
        box_ljung(x[:5], 5)


def test_benjamini_hochberg_trivial_and_hand_example():
    assert benjamini_hochberg([1.0, 1.0, 1.0], 0.05) == set()
    rejected = benjamini_hochberg([0.01, 0.02, 0.04, 0.5], 0.05)
    assert rejected == {0, 1}


def test_benjamini_hochberg_null_fdr_controlled():
    rng = np.random.default_rng(10)
    trials, m, q = 10_000, 20, 0.05
    p = rng.uniform(size=(trials, m))
    p_sorted = np.sort(p, axis=1)
    thresholds = q * np.arange(1, m + 1) / m
    any_reject = np.any(p_sorted <= thresholds, axis=1)
    # under the global null every rejection is false, so FDR = P(reject any)
    assert any_reject.mean() <= q + 0.01


def test_benjamini_hochberg_monotone_in_q():
    rng = np.random.default_rng(11)
    p = rng.uniform(size=40)
    r1 = benjamini_hochberg(p, 0.02)
    r2 = benjamini_hochberg(p, 0.1)
    assert r1 <= r2


def test_skill_report_validation():
    with pytest.raises(ValueError):
        SkillReport(1.5, 10, 0.5, 0.0, 12)
    with pytest.raises(ValueError):
        SkillReport(0.5, 0, 0.5, 0.0, 12)
    SkillReport(0.5, 10, 0.5, 10.0, 12)
