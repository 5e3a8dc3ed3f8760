import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from chaoscast.seeding import derive_rng
from chaoscast.shrinkage import (
    N_HOLDOUT,
    CalibrationResult,
    ShrinkageReport,
    apply_bias_correction,
    bootstrap_shrinkage,
    calibrate,
    draw_buffer_shape,
    stein_adjust,
)


def reference_stein_adjust(pred, shrink_factor, positive_part=False):
    """The per-season loop stein_adjust replaced, with its James-Stein step."""
    corrected = apply_bias_correction(pred, shrink_factor)
    n = pred.shape[0]
    out = np.full_like(corrected, np.nan)
    for t in range(pred.shape[1]):
        col = corrected[:, t]
        if not np.all(np.isfinite(col)):
            continue
        mu = float(col.mean())
        if n < 3:
            out[:, t] = col
            continue
        X = col - mu
        norm2 = float(X @ X)
        if norm2 == 0.0:
            out[:, t] = np.zeros_like(X) + mu
            continue
        factor = 1.0 - (n - 2) / norm2
        if positive_part:
            factor = max(factor, 0.0)
        out[:, t] = factor * X + mu
    return out


def shrink_column(X, mu, positive_part=False):
    """stein_adjust at factor 1 on one season whose deviations X are centred."""
    return stein_adjust((X + mu)[:, None], 1.0, positive_part=positive_part)[:, 0]


def reference_bootstrap_shrinkage(n_stations, n_points=100, target_r=1.0 / 3.0,
                                  n_reps=2000, seed=0):
    """The whole-block bootstrap loop that bootstrap_shrinkage replaced."""
    noise_var = 1.0 / target_r - 1.0
    rng = derive_rng(seed, "bootstrap-shrinkage")
    n_fit = n_points - N_HOLDOUT
    sd_obs_sum = sd_pred_sum = slope_sum = 0.0
    done = 0
    block = max(1, min(20_000, int(2e7 // (n_stations * n_points)) or 1))
    while done < n_reps:
        b = min(block, n_reps - done)
        shape = (b, n_stations, n_points)
        x1 = rng.standard_normal(shape)
        x2 = x1 + np.sqrt(noise_var) * rng.standard_normal(shape)
        y = x1 + np.sqrt(noise_var) * rng.standard_normal(shape)
        xf, yf = x2[..., :n_fit], y[..., :n_fit]
        xm = xf.mean(axis=2, keepdims=True)
        ym = yf.mean(axis=2, keepdims=True)
        sxx = np.sum((xf - xm) ** 2, axis=2)
        sxy = np.sum((xf - xm) * (yf - ym), axis=2)
        slope = sxy / sxx
        intercept = ym[..., 0] - slope * xm[..., 0]
        pred = intercept[..., None] + slope[..., None] * x2[..., n_fit:]
        obs = y[..., n_fit:]
        sd_pred_sum += float(np.sum(pred.mean(axis=1).std(axis=1, ddof=1)))
        sd_obs_sum += float(np.sum(obs.mean(axis=1).std(axis=1, ddof=1)))
        slope_sum += float(np.sum(slope)) / n_stations
        done += b
    sd_obs = sd_obs_sum / n_reps
    factor = min(sd_pred_sum / n_reps / sd_obs, 1.0)
    return ShrinkageReport(
        shrinkage_factor=factor, n_replicates=n_reps, sd_observed=sd_obs,
        sd_predicted=sd_obs * factor,
        signal_noise_ratio=factor / (1.0 - factor) if factor < 1.0 else np.inf,
        seed=seed, n_stations=n_stations, n_points=n_points, target_r=target_r,
        mean_fit_slope=slope_sum / n_reps)


@pytest.mark.parametrize("kwargs", [
    {"n_stations": 4}, {"n_stations": 1},
    {"n_stations": 7, "n_points": 37, "n_reps": 333},
    {"n_stations": 4, "n_reps": 30_000},  # two blocks of replicates
], ids=["4-stations", "1-station", "7-stations-37-points-333-reps", "two-blocks"])
def test_bootstrap_is_bit_identical_to_the_whole_block_loop(kwargs):
    assert asdict(bootstrap_shrinkage(seed=11, **kwargs)) == \
        asdict(reference_bootstrap_shrinkage(seed=11, **kwargs))


def test_bootstrap_takes_a_caller_buffer_of_its_one_shape():
    shape = draw_buffer_shape(7, 37, 333)
    assert shape == (2, 333, 7, 37)
    assert draw_buffer_shape(4, 100, 30_000) == (2, 20_000, 4, 100)
    assert draw_buffer_shape(20_000, 20_000, 100)[1] == 1
    # the buffer's old contents are never read
    assert asdict(bootstrap_shrinkage(7, 37, n_reps=333, seed=11,
                                      draws=np.full(shape, np.nan))) == \
        asdict(bootstrap_shrinkage(7, 37, n_reps=333, seed=11))
    # another block size would draw another stream
    for wrong in (np.empty((2, 332, 7, 37)), np.empty((2, 334, 7, 37)),
                  np.empty((333, 7, 37)), np.empty(shape, dtype=np.float32)):
        with pytest.raises(ValueError, match="draws must be a float64 array"):
            bootstrap_shrinkage(7, 37, n_reps=333, seed=11, draws=wrong)


def test_bootstrap_transient_memory_stays_below_14_mib():
    # two (2000, 4, 100) draw arrays take 12.2 MiB of it
    tracemalloc.start()
    try:
        bootstrap_shrinkage(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20


def test_bootstrap_forms_its_statistics_in_place_in_a_caller_buffer():
    # the Y-noise slice (200 KiB at 4 stations) and per-replicate vectors; one
    # statistic formed on a whole-block temporary would take 5.9 MiB
    draws = np.empty(draw_buffer_shape(4, 100, 2000))
    tracemalloc.start()
    try:
        bootstrap_shrinkage(4, draws=draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bootstrap_population_slope():
    # slope(Y~X2) = cov/var(X2) = 1/(1+2), the target corr(Y, X2)
    rep = bootstrap_shrinkage(n_stations=5, n_reps=10_000, seed=3)
    assert rep.mean_fit_slope == pytest.approx(1.0 / 3.0, abs=0.02)


def test_bootstrap_factor_agrees_with_larger_oracle():
    rep = bootstrap_shrinkage(n_stations=4, n_reps=2000, seed=5)
    oracle = bootstrap_shrinkage(n_stations=4, n_reps=20_000, seed=6)
    assert rep.shrinkage_factor == pytest.approx(oracle.shrinkage_factor, rel=0.02)


def test_bootstrap_report_invariants():
    rep = bootstrap_shrinkage(n_stations=3, n_reps=500, seed=7)
    assert 0.0 < rep.shrinkage_factor <= 1.0
    assert rep.sd_predicted / rep.sd_observed == pytest.approx(rep.shrinkage_factor)
    assert rep.signal_noise_ratio == pytest.approx(
        rep.shrinkage_factor / (1.0 - rep.shrinkage_factor))
    with pytest.raises(ValueError):
        bootstrap_shrinkage(n_stations=3, n_reps=50, seed=0)


def test_bias_correction_identity_and_inverse():
    assert np.allclose(apply_bias_correction([0.3, -0.2], 1.0), [0.3, -0.2])
    assert apply_bias_correction(np.array([0.2]), 0.5)[0] == pytest.approx(0.4)
    with pytest.raises(ValueError):
        apply_bias_correction([1.0], 0.0)


def test_bias_correction_round_trip_recovers_sd():
    # shrink a signal by the measured factor, correct, compare sd
    rng = np.random.default_rng(8)
    rep = bootstrap_shrinkage(n_stations=5, n_reps=2000, seed=9)
    signal = rng.standard_normal(5000)
    shrunk = signal * rep.shrinkage_factor
    restored = apply_bias_correction(shrunk, rep.shrinkage_factor)
    assert restored.std() == pytest.approx(signal.std(), rel=1e-12)


def test_james_stein_hand_case():
    X = np.array([2.0, -2.0, 1.0, -1.0, 0.0])  # ||X||^2 = 10, factor 1 - 3/10
    assert np.allclose(shrink_column(X, 2.0), 0.7 * X + 2.0)


def test_james_stein_exact_collapse_to_mean():
    # ||X||^2 = n - 2 makes the factor exactly zero
    X = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])
    assert np.all(shrink_column(X, 1.5) == 1.5)


def test_james_stein_zero_vector_and_small_n():
    assert np.all(shrink_column(np.zeros(4), 0.7) == 0.7)
    # fewer than 3 stations pass through unshrunk
    pred = np.array([[1.5, 0.2], [-0.5, 0.4]])
    assert np.array_equal(stein_adjust(pred, 1.0), pred)


def test_james_stein_negative_factor_documented_not_clamped():
    n = 10
    X = np.resize([0.1, -0.1], n)  # ||X||^2 = 0.1 < n - 2, factor = 1 - 8/0.1 = -79
    factor = 1.0 - (n - 2) / float(X @ X)
    assert factor < 0.0
    assert np.allclose(shrink_column(X, 0.0), factor * X)
    assert np.allclose(shrink_column(X, 0.3, positive_part=True), 0.3)


def test_james_stein_never_inflates_deviation_for_factor_in_unit_range():
    rng = np.random.default_rng(10)
    for _ in range(50):
        X = rng.standard_normal(8) * rng.uniform(0.5, 3.0)
        X -= X.mean()
        out = shrink_column(X, 0.0)
        factor = 1.0 - 6.0 / float(X @ X)
        if 0.0 <= factor <= 1.0:
            assert np.linalg.norm(out) <= np.linalg.norm(X) + 1e-12


def test_james_stein_dominates_raw_estimator():
    # classic risk dominance for a dim-10 Gaussian mean of moderate norm
    rng = np.random.default_rng(11)
    dim, reps = 10, 10_000
    theta = rng.standard_normal(dim)
    theta *= 2.0 / np.linalg.norm(theta)
    Z = theta + rng.standard_normal((reps, dim))
    norm2 = np.sum(Z * Z, axis=1)
    factor = 1.0 - (dim - 2) / norm2
    js = factor[:, None] * Z
    raw_risk = np.mean(np.sum((Z - theta) ** 2, axis=1))
    js_risk = np.mean(np.sum((js - theta) ** 2, axis=1))
    assert js_risk < raw_risk


def test_stein_adjust_matrix_shape_and_nan_columns():
    pred = np.array([[1.0, np.nan], [2.0, 1.0], [3.0, 2.0]])
    out = stein_adjust(pred, shrink_factor=0.5)
    assert out.shape == pred.shape
    assert np.all(np.isnan(out[:, 1]))
    corrected = pred[:, 0] / 0.5  # scale restored before taking deviations
    mu = corrected.mean()
    X = corrected - mu
    assert np.allclose(out[:, 0], (1.0 - 1.0 / float(X @ X)) * X + mu)


@pytest.mark.parametrize("positive_part", [False, True])
def test_stein_adjust_stack_is_bit_identical_to_the_per_season_loop(positive_part):
    rng = np.random.default_rng(22)
    for n in range(1, 13):
        stack = rng.standard_normal((20, n, 44)) * rng.uniform(0.05, 3.0, (20, 1, 1))
        stack[0, :, 3] = 0.7  # zero deviation vector
        stack[1, 0, 5] = np.nan  # one NaN station
        stack[2, :, 6] = np.nan
        stack[3, -1, 7] = np.inf
        got = stein_adjust(stack, 0.37, positive_part=positive_part)
        for g in range(stack.shape[0]):
            want = reference_stein_adjust(stack[g], 0.37, positive_part=positive_part)
            assert np.array_equal(got[g], want, equal_nan=True), (n, g)
            assert np.array_equal(np.signbit(got[g]), np.signbit(want))
        # a lone matrix gives the same bits as its row of the stack
        assert np.array_equal(stein_adjust(stack[4], 0.37, positive_part), got[4],
                              equal_nan=True)


def test_stein_adjust_regional_mean_matches_corrected_mean():
    # the per-season mean of the adjusted matrix is the bias-corrected
    # regional mean: deviations are centered so JS moves nothing net
    rng = np.random.default_rng(21)
    pred = rng.standard_normal((5, 7)) * 0.4
    out = stein_adjust(pred, shrink_factor=0.35)
    want = pred.mean(axis=0) / 0.35
    assert np.allclose(out.mean(axis=0), want)


def test_calibrate_identity_and_scaling():
    rng = np.random.default_rng(12)
    obs = rng.standard_normal(20)
    fit = calibrate(obs, obs)
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    fit2 = calibrate(0.5 * obs, obs)
    assert fit2.slope == pytest.approx(2.0)
    assert fit2.intercept == pytest.approx(0.0, abs=1e-12)


def test_calibrate_matches_closed_form():
    rng = np.random.default_rng(13)
    pred = rng.standard_normal(40)
    obs = 1.7 * pred - 0.4 + 0.3 * rng.standard_normal(40)
    fit = calibrate(pred, obs)
    vp = np.var(pred)
    cov = np.mean((pred - pred.mean()) * (obs - obs.mean()))
    assert fit.slope == pytest.approx(cov / vp, rel=1e-12)
    assert fit.intercept == pytest.approx(obs.mean() - fit.slope * pred.mean(), rel=1e-9)


def test_calibrate_degenerate_predictions_fall_back_to_climatology():
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    fit = calibrate(np.zeros(4), obs)
    assert fit.slope == 0.0
    assert fit.intercept == pytest.approx(obs.mean())


def test_calibrate_idempotent():
    rng = np.random.default_rng(14)
    pred = rng.standard_normal(30)
    obs = 0.6 * pred + 0.2 + 0.1 * rng.standard_normal(30)
    first = calibrate(pred, obs)
    calibrated = first.apply(pred)
    second = calibrate(calibrated, obs)
    assert second.slope == pytest.approx(1.0, abs=1e-8)
    assert second.intercept == pytest.approx(0.0, abs=1e-8)


def test_calibrate_reverse_direction_inverts():
    rng = np.random.default_rng(15)
    obs = rng.standard_normal(50)
    pred = 0.5 * obs + 0.1 * rng.standard_normal(50)
    fit = calibrate(pred, obs, direction="pred_on_obs")
    b = np.mean((pred - pred.mean()) * (obs - obs.mean())) / np.var(obs)
    assert fit.slope == pytest.approx(1.0 / b, rel=1e-9)
    with pytest.raises(ValueError):
        calibrate(pred, obs, direction="sideways")


def test_calibration_result_apply():
    fit = CalibrationResult(slope=2.0, intercept=-1.0)
    assert np.allclose(fit.apply([0.0, 1.0]), [-1.0, 1.0])
