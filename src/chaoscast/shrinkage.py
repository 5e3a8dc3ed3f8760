"""Shrinkage correction and calibration.

Regressions with random predictors under-disperse their predictions.
A simulation with matched station-level correlation measures that
attenuation as a ratio of seasonal-mean standard deviations, predicted
over observed; a ``ShrinkageReport`` keeps that ratio, capped at 1, and
the observed sd, so the predicted sd is their product. The measured
factor then rescales predicted regional means, and station deviations
from the corrected mean are pulled toward it with the classic
(1 - (n-2)/||X||^2) shrinkage. A final affine calibration maps
combined predictions onto the observation scale over a prior window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

N_HOLDOUT = 4  # predicted points per station, treated as pseudo-seasons
MIN_REPS = 100  # fewest bootstrap replicates behind a measured factor
# bootstrap replicates per slice of the Y noise, the one scratch array the
# bootstrap allocates beside the draw buffer (the statistics are formed in place
# in the buffer, once per block). It is allocated on the thread that runs the
# bootstrap, whose own malloc arena keeps it resident: at 256 the pipeline's
# peak RSS rose 2 MB, and at 2000 18 MB, over 64
REP_SLICE = 64
CALIBRATION_DIRECTIONS = ("obs_on_pred", "pred_on_obs")
MIN_CALIBRATION_PAIRS = 3  # finite (prediction, observation) pairs a calibration needs


@dataclass
class ShrinkageReport:
    shrinkage_factor: float
    n_replicates: int
    sd_observed: float
    signal_noise_ratio: float  # sigma_R^2 implied by factor = s/(1+s)
    seed: int
    n_stations: int
    n_points: int
    target_r: float
    mean_fit_slope: float = np.nan  # estimates target_r (see bootstrap_shrinkage)

    def __post_init__(self):
        if not 0.0 < self.shrinkage_factor <= 1.0:
            raise ValueError("shrinkage_factor must lie in (0, 1]")
        if self.sd_observed <= 0.0:
            raise ValueError("sd_observed must be positive")


def draw_buffer_shape(n_stations: int, n_points: int, n_reps: int) -> tuple[int, ...]:
    """The (2, block, stations, points) shape of the bootstrap's draw buffer.

    A block is the most replicates drawn at once: about 2e7 values per
    draw array, at most 20,000 replicates, and at least one. The block
    size fixes the order of the draws, so it fixes every bit of the report.
    """
    block = max(1, min(20_000, int(2e7 // (n_stations * n_points))))
    return (2, min(block, n_reps), n_stations, n_points)


def bootstrap_shrinkage(n_stations: int, n_points: int = 100,
                        target_r: float = 1.0 / 3.0, n_reps: int = 2000,
                        seed: int = 0, draws: np.ndarray | None = None) -> ShrinkageReport:
    """Measure prediction shrinkage on a matched Gaussian toy system.

    Per replicate and station: a latent standard-normal signal X1 of
    ``n_points`` values; predictor X2 = X1 + noise and response
    Y = X1 + independent noise, with noise variance 1/target_r - 1 so
    corr(Y, X2) = target_r (variance 2 at the default 1/3). Y is
    regressed on X2 over all but the last four points, the last four are
    predicted, and those four indices are averaged across stations as
    pseudo-seasons. The factor is the replicate-averaged sd of predicted
    seasonal means over the sd of observed ones. The slope of Y on X2 is
    cov 1 over var(X2) = 1/target_r, so ``mean_fit_slope``, its replicate
    and station mean, checks the toy system against ``target_r``.

    Replicates run in blocks (see :func:`draw_buffer_shape`). Per block the
    draws come in a fixed order: all of X1, then all of the X2 noise, then
    the Y noise, one ``REP_SLICE`` of replicates at a time. X1 fills
    ``draws[0]`` and the X2 noise ``draws[1]``, which becomes X2 in place;
    each slice of Y noise is added into X1's own rows, which then hold Y.
    The slice bounds the Y-noise scratch, the one block-scaled array
    allocated here. The statistics are then formed once per block, in place
    in the buffer: the fit columns are centred and multiplied into the
    cross and square sums, and the hold-out prediction overwrites X2's
    hold-out columns. Each is the same operation on the same values as on a
    temporary, so the report is the same to the bit, and a block costs a
    few dozen numpy calls, not a few dozen per slice (fewer GIL handoffs
    while another thread runs beside it).
    ``draws`` is an uninitialised float64 buffer of exactly that shape, so
    a caller can allocate it in another thread than the one that runs the
    bootstrap; by default it is allocated here. ValueError if it has
    another shape or dtype.
    """
    if n_reps < MIN_REPS:
        raise ValueError(f"n_reps must be >= {MIN_REPS}")
    if n_stations < 1:
        raise ValueError("n_stations must be >= 1")
    if n_points <= N_HOLDOUT + 2:
        raise ValueError(f"n_points must exceed {N_HOLDOUT + 2}")
    if not 0.0 < target_r < 1.0:
        raise ValueError("target_r must lie in (0, 1)")
    shape = draw_buffer_shape(n_stations, n_points, n_reps)
    if draws is None:
        draws = np.empty(shape)
    elif draws.shape != shape or draws.dtype != np.float64:
        raise ValueError(f"draws must be a float64 array of shape {shape}, "
                         f"not {draws.dtype} {draws.shape}")
    noise_sd = np.sqrt(1.0 / target_r - 1.0)
    rng = derive_rng(seed, "bootstrap-shrinkage")
    n_fit = n_points - N_HOLDOUT

    sd_obs_sum = sd_pred_sum = slope_sum = 0.0
    done = 0
    while done < n_reps:
        b = min(shape[1], n_reps - done)
        y, x2 = draws[0, :b], draws[1, :b]  # y holds x1 until its noise is added
        rng.standard_normal(out=y)
        rng.standard_normal(out=x2)
        x2 *= noise_sd
        x2 += y
        for lo in range(0, b, REP_SLICE):
            hi = min(lo + REP_SLICE, b)
            noise = rng.standard_normal((hi - lo, n_stations, n_points))
            noise *= noise_sd
            y[lo:hi] += noise
            del noise
        # (replicates, N_HOLDOUT) means across stations
        sd_obs_sum += float(np.sum(y[..., n_fit:].mean(axis=1).std(axis=1, ddof=1)))
        # the fit's statistics, in place in the fit columns
        xf, yf = x2[..., :n_fit], y[..., :n_fit]
        xm = xf.mean(axis=2, keepdims=True)
        ym = yf.mean(axis=2, keepdims=True)
        xf -= xm
        yf -= ym
        yf *= xf
        sxy = yf.sum(axis=2)
        xf *= xf
        slope = sxy / xf.sum(axis=2)
        # the hold-out prediction, in place in X2's hold-out columns
        pred = x2[..., n_fit:]
        pred *= slope[..., None]
        pred += (ym[..., 0] - slope * xm[..., 0])[..., None]
        sd_pred_sum += float(np.sum(pred.mean(axis=1).std(axis=1, ddof=1)))
        slope_sum += float(np.sum(slope)) / n_stations
        done += b

    sd_obs = sd_obs_sum / n_reps
    sd_pred = sd_pred_sum / n_reps
    factor = min(sd_pred / sd_obs, 1.0)
    return ShrinkageReport(
        shrinkage_factor=factor, n_replicates=n_reps,
        sd_observed=sd_obs,
        signal_noise_ratio=factor / (1.0 - factor) if factor < 1.0 else np.inf,
        seed=seed, n_stations=n_stations, n_points=n_points,
        target_r=target_r, mean_fit_slope=slope_sum / n_reps)


def apply_bias_correction(raw_means, factor: float):
    """Invert the measured shrinkage: divide predicted means by the factor."""
    if factor <= 0.0:
        raise ValueError("shrinkage factor must be positive")
    return np.asarray(raw_means, dtype=float) / factor


def stein_adjust(pred: np.ndarray, shrink_factor: float,
                 positive_part: bool = False) -> np.ndarray:
    """Bias-correct and shrink a (..., stations, seasons) prediction stack.

    The measured shrinkage is inverted (restoring the anomaly scale, on
    which the factor's signal-to-noise approximation holds), then each
    season's station deviations X from its corrected mean mu become
    (1 - (n-2)/||X||^2) X + mu; ``positive_part`` clamps a negative
    factor at zero. A zero X returns mu, a season with a non-finite
    station is NaN, and fewer than 3 stations skip the deviation
    shrinkage. Seasons are the contiguous rows of a copy, so mu and
    ||X||^2 are the same sum and ``ddot`` as on a lone 1-D column: a
    matrix gives the same bits alone or in a stack.
    """
    pred = np.asarray(pred, dtype=float)
    if pred.ndim < 2:
        raise ValueError("pred must be (..., stations, seasons)")
    n = pred.shape[-2]
    cols = apply_bias_correction(np.ascontiguousarray(np.swapaxes(pred, -1, -2)),
                                 shrink_factor)
    finite = np.isfinite(cols).all(axis=-1, keepdims=True)
    with np.errstate(all="ignore"):  # non-finite seasons are masked below
        if n >= 3:
            mu = cols.mean(axis=-1, keepdims=True)
            dev = cols - mu
            norm2 = (dev[..., None, :] @ dev[..., :, None])[..., 0]
            factor = 1.0 - (n - 2) / norm2
            if positive_part:
                factor = np.maximum(factor, 0.0)
            cols = np.where(norm2 == 0.0, 0.0, factor * dev) + mu
    return np.swapaxes(np.where(finite, cols, np.nan), -1, -2)


@dataclass
class CalibrationResult:
    slope: float
    intercept: float

    def apply(self, predictions):
        return self.slope * np.asarray(predictions, dtype=float) + self.intercept


def calibrate(predictions, observations,
              direction: str = "obs_on_pred") -> CalibrationResult:
    """Affine map from combined predictions to the observation scale.

    Fitted over a window preceding prediction. The default regresses
    observations on predictions; ``direction="pred_on_obs"`` fits the
    reverse regression and inverts it. Zero-variance predictions
    degenerate to climatology (slope 0, intercept = window mean).
    """
    p = np.asarray(predictions, dtype=float).ravel()
    o = np.asarray(observations, dtype=float).ravel()
    if p.shape != o.shape:
        raise ValueError("predictions and observations must align")
    ok = np.isfinite(p) & np.isfinite(o)
    if ok.sum() < MIN_CALIBRATION_PAIRS:
        raise ValueError(f"need at least {MIN_CALIBRATION_PAIRS} paired seasons to calibrate")
    p, o = p[ok], o[ok]
    vp = float(np.var(p))
    vo = float(np.var(o))
    if direction not in CALIBRATION_DIRECTIONS:
        raise ValueError("unknown calibration direction")
    if vp <= 1e-24 or (direction == "pred_on_obs" and vo <= 1e-24):
        return CalibrationResult(slope=0.0, intercept=float(o.mean()))
    cov = float(np.mean((p - p.mean()) * (o - o.mean())))
    if direction == "obs_on_pred":
        slope = cov / vp
        intercept = float(o.mean() - slope * p.mean())
    else:
        b = cov / vo  # pred = b * obs + a, inverted
        if abs(b) < 1e-24:
            return CalibrationResult(slope=0.0, intercept=float(o.mean()))
        slope = 1.0 / b
        intercept = float(o.mean() - slope * p.mean())
    return CalibrationResult(slope=slope, intercept=intercept)
