"""Tuning-parameter estimation from anomaly-pattern fit.

Each library attractor's keys are scored on a target period; one-sided
p-values of their predictive correlations go through an FDR cut, the
per-attractor counts of surviving keys are smoothed along the parameter
axis, and the count-weighted mean of the best-supported attractors'
parameters is the estimate. Chaos runs the forward direction (parameter
fixes the anomaly statistics); this inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import observation_matrix, predict_groups
from .metrics import adjusted_dof, benjamini_hochberg, correlation_pvalue, pooled_correlations
from .panel import Panel


@dataclass
class InversionResult:
    attractor_ids: tuple[str, ...]  # sorted by parameter value
    parameters: tuple[float, ...]
    raw_counts: tuple[int, ...]
    smoothed_counts: tuple[float, ...]
    chosen: tuple[str, ...]
    estimate: float | None  # parameter units, count-weighted over chosen; None: no estimate
    observable_estimate: float | None
    q: float

    def __post_init__(self):
        if not set(self.chosen) <= set(self.attractor_ids):
            raise ValueError("chosen attractors must come from the library")
        chosen_params = [p for a, p in zip(self.attractor_ids, self.parameters)
                         if a in self.chosen]
        if chosen_params and not (min(chosen_params) - 1e-12 <= self.estimate
                                  <= max(chosen_params) + 1e-12):
            raise ValueError("estimate must lie within the chosen parameter range")


def key_significance_counts(keys_by_attractor: dict[str, list], panel: Panel,
                            target_window: tuple[int, int], q: float = 0.01,
                            n_fitted_means: int | None = None) -> dict[str, int]:
    """Per attractor: how many keys pass the FDR cut on the target period.

    Each key's pooled predictive correlation becomes a one-sided p-value
    on degrees of freedom adjusted for the fitted regional seasonal
    means (one per target season unless overridden); the step-up FDR
    rule at level q runs within each attractor's key set. The keys of an
    attractor share their stations; each distinct member (by
    ``map_index``) is predicted once, a key combines its rows of that
    stack, and the combined keys are correlated in one call.
    """
    if n_fitted_means is None:
        n_fitted_means = target_window[1] - target_window[0]
    counts = {}
    for attractor_id in sorted(keys_by_attractor):
        keys = keys_by_attractor[attractor_id]
        if not keys:
            raise ValueError(f"attractor {attractor_id} has no keys")
        stations = keys[0].stations
        members = {g.map_index: g for key in keys for g in key.members}
        row = {map_index: i for i, map_index in enumerate(members)}
        stack = predict_groups(members.values(), panel, stations, target_window)
        preds = np.stack([key.combine(stack[[row[g.map_index] for g in key.members]])
                          for key in keys])
        rs, degenerate, n_pairs = pooled_correlations(
            preds, observation_matrix(panel, stations, target_window))
        pvals = [1.0 if flat or n <= n_fitted_means + 2 else
                 correlation_pvalue(float(r), adjusted_dof(int(n), n_fitted_means))
                 for r, flat, n in zip(rs, degenerate, n_pairs)]
        counts[attractor_id] = len(benjamini_hochberg(pvals, q))
    return counts


def smooth_counts(counts, parameters, bandwidth: float | None = None) -> np.ndarray:
    """Triangular moving weighted average along the sorted parameter axis.

    Weights fall linearly from 1 at distance 0 to 0 at 2*bandwidth, so
    the default bandwidth of one grid step spreads a spike to its
    immediate neighbors; endpoints renormalize by the weights present.
    Bandwidth 0 (or a single attractor) is the identity.
    """
    counts = np.asarray(counts, dtype=float)
    parameters = np.asarray(parameters, dtype=float)
    if counts.shape != parameters.shape:
        raise ValueError("counts and parameters must align")
    if counts.size < 3:
        raise ValueError("need at least 3 attractors to smooth")
    if np.any(np.diff(parameters) <= 0):
        raise ValueError("parameters must be strictly increasing")
    if bandwidth is None:
        bandwidth = float(np.median(np.diff(parameters)))
    if bandwidth <= 0.0:
        return counts.copy()
    dist = np.abs(parameters[:, None] - parameters[None, :])
    weights = np.clip(1.0 - dist / (2.0 * bandwidth), 0.0, None)
    return (weights @ counts) / weights.sum(axis=1)


def estimate_parameter(attractor_ids, parameters, raw_counts, smoothed_counts,
                       q: float, fraction_of_max: float = 0.9,
                       observables=None) -> InversionResult:
    """Count-weighted parameter mean over the best-supported attractors.

    Attractors whose smoothed count reaches ``fraction_of_max`` of the
    maximum are selected; ``observables`` (one steady-state summary per
    attractor, the trailing-seasons analog) yields a second estimate on
    the observable axis when provided. When no smoothed count is above
    0, no attractor has an FDR-significant key: the result is a
    no-estimate one, with both estimates None, nothing chosen and the
    counts kept.
    """
    attractor_ids = tuple(attractor_ids)
    parameters = np.asarray(parameters, dtype=float)
    raw_counts = np.asarray(raw_counts)
    smoothed = np.asarray(smoothed_counts, dtype=float)
    if not 0.0 < fraction_of_max <= 1.0:
        raise ValueError("fraction_of_max must lie in (0, 1]")
    peak = float(smoothed.max(initial=0.0))
    mask = (smoothed >= fraction_of_max * peak) & (peak > 0.0)
    estimate = observable_estimate = None
    if mask.any():
        weights = smoothed[mask]
        estimate = float(weights @ parameters[mask] / weights.sum())
        if observables is not None:
            observables = np.asarray(observables, dtype=float)
            observable_estimate = float(weights @ observables[mask] / weights.sum())
    return InversionResult(
        attractor_ids=attractor_ids,
        parameters=tuple(float(p) for p in parameters),
        raw_counts=tuple(int(c) for c in raw_counts),
        smoothed_counts=tuple(float(s) for s in smoothed),
        chosen=tuple(a for a, m in zip(attractor_ids, mask) if m),
        estimate=estimate, observable_estimate=observable_estimate, q=q)


def invert_parameter(library, keys_by_attractor: dict[str, list], panel: Panel,
                     target_window: tuple[int, int], q: float = 0.01,
                     bandwidth: float | None = None, fraction_of_max: float = 0.9,
                     n_fitted_means: int | None = None,
                     trailing_seasons: int = 100) -> InversionResult:
    """Full inversion: significance counts -> smoothing -> selection."""
    order = sorted(library, key=lambda a: a.parameter.value)
    ids = [a.label for a in order]
    missing = [i for i in ids if i not in keys_by_attractor]
    if missing:
        raise ValueError(f"attractors without keys: {missing}")
    counts = key_significance_counts(keys_by_attractor, panel, target_window,
                                     q=q, n_fitted_means=n_fitted_means)
    params = [a.parameter.value for a in order]
    raw = [counts[i] for i in ids]
    smoothed = smooth_counts(raw, params, bandwidth=bandwidth)
    observables = [a.trailing_mean(n_seasons=trailing_seasons) for a in order]
    return estimate_parameter(ids, params, raw, smoothed, q=q,
                              fraction_of_max=fraction_of_max,
                              observables=observables)
