from dataclasses import replace

import numpy as np
import pytest

from chaoscast.dynamics import (
    PERTURBATION,
    Observable,
    SurrogateConfig,
    Trajectory,
    TuningParameter,
    build_attractor_library,
    default_observables,
    detect_steady_state,
    integrate_grid,
    integrate_lorenz96,
    seasonal_aggregate,
    start_state,
    steady_run,
    synth_index,
)
from chaoscast.errors import IntegrationDivergedError, StationarityNotReachedError
from chaoscast.panel import Panel


def test_zero_forcing_zero_state_stays_zero():
    traj = integrate_lorenz96(0.0, 6, 0.05, 200, x0=np.zeros(6))
    assert np.all(traj.states == 0.0)


def test_constant_solution_is_fixed_point():
    # x == F makes the advection vanish and -x + F cancel exactly
    F = 7.5
    traj = integrate_lorenz96(F, 8, 0.05, 10_000, x0=np.full(8, F))
    assert np.allclose(traj.states, F, atol=1e-12)


def test_energy_decays_monotonically_at_zero_forcing():
    rng = np.random.default_rng(3)
    traj = integrate_lorenz96(0.0, 8, 0.01, 400, x0=rng.standard_normal(8))
    E = traj.energy()
    assert np.all(np.diff(E) <= 1e-12)


def test_energy_decay_matches_analytic_law():
    # advection conserves energy, the -x term gives dE/dt = -2E exactly
    rng = np.random.default_rng(4)
    traj = integrate_lorenz96(0.0, 8, 0.01, 500, x0=3.0 * rng.standard_normal(8))
    E = traj.energy()
    t = np.arange(E.size) * 0.01
    assert np.all(np.abs(E / (E[0] * np.exp(-2.0 * t)) - 1.0) < 0.01)


def test_step_halving_shrinks_error_sixteenfold():
    # RK4 self-convergence: global error ~ dt^4, reference at dt/8
    rng = np.random.default_rng(5)
    x0 = 8.0 + rng.standard_normal(8)
    T, dt = 0.5, 0.02

    def final_state(step):
        return integrate_lorenz96(8.0, 8, step, int(round(T / step)), x0=x0).states[-1]

    ref = final_state(dt / 8)
    e1 = np.linalg.norm(final_state(dt) - ref)
    e2 = np.linalg.norm(final_state(dt / 2) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_integration_divergence_names_step():
    with pytest.raises(IntegrationDivergedError) as err:
        integrate_lorenz96(8.0, 5, 2.0, 500, seed=1)
    assert err.value.step >= 1
    assert str(err.value.step) in str(err.value)


def test_integration_input_validation():
    with pytest.raises(ValueError):
        integrate_lorenz96(8.0, 3, 0.05, 10)
    with pytest.raises(ValueError):
        integrate_lorenz96(8.0, 8, -0.05, 10)
    with pytest.raises(ValueError):
        integrate_lorenz96(8.0, 8, 0.05, 10, x0=np.array([np.inf] * 8))


def test_integration_deterministic_given_seed():
    a = integrate_lorenz96(8.0, 6, 0.05, 100, seed=11)
    b = integrate_lorenz96(8.0, 6, 0.05, 100, seed=11)
    c = integrate_lorenz96(8.0, 6, 0.05, 100, seed=12)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def _reference_rhs(x, F):
    return (np.roll(x, -1) - np.roll(x, 2)) * np.roll(x, 1) - x + F


def _reference_rk4(x, F, dt, n_steps):
    """One ring stepped by np.roll, the single-ring reference for the batched kernel."""
    states = np.empty((n_steps + 1, x.size))
    states[0] = x
    for i in range(1, n_steps + 1):
        k1 = _reference_rhs(x, F)
        k2 = _reference_rhs(x + 0.5 * dt * k1, F)
        k3 = _reference_rhs(x + 0.5 * dt * k2, F)
        k4 = _reference_rhs(x + dt * k3, F)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i] = x
    return states


def _kicked_grid(forcings, seeds, K):
    """Every (forcing, seed) row of a grid, started as integrate_lorenz96 starts it."""
    rows = [(F, seed) for F in forcings for seed in seeds]
    x0 = np.stack([start_state(F, K, None, seed, PERTURBATION) for F, seed in rows])
    return x0, [F for F, _ in rows]


@pytest.mark.parametrize("K", [4, 5, 36])  # at K = 4, sites i+2 and i-2 coincide
def test_grid_rows_are_bit_identical_to_the_single_ring_reference(K):
    x0, forcings = _kicked_grid([5.0, 8.0, 10.0], [1, 2], K)
    states = integrate_grid(x0, forcings, 0.05, 400)
    assert states.shape == (6, 401, K)
    for row, F in enumerate(forcings):
        assert np.array_equal(states[row], _reference_rk4(x0[row], F, 0.05, 400))


def test_grid_divergence_reports_the_earliest_step_and_its_first_row():
    forcings = [8.0, 30.0, 100.0, 100.0, 200.0]
    x0 = np.stack([start_state(F, 36, None, 3, PERTURBATION) for F in forcings])
    alone = []
    for F in forcings[1:]:
        with pytest.raises(IntegrationDivergedError) as err:
            integrate_lorenz96(F, 36, 0.05, 50, seed=3)
        alone.append(err.value.step)
    with pytest.raises(IntegrationDivergedError) as err:
        integrate_grid(x0[:4], forcings[:4], 0.05, 50)
    assert (err.value.step, err.value.row) == (alone[1], 2)
    with pytest.raises(IntegrationDivergedError) as err:
        integrate_grid(x0, forcings, 0.05, 50)
    assert (err.value.step, err.value.row) == (min(alone), 4)


def _ramp_trajectory(n, K=4):
    states = np.zeros((n, K))
    states[:, 0] = np.arange(n, dtype=float)
    return Trajectory(states=states, dt=1.0)


def test_seasonal_aggregate_constant():
    traj = Trajectory(states=np.full((40, 4), 2.5), dt=1.0)
    panel = seasonal_aggregate(traj, 8, [Observable("wet", "s00", 0)])
    assert np.allclose(panel.series("wet", "s00"), 2.5)


def test_seasonal_aggregate_length_one_is_identity():
    traj = _ramp_trajectory(10)
    panel = seasonal_aggregate(traj, 1, [Observable("wet", "s00", 0)])
    assert np.array_equal(panel.series("wet", "s00"), np.arange(10.0))


def test_seasonal_aggregate_ramp_means():
    traj = _ramp_trajectory(16)
    panel = seasonal_aggregate(traj, 4, [Observable("wet", "s00", 0)])
    assert np.allclose(panel.series("wet", "s00"), [1.5, 5.5, 9.5, 13.5])


def test_seasonal_aggregate_drops_partial_season():
    traj = _ramp_trajectory(18)
    panel = seasonal_aggregate(traj, 4, [Observable("wet", "s00", 0)])
    assert panel.n_seasons == 4


def test_seasonal_aggregate_rejects_empty_observables():
    with pytest.raises(ValueError):
        seasonal_aggregate(_ramp_trajectory(8), 4, [])


def test_synth_index_trivial_cases():
    panel = Panel({
        ("tmp", "a1"): np.ones(6), ("tmp", "a2"): np.ones(6),
        ("tmp", "b1"): np.ones(6),
    })
    assert np.allclose(synth_index(panel, {"a1", "a2"}, {"b1"}), 0.0)

    panel2 = Panel({("tmp", "a1"): np.full(4, 2.0), ("tmp", "b1"): np.full(4, 0.5)})
    assert np.allclose(synth_index(panel2, {"a1"}, {"b1"}), 1.5)


def test_synth_index_matches_hand_computation():
    rng = np.random.default_rng(6)
    series = {("tmp", s): rng.standard_normal(9) for s in ("a", "b", "c", "d")}
    panel = Panel(dict(series))
    got = synth_index(panel, {"a", "b"}, {"c"})
    want = (series[("tmp", "a")] + series[("tmp", "b")]) / 2.0 - series[("tmp", "c")]
    assert np.allclose(got, want)


def test_synth_index_validation():
    panel = Panel({("tmp", "a"): np.ones(4), ("tmp", "b"): np.ones(4)})
    with pytest.raises(ValueError):
        synth_index(panel, {"a"}, {"a"})
    with pytest.raises(ValueError):
        synth_index(panel, set(), {"b"})
    with pytest.raises(KeyError):
        synth_index(panel, {"a"}, {"nope"})


def test_detect_steady_state_constant_series():
    assert detect_steady_state(np.ones(100), window=20, slope_tol=0.01) == 0


def test_detect_steady_state_pure_trend_never_settles():
    # exact line: slope in own-sd units is sqrt(12/(w^2-1)), above tol for w=40
    with pytest.raises(StationarityNotReachedError):
        detect_steady_state(0.001 * np.arange(200.0), window=40, slope_tol=0.01)


def test_detect_steady_state_decay_plus_noise():
    # transient A*exp(-t/tau) + unit noise; oracle scans the noiseless decay
    # with the noise sd as variance floor
    A, tau, sigma, w, tol = 30.0, 25.0, 1.0, 40, 0.01
    n = 400
    t = np.arange(n, dtype=float)
    decay = A * np.exp(-t / tau)

    def noiseless_std_slope(s):
        seg = decay[s:s + w]
        slope = np.polyfit(np.arange(w), seg, 1)[0]
        return abs(slope) / np.sqrt(np.var(seg) + sigma**2)

    s_star = next(s for s in range(n - w + 1) if noiseless_std_slope(s) < tol)
    rng = np.random.default_rng(7)
    series = decay + sigma * rng.standard_normal(n)
    detected = detect_steady_state(series, window=w, slope_tol=tol)
    assert abs(detected - s_star) <= w


def test_detect_steady_state_needs_two_windows():
    with pytest.raises(ValueError):
        detect_steady_state(np.ones(30), window=20, slope_tol=0.01)


FAST_RUN = SurrogateConfig(K=5, dt=0.05, steps_per_season=10, n_seasons=160,
                           steady_window=30, min_steady_seasons=40)
FAST_SEED = 9


def test_library_single_parameter_composition():
    lib = build_attractor_library([TuningParameter(8.0, "F8")], FAST_RUN, FAST_SEED)
    assert len(lib) == 1
    est = lib[0]
    assert est.steady_start + est.panel.n_seasons == FAST_RUN.n_seasons
    assert est.panel.n_seasons >= FAST_RUN.min_steady_seasons
    # standardized steady panel: per-series mean 0, sd 1
    for series in est.panel.values.values():
        assert abs(series.mean()) < 1e-9
        assert abs(series.std() - 1.0) < 1e-9


def test_library_rejects_duplicate_parameters():
    params = [TuningParameter(8.0, "a"), TuningParameter(8.0, "b")]
    with pytest.raises(ValueError):
        build_attractor_library(params, FAST_RUN, FAST_SEED)
    params = [TuningParameter(7.0, "a"), TuningParameter(8.0, "a")]
    with pytest.raises(ValueError):
        build_attractor_library(params, FAST_RUN, FAST_SEED)


@pytest.mark.parametrize("forcings, change, error, label", [
    ([8.0], {"dt": 1.0}, IntegrationDivergedError, "F8"),
    ([8.0], {"min_steady_seasons": 161}, StationarityNotReachedError, "F8"),
    ([8.0, 30.0], {"K": 36}, IntegrationDivergedError, "F30"),
], ids=["diverged", "too-few-steady-seasons", "one-of-two-rows-diverged"])
def test_library_error_names_the_parameter_once(forcings, change, error, label):
    params = [TuningParameter(F, f"F{F:g}") for F in forcings]
    with pytest.raises(error) as err:
        build_attractor_library(params, replace(FAST_RUN, **change), FAST_SEED)
    message = str(err.value)
    assert message.startswith(f"parameter {label}: ") and message.count(label) == 1
    assert all(p.label == label or p.label not in message for p in params)
    if error is IntegrationDivergedError:
        assert isinstance(err.value.step, int) and str(err.value.step) in message


@pytest.mark.parametrize("forcing", [7.0, 8.0, 11.0], ids=["inside", "on-a-grid-row", "outside"])
def test_fresh_ground_row_is_the_lone_run(forcing):
    grid = [TuningParameter(F, f"F{F:g}") for F in (6.0, 8.0, 10.0)]
    row = (TuningParameter(forcing, f"F{forcing:g}"), 5)
    library = build_attractor_library(grid, FAST_RUN, FAST_SEED, fresh_ground=row)
    (panel, steady), = steady_run([row[0]], [row[1]], FAST_RUN)
    batched, batched_steady = library.fresh_ground[row]
    assert batched_steady == steady
    assert batched.values.keys() == panel.values.keys()
    assert all(np.array_equal(batched.values[k], panel.values[k]) for k in panel.values)
    # the ground row is no attractor, and the attractors do not change
    alone = build_attractor_library(grid, FAST_RUN, FAST_SEED)
    assert list(library.fresh_ground) == [row] and alone.fresh_ground == {}
    assert [a.label for a in library] == ["F6", "F8", "F10"]
    for a, b in zip(library, alone):
        assert (a.steady_start, a.seed, a.scale) == (b.steady_start, b.seed, b.scale)
        assert all(np.array_equal(a.panel.values[k], b.panel.values[k]) for k in b.panel.values)


@pytest.mark.parametrize("forcing, error", [
    (30.0, IntegrationDivergedError),  # diverges before the F8 row could
    (0.0, StationarityNotReachedError),  # decays for the whole run
], ids=["diverged", "never-settles"])
def test_library_errors_name_the_fresh_ground_row(forcing, error):
    row = (TuningParameter(forcing, f"F{forcing:g}"), 5)
    with pytest.raises(error) as err:
        build_attractor_library([TuningParameter(8.0, "F8")], replace(FAST_RUN, K=36),
                                FAST_SEED, fresh_ground=row)
    message = str(err.value)
    assert message.startswith(f"fresh ground run at F{forcing:g}: ")
    assert "parameter" not in message and "F8" not in message


def test_library_sorted_and_deterministic():
    params = [TuningParameter(9.0, "high"), TuningParameter(5.0, "low")]
    lib1 = build_attractor_library(params, FAST_RUN, FAST_SEED)
    lib2 = build_attractor_library(params, FAST_RUN, FAST_SEED)
    assert [a.parameter.value for a in lib1] == [5.0, 9.0]
    for a, b in zip(lib1, lib2):
        for key in a.panel.values:
            assert np.array_equal(a.panel.values[key], b.panel.values[key])


def test_steady_energy_monotone_in_forcing():
    # mean energy over the settled half of the run, 5 seeds averaged
    forcings = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    x0, row_forcings = _kicked_grid(forcings, range(5), 8)
    runs = integrate_grid(x0, row_forcings, 0.05, 4000).reshape(len(forcings), 5, 4001, 8)
    means = [np.mean([Trajectory(states=run, dt=0.05).energy()[2000:].mean() for run in per_seed])
             for per_seed in runs]
    assert np.all(np.diff(means) >= 0.0)


def test_trailing_mean_recovers_raw_scale():
    lib = build_attractor_library([TuningParameter(8.0, "F8")], FAST_RUN, FAST_SEED)
    est = lib[0]
    key = ("wet", "s00")
    mean, sd = est.scale[key]
    raw = est.panel.series(*key) * sd + mean
    assert abs(est.trailing_mean("wet", n_seasons=20) -
               np.mean([est.panel.series("wet", f"s{i:02d}")[-20:] * est.scale[("wet", f"s{i:02d}")][1]
                        + est.scale[("wet", f"s{i:02d}")][0] for i in range(5)])) < 1e-9
    assert raw.std() > 0
