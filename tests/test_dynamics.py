import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chaoscast import dynamics
from chaoscast.config import SurrogateConfig
from chaoscast.dynamics import (
    PERTURBATION,
    build_attractor_library,
    detect_steady_state,
    integrate_grid,
    integrate_lorenz96,
    seasonal_aggregate,
    start_state,
    steady_run,
    synth_index,
)
from chaoscast.errors import ConfigError, IntegrationDivergedError, StationarityNotReachedError
from chaoscast.panel import Panel


def _energy(states):
    """0.5 * sum_i x_i(t)^2 per stored step."""
    return 0.5 * np.sum(states**2, axis=-1)


def test_zero_forcing_zero_state_stays_zero():
    states = integrate_grid(np.zeros((1, 6)), [0.0], 0.05, 200)[0]
    assert states.shape == (201, 6)
    assert np.all(states == 0.0)


def test_constant_solution_is_fixed_point():
    # x == F makes the advection vanish and -x + F cancel exactly
    F = 7.5
    states = integrate_grid(np.full((1, 8), F), [F], 0.05, 10_000)[0]
    assert np.allclose(states, F, atol=1e-12)


def test_energy_decays_monotonically_at_zero_forcing():
    rng = np.random.default_rng(3)
    E = _energy(integrate_grid(rng.standard_normal((1, 8)), [0.0], 0.01, 400)[0])
    assert np.all(np.diff(E) <= 1e-12)


def test_energy_decay_matches_analytic_law():
    # advection conserves energy, the -x term gives dE/dt = -2E exactly
    rng = np.random.default_rng(4)
    E = _energy(integrate_grid(3.0 * rng.standard_normal((1, 8)), [0.0], 0.01, 500)[0])
    t = np.arange(E.size) * 0.01
    assert np.all(np.abs(E / (E[0] * np.exp(-2.0 * t)) - 1.0) < 0.01)


def test_step_halving_shrinks_error_sixteenfold():
    # RK4 self-convergence: global error ~ dt^4, reference at dt/8
    rng = np.random.default_rng(5)
    x0 = 8.0 + rng.standard_normal(8)
    T, dt = 0.5, 0.02

    def final_state(step):
        return integrate_grid(x0[None], [8.0], step, int(round(T / step)))[0, -1]

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
    with pytest.raises(ValueError, match="x0 must be finite"):
        integrate_grid(np.full((1, 8), np.inf), [8.0], 0.05, 10)
    x0 = np.full((2, 8), 8.0)
    with pytest.raises(ValueError, match="one value per row"):
        integrate_grid(x0, [8.0], 0.05, 10)
    with pytest.raises(ValueError, match="forcings must be finite"):
        integrate_grid(x0, [8.0, np.nan], 0.05, 10)
    with pytest.raises(ValueError, match=r"x0 must be a \(P, K\) array"):
        integrate_grid(x0[0], [8.0], 0.05, 10)


def test_integration_deterministic_given_seed():
    a = integrate_lorenz96(8.0, 6, 0.05, 100, seed=11)
    b = integrate_lorenz96(8.0, 6, 0.05, 100, seed=11)
    c = integrate_lorenz96(8.0, 6, 0.05, 100, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    x0 = np.stack([start_state(F, K, seed, PERTURBATION) for F, seed in rows])
    return x0, [F for F, _ in rows]


@pytest.mark.parametrize("K, forcings, seeds, n_steps, order", [
    pytest.param(4, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="4"),  # sites i+2 and i-2 coincide
    pytest.param(5, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="5"),
    # the ghost sites wrap around the ring (7), or span it exactly: the 8
    # before it (8), or all 12 (12)
    pytest.param(7, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="7"),
    pytest.param(8, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="8"),
    pytest.param(12, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="12"),
    pytest.param(36, [5.0, 8.0, 10.0], [1, 2], 400, "C", id="36"),
    pytest.param(36, [8.0], [1], 400, "C", id="1-row"),
    pytest.param(36, [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], [1], 400, "C", id="7-rows"),
    # chaos amplifies a last-bit slip far above the state's scale within 2,000 steps
    pytest.param(36, [8.0, 10.0], [1], 2000, "C", id="2000-steps"),
    pytest.param(36, [5.0, 8.0, 10.0], [1, 2], 400, "F", id="fortran-x0"),
])
def test_grid_rows_are_bit_identical_to_the_single_ring_reference(K, forcings, seeds,
                                                                  n_steps, order):
    x0, forcings = _kicked_grid(forcings, seeds, K)
    x0 = np.asarray(x0, order=order)
    before = x0.copy()
    states = integrate_grid(x0, forcings, 0.05, n_steps)
    assert states.shape == (len(forcings), n_steps + 1, K)
    assert np.array_equal(x0, before)
    for row, F in enumerate(forcings):
        assert states[row].tobytes() == _reference_rk4(x0[row], F, 0.05, n_steps).tobytes()


def test_grid_holds_no_second_copy_of_its_states():
    # 5 rows x 8,001 steps x 36 sites: the state array is 11.5 MB, and the
    # padded step buffers and operand views are a few kB
    x0, forcings = _kicked_grid([5.0, 6.0, 7.0, 8.0, 9.0], [1], 36)
    tracemalloc.start()
    try:
        states = integrate_grid(x0, forcings, 0.05, 8000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes + 2**20


def test_grid_divergence_reports_the_earliest_step_and_its_first_row():
    forcings = [8.0, 30.0, 100.0, 100.0, 200.0]
    x0 = np.stack([start_state(F, 36, 3, PERTURBATION) for F in forcings])
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


def test_grid_divergence_after_many_finite_steps_matches_the_lone_run():
    # dt = 2.8 is past RK4's stability limit for the -x term, so a kicked ring
    # at F = 0 grows slowly and blows up late; the unkicked ring stays at 0.
    dt, kicks = 2.8, [(None, 0.0), (3, 1e-3), (1, 1e-6)]
    x0 = np.stack([start_state(0.0, 36, seed, kick) for seed, kick in kicks])
    with pytest.raises(IntegrationDivergedError) as err:
        integrate_lorenz96(0.0, 36, dt, 300, seed=3)
    lone = err.value.step
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _reference_rk4(x0[1], 0.0, dt, 300)
    assert lone > 100
    assert lone == int(np.argmin(np.isfinite(reference).all(axis=1)))
    with pytest.raises(IntegrationDivergedError) as err:
        integrate_grid(x0, [0.0] * 3, dt, 300)
    assert (err.value.step, err.value.row) == (lone, 1)
    assert integrate_grid(x0[::2], [0.0] * 2, dt, 300).shape == (2, 301, 36)


def _ramp_run(n, K=4):
    states = np.zeros((n, K))
    states[:, 0] = np.arange(n, dtype=float)
    return states


def test_seasonal_aggregate_constant():
    panel = seasonal_aggregate(np.full((40, 4), 2.5), 8, 5)
    assert all(np.allclose(series, 2.5) for series in panel.values.values())


def test_seasonal_aggregate_length_one_is_identity():
    panel = seasonal_aggregate(_ramp_run(10), 1, 5)
    assert np.array_equal(panel.series("wet", "s00"), np.arange(10.0))


def test_seasonal_aggregate_ramp_means():
    panel = seasonal_aggregate(_ramp_run(16), 4, 5)
    assert np.allclose(panel.series("wet", "s00"), [1.5, 5.5, 9.5, 13.5])


def test_seasonal_aggregate_drops_partial_season():
    panel = seasonal_aggregate(_ramp_run(18), 4, 5)
    assert panel.n_seasons == 4


def test_seasonal_aggregate_rejects_a_run_shorter_than_a_season():
    with pytest.raises(ValueError, match="shorter than one season"):
        seasonal_aggregate(_ramp_run(3), 4, 5)
    with pytest.raises(ValueError, match="season_length"):
        seasonal_aggregate(_ramp_run(8), 0, 5)


def test_seasonal_aggregate_tmp_is_the_trailing_mean_of_the_run():
    # x_t = t at site 0; the 3-step trailing mean is t - 1 once the window is
    # full and the mean of 0..t over the first two steps
    panel = seasonal_aggregate(_ramp_run(14), 4, 3)
    trailing = [0.0, 0.5] + [t - 1.0 for t in range(2, 12)]
    want = [np.mean(trailing[s:s + 4]) for s in (0, 4, 8)]
    assert np.allclose(panel.series("tmp", "s00"), want)
    assert panel.series("tmp", "s00")[0] == 0.875  # mean of 0, 0.5, 1, 2
    assert np.allclose(panel.series("wet", "s00"), [1.5, 5.5, 9.5])
    assert np.array_equal(panel.series("tmp", "s01"), np.zeros(3))


def test_seasonal_aggregate_tmp_without_smoothing_is_wet():
    states = np.random.default_rng(2).standard_normal((30, 5))
    panel = seasonal_aggregate(states, 6, 1)
    for i in range(5):
        assert np.array_equal(panel.series("tmp", f"s{i:02d}"),
                              panel.series("wet", f"s{i:02d}"))


def test_seasonal_aggregate_keys_are_every_wet_site_then_every_tmp_site():
    panel = seasonal_aggregate(np.zeros((20, 12)), 5, 3)
    sites = [f"s{i:02d}" for i in range(12)]
    assert list(panel.values) == [("wet", s) for s in sites] + [("tmp", s) for s in sites]


def test_seasonal_aggregate_reads_a_strided_run_as_its_contiguous_copy():
    # integrate_grid's rows are column views of one site-major array, each
    # site read at a stride of K*P elements
    K, P, p = 6, 3, 1
    run = np.random.default_rng(8).standard_normal((2001, K))
    site_major = np.zeros((2001, K, P))
    site_major[:, :, p] = run
    view = site_major[:, :, p]
    assert not view.flags.c_contiguous
    for season_length, temp_smooth in [(20, 5), (7, 1), (1, 3)]:
        want = seasonal_aggregate(run, season_length, temp_smooth).values
        got = seasonal_aggregate(view, season_length, temp_smooth).values
        assert list(got) == list(want)
        assert all(got[key].tobytes() == want[key].tobytes() for key in want)


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
    assert detect_steady_state([np.ones(100)], window=20, slope_tol=0.01) == 0


def test_detect_steady_state_pure_trend_never_settles():
    # exact line: slope in own-sd units is sqrt(12/(w^2-1)), above tol for w=40
    with pytest.raises(StationarityNotReachedError):
        detect_steady_state([0.001 * np.arange(200.0)], window=40, slope_tol=0.01)


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
    detected = detect_steady_state([series], window=w, slope_tol=tol)
    assert abs(detected - s_star) <= w


def test_detect_steady_state_needs_two_windows():
    with pytest.raises(ValueError):
        detect_steady_state([np.ones(30)], window=20, slope_tol=0.01)


FAST_RUN = SurrogateConfig(K=5, dt=0.05, steps_per_season=10, n_seasons=160,
                           steady_window=30, min_steady_seasons=40)
FAST_SEED = 9


def test_library_single_parameter_composition():
    lib = build_attractor_library([8.0], FAST_RUN, FAST_SEED)
    assert len(lib) == 1
    est = lib[0]
    assert est.steady_start + est.panel.n_seasons == FAST_RUN.n_seasons
    assert est.panel.n_seasons >= FAST_RUN.min_steady_seasons
    # standardized steady panel: per-series mean 0, sd 1
    for series in est.panel.values.values():
        assert abs(series.mean()) < 1e-9
        assert abs(series.std() - 1.0) < 1e-9


@pytest.mark.parametrize("forcings, change, error, label", [
    ([8.0], {"dt": 1.0}, IntegrationDivergedError, "F8"),
    ([8.0], {"min_steady_seasons": 161}, StationarityNotReachedError, "F8"),
    ([8.0, 30.0], {"K": 36}, IntegrationDivergedError, "F30"),
], ids=["diverged", "too-few-steady-seasons", "one-of-two-rows-diverged"])
def test_library_error_names_the_parameter_once(forcings, change, error, label):
    with pytest.raises(error) as err:
        build_attractor_library(forcings, replace(FAST_RUN, **change), FAST_SEED)
    message = str(err.value)
    assert message.startswith(f"parameter {label}: ") and message.count(label) == 1
    assert all(dynamics.label(F) == label or dynamics.label(F) not in message
               for F in forcings)
    if error is IntegrationDivergedError:
        assert isinstance(err.value.step, int) and str(err.value.step) in message
    else:  # a config error that names the settings to change
        assert isinstance(err.value, ConfigError) and message.endswith(
            "; lengthen the run (surrogate.n_seasons, steps_per_season or dt) or lower "
            "surrogate.min_steady_seasons")


@pytest.mark.parametrize("forcings, label, sd", [
    ([8.0, 0.3], "F0.3", "0"),
    ([8.0, 0.5], "F0.5", "1.27e-12"),
    ([0.5, 0.3, 8.0], "F0.5", "1.27e-12"),  # the first fixed point in batch order
], ids=["F0.3", "F0.5", "two-fixed-points"])
def test_library_names_a_fixed_point_forcing_and_its_first_constant_series(forcings, label, sd):
    # at F 0.3 and 0.5 the ring settles on x = F within the run; at 0.8 and 0.9
    # it still drifts at the end, and the library raises StationarityNotReachedError
    with pytest.raises(ConfigError) as err:
        build_attractor_library(forcings, FAST_RUN, FAST_SEED)
    assert str(err.value).startswith(f"parameter {label}: series ('wet', 's00') is constant "
                                     f"on the steady run (sd {sd}); ")


def test_standardization_names_the_first_constant_series_in_key_order():
    varying = np.random.default_rng(1).standard_normal(40)
    panel = Panel({("wet", "s00"): varying, ("wet", "s01"): -varying,
                   ("tmp", "s00"): np.full(40, 2.0), ("idx", "a"): np.zeros(40)})
    with pytest.raises(ConfigError, match=r"^parameter F1: series \('tmp', 's00'\) is constant"):
        dynamics._standardized_attractor(1.0, panel, 0, FAST_RUN, 1)


@pytest.mark.parametrize("forcing", [7.0, 8.0, 11.0], ids=["inside", "on-a-grid-row", "outside"])
def test_fresh_ground_row_is_the_lone_run(forcing):
    grid = [6.0, 8.0, 10.0]
    row = (forcing, 5)
    library = build_attractor_library(grid, FAST_RUN, FAST_SEED, fresh_ground=row)
    (panel, _), = steady_run([row[0]], [row[1]], FAST_RUN, ["fresh ground"])
    batched = library.fresh_ground
    assert batched.values.keys() == panel.values.keys()
    assert all(np.array_equal(batched.values[k], panel.values[k]) for k in panel.values)
    # the ground row is no attractor, and the attractors do not change
    alone = build_attractor_library(grid, FAST_RUN, FAST_SEED)
    assert alone.fresh_ground is None
    assert [a.label for a in library] == ["F6", "F8", "F10"]
    for a, b in zip(library, alone):
        assert (a.steady_start, a.seed, a.scale) == (b.steady_start, b.seed, b.scale)
        assert all(np.array_equal(a.panel.values[k], b.panel.values[k]) for k in b.panel.values)


@pytest.mark.parametrize("forcing, error", [
    (30.0, IntegrationDivergedError),  # diverges before the F8 row could
    (0.0, StationarityNotReachedError),  # decays for the whole run
], ids=["diverged", "never-settles"])
def test_library_errors_name_the_fresh_ground_row(forcing, error):
    with pytest.raises(error) as err:
        build_attractor_library([8.0], replace(FAST_RUN, K=36),
                                FAST_SEED, fresh_ground=(forcing, 5))
    message = str(err.value)
    assert message.startswith(f"fresh ground run at F{forcing:g}: ")
    assert "parameter" not in message and "F8" not in message


def test_library_sorted_and_deterministic():
    lib1 = build_attractor_library([9.0, 5.0], FAST_RUN, FAST_SEED)
    lib2 = build_attractor_library([9.0, 5.0], FAST_RUN, FAST_SEED)
    assert [(a.forcing, a.label) for a in lib1] == [(5.0, "F5"), (9.0, "F9")]
    for a, b in zip(lib1, lib2):
        for key in a.panel.values:
            assert np.array_equal(a.panel.values[key], b.panel.values[key])


def test_steady_energy_monotone_in_forcing():
    # mean energy over the settled half of the run, 5 seeds averaged
    forcings = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    x0, row_forcings = _kicked_grid(forcings, range(5), 8)
    runs = integrate_grid(x0, row_forcings, 0.05, 4000).reshape(len(forcings), 5, 4001, 8)
    means = [np.mean(_energy(per_seed)[:, 2000:].mean(axis=1)) for per_seed in runs]
    assert np.all(np.diff(means) >= 0.0)


def test_trailing_mean_recovers_raw_scale():
    lib = build_attractor_library([8.0], FAST_RUN, FAST_SEED)
    est = lib[0]
    key = ("wet", "s00")
    mean, sd = est.scale[key]
    raw = est.panel.series(*key) * sd + mean
    assert abs(est.trailing_mean(n_seasons=20) -
               np.mean([est.panel.series("wet", f"s{i:02d}")[-20:] * est.scale[("wet", f"s{i:02d}")][1]
                        + est.scale[("wet", f"s{i:02d}")][0] for i in range(5)])) < 1e-9
    assert raw.std() > 0
