"""Implicit stepping, measurement forcing, series validation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from thermodiag.model import (
    INPUT_CHANNELS,
    StateMatrices,
    assemble,
    build_mesh,
    single_node_matrices,
)
from thermodiag.diagnose import ChromosomeEvaluator
from thermodiag.ga import encode
from thermodiag.simulate import (
    BLOCK_STEPS,
    RESIDUAL_RTOL,
    MeasurementSeries,
    SingularSystemError,
    WeatherSeries,
    initial_state,
    simulate,
    simulate_batch,
)
from thermodiag.testcell import default_measured_nodes, example_cell, synthetic_weather


def constant_weather(t_ae: float, n: int, dt: float = 900.0,
                     t_sky: float | None = None) -> WeatherSeries:
    values = np.zeros((n, len(INPUT_CHANNELS)))
    values[:, 0] = t_ae
    values[:, 1] = t_ae if t_sky is None else t_sky
    return WeatherSeries(dt=dt, values=values)


def cell_setup():
    desc = example_cell()
    model = build_mesh(desc)
    return model, assemble(model, desc)


def march(sm, weather, T0, forcing=frozenset(), meas=None):
    return simulate(sm, weather, forcing, meas, T0).values


def reference_step(sm, dt, T_prev, u, forced=None):
    """One backward Euler step by a dense solve, forced rows pinned."""
    c_over_dt = sm.capacity / dt
    M = np.diag(c_over_dt) - sm.exchange
    V = c_over_dt * T_prev + sm.input_coupling @ u
    for node, value in (forced or {}).items():
        M[node - 1, :] = 0.0
        M[node - 1, node - 1] = 1.0
        V[node - 1] = value
    return np.linalg.solve(M, V)


class TestBuildStepSystem:
    def test_identity_step_when_uncoupled(self):
        sm = StateMatrices(
            capacity=np.array([100.0, 50.0]),
            exchange=np.zeros((2, 2)),
            input_coupling=np.zeros((2, len(INPUT_CHANNELS))),
        )
        T = march(sm, constant_weather(0.0, 5, dt=10.0), [12.0, -3.0])
        for k in range(5):
            assert T[:, k] == pytest.approx([12.0, -3.0])

    def test_zero_capacity_row_has_no_time_term(self):
        # the radiant row is the algebraic balance exchange @ T + B @ U = 0
        # at every step, whatever the previous state
        model, sm = cell_setup()
        radiant = model.mean_radiant_node - 1
        weather = synthetic_weather(days=1)
        T = march(sm, weather, np.full(sm.n_nodes, 5.0))
        balance = (sm.exchange[radiant] @ T[:, 1:]
                   + weather.values[1:] @ sm.input_coupling[radiant])
        assert np.max(np.abs(balance)) < 1e-9 * np.max(np.abs(sm.exchange[radiant]))

    def test_convergence_to_independent_steady_state(self):
        model, sm = cell_setup()
        weather = constant_weather(25.0, 40000, t_sky=15.0)
        weather.values[:, INPUT_CHANNELS.index("I_S")] = 300.0
        # oracle: the steady state solves exchange @ T = -coupling @ u
        expected = np.linalg.solve(sm.exchange, -(sm.input_coupling @ weather.values[0]))
        T = march(sm, weather, np.full(sm.n_nodes, 5.0))
        assert T[:, -1] == pytest.approx(expected, abs=1e-9)

    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -900.0):
            with pytest.raises(ValueError, match="dt"):
                constant_weather(20.0, 3, dt=dt)


class TestApplyForcing:
    def test_unit_row_and_value(self):
        # uncoupled nodes: pinning node 2 changes its row only
        sm = StateMatrices(
            capacity=np.array([100.0, 50.0, 80.0]),
            exchange=np.zeros((3, 3)),
            input_coupling=np.zeros((3, len(INPUT_CHANNELS))),
        )
        weather = constant_weather(0.0, 4, dt=10.0)
        meas = MeasurementSeries(dt=10.0, series={2: np.array([21.5, 22.0, 22.5, 23.0])})
        free = march(sm, weather, [1.0, 2.0, 3.0])
        forced = march(sm, weather, [1.0, 2.0, 3.0], {2}, meas)
        assert np.array_equal(forced[1], meas.node_series(2))
        assert np.array_equal(forced[[0, 2]], free[[0, 2]])

    def test_forced_solution_is_exact(self):
        model, sm = cell_setup()
        weather = constant_weather(20.0, 2)
        meas = MeasurementSeries(dt=weather.dt, series={16: np.full(2, 33.25)})
        T0 = np.full(sm.n_nodes, 20.0)
        T = march(sm, weather, T0, {16}, meas)
        expected = reference_step(sm, weather.dt, T0, weather.values[1], {16: 33.25})
        assert expected[15] == pytest.approx(33.25, abs=1e-12)
        assert T[:, 1] == pytest.approx(expected, abs=1e-12)

    def test_reinjection_leaves_solution_unchanged(self):
        # forcing a node with the series the unforced model produces is a no-op
        model, sm = cell_setup()
        weather = synthetic_weather(days=1)
        T0 = initial_state(sm, weather.values[0])
        free = march(sm, weather, T0)
        meas = MeasurementSeries(dt=weather.dt, series={3: free[2]})
        assert march(sm, weather, T0, {3}, meas) == pytest.approx(free, abs=1e-9)

    def test_node_out_of_range(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=weather.dt, series={
            n: np.zeros(weather.n_records) for n in (0, 24)})
        for node in (0, 24):
            with pytest.raises(ValueError, match="outside"):
                simulate(sm, weather, frozenset({node}), meas)


class TestStep:
    def test_missing_measurement_for_forced_node(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=weather.dt, series={4: np.zeros(weather.n_records)})
        with pytest.raises(ValueError, match="forced node"):
            simulate(sm, weather, frozenset({3}), meas)

    def test_singular_system_detected(self):
        # a zero-capacity node with no couplings makes the step matrix singular
        sm = StateMatrices(
            capacity=np.array([100.0, 0.0]),
            exchange=np.zeros((2, 2)),
            input_coupling=np.zeros((2, len(INPUT_CHANNELS))),
        )
        with pytest.raises(SingularSystemError):
            march(sm, constant_weather(0.0, 3, dt=10.0), np.zeros(2))

    def test_forced_value_is_bit_exact(self):
        _, sm = cell_setup()
        value = 24.700000000000003
        weather = constant_weather(0.0, 2)
        meas = MeasurementSeries(dt=weather.dt, series={16: np.full(2, value)})
        T = march(sm, weather, np.full(sm.n_nodes, 20.0), {16}, meas)
        assert T[15, 1] == value


class TestSimulate:
    def test_empty_forcing_is_pure_prediction(self):
        model, sm = cell_setup()
        weather = synthetic_weather(days=1)
        traj = simulate(sm, weather)
        assert traj.values.shape == (23, weather.n_records)
        assert np.all(np.isfinite(traj.values))

    def test_forced_rows_reproduce_measurements_bit_for_bit(self):
        model, sm = cell_setup()
        weather = synthetic_weather(days=1)
        rng = np.random.default_rng(11)
        nodes = (3, 14, 16)
        meas = MeasurementSeries(dt=weather.dt, series={
            n: rng.uniform(15.0, 30.0, size=weather.n_records) for n in nodes})
        traj = simulate(sm, weather, frozenset(nodes), meas)
        for n in nodes:
            assert np.array_equal(traj.node_series(n), meas.node_series(n))

    def test_constant_weather_reaches_steady_state(self):
        model, sm = cell_setup()
        weather = constant_weather(25.0, 6000, t_sky=15.0)
        expected = np.linalg.solve(sm.exchange, -(sm.input_coupling @ weather.values[0]))
        traj = simulate(sm, weather, T0=np.full(sm.n_nodes, 5.0))
        assert traj.values[:, -1] == pytest.approx(expected, abs=1e-6)

    def test_all_nodes_converge_to_uniform_boundary(self):
        model, sm = cell_setup()
        weather = constant_weather(20.0, 6000)
        traj = simulate(sm, weather, T0=np.full(sm.n_nodes, 35.0))
        assert np.max(np.abs(traj.values[:, -1] - 20.0)) < 1e-6

    def test_matches_analytic_single_rc_exponential(self):
        # tau = C/K = 18000 s, dt = 900 s: first-order scheme stays within 2 %
        capacity, conductance = 180000.0, 10.0
        tau = capacity / conductance
        sm = single_node_matrices(capacity, conductance)
        weather = constant_weather(0.0, 200)
        traj = simulate(sm, weather, T0=np.array([10.0]))
        t = np.arange(200) * weather.dt
        analytic = 10.0 * np.exp(-t / tau)
        assert np.max(np.abs(traj.values[0] - analytic)) / 10.0 < 0.02

    def test_halving_dt_shrinks_analytic_error(self):
        capacity, conductance = 180000.0, 10.0
        tau = capacity / conductance
        sm = single_node_matrices(capacity, conductance)
        errors = {}
        for dt in (900.0, 450.0):
            n = int(36000.0 / dt) + 1
            weather = constant_weather(0.0, n, dt=dt)
            traj = simulate(sm, weather, T0=np.array([10.0]))
            analytic = 10.0 * math.exp(-(n - 1) * dt / tau)
            errors[dt] = abs(traj.values[0, -1] - analytic)
        # first-order scheme: halving dt roughly halves the error
        assert errors[450.0] < 0.7 * errors[900.0]

    def test_forcing_without_measurements_rejected(self):
        _, sm = cell_setup()
        with pytest.raises(ValueError, match="measurement"):
            simulate(sm, synthetic_weather(days=1), frozenset({3}))

    def test_measurement_length_mismatch_rejected(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=900.0, series={3: np.zeros(10)})
        with pytest.raises(ValueError, match="length"):
            simulate(sm, weather, frozenset({3}), meas)

    def test_measurement_dt_mismatch_rejected(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=600.0, series={3: np.zeros(weather.n_records)})
        with pytest.raises(ValueError, match="dt"):
            simulate(sm, weather, frozenset({3}), meas)

    def test_deterministic(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        a = simulate(sm, weather)
        b = simulate(sm, weather)
        assert np.array_equal(a.values, b.values)


def measured_cell(days: int = 2, seed: int = 3):
    """The bundled cell with every node measured (noisy series)."""
    model, sm = cell_setup()
    weather = synthetic_weather(days=days)
    free = simulate(sm, weather)
    rng = np.random.default_rng(seed)
    meas = MeasurementSeries(dt=weather.dt, series={
        n: free.node_series(n) + rng.normal(0.0, 0.5, weather.n_records)
        for n in range(1, sm.n_nodes + 1)})
    return model, sm, weather, meas


def random_sets(rng, n_sets: int, nodes: int = 22) -> list:
    return [frozenset(int(k) + 1 for k in np.flatnonzero(rng.random(nodes) < 0.4))
            for _ in range(n_sets)]


class TestBatchKernel:
    def test_batch_results_bit_identical_to_solo_runs(self):
        model, sm, weather, meas = measured_cell()
        assert (weather.n_records - 1) % BLOCK_STEPS != 0
        rng = np.random.default_rng(5)
        sets = random_sets(rng, 12) + [frozenset()]
        solo = [simulate(sm, weather, f, meas).values for f in sets]
        for _ in range(4):
            # random composition, order and duplicates
            picks = rng.choice(len(sets), size=int(rng.integers(2, 20)))
            batch = simulate_batch(sm, weather, [sets[i] for i in picks], meas)
            for values, i in zip(batch, picks):
                assert np.array_equal(values, solo[i])
        air = simulate_batch(sm, weather, sets, meas, rows=(model.air_node,))
        assert np.array_equal(air[:, 0], [v[model.air_node - 1] for v in solo])

    def test_J_bit_identical_alone_or_in_any_batch(self):
        model, sm, weather, meas = measured_cell()
        rng = np.random.default_rng(8)
        chromosomes = [encode(f, sm.n_nodes - 1) for f in random_sets(rng, 10)]
        alone = [ChromosomeEvaluator(sm, weather, meas, model.air_node)([c])[0]
                 for c in chromosomes]
        for _ in range(3):
            picks = rng.choice(len(chromosomes), size=15)
            ev = ChromosomeEvaluator(sm, weather, meas, model.air_node)
            assert ev([chromosomes[i] for i in picks]) == [alone[i] for i in picks]

    def test_matches_dense_lu_march(self):
        # differential check against a step-by-step dense LU solve; the two
        # differ by round-off only (about 4e-13 degC on this cell)
        model, sm, weather, meas = measured_cell(days=1)
        rng = np.random.default_rng(13)
        sets = random_sets(rng, 6)
        T0 = initial_state(sm, weather.values[0])
        batch = simulate_batch(sm, weather, sets, meas, T0)
        for values, forcing in zip(batch, sets):
            T = T0.copy()
            for node in forcing:
                T[node - 1] = meas.node_series(node)[0]
            expected = [T]
            for k in range(1, weather.n_records):
                pinned = {node: meas.node_series(node)[k] for node in forcing}
                expected.append(reference_step(sm, weather.dt, expected[-1],
                                               weather.values[k], pinned))
            assert np.max(np.abs(values - np.array(expected).T)) < 1e-11

    def test_every_step_within_residual_bound(self):
        _, sm, weather, meas = measured_cell(days=1)
        forcing = frozenset({3, 14, 16})
        T = simulate(sm, weather, forcing, meas).values
        c_over_dt = sm.capacity / weather.dt
        M = np.diag(c_over_dt) - sm.exchange
        for node in forcing:
            M[node - 1, :] = 0.0
            M[node - 1, node - 1] = 1.0
        for k in range(1, weather.n_records):
            V = c_over_dt * T[:, k - 1] + sm.input_coupling @ weather.values[k]
            for node in forcing:
                V[node - 1] = meas.node_series(node)[k]
            residual = np.max(np.abs(M @ T[:, k] - V))
            assert residual <= RESIDUAL_RTOL * np.max(np.abs(V))

    def test_memory_is_three_blocks_the_step_matrices_and_the_output(self):
        # the subset table of the 5 protocol sensors on the 5-day weather
        model, sm, weather, meas = measured_cell(days=5)
        nodes = default_measured_nodes(model)
        sets = [frozenset(c) for r in range(len(nodes) + 1)
                for c in itertools.combinations(nodes, r)]
        simulate_batch(sm, weather, sets, meas, rows=(model.air_node,))
        tracemalloc.start()
        try:
            out = simulate_batch(sm, weather, sets, meas, rows=(model.air_node,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_sets, n = len(sets), sm.n_nodes
        # states (one row more), inputs then right-hand sides, propagated
        # inputs then residuals; M, its inverse and the propagator G
        blocks = (3 * BLOCK_STEPS + 1) * n_sets * n * 8
        step_matrices = 3 * n_sets * n * n * 8
        assert n_sets == 32
        assert peak <= 1.1 * (blocks + step_matrices + out.nbytes)

    def test_non_finite_initial_state_rejected(self):
        _, sm = cell_setup()
        T0 = np.full(sm.n_nodes, 20.0)
        T0[4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            simulate(sm, synthetic_weather(days=1), T0=T0)

    def test_residual_gate_rejects_invertible_ill_conditioned_system(self):
        # a 1e14 W/K link between two small capacities: cond(M) ~ 1e14, which
        # np.linalg.inv accepts, but the propagated steps miss the residual bound
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling], [coupling, -coupling - 1.0]]),
            input_coupling=np.eye(2, len(INPUT_CHANNELS)),
        )
        weather = constant_weather(20.0, 5, dt=10.0, t_sky=5.0)
        M = np.diag(sm.capacity / weather.dt) - sm.exchange
        assert np.linalg.cond(M) > 1e13
        np.linalg.inv(M)
        with pytest.raises(SingularSystemError, match="residual"):
            simulate(sm, weather, T0=np.array([1.0, 2.0]))


class TestInitialState:
    def test_zero_input_falls_back_to_uniform_ambient(self):
        # all-zero exchange matrix is singular, so the fallback applies
        sm = StateMatrices(
            capacity=np.array([100.0, 50.0]),
            exchange=np.zeros((2, 2)),
            input_coupling=np.zeros((2, len(INPUT_CHANNELS))),
        )
        u = np.zeros(len(INPUT_CHANNELS))
        u[0] = 17.5
        assert np.array_equal(initial_state(sm, u), [17.5, 17.5])

    def test_constant_input_gives_fixed_point_of_step(self):
        _, sm = cell_setup()
        u = np.zeros(len(INPUT_CHANNELS))
        u[0], u[1], u[2] = 30.0, 20.0, 100.0
        T = initial_state(sm, u)
        weather = WeatherSeries(dt=900.0, values=np.tile(u, (10, 1)))
        traj = march(sm, weather, T)
        assert traj == pytest.approx(np.tile(T[:, None], (1, 10)), abs=1e-9)

    def test_symmetric_two_boundary_ladder_by_hand(self):
        # node1 -G- ambient, node1 -K- node2, node2 -G- sky:
        # with G=2, K=1 and a 20 degree gap the drop splits 5/10/5
        exchange = np.array([[-3.0, 1.0], [1.0, -3.0]])
        coupling = np.zeros((2, len(INPUT_CHANNELS)))
        coupling[0, 0] = 2.0  # T_ae
        coupling[1, 1] = 2.0  # T_sky
        sm = StateMatrices(capacity=np.array([10.0, 10.0]),
                           exchange=exchange, input_coupling=coupling)
        u = np.zeros(len(INPUT_CHANNELS))
        u[0], u[1] = 30.0, 10.0
        assert initial_state(sm, u) == pytest.approx([25.0, 15.0])


class TestSeriesValidation:
    def test_weather_rejects_negative_flux(self):
        values = np.zeros((3, len(INPUT_CHANNELS)))
        values[1, 4] = -1.0
        with pytest.raises(ValueError, match="flux"):
            WeatherSeries(dt=900.0, values=values)

    def test_weather_rejects_short_series(self):
        with pytest.raises(ValueError, match="2 records"):
            WeatherSeries(dt=900.0, values=np.zeros((1, len(INPUT_CHANNELS))))

    def test_weather_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="columns"):
            WeatherSeries(dt=900.0, values=np.zeros((3, 5)))

    def test_measurements_reject_ragged_lengths(self):
        with pytest.raises(ValueError, match="length"):
            MeasurementSeries(dt=900.0, series={1: np.zeros(5), 2: np.zeros(6)})

    def test_measurements_reject_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            MeasurementSeries(dt=900.0, series={1: np.array([1.0, np.nan])})
