"""Implicit stepping, measurement forcing, series validation."""

import dataclasses
import importlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermodiag.model import (
    INPUT_CHANNELS,
    ORIENTATIONS,
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    StateMatrices,
    assemble,
    build_mesh,
)
from thermodiag.diagnose import ChromosomeEvaluator
from thermodiag.ga import encode
from thermodiag.simulate import (
    BLOCK_STEPS,
    CHUNK_STEPS,
    GROUP_SETS,
    LONG_BLOCK_STEPS,
    LONG_BLOCKS,
    RESIDUAL_RTOL,
    MeasurementSeries,
    SingularSystemError,
    WeatherSeries,
    simulate,
)
from thermodiag.testcell import default_measured_nodes, example_cell, synthetic_weather

from helpers import single_node_matrices

#: The kernel's module, which the package's ``simulate`` function shadows.
kernel = importlib.import_module("thermodiag.simulate")


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
    return simulate(sm, weather, [forcing], meas, T0)[0]


def steady_state(sm, u):
    """The unforced steady state under the input record ``u``, by a dense solve."""
    return np.linalg.solve(sm.exchange, -(sm.input_coupling @ u))


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
        T0 = steady_state(sm, weather.values[0])
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
                simulate(sm, weather, [{node}], meas)


class TestStep:
    def test_missing_measurement_for_forced_node(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=weather.dt, series={4: np.zeros(weather.n_records)})
        with pytest.raises(ValueError, match="forced node"):
            simulate(sm, weather, [{3}], meas)

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
        values = simulate(sm, weather)
        assert values.shape == (1, 23, weather.n_records)
        assert np.all(np.isfinite(values))

    def test_forced_rows_reproduce_measurements_bit_for_bit(self):
        model, sm = cell_setup()
        weather = synthetic_weather(days=1)
        rng = np.random.default_rng(11)
        nodes = (3, 14, 16)
        meas = MeasurementSeries(dt=weather.dt, series={
            n: rng.uniform(15.0, 30.0, size=weather.n_records) for n in nodes})
        [values] = simulate(sm, weather, [nodes], meas, rows=nodes)
        for row, n in zip(values, nodes):
            assert np.array_equal(row, meas.node_series(n))

    def test_constant_weather_reaches_steady_state(self):
        model, sm = cell_setup()
        weather = constant_weather(25.0, 6000, t_sky=15.0)
        expected = np.linalg.solve(sm.exchange, -(sm.input_coupling @ weather.values[0]))
        [values] = simulate(sm, weather, T0=np.full(sm.n_nodes, 5.0))
        assert values[:, -1] == pytest.approx(expected, abs=1e-6)

    def test_all_nodes_converge_to_uniform_boundary(self):
        model, sm = cell_setup()
        weather = constant_weather(20.0, 6000)
        [values] = simulate(sm, weather, T0=np.full(sm.n_nodes, 35.0))
        assert np.max(np.abs(values[:, -1] - 20.0)) < 1e-6

    def test_matches_analytic_single_rc_exponential(self):
        # tau = C/K = 18000 s, dt = 900 s: first-order scheme stays within 2 %
        capacity, conductance = 180000.0, 10.0
        tau = capacity / conductance
        sm = single_node_matrices(capacity, conductance)
        weather = constant_weather(0.0, 200)
        [values] = simulate(sm, weather, T0=np.array([10.0]))
        t = np.arange(200) * weather.dt
        analytic = 10.0 * np.exp(-t / tau)
        assert np.max(np.abs(values[0] - analytic)) / 10.0 < 0.02

    def test_halving_dt_shrinks_analytic_error(self):
        capacity, conductance = 180000.0, 10.0
        tau = capacity / conductance
        sm = single_node_matrices(capacity, conductance)
        errors = {}
        for dt in (900.0, 450.0):
            n = int(36000.0 / dt) + 1
            weather = constant_weather(0.0, n, dt=dt)
            [values] = simulate(sm, weather, T0=np.array([10.0]))
            analytic = 10.0 * math.exp(-(n - 1) * dt / tau)
            errors[dt] = abs(values[0, -1] - analytic)
        # first-order scheme: halving dt roughly halves the error
        assert errors[450.0] < 0.7 * errors[900.0]

    def test_forcing_without_measurements_rejected(self):
        _, sm = cell_setup()
        with pytest.raises(ValueError, match="measurement"):
            simulate(sm, synthetic_weather(days=1), [{3}])

    def test_measurement_length_mismatch_rejected(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=900.0, series={3: np.zeros(10)})
        with pytest.raises(ValueError, match="length"):
            simulate(sm, weather, [{3}], meas)

    def test_measurement_dt_mismatch_rejected(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        meas = MeasurementSeries(dt=600.0, series={3: np.zeros(weather.n_records)})
        with pytest.raises(ValueError, match="dt"):
            simulate(sm, weather, [{3}], meas)

    def test_deterministic(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        a = simulate(sm, weather)
        b = simulate(sm, weather)
        assert np.array_equal(a, b)

    def test_rows_outside_the_nodes_rejected(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        for node in (0, -3, sm.n_nodes + 1):
            with pytest.raises(ValueError, match=rf"row node {node} outside 1\.\.23"):
                simulate(sm, weather, rows=(1, node))

    def test_rows_are_the_asked_nodes_in_the_asked_order(self):
        _, sm = cell_setup()
        weather = synthetic_weather(days=1)
        [every] = simulate(sm, weather)
        rows = (23, 16, 3, 16)
        assert np.array_equal(simulate(sm, weather, rows=rows)[0],
                              every[np.array(rows) - 1])


def measured_cell(days: int = 2, seed: int = 3):
    """The bundled cell with every node measured (noisy series)."""
    model, sm = cell_setup()
    weather = synthetic_weather(days=days)
    [free] = simulate(sm, weather)
    rng = np.random.default_rng(seed)
    meas = MeasurementSeries(dt=weather.dt, series={
        n: free[n - 1] + rng.normal(0.0, 0.5, weather.n_records)
        for n in range(1, sm.n_nodes + 1)})
    return model, sm, weather, meas


def random_sets(rng, n_sets: int, nodes: int = 22) -> list:
    return [frozenset(int(k) + 1 for k in np.flatnonzero(rng.random(nodes) < 0.4))
            for _ in range(n_sets)]


def sub_model_sets(rng, n: int, air: int, n_sets: int) -> list:
    """Sets forcing at least n // 2 = n - ceil(n/2) nodes besides the air
    node, so the air row asked alone is marched on a sub-model of at most
    ceil(n/2) nodes."""
    others = [node for node in range(1, n + 1) if node != air]
    return [frozenset(int(node) for node in rng.choice(
        others, int(rng.integers(n // 2, n)), replace=False)) for _ in range(n_sets)]


class TestBatchKernel:
    def test_batch_results_bit_identical_to_solo_runs(self):
        model, sm, weather, meas = measured_cell()
        assert (weather.n_records - 1) % BLOCK_STEPS != 0
        rng = np.random.default_rng(5)
        sets = random_sets(rng, 12) + [frozenset()]
        solo = [simulate(sm, weather, [f], meas)[0] for f in sets]
        for _ in range(4):
            # random composition, order and duplicates
            picks = rng.choice(len(sets), size=int(rng.integers(2, 20)))
            batch = simulate(sm, weather, [sets[i] for i in picks], meas)
            for values, i in zip(batch, picks):
                assert np.array_equal(values, solo[i])
        # the air row asked alone is marched on its own sub-model, so it
        # agrees with the whole rows to round-off, not bit for bit
        air = simulate(sm, weather, sets, meas, rows=(model.air_node,))
        assert np.max(np.abs(air[:, 0] - [v[model.air_node - 1] for v in solo])) < 1e-11

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
        T0 = steady_state(sm, weather.values[0])
        batch = simulate(sm, weather, sets, meas, T0)
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
        [T] = simulate(sm, weather, [forcing], meas)
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

    def test_batch_of_three_groups_bit_identical_to_solo_runs(self):
        model, sm, weather, meas = measured_cell()
        rng = np.random.default_rng(21)
        sets = random_sets(rng, 2 * GROUP_SETS + 1)
        batch = simulate(sm, weather, sets, meas)
        for values, forcing in zip(batch, sets):
            assert np.array_equal(values, simulate(sm, weather, [forcing], meas)[0])

    @staticmethod
    def traced_peak(sm, weather, sets, meas, rows):
        simulate(sm, weather, sets, meas, rows=rows)
        tracemalloc.start()
        try:
            out = simulate(sm, weather, sets, meas, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out

    def test_memory_is_three_blocks_the_step_matrices_and_the_output(self):
        # the subset table of the 5 protocol sensors on the 5-day weather
        model, sm, weather, meas = measured_cell(days=5)
        nodes = default_measured_nodes(model)
        sets = [frozenset(c) for r in range(len(nodes) + 1)
                for c in itertools.combinations(nodes, r)]
        peak, out = self.traced_peak(sm, weather, sets, meas, (model.air_node,))
        n_sets, n = len(sets), sm.n_nodes
        chunks = BLOCK_STEPS // CHUNK_STEPS
        # a group's block: its states over its inputs, both with one
        # chunk-wide slab more than the block, its right-hand sides and the
        # block's start; one group's M, propagator [G | M^-1] and G^q, and
        # the chunk-end scan's G^2q .. G^(q 2^(K-1)), K = ceil(log2 chunks);
        # numpy copies at most two strided operands of one elementwise step
        # through its iteration buffers
        blocks = (2 * (BLOCK_STEPS + chunks) + BLOCK_STEPS + 1) * GROUP_SETS * n * 8
        powers = (chunks - 1).bit_length() - 1
        step_matrices = (4 + powers) * GROUP_SETS * n * n * 8
        buffers = 2 * np.getbufsize() * 8
        assert n_sets == 2 * GROUP_SETS
        assert peak <= 1.1 * (blocks + step_matrices + out.nbytes) + buffers

        # four times the sets: every group reuses the one block and marches
        # with its own step matrices, so only the output grows, and the
        # call's list of each set's sorted forced nodes
        more = sets * 4
        more_peak, more_out = self.traced_peak(sm, weather, more, meas, (model.air_node,))
        lists = sum(sys.getsizeof(sorted(f)) + 8 for f in more[n_sets:])
        assert more_peak <= peak + more_out.base.nbytes - out.base.nbytes + lists

        # sets of ceil(n/2) rows march in groups of up to GROUP_SETS n
        # rows, as many as fit: two full groups keep to the same
        # budget, since no block is wider and the step matrices are smaller
        most = GROUP_SETS * n // -(-n // 2)
        sub = sub_model_sets(np.random.default_rng(37), n, model.air_node, 2 * most)
        sub_peak, sub_out = self.traced_peak(sm, weather, sub, meas, (model.air_node,))
        assert sub_peak <= 1.1 * (blocks + step_matrices + sub_out.nbytes) + buffers

    def test_non_finite_initial_state_rejected(self):
        _, sm = cell_setup()
        T0 = np.full(sm.n_nodes, 20.0)
        T0[4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            simulate(sm, synthetic_weather(days=1), T0=T0)

    def test_isolated_zero_capacity_node_rejected_by_name(self):
        # with h_ri = 0 the mean radiant node has neither capacity nor a
        # link, so no sub-model of the air row holds it; the air row's
        # march must still fail, and name the node
        desc = example_cell()
        desc = dataclasses.replace(desc, components=tuple(
            dataclasses.replace(c, h_ri=0.0) for c in desc.components))
        model = build_mesh(desc)
        sm = assemble(model, desc)
        radiant = model.mean_radiant_node
        assert radiant == 22 and sm.capacity[radiant - 1] == 0.0
        assert not sm.exchange[radiant - 1].any()
        with pytest.raises(SingularSystemError, match=r"node 22 .*singular"):
            simulate(sm, synthetic_weather(days=1), rows=(model.air_node,))

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

    def test_residual_failure_names_the_set_and_the_step(self):
        # the 1e14 W/K pair again: forcing both nodes passes, the unforced
        # set fails from the first step on, and only it is named
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling], [coupling, -coupling - 1.0]]),
            input_coupling=np.eye(2, len(INPUT_CHANNELS)),
        )
        weather = constant_weather(20.0, 5, dt=10.0, t_sky=5.0)
        meas = MeasurementSeries(dt=10.0, series={1: np.full(5, 1.0), 2: np.full(5, 2.0)})
        T0 = np.array([1.0, 2.0])
        simulate(sm, weather, [{1, 2}], meas, T0)
        with pytest.raises(SingularSystemError, match=r"set 1 of the batch .* at step 1 "):
            simulate(sm, weather, [{1, 2}, set()], meas, T0)
        with pytest.raises(SingularSystemError, match=r"set 0 of the batch .* at step 1 "):
            simulate(sm, weather, [set(), {1, 2}], meas, T0)

    def test_residual_failure_names_the_set_by_its_batch_index(self):
        # the 1e14 W/K pair once more: fully forced copies, which march
        # nothing, and one unforced set among them, which
        # alone fails, from step 1 on; the error counts the whole batch
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling], [coupling, -coupling - 1.0]]),
            input_coupling=np.eye(2, len(INPUT_CHANNELS)),
        )
        weather = constant_weather(20.0, 5, dt=10.0, t_sky=5.0)
        meas = MeasurementSeries(dt=10.0, series={1: np.full(5, 1.0), 2: np.full(5, 2.0)})
        sets = [{1, 2}] * (2 * GROUP_SETS + 1)
        failing = GROUP_SETS + 3
        sets[failing] = set()
        with pytest.raises(SingularSystemError,
                           match=rf"set {failing} of the batch .* at step 1 "):
            simulate(sm, weather, sets, meas, np.array([1.0, 2.0]))

    def test_residual_failure_names_a_late_step_and_its_set(self):
        # the 1e14 W/K pair at rest with zero inputs passes every check
        # until the inputs start, in a later chunk of a later block; the
        # unforced set then fails from that step on
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling], [coupling, -coupling - 1.0]]),
            input_coupling=np.eye(2, len(INPUT_CHANNELS)),
        )
        onset = 2 * BLOCK_STEPS + 3 * CHUNK_STEPS + CHUNK_STEPS // 2 + 1
        assert onset % CHUNK_STEPS not in (0, 1)
        weather = constant_weather(20.0, 4 * BLOCK_STEPS, dt=10.0, t_sky=5.0)
        weather.values[:onset] = 0.0
        meas = MeasurementSeries(dt=10.0, series={1: np.zeros(weather.n_records),
                                                  2: np.zeros(weather.n_records)})
        T0 = np.zeros(2)
        simulate(sm, weather, [{1, 2}], meas, T0)
        with pytest.raises(SingularSystemError, match=rf"set 1 of the batch .* at step {onset} "):
            simulate(sm, weather, [{1, 2}, set(), set()], meas, T0)

    def test_decay_to_zero_passes_the_gate(self):
        # zero inputs and a step far above the time constant: the state
        # falls through the subnormals to 0, where M T - V keeps a round-off
        # residual that no bound relative to V alone can accept
        sm = single_node_matrices(1e4, 10.0)
        T = march(sm, constant_weather(0.0, 400, dt=1e6), np.array([1.0]))
        assert 0.0 < T[0, 105] < np.finfo(float).tiny
        assert T[0, -1] == 0.0


def chained_ends(G_q, start, ends):
    """A block's chunk ends chained one after the other from its start,
    E_j = G^q E_(j-1) + e_j, E_(-1) the start."""
    chained = np.empty_like(ends)
    end = start
    for j in range(ends.shape[2]):
        end = G_q @ end + ends[:, :, j:j + 1]
        chained[:, :, j:j + 1] = end
    return chained


class TestChunkEndScan:
    """Phase 2 of a block: its chunk ends chained from its start by a
    Hillis-Steele scan of ceil(log2 c) + 1 products."""

    @pytest.mark.parametrize("chunks", [1, 2, 3, 12, 16, 64])
    def test_scan_matches_a_sequential_chain(self, chunks):
        rng = np.random.default_rng(chunks)
        n_sets, n = 3, 7
        # stable step matrices, G = Q diag(0.5 .. 0.99) Q^T, per set
        Q = np.linalg.qr(rng.normal(size=(n_sets, n, n)))[0]
        G = (Q * rng.uniform(0.5, 0.99, (n_sets, 1, n))) @ Q.transpose(0, 2, 1)
        powers = [np.linalg.matrix_power(G, CHUNK_STEPS)]
        for _ in range(1, (chunks - 1).bit_length()):
            powers.append(powers[-1] @ powers[-1])
        start = rng.normal(20.0, 5.0, (n_sets, n, 1))
        ends = rng.normal(0.0, 2.0, (n_sets, n, chunks))
        expected = chained_ends(powers[0], start, ends)
        kernel._scan_ends(powers, start, ends, np.empty(n_sets * n * chunks))
        assert np.max(np.abs(ends - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_each_block_takes_log_depth_products_and_sets_stay_bit_identical(
            self, monkeypatch):
        # 5 days: 479 steps, three blocks of 16 chunks and one of 95 steps,
        # so 12 chunks, the last one partial
        _, sm, weather, meas = measured_cell(days=5)
        full, rest = divmod(weather.n_records - 1, BLOCK_STEPS)
        chunks = [BLOCK_STEPS // CHUNK_STEPS] * full + [-(-rest // CHUNK_STEPS)]
        assert chunks == [16, 16, 16, 12] and rest % CHUNK_STEPS
        sets = random_sets(np.random.default_rng(23), 12) + [frozenset()]
        # every row is asked, so a set forcing at least n - ceil(n/2) nodes
        # is marched on its sub-model of ceil(n/2) rows: sets 7 and 9, in
        # one group after the group of n rows of the other 11
        n, half = sm.n_nodes, -(-sm.n_nodes // 2)
        assert [p for p, f in enumerate(sets) if n - len(f) <= half] == [7, 9]
        products = []
        chain = kernel._chain
        monkeypatch.setattr(kernel, "_chain", lambda G, ends, out: (
            products.append(out.shape), chain(G, ends, out))[1])
        batch = simulate(sm, weather, sets, meas)
        monkeypatch.undo()
        # per group and block, G^q times its start, then at level k the
        # ends that have an end 2^k chunks back
        levels = [math.ceil(math.log2(c)) for c in chunks]
        assert products == [(size, rows, width) for size, rows in ((11, n), (2, half))
                            for c, K in zip(chunks, levels)
                            for width in [1] + [c - 2 ** k for k in range(K)]]
        assert len(products) == 2 * sum(K + 1 for K in levels)
        for values, forcing in zip(batch, sets):
            assert np.array_equal(values, simulate(sm, weather, [forcing], meas)[0])


class TestLongHorizon:
    """A horizon over the long-block threshold, marched in blocks of
    LONG_BLOCK_STEPS and groups of at most GROUP_SETS n propagator rows."""

    def test_forced_batch_bit_identical_to_solo_runs_and_within_the_gate(self, monkeypatch):
        # 86 days: 8256 records, so the last block and its last chunk are partial
        model, sm, weather, meas = measured_cell(days=86)
        n_records = weather.n_records
        assert n_records >= LONG_BLOCKS * LONG_BLOCK_STEPS
        assert (n_records - 1) % LONG_BLOCK_STEPS and (n_records - 1) % CHUNK_STEPS
        sets = random_sets(np.random.default_rng(17), GROUP_SETS) + [frozenset()]
        # every row is asked, so a set forcing at least n - ceil(n/2) nodes
        # is marched on its sub-model of ceil(n/2) rows
        n, half = sm.n_nodes, -(-sm.n_nodes // 2)
        assert [p for p, f in enumerate(sets) if n - len(f) <= half] == [0, 2, 10, 15]
        # the (sets, rows, chunks) of every chunk march: two a block, in the
        # group of those 4 sets and the group of the other 13, each over 17
        # blocks, the last of 8 chunks
        marches = []
        chunk_march = kernel._march_chunks
        monkeypatch.setattr(kernel, "_march_chunks", lambda GW, Z, steps: (
            marches.append((Z.shape[0], GW.shape[1], Z.shape[3])), chunk_march(GW, Z, steps)))
        batch = simulate(sm, weather, sets, meas)
        full, rest = divmod(n_records - 1, LONG_BLOCK_STEPS)
        chunks = [LONG_BLOCK_STEPS // CHUNK_STEPS] * full + [-(-rest // CHUNK_STEPS)]
        assert (full, chunks[-1]) == (16, 8)
        assert marches == [(size, rows, c) for size, rows in ((4, half), (13, n))
                           for c in chunks for _ in range(2)]
        monkeypatch.undo()
        c_over_dt = sm.capacity / weather.dt
        drive = sm.input_coupling @ weather.values.T
        for values, forcing in zip(batch, sets):
            assert np.array_equal(values, simulate(sm, weather, [forcing], meas)[0])
            forced = sorted(forcing)
            series = np.array([meas.node_series(node) for node in forced]).reshape(-1, n_records)
            assert np.array_equal(values[np.array(forced, dtype=int) - 1], series)
            # every step's residual M T_k - V_k, V_k = D T_(k-1) + B U_k with
            # the measurements in the forced rows, against the gate
            M = np.diag(c_over_dt) - sm.exchange
            V = c_over_dt[:, None] * values[:, :-1] + drive[:, 1:]
            for row, node in enumerate(forced):
                M[node - 1, :] = 0.0
                M[node - 1, node - 1] = 1.0
                V[node - 1] = series[row, 1:]
            residual = np.max(np.abs(M @ values[:, 1:] - V), axis=0)
            assert np.all(residual <= RESIDUAL_RTOL * np.max(np.abs(V), axis=0))


def small_components(count):
    return st.tuples(*[st.builds(
        EnvelopeComponent, name=st.just(f"c{i}"), orientation=st.sampled_from(ORIENTATIONS),
        area=st.floats(0.5, 20.0),
        layers=st.lists(st.builds(Layer, st.floats(0.01, 0.3), st.floats(0.03, 2.0),
                                  st.floats(20.0, 2500.0), st.floats(500.0, 2000.0)),
                        min_size=1, max_size=2).map(tuple),
        h_ci=st.floats(1.0, 25.0), h_ce=st.floats(1.0, 25.0),
        h_ri=st.floats(1.0, 10.0), h_re=st.floats(1.0, 10.0),
        absorptivity=st.floats(0.0, 1.0), internal_node_count=st.integers(0, 2),
        is_glazing=st.booleans()) for i in range(count)])


def null_flux_floor(components, floor):
    if not floor:
        return components
    first = dataclasses.replace(components[0], orientation="horizontal-down",
                                outside_boundary="null-flux")
    return (first, *components[1:])


#: Physical one-zone buildings of 1-3 components; ventilation is positive,
#: so the air node always couples to ambient.
small_buildings = st.builds(
    BuildingDescription,
    components=st.builds(null_flux_floor, st.integers(1, 3).flatmap(small_components),
                         st.booleans()),
    zone=st.builds(AirZone, st.floats(1e3, 1e5), st.floats(900.0, 1100.0),
                   st.floats(1e-3, 0.1)),
    glazing_transmitted_fraction=st.floats(0.0, 1.0))

constant_inputs = st.tuples(st.floats(-10.0, 35.0), st.floats(-20.0, 30.0),
                            *[st.floats(0.0, 800.0)] * (len(INPUT_CHANNELS) - 2))


class TestRandomBuildings:
    @settings(max_examples=40, deadline=None)
    @given(desc=small_buildings)
    def test_exchange_and_temperature_couplings_conserve_energy(self, desc):
        sm = assemble(build_mesh(desc), desc)
        boundary = sum(sm.input_coupling[:, INPUT_CHANNELS.index(ch)] for ch in ("T_ae", "T_sky"))
        row_sums = sm.exchange.sum(axis=1) + boundary
        assert np.all(np.abs(row_sums) <= 1e-12 * np.abs(np.diag(sm.exchange)))

    @settings(max_examples=40, deadline=None)
    @given(desc=small_buildings, u=constant_inputs, offset=st.floats(-20.0, 20.0))
    def test_unforced_march_converges_to_initial_state(self, desc, u, offset):
        # backward Euler at a step far above every time constant contracts
        # any start to the steady state within a few dozen steps
        sm = assemble(build_mesh(desc), desc)
        weather = WeatherSeries(dt=1e9, values=np.tile(u, (60, 1)))
        steady = steady_state(sm, weather.values[0])
        T = march(sm, weather, steady + offset)
        assert T[:, -1] == pytest.approx(steady, abs=1e-6)


#: Horizons in records: one step, a chunk short of its last step, one
#: chunk, one block, and a second block that ends inside a chunk.
KERNEL_HORIZONS = (2, CHUNK_STEPS, CHUNK_STEPS + 1, BLOCK_STEPS + 1,
                   2 * BLOCK_STEPS + CHUNK_STEPS - 1)


class TestKernelAgainstDenseSolve:
    @settings(max_examples=40, deadline=None)
    @given(desc=small_buildings,
           n_records=st.sampled_from(KERNEL_HORIZONS) | st.integers(2, 3 * BLOCK_STEPS),
           seed=st.integers(0, 2**32 - 1))
    def test_random_buildings_match_step_by_step_solves(self, desc, n_records, seed):
        sm = assemble(build_mesh(desc), desc)
        n = sm.n_nodes
        rng = np.random.default_rng(seed)
        values = np.column_stack([rng.uniform(-10.0, 35.0, n_records),
                                  rng.uniform(-20.0, 30.0, n_records),
                                  rng.uniform(0.0, 800.0, (n_records, len(INPUT_CHANNELS) - 2))])
        weather = WeatherSeries(dt=900.0, values=values)
        meas = MeasurementSeries(dt=900.0, series={
            node: rng.uniform(10.0, 30.0, n_records) for node in range(1, n + 1)})
        sets = [frozenset(int(k) + 1 for k in np.flatnonzero(rng.random(n) < p))
                for p in (0.0, 0.3, 0.6)]
        T0 = steady_state(sm, weather.values[0])
        batch = simulate(sm, weather, sets, meas, T0)
        for values, forcing in zip(batch, sets):
            assert np.array_equal(values, simulate(sm, weather, [forcing], meas, T0)[0])
            for node in forcing:
                assert np.array_equal(values[node - 1], meas.node_series(node))
            T = T0.copy()
            for node in forcing:
                T[node - 1] = meas.node_series(node)[0]
            expected = [T]
            for k in range(1, n_records):
                pinned = {node: meas.node_series(node)[k] for node in forcing}
                expected.append(reference_step(sm, weather.dt, expected[-1],
                                               weather.values[k], pinned))
            # the solve pins a forced row to round-off only
            free = [i for i in range(n) if i + 1 not in forcing]
            error = np.abs(values[free] - np.array(expected).T[free])
            assert np.max(error, initial=0.0) < 1e-11


class TestSubModelMarch:
    """Every set is marched on the sub-model of its asked rows alone, its
    forced neighbours as inputs: on ceil(n/2) rows when the sub-model has
    at most ceil(n/2) nodes, on n rows otherwise."""

    @staticmethod
    def propagator_rows(monkeypatch, *args, **kwargs):
        """The rows of the propagator of every chunk march of one call."""
        rows = []
        chunk_march = kernel._march_chunks
        monkeypatch.setattr(kernel, "_march_chunks", lambda GW, Z, steps: (
            rows.append(GW.shape[1]), chunk_march(GW, Z, steps)))
        simulate(*args, **kwargs)
        monkeypatch.undo()
        return set(rows)

    @settings(max_examples=30, deadline=None)
    @given(desc=small_buildings, n_records=st.integers(2, 2 * BLOCK_STEPS + CHUNK_STEPS),
           seed=st.integers(0, 2**32 - 1))
    def test_air_row_matches_step_by_step_solves(self, desc, n_records, seed):
        model = build_mesh(desc)
        sm = assemble(model, desc)
        n, half = sm.n_nodes, -(-sm.n_nodes // 2)
        rng = np.random.default_rng(seed)
        values = np.column_stack([rng.uniform(-10.0, 35.0, n_records),
                                  rng.uniform(-20.0, 30.0, n_records),
                                  rng.uniform(0.0, 800.0, (n_records, len(INPUT_CHANNELS) - 2))])
        weather = WeatherSeries(dt=900.0, values=values)
        meas = MeasurementSeries(dt=900.0, series={
            node: rng.uniform(10.0, 30.0, n_records) for node in range(1, n + 1)})
        # at least n - ceil(n/2) forced nodes leave the air row a sub-model
        # of at most ceil(n/2)
        others = [node for node in range(1, n + 1) if node != model.air_node]
        sets = [frozenset(int(node) for node in rng.choice(
            others, int(rng.integers(n - half, n)), replace=False)) for _ in range(3)]
        T0 = steady_state(sm, weather.values[0])
        air = simulate(sm, weather, sets, meas, T0, rows=(model.air_node,))
        for values, forcing in zip(air, sets):
            T = T0.copy()
            for node in forcing:
                T[node - 1] = meas.node_series(node)[0]
            expected = [T[model.air_node - 1]]
            for k in range(1, n_records):
                pinned = {node: meas.node_series(node)[k] for node in forcing}
                T = reference_step(sm, weather.dt, T, weather.values[k], pinned)
                expected.append(T[model.air_node - 1])
            assert np.max(np.abs(values[0] - expected)) < 1e-11

    def test_mixed_batches_give_each_set_its_solo_bits(self, monkeypatch):
        # sets of ceil(n/2) rows (16-21 of the 22 other nodes forced), sets
        # of n rows (at most 3 forced) and sets forcing both asked rows, which
        # march nothing
        model, sm, weather, meas = measured_cell()
        air, n = model.air_node, sm.n_nodes
        rng = np.random.default_rng(29)
        others = [node for node in range(1, n + 1) if node != air]
        def draw(low, high):
            return frozenset(int(node) for node in rng.choice(
                others, int(rng.integers(low, high + 1)), replace=False))
        sub = [draw(16, 21) for _ in range(5)]
        whole = [draw(0, 3) for _ in range(5)]
        silent = [frozenset({air, 3}), frozenset({air, 3, 14, 16})]
        sets = sub + whole + silent
        rows = (air, 3)
        assert self.propagator_rows(monkeypatch, sm, weather, sub, meas, rows=rows) == {
            -(-n // 2)}
        assert self.propagator_rows(monkeypatch, sm, weather, whole, meas, rows=rows) == {n}
        assert self.propagator_rows(monkeypatch, sm, weather, silent, meas, rows=rows) == set()
        solo = [simulate(sm, weather, [f], meas, rows=rows)[0] for f in sets]
        for _ in range(4):
            # random composition, order and duplicates, over several groups
            picks = rng.choice(len(sets), size=int(rng.integers(2, 3 * GROUP_SETS)))
            batch = simulate(sm, weather, [sets[i] for i in picks], meas, rows=rows)
            for values, i in zip(batch, picks):
                assert np.array_equal(values, solo[i])
        for values, forcing in zip(solo, sets):
            for row, node in zip(values, rows):
                if node in forcing:
                    assert np.array_equal(row, meas.node_series(node))

    def test_half_forced_set_marches_half_the_rows(self, monkeypatch):
        model, sm, weather, meas = measured_cell(days=1)
        n, rows = sm.n_nodes, (model.air_node,)
        half_forced = frozenset(range(1, 12))
        assert model.air_node not in half_forced
        assert self.propagator_rows(monkeypatch, sm, weather, [half_forced], meas,
                                    rows=rows) == {-(-n // 2)}
        assert self.propagator_rows(monkeypatch, sm, weather, [frozenset()], meas,
                                    rows=rows) == {n}
        nodes = default_measured_nodes(model)
        subsets = [frozenset(c) for r in range(len(nodes) + 1)
                   for c in itertools.combinations(nodes, r)]
        assert len(subsets) == 2 * GROUP_SETS
        assert self.propagator_rows(monkeypatch, sm, weather, subsets, meas, rows=rows) == {n}

    def test_groups_hold_as_many_rows_as_whole_network_groups(self, monkeypatch):
        # a group holds GROUP_SETS n propagator rows: on the 23-node cell,
        # 30 sets of ceil(n/2) = 12 rows, so 2 GROUP_SETS + 1 of
        # them march in two groups, split evenly in batch order
        model, sm, weather, meas = measured_cell(days=1)
        n, half, rows = sm.n_nodes, -(-sm.n_nodes // 2), (model.air_node,)
        assert GROUP_SETS * n // half == 30
        sets = sub_model_sets(np.random.default_rng(31), n, model.air_node, 2 * GROUP_SETS + 1)
        # the (sets, rows) of each chunk march: two per block, over one block
        marches = []
        chunk_march = kernel._march_chunks
        monkeypatch.setattr(kernel, "_march_chunks", lambda GW, Z, steps: (
            marches.append((Z.shape[0], GW.shape[1])), chunk_march(GW, Z, steps)))
        batch = simulate(sm, weather, sets, meas, rows=rows)
        monkeypatch.undo()
        assert weather.n_records - 1 <= BLOCK_STEPS
        assert marches == [(17, half)] * 2 + [(16, half)] * 2
        for values, forcing in zip(batch, sets):
            assert np.array_equal(values, simulate(sm, weather, [forcing], meas, rows=rows)[0])

    def test_residual_failure_names_a_sub_model_set_by_its_batch_index(self, monkeypatch):
        # the 1e14 W/K pair of nodes 1 and 2, and node 3 coupled to node 2:
        # forcing node 1 leaves the sub-model {2, 3}, which passes, and
        # forcing node 3 the pair, which fails from step 1 on; 33 sets of
        # 2 rows march in two groups, of 17 and 16 (a group holds
        # GROUP_SETS n = 48 rows), the failing one in the second
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling, 0.0],
                               [coupling, -coupling - 2.0, 1.0],
                               [0.0, 1.0, -1.0]]),
            input_coupling=np.eye(3, len(INPUT_CHANNELS)),
        )
        weather = constant_weather(20.0, 5, dt=10.0, t_sky=5.0)
        meas = MeasurementSeries(dt=10.0, series={
            node: np.full(5, float(node)) for node in (1, 2, 3)})
        T0 = np.array([1.0, 2.0, 3.0])
        sets = [{1}] * (2 * GROUP_SETS + 1)
        failing = GROUP_SETS + 3
        assert failing >= -(-len(sets) // 2)
        sets[failing] = {3}
        assert self.propagator_rows(monkeypatch, sm, weather, sets[:1], meas, T0) == {2}
        with pytest.raises(SingularSystemError,
                           match=rf"set {failing} of the batch .* at step 1 "):
            simulate(sm, weather, sets, meas, T0)


class TestInitialState:
    def test_constant_input_gives_fixed_point_of_step(self):
        _, sm = cell_setup()
        u = np.zeros(len(INPUT_CHANNELS))
        u[0], u[1], u[2] = 30.0, 20.0, 100.0
        weather = WeatherSeries(dt=900.0, values=np.tile(u, (10, 1)))
        [traj] = simulate(sm, weather)
        assert traj[:, 0] == pytest.approx(steady_state(sm, u), abs=1e-12)
        assert traj == pytest.approx(np.tile(traj[:, :1], (1, 10)), abs=1e-9)

    def test_symmetric_two_boundary_ladder_by_hand(self):
        # node1 -G- ambient, node1 -K- node2, node2 -G- sky:
        # with G=2, K=1 and a 20 degree gap the drop splits 5/10/5
        exchange = np.array([[-3.0, 1.0], [1.0, -3.0]])
        coupling = np.zeros((2, len(INPUT_CHANNELS)))
        coupling[0, 0] = 2.0  # T_ae
        coupling[1, 1] = 2.0  # T_sky
        sm = StateMatrices(capacity=np.array([10.0, 10.0]),
                           exchange=exchange, input_coupling=coupling)
        [T] = simulate(sm, constant_weather(30.0, 2, t_sky=10.0))
        assert T[:, 0] == pytest.approx([25.0, 15.0])


class TestForcedStart:
    """With no T0, every set starts from its own forced steady state:
    ``exchange T = -input_coupling U_0`` on its free rows, its forced rows
    at their measurements."""

    @staticmethod
    def draw(desc, seed, n_records=3):
        sm = assemble(build_mesh(desc), desc)
        rng = np.random.default_rng(seed)
        values = np.column_stack([rng.uniform(-10.0, 35.0, n_records),
                                  rng.uniform(-20.0, 30.0, n_records),
                                  rng.uniform(0.0, 800.0, (n_records, len(INPUT_CHANNELS) - 2))])
        weather = WeatherSeries(dt=900.0, values=values)
        meas = MeasurementSeries(dt=900.0, series={
            node: rng.uniform(10.0, 30.0, n_records) for node in range(1, sm.n_nodes + 1)})
        sets = [frozenset(int(k) + 1 for k in np.flatnonzero(rng.random(sm.n_nodes) < p))
                for p in (0.0, 0.2, 0.4, 0.6)]
        return sm, weather, meas, sets

    @settings(max_examples=30, deadline=None)
    @given(desc=small_buildings, seed=st.integers(0, 2**32 - 1))
    def test_column_0_is_each_sets_forced_steady_state(self, desc, seed):
        sm, weather, meas, sets = self.draw(desc, seed)
        for values, forcing in zip(simulate(sm, weather, sets, meas), sets):
            # the steady state of the whole network, forced rows pinned
            S = sm.exchange.copy()
            rhs = -(sm.input_coupling @ weather.values[0])
            for node in forcing:
                S[node - 1] = 0.0
                S[node - 1, node - 1] = 1.0
                rhs[node - 1] = meas.node_series(node)[0]
            expected = np.linalg.solve(S, rhs)
            free = [i for i in range(sm.n_nodes) if i + 1 not in forcing]
            error = np.abs(values[free, 0] - expected[free])
            assert np.max(error, initial=0.0) <= 1e-9 * np.max(np.abs(expected[free]),
                                                               initial=0.0)
            for node in forcing:
                assert values[node - 1, 0].hex() == meas.node_series(node)[0].hex()

    @settings(max_examples=30, deadline=None)
    @given(desc=small_buildings, seed=st.integers(0, 2**32 - 1))
    def test_each_set_gives_its_solo_bits_in_a_mixed_batch(self, desc, seed):
        sm, weather, meas, sets = self.draw(desc, seed)
        air = build_mesh(desc).air_node
        mixed = sets + [frozenset(range(1, sm.n_nodes + 1)) - {air}] + sets[::-1]
        for rows in (None, (air,)):
            batch = simulate(sm, weather, mixed, meas, rows=rows)
            for values, forcing in zip(batch, mixed):
                alone = simulate(sm, weather, [forcing], meas, rows=rows)[0]
                assert values.tobytes() == alone.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(desc=small_buildings, seed=st.integers(0, 2**32 - 1))
    def test_empty_set_starts_from_the_dense_steady_state(self, desc, seed):
        sm, weather, _, _ = self.draw(desc, seed)
        [values] = simulate(sm, weather)
        expected = np.linalg.solve(sm.exchange, -(sm.input_coupling @ weather.values[0]))
        assert list(map(float.hex, values[:, 0])) == list(map(float.hex, expected))

    def test_sub_model_without_a_boundary_named(self):
        # node 1 couples to ambient, nodes 2 and 3 only to each other: they
        # have no steady state until one of them is forced
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0, 10.0]),
            exchange=np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]),
            input_coupling=np.eye(3, len(INPUT_CHANNELS)) * [[1.0], [0.0], [0.0]],
        )
        weather = constant_weather(20.0, 3, dt=10.0)
        meas = MeasurementSeries(dt=10.0, series={2: np.full(3, 25.0)})
        with pytest.raises(ValueError,
                           match=r"set 1 of the batch: nodes 2, 3 reach no boundary"):
            simulate(sm, weather, [{2}, set()], meas)
        [T] = simulate(sm, weather, [{2}], meas)
        assert T[:, 0] == pytest.approx([20.0, 25.0, 25.0])
        # a given start needs no steady state
        simulate(sm, weather, T0=np.array([20.0, 21.0, 22.0]))

    def test_ill_conditioned_start_fails_the_residual_check(self):
        # the 1e14 W/K pair: -A has cond ~1e14, which np.linalg.solve
        # accepts, but its solution misses the residual bound
        coupling = 1e14
        sm = StateMatrices(
            capacity=np.array([10.0, 10.0]),
            exchange=np.array([[-coupling - 1.0, coupling], [coupling, -coupling - 1.0]]),
            input_coupling=np.eye(2, len(INPUT_CHANNELS)),
        )
        weather = constant_weather(20.0, 5, dt=10.0, t_sky=5.0)
        with pytest.raises(SingularSystemError,
                           match=r"start solve of set 0 of the batch failed the residual"):
            simulate(sm, weather)


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
