"""Objective, evaluator memoization, oracle, statistics, reports."""

import itertools
import math

import numpy as np
import pytest

from thermodiag.diagnose import (
    ChromosomeEvaluator,
    ObjectiveOverflow,
    air_comparison_csv,
    exhaustive_search,
    format_report,
    history_csv,
    objective,
    per_node_scores,
    report_key_values,
    residual_stats,
    run_diagnosis,
)
from thermodiag.ga import GAConfig, decode, encode, run_ga
from thermodiag.model import assemble, build_mesh
from thermodiag.simulate import MeasurementSeries, simulate
from thermodiag.testcell import default_measured_nodes, example_cell, synthetic_weather
from thermodiag.verify import generate_pseudo_measurements


def batched(score):
    """Lift a one-chromosome objective to the evaluator's list contract."""
    return lambda chromosomes: [score(bits) for bits in chromosomes]


@pytest.fixture(scope="module")
def cell():
    desc = example_cell()
    model = build_mesh(desc)
    sm = assemble(model, desc)
    weather = synthetic_weather(days=2)
    measured = default_measured_nodes(model)
    pseudo = generate_pseudo_measurements(desc, weather, measured)
    return desc, model, sm, weather, measured, pseudo


class TestObjective:
    def test_identical_series_scores_zero(self):
        series = np.linspace(10.0, 20.0, 50)
        assert objective(series, series.copy()) == 0.0

    def test_constant_offset(self):
        sim = np.zeros(4)
        meas = np.full(4, 0.5)
        assert objective(sim, meas) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        sim = np.array([0.0, 2.0, -2.0])
        meas = np.array([1.0, 0.0, 0.0])
        assert objective(sim, meas) == pytest.approx(9.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="series lengths differ"):
            objective(np.zeros(3), np.zeros(4))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="objective needs at least one sample"):
            objective(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("sim, meas, simulated", [
        ([1e160, 0.0], [0.0, 0.0], True),
        ([0.0, 0.0], [1e160, 0.0], False),
        ([1e160, 0.0], [-1e160, 0.0], True),
    ])
    def test_overflow_says_whether_the_simulated_series_overflows(self, sim, meas, simulated):
        with pytest.raises(ObjectiveOverflow, match="overflows a double") as info:
            objective(np.array(sim), np.array(meas))
        assert info.value.simulated is simulated


class TestBatchedObjective:
    """One evaluator call scores every set its kernel call marched with one
    stacked product, bit for bit as each set's own series alone."""

    @pytest.mark.parametrize("skip_steps", [0, 7])
    def test_evaluator_J_equals_objective_of_each_air_series(self, cell, skip_steps):
        _, model, _, weather, measured, pseudo = cell
        sm, air = door_defect_matrices(cell), model.air_node
        subsets = [frozenset(c) for r in range(len(measured) + 1)
                   for c in itertools.combinations(measured, r)]
        ev = ChromosomeEvaluator(sm, weather, pseudo, air, skip_steps=skip_steps)
        scores = ev([encode(f, ev.chromosome_length) for f in subsets])
        meas_air = pseudo.node_series(air)[skip_steps:]
        alone = [objective(simulate(sm, weather, [f], pseudo, rows=(air,))[0, 0, skip_steps:],
                           meas_air) for f in subsets]
        assert all(J > 0.0 for J in alone)
        assert [J.hex() for J in scores] == [J.hex() for J in alone]

    def test_stack_scores_each_row_as_alone(self):
        rng = np.random.default_rng(41)
        meas = rng.normal(20.0, 5.0, 301)
        stack = meas + rng.normal(0.0, 10.0 ** rng.uniform(-6.0, 1.0, (9, 1)), (9, 301))
        assert [J.hex() for J in objective(stack, meas)] == [
            objective(row, meas).hex() for row in stack]

    def test_first_overflowing_row_says_whether_its_simulated_series_overflows(self):
        # row 0 fits, row 1 overflows through the measured series alone and
        # row 2 through its simulated series too
        meas = np.array([1e160, 0.0])
        stack = np.array([[1e160, 0.0], [0.0, 0.0], [-1e160, 0.0]])
        assert objective(stack[:1], meas) == [0.0]
        for order, simulated in (([0, 1, 2], False), ([0, 2, 1], True)):
            with pytest.raises(ObjectiveOverflow) as info:
                objective(stack[order], meas)
            assert info.value.simulated is simulated
            with pytest.raises(ObjectiveOverflow) as alone:
                objective(stack[order[1]], meas)
            assert alone.value.simulated is simulated

    def test_overflowing_batch_raises_from_the_evaluator(self, cell):
        _, model, sm, weather, measured, pseudo = cell
        series = {**pseudo.series, model.air_node: pseudo.node_series(model.air_node) * 1e160}
        huge = MeasurementSeries(dt=pseudo.dt, series=series)
        ev = ChromosomeEvaluator(sm, weather, huge, model.air_node)
        with pytest.raises(ObjectiveOverflow) as info:
            ev([encode(nodes, ev.chromosome_length) for nodes in ((), (measured[0],))])
        assert info.value.simulated is False


class TestResidualStats:
    def test_hand_values(self):
        sim = np.zeros(2)
        meas = np.array([0.2, 0.3])
        mean, sd = residual_stats(sim, meas)
        assert abs(mean - 0.25) < 1e-12
        assert abs(sd - math.sqrt(0.005)) < 1e-12

    def test_identical_series(self):
        series = np.linspace(0.0, 5.0, 10)
        assert residual_stats(series, series.copy()) == (0.0, 0.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="residual statistics need at least two samples"):
            residual_stats(np.zeros(1), np.zeros(1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="series lengths differ"):
            residual_stats(np.zeros(3), np.zeros(4))


SHORT_GA = GAConfig(population_size=4, crossover_probability=0.8,
                    mutation_probability=0.03, max_generations=2, rng_seed=0)


class TestMeasurableMask:
    """The mask run_diagnosis gives the GA comes from the measurement series."""

    def masks(self, cell, nodes, monkeypatch):
        import thermodiag.diagnose as diagnose

        _, model, sm, weather, _, pseudo = cell
        masks = []

        def recording_run_ga(config, evaluator, mask):
            masks.append(mask)
            return run_ga(config, evaluator, mask)

        monkeypatch.setattr(diagnose, "run_ga", recording_run_ga)
        air = pseudo.node_series(model.air_node)
        meas = MeasurementSeries(dt=pseudo.dt, series={
            n: pseudo.node_series(n) if n in pseudo.node_ids else air for n in nodes})
        run_diagnosis(sm, weather, meas, model.air_node, SHORT_GA)
        return masks

    def test_mask_length_and_loci(self, cell, monkeypatch):
        [mask] = self.masks(cell, (3, 14, 16, 19, 20, 23), monkeypatch)
        assert len(mask) == 22
        assert [i + 1 for i, b in enumerate(mask) if b] == [3, 14, 16, 19, 20]

    def test_air_node_silently_excluded(self, cell, monkeypatch):
        [mask] = self.masks(cell, (3, 23), monkeypatch)
        assert [i + 1 for i, b in enumerate(mask) if b] == [3]

    def test_out_of_range_rejected(self, cell, monkeypatch):
        with pytest.raises(ValueError, match="24"):
            self.masks(cell, (3, 23, 24), monkeypatch)


class TestChromosomeEvaluator:
    def test_self_consistency_scores_zero(self, cell):
        _, model, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        assert ev([encode((), ev.chromosome_length)]) == [0.0]

    def test_forcing_own_series_keeps_zero(self, cell):
        # measurements came from this very model, so pinning any measured
        # node re-injects what the solver would produce anyway
        _, model, sm, weather, measured, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        [unforced] = ev([encode((), ev.chromosome_length)])
        for node in measured:
            [forced] = ev([encode((node,), ev.chromosome_length)])
            assert forced == pytest.approx(unforced, abs=1e-12)

    def test_memoized_single_evaluation_per_pattern(self, cell):
        _, model, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        bits = encode((3, 16), ev.chromosome_length)
        [first] = ev([bits])
        size = ev.cache_size
        assert ev([bits, bits]) == [first, first]
        assert ev.cache_size == size

    def test_repeat_evaluations_bit_identical(self, cell):
        _, model, sm, weather, _, pseudo = cell
        bits = encode((14, 19), 22)
        values = set()
        for _ in range(3):
            ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
            values.update(ev([bits]))
        assert len(values) == 1

    def test_wrong_length_rejected(self, cell):
        _, model, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        with pytest.raises(ValueError):
            ev([(0, 1)])

    def test_every_chromosome_form_hits_the_same_entries(self, cell):
        _, model, sm, weather, _, pseudo = cell
        ints = [encode(nodes, 22) for nodes in ((), (3,), (3, 16), (14, 19, 20))]
        forms = [
            ints,
            [tuple(np.uint8(b) for b in c) for c in ints],
            [tuple(bool(b) for b in c) for c in ints],
            [list(c) for c in ints],
            [np.array(c, dtype=np.uint8) for c in ints],
        ]
        expected = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)(ints)
        for first in forms:
            # the first call misses in one form; the rest hit in every form
            ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
            assert ev(first) == expected
            for form in forms:
                assert ev(form) == expected
                assert ev.cache_size == len(ints)
            with pytest.raises(ValueError, match="length"):
                ev([*ints, (0, 1)])
            with pytest.raises(ValueError, match="length"):
                ev([*forms[1], tuple(np.uint8(b) for b in ints[1] + (0,))])

    def test_fully_cached_call_is_one_lookup_pass(self, cell, monkeypatch):
        # the cached float objects themselves come back, nothing is marched,
        # and no chromosome is normalised
        import thermodiag.diagnose as diagnose

        _, model, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        ints = [encode(nodes, 22) for nodes in ((), (3,), (3, 16))]
        first = ev(ints)
        marches, keyed = [], []
        monkeypatch.setattr(diagnose, "simulate", lambda *args, **kwargs: marches.append(args))
        key = ev._key
        monkeypatch.setattr(ev, "_key", lambda c: keyed.append(c) or key(c))
        for form in (ints, [tuple(bool(b) for b in c) for c in ints],
                     [tuple(np.int64(b) for b in c) for c in ints]):
            again = ev([*form, form[0]])
            assert all(a is b for a, b in zip(again, [*first, first[0]], strict=True))
        assert marches == [] and keyed == []
        # a list is not hashable and a wrong-length tuple misses: both are
        # normalised and checked, as on a partly cached call
        assert ev([list(ints[1])])[0] is first[1]
        with pytest.raises(ValueError, match="length"):
            ev([*ints, (0, 1)])
        with pytest.raises(ValueError, match="length"):
            ev([*ints, list(ints[0]) + [0]])
        assert keyed[0] == list(ints[1]) and (0, 1) in keyed and marches == []

    def test_partly_cached_call_marches_only_its_misses_at_once(self, cell, monkeypatch):
        import thermodiag.diagnose as diagnose

        _, model, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        cached = [encode(nodes, 22) for nodes in ((), (3,))]
        first = ev(cached)
        marched = []

        def counted(sm, weather, forcings, *args, **kwargs):
            marched.append(list(forcings))
            return simulate(sm, weather, forcings, *args, **kwargs)

        monkeypatch.setattr(diagnose, "simulate", counted)
        misses = [encode(nodes, 22) for nodes in ((14,), (19, 20))]
        scores = ev([cached[0], misses[0], cached[1], misses[1], misses[0]])
        assert marched == [[{14}, {19, 20}]]
        assert scores[0] is first[0] and scores[2] is first[1]
        assert scores[1] is scores[4]

    def test_air_node_bit_rejected_among_cached(self, cell):
        _, _, sm, weather, _, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, air_node=3)
        cached = [encode(nodes, 22) for nodes in ((), (16,))]
        ev(cached)
        with pytest.raises(ValueError, match="air node"):
            ev([*cached, encode((3, 16), 22)])
        assert ev.cache_size == len(cached)

    def test_air_measurement_required(self, cell):
        _, model, sm, weather, _, pseudo = cell
        series = {n: s for n, s in pseudo.series.items() if n != model.air_node}
        from thermodiag.simulate import MeasurementSeries
        stripped = MeasurementSeries(dt=pseudo.dt, series=series)
        with pytest.raises(ValueError, match="air node"):
            ChromosomeEvaluator(sm, weather, stripped, model.air_node)

    def test_skip_steps_shrinks_objective_window(self, cell):
        _, model, sm, weather, _, pseudo = cell
        full = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        skipped = ChromosomeEvaluator(sm, weather, pseudo, model.air_node,
                                      skip_steps=10)
        bits = encode((3,), 22)
        assert skipped([bits])[0] <= full([bits])[0] + 1e-18

    def test_skip_steps_leaves_two_samples_before_any_march(self, cell, monkeypatch):
        # the residual statistics need two samples: a skip that leaves one
        # must fail before the GA marches, not after
        import thermodiag.diagnose as diagnose

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(diagnose, "simulate", counted)
        _, model, sm, weather, _, pseudo = cell
        n = pseudo.n_samples
        with pytest.raises(ValueError, match="two samples"):
            diagnose_door_defect(cell, skip_steps=n - 1, max_generations=2)
        assert calls == []
        ChromosomeEvaluator(sm, weather, pseudo, model.air_node, skip_steps=n - 2)


class TestExhaustiveSearch:
    def test_five_nodes_means_32_evaluations(self):
        calls = []
        best, table = exhaustive_search(
            (1, 2, 3, 4, 5), lambda batch: calls.append(batch) or [1.0] * len(batch), 22)
        assert len(calls) == 1
        assert len(calls[0]) == 32
        assert len(table) == 32

    def test_constant_scores_tie_break_to_empty_set(self):
        best, _ = exhaustive_search((2, 4, 6), batched(lambda bits: 5.0), 10)
        assert best == frozenset()

    def test_tie_break_prefers_fewer_then_lower_pattern(self):
        # nodes 3 and 5 tie at the singleton level; the singleton whose
        # bit pattern sorts first wins, same ordering the GA uses
        @batched
        def scorer(bits):
            return 1.0 if sum(bits) == 1 else 9.0

        best, _ = exhaustive_search((3, 5), scorer, 10)
        assert best == {5}

    def test_finds_planted_minimum(self):
        target = encode((2, 7), 10)

        @batched
        def scorer(bits):
            return float(sum(b != t for b, t in zip(bits, target)))

        best, table = exhaustive_search((1, 2, 7, 9), scorer, 10)
        assert best == {2, 7}
        assert table[frozenset({2, 7})] == 0.0

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_search(tuple(range(1, 22)), batched(lambda bits: 0.0), 22)


class TestPerNodeScores:
    def test_contains_empty_entry_equal_to_unforced(self, cell):
        _, model, sm, weather, measured, pseudo = cell
        ev = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)
        scores = per_node_scores(measured, ev, ev.chromosome_length)
        assert set(scores) == {0, *measured}
        assert [scores[0]] == ev([encode((), ev.chromosome_length)])

    def test_order_independent(self):
        @batched
        def scorer(bits):
            return float(sum(i * b for i, b in enumerate(bits, start=1)))

        forward = per_node_scores((1, 2, 3), scorer, 5)
        backward = per_node_scores((3, 2, 1), scorer, 5)
        assert forward == backward


def door_defect_matrices(cell):
    desc = cell[0]
    from thermodiag.verify import inject_defect, DefectSpec
    perturbed = inject_defect(desc, DefectSpec(
        "d", "layer_conductivity", base=0.23, perturbed=0.78, component="door"))
    return assemble(build_mesh(perturbed), perturbed)


class Marches:
    """Stands in for ``diagnose.simulate``: marches, keeps every forcing set
    it marched, and lists every set that it is asked to march a second time."""

    def __init__(self):
        self.marched = set()
        self.again = []

    def __call__(self, sm, weather, forcings, *args, **kwargs):
        for forcing in map(frozenset, forcings):
            if forcing in self.marched:
                self.again.append(forcing)
            self.marched.add(forcing)
        return simulate(sm, weather, forcings, *args, **kwargs)


def diagnose_door_defect(cell, meas=None, exhaustive=True, skip_steps=0, **overrides):
    _, model, _, weather, _, pseudo = cell
    config = GAConfig(**{**dict(
        population_size=30, crossover_probability=0.8,
        mutation_probability=0.03, max_generations=400, rng_seed=1), **overrides})
    return run_diagnosis(door_defect_matrices(cell), weather, pseudo if meas is None else meas,
                         model.air_node, config, skip_steps=skip_steps, exhaustive=exhaustive)


@pytest.fixture(scope="module")
def report(cell):
    return diagnose_door_defect(cell)


class TestRunDiagnosis:
    def test_unforced_equals_empty_set_score(self, report):
        rep, _ = report
        assert rep.unforced_J == rep.per_node[0]

    def test_oracle_dominates_ga(self, report):
        rep, _ = report
        assert rep.oracle_best_J <= rep.best.J

    def test_report_text_deterministic_and_labelled(self, cell, report):
        _, model, *_ = cell
        rep, _ = report
        text_a = format_report(rep, model)
        text_b = format_report(rep, model)
        assert text_a == text_b
        assert "door inside-surface" in text_a
        assert "J unforced" in text_a

    def test_key_values_carry_full_precision(self, report):
        rep, _ = report
        kv = report_key_values(rep)
        assert f"best_J = {rep.best.J!r}" in kv
        assert f"unforced_J = {rep.unforced_J!r}" in kv

    def test_each_chromosome_and_air_series_simulated_once(self, cell, monkeypatch):
        import thermodiag.diagnose as diagnose

        marched = []   # forcing sets per kernel call
        ga_calls = []  # (kernel calls, generations) of each GA run

        def counting_simulate(sm, weather, forcings, *args, **kwargs):
            marched.append(len(forcings))
            return simulate(sm, weather, forcings, *args, **kwargs)

        def counting_run_ga(config, evaluator, mask):
            before = len(marched)
            best, history = run_ga(config, evaluator, mask)
            ga_calls.append((len(marched) - before, history.generations))
            return best, history

        monkeypatch.setattr(diagnose, "simulate", counting_simulate)
        monkeypatch.setattr(diagnose, "run_ga", counting_run_ga)
        rep, evaluator = diagnose_door_defect(cell)
        air_comparison_csv(rep, evaluator)
        # one march per distinct chromosome; the unforced and best air
        # series, which the residual statistics and the plot data share,
        # come from the marches that scored them
        assert sum(marched) == evaluator.cache_size
        # the GA marches each generation's uncached chromosomes in one call
        [(kernel_calls, generations)] = ga_calls
        assert kernel_calls <= generations

    def test_every_march_starts_from_each_sets_forced_steady_state(self, cell, monkeypatch):
        import thermodiag.diagnose as diagnose

        starts = []

        def recording_simulate(sm, weather, forcings, meas=None, T0=None, rows=None):
            starts.append(T0)
            return simulate(sm, weather, forcings, meas, T0, rows)

        monkeypatch.setattr(diagnose, "simulate", recording_simulate)
        # a capped GA misses the oracle's optimum, so its best set is
        # marched once more, outside the evaluator's kernel calls
        rep, _ = diagnose_door_defect(cell, population_size=2, max_generations=1,
                                      rng_seed=2)
        assert rep.ga_matches_oracle is False
        # no march is given a start: the kernel starts each set from its own
        assert len(starts) == 2
        assert starts == [None, None]

    def test_exhaustive_table_is_the_only_kernel_call(self, cell, monkeypatch):
        import thermodiag.diagnose as diagnose

        calls = []  # forcing sets per kernel call

        def counting_simulate(sm, weather, forcings, *args, **kwargs):
            calls.append(len(forcings))
            return simulate(sm, weather, forcings, *args, **kwargs)

        monkeypatch.setattr(diagnose, "simulate", counting_simulate)
        rep, evaluator = diagnose_door_defect(cell)
        air_comparison_csv(rep, evaluator)
        # the 2^5 subset table of the 5 sensors is marched first, in one
        # call; every set the GA, the per-node table and the report's air
        # series ask for is in it
        assert len(rep.measured_nodes) == 5
        assert calls == [32]
        assert evaluator.cache_size == 32

    def test_ga_searches_exactly_the_measured_nodes(self, cell, monkeypatch):
        import thermodiag.diagnose as diagnose

        _, model, *_ = cell
        seen = []  # forcing sets of every chromosome the evaluator is given

        class Recording(ChromosomeEvaluator):
            def __call__(self, chromosomes):
                seen.extend(decode(c) for c in chromosomes)
                return super().__call__(chromosomes)

        monkeypatch.setattr(diagnose, "ChromosomeEvaluator", Recording)
        rep, evaluator = diagnose_door_defect(cell)
        loci = evaluator.meas.node_ids - {model.air_node}
        assert loci == set(rep.measured_nodes) == {3, 14, 16, 19, 20}
        assert all(forcing <= loci for forcing in seen)
        # the oracle's full subset is among them, so every locus is searched
        assert frozenset().union(*seen) == loci

    def test_history_csv_shape(self, report):
        rep, _ = report
        lines = history_csv(rep.history).strip().split("\n")
        assert lines[0] == "generation,best_J,best_fitness,mean_fitness,best_bits"
        assert len(lines) == rep.history.generations + 1


class Remarching(ChromosomeEvaluator):
    """An evaluator that holds no air series, so each one is marched again."""

    def _keep(self, key, series):
        pass


def outputs(cell, rep, evaluator):
    model = cell[1]
    return (format_report(rep, model), report_key_values(rep), history_csv(rep.history),
            air_comparison_csv(rep, evaluator))


class TestHeldAirSeries:
    """The report's air series come from the marches that scored the sets."""

    def diagnose(self, cell, monkeypatch, **kwargs):
        """The report of a run and the forcing sets it marched a second time;
        its outputs equal those of a run that marches both series again."""
        import thermodiag.diagnose as diagnose

        marches = Marches()
        with monkeypatch.context() as m:
            m.setattr(diagnose, "simulate", marches)
            rep, evaluator = diagnose_door_defect(cell, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(diagnose, "ChromosomeEvaluator", Remarching)
            ref, ref_evaluator = diagnose_door_defect(cell, **kwargs)
        assert outputs(cell, rep, evaluator) == outputs(cell, ref, ref_evaluator)
        # every set marched was one the evaluator scored
        assert len(marches.marched) == evaluator.cache_size
        return rep, marches.again

    def test_bit_equal_to_solo_marches(self, cell, monkeypatch):
        _, model, _, weather, _, pseudo = cell
        rep, calls = self.diagnose(cell, monkeypatch, skip_steps=7, rng_seed=3)
        assert rep.skip_steps == 7
        assert calls == []
        psm = door_defect_matrices(cell)
        for series, forcing in ((rep.air_unforced, frozenset()),
                                (rep.air_best, rep.best_forcing)):
            # the evaluator's own ask, the air row alone
            solo = simulate(psm, weather, [forcing], pseudo, rows=(model.air_node,))[0, 0]
            assert series.shape == solo.shape == (weather.n_records,)
            assert series.tobytes() == solo.tobytes()

    def test_best_missed_by_capped_ga_is_marched_once(self, cell, monkeypatch):
        rep, calls = self.diagnose(cell, monkeypatch, population_size=2,
                                   max_generations=1, rng_seed=2)
        # the capped GA misses the oracle's optimum, the lowest set marched,
        # by far more than round-off
        assert rep.ga_matches_oracle is False
        assert rep.best.J > 1e20 * rep.oracle_best_J
        assert calls == [rep.best_forcing]

    def test_at_most_two_series_after_a_dense_run(self, cell):
        import thermodiag.diagnose as diagnose

        desc, model, _, weather, _, _ = cell
        nodes = [n for n in range(1, model.n_nodes + 1) if n != model.air_node]
        dense = generate_pseudo_measurements(desc, weather, nodes)
        marches = Marches()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(diagnose, "simulate", marches)
            rep, evaluator = diagnose_door_defect(cell, meas=dense, exhaustive=False,
                                                  max_generations=3, rng_seed=0)
        assert marches.again == []
        assert len(marches.marched) == evaluator.cache_size > 60
        # the best set was first marched after the initial population's call,
        # so the held series was replaced on the way
        assert rep.history.best_J[0] > rep.best.J
        assert 1 <= len(evaluator._air) <= 2
        assert sum(a.nbytes for a in evaluator._air.values()) <= 2 * 8 * weather.n_records
        assert rep.air_best is evaluator.air_series(rep.best.chromosome)
        assert rep.air_unforced is evaluator.air_series(encode((), 22))
