"""Defect injection, pseudo-measurements, and case judging."""

import dataclasses

import numpy as np
import pytest

from thermodiag.diagnose import ChromosomeEvaluator
from thermodiag.ga import GAConfig, decode, encode, run_ga
from thermodiag.model import ROLE_INSIDE, assemble, build_mesh
from thermodiag.simulate import simulate
from thermodiag.testcell import default_measured_nodes, example_cell, synthetic_weather
from thermodiag.verify import (
    CONTROL_ID,
    CONTROL_J_MAX,
    DefectSpec,
    format_outcomes,
    generate_pseudo_measurements,
    inject_defect,
    outcomes_key_values,
    run_case,
)


@pytest.fixture(scope="module")
def setting():
    desc = example_cell()
    model = build_mesh(desc)
    weather = synthetic_weather(days=2)
    measured = default_measured_nodes(model)
    return desc, model, weather, measured


@pytest.fixture(scope="module")
def pseudo(setting):
    desc, _, weather, measured = setting
    return generate_pseudo_measurements(desc, weather, measured)


def base_config():
    return GAConfig(
        population_size=20, crossover_probability=0.8,
        mutation_probability=0.03, max_generations=200, rng_seed=3)


DOOR = DefectSpec("door", "layer_conductivity", base=0.23, perturbed=0.78,
                  component="door")


class TestDefectSpec:
    def test_equal_base_and_perturbed_rejected(self):
        with pytest.raises(ValueError):
            DefectSpec("x", "layer_conductivity", base=0.2, perturbed=0.2,
                       component="door")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DefectSpec("x", "window_area", base=1.0, perturbed=2.0)

    def test_component_required_for_layer_defect(self):
        with pytest.raises(ValueError):
            DefectSpec("x", "layer_conductivity", base=0.2, perturbed=0.4)

    def test_absorptivity_must_stay_physical(self):
        with pytest.raises(ValueError):
            DefectSpec("x", "absorptivity", base=0.3, perturbed=1.4,
                       component="roof")


class TestInjectDefect:
    def test_layer_conductivity_changes_one_field(self, setting):
        desc, *_ = setting
        spec = DefectSpec("d", "layer_conductivity", base=0.23,
                          perturbed=0.78, component="door")
        out = inject_defect(desc, spec)
        assert out.component("door").layers[0].conductivity == 0.78
        # everything else identical
        assert out.zone == desc.zone
        for comp in desc.components:
            if comp.name == "door":
                continue
            assert out.component(comp.name) == comp
        before = dataclasses.replace(
            out.component("door").layers[0], conductivity=0.23)
        assert before == desc.component("door").layers[0]

    def test_h_ci_applies_to_every_component(self, setting):
        desc, *_ = setting
        spec = DefectSpec("h", "h_ci", base=5.0, perturbed=0.1)
        out = inject_defect(desc, spec)
        assert all(c.h_ci == 0.1 for c in out.components)

    def test_absorptivity_single_component(self, setting):
        desc, *_ = setting
        spec = DefectSpec("a", "absorptivity", base=0.3, perturbed=0.9,
                          component="roof")
        out = inject_defect(desc, spec)
        assert out.component("roof").absorptivity == 0.9
        assert out.component("wall_east").absorptivity == 0.6

    def test_base_mismatch_rejected(self, setting):
        desc, *_ = setting
        spec = DefectSpec("d", "layer_conductivity", base=0.5,
                          perturbed=0.78, component="door")
        with pytest.raises(ValueError, match="base"):
            inject_defect(desc, spec)

    def test_layer_index_out_of_range(self, setting):
        desc, *_ = setting
        spec = DefectSpec("d", "layer_conductivity", base=0.23,
                          perturbed=0.78, component="door", layer_index=5)
        with pytest.raises(ValueError):
            inject_defect(desc, spec)

    def test_source_description_untouched(self, setting):
        desc, *_ = setting
        spec = DefectSpec("d", "layer_conductivity", base=0.23,
                          perturbed=0.78, component="door")
        inject_defect(desc, spec)
        assert desc.component("door").layers[0].conductivity == 0.23


class TestPseudoMeasurements:
    def test_rows_match_reference_trajectory_exactly(self, setting):
        desc, model, weather, measured = setting
        pseudo = generate_pseudo_measurements(desc, weather, measured)
        sm = assemble(model, desc)
        [values] = simulate(sm, weather)
        for node in (*measured, model.air_node):
            assert np.array_equal(pseudo.node_series(node), values[node - 1])

    def test_air_node_always_included(self, setting):
        desc, model, weather, measured = setting
        pseudo = generate_pseudo_measurements(desc, weather, measured)
        assert model.air_node in pseudo.node_ids

    # run_case adds the noise, drawn from the GA seed, to the pseudo-data

    def test_noise_reproducible_under_seed(self, setting, pseudo):
        desc, _, weather, _ = setting
        config = base_config()
        a = run_case(DOOR, desc, weather, pseudo, config, noise_sd=0.1)
        b = run_case(DOOR, desc, weather, pseudo, config, noise_sd=0.1)
        assert a == b
        other = run_case(DOOR, desc, weather, pseudo,
                         dataclasses.replace(config, rng_seed=4), noise_sd=0.1)
        assert other.report.unforced_J != a.report.unforced_J

    @pytest.mark.parametrize("noise_sd", [-0.2, float("inf"), float("nan")])
    def test_bad_noise_rejected(self, setting, pseudo, noise_sd):
        desc, _, weather, _ = setting
        with pytest.raises(ValueError, match="noise_sd"):
            run_case(DOOR, desc, weather, pseudo, base_config(), noise_sd=noise_sd)

    def test_noise_actually_perturbs(self, setting, pseudo):
        desc, _, weather, _ = setting
        clean = run_case(DOOR, desc, weather, pseudo, base_config())
        noisy = run_case(DOOR, desc, weather, pseudo, base_config(), noise_sd=0.1)
        assert noisy.report.unforced_J != clean.report.unforced_J


class TestExpectedNodes:
    def test_layer_defect_maps_to_inside_surface(self, setting, outcomes):
        _, model, *_ = setting
        assert outcomes[0].expected == {model.inside_surface_node("door")}

    def test_h_ci_has_no_single_culprit(self, setting, pseudo):
        desc, _, weather, _ = setting
        spec = DefectSpec("h", "h_ci", base=5.0, perturbed=0.1)
        outcome = run_case(spec, desc, weather, pseudo, base_config())
        assert outcome.expected == frozenset()


class TestRunCase:
    def test_door_defect_localized(self, setting, pseudo):
        desc, model, weather, _ = setting
        outcome = run_case(DOOR, desc, weather, pseudo, base_config())
        assert outcome.passed
        assert model.inside_surface_node("door") in outcome.report.best_forcing
        assert outcome.report.ratio < 0.2
        assert outcome.report.ga_matches_oracle

    def test_global_defect_gains_little(self, setting, pseudo):
        desc, _, weather, _ = setting
        spec = DefectSpec("conv", "h_ci", base=5.0, perturbed=0.1)
        outcome = run_case(spec, desc, weather, pseudo, base_config())
        assert outcome.passed
        assert outcome.report.best_forcing == frozenset() or outcome.report.ratio > 0.9

    def test_control_run_is_silent(self, setting, pseudo):
        desc, _, weather, _ = setting
        outcome = run_case(None, desc, weather, pseudo, base_config())
        assert outcome.passed
        assert outcome.case_id == CONTROL_ID and outcome.expected == frozenset()
        assert outcome.report.best_forcing == frozenset()
        assert outcome.report.unforced_J <= CONTROL_J_MAX

    def test_control_passes_when_ga_stops_on_round_off(self, setting, pseudo):
        # 11 is the smallest GA seed of 0-39 on which the GA on its own
        # stops on a non-empty set whose J is round-off above 0 ({3, 14, 20},
        # J = 1.07e-26; 17 and 24 do too); the empty set, which scores
        # exactly 0, must still be reported
        desc, model, weather, measured = setting
        config = dataclasses.replace(base_config(), rng_seed=11)
        evaluator = ChromosomeEvaluator(assemble(model, desc), weather, pseudo,
                                        model.air_node)
        ga_best, _ = run_ga(config, evaluator, encode(measured, model.n_nodes - 1))
        assert decode(ga_best.chromosome)
        assert 0.0 < ga_best.J < CONTROL_J_MAX

        outcome = run_case(None, desc, weather, pseudo, config)
        assert outcome.passed
        assert outcome.report.best_forcing == frozenset()
        assert outcome.report.best.J == 0.0

    def test_shared_clean_series_reproduces_each_case(self, setting):
        # the protocol marches the reference once and hands every case the
        # same clean series; a noisy case must leave it clean for the next
        desc, _, weather, measured = setting
        config = base_config()
        shared = generate_pseudo_measurements(desc, weather, measured)
        for noise_sd in (0.0, 0.05):
            fresh = generate_pseudo_measurements(desc, weather, measured)
            alone = run_case(DOOR, desc, weather, fresh, config, noise_sd=noise_sd)
            assert run_case(DOOR, desc, weather, shared, config,
                            noise_sd=noise_sd) == alone
            for node in fresh.node_ids:
                assert np.array_equal(shared.node_series(node), fresh.node_series(node))
        assert run_case(None, desc, weather, shared, config) == \
            run_case(None, desc, weather, fresh, config)


@pytest.fixture(scope="module")
def outcomes(setting, pseudo):
    desc, _, weather, _ = setting
    case = run_case(DOOR, desc, weather, pseudo, base_config())
    control = run_case(None, desc, weather, pseudo, base_config())
    return [case, control]


class TestReporting:
    def test_table_lists_every_case_and_tally(self, outcomes):
        text = format_outcomes(outcomes)
        assert "door" in text
        assert "control" in text
        assert "2/2 cases passed" in text

    def test_key_values_in_full_precision(self, outcomes):
        kv = outcomes_key_values(outcomes)
        case = outcomes[0]
        assert f"case.door.J_best = {case.report.best.J!r}" in kv
        assert f"case.door.passed = {int(case.passed)}" in kv
