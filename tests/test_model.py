"""Mesh construction and state-matrix assembly."""

import math

import numpy as np
import pytest

from thermodiag.model import (
    INPUT_CHANNELS,
    ROLE_AIR,
    ROLE_INSIDE,
    ROLE_INTERNAL,
    ROLE_OUTSIDE,
    ROLE_RADIANT,
    TEMPERATURE_CHANNELS,
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    assemble,
    build_mesh,
    layer_stack_to_rc,
)
from thermodiag.testcell import example_cell


def make_component(**overrides):
    fields = dict(
        name="wall",
        orientation="N",
        area=2.0,
        layers=(Layer(0.1, 0.23, 600.0, 1600.0),),
        h_ci=5.0, h_ce=15.0, h_ri=5.0, h_re=5.0,
        absorptivity=0.6,
    )
    fields.update(overrides)
    return EnvelopeComponent(**fields)


def minimal_description(**component_overrides):
    return BuildingDescription(
        components=(make_component(**component_overrides),),
        zone=AirZone(air_capacity=30000.0, air_specific_heat=1006.0,
                     ventilation_flow=0.01),
    )


class TestLayerStackToRC:
    def test_single_layer_conductance_by_hand(self):
        # K = area * conductivity / thickness = 2 * 0.23 / 0.1
        conductances, capacities = layer_stack_to_rc(
            [Layer(0.1, 0.23, 600.0, 1600.0)], area=2.0, internal_node_count=0)
        assert conductances == pytest.approx([4.6])
        assert len(capacities) == 2

    def test_r2c_equal_half_capacities(self):
        layer = Layer(0.1, 0.23, 600.0, 1600.0)
        _, capacities = layer_stack_to_rc([layer], area=2.0, internal_node_count=0)
        total = 0.1 * 2.0 * 600.0 * 1600.0
        assert capacities == pytest.approx([total / 2, total / 2])

    def test_two_layers_series_resistance(self):
        layers = [Layer(0.1, 0.5, 1000.0, 1000.0), Layer(0.05, 0.04, 30.0, 1400.0)]
        conductances, _ = layer_stack_to_rc(layers, area=3.0, internal_node_count=0)
        r = 0.1 / (0.5 * 3.0) + 0.05 / (0.04 * 3.0)
        assert conductances == pytest.approx([1.0 / r])

    def test_totals_preserved_for_any_node_count(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            layers = [
                Layer(rng.uniform(0.01, 0.3), rng.uniform(0.02, 2.0),
                      rng.uniform(20.0, 2500.0), rng.uniform(700.0, 2000.0))
                for _ in range(rng.integers(1, 5))
            ]
            area = rng.uniform(0.5, 20.0)
            n_internal = int(rng.integers(0, 6))
            conductances, capacities = layer_stack_to_rc(layers, area, n_internal)
            assert len(conductances) == n_internal + 1
            assert len(capacities) == n_internal + 2
            r_total = sum(1.0 / k for k in conductances)
            assert r_total == pytest.approx(
                sum(l.thickness / (l.conductivity * area) for l in layers))
            assert sum(capacities) == pytest.approx(
                sum(l.thickness * area * l.density * l.specific_heat for l in layers))

    def test_totals_are_left_to_right_sums(self):
        # a unit layer, then 40 whose resistance and capacity are 1e-17 each:
        # every addition from the left rounds back to 1, where a compensated
        # sum (math.fsum, and the builtin sum from Python 3.12 on) keeps them
        layers = [Layer(1.0, 1.0, 1.0, 1.0)] + [Layer(1e-17, 1.0, 1.0, 1.0)] * 40
        conductances, capacities = layer_stack_to_rc(layers, area=1.0, internal_node_count=0)
        assert math.fsum([1.0] + [1e-17] * 40) != 1.0
        assert conductances == [1.0]
        assert capacities == [0.5, 0.5]

    def test_rejects_empty_stack_and_bad_area(self):
        with pytest.raises(ValueError):
            layer_stack_to_rc([], 1.0, 0)
        with pytest.raises(ValueError):
            layer_stack_to_rc([Layer(0.1, 0.2, 100.0, 1000.0)], 0.0, 0)


class TestTypeValidation:
    def test_layer_fields_strictly_positive(self):
        with pytest.raises(ValueError):
            Layer(0.0, 0.2, 100.0, 1000.0)
        with pytest.raises(ValueError):
            Layer(0.1, -0.2, 100.0, 1000.0)

    def test_absorptivity_range(self):
        with pytest.raises(ValueError, match="absorptivity"):
            make_component(absorptivity=1.2)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError, match="area"):
            make_component(area=0.0)

    def test_underflowing_layer_conductance_rejected(self):
        # k A = 1e-400 underflows to 0, which would divide by zero in the mesh
        with pytest.raises(ValueError, match="total resistance of inf"):
            make_component(area=1e-200, layers=(Layer(0.1, 1e-200, 100.0, 1000.0),))

    @pytest.mark.parametrize("overrides,role", [
        (dict(area=1.0, h_ce=1e308, h_re=1e308), "outside-surface"),
        # a conductance of 1e308 W/K on both sides of an internal node
        (dict(area=1.0, layers=(Layer(2e-308, 1.0, 600.0, 1600.0),), internal_node_count=1),
         "internal"),
    ])
    def test_conductances_summing_to_inf_at_a_ladder_node_rejected(self, overrides, role):
        with pytest.raises(ValueError, match=f"its {role} node sum to inf W/K"):
            make_component(**overrides)

    @pytest.mark.parametrize("overrides,message", [
        (dict(area=1.0, h_ri=1e308), "the mean radiant node sum to inf W/K"),
        (dict(area=1e200, is_glazing=True), "overflow the glazing's solar shares"),
    ])
    def test_conductances_summing_to_inf_at_a_zone_node_rejected(self, overrides, message):
        # each component alone is a finite network; together they are not
        with pytest.raises(ValueError, match=message):
            BuildingDescription(
                components=(make_component(name="a", **overrides),
                            make_component(name="b", **overrides)),
                zone=AirZone(30000.0, 1006.0, 0.01), glazing_transmitted_fraction=1.0)

    def test_null_flux_only_for_floor(self):
        with pytest.raises(ValueError, match="null-flux"):
            make_component(outside_boundary="null-flux")
        make_component(orientation="horizontal-down", outside_boundary="null-flux")

    def test_duplicate_component_names_rejected(self):
        zone = AirZone(30000.0, 1006.0, 0.01)
        with pytest.raises(ValueError, match="duplicate"):
            BuildingDescription(
                components=(make_component(), make_component()), zone=zone)

    def test_two_null_flux_components_rejected(self):
        zone = AirZone(30000.0, 1006.0, 0.01)
        floor = dict(orientation="horizontal-down", outside_boundary="null-flux")
        with pytest.raises(ValueError, match="null-flux"):
            BuildingDescription(
                components=(make_component(name="f1", **floor),
                            make_component(name="f2", **floor)),
                zone=zone)

    def test_zone_validation(self):
        with pytest.raises(ValueError):
            AirZone(0.0, 1006.0, 0.01)
        with pytest.raises(ValueError):
            AirZone(30000.0, 1006.0, -0.01)


class TestBuildMesh:
    def test_minimal_r2c_mesh_is_four_nodes(self):
        model = build_mesh(minimal_description())
        roles = [n.role for n in model.nodes]
        assert roles == [ROLE_OUTSIDE, ROLE_INSIDE, ROLE_RADIANT, ROLE_AIR]
        assert model.air_node == 4
        assert model.mean_radiant_node == 3

    def test_internal_node_count_three_gives_five_wall_nodes(self):
        model = build_mesh(minimal_description(internal_node_count=3))
        wall_nodes = model.nodes_of("wall")
        assert len(wall_nodes) == 5
        assert [n.role for n in wall_nodes] == [
            ROLE_OUTSIDE, ROLE_INTERNAL, ROLE_INTERNAL, ROLE_INTERNAL, ROLE_INSIDE]

    def test_bundled_cell_meshes_to_23_nodes(self):
        model = build_mesh(example_cell())
        assert model.n_nodes == 23
        assert model.nodes[-1].role == ROLE_AIR
        assert model.nodes[-2].role == ROLE_RADIANT
        assert sum(n.role == ROLE_AIR for n in model.nodes) == 1
        assert sum(n.role == ROLE_RADIANT for n in model.nodes) == 1

    def test_node_ids_dense_and_deterministic(self):
        model_a = build_mesh(example_cell())
        model_b = build_mesh(example_cell())
        assert [n.node_id for n in model_a.nodes] == list(range(1, 24))
        assert model_a.nodes == model_b.nodes
        assert model_a.conductances == model_b.conductances
        assert model_a.input_couplings == model_b.input_couplings

    def test_null_flux_floor_has_no_outside_node_and_no_outward_coupling(self):
        model = build_mesh(example_cell())
        floor_nodes = model.nodes_of("floor")
        assert [n.role for n in floor_nodes] == [ROLE_INTERNAL, ROLE_INTERNAL, ROLE_INSIDE]
        deepest = floor_nodes[0].node_id
        assert deepest not in model.input_couplings
        # the deep node touches only the next node up the ladder
        partners = {j for (i, j) in model.conductances if i == deepest}
        partners |= {i for (i, j) in model.conductances if j == deepest}
        assert partners == {floor_nodes[1].node_id}

    def test_capacities_zero_only_for_mean_radiant(self):
        model = build_mesh(example_cell())
        zero = [i + 1 for i, c in enumerate(model.capacities) if c == 0.0]
        assert zero == [model.mean_radiant_node]


class TestAssemble:
    def test_minimal_mesh_structure(self):
        desc = minimal_description()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        comp = desc.components[0]
        k = comp.layers[0].conductivity * comp.area / comp.layers[0].thickness
        outside, inside, radiant, air = 0, 1, 2, 3
        expected = np.zeros((4, 4))
        expected[outside, inside] = expected[inside, outside] = k
        expected[inside, air] = expected[air, inside] = comp.h_ci * comp.area
        expected[inside, radiant] = expected[radiant, inside] = comp.h_ri * comp.area
        off = sm.exchange - np.diag(np.diag(sm.exchange))
        assert off == pytest.approx(expected)

    def test_exchange_matrix_symmetric_nonnegative_offdiag(self):
        desc = example_cell()
        sm = assemble(build_mesh(desc), desc)
        assert np.array_equal(sm.exchange, sm.exchange.T)
        off = sm.exchange - np.diag(np.diag(sm.exchange))
        assert np.all(off >= 0.0)
        assert np.all(np.diag(sm.exchange) < 0.0)

    def test_row_conservation_against_input_coupling(self):
        desc = example_cell()
        sm = assemble(build_mesh(desc), desc)
        for i in range(sm.n_nodes):
            offdiag = sm.exchange[i].sum() - sm.exchange[i, i]
            boundary = sum(sm.input_coupling[i, INPUT_CHANNELS.index(ch)]
                           for ch in TEMPERATURE_CHANNELS)
            assert -sm.exchange[i, i] == pytest.approx(offdiag + boundary)

    def test_ventilation_coupling_in_air_row(self):
        desc = minimal_description()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        air = model.air_node - 1
        vent = desc.zone.air_specific_heat * desc.zone.ventilation_flow
        assert sm.input_coupling[air, INPUT_CHANNELS.index("T_ae")] == pytest.approx(vent)
        # the compensating loss term sits on the diagonal
        comp = desc.components[0]
        assert -sm.exchange[air, air] == pytest.approx(comp.h_ci * comp.area + vent)

    def test_outside_surface_boundary_couplings(self):
        desc = minimal_description()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        comp = desc.components[0]
        outside = 0
        assert sm.input_coupling[outside, INPUT_CHANNELS.index("T_ae")] == pytest.approx(
            comp.h_ce * comp.area)
        assert sm.input_coupling[outside, INPUT_CHANNELS.index("T_sky")] == pytest.approx(
            comp.h_re * comp.area)
        assert sm.input_coupling[outside, INPUT_CHANNELS.index("I_N")] == pytest.approx(
            comp.absorptivity * comp.area)

    def test_mean_radiant_steady_state_is_area_weighted_mean(self):
        # uniform h_ri: the radiant balance solves to sum(S_j T_j) / sum(S_j)
        desc = example_cell()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        radiant = model.mean_radiant_node - 1
        row = sm.exchange[radiant].copy()
        inside = {model.inside_surface_node(c.name): c.area for c in desc.components}
        for node, area in inside.items():
            assert row[node - 1] == pytest.approx(5.0 * area)
        assert -row[radiant] == pytest.approx(sum(5.0 * a for a in inside.values()))
        temps = np.zeros(sm.n_nodes)
        rng = np.random.default_rng(7)
        for node in inside:
            temps[node - 1] = rng.uniform(10.0, 35.0)
        t_rm = -(row @ temps - row[radiant] * temps[radiant]) / row[radiant]
        weighted = sum(a * temps[n - 1] for n, a in inside.items()) / sum(inside.values())
        assert t_rm == pytest.approx(weighted)

    def test_glazing_distributes_transmitted_solar_prorata(self):
        desc = example_cell()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        window = desc.component("window")
        col = INPUT_CHANNELS.index("I_S")  # the window faces south
        total_area = sum(c.area for c in desc.components)
        transmitted = desc.glazing_transmitted_fraction * window.area
        for comp in desc.components:
            node = model.inside_surface_node(comp.name) - 1
            share = transmitted * comp.area / total_area
            assert sm.input_coupling[node, col] == pytest.approx(share)

    def test_capacity_diagonal_copied_not_shared(self):
        desc = example_cell()
        model = build_mesh(desc)
        sm = assemble(model, desc)
        sm.capacity[0] = -1.0
        assert model.capacities[0] != -1.0


class TestInputChannels:
    def test_channel_order_matches_weather_columns(self):
        assert INPUT_CHANNELS == ("T_ae", "T_sky", "I_N", "I_S", "I_E", "I_W", "I_H")

    def test_temperature_channels_subset(self):
        assert set(TEMPERATURE_CHANNELS) <= set(INPUT_CHANNELS)
