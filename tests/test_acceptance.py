"""End-to-end guarantees for the full diagnosis pipeline.

Each test pins one externally visible behaviour of the package at its
stated tolerance. They run on the bundled 23-node test cell with five
measurable nodes and the synthetic five-day weather record.
"""

import math
import time

import numpy as np
import pytest

from thermodiag.diagnose import (
    ChromosomeEvaluator,
    exhaustive_search,
    residual_stats,
)
from thermodiag.ga import (
    GAConfig,
    ScoredIndividual,
    _flip,
    _spin,
    _wheel,
    encode,
    fitness,
    run_ga,
)
from thermodiag.model import assemble, build_mesh
from thermodiag.simulate import WeatherSeries, simulate
from thermodiag.testcell import (
    default_measured_nodes,
    example_cell,
    synthetic_weather,
)
from thermodiag.verify import (
    CONTROL_J_MAX,
    DefectSpec,
    generate_pseudo_measurements,
    inject_defect,
    run_case,
)

from helpers import single_node_matrices


@pytest.fixture(scope="module")
def cell():
    desc = example_cell()
    model = build_mesh(desc)
    weather = synthetic_weather(days=5)
    measured = default_measured_nodes(model)
    return desc, model, weather, measured


@pytest.fixture(scope="module")
def pseudo(cell):
    desc, _, weather, measured = cell
    return generate_pseudo_measurements(desc, weather, measured)


def ga_config(seed):
    return GAConfig(
        population_size=30, crossover_probability=0.8,
        mutation_probability=0.03, max_generations=400, rng_seed=seed)


def door_defect():
    return DefectSpec("door", "layer_conductivity", base=0.23,
                      perturbed=0.78, component="door")


def test_ga_matches_exhaustive_oracle_across_seeds(cell, pseudo):
    desc, model, weather, measured = cell
    perturbed = inject_defect(desc, door_defect())
    sm = assemble(build_mesh(perturbed), perturbed)
    evaluator = ChromosomeEvaluator(sm, weather, pseudo, model.air_node)

    oracle_best, table = exhaustive_search(
        measured, evaluator, evaluator.chromosome_length)
    oracle_J = min(table.values())

    agree = 0
    slowest = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        best, _ = run_ga(ga_config(seed), evaluator,
                         encode(measured, evaluator.chromosome_length))
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        if best.J == oracle_J:
            agree += 1
    print(f"oracle agreement {agree}/20 seeds, slowest run {slowest:.2f} s")
    assert agree >= 19
    assert slowest < 60.0


def test_door_conductivity_defect_localized(cell, pseudo):
    desc, model, weather, _ = cell
    outcome = run_case(door_defect(), desc, weather, pseudo, ga_config(0))
    print(f"door case: best set {sorted(outcome.report.best_forcing)}, "
          f"ratio {outcome.report.ratio:.4g}")
    assert model.inside_surface_node("door") in outcome.report.best_forcing
    assert outcome.report.ratio < 0.2


def test_roof_absorptivity_defect_localized(cell, pseudo):
    desc, model, weather, _ = cell
    spec = DefectSpec("roof", "absorptivity", base=0.3, perturbed=0.9,
                      component="roof")
    outcome = run_case(spec, desc, weather, pseudo, ga_config(0))
    print(f"roof case: best set {sorted(outcome.report.best_forcing)}, "
          f"ratio {outcome.report.ratio:.4g}")
    assert model.inside_surface_node("roof") in outcome.report.best_forcing
    assert outcome.report.ratio < 0.2


def test_global_convection_defect_yields_no_forcing(cell, pseudo):
    desc, _, weather, _ = cell
    spec = DefectSpec("conv", "h_ci", base=5.0, perturbed=0.1)
    outcome = run_case(spec, desc, weather, pseudo, ga_config(0))
    print(f"convection case: best set {sorted(outcome.report.best_forcing)}, "
          f"ratio {outcome.report.ratio}")
    assert outcome.report.best_forcing == frozenset() or outcome.report.ratio > 0.9


def test_forced_nodes_reproduce_measurements_bitwise(cell):
    desc, model, weather, measured = cell
    perturbed = inject_defect(desc, door_defect())
    pseudo = generate_pseudo_measurements(perturbed, weather, measured)
    sm = assemble(model, desc)
    [values] = simulate(sm, weather, [measured], pseudo, rows=measured)
    assert values.shape[1] == 480
    for row, node in zip(values, measured):
        assert np.array_equal(row, pseudo.node_series(node))
    print(f"forced rows bit-identical over {values.shape[1]} samples "
          f"for nodes {sorted(measured)}")


def test_physics_sanity_constant_boundary_and_analytic_decay(cell):
    desc, model, *_ = cell
    sm = assemble(model, desc)

    # every node must settle onto a uniform boundary temperature
    t0 = 20.0
    record = np.array([t0, t0, 0.0, 0.0, 0.0, 0.0, 0.0])
    weather = WeatherSeries(dt=900.0, values=np.tile(record, (6001, 1)))
    start = np.full(model.n_nodes, 30.0)
    [values] = simulate(sm, weather, T0=start)
    worst = float(np.max(np.abs(values[:, -1] - t0)))
    assert worst < 1e-6

    # one lump against the exact exponential, time constant 20 steps
    capacity, conductance = 180000.0, 10.0
    tau = capacity / conductance
    single = single_node_matrices(capacity, conductance)
    n_steps = 200
    weather1 = WeatherSeries(
        dt=900.0, values=np.zeros((n_steps + 1, 7)))
    [values1] = simulate(single, weather1, T0=np.array([10.0]))
    times = 900.0 * np.arange(n_steps + 1)
    exact = 10.0 * np.exp(-times / tau)
    max_err = float(np.max(np.abs(values1[0] - exact)))
    print(f"uniform-boundary worst residual {worst:.3g} °C, "
          f"single-lump decay error {max_err / 10.0:.3%} of amplitude")
    assert max_err / 10.0 < 0.02


def test_unperturbed_model_self_consistency(cell, pseudo):
    desc, _, weather, _ = cell
    outcome = run_case(None, desc, weather, pseudo, ga_config(0))
    print(f"control: best set {sorted(outcome.report.best_forcing)}, "
          f"unforced J {outcome.report.unforced_J:.3g}")
    assert outcome.report.best_forcing == frozenset()
    assert outcome.report.unforced_J < CONTROL_J_MAX
    assert outcome.passed


def test_ga_operator_statistical_properties():
    # fitness transform: fixed point at zero, strictly decreasing
    assert fitness(0.0) == 1.0
    grid = np.linspace(0.0, 50.0, 400)
    values = [fitness(J) for J in grid]
    assert all(a > b for a, b in zip(values, values[1:]))

    # roulette frequencies track fitness shares within ±0.02
    scored = [ScoredIndividual((i,), float(i), f)
              for i, f in enumerate((0.4, 0.3, 0.2, 0.1))]
    total = sum(ind.f for ind in scored)
    rng = np.random.default_rng(123)
    n_draws = 10_000
    counts = np.bincount(_spin(_wheel(scored), rng.random(n_draws)), minlength=4)
    worst_gap = max(abs(c / n_draws - ind.f / total)
                    for c, ind in zip(counts, scored))
    assert worst_gap < 0.02

    # mutation flips within 3 sigma of the binomial expectation
    length, p_m, trials = 22, 0.03, 10_000
    mask = (1,) * length
    rng = np.random.default_rng(7)
    zero = np.zeros((trials, length), dtype=np.uint8)
    draws = rng.random((trials, length))
    flips = int(_flip(zero, draws, p_m, np.array(mask, dtype=np.uint8)).sum())
    mean = trials * length * p_m
    sigma = math.sqrt(trials * length * p_m * (1.0 - p_m))
    assert abs(flips - mean) < 3.0 * sigma

    # elitist best never worsens, even on a rugged landscape; evaluators
    # score a whole generation per call
    def rugged(chromosomes):
        codes = [sum(b << i for i, b in enumerate(bits)) for bits in chromosomes]
        return [float((code * 2654435761) % 10007) / 100.0 for code in codes]

    config = GAConfig(
        population_size=20, crossover_probability=0.8,
        mutation_probability=0.05, max_generations=80, rng_seed=5)
    _, history = run_ga(config, rugged, mask)
    assert all(a >= b for a, b in zip(history.best_J, history.best_J[1:]))

    # OneMax on the full chromosome length solved on at least 19/20 seeds
    def one_max(chromosomes):
        return [float(length - sum(bits)) for bits in chromosomes]

    solved = 0
    for seed in range(20):
        config = GAConfig(
            population_size=30, crossover_probability=0.8,
            mutation_probability=0.03, max_generations=400, rng_seed=seed)
        best, _ = run_ga(config, one_max, mask)
        solved += best.J == 0.0
    print(f"roulette gap {worst_gap:.4f}, mutation flips {flips} "
          f"(mean {mean:.0f}), OneMax solved {solved}/20")
    assert solved >= 19


def test_seeded_runs_byte_identical(tmp_path):
    from thermodiag.cli import main

    args = ["diagnose",
            "--building", "data/example_cell_door_defect.building",
            "--weather", "data/example_weather.csv",
            "--measurements", "data/example_measurements.csv",
            "--seed", "5", "--generations", "60"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    names = ("report.txt", "report.kv", "ga_history.csv",
             "air_comparison.csv")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    print(f"byte-identical files: {', '.join(names)}")


def test_residual_statistics_hand_values():
    sim = np.zeros(2)
    meas = np.array([0.2, 0.3])
    mean, sd = residual_stats(sim, meas)
    print(f"mean {mean!r}, sd {sd!r}")
    assert abs(mean - 0.25) < 1e-12
    assert abs(sd - math.sqrt(0.005)) < 1e-12
