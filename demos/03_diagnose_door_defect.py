"""
Localize a defect with the genetic algorithm
============================================

The intact model disagrees with measurements taken on a building whose
door conducts three times too well. The GA searches over subsets of
measurable nodes: forcing a node whose sub-model is wrong removes the
error it injects, so the subsets that restore agreement point straight
at the defect.
"""

from thermodiag import (
    DefectSpec,
    GAConfig,
    assemble,
    build_mesh,
    default_measured_nodes,
    example_cell,
    format_report,
    generate_pseudo_measurements,
    inject_defect,
    run_diagnosis,
    synthetic_weather,
)

# 1. measurements come from the damaged twin, the model stays intact
reference = example_cell()
damaged = inject_defect(reference, DefectSpec(
    "door", "layer_conductivity", base=0.23, perturbed=0.78,
    component="door"))

model = build_mesh(reference)
weather = synthetic_weather(days=5)
measured = default_measured_nodes(model)
meas = generate_pseudo_measurements(damaged, weather, measured)

# 2. GA setup; the search has one bit per measured node, air node excluded
config = GAConfig(
    population_size=30,
    crossover_probability=0.8,
    mutation_probability=0.03,
    max_generations=400,
    rng_seed=0,
)

# 3. run, with the 32-subset exhaustive search as a cross-check
sm = assemble(model, reference)
report, evaluator = run_diagnosis(
    sm, weather, meas, model.air_node, config, exhaustive=True)

print(format_report(report, model))
print(f"distinct chromosomes evaluated: {evaluator.cache_size}")
print(f"GA generations run: {report.history.generations}")

# the single-node table already tells the story: forcing the door
# inside surface alone removes ~99% of the disagreement
best_single = min((n for n in report.per_node if n != 0),
                  key=lambda n: report.per_node[n])
print(f"best single forcing: {model.label(best_single)} "
      f"with J = {report.per_node[best_single]:.4f}")
