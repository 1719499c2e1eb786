"""
Synthetic verification protocol
===============================

Three seeded defects plus one control, each judged automatically:

  * door layer conductivity 0.23 -> 0.78   (local defect, should localize)
  * interior convection 5.0 -> 0.1         (global defect, nothing to force)
  * roof absorptivity 0.3 -> 0.9           (local defect, should localize)
  * control: no defect                     (must stay silent)

Every case runs the GA against pseudo-measurements and compares it to
the exhaustive 32-subset oracle.
"""

from thermodiag import (
    GAConfig,
    build_mesh,
    default_measured_nodes,
    example_cell,
    format_outcomes,
    generate_pseudo_measurements,
    run_case,
    synthetic_weather,
)
from thermodiag.cli import default_cases

reference = example_cell()
model = build_mesh(reference)
weather = synthetic_weather(days=5)
# the reference is marched once; every case searches the nodes it measures
pseudo = generate_pseudo_measurements(reference, weather, default_measured_nodes(model))

config = GAConfig(
    population_size=30,
    crossover_probability=0.8,
    mutation_probability=0.03,
    max_generations=400,
    rng_seed=0,
)

# spec None is the control
outcomes = [run_case(spec, reference, weather, pseudo, config)
            for spec in [*default_cases(), None]]

print(format_outcomes(outcomes))

# each outcome holds its diagnosis report, which says whether the GA
# found the oracle optimum
for o in outcomes:
    print(f"{o.case_id:>20}: GA matches oracle = {o.report.ga_matches_oracle}")
