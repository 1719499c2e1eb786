"""
Measurement forcing as a Dirichlet condition
============================================

A forced node stops obeying its own balance equation and instead copies
the measured series sample for sample. This script manufactures
measurements from a deliberately damaged twin of the test cell, forces
them into the intact model one node at a time, and watches what that
does to the indoor air temperature error.
"""

import numpy as np

from thermodiag import (
    DefectSpec,
    assemble,
    build_mesh,
    default_measured_nodes,
    example_cell,
    generate_pseudo_measurements,
    inject_defect,
    objective,
    simulate,
    synthetic_weather,
)

# 1. the "real" building has a badly insulating door (0.23 -> 0.78 W/m/K)
reference = example_cell()
damaged = inject_defect(reference, DefectSpec(
    "door", "layer_conductivity", base=0.23, perturbed=0.78,
    component="door"))

model = build_mesh(reference)
weather = synthetic_weather(days=5)
measured = default_measured_nodes(model)
print(f"measured nodes: {', '.join(model.label(n) for n in measured)}")

# 2. record what the damaged building actually does
meas = generate_pseudo_measurements(damaged, weather, measured)

# 3. simulate the intact model against those measurements: unforced, then
# each measured node forced on its own, all sets in one call that keeps the
# air row and the measured rows
sm = assemble(model, reference)
air = model.air_node
meas_air = meas.node_series(air)
sets = [frozenset(), *(frozenset({node}) for node in measured)]
runs = simulate(sm, weather, sets, meas, rows=(air, *measured))

print(f"\nno forcing:          J = {objective(runs[0, 0], meas_air):.4f}")

# 4. force each measured node in turn; the door surface gives the big drop
for i, node in enumerate(measured, 1):
    J = objective(runs[i, 0], meas_air)
    exact = np.array_equal(runs[i, i], meas.node_series(node))
    print(f"force {model.label(node):>28}: "
          f"J = {J:.4f}   forced row bit-exact: {exact}")
