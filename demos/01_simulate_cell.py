"""
Simulate the bundled single-zone test cell
==========================================

Builds the 23-node mesh from the component descriptions, runs five days
of synthetic weather through the implicit solver, and prints a short
summary of what came out.
"""

import numpy as np

from thermodiag import assemble, build_mesh, example_cell, simulate, synthetic_weather

# 1. describe the building and discretize it
desc = example_cell()
model = build_mesh(desc)
print(f"components: {', '.join(c.name for c in desc.components)}")
print(f"mesh size:  {model.n_nodes} nodes "
      f"(air = node {model.air_node}, mean radiant = node {model.mean_radiant_node})")

# 2. assemble the state matrices and run, keeping the node rows read below:
# the air, four inside surfaces and the outside roof surface
sm = assemble(model, desc)
weather = synthetic_weather(days=5)
names = ("wall_east", "roof", "door", "floor")
inside = [model.inside_surface_node(name) for name in names]
outside = model.nodes_of("roof", "outside-surface")[0].node_id
air, *surfaces, roof_out = simulate(sm, weather, rows=(model.air_node, *inside, outside))[0]
print(f"simulated {air.size} samples at dt = {weather.dt:.0f} s")

# 3. look at a few node trajectories
print(f"air temperature: min {air.min():.2f} °C, max {air.max():.2f} °C")

for name, node, series in zip(names, inside, surfaces):
    print(f"{name:>10} inside surface (node {node:2d}): "
          f"min {series.min():.2f} °C, max {series.max():.2f} °C")

# the outside roof surface swings much harder than anything indoors
swing = np.ptp(roof_out)
print(f"roof outside surface daily swing: {swing:.1f} °C")
