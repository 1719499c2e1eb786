"""Nodal RC network construction for a single-zone building.

A building is described declaratively (envelope components made of material
layers, plus one air zone).  Each envelope component is discretised into a
one-dimensional conduction ladder: an outside surface node, an optional number
of internal nodes, and an inside surface node.  Inside surfaces exchange heat
convectively with the zone air node and radiatively with a linearised mean
radiant node; outside surfaces exchange with ambient air, the sky, and absorb
shortwave radiation.  The resulting network is expressed as state matrices

    capacity * dT/dt = exchange * T + input_coupling * U(t)

with a diagonal capacity matrix, a symmetric exchange matrix (all couplings
are entered extensively, i.e. multiplied by surface area), and an input
coupling matrix whose columns follow ``INPUT_CHANNELS``.

The mean radiant node carries zero capacity: its row is a purely algebraic
balance, which the implicit time stepper resolves together with the
differential rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

import numpy as np

__all__ = [
    "ORIENTATIONS",
    "INPUT_CHANNELS",
    "TEMPERATURE_CHANNELS",
    "Layer",
    "EnvelopeComponent",
    "AirZone",
    "BuildingDescription",
    "MeshNode",
    "NodalModel",
    "StateMatrices",
    "layer_stack_to_rc",
    "build_mesh",
    "assemble",
]

ORIENTATIONS = ("N", "S", "E", "W", "horizontal-up", "horizontal-down")

#: Order of the input vector U(t) and of the columns of the coupling matrix.
INPUT_CHANNELS = ("T_ae", "T_sky", "I_N", "I_S", "I_E", "I_W", "I_H")

#: Channels that carry a temperature (their coupling coefficients are
#: conductances in W/K and contribute to the exchange-matrix diagonal).
#: The remaining channels carry incident shortwave flux in W/m².
TEMPERATURE_CHANNELS = ("T_ae", "T_sky")

_SOLAR_CHANNEL = {
    "N": "I_N",
    "S": "I_S",
    "E": "I_E",
    "W": "I_W",
    "horizontal-up": "I_H",
    "horizontal-down": None,  # ground side never sees the sun
}

# Node roles
ROLE_OUTSIDE = "outside-surface"
ROLE_INTERNAL = "internal"
ROLE_INSIDE = "inside-surface"
ROLE_AIR = "air"
ROLE_RADIANT = "mean-radiant"


@dataclass(frozen=True)
class Layer:
    """One homogeneous material layer of an envelope component."""

    thickness: float      # m
    conductivity: float   # W/(m K)
    density: float        # kg/m³
    specific_heat: float  # J/(kg K)

    def __post_init__(self):
        for name in ("thickness", "conductivity", "density", "specific_heat"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"layer {name} must be strictly positive and finite")


@dataclass(frozen=True)
class EnvelopeComponent:
    """A wall, roof, floor, door or glazing element of the zone envelope.

    Layers are ordered outside to inside.  ``internal_node_count = 0`` gives
    the classic R2C discretisation: one conductance between the two surface
    nodes, with half the stack capacity on each.
    """

    name: str
    orientation: str            # one of ORIENTATIONS
    area: float                 # m²
    layers: tuple[Layer, ...]
    h_ci: float                 # inside convective coefficient, W/(m² K)
    h_ce: float                 # outside convective coefficient, W/(m² K)
    h_ri: float                 # linearised inside radiative coefficient, W/(m² K)
    h_re: float                 # linearised outside radiative coefficient, W/(m² K)
    absorptivity: float         # shortwave absorptivity of the outside face, 0..1
    internal_node_count: int = 0
    outside_boundary: str = "ambient"   # "ambient" or "null-flux"
    is_glazing: bool = False    # glazing transmits solar flux to the interior

    def __post_init__(self):
        if not self.name:
            raise ValueError("component name must be non-empty")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not 0.0 < self.area < np.inf:
            raise ValueError(f"component {self.name}: area must be positive and finite")
        if not self.layers:
            raise ValueError(f"component {self.name}: at least one layer required")
        if not 0.0 <= self.absorptivity <= 1.0:
            raise ValueError(f"component {self.name}: absorptivity outside [0, 1]")
        for h in ("h_ci", "h_ce", "h_ri", "h_re"):
            if not 0.0 <= getattr(self, h) < np.inf:
                raise ValueError(f"component {self.name}: {h} must be >= 0 and finite")
        if self.internal_node_count < 0:
            raise ValueError(f"component {self.name}: internal_node_count must be >= 0")
        if self.outside_boundary not in ("ambient", "null-flux"):
            raise ValueError(f"component {self.name}: unknown boundary {self.outside_boundary!r}")
        if self.outside_boundary == "null-flux" and self.orientation != "horizontal-down":
            raise ValueError(
                f"component {self.name}: null-flux boundary is only valid for a "
                "floor (orientation horizontal-down)"
            )
        object.__setattr__(self, "layers", tuple(self.layers))
        # finite fields can still give a network of zero or infinite
        # resistances, capacities or surface conductances
        resistance, capacity = _stack_totals(self.layers, self.area)
        segments = self.internal_node_count + 1
        if not 0.0 < resistance < np.inf:
            raise ValueError(f"component {self.name}: layers and area give a total "
                             f"resistance of {resistance!r} K/W")
        if not (0.0 < capacity / segments / 2.0 and capacity < np.inf):
            raise ValueError(f"component {self.name}: layers and area give a total "
                             f"capacity of {capacity!r} J/K")
        for h in ("h_ci", "h_ce", "h_ri", "h_re"):
            if not getattr(self, h) * self.area < np.inf:
                raise ValueError(f"component {self.name}: {h} * area is not finite")
        # and finite conductances can still sum to an infinite diagonal entry
        # of the exchange matrix, at each node of the ladder
        g = segments / resistance
        sums = {"inside-surface": g + self.h_ci * self.area + self.h_ri * self.area}
        if self.outside_boundary == "ambient":
            sums["outside-surface"] = g + self.h_ce * self.area + self.h_re * self.area
        if self.internal_node_count:
            sums["internal"] = g + g
        for role, total in sums.items():
            if not total < np.inf:
                raise ValueError(f"component {self.name}: the conductances at its {role} "
                                 f"node sum to {total!r} W/K")


@dataclass(frozen=True)
class AirZone:
    """Thermo-convective parameters of the single zone air volume."""

    air_capacity: float       # J/K
    air_specific_heat: float  # J/(kg K)
    ventilation_flow: float   # outdoor air mass flow rate, kg/s

    def __post_init__(self):
        if not 0.0 < self.air_capacity < np.inf:
            raise ValueError("air_capacity must be positive and finite")
        if not 0.0 < self.air_specific_heat < np.inf:
            raise ValueError("air_specific_heat must be positive and finite")
        if not 0.0 <= self.ventilation_flow < np.inf:
            raise ValueError("ventilation_flow must be >= 0 and finite")
        if not self.air_specific_heat * self.ventilation_flow < np.inf:
            raise ValueError("air_specific_heat * ventilation_flow is not finite")


@dataclass(frozen=True)
class BuildingDescription:
    """Declarative description of one zone: envelope components plus air."""

    components: tuple[EnvelopeComponent, ...]
    zone: AirZone
    glazing_transmitted_fraction: float = 0.0  # share of incident solar on glazing reaching indoors

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("building needs at least one envelope component")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate component names: {', '.join(dup)}")
        if sum(c.outside_boundary == "null-flux" for c in self.components) > 1:
            raise ValueError("at most one component may have a null-flux boundary")
        if not 0.0 <= self.glazing_transmitted_fraction <= 1.0:
            raise ValueError("glazing_transmitted_fraction outside [0, 1]")
        # the zone nodes sum a conductance of every component, and the
        # glazing shares divide by the total inside area
        air = sum(c.h_ci * c.area for c in self.components)
        air += self.zone.air_specific_heat * self.zone.ventilation_flow
        radiant = sum(c.h_ri * c.area for c in self.components)
        for node, total in (("air", air), ("mean radiant", radiant)):
            if not total < np.inf:
                raise ValueError(f"the conductances at the {node} node sum to {total!r} W/K")
        areas = [c.area for c in self.components]
        glazing = max((c.area for c in self.components if c.is_glazing), default=0.0)
        if not (sum(areas) < np.inf and
                self.glazing_transmitted_fraction * glazing * max(areas) < np.inf):
            raise ValueError("the component areas overflow the glazing's solar shares")

    def component(self, name: str) -> EnvelopeComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"no component named {name!r}")


@dataclass(frozen=True)
class MeshNode:
    node_id: int          # 1-based, dense
    role: str
    component: str | None  # owning component; None for the air and radiant nodes


@dataclass
class NodalModel:
    """Discretisation mesh: nodes, capacities, conductances and boundary couplings.

    ``conductances`` maps ordered pairs (i, j) with i < j to a conductance in
    W/K; the coupling is symmetric.  ``input_couplings`` maps a node id to the
    list of (channel, coefficient) pairs feeding it: a conductance in W/K for
    temperature channels, an aperture in m² (already scaled by absorptivity or
    transmitted share) for flux channels.
    """

    nodes: tuple[MeshNode, ...]
    capacities: np.ndarray                      # J/K, index node_id - 1
    conductances: dict[tuple[int, int], float]  # W/K
    input_couplings: dict[int, list[tuple[str, float]]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def air_node(self) -> int:
        return self.n_nodes

    @property
    def mean_radiant_node(self) -> int:
        return self.n_nodes - 1

    def nodes_of(self, component: str, role: str | None = None) -> list[MeshNode]:
        return [
            n for n in self.nodes
            if n.component == component and (role is None or n.role == role)
        ]

    def inside_surface_node(self, component: str) -> int:
        for n in self.nodes:
            if n.component == component and n.role == ROLE_INSIDE:
                return n.node_id
        raise KeyError(f"no inside-surface node for component {component!r}")

    def label(self, node_id: int) -> str:
        n = self.nodes[node_id - 1]
        if n.component is None:
            return f"{n.node_id} ({n.role})"
        return f"{n.node_id} ({n.component} {n.role})"


@dataclass(frozen=True)
class StateMatrices:
    """Matrices of the continuous-time state equations.

    ``capacity`` is the diagonal of the (diagonal) capacity matrix.  The
    exchange matrix is symmetric with non-negative off-diagonals; each diagonal
    term carries minus the sum of all conductances leaving that node, including
    conductive couplings to boundary temperature channels, so that row balances
    are conservative.
    """

    capacity: np.ndarray        # (N,) J/K
    exchange: np.ndarray        # (N, N) W/K
    input_coupling: np.ndarray  # (N, M)

    @property
    def n_nodes(self) -> int:
        return self.capacity.shape[0]


def _stack_totals(layers, area: float) -> tuple[float, float]:
    """Total resistance (K/W) and total capacity (J/K) of a layer stack; a
    layer whose conductance k A underflows to 0 adds an infinite resistance.
    Both sum from the left: the builtin sum compensates from Python 3.12 on."""
    resistance = reduce(add, (l.thickness / (l.conductivity * area)
                              if l.conductivity * area else np.inf for l in layers), 0.0)
    capacity = reduce(add, (l.thickness * area * l.density * l.specific_heat
                            for l in layers), 0.0)
    return resistance, capacity


def layer_stack_to_rc(layers: Iterable[Layer], area: float,
                      internal_node_count: int) -> tuple[list[float], list[float]]:
    """Collapse a layer stack into a conduction ladder.

    The ladder has ``internal_node_count + 2`` nodes (the two surfaces plus the
    internals) joined by ``internal_node_count + 1`` equal conductances.  Total
    resistance and total capacity of the stack are preserved exactly; capacity
    is spread uniformly along the ladder (surface nodes own half a segment
    each), so the zero-internal-node case degenerates to one conductance with
    two equal half-capacities.

    Returns
    -------
    (conductances, capacities):
        ``internal_node_count + 1`` conductances in W/K and
        ``internal_node_count + 2`` capacities in J/K, ordered outside to inside.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("layer stack must contain at least one layer")
    if area <= 0.0:
        raise ValueError("area must be positive")
    if internal_node_count < 0:
        raise ValueError("internal_node_count must be >= 0")

    total_resistance, total_capacity = _stack_totals(layers, area)

    segments = internal_node_count + 1
    conductances = [segments / total_resistance] * segments
    cap_per_segment = total_capacity / segments
    capacities = [cap_per_segment / 2.0]
    capacities += [cap_per_segment] * internal_node_count
    capacities.append(cap_per_segment / 2.0)
    return conductances, capacities


def build_mesh(desc: BuildingDescription) -> NodalModel:
    """Number the nodes of the zone and wire up the thermal network.

    Numbering is deterministic: components in declaration order, each outside
    to inside, then the mean radiant node, then the air node last.  For a
    null-flux component the outside-surface node is omitted entirely; the
    deepest retained node becomes an adiabatic end of the ladder (no outward
    conductance, and the half-segment capacity beyond the cut is excluded).
    """
    nodes: list[MeshNode] = []
    capacities: list[float] = []
    conductances: dict[tuple[int, int], float] = {}
    couplings: dict[int, list[tuple[str, float]]] = {}

    def add_node(role: str, component: str | None, capacity: float) -> int:
        node_id = len(nodes) + 1
        nodes.append(MeshNode(node_id, role, component))
        capacities.append(capacity)
        return node_id

    def add_conductance(i: int, j: int, value: float) -> None:
        key = (min(i, j), max(i, j))
        conductances[key] = conductances.get(key, 0.0) + value

    def add_coupling(node: int, channel: str, coeff: float) -> None:
        couplings.setdefault(node, []).append((channel, coeff))

    inside_nodes: dict[str, int] = {}   # component name -> inside surface node id
    outside_nodes: dict[str, int] = {}

    for comp in desc.components:
        ladder_k, ladder_c = layer_stack_to_rc(comp.layers, comp.area, comp.internal_node_count)
        if comp.outside_boundary == "null-flux":
            ladder_k = ladder_k[1:]
            ladder_c = ladder_c[1:]
            roles = [ROLE_INTERNAL] * comp.internal_node_count + [ROLE_INSIDE]
        else:
            roles = ([ROLE_OUTSIDE]
                     + [ROLE_INTERNAL] * comp.internal_node_count
                     + [ROLE_INSIDE])
        ids = [add_node(role, comp.name, c) for role, c in zip(roles, ladder_c)]
        for (a, b), k in zip(zip(ids, ids[1:]), ladder_k):
            add_conductance(a, b, k)
        inside_nodes[comp.name] = ids[-1]
        if comp.outside_boundary == "ambient":
            outside_nodes[comp.name] = ids[0]

    radiant = add_node(ROLE_RADIANT, None, 0.0)
    air = add_node(ROLE_AIR, None, desc.zone.air_capacity)

    for comp in desc.components:
        si = inside_nodes[comp.name]
        add_conductance(si, air, comp.h_ci * comp.area)
        add_conductance(si, radiant, comp.h_ri * comp.area)
        if comp.name in outside_nodes:
            se = outside_nodes[comp.name]
            add_coupling(se, "T_ae", comp.h_ce * comp.area)
            add_coupling(se, "T_sky", comp.h_re * comp.area)
            solar = _SOLAR_CHANNEL[comp.orientation]
            if solar is not None and comp.absorptivity > 0.0:
                add_coupling(se, solar, comp.absorptivity * comp.area)

    vent = desc.zone.air_specific_heat * desc.zone.ventilation_flow
    if vent > 0.0:
        add_coupling(air, "T_ae", vent)

    # Solar transmitted through glazing lands on the inside surfaces,
    # pro-rata by area.
    total_inside_area = reduce(add, (c.area for c in desc.components), 0.0)
    for comp in desc.components:
        if not comp.is_glazing or desc.glazing_transmitted_fraction == 0.0:
            continue
        solar = _SOLAR_CHANNEL[comp.orientation]
        if solar is None:
            continue
        transmitted = desc.glazing_transmitted_fraction * comp.area
        for target in desc.components:
            share = transmitted * target.area / total_inside_area
            add_coupling(inside_nodes[target.name], solar, share)

    return NodalModel(
        nodes=tuple(nodes),
        capacities=np.asarray(capacities, dtype=float),
        conductances=conductances,
        input_couplings=couplings,
    )


def assemble(model: NodalModel, desc: BuildingDescription) -> StateMatrices:
    """Assemble the state matrices from a mesh built by :func:`build_mesh`.

    Every node-to-node conductance appears symmetrically in the exchange
    matrix; conductive couplings to the boundary temperature channels appear
    in the input coupling matrix and are debited from the exchange diagonal,
    which keeps each row a conservative balance.
    """
    n = model.n_nodes
    exchange = np.zeros((n, n))
    coupling = np.zeros((n, len(INPUT_CHANNELS)))

    for (i, j), g in model.conductances.items():
        a, b = i - 1, j - 1
        exchange[a, b] += g
        exchange[b, a] += g
        exchange[a, a] -= g
        exchange[b, b] -= g

    for node, pairs in model.input_couplings.items():
        for channel, coeff in pairs:
            col = INPUT_CHANNELS.index(channel)
            coupling[node - 1, col] += coeff
            if channel in TEMPERATURE_CHANNELS:
                exchange[node - 1, node - 1] -= coeff

    return StateMatrices(
        capacity=model.capacities.copy(),
        exchange=exchange,
        input_coupling=coupling,
    )
