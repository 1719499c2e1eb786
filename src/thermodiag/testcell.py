"""A bundled single-zone test cell and synthetic weather for it.

The cell is a roughly cubic, naturally ventilated room: four walls (one
carrying a wooden door, one a single-glazed window), a lightweight insulated
roof and a heavy floor slab resting on the ground.  Meshing it yields 23
nodes: three per wall (the walls carry one internal node each), two per roof,
door and window (plain R2C), three for the floor (two internal ground nodes
plus the inside surface, with a null-flux deep boundary), the mean radiant
node and the zone air node.

Five of those nodes carry "sensors" in the bundled scenarios: the east wall,
roof and door inside surfaces and the two ground nodes; the indoor air sensor
is the comparison output.  The synthetic weather is a clear warm-climate
sequence (sinusoidal diurnal ambient temperature, per-orientation clear-sky
solar), sampled every 900 s.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    ROLE_INTERNAL,
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    NodalModel,
)
from .simulate import WeatherSeries

__all__ = ["example_cell", "default_measured_nodes", "synthetic_weather"]

# Common film coefficients, W/(m² K)
H_CI = 5.0
H_CE = 15.0
H_RI = 5.0
H_RE = 5.0

_CONCRETE_BLOCK = Layer(thickness=0.15, conductivity=1.75, density=2200.0, specific_heat=900.0)
_POLYSTYRENE = Layer(thickness=0.04, conductivity=0.035, density=30.0, specific_heat=1400.0)
_FIBRE_CEMENT = Layer(thickness=0.01, conductivity=0.5, density=1800.0, specific_heat=840.0)
_ROOF_INSULATION = Layer(thickness=0.05, conductivity=0.035, density=30.0, specific_heat=1400.0)
_WOOD = Layer(thickness=0.05, conductivity=0.23, density=600.0, specific_heat=1600.0)
_GLASS = Layer(thickness=0.006, conductivity=1.0, density=2500.0, specific_heat=840.0)
_GROUND_CONCRETE = Layer(thickness=0.15, conductivity=1.75, density=2200.0, specific_heat=900.0)
_SLAB_INSULATION = Layer(thickness=0.04, conductivity=0.035, density=30.0, specific_heat=1400.0)
_SLAB = Layer(thickness=0.05, conductivity=1.4, density=2000.0, specific_heat=880.0)


def _wall(name: str, orientation: str, area: float) -> EnvelopeComponent:
    return EnvelopeComponent(
        name=name,
        orientation=orientation,
        area=area,
        layers=(_CONCRETE_BLOCK, _POLYSTYRENE),
        h_ci=H_CI, h_ce=H_CE, h_ri=H_RI, h_re=H_RE,
        absorptivity=0.6,
        internal_node_count=1,
    )


def example_cell() -> BuildingDescription:
    """The bundled 23-node reference cell."""
    door_area = 1.9
    window_area = 1.2
    components = (
        _wall("wall_east", "E", 9.0),
        _wall("wall_west", "W", 9.0),
        _wall("wall_north", "N", 9.0 - door_area),
        _wall("wall_south", "S", 9.0 - window_area),
        EnvelopeComponent(
            name="roof",
            orientation="horizontal-up",
            area=9.0,
            layers=(_FIBRE_CEMENT, _ROOF_INSULATION),
            h_ci=H_CI, h_ce=H_CE, h_ri=H_RI, h_re=H_RE,
            absorptivity=0.3,
        ),
        EnvelopeComponent(
            name="door",
            orientation="N",
            area=door_area,
            layers=(_WOOD,),
            h_ci=H_CI, h_ce=H_CE, h_ri=H_RI, h_re=H_RE,
            absorptivity=0.6,
        ),
        EnvelopeComponent(
            name="window",
            orientation="S",
            area=window_area,
            layers=(_GLASS,),
            h_ci=H_CI, h_ce=H_CE, h_ri=H_RI, h_re=H_RE,
            absorptivity=0.1,
            is_glazing=True,
        ),
        EnvelopeComponent(
            name="floor",
            orientation="horizontal-down",
            area=9.0,
            layers=(_GROUND_CONCRETE, _SLAB_INSULATION, _SLAB),
            h_ci=H_CI, h_ce=H_CE, h_ri=H_RI, h_re=H_RE,
            absorptivity=0.0,
            internal_node_count=2,
            outside_boundary="null-flux",
        ),
    )
    zone = AirZone(
        air_capacity=33000.0,       # ~27 m³ of air
        air_specific_heat=1006.0,
        ventilation_flow=0.02,      # kg/s, mechanically ventilated
    )
    return BuildingDescription(
        components=components,
        zone=zone,
        glazing_transmitted_fraction=0.8,
    )


def default_measured_nodes(model: NodalModel) -> tuple:
    """The five sensor-equipped nodes of the bundled scenarios.

    East wall, roof and door inside surfaces plus the two ground nodes (the
    deeper one first).  The air node is measured too but is returned by the
    caller's convention, not here, since it is the comparison output.  A
    model without these nodes raises KeyError.
    """
    ground = [n.node_id for n in model.nodes_of("floor", ROLE_INTERNAL)]
    if len(ground) < 2:
        raise KeyError(f"the floor has {len(ground)} internal nodes, not the two ground nodes")
    return (
        model.inside_surface_node("wall_east"),
        model.inside_surface_node("roof"),
        model.inside_surface_node("door"),
        ground[0],
        ground[1],
    )


def synthetic_weather(days: int = 5, dt: float = 900.0) -> WeatherSeries:
    """Clear-sky warm-climate weather: one record per step, 96 per day.

    Ambient temperature swings 21..31 °C with the minimum at 02:00; the sky
    is 10 °C colder.  Daylight spans 06:00-18:00 with a sine-shaped global
    horizontal flux peaking at 900 W/m²; east and west facades get morning
    and afternoon beam shares, all orientations a small diffuse floor.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = round(days * 86400.0 / dt)
    records = np.zeros((n, 7))
    for k in range(n):
        hour = (k * dt / 3600.0) % 24.0
        t_ae = 26.0 - 5.0 * math.cos(2.0 * math.pi * (hour - 2.0) / 24.0)
        records[k, 0] = t_ae
        records[k, 1] = t_ae - 10.0
        if 6.0 < hour < 18.0:
            x = (hour - 6.0) / 12.0          # 0 at sunrise, 1 at sunset
            s = math.sin(math.pi * x)
            beam = math.cos(math.pi * x)     # +1 sunrise, -1 sunset
            diffuse = 50.0 * s
            records[k, 2] = diffuse                                   # I_N
            records[k, 3] = diffuse + 350.0 * s                       # I_S
            records[k, 4] = diffuse + 600.0 * s * max(0.0, beam)      # I_E
            records[k, 5] = diffuse + 600.0 * s * max(0.0, -beam)     # I_W
            records[k, 6] = 900.0 * s                                 # I_H
    return WeatherSeries(dt=dt, values=records)
