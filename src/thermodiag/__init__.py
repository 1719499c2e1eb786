"""Locate defective sub-models of a nodal building thermal model.

The package simulates a single-zone building as a lumped RC network, lets
measured node temperatures replace model equations (measurement forcing), and
searches with a genetic algorithm for the set of forced nodes that best
repairs the predicted indoor air temperature.  The nodes whose forcing helps
most point at the defective sub-models.

The root holds the names the demos, the benchmark and the README use; the
rest of the API lives in its submodules.
"""

from .model import assemble, build_mesh
from .simulate import WeatherSeries, simulate
from .ga import GAConfig
from .diagnose import format_report, objective, run_diagnosis
from .verify import (
    DefectSpec, format_outcomes, generate_pseudo_measurements, inject_defect, run_case,
)
from .testcell import default_measured_nodes, example_cell, synthetic_weather

__version__ = "0.1.0"

__all__ = [
    "assemble",
    "build_mesh",
    "WeatherSeries",
    "simulate",
    "GAConfig",
    "format_report",
    "objective",
    "run_diagnosis",
    "DefectSpec",
    "format_outcomes",
    "generate_pseudo_measurements",
    "inject_defect",
    "run_case",
    "default_measured_nodes",
    "example_cell",
    "synthetic_weather",
]
