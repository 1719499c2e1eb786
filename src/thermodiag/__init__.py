"""Locate defective sub-models of a nodal building thermal model.

The package simulates a single-zone building as a lumped RC network, lets
measured node temperatures replace model equations (measurement forcing), and
searches with a genetic algorithm for the set of forced nodes that best
repairs the predicted indoor air temperature.  The nodes whose forcing helps
most point at the defective sub-models.
"""

from .model import (
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    NodalModel,
    StateMatrices,
    assemble,
    build_mesh,
    layer_stack_to_rc,
)
from .simulate import (
    MeasurementSeries,
    SingularSystemError,
    WeatherSeries,
    initial_state,
    simulate,
)
from .ga import GAConfig, GAHistory, ScoredIndividual, decode, encode, fitness, run_ga
from .diagnose import (
    ChromosomeEvaluator,
    DiagnosisReport,
    exhaustive_search,
    format_report,
    objective,
    per_node_scores,
    residual_stats,
    run_diagnosis,
)
from .verify import (
    DefectSpec,
    VerificationOutcome,
    format_outcomes,
    generate_pseudo_measurements,
    inject_defect,
    run_case,
)
from .testcell import default_measured_nodes, example_cell, synthetic_weather

__version__ = "0.1.0"

__all__ = [
    "AirZone",
    "BuildingDescription",
    "EnvelopeComponent",
    "Layer",
    "NodalModel",
    "StateMatrices",
    "assemble",
    "build_mesh",
    "layer_stack_to_rc",
    "MeasurementSeries",
    "SingularSystemError",
    "WeatherSeries",
    "initial_state",
    "simulate",
    "GAConfig",
    "GAHistory",
    "ScoredIndividual",
    "decode",
    "encode",
    "fitness",
    "run_ga",
    "ChromosomeEvaluator",
    "DiagnosisReport",
    "exhaustive_search",
    "format_report",
    "objective",
    "per_node_scores",
    "residual_stats",
    "run_diagnosis",
    "DefectSpec",
    "VerificationOutcome",
    "format_outcomes",
    "generate_pseudo_measurements",
    "inject_defect",
    "run_case",
    "default_measured_nodes",
    "example_cell",
    "synthetic_weather",
]
