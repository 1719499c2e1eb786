"""Verification protocol: plant a defect, then check the search finds it.

A known defect is injected into a copy of a reference building (a wrong layer
conductivity, a wrong interior convective coefficient, a wrong shortwave
absorptivity).  Pseudo-measurements are generated by simulating the
unperturbed reference, so the "measurements" are perfect data for the correct
model.  Diagnosing the perturbed model against them must localize the defect:

* a component defect (conductivity, absorptivity) passes when the best
  forcing set contains the component's inside-surface node and forcing cuts
  the objective below LOCALIZE_RATIO of its unforced value;
* a global interior-convection defect decouples the air node from every
  surface, so no forcing can help: the case passes when the best set is empty
  or the objective barely improves (ratio above NO_GAIN_RATIO);
* a control run (no defect at all) passes when the best set is empty and the
  unforced objective is numerically zero.

Each case also runs the exhaustive oracle over the measurable nodes and
records whether the GA reached the oracle's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnose import _set_label, run_diagnosis
from .ga import GAConfig
from .model import BuildingDescription, assemble, build_mesh
from .simulate import MeasurementSeries, WeatherSeries, simulate

__all__ = [
    "DefectSpec",
    "VerificationOutcome",
    "DEFECT_KINDS",
    "LOCALIZE_RATIO",
    "NO_GAIN_RATIO",
    "CONTROL_J_MAX",
    "inject_defect",
    "generate_pseudo_measurements",
    "run_case",
    "run_control",
    "format_outcomes",
    "outcomes_key_values",
]

DEFECT_KINDS = ("layer_conductivity", "h_ci", "absorptivity")

#: A localized defect must cut J below this fraction of the unforced J.
LOCALIZE_RATIO = 0.2
#: A defect that forcing cannot repair must leave J above this fraction.
NO_GAIN_RATIO = 0.9
#: A defect-free control must score essentially zero unforced.
CONTROL_J_MAX = 1e-18


@dataclass(frozen=True)
class DefectSpec:
    """One parameter of the building description, wrong on purpose."""

    case_id: str
    kind: str                  # one of DEFECT_KINDS
    base: float                # value the description is expected to hold
    perturbed: float           # value the defective model gets instead
    component: str | None = None  # required unless kind == "h_ci" (then None = all)
    layer_index: int = 0       # which layer, for layer_conductivity

    def __post_init__(self):
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if self.kind not in DEFECT_KINDS:
            raise ValueError(f"unknown defect kind {self.kind!r}")
        if self.base == self.perturbed:
            raise ValueError(f"case {self.case_id}: base equals perturbed value")
        if self.kind == "layer_conductivity":
            if self.component is None:
                raise ValueError(f"case {self.case_id}: layer_conductivity needs a component")
            if self.perturbed <= 0.0:
                raise ValueError(f"case {self.case_id}: conductivity must stay positive")
        elif self.kind == "absorptivity":
            if self.component is None:
                raise ValueError(f"case {self.case_id}: absorptivity needs a component")
            if not 0.0 <= self.perturbed <= 1.0:
                raise ValueError(f"case {self.case_id}: absorptivity must stay in [0, 1]")
        elif self.kind == "h_ci":
            if self.perturbed < 0.0:
                raise ValueError(f"case {self.case_id}: h_ci must stay >= 0")
        if self.layer_index < 0:
            raise ValueError(f"case {self.case_id}: layer_index must be >= 0")


@dataclass(frozen=True)
class VerificationOutcome:
    case_id: str
    best_set: frozenset
    expected: frozenset        # empty when no localization is expected
    J_best: float              # °C²
    J_unforced: float          # °C²
    ratio: float | None        # J_best / J_unforced, None when unforced is 0
    passed: bool
    criterion: str             # human-readable pass rule
    ga_matches_oracle: bool
    oracle_best: frozenset
    oracle_best_J: float


def _check_base(spec: DefectSpec, what: str, actual: float) -> None:
    if not np.isclose(actual, spec.base, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"case {spec.case_id}: {what} is {actual}, expected base {spec.base}")


def inject_defect(desc: BuildingDescription, spec: DefectSpec) -> BuildingDescription:
    """Copy the description with exactly one parameter perturbed."""
    if spec.kind == "h_ci":
        if spec.component is None:
            targets = [c.name for c in desc.components]
        else:
            targets = [desc.component(spec.component).name]
        new_components = []
        for comp in desc.components:
            if comp.name in targets:
                _check_base(spec, f"h_ci of {comp.name}", comp.h_ci)
                comp = replace(comp, h_ci=spec.perturbed)
            new_components.append(comp)
        return replace(desc, components=tuple(new_components))

    comp = desc.component(spec.component)
    if spec.kind == "absorptivity":
        _check_base(spec, f"absorptivity of {comp.name}", comp.absorptivity)
        changed = replace(comp, absorptivity=spec.perturbed)
    else:
        if spec.layer_index >= len(comp.layers):
            raise ValueError(
                f"case {spec.case_id}: {comp.name} has no layer {spec.layer_index}")
        layer = comp.layers[spec.layer_index]
        _check_base(spec, f"conductivity of {comp.name} layer {spec.layer_index}",
                    layer.conductivity)
        layers = list(comp.layers)
        layers[spec.layer_index] = replace(layer, conductivity=spec.perturbed)
        changed = replace(comp, layers=tuple(layers))
    new_components = tuple(changed if c.name == comp.name else c for c in desc.components)
    return replace(desc, components=new_components)


def generate_pseudo_measurements(desc: BuildingDescription, weather: WeatherSeries,
                                 measured_nodes) -> MeasurementSeries:
    """Simulate the reference unforced and read off the sensor series.

    The air node is always included: it is the comparison output every
    diagnosis needs.
    """
    model = build_mesh(desc)
    sm = assemble(model, desc)
    for node in measured_nodes:
        if not 1 <= node <= model.n_nodes:
            raise ValueError(f"measured node {node} outside 1..{model.n_nodes}")
    traj = simulate(sm, weather)
    return MeasurementSeries(dt=weather.dt, series={
        node: traj.node_series(node).copy()
        for node in sorted(set(measured_nodes) | {model.air_node})})


def expected_nodes(spec: DefectSpec, desc: BuildingDescription) -> frozenset:
    """Where a correct diagnosis should point for this defect."""
    if spec.kind == "h_ci":
        return frozenset()
    model = build_mesh(desc)
    return frozenset({model.inside_surface_node(spec.component)})


def _judge(spec_kind: str, expected: frozenset, best_set: frozenset,
           ratio: float | None) -> tuple[bool, str]:
    if spec_kind == "h_ci":
        criterion = f"best set empty or J ratio > {NO_GAIN_RATIO}"
        passed = (not best_set) or (ratio is not None and ratio > NO_GAIN_RATIO)
    else:
        criterion = f"best set contains {_set_label(expected)} and J ratio < {LOCALIZE_RATIO}"
        passed = expected <= best_set and ratio is not None and ratio < LOCALIZE_RATIO
    return passed, criterion


def _diagnose(desc: BuildingDescription, weather: WeatherSeries,
              pseudo: MeasurementSeries, config: GAConfig, skip_steps: int):
    model = build_mesh(desc)
    report, _ = run_diagnosis(assemble(model, desc), weather, pseudo, model.air_node,
                              config, skip_steps=skip_steps, exhaustive=True)
    return report


def _outcome(case_id: str, report, expected: frozenset, ratio: float | None,
             passed: bool, criterion: str) -> VerificationOutcome:
    return VerificationOutcome(
        case_id=case_id, best_set=report.best_forcing, expected=expected,
        J_best=report.best.J, J_unforced=report.unforced_J, ratio=ratio,
        passed=passed, criterion=criterion,
        ga_matches_oracle=report.oracle_best_J == report.best.J,
        oracle_best=report.oracle_best, oracle_best_J=report.oracle_best_J)


def run_case(spec: DefectSpec, reference: BuildingDescription,
             weather: WeatherSeries, pseudo: MeasurementSeries, config: GAConfig,
             skip_steps: int = 0, noise_sd: float = 0.0) -> VerificationOutcome:
    """Diagnose the perturbed model against the reference's pseudo-data.

    ``pseudo`` is the reference's noise-free pseudo-measurements; its nodes
    are the ones searched.  Gaussian noise of ``noise_sd`` °C, drawn from
    ``config.rng_seed``, is added to every series, so every case of one
    protocol sees the same noisy series.
    """
    if noise_sd > 0.0:
        rng = np.random.default_rng(config.rng_seed)
        pseudo = MeasurementSeries(dt=pseudo.dt, series={
            node: values + rng.normal(0.0, noise_sd, size=values.shape)
            for node, values in sorted(pseudo.series.items())})
    perturbed_desc = inject_defect(reference, spec)
    report = _diagnose(perturbed_desc, weather, pseudo, config, skip_steps)
    expected = expected_nodes(spec, perturbed_desc)
    ratio = report.best.J / report.unforced_J if report.unforced_J > 0.0 else None
    passed, criterion = _judge(spec.kind, expected, report.best_forcing, ratio)
    return _outcome(spec.case_id, report, expected, ratio, passed, criterion)


def run_control(reference: BuildingDescription, weather: WeatherSeries,
                pseudo: MeasurementSeries, config: GAConfig,
                skip_steps: int = 0) -> VerificationOutcome:
    """Diagnose the unperturbed model against its own pseudo-data.

    The model is perfect, so the unforced objective must be numerically zero
    and the search must settle on the empty set (forcing cannot improve a
    perfect score, and ties break toward fewer nodes).  ``pseudo`` is as in
    :func:`run_case`.
    """
    report = _diagnose(reference, weather, pseudo, config, skip_steps)
    passed = (not report.best_forcing) and report.unforced_J < CONTROL_J_MAX
    return _outcome("control", report, frozenset(), None, passed,
                    f"best set empty and unforced J < {CONTROL_J_MAX}")


def format_outcomes(outcomes) -> str:
    """Fixed-width pass/fail table over all cases."""
    outcomes = list(outcomes)
    rows = [("case", "pass", "best set", "expected", "J best", "J unforced", "ratio")]
    for o in outcomes:
        rows.append((
            o.case_id,
            "yes" if o.passed else "NO",
            _set_label(o.best_set),
            _set_label(o.expected),
            f"{o.J_best:.6g}",
            f"{o.J_unforced:.6g}",
            "-" if o.ratio is None else f"{o.ratio:.4f}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    n_pass = sum(o.passed for o in outcomes)
    lines.append("")
    lines.append(f"{n_pass}/{len(outcomes)} cases passed")
    return "\n".join(lines) + "\n"


def outcomes_key_values(outcomes) -> str:
    """Machine-readable outcome dump, one block of keys per case."""
    lines = []
    for o in outcomes:
        prefix = f"case.{o.case_id}"
        lines.append(f"{prefix}.passed = {int(o.passed)}")
        lines.append(f"{prefix}.best_set = {_set_label(o.best_set)}")
        lines.append(f"{prefix}.expected = {_set_label(o.expected)}")
        lines.append(f"{prefix}.J_best = {o.J_best!r}")
        lines.append(f"{prefix}.J_unforced = {o.J_unforced!r}")
        lines.append(f"{prefix}.ratio = {'' if o.ratio is None else repr(o.ratio)}")
        lines.append(f"{prefix}.criterion = {o.criterion}")
        lines.append(f"{prefix}.ga_matches_oracle = {int(o.ga_matches_oracle)}")
        lines.append(f"{prefix}.oracle_best_set = {_set_label(o.oracle_best)}")
        lines.append(f"{prefix}.oracle_best_J = {o.oracle_best_J!r}")
    return "\n".join(lines) + "\n"
