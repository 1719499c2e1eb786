"""Command-line front end: file parsing, command dispatch, report emission.

Commands
--------
simulate   march a building model over a weather file, write the trajectory
diagnose   search for the forcing set that best repairs the air prediction
verify     plant known defects and check the search localizes them
stats      residual statistics of the plain model against measurements

``simulate``, ``diagnose`` and ``stats`` take the time step from their files.
``verify --dt`` is the step of its synthetic weather, so it cannot be given
with ``--weather``.  Each verify outcome holds its case's diagnosis report;
the J ratio and the GA/oracle agreement the tables print are read from it.

File formats
------------
Building description (INI-style, sections in declaration order)::

    [zone]
    air_capacity = 33000.0              ; J/K
    air_specific_heat = 1006.0          ; J/(kg K)
    ventilation_flow = 0.02             ; kg/s
    glazing_transmitted_fraction = 0.8

    [component wall_east]
    orientation = E                     ; N S E W horizontal-up horizontal-down
    area = 9.0                          ; m²
    layers = 0.15 1.75 2200 900 ; 0.04 0.035 30 1400
    h_ci = 5.0
    h_ce = 15.0
    h_ri = 5.0
    h_re = 5.0
    absorptivity = 0.6
    internal_nodes = 1
    boundary = ambient                  ; or null-flux (floor only)
    glazing = no

Each ``layers`` segment is ``thickness conductivity density specific_heat``
(SI units), outside to inside, segments joined by ``;``.

Defect cases (INI-style)::

    [case door_conductivity]
    kind = layer_conductivity           ; or h_ci, absorptivity
    component = door                    ; omit for a global h_ci defect
    layer = 0
    base = 0.23
    perturbed = 0.78

``verify`` checks every case against the building (component, layer, base
value) before it marches anything; a bad case exits 2 naming the file and
its ``[case <id>]`` section.

Weather CSV header: ``timestamp,T_ae,T_sky,I_N,I_S,I_E,I_W,I_H`` with
ISO-8601 timestamps, temperatures in °C, fluxes in W/m².  Measurement CSV
header: ``timestamp,node_<k>,...``, one column per measured node id.  Both
must be uniformly sampled on the same grid, from the same first timestamp.
Series files are streamed: rows go one at a time into a float buffer, and
``trajectory.csv`` is written in blocks of WRITE_BLOCK rows, so no whole-file
list of rows or lines is held.

Exit status: 0 success, 2 bad input or configuration, 3 numerical failure,
4 verification cases failed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
from array import array
from datetime import datetime, timedelta

import numpy as np

from .diagnose import (
    air_comparison_csv,
    format_report,
    history_csv,
    objective,
    report_key_values,
    residual_stats,
    run_diagnosis,
)
from .ga import GAConfig, GAError
from .model import (
    INPUT_CHANNELS,
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    assemble,
    build_mesh,
)
from .simulate import (
    MeasurementSeries,
    SingularSystemError,
    WeatherSeries,
    simulate,
)
from .testcell import default_measured_nodes, example_cell, synthetic_weather
from .verify import (
    DefectSpec,
    format_outcomes,
    generate_pseudo_measurements,
    inject_defect,
    outcomes_key_values,
    run_case,
    run_control,
)

__all__ = [
    "ParseError",
    "parse_building",
    "write_building",
    "parse_cases",
    "parse_weather",
    "parse_measurements",
    "weather_csv",
    "measurements_csv",
    "default_cases",
    "main",
]

#: Timestamp origin used when series are written without a real calendar.
CSV_EPOCH = datetime(2000, 3, 1)

#: Rows formatted per write when a series file is written out.
WRITE_BLOCK = 4096


class ParseError(Exception):
    """Input file rejected; the message names file, section/line and field."""


# ---------------------------------------------------------------------------
# building description files

_ORIENTATION_HELP = "N, S, E, W, horizontal-up or horizontal-down"


def _read_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    return cp


def _field(cp, section: str, key: str, path: str, convert, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ParseError(f"{path}: [{section}] is missing the field '{key}'")
    raw = cp.get(section, key)
    try:
        return convert(raw)
    except ValueError as exc:
        raise ParseError(f"{path}: [{section}] field '{key}': {exc}") from exc


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "yes", "true", "on"):
        return True
    if lowered in ("0", "no", "false", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{value!r} outside [0, 1]")
    return value


def _parse_layers(raw: str) -> tuple:
    layers = []
    for i, segment in enumerate(raw.replace("\n", " ").split(";")):
        segment = segment.strip()
        if not segment:
            continue
        fields = segment.split()
        if len(fields) != 4:
            raise ValueError(
                f"layer {i + 1} needs 4 numbers "
                "(thickness conductivity density specific_heat)")
        thickness, conductivity, density, specific_heat = map(float, fields)
        layers.append(Layer(thickness, conductivity, density, specific_heat))
    if not layers:
        raise ValueError("at least one layer required")
    return tuple(layers)


def parse_building(path: str) -> BuildingDescription:
    """Read and validate a building description file."""
    cp = _read_ini(path)
    if not cp.has_section("zone"):
        raise ParseError(f"{path}: missing the [zone] section")

    components = []
    for section in cp.sections():
        if section == "zone":
            continue
        if not section.startswith("component "):
            raise ParseError(
                f"{path}: unknown section [{section}] "
                "(expected [component <name>] or [zone])")
        name = section[len("component "):].strip()
        try:
            components.append(EnvelopeComponent(
                name=name,
                orientation=_field(cp, section, "orientation", path, str.strip),
                area=_field(cp, section, "area", path, float),
                layers=_field(cp, section, "layers", path, _parse_layers),
                h_ci=_field(cp, section, "h_ci", path, float),
                h_ce=_field(cp, section, "h_ce", path, float),
                h_ri=_field(cp, section, "h_ri", path, float),
                h_re=_field(cp, section, "h_re", path, float),
                absorptivity=_field(cp, section, "absorptivity", path, float),
                internal_node_count=_field(cp, section, "internal_nodes", path, int, 0),
                outside_boundary=_field(cp, section, "boundary", path, str.strip, "ambient"),
                is_glazing=_field(cp, section, "glazing", path, _to_bool, False),
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: [{section}]: {exc}") from exc

    try:
        zone = AirZone(
            air_capacity=_field(cp, "zone", "air_capacity", path, float),
            air_specific_heat=_field(cp, "zone", "air_specific_heat", path, float),
            ventilation_flow=_field(cp, "zone", "ventilation_flow", path, float),
        )
    except ValueError as exc:
        raise ParseError(f"{path}: [zone]: {exc}") from exc
    glazing = _field(cp, "zone", "glazing_transmitted_fraction", path, _to_fraction, 0.0)
    try:
        return BuildingDescription(
            components=tuple(components), zone=zone, glazing_transmitted_fraction=glazing)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_building(desc: BuildingDescription) -> str:
    """Serialize a description; parse_building reads it back identically."""
    lines = ["[zone]"] + [f"{key} = {getattr(desc.zone, key)!r}" for key in
                          ("air_capacity", "air_specific_heat", "ventilation_flow")]
    lines.append(f"glazing_transmitted_fraction = {desc.glazing_transmitted_fraction!r}")
    for comp in desc.components:
        lines.append("")
        lines.append(f"[component {comp.name}]")
        lines.append(f"orientation = {comp.orientation}")
        lines.append(f"area = {comp.area!r}")
        segments = " ; ".join(
            f"{l.thickness!r} {l.conductivity!r} {l.density!r} {l.specific_heat!r}"
            for l in comp.layers)
        lines.append(f"layers = {segments}")
        lines += [f"{key} = {getattr(comp, key)!r}"
                  for key in ("h_ci", "h_ce", "h_ri", "h_re", "absorptivity")]
        lines.append(f"internal_nodes = {comp.internal_node_count}")
        lines.append(f"boundary = {comp.outside_boundary}")
        lines.append(f"glazing = {'yes' if comp.is_glazing else 'no'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# defect case files

def parse_cases(path: str) -> list[DefectSpec]:
    """Read a defect case file into specs, preserving file order."""
    cp = _read_ini(path)
    specs = []
    for section in cp.sections():
        if not section.startswith("case "):
            raise ParseError(
                f"{path}: unknown section [{section}] (expected [case <id>])")
        case_id = section[len("case "):].strip()
        component = cp.get(section, "component", fallback=None)
        try:
            specs.append(DefectSpec(
                case_id=case_id,
                kind=_field(cp, section, "kind", path, str.strip),
                base=_field(cp, section, "base", path, float),
                perturbed=_field(cp, section, "perturbed", path, float),
                component=component.strip() if component else None,
                layer_index=_field(cp, section, "layer", path, int, 0),
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: [{section}]: {exc}") from exc
    if not specs:
        raise ParseError(f"{path}: no [case <id>] sections found")
    return specs


def default_cases() -> list[DefectSpec]:
    """The three bundled defects for the example cell."""
    return [
        DefectSpec("door_conductivity", "layer_conductivity",
                   base=0.23, perturbed=0.78, component="door", layer_index=0),
        DefectSpec("interior_convection", "h_ci", base=5.0, perturbed=0.1),
        DefectSpec("roof_absorptivity", "absorptivity",
                   base=0.3, perturbed=0.9, component="roof"),
    ]


# ---------------------------------------------------------------------------
# time-series files

def _read_series(path: str, check_header):
    """Stream a series CSV into its first timestamp, its step in seconds, the
    column names ``check_header`` returns for the header cells after
    ``timestamp``, and the (n_records, n_columns) values, checking the time
    grid on the way."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            if [h.strip() for h in header[:1]] != ["timestamp"]:
                raise ParseError(f"{path}: first column must be 'timestamp'")
            names = check_header([h.strip() for h in header[1:]])
            buf, n, last, step = array("d"), 0, None, None
            for row in filter(None, reader):
                n += 1
                if len(row) != len(header):
                    raise ParseError(f"{path}: record {n}: expected {len(header)} fields")
                try:
                    stamp = datetime.fromisoformat(row[0].strip())
                    gap = None if n == 1 else stamp - last
                except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
                    raise ParseError(
                        f"{path}: record {n}: bad timestamp {row[0]!r}: {exc}") from exc
                if n == 1:
                    start = stamp
                elif n == 2 and gap <= timedelta(0):
                    raise ParseError(f"{path}: timestamps must increase monotonically")
                elif n > 2 and gap != step:
                    raise ParseError(f"{path}: record {n}: non-uniform sampling "
                                     f"({gap.total_seconds()} s after "
                                     f"{step.total_seconds()} s steps)")
                last, step = stamp, step or gap  # the first gap sets the step
                try:
                    buf.extend(map(float, row[1:]))
                except ValueError:
                    for name, raw in zip(names, row[1:]):
                        try:
                            float(raw)
                        except ValueError as exc:
                            raise ParseError(f"{path}: record {n}: bad value "
                                             f"for {name}: {raw!r}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    if n < 2:
        raise ParseError(f"{path}: needs at least 2 records")
    return start, step.total_seconds(), names, np.frombuffer(buf).reshape(n, -1)


def parse_weather(path: str) -> WeatherSeries:
    """Read a weather CSV into a validated series."""
    def check_header(columns):
        if columns != list(INPUT_CHANNELS):
            raise ParseError(f"{path}: header must be 'timestamp,{','.join(INPUT_CHANNELS)}'")
        return columns

    start, dt, _, values = _read_series(path, check_header)
    try:
        return WeatherSeries(dt=dt, values=values, start=start)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_measurements(path: str) -> MeasurementSeries:
    """Read a measurement CSV (columns node_<k>) into a validated series."""
    def check_header(columns):
        for column in columns:
            if not column.startswith("node_") or not column[5:].isdigit():
                raise ParseError(f"{path}: column {column!r} must be named node_<id>")
        if not columns:
            raise ParseError(f"{path}: no node_<id> columns found")
        names = [f"node_{int(column[5:])}" for column in columns]
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: duplicate node columns")
        return names

    start, dt, names, values = _read_series(path, check_header)
    try:
        return MeasurementSeries(dt=dt, start=start, series={
            int(name[5:]): values[:, j] for j, name in enumerate(names)})
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _csv_blocks(header: str, index, values: np.ndarray):
    """Yield a CSV in blocks of WRITE_BLOCK rows: row k is ``index(k)``, then
    ``values[k]`` in Python's float repr, which reads back to the same float."""
    yield header + "\n"
    template = "%s" + ",%r" * values.shape[1] + "\n"
    for k0 in range(0, values.shape[0], WRITE_BLOCK):
        rows = values[k0:k0 + WRITE_BLOCK].tolist()
        yield "".join([template % (index(k), *row) for k, row in enumerate(rows, k0)])


def weather_csv(weather: WeatherSeries, start: datetime = CSV_EPOCH) -> str:
    """Serialize a weather series; parse_weather reads it back identically."""
    return "".join(_csv_blocks(
        "timestamp," + ",".join(INPUT_CHANNELS),
        lambda k: (start + timedelta(seconds=k * weather.dt)).isoformat(), weather.values))


def measurements_csv(meas: MeasurementSeries, start: datetime = CSV_EPOCH) -> str:
    """Serialize a measurement series, node columns in ascending id order."""
    nodes = sorted(meas.node_ids)
    return "".join(_csv_blocks(
        "timestamp," + ",".join(f"node_{n}" for n in nodes),
        lambda k: (start + timedelta(seconds=k * meas.dt)).isoformat(),
        np.column_stack([meas.node_series(n) for n in nodes])))


# ---------------------------------------------------------------------------
# commands

def _write(out_dir: str, name: str, text) -> str:
    """Write ``text``, a string or an iterable of strings, to out_dir/name."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return path


def _load_measured_case(args):
    """Parse the building, weather and measurement files and check they fit."""
    desc = parse_building(args.building)
    model = build_mesh(desc)
    sm = assemble(model, desc)
    weather = parse_weather(args.weather)
    meas = parse_measurements(args.measurements)
    if meas.dt != weather.dt:
        raise ParseError(
            f"dt mismatch: weather step {weather.dt} s, measurements step {meas.dt} s")
    if meas.start != weather.start:
        raise ParseError(
            f"start mismatch: weather starts at {weather.start.isoformat()}, "
            f"measurements start at {meas.start.isoformat()}")
    if meas.n_samples != weather.n_records:
        raise ParseError(
            f"length mismatch: {weather.n_records} weather records, "
            f"{meas.n_samples} measurement records")
    for node in sorted(meas.node_ids):
        if not 1 <= node <= model.n_nodes:
            raise ParseError(f"{args.measurements}: column node_{node} is not a node "
                             f"of the building (1..{model.n_nodes})")
    if model.air_node not in meas.node_ids:
        raise ParseError(
            f"{args.measurements}: missing the air-node column node_{model.air_node}")
    return model, sm, weather, meas


def _ga_config(args) -> GAConfig:
    return GAConfig(
        population_size=args.pop_size,
        crossover_probability=args.pc,
        mutation_probability=args.pm,
        max_generations=args.generations,
        rng_seed=args.seed,
        elitism=not args.no_elitism,
    )


def cmd_simulate(args) -> int:
    desc = parse_building(args.building)
    model = build_mesh(desc)
    sm = assemble(model, desc)
    weather = parse_weather(args.weather)
    traj = simulate(sm, weather)
    path = _write(args.out, "trajectory.csv", _csv_blocks(
        "step," + ",".join(f"node_{n.node_id}" for n in model.nodes), lambda k: k, traj.values.T))
    print(f"wrote {path} ({traj.n_steps} steps, {model.n_nodes} nodes)")
    return 0


def cmd_diagnose(args) -> int:
    model, sm, weather, meas = _load_measured_case(args)
    report, evaluator = run_diagnosis(
        sm, weather, meas, model.air_node, _ga_config(args),
        skip_steps=args.skip_steps, exhaustive=args.exhaustive)

    text = format_report(report, model)
    _write(args.out, "report.txt", text)
    _write(args.out, "report.kv", report_key_values(report))
    _write(args.out, "ga_history.csv", history_csv(report.history))
    _write(args.out, "air_comparison.csv", air_comparison_csv(report, evaluator))
    print(text, end="")
    return 0


def cmd_verify(args) -> int:
    if args.weather and args.dt is not None:
        raise ParseError("--dt sets the synthetic weather's step; "
                         "it cannot be given with --weather")
    dt = 900.0 if args.dt is None else args.dt
    if not 0.0 < dt < math.inf:
        raise ParseError(f"--dt must be a positive number of seconds, got {dt!r}")
    if not 0.0 <= args.noise_sd < math.inf:
        raise ParseError(f"--noise-sd must be a finite sd >= 0 °C, got {args.noise_sd!r}")
    desc = parse_building(args.building) if args.building else example_cell()
    cases = parse_cases(args.cases) if args.cases else default_cases()
    for spec in cases:  # every case, before the reference is marched
        try:
            inject_defect(desc, spec)
        except ValueError as exc:
            raise ParseError(
                f"{args.cases or 'bundled cases'}: [case {spec.case_id}]: {exc}") from exc
    weather = parse_weather(args.weather) if args.weather else synthetic_weather(days=5, dt=dt)

    model = build_mesh(desc)
    try:
        measured = default_measured_nodes(model)
    except KeyError:
        # custom building: fall back to every inside surface
        measured = tuple(model.inside_surface_node(c.name) for c in desc.components)
    config = _ga_config(args)

    pseudo = generate_pseudo_measurements(desc, weather, measured)
    outcomes = [
        run_case(spec, desc, weather, pseudo, config,
                 skip_steps=args.skip_steps, noise_sd=args.noise_sd)
        for spec in cases
    ]
    outcomes.append(run_control(desc, weather, pseudo, config, skip_steps=args.skip_steps))

    table = format_outcomes(outcomes)
    _write(args.out, "verify_report.txt", table)
    _write(args.out, "verify_report.kv", outcomes_key_values(outcomes))
    print(table, end="")
    return 0 if all(o.passed for o in outcomes) else 4


def cmd_stats(args) -> int:
    model, sm, weather, meas = _load_measured_case(args)
    air = model.air_node
    traj = simulate(sm, weather)
    sim_air = traj.node_series(air)[args.skip_steps:]
    meas_air = meas.node_series(air)[args.skip_steps:]
    mean, sd = residual_stats(sim_air, meas_air)
    print(f"n_samples = {sim_air.shape[0]}")
    print(f"J = {objective(sim_air, meas_air)!r}")
    print(f"residual_mean = {mean!r}")
    print(f"residual_sd = {sd!r}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("search parameters")
    g.add_argument("--pop-size", type=int, default=30, metavar="N",
                   help="population size, even (default 30)")
    g.add_argument("--pc", type=float, default=0.8, metavar="P",
                   help="crossover probability (default 0.8)")
    g.add_argument("--pm", type=float, default=0.03, metavar="P",
                   help="per-bit mutation probability (default 0.03)")
    g.add_argument("--generations", type=int, default=400, metavar="N",
                   help="generation cap (default 400)")
    g.add_argument("--seed", type=int, default=0, metavar="S",
                   help="random seed (default 0)")
    g.add_argument("--no-elitism", action="store_true",
                   help="disable carrying the best individual over")


def _add_skip_steps(p: argparse.ArgumentParser) -> None:
    p.add_argument("--skip-steps", type=int, default=0, metavar="N",
                   help="exclude the first N samples from the objective")


def _add_inputs(p: argparse.ArgumentParser, measurements: bool) -> None:
    p.add_argument("--building", required=True, help="building description file")
    p.add_argument("--weather", required=True, help="weather CSV")
    if measurements:
        p.add_argument("--measurements", required=True, help="measurement CSV")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermodiag",
        description="Locate defective sub-models of a nodal building "
                    "thermal model by measurement forcing and a genetic "
                    "search.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="run the model over a weather file")
    _add_inputs(p, measurements=False)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="locate defective sub-models")
    _add_inputs(p, measurements=True)
    _add_ga_flags(p)
    _add_skip_steps(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="also run the exhaustive subset oracle")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("verify", help="run the planted-defect protocol")
    p.add_argument("--building", default=None,
                   help="building description file (default: bundled cell)")
    p.add_argument("--weather", default=None,
                   help="weather CSV (default: bundled synthetic weather)")
    p.add_argument("--cases", default=None,
                   help="defect case file (default: bundled cases)")
    p.add_argument("--dt", type=float, default=None, metavar="S",
                   help="synthetic weather step in seconds (default 900; "
                        "not with --weather)")
    _add_ga_flags(p)
    _add_skip_steps(p)
    p.add_argument("--noise-sd", type=float, default=0.0, metavar="SD",
                   help="Gaussian noise added to pseudo-measurements, °C")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="residuals of the plain model")
    _add_inputs(p, measurements=True)
    _add_skip_steps(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularSystemError, GAError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
