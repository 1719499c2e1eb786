"""Command-line front end: file parsing, command dispatch, report emission.

Commands
--------
simulate   march a building model over a weather file, write the trajectory
diagnose   search for the forcing set that best repairs the air prediction
verify     plant known defects and check the search localizes them
stats      residual statistics of the plain model against measurements

``simulate``, ``diagnose`` and ``stats`` take the time step from their files.
``verify --dt`` is the step of its synthetic weather, so it cannot be given
with ``--weather``.  A bad GA flag, or a ``--skip-steps`` that does not leave
two records, exits 2 naming the flag before anything is marched.  Each verify
outcome holds its case's diagnosis report; the J ratio and the GA/oracle
agreement the tables print are read from it.

File formats
------------
Building description (INI-style, sections in declaration order).  A line
that starts with ``;`` or ``#`` is a comment.  A comment cannot follow a
value on its line: it would be read as part of the value, and ``;`` also
separates the segments of ``layers``::

    [zone]
    # J/K, J/(kg K), kg/s
    air_capacity = 33000.0
    air_specific_heat = 1006.0
    ventilation_flow = 0.02
    glazing_transmitted_fraction = 0.8

    [component wall_east]
    ; N S E W horizontal-up horizontal-down; area in m²
    orientation = E
    area = 9.0
    layers = 0.15 1.75 2200 900 ; 0.04 0.035 30 1400
    h_ci = 5.0
    h_ce = 15.0
    h_ri = 5.0
    h_re = 5.0
    absorptivity = 0.6
    internal_nodes = 1
    ; or null-flux (floor only)
    boundary = ambient
    glazing = no

Each ``layers`` segment is ``thickness conductivity density specific_heat``
(SI units), outside to inside, segments joined by ``;``.  ``internal_nodes``
is at most MAX_INTERNAL_NODES.

Defect cases (INI-style)::

    [case door_conductivity]
    ; or h_ci, absorptivity
    kind = layer_conductivity
    ; omit for a global h_ci defect
    component = door
    layer = 0
    base = 0.23
    perturbed = 0.78

``verify`` checks every case against the building (component, layer, base
value) before it marches anything; a bad case, or one named ``control``
(the control run's id), exits 2 naming the file and its ``[case <id>]``
section.

Weather CSV header: ``timestamp,T_ae,T_sky,I_N,I_S,I_E,I_W,I_H`` with
ISO-8601 timestamps, temperatures in °C, fluxes in W/m².  Measurement CSV
header: ``timestamp,node_<k>,...``, one column per measured node id.  Both
must be uniformly sampled on the same grid, from the same first timestamp.
Series files are read and written by :mod:`thermodiag.seriescsv`, which says
how: every value written reads back to the same float, and a file that cannot
be read exits 2 naming the file and its first fault.

Exit status: 0 success, 2 bad input or configuration, 3 numerical failure,
4 verification cases failed.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from datetime import datetime

import numpy as np

from .diagnose import (
    MAX_EXHAUSTIVE_NODES,
    ObjectiveOverflow,
    air_comparison_csv,
    format_report,
    history_csv,
    objective,
    report_key_values,
    residual_stats,
    run_diagnosis,
)
from .ga import MAX_POPULATION_SIZE, GAConfig, GAError
from .model import (
    INPUT_CHANNELS,
    AirZone,
    BuildingDescription,
    EnvelopeComponent,
    Layer,
    assemble,
    build_mesh,
)
from .seriescsv import (
    ParseError, _file_fault, csv_blocks, csv_text, iso_stamps, read_series, row_numbers,
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
    measurement_noise,
    outcomes_key_values,
    run_case,
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


# ---------------------------------------------------------------------------
# building description files

#: Largest ``internal_nodes`` a component may ask for.  A diagnosis marches a
#: GA generation of up to 30 forcing sets on dense (n, n) step matrices, 8·n²
#: bytes each: at this count in each of the bundled cell's 8 components,
#: n = 1041 and one stack of 30 is 260 MB, while 10**8 nodes would ask for
#: far more memory than any host has before a single step is taken.
MAX_INTERNAL_NODES = 128


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    """The sections of an INI file in file order, each a dict of its options
    (and of a ``[DEFAULT]`` section's)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
        return {section: dict(cp.items(section)) for section in cp.sections()}
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_fault(path, exc) from exc
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    finally:
        # the parser and its section proxies refer to each other; cleared,
        # they go with their last reference, not with the cyclic collector
        for proxy in cp.values():
            vars(proxy).clear()
        vars(cp).clear()


def _field(options: dict, section: str, key: str, path: str, convert, default=None):
    if key not in options:
        if default is not None:
            return default
        raise ParseError(f"{path}: [{section}] is missing the field '{key}'")
    raw = options[key]
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


def _to_node_count(raw: str) -> int:
    value = int(raw)
    if not 0 <= value <= MAX_INTERNAL_NODES:
        raise ValueError(f"{value} outside [0, {MAX_INTERNAL_NODES}]")
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
    ini = _read_ini(path)
    if "zone" not in ini:
        raise ParseError(f"{path}: missing the [zone] section")

    components = []
    for section, options in ini.items():
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
                orientation=_field(options, section, "orientation", path, str.strip),
                area=_field(options, section, "area", path, float),
                layers=_field(options, section, "layers", path, _parse_layers),
                h_ci=_field(options, section, "h_ci", path, float),
                h_ce=_field(options, section, "h_ce", path, float),
                h_ri=_field(options, section, "h_ri", path, float),
                h_re=_field(options, section, "h_re", path, float),
                absorptivity=_field(options, section, "absorptivity", path, float),
                internal_node_count=_field(options, section, "internal_nodes", path,
                                           _to_node_count, 0),
                outside_boundary=_field(options, section, "boundary", path, str.strip, "ambient"),
                is_glazing=_field(options, section, "glazing", path, _to_bool, False),
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: [{section}]: {exc}") from exc

    options = ini["zone"]
    try:
        zone = AirZone(
            air_capacity=_field(options, "zone", "air_capacity", path, float),
            air_specific_heat=_field(options, "zone", "air_specific_heat", path, float),
            ventilation_flow=_field(options, "zone", "ventilation_flow", path, float),
        )
    except ValueError as exc:
        raise ParseError(f"{path}: [zone]: {exc}") from exc
    glazing = _field(options, "zone", "glazing_transmitted_fraction", path, _to_fraction, 0.0)
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
    specs = []
    for section, options in _read_ini(path).items():
        if not section.startswith("case "):
            raise ParseError(
                f"{path}: unknown section [{section}] (expected [case <id>])")
        case_id = section[len("case "):].strip()
        component = options.get("component")
        try:
            specs.append(DefectSpec(
                case_id=case_id,
                kind=_field(options, section, "kind", path, str.strip),
                base=_field(options, section, "base", path, float),
                perturbed=_field(options, section, "perturbed", path, float),
                component=component.strip() if component else None,
                layer_index=_field(options, section, "layer", path, int, 0),
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

def parse_weather(path: str) -> WeatherSeries:
    """Read a weather CSV into a validated series."""
    def check_header(columns):
        if columns != list(INPUT_CHANNELS):
            raise ParseError(f"{path}: header must be 'timestamp,{','.join(INPUT_CHANNELS)}'")
        return columns

    start, dt, _, values = read_series(path, check_header)
    try:
        return WeatherSeries(dt=dt, values=values, start=start)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_measurements(path: str) -> MeasurementSeries:
    """Read a measurement CSV (columns node_<k>) into a validated series."""
    def check_header(columns):
        for column in columns:
            if not column.startswith("node_") or not column[5:].isdecimal():
                raise ParseError(f"{path}: column {column!r} must be named node_<id>")
        if not columns:
            raise ParseError(f"{path}: no node_<id> columns found")
        names = [f"node_{int(column[5:])}" for column in columns]
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: duplicate node columns")
        return names

    start, dt, names, values = read_series(path, check_header)
    try:
        return MeasurementSeries(dt=dt, start=start, series={
            int(name[5:]): values[:, j] for j, name in enumerate(names)})
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def weather_csv(weather: WeatherSeries, start: datetime = CSV_EPOCH) -> str:
    """Serialize a weather series; parse_weather reads it back identically."""
    return csv_text("timestamp," + ",".join(INPUT_CHANNELS),
                    iso_stamps(start, weather.dt), weather.values)


def measurements_csv(meas: MeasurementSeries, start: datetime = CSV_EPOCH) -> str:
    """Serialize a measurement series, node columns in ascending id order."""
    nodes = sorted(meas.node_ids)
    return csv_text("timestamp," + ",".join(f"node_{n}" for n in nodes),
                    iso_stamps(start, meas.dt),
                    np.column_stack([meas.node_series(n) for n in nodes]))


# ---------------------------------------------------------------------------
# commands

def _write(out_dir: str, name: str, data) -> str:
    """Write ``data`` to out_dir/name: a string, as UTF-8, bytes, or an
    iterable of bytes blocks."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(path, "wb") as fh:
        fh.writelines([data] if isinstance(data, bytes) else data)
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


#: GAConfig field -> the flag that sets it and that flag's value on args.
_GA_FLAGS = {
    "population_size": ("--pop-size", "pop_size"),
    "crossover_probability": ("--pc", "pc"),
    "mutation_probability": ("--pm", "pm"),
    "max_generations": ("--generations", "generations"),
    "rng_seed": ("--seed", "seed"),
}


def _ga_config(args) -> GAConfig:
    """The GA flags as a config; a rejected value exits 2 naming its flag."""
    try:
        return GAConfig(elitism=not args.no_elitism, **{
            name: getattr(args, dest) for name, (_, dest) in _GA_FLAGS.items()})
    except ValueError as exc:  # GAConfig's messages start with the field name
        name, _, reason = str(exc).partition(" ")
        flag, dest = _GA_FLAGS[name]
        raise ParseError(f"{flag} {reason}, got {getattr(args, dest)!r}") from exc


def _check_skip_steps(skip_steps: int, n_records: int) -> None:
    """--skip-steps must leave the two samples the residual statistics need."""
    if not 0 <= skip_steps <= n_records - 2:
        raise ParseError(f"--skip-steps must be in 0..{n_records - 2} to leave at least "
                         f"two of the {n_records} records, got {skip_steps}")


def cmd_simulate(args) -> int:
    desc = parse_building(args.building)
    model = build_mesh(desc)
    sm = assemble(model, desc)
    weather = parse_weather(args.weather)
    values = simulate(sm, weather)[0]
    path = _write(args.out, "trajectory.csv", csv_blocks(
        "step," + ",".join(f"node_{n.node_id}" for n in model.nodes), row_numbers, values.T))
    print(f"wrote {path} ({values.shape[1]} steps, {model.n_nodes} nodes)")
    return 0


def cmd_diagnose(args) -> int:
    config = _ga_config(args)
    model, sm, weather, meas = _load_measured_case(args)
    _check_skip_steps(args.skip_steps, meas.n_samples)
    measured = len(meas.node_ids - {model.air_node})
    if args.exhaustive and measured > MAX_EXHAUSTIVE_NODES:
        raise ParseError(f"--exhaustive: {args.measurements} measures {measured} nodes "
                         f"besides the air node; the exhaustive search is capped at "
                         f"{MAX_EXHAUSTIVE_NODES}")
    report, evaluator = run_diagnosis(
        sm, weather, meas, model.air_node, config,
        skip_steps=args.skip_steps, exhaustive=args.exhaustive)

    text = format_report(report, model)
    _write(args.out, "report.txt", text)
    _write(args.out, "report.kv", report_key_values(report))
    _write(args.out, "ga_history.csv", history_csv(report.history))
    _write(args.out, "air_comparison.csv", air_comparison_csv(report, evaluator))
    print(text, end="")
    return 0


#: Most records ``verify --dt`` may give the 5 days of synthetic weather: one
#: a second.  A verify run's peak memory grows by about 450 bytes a record
#: (the oracle's 32 air series are 256 of them), so it is about 200 MB at
#: this count, where dt = 1 ms would ask 22.5 GiB for the weather alone.
MAX_SYNTHETIC_RECORDS = 5 * 86400


def cmd_verify(args) -> int:
    if args.weather and args.dt is not None:
        raise ParseError("--dt sets the synthetic weather's step; "
                         "it cannot be given with --weather")
    dt = 900.0 if args.dt is None else args.dt
    if not 0.0 < dt < math.inf:
        raise ParseError(f"--dt must be a positive number of seconds, got {dt!r}")
    records = 5 * 86400.0 / dt  # of the 5-day synthetic weather
    if not (records <= MAX_SYNTHETIC_RECORDS and round(records) >= 2):
        raise ParseError(f"--dt {dt!r} gives {records:.6g} records of synthetic weather over "
                         f"5 days; it must give 2 to {MAX_SYNTHETIC_RECORDS}")
    if not 0.0 <= args.noise_sd < math.inf:
        raise ParseError(f"--noise-sd must be a finite sd >= 0 °C, got {args.noise_sd!r}")
    config = _ga_config(args)
    desc = parse_building(args.building) if args.building else example_cell()
    cases = parse_cases(args.cases) if args.cases else default_cases()
    for spec in cases:  # every case, before the reference is marched
        try:
            inject_defect(desc, spec)
        except ValueError as exc:
            raise ParseError(
                f"{args.cases or 'bundled cases'}: [case {spec.case_id}]: {exc}") from exc
    weather = parse_weather(args.weather) if args.weather else synthetic_weather(days=5, dt=dt)
    _check_skip_steps(args.skip_steps, weather.n_records)

    model = build_mesh(desc)
    try:
        measured = default_measured_nodes(model)
    except KeyError:
        # custom building: fall back to every inside surface
        measured = tuple(model.inside_surface_node(c.name) for c in desc.components)

    if args.noise_sd > 0.0 and not np.isfinite(measurement_noise(
            len({*measured, model.air_node}), weather.n_records, args.noise_sd,
            args.seed)).all():
        raise ParseError(f"--noise-sd {args.noise_sd!r} makes the noisy pseudo-measurements "
                         "non-finite")

    pseudo = generate_pseudo_measurements(desc, weather, measured)
    outcomes = [
        run_case(spec, desc, weather, pseudo, config,
                 skip_steps=args.skip_steps, noise_sd=args.noise_sd)
        for spec in cases
    ]
    outcomes.append(run_case(None, desc, weather, pseudo, config, skip_steps=args.skip_steps))

    table = format_outcomes(outcomes)
    _write(args.out, "verify_report.txt", table)
    _write(args.out, "verify_report.kv", outcomes_key_values(outcomes))
    print(table, end="")
    return 0 if all(o.passed for o in outcomes) else 4


def cmd_stats(args) -> int:
    model, sm, weather, meas = _load_measured_case(args)
    _check_skip_steps(args.skip_steps, meas.n_samples)
    air = model.air_node
    sim_air = simulate(sm, weather, rows=(air,))[0, 0, args.skip_steps:]
    meas_air = meas.node_series(air)[args.skip_steps:]
    J = objective(sim_air, meas_air)
    mean, sd = residual_stats(sim_air, meas_air)
    print(f"n_samples = {sim_air.shape[0]}")
    print(f"J = {J!r}")
    print(f"residual_mean = {mean!r}")
    print(f"residual_sd = {sd!r}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("search parameters")
    g.add_argument("--pop-size", type=int, default=30, metavar="N",
                   help=f"population size, even, 2..{MAX_POPULATION_SIZE} (default 30)")
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


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and a parser built per call of :func:`main` costs about
    1 ms and leaves some 400 objects of cyclic garbage behind."""
    parser = argparse.ArgumentParser(
        prog="thermodiag",
        description="Locate defective sub-models of a nodal building "
                    "thermal model by measurement forcing and a genetic "
                    "search.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="run the model over a weather file")
    _add_inputs(p, measurements=False)
    p.add_argument("--out", default=".", help="output directory (default .)")

    p = sub.add_parser("diagnose", help="locate defective sub-models")
    _add_inputs(p, measurements=True)
    _add_ga_flags(p)
    _add_skip_steps(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="also run the exhaustive subset oracle")
    p.add_argument("--out", default=".", help="output directory (default .)")

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

    p = sub.add_parser("stats", help="residuals of the plain model")
    _add_inputs(p, measurements=True)
    _add_skip_steps(p)

    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    # looked up at each call, so a replaced cmd_* function (a test's or a
    # tracer's) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (SingularSystemError, GAError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ObjectiveOverflow as exc:
        # a simulated series that overflows on its own comes from the
        # weather file; else the measured air series, or verify's
        # pseudo-measurements, which only noise or the weather takes that
        # far from the model
        if exc.simulated:
            source = args.weather
        elif "measurements" in args:
            source = args.measurements
        else:
            source = f"--noise-sd {args.noise_sd!r}" if args.noise_sd else args.weather
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
