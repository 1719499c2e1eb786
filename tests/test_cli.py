"""File grammars and command-line entry points, end to end."""

import configparser
import contextlib
import dataclasses
import gc
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from datetime import timedelta
from decimal import ROUND_DOWN, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermodiag.cli
import thermodiag.diagnose
import thermodiag.seriescsv
import thermodiag.verify
from thermodiag.cli import (
    CSV_EPOCH,
    ParseError,
    default_cases,
    main,
    measurements_csv,
    parse_building,
    parse_cases,
    parse_measurements,
    parse_weather,
    weather_csv,
    write_building,
)
from thermodiag.model import (
    ORIENTATIONS, AirZone, BuildingDescription, EnvelopeComponent, Layer, assemble, build_mesh,
)
from thermodiag.seriescsv import SLOT, WRITE_BLOCK, csv_blocks, csv_rows, row_numbers
from thermodiag.simulate import MeasurementSeries, WeatherSeries, simulate
from thermodiag.testcell import example_cell, synthetic_weather

DATA = "data"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def building_text():
    with open(f"{DATA}/example_cell.building", encoding="utf-8") as fh:
        return fh.read()


def write_tmp(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def edit_record(text, record, column, cell):
    """Replace one cell (column 0 is the timestamp) of a 1-based record."""
    lines = text.split("\n")
    cells = lines[record].split(",")
    if cell is None:
        del cells[column]
    else:
        cells[column] = cell
    lines[record] = ",".join(cells)
    return "\n".join(lines)


#: Finite floats that stress the float repr: a signed zero, the smallest
#: subnormal, and the exponent switch points of repr.
EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 1e+16)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                     st.sampled_from((5e-324, 1e-05, 1e+16)))
fraction = st.one_of(st.floats(0.0, 1.0), st.sampled_from((-0.0, 5e-324, 1e-05)))
#: Positive floats for the fields of the RC network.  A product or quotient
#: of up to four of them (a layer's capacity, a component's resistance and
#: surface conductances, their sums at a node) stays within 1e+-240, so
#: finite and non-zero, while the draws still reach repr's exponent form on
#: both sides of its switch points.
network = st.one_of(st.floats(1e-60, 1e+60), st.sampled_from((1e-05, 1e+16)))
h_network = st.one_of(network, st.sampled_from((0.0, -0.0)))


def components(names):
    return st.tuples(*[st.builds(
        EnvelopeComponent, name=st.just(name), orientation=st.sampled_from(ORIENTATIONS),
        area=network, layers=st.lists(st.builds(Layer, network, network, network, network),
                                      min_size=1, max_size=3).map(tuple),
        h_ci=h_network, h_ce=h_network, h_ri=h_network, h_re=h_network,
        absorptivity=fraction, internal_node_count=st.integers(0, 3),
        is_glazing=st.booleans()) for name in names])


def with_null_flux_floor(comps, floor):
    # at most one component, a floor, may sit on the adiabatic boundary
    if not floor:
        return comps
    first = dataclasses.replace(comps[0], orientation="horizontal-down",
                                outside_boundary="null-flux")
    return (first, *comps[1:])


buildings = st.builds(
    BuildingDescription,
    components=st.builds(
        with_null_flux_floor,
        st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1,
                 max_size=3, unique=True).flatmap(components),
        st.booleans()),
    zone=st.builds(AirZone, positive, network, h_network),
    glazing_transmitted_fraction=fraction)

#: The bundled cell with the repr edge cases in every kind of field.
EDGE_BUILDING = dataclasses.replace(
    example_cell(),
    zone=AirZone(air_capacity=5e-324, air_specific_heat=1e+16, ventilation_flow=-0.0),
    glazing_transmitted_fraction=5e-324,
    components=tuple(
        dataclasses.replace(c, area=1e+16, h_ci=5e-324, h_re=-0.0, absorptivity=1e-05,
                            layers=(Layer(5e-324, 1e+16, 1e-05, 5e-324), *c.layers))
        for c in example_cell().components))


class TestBuildingGrammar:
    def test_shipped_file_matches_example_cell(self):
        desc = parse_building(f"{DATA}/example_cell.building")
        assert desc == example_cell()
        assert build_mesh(desc).n_nodes == 23

    def test_write_then_parse_round_trips(self, tmp_path):
        desc = example_cell()
        path = write_tmp(tmp_path, "cell.building", write_building(desc))
        assert parse_building(path) == desc

    @settings(max_examples=60, deadline=None)
    @given(desc=buildings)
    @example(desc=EDGE_BUILDING)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, desc):
        path = tmp_path_factory.mktemp("b") / "cell.building"
        path.write_text(write_building(desc), encoding="utf-8")
        again = parse_building(str(path))
        # repr tells -0.0 from 0.0 and prints each float's shortest exact form
        assert again == desc and repr(again) == repr(desc)

    def test_unphysical_absorptivity_names_section(self, tmp_path, building_text):
        bad = building_text.replace("absorptivity = 0.3", "absorptivity = 1.2")
        path = write_tmp(tmp_path, "bad.building", bad)
        with pytest.raises((ParseError, ValueError), match="absorptivity"):
            parse_building(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "empty.building", "")
        with pytest.raises(ParseError):
            parse_building(path)

    def test_unknown_section_rejected(self, tmp_path, building_text):
        path = write_tmp(tmp_path, "odd.building",
                         "[frobnicator]\nx = 1\n\n" + building_text)
        with pytest.raises(ParseError, match="frobnicator"):
            parse_building(path)

    def test_missing_field_names_key(self, tmp_path, building_text):
        bad = re.sub(r"(?m)^area = 1\.9\n", "", building_text)
        path = write_tmp(tmp_path, "noarea.building", bad)
        with pytest.raises(ParseError, match="area"):
            parse_building(path)

    def test_malformed_layer_tuple_rejected(self, tmp_path, building_text):
        bad = building_text.replace(
            "layers = 0.05 0.23 600.0 1600.0",
            "layers = 0.05 0.23 600.0")
        path = write_tmp(tmp_path, "short.building", bad)
        with pytest.raises(ParseError, match="layers"):
            parse_building(path)

    def test_internal_nodes_limit_parses(self, tmp_path, building_text):
        limit = thermodiag.cli.MAX_INTERNAL_NODES
        path = write_tmp(tmp_path, "at.building", re.sub(
            r"(?m)^internal_nodes = \d+$", f"internal_nodes = {limit}", building_text))
        assert {c.internal_node_count for c in parse_building(path).components} == {limit}

    def test_full_line_comments_parse(self, tmp_path, building_text):
        # ';' and '#' start a comment only at the start of a line
        text = building_text.replace("[zone]\n", "[zone]\n; J/K\n# kg/s\n").replace(
            "[component floor]\n", "[component floor]\n; null-flux: floor only\n")
        assert text.count("\n") == building_text.count("\n") + 3
        assert parse_building(write_tmp(tmp_path, "c.building", text)) == example_cell()

    def test_inline_comment_names_field(self, tmp_path, capsys, building_text):
        text = re.sub(r"(?m)^(air_capacity = .*)$", r"\1 ; J/K", building_text)
        path = write_tmp(tmp_path, "inline.building", text)
        rc = main(["simulate", "--building", path, "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: [zone] field 'air_capacity': could not convert")

    @pytest.mark.parametrize("count", [thermodiag.cli.MAX_INTERNAL_NODES + 1, -1])
    def test_internal_nodes_bounded_before_any_mesh(self, tmp_path, capsys, monkeypatch,
                                                    building_text, count):
        def no_mesh(desc):
            raise AssertionError("a mesh was built")

        path = write_tmp(tmp_path, "bad.building", re.sub(
            r"(?m)^internal_nodes = \d+$", f"internal_nodes = {count}", building_text,
            count=1))
        monkeypatch.setattr(thermodiag.cli, "build_mesh", no_mesh)
        rc = main(["simulate", "--building", path, "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {path}: [component wall_east] field 'internal_nodes': {count} outside "
            f"[0, {thermodiag.cli.MAX_INTERNAL_NODES}]\n")


class TestWeatherGrammar:
    def test_shipped_file_parses(self):
        weather = parse_weather(f"{DATA}/example_weather.csv")
        assert weather.n_records == 480
        assert weather.dt == 900.0

    def test_round_trip_preserves_values(self, tmp_path):
        weather = synthetic_weather(days=1)
        path = write_tmp(tmp_path, "w.csv", weather_csv(weather))
        again = parse_weather(path)
        assert again.dt == weather.dt
        assert np.array_equal(again.values, weather.values)

    def test_gap_in_time_grid_rejected(self, tmp_path):
        text = weather_csv(synthetic_weather(days=1))
        lines = text.strip().split("\n")
        del lines[5]
        path = write_tmp(tmp_path, "gap.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="grid|spacing|uniform"):
            parse_weather(path)

    def test_wrong_header_rejected(self, tmp_path):
        text = weather_csv(synthetic_weather(days=1))
        bad = text.replace("T_ae", "T_outside", 1)
        path = write_tmp(tmp_path, "hdr.csv", bad)
        with pytest.raises(ParseError, match="header"):
            parse_weather(path)

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        text = weather_csv(synthetic_weather(days=1))
        lines = text.strip().split("\n")
        lines[3], lines[4] = lines[4], lines[3]
        path = write_tmp(tmp_path, "swap.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            parse_weather(path)

    @settings(max_examples=60, deadline=None)
    @given(dt=st.sampled_from([0.5, 60.0, 900.0]),
           rows=st.lists(st.tuples(finite, finite, *[st.floats(
               min_value=0.0, allow_infinity=False)] * 5), min_size=2, max_size=6))
    @example(dt=900.0, rows=[EDGE_FLOATS + (0.0, 1e-05, 1e+16),
                             (1e+16, 1e-05, 5e-324, -0.0, 1e+16, 5e-324, 0.0)])
    def test_round_trip_is_bit_exact(self, tmp_path_factory, dt, rows):
        weather = WeatherSeries(dt=dt, values=np.array(rows, dtype=float))
        path = tmp_path_factory.mktemp("w") / "w.csv"
        path.write_text(weather_csv(weather), encoding="utf-8")
        again = parse_weather(str(path))
        assert again.dt == dt
        assert again.start == CSV_EPOCH
        assert again.values.tobytes() == weather.values.tobytes()

    def test_blank_lines_between_records_skipped(self, tmp_path):
        weather = synthetic_weather(days=1)
        lines = weather_csv(weather).split("\n")
        lines.insert(4, "")
        path = write_tmp(tmp_path, "blank.csv", "\n".join(lines) + "\n\n")
        again = parse_weather(path)
        assert again.n_records == weather.n_records
        assert np.array_equal(again.values, weather.values)

    def test_oversized_field_names_file(self, tmp_path):
        text = edit_record(weather_csv(synthetic_weather(days=1)), 3, 2, "1" * 200_000)
        path = write_tmp(tmp_path, "huge.csv", text)
        with pytest.raises(ParseError, match="huge.csv: line 4"):
            parse_weather(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        text = weather_csv(synthetic_weather(days=1))
        lines = text.strip().split("\n")
        cells = lines[1].split(",")
        cells[2] = "cloudy"
        lines[1] = ",".join(cells)
        path = write_tmp(tmp_path, "nan.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            parse_weather(path)


class TestMeasurementGrammar:
    def test_shipped_file_keys_by_node_id(self):
        meas = parse_measurements(f"{DATA}/example_measurements.csv")
        assert meas.node_ids == frozenset({3, 14, 16, 19, 20, 23})
        assert meas.n_samples == 480

    def test_round_trip(self, tmp_path):
        meas = parse_measurements(f"{DATA}/example_measurements.csv")
        path = write_tmp(tmp_path, "m.csv", measurements_csv(meas))
        again = parse_measurements(path)
        assert again.node_ids == meas.node_ids
        for node in meas.node_ids:
            assert np.array_equal(again.node_series(node),
                                  meas.node_series(node))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nodes=st.sets(st.integers(1, 999), min_size=1, max_size=4),
           n_samples=st.integers(2, 6))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, data, nodes, n_samples):
        cells = st.one_of(finite, st.sampled_from(EDGE_FLOATS))
        meas = MeasurementSeries(dt=60.0, series={
            node: np.array(data.draw(st.lists(cells, min_size=n_samples,
                                              max_size=n_samples)))
            for node in nodes})
        path = tmp_path_factory.mktemp("m") / "m.csv"
        path.write_text(measurements_csv(meas), encoding="utf-8")
        again = parse_measurements(str(path))
        assert again.node_ids == meas.node_ids
        assert again.dt == 60.0
        for node in nodes:
            assert again.node_series(node).tobytes() == meas.node_series(node).tobytes()

    def test_bad_column_name_rejected(self, tmp_path):
        text = measurements_csv(
            parse_measurements(f"{DATA}/example_measurements.csv"))
        bad = text.replace("node_3", "sensor_3", 1)
        path = write_tmp(tmp_path, "col.csv", bad)
        with pytest.raises(ParseError, match="node_"):
            parse_measurements(path)

    def test_duplicate_column_rejected(self, tmp_path):
        text = measurements_csv(
            parse_measurements(f"{DATA}/example_measurements.csv"))
        bad = text.replace("node_14", "node_3", 1)
        path = write_tmp(tmp_path, "dup.csv", bad)
        with pytest.raises(ParseError, match="duplicate"):
            parse_measurements(path)


#: Spellings of non-finite values that float() and numpy's reader both take.
NON_FINITE = ("nan", "-nan", "+NaN", "inf", "-inf", "+Inf", "Infinity", "-infinity")
#: Cells that only float() takes once csv has unquoted them (1_0, non-ASCII
#: digits, quoted cells), that csv refuses (a field over its 131,072-character
#: limit) or that nothing takes.
LONG_CELL = "1" * 131_073
ODD_CELLS = ("1_0", "١٢", "７.5", '"2.5"', '" -1e3 "', "", "\x00", "1\x00",
             "warm", "1.5 2", LONG_CELL)
#: Stamps that pad a grid stamp, or leave the grid.
ODD_STAMPS = (" {} ", "\t{}", "yesterday", "2000-03-01T00:00:00+00:00", "2000-02-29T23:00:00")
LINE_ENDS = ("\n", "\r\n", "\r")


#: Whitespace around a cell, which float() and numpy's reader both strip.
PADS = st.sampled_from(("", "", " ", "\t", " \t "))
#: Cells the two readers must read to the same bits.
plain_cells = st.one_of(st.builds("{}{!r}{}".format, PADS, finite, PADS),
                        finite.map(lambda v: f"+{abs(v)!r}"), st.sampled_from(NON_FINITE))


@st.composite
def series_files(draw):
    """A weather or measurement file as its header names and lines, each line
    with its ending, plus whether its only faults are odd cells, and its rows
    as cells.  Each file has one kind of fault at most, so that no other
    fault hands it to the csv loop first."""
    if draw(st.booleans()):
        names = list(thermodiag.cli.INPUT_CHANNELS)
    else:
        nodes = draw(st.sets(st.integers(1, 99), min_size=1, max_size=4))
        names = [f"node_{n}" for n in sorted(nodes)]
    n_rows = draw(st.integers(0, 20))
    rows = [[(CSV_EPOCH + timedelta(seconds=900 * r)).isoformat()]
            + draw(st.lists(plain_cells, min_size=len(names), max_size=len(names)))
            for r in range(n_rows)]
    fault = draw(st.sampled_from(("none", "cell", "stamp", "digits", "extra", "short",
                                  "spaces")))
    for _ in range(draw(st.integers(1, 2)) if rows and fault != "none" else 0):
        row = rows[draw(st.integers(0, n_rows - 1))]
        if fault == "cell":
            row[draw(st.integers(1, len(names)))] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "stamp":
            row[0] = draw(st.sampled_from(ODD_STAMPS)).format(row[0])
        elif fault == "digits":  # any 14 digits and separator in a stamp's layout
            d = draw(st.text("0123456789", min_size=14, max_size=14))
            row[0] = (f"{d[:4]}-{d[4:6]}-{d[6:8]}{draw(st.sampled_from('T t'))}"
                      f"{d[8:10]}:{d[10:12]}:{d[12:]}")
        elif fault == "extra":
            row.append(draw(plain_cells))
        elif fault == "short" and len(row) > 1:
            row.pop()
    lines = [",".join(["timestamp", *names])] + [",".join(row) for row in rows]
    lines = [line + draw(st.sampled_from(LINE_ENDS)) for line in lines]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from((" ", "\t ") if fault == "spaces" else ("",)))
        lines.insert(draw(st.integers(1, len(lines))), blank + draw(st.sampled_from(LINE_ENDS)))
    return names, lines, fault == "cell" and n_rows >= 2, rows


def first_bad_cell(names, rows):
    """(record, column, raw cell) of the first cell float() rejects once csv
    has unquoted it, or None."""
    for record, row in enumerate(rows, 1):
        for name, cell in zip(names, row[1:]):
            raw = cell[1:-1] if cell.startswith('"') else cell
            try:
                float(raw)
            except ValueError:
                return record, name, raw
    return None


def read_with(read, path):
    """What one series reader makes of a file: the result, or the error."""
    try:
        start, step, names, values = read(path, lambda columns: columns)
    except ParseError as exc:
        return str(exc)
    return start, step, names, values.shape, values.dtype, values.tobytes()


def decimal_text(value: Decimal, nudge: int = 0) -> str:
    """``value`` cut to a plain fixed-notation decimal of at most 18 digits
    (22 after the point below 1, leading zeros included), its last digit
    moved by ``nudge``."""
    if value >= 1:
        places = max(1, 18 - len(str(int(value))))
    else:
        places = min(22, 17 - value.adjusted())
    unit = Decimal(1).scaleb(-places)
    with localcontext() as ctx:
        ctx.prec = 60
        cut = value.quantize(unit, rounding=ROUND_DOWN)
        nudged = cut + nudge * unit
    # a nudge that carries into one more whole digit is left out
    keep = nudged > 0 and len(str(int(nudged))) == len(str(int(cut)))
    return format(nudged if keep else cut, "f")


@st.composite
def fixed_notation(draw):
    """A plain fixed-notation decimal, ``-?\\d+\\.\\d+`` of at most 18 digits or
    a whole part 0 and at most 22 after the point: any digits with leading
    zeros, a float's ``repr``, or a decimal at or next to the midpoint of two
    adjacent doubles."""
    sign = draw(st.sampled_from(("", "-")))
    kind = draw(st.sampled_from(("digits", "below one", "repr", "midpoint")))
    digits = "0123456789"
    if kind == "digits":
        whole = draw(st.text(digits, min_size=1, max_size=17))
        return f"{sign}{whole}.{draw(st.text(digits, min_size=1, max_size=18 - len(whole)))}"
    if kind == "below one":
        zeros = "0" * draw(st.integers(0, 4))
        rest = draw(st.text(digits, min_size=1, max_size=22 - len(zeros)))
        return f"{sign}0.{zeros}{rest}"
    if kind == "repr":
        return sign + repr(draw(st.floats(1e-4, 1e16, exclude_max=True)))
    # doubles of 2^51 .. 2^56 have midpoints of at most 18 digits, exact ties
    low = draw(st.floats(1e-4, 1e17, exclude_max=True)
               | st.integers(2 ** 51, 2 ** 56 - 1).map(float))
    with localcontext() as ctx:
        ctx.prec = 60
        mid = (Decimal(low) + Decimal(float(np.nextafter(low, np.inf)))) / 2
    return sign + decimal_text(mid, draw(st.sampled_from((0, 0, -1, 1))))


def chunk_text(rows) -> str:
    """Records of the cells in ``rows`` on a 900 s grid, as a chunk's text."""
    return "".join(f"{(CSV_EPOCH + timedelta(seconds=900 * r)).isoformat()},{','.join(row)}\n"
                   for r, row in enumerate(rows))


def fixed_cells(rows):
    """What ``_fixed_cells`` reads from records of the cells in ``rows``."""
    text = chunk_text(rows)
    b = np.frombuffer(text.encode(), np.uint8)
    commas = np.flatnonzero(b == ord(",")).reshape(len(rows), -1)
    return thermodiag.seriescsv._fixed_cells(text, b, commas, np.flatnonzero(b == ord("\n")))


def fits_int64(cell: str) -> bool:
    """Whether the digits of a fixed-notation cell fit the int64 read: at
    most 18, or a whole part 0 and a fraction below 10^18."""
    whole, frac = cell.lstrip("-").split(".")
    return len(whole + frac) <= 18 or whole == "0" and int(frac) < 10 ** 18


#: A weather file of 43 days, 4128 records: more than one chunk of the fast
#: read, whose chunks hold READ_BLOCK // 8 records of a weather file.
WEATHER_43_DAYS = synthetic_weather(days=43)


class TestSeriesReaders:
    """numpy's reader behind ``_read_series`` against the csv loop alone."""

    @settings(max_examples=100, deadline=None)
    @given(drawn=series_files())
    def test_same_as_csv_loop(self, tmp_path_factory, drawn):
        names, lines, cells_only, rows = drawn
        path = tmp_path_factory.mktemp("s") / "series.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        path = str(path)
        got = read_with(thermodiag.seriescsv.read_series, path)
        assert got == read_with(thermodiag.seriescsv._read_series_csv, path)
        if not isinstance(got, str):
            return
        bad = first_bad_cell(names, rows)
        if cells_only and bad and not any(LONG_CELL in row for row in rows):
            assert got.endswith("record %d: bad value for %s: %r" % bad)
        # through the command line: exit 2, naming the file and the fault
        if names == list(thermodiag.cli.INPUT_CHANNELS):
            argv = ["simulate", "--building", f"{DATA}/example_cell.building",
                    "--weather", path, "--out", str(tmp_path_factory.mktemp("o"))]
        else:
            argv = ["stats", "--building", f"{DATA}/example_cell.building",
                    "--weather", f"{DATA}/example_weather.csv", "--measurements", path]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue() == f"error: {got}\n"
        assert got.startswith(f"{path}: ")


    @settings(max_examples=300, deadline=None)
    @given(cols=st.integers(1, 4), cells=st.lists(fixed_notation(), min_size=1, max_size=24))
    @example(cols=4, cells=["-0.0", "0.0", "-000.000", "9007199254740993.0"])
    @example(cols=2, cells=["4503599627370496.5", "0.000100000000000000005"])
    @example(cols=2, cells=["0.50000000000000000000", "-0.9999999999999999999"])
    def test_fixed_cells_read_as_float_reads_them(self, cols, cells):
        # the int64 read takes a chunk exactly when every cell's digits fit,
        # and the chunk reads as float() reads it either way
        for cell in cells:
            whole, frac = cell.lstrip("-").split(".")
            assert whole.isdigit() and frac.isdigit()
        rows = [cells[i:i + cols] for i in range(0, len(cells), cols)]
        rows[-1] += ["1.0"] * (cols - len(rows[-1]))
        expected = np.array([[float(c) for c in row] for row in rows]).tobytes()
        values = fixed_cells(rows)
        if all(map(fits_int64, cells)):
            assert values.tobytes() == expected
        else:
            assert values is None
        chunk = thermodiag.seriescsv._read_chunk(chunk_text(rows), cols, thermodiag.seriescsv._Grid())
        assert chunk.tobytes() == expected

    @pytest.mark.parametrize("cell", ["1.5e3", "+1.5", " 1.5", "1_0.5", "1.", ".5", "15",
                                      "1.2.3", "-", "1234567890123456789.0",
                                      "0.12345678901234567890123", "0.50000000000000000000",
                                      "0.9999999999999999999", "-0.0009999999999999999999"])
    def test_other_cells_leave_the_fixed_read(self, monkeypatch, cell):
        # refused before numpy reads any int64: numpy 1.24 reads a cell past
        # int64's range as a float cast to int64 instead of raising
        int_reads = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: (
            int_reads.append(kw.get("dtype")), loadtxt(*args, **kw))[1])
        assert fixed_cells([["20.5", cell, "-3.25"]]) is None
        assert int_reads == []

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("fault", ["grid", "cell", "exponent"])
    def test_fault_at_a_chunk_edge_read_as_csv_loop(self, tmp_path, monkeypatch, fault, offset):
        # the last records of the first chunk and the first of the second:
        # the grid broken by a second, a bad cell, or a value in exponent
        # notation, which np.loadtxt reads for its chunk alone
        weather = WEATHER_43_DAYS
        text = weather_csv(weather)
        # the first chunk holds the whole records of the first read
        body = text.split("\n", 1)[1]
        record = body[:thermodiag.seriescsv.READ_BLOCK].count("\n") + offset
        assert weather.n_records > record + 1
        if fault == "grid":  # every record from this one a second late
            for late in range(record, weather.n_records + 1):
                stamp = CSV_EPOCH + timedelta(seconds=weather.dt * (late - 1) + 1)
                text = edit_record(text, late, 0, stamp.isoformat())
        elif fault == "cell":
            text = edit_record(text, record, 3, "warm")
        else:
            text = edit_record(text, record, 1, "%.16e" % weather.values[record - 1, 0])
        path = write_tmp(tmp_path, "w.csv", text)
        expected = read_with(thermodiag.seriescsv._read_series_csv, path)
        calls = []
        reference = thermodiag.seriescsv._read_series_csv
        monkeypatch.setattr(thermodiag.seriescsv, "_read_series_csv",
                            lambda *args: calls.append(args) or reference(*args))
        assert read_with(thermodiag.seriescsv.read_series, path) == expected
        if fault == "exponent":
            assert not calls
            assert expected[5] == weather.values.tobytes()
        else:
            assert len(calls) == 1
            assert expected.endswith(f"record {record}: " + (
                "bad value for I_N: 'warm'" if fault == "cell" else
                "non-uniform sampling (901.0 s after 900.0 s steps)"))

    @pytest.mark.parametrize("fault", [None, "cell"])
    @pytest.mark.parametrize("cut", ["in a CRLF", "after a CR", "in a record"])
    def test_line_end_at_a_chunk_edge_read_as_csv_loop(self, tmp_path, monkeypatch,
                                                       csv_loop_calls, cut, fault):
        # the first read ends between the \r and \n of record 60's line end,
        # right after its lone \r, or inside record 61, which holds the bad
        # cell if there is one; the second chunk starts with record 60 in
        # the first two cases (a \r last in a read may be half of a \r\n)
        weather = synthetic_weather(days=2)
        text = weather_csv(weather)
        if fault:
            text = edit_record(text, 61, 3, "warm")
        end = {"in a CRLF": "\r\n", "after a CR": "\r", "in a record": "\n"}[cut]
        lines = text.split("\n")[:-1]
        text = "".join(line + end for line in lines)
        body = text[len(lines[0] + end):]
        first = sum(len(line + end) for line in lines[1:61])
        first += {"in a CRLF": -1, "after a CR": 0, "in a record": 30}[cut]
        if cut == "in a record":
            assert "\n" not in body[first - 1:first + 1]
        else:
            assert body[first - 1:first + 1] == ("\r\n" if cut == "in a CRLF" else "\r2")
        path = tmp_path / "w.csv"
        path.write_bytes(text.encode())
        path = str(path)
        expected = read_with(thermodiag.seriescsv._read_series_csv, path)
        csv_loop_calls.clear()
        monkeypatch.setattr(thermodiag.seriescsv, "READ_BLOCK", first)
        assert read_with(thermodiag.seriescsv.read_series, path) == expected
        if fault:
            assert csv_loop_calls == [path]
            assert expected.endswith("record 61: bad value for I_N: 'warm'")
        else:
            assert csv_loop_calls == []
            assert expected[5] == weather.values.tobytes()

    @pytest.fixture
    def csv_loop_calls(self, monkeypatch):
        calls = []
        reference = thermodiag.seriescsv._read_series_csv

        def counted(path, check_header):
            calls.append(path)
            return reference(path, check_header)

        monkeypatch.setattr(thermodiag.seriescsv, "_read_series_csv", counted)
        return calls

    def test_fast_path_reads_clean_files(self, tmp_path, monkeypatch):
        month = write_tmp(tmp_path, "month.csv", weather_csv(synthetic_weather(days=30)))
        files = [(parse_weather, f"{DATA}/example_weather.csv"),
                 (parse_measurements, f"{DATA}/example_measurements.csv"),
                 (parse_weather, month)]
        expected = [read_with(thermodiag.seriescsv._read_series_csv, path) for _, path in files]

        def refuse(path, check_header):
            raise AssertionError(f"the csv loop read {path}")

        monkeypatch.setattr(thermodiag.seriescsv, "_read_series_csv", refuse)
        for (parse, path), (start, step, names, shape, _, data) in zip(files, expected):
            series = parse(path)
            assert (series.start, series.dt) == (start, step)
            values = (series.values if parse is parse_weather else np.column_stack(
                [series.node_series(int(name[5:])) for name in names]))
            assert values.shape == shape and values.tobytes() == data

    def test_quoted_and_underscored_cells_read_by_csv_loop(self, tmp_path, csv_loop_calls):
        weather = synthetic_weather(days=1)
        text = edit_record(weather_csv(weather), 3, 2, '"%r"' % float(weather.values[2, 1]))
        text = edit_record(text, 5, 4, "1_0")
        path = write_tmp(tmp_path, "odd.csv", text)
        expected = weather.values.copy()
        expected[4, 3] = 10.0
        assert parse_weather(path).values.tobytes() == expected.tobytes()
        assert csv_loop_calls == [path]

    @pytest.mark.parametrize("seconds, message", [
        ((0, 0), "record 2: timestamps must increase monotonically"),
        ((900, 0), "record 2: timestamps must increase monotonically"),
        ((0, 900, 2700), "record 3: non-uniform sampling (1800.0 s after 900.0 s steps)"),
    ])
    def test_grid_faults_reported_by_csv_loop(self, tmp_path, csv_loop_calls, seconds,
                                              message):
        path = write_tmp(tmp_path, "grid.csv", "timestamp,node_1\n" + "".join(
            f"{(CSV_EPOCH + timedelta(seconds=s)).isoformat()},1.0\n" for s in seconds))
        with pytest.raises(ParseError) as exc:
            parse_measurements(path)
        assert str(exc.value) == f"{path}: {message}"
        assert csv_loop_calls == [path]

    @pytest.mark.parametrize("stamps, fast", [
        (("2000-02-28T23:45:00", "2000-02-29 00:00:00", "2000-02-29T00:15:00"), True),
        (("2000-02-28T00:00:00", "2000-02-29T00:00:00", "2000-03-01T00:00:00"), True),
        (("2100-02-28T00:00:00", "2100-03-01T00:00:00", "2100-03-02T00:00:00"), True),
        (("1999-12-31T23:30:00", "2000-01-01T00:30:00", "2000-01-01T01:30:00"), True),
        (("0001-01-01T00:00:00", "0001-01-01T00:00:01", "0001-01-01T00:00:02"), True),
        (("9999-12-31T23:59:57", "9999-12-31T23:59:58", "9999-12-31T23:59:59"), True),
        (("2100-02-29T00:00:00", "2100-02-29T00:15:00"), False),
        (("1900-02-28T00:00:00", "1900-03-01T00:00:00", "1900-03-02T00:00:00"), True),
        (("2000-04-31T00:00:00", "2000-04-31T00:15:00"), False),
        (("0000-12-31T23:30:00", "0000-12-31T23:45:00"), False),
        (("2000-13-01T00:00:00", "2000-13-01T00:15:00"), False),
        (("2000-00-01T00:00:00", "2000-00-01T00:15:00"), False),
        (("2000-03-00T00:00:00", "2000-03-00T00:15:00"), False),
        (("2000-03-01T24:00:00", "2000-03-01T24:15:00"), False),
        (("2000-03-01T00:60:00", "2000-03-01T01:60:00"), False),
        (("2000-03-01T00:00:60", "2000-03-01T00:01:60"), False),
        (("2000-03-01t00:00:00", "2000-03-01t00:15:00", "2000-03-01t00:30:00"), False),
        (("2000-03-01T00:00:00", "2000-03-01T00:00:00", "2000-03-01T00:00:00"), False),
    ])
    def test_calendar_stamps_read_as_csv_loop(self, tmp_path, csv_loop_calls, stamps, fast):
        # calendar and clock edges of the stamps; the fast read takes only
        # valid ones on a uniform grid and hands the rest to the csv loop,
        # each invalid field here on a grid that would be uniform
        path = write_tmp(tmp_path, "c.csv", "timestamp,node_1\n" + "".join(
            f"{stamp},1.5\n" for stamp in stamps))
        expected = read_with(thermodiag.seriescsv._read_series_csv, path)
        csv_loop_calls.clear()
        assert read_with(thermodiag.seriescsv.read_series, path) == expected
        assert csv_loop_calls == ([] if fast else [path])

    def test_whitespace_only_line_is_a_record(self, tmp_path, csv_loop_calls):
        lines = weather_csv(synthetic_weather(days=1)).split("\n")
        lines.insert(7, " \t")
        path = write_tmp(tmp_path, "ws.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="ws.csv: record 7: expected 8 fields$"):
            parse_weather(path)
        assert csv_loop_calls == [path]


class TestNotUtf8:
    # each file kind with a command that reads it; None marks the bad file
    @pytest.mark.parametrize("source, argv", [
        ("example_cell.building", ["simulate", "--building", None,
                                   "--weather", f"{DATA}/example_weather.csv"]),
        ("example_cases.txt", ["verify", "--cases", None]),
        ("example_weather.csv", ["simulate", "--building", f"{DATA}/example_cell.building",
                                 "--weather", None]),
        ("example_measurements.csv", ["stats", "--building", f"{DATA}/example_cell.building",
                                      "--weather", f"{DATA}/example_weather.csv",
                                      "--measurements", None]),
    ])
    def test_file_and_byte_named(self, tmp_path, capsys, source, argv):
        data = (Path(DATA) / source).read_bytes()
        mid = data.index(b"\n", len(data) * 2 // 3) + 1  # a line well past the header
        path = tmp_path / f"bad_{source}"
        path.write_bytes(data[:mid] + b"\xff" + data[mid:])
        argv = [str(path) if arg is None else arg for arg in argv]
        if argv[0] != "stats":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8: byte 0xff: invalid start byte\n"


class TestCasesGrammar:
    def test_shipped_file_equals_defaults(self):
        assert parse_cases(f"{DATA}/example_cases.txt") == default_cases()

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_tmp(tmp_path, "bad.txt",
                         "[case x]\nkind = paint_colour\nbase = 1\n"
                         "perturbed = 2\n")
        with pytest.raises((ParseError, ValueError)):
            parse_cases(path)


def repr_rows(values):
    """The reference CSV rows: the row index, then one Python repr per value."""
    return "".join(f"{k}," + ",".join(map(repr, row)) + "\n"
                   for k, row in enumerate(np.asarray(values).tolist()))


def first_mismatch(got, expected):
    """The first (written, repr) pair of cells that differ."""
    for row, (g, e) in enumerate(zip(got.splitlines(), expected.splitlines())):
        if g != e:
            return row, next((a, b) for a, b in zip(g.split(","), e.split(",")) if a != b)
    return "rows differ in number"


def sweep_values():
    """A fixed sweep of over 10^6 floats through every branch of the CSV
    float formatter: 15, 16 and 17 digits, fixed and exponent notation and
    each kind of cell that falls back to repr."""
    rng = np.random.default_rng(16)
    n = 150_000
    sign = rng.choice([-1.0, 1.0], n)
    powers = np.array([float(f"1e{k}") for k in range(-5, 17)] + [2.0 ** 52, 2.0 ** 53])
    below, above = [powers], [powers]
    for _ in range(64):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    subnormals = rng.integers(1, 2 ** 52, 1000, dtype=np.int64).view(np.float64)
    # m 2^(e-17), m odd, in [10^e, 10^(e+1)): halfway between two 17-digit
    # decimals
    ties = [np.ldexp(rng.integers(int(10.0 ** e * 2.0 ** (17 - e)),
                                  int(10.0 ** (e + 1) * 2.0 ** (17 - e)), 200) | 1, e - 17)
            for e in range(-4, 15)]
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e+308, np.nan, np.inf, -np.inf]
    return np.concatenate([
        rng.normal(20.0, 15.0, n),                                    # temperatures
        rng.uniform(-1e6, 1e6, n),                                    # wide uniform
        sign * 10.0 ** rng.uniform(-5.0, 16.0, n),                    # log-uniform
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),  # bit patterns
        rng.integers(-10 ** 7, 10 ** 7, n) / 10.0 ** rng.integers(0, 8, n),   # short decimals
        # mantissas whose 16-digit candidates reach 2^53
        sign * rng.uniform(9.007199254740993, 9.999, n) * 10.0 ** rng.integers(-4, 15, n),
        sign * rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-4, 15, n),  # every decade
        *below, *above[1:], -powers, subnormals, -subnormals, *ties, special])


class TestCsvBlocks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=40))
    @example(list(EDGE_FLOATS))
    def test_every_finite_float_is_its_repr(self, values):
        values = np.array(values)[:, None]
        got = b"".join(csv_blocks("x", row_numbers, values))
        assert got == ("x\n" + repr_rows(values)).encode()

    def test_sweep_is_repr(self):
        values = sweep_values()
        assert values.size >= 10 ** 6
        values = np.concatenate([values, np.zeros(-values.size % 25)]).reshape(-1, 25)
        got = b"".join(csv_blocks("x", row_numbers, values)).decode("ascii")
        expected = "x\n" + repr_rows(values)
        same = got == expected  # pytest would diff two 30 MB strings
        assert same, first_mismatch(got, expected)

    @pytest.mark.parametrize("block", [None, 500])
    def test_wide_rows_written_within_the_cell_budget(self, monkeypatch, block):
        # a block holds WRITE_BLOCK // columns rows, or one row when a row
        # alone is over the budget
        if block is not None:
            monkeypatch.setattr(thermodiag.seriescsv, "WRITE_BLOCK", block)
        values = np.random.default_rng(3).normal(20.0, 5.0, (9, 1000))
        blocks = list(csv_blocks("x", row_numbers, values))
        rows = [b.count(b"\n") for b in blocks[1:]]
        per_block = max(1, thermodiag.seriescsv.WRITE_BLOCK // 1000)
        assert rows == [per_block] * (9 // per_block) + [9 % per_block] * (9 % per_block > 0)
        same = b"".join(blocks) == ("x\n" + repr_rows(values)).encode()
        assert same


class TestCsvRowsMemory:
    @pytest.mark.parametrize("rows, columns", [(256, 16), (4096, 1), (1, 4096)])
    def test_block_peak_is_a_few_slots_per_cell(self, rows, columns):
        # a block's cells, their digit groups and the squeezed text, but no
        # per-byte index array: one would take another 8 bytes per byte kept
        values = np.random.default_rng(7).normal(20.0, 5.0, (rows, columns))
        labels = [str(k) for k in range(rows)]
        expected = csv_rows(labels, values)
        tracemalloc.start()
        try:
            text = csv_rows(labels, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == expected
        assert peak <= 5 * rows * columns * SLOT


class TestSeriesTextMemory:
    @pytest.mark.parametrize("kind", ["weather", "measurements"])
    def test_peak_is_the_text_and_one_block(self, kind):
        # a year of 15-minute weather, and 480 records of 23 nodes: the
        # string is built block by block, never held twice; the year's text
        # is longer than a block's allowance, so a second copy would show
        if kind == "weather":
            series, write = synthetic_weather(days=365), weather_csv
        else:
            rng = np.random.default_rng(5)
            series, write = MeasurementSeries(dt=900.0, series={
                node: rng.normal(20.0, 5.0, 480) for node in range(1, 24)}), measurements_csv
        expected = write(series)
        tracemalloc.start()
        try:
            text = write(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == expected
        assert kind != "weather" or len(text) > 5 * WRITE_BLOCK * SLOT
        assert peak <= len(text) + 5 * WRITE_BLOCK * SLOT


class TestMainSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate",
                   "--building", f"{DATA}/example_cell.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(out)])
        assert rc == 0
        text = (out / "trajectory.csv").read_text()
        header = text.split("\n", 1)[0]
        assert header.startswith("step,node_1,")
        assert header.endswith("node_23")
        assert len(text.strip().split("\n")) == 1 + 480

    def test_leaves_no_configparser_garbage(self, tmp_path):
        # the building file's parser and its section proxies refer to each
        # other; a call must leave them to reference counting, not to the
        # cyclic collector
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--building", f"{DATA}/example_cell.building",
                             "--weather", f"{DATA}/example_weather.csv",
                             "--out", str(tmp_path)]) == 0
            gc.collect()
            # a parser, a section proxy or a converter map, or a method of one
            left = [type(getattr(obj, "__self__", obj)).__name__ for obj in gc.garbage
                    if type(getattr(obj, "__self__", obj)).__module__ == configparser.__name__]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []

    @pytest.mark.parametrize("block,days,last", [
        pytest.param(None, 43, 34, id="None-43"),
        pytest.param(100, 5, 4, id="100-5"),
        pytest.param(170, 5, 4, id="170-5"),
    ])
    def test_trajectory_is_per_value_repr(self, tmp_path, monkeypatch, block, days, last):
        # written in blocks of WRITE_BLOCK // 23 rows, the 23 node columns'
        # cells within the budget: 178 rows by default, 4 and 7 rows for 100
        # and 170 cells; every block is full but the last, of ``last`` rows,
        # a partial one after 23 full blocks of the 43-day horizon, a full
        # one for 100 cells, and the file is still one float repr per value
        if block is not None:
            monkeypatch.setattr(thermodiag.seriescsv, "WRITE_BLOCK", block)
        weather = synthetic_weather(days=days)
        weather_text = weather_csv(weather)
        desc = example_cell()
        model = build_mesh(desc)
        rows = thermodiag.seriescsv.WRITE_BLOCK // model.n_nodes
        blocks = []
        csv_rows = thermodiag.seriescsv.csv_rows
        monkeypatch.setattr(thermodiag.seriescsv, "csv_rows", lambda labels, values: (
            blocks.append(len(labels)), csv_rows(labels, values))[1])
        wpath = write_tmp(tmp_path, "w.csv", weather_text)
        rc = main(["simulate", "--building", f"{DATA}/example_cell.building",
                   "--weather", wpath, "--out", str(tmp_path / "sim")])
        assert rc == 0
        assert len(blocks) > 1
        assert blocks == [rows] * (len(blocks) - 1) + [last]
        assert sum(blocks) == weather.n_records
        [values] = simulate(assemble(model, desc), weather)
        lines = ["step," + ",".join(f"node_{n.node_id}" for n in model.nodes)]
        for k in range(values.shape[1]):
            lines.append(f"{k}," + ",".join(repr(float(v)) for v in values[:, k]))
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "sim" / "trajectory.csv").read_bytes() == expected

    @pytest.mark.parametrize("record,column,cell,message", [
        (96, 4, "warm", "record 96: bad value for I_S: 'warm'"),
        (50, 7, None, "record 50: expected 8 fields"),
        (7, 0, "2000-13-01T00:00:00", "record 7: bad timestamp '2000-13-01T00:00:00'"),
        (9, 0, "2000-03-01T02:00:00+00:00", "record 9: bad timestamp"),
    ])
    def test_bad_weather_record_named(self, tmp_path, capsys, record, column, cell,
                                      message):
        text = edit_record(weather_csv(synthetic_weather(days=1)), record, column, cell)
        wpath = write_tmp(tmp_path, "bad.csv", text)
        rc = main(["simulate", "--building", f"{DATA}/example_cell.building",
                   "--weather", wpath, "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert wpath in err
        assert message in err

    @pytest.mark.parametrize("line,section,field", [
        ("area = nan", "[component wall_east]", "area"),
        ("h_ci = inf", "[component wall_east]", "h_ci"),
        ("h_re = nan", "[component wall_east]", "h_re"),
        ("absorptivity = nan", "[component wall_east]", "absorptivity"),
        ("layers = 0.15 inf 2200.0 900.0", "[component wall_east]", "conductivity"),
        ("air_capacity = inf", "[zone]", "air_capacity"),
        ("ventilation_flow = nan", "[zone]", "ventilation_flow"),
        ("glazing_transmitted_fraction = nan", "[zone]", "glazing_transmitted_fraction"),
    ])
    def test_non_finite_building_field_exits_2(self, tmp_path, capsys, building_text,
                                               line, section, field):
        # nan <= 0.0 is False, so a plain sign check lets nan through
        key = line.split(" = ")[0]
        text = re.sub(rf"(?m)^{key} = .*$", line, building_text, count=1)
        bpath = write_tmp(tmp_path, "nonfinite.building", text)
        rc = main(["simulate", "--building", bpath,
                   "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert bpath in err
        assert section in err
        assert field in err

    @pytest.mark.parametrize("lines,section,message", [
        # the stack's total resistance underflows to 0
        (["layers = 0.15 1e308 2200.0 900.0"], "[component wall_east]: ",
         "total resistance of 0.0 K/W"),
        (["area = 1e308"], "[component wall_east]: ", "total capacity of inf J/K"),
        (["h_ci = 1e308"], "[component wall_east]: ", "h_ci * area is not finite"),
        # each h * area is finite, their sum at the inside surface is not
        (["h_ci = 1e307", "h_ri = 1e307"], "[component wall_east]: ",
         "the conductances at its inside-surface node sum to inf W/K"),
        (["air_specific_heat = 1e308", "ventilation_flow = 10.0"], "[zone]: ",
         "air_specific_heat * ventilation_flow is not finite"),
        # the air node sums the ventilation and every component's h_ci * area,
        # so no one section holds the fault
        (["air_specific_heat = 1.7e308", "ventilation_flow = 1.0", "h_ci = 1e307"], "",
         "the conductances at the air node sum to inf W/K"),
    ])
    def test_finite_fields_of_an_overflowing_network_exit_2(self, tmp_path, capsys,
                                                             building_text, lines, section,
                                                             message):
        text = building_text
        for line in lines:
            key = line.split(" = ")[0]
            text = re.sub(rf"(?m)^{key} = .*$", line, text, count=1)
        bpath = write_tmp(tmp_path, "overflow.building", text)
        rc = main(["simulate", "--building", bpath,
                   "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bpath}: {section}")
        assert message in err

    def test_capacity_over_dt_overflow_exits_2(self, tmp_path, capsys, building_text):
        # C/dt = 1e308 is finite, but C/dt T_prev is not: marched, every step
        # overflows, warns and fails the residual check (exit 3)
        text = re.sub(r"(?m)^air_capacity = .*$", "air_capacity = 1e305", building_text)
        bpath = write_tmp(tmp_path, "heavy.building", text)
        weather = WeatherSeries(dt=0.001, values=synthetic_weather(days=1).values[:8])
        wpath = write_tmp(tmp_path, "w.csv", weather_csv(weather))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--building", bpath, "--weather", wpath,
                       "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: node 23: capacity 1e+305 J/K over dt = 0.001 s")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("cut,nodes", [
        pytest.param(None, range(1, 24), id="every-boundary"),
        pytest.param("door", (15, 16), id="door-cut-loose"),
    ])
    def test_building_without_a_boundary_exits_2(self, tmp_path, capsys, building_text,
                                                 cut, nodes):
        # no outside convection, no sky radiation and no ventilation, so the
        # cell links to no boundary temperature; or the door also without
        # inside films, so it links to nothing else: neither has a steady
        # state to start from
        if cut is None:
            text = re.sub(r"(?m)^(h_ce|h_re) = .*$", r"\1 = 0.0", building_text)
            text = re.sub(r"(?m)^ventilation_flow = .*$", "ventilation_flow = 0.0", text)
        else:
            head, door = building_text.split(f"[component {cut}]\n")
            door, tail = door.split("\n\n", 1)
            door = re.sub(r"(?m)^(h_c[ie]|h_r[ie]) = .*$", r"\1 = 0.0", door)
            text = f"{head}[component {cut}]\n{door}\n\n{tail}"
        bpath = write_tmp(tmp_path, "unanchored.building", text)
        rc = main(["simulate", "--building", bpath, "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "sim")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: set 0 of the batch: nodes {', '.join(map(str, nodes))} "
                              f"reach no boundary temperature and no forced node")
        assert not (tmp_path / "sim").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["simulate",
                   "--building", "no_such_file.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "no_such_file" in capsys.readouterr().err


class TestMainDiagnose:
    def run(self, tmp_path, name, *extra):
        out = tmp_path / name
        rc = main(["diagnose",
                   "--building", f"{DATA}/example_cell_door_defect.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--measurements", f"{DATA}/example_measurements.csv",
                   "--seed", "7", "--generations", "60",
                   "--out", str(out), *extra])
        return rc, out

    def test_finds_door_and_writes_reports(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, "diag", "--exhaustive")
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "door inside-surface" in report
        for name in ("report.kv", "ga_history.csv", "air_comparison.csv"):
            assert (out / name).exists()
        kv = (out / "report.kv").read_text()
        node = re.search(r"(?m)^best_forcing_set = (.*)$", kv).group(1)
        assert "16" in node.split()
        assert "16" in re.search(
            r"(?m)^oracle_best_set = (.*)$", kv).group(1).split()

    def test_forcing_the_door_removes_the_disagreement(self, tmp_path, capsys):
        # each set starts from its own forced steady state, so forcing the
        # defective door's inside surface leaves J at round-off
        rc, out = self.run(tmp_path, "diag")
        assert rc == 0
        kv = dict(line.split(" = ", 1)
                  for line in (out / "report.kv").read_text().splitlines())
        assert float(kv["J_node_16"]) < 1e-20
        assert kv["J_unforced"] == repr(5.049689436655917)

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        _, a = self.run(tmp_path, "a")
        _, b = self.run(tmp_path, "b")
        for name in ("report.txt", "report.kv", "ga_history.csv",
                     "air_comparison.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_air_column_exits_2(self, tmp_path, capsys):
        text = Path(f"{DATA}/example_measurements.csv").read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        cols = [c.split(",") for c in lines]
        drop = cols[0].index("node_23")
        stripped = "\n".join(
            ",".join(c for i, c in enumerate(row) if i != drop)
            for row in cols) + "\n"
        meas = write_tmp(tmp_path, "noair.csv", stripped)
        out = tmp_path / "d"
        rc = main(["diagnose",
                   "--building", f"{DATA}/example_cell.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--measurements", meas, "--out", str(out)])
        assert rc == 2
        assert "node_23" in capsys.readouterr().err

    def test_shifted_measurements_exit_2(self, tmp_path, capsys):
        meas = parse_measurements(f"{DATA}/example_measurements.csv")
        shifted = write_tmp(tmp_path, "shifted.csv", measurements_csv(
            meas, start=CSV_EPOCH + timedelta(days=1)))
        inputs = ["--building", f"{DATA}/example_cell.building",
                  "--weather", f"{DATA}/example_weather.csv", "--measurements", shifted]
        for argv in (["diagnose", *inputs, "--out", str(tmp_path / "d")],
                     ["stats", *inputs]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "2000-03-01T00:00:00" in err
            assert "2000-03-02T00:00:00" in err

    @pytest.mark.parametrize("record,column,cell,message", [
        (480, 3, "n/a", "record 480: bad value for node_16: 'n/a'"),
        (1, 2, None, "record 1: expected 7 fields"),
        (2, 0, "yesterday", "record 2: bad timestamp 'yesterday'"),
    ])
    def test_bad_measurement_record_named(self, tmp_path, capsys, record, column,
                                          cell, message):
        text = Path(f"{DATA}/example_measurements.csv").read_text(encoding="utf-8")
        mpath = write_tmp(tmp_path, "bad.csv", edit_record(text, record, column, cell))
        rc = main(["stats", "--building", f"{DATA}/example_cell.building",
                   "--weather", f"{DATA}/example_weather.csv", "--measurements", mpath])
        assert rc == 2
        err = capsys.readouterr().err
        assert mpath in err
        assert message in err

    @pytest.mark.parametrize("column", ["node_0", "node_30"])
    def test_column_outside_mesh_exits_2(self, tmp_path, capsys, column):
        # node 3 is a measured inside surface; renamed, it names no mesh node
        text = Path(f"{DATA}/example_measurements.csv").read_text(encoding="utf-8")
        mpath = write_tmp(tmp_path, "outside.csv", text.replace("node_3,", f"{column},", 1))
        inputs = ["--building", f"{DATA}/example_cell.building",
                  "--weather", f"{DATA}/example_weather.csv", "--measurements", mpath]
        for argv in (["diagnose", *inputs, "--out", str(tmp_path / "d")],
                     ["stats", *inputs]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert mpath in err
            assert column in err

    def test_singular_building_exits_3(self, tmp_path, capsys, building_text):
        # radiant node loses every link when h_ri vanishes
        bad = building_text.replace("h_ri = 5.0", "h_ri = 0.0")
        bpath = write_tmp(tmp_path, "sing.building", bad)
        out = tmp_path / "s"
        rc = main(["diagnose",
                   "--building", bpath,
                   "--weather", f"{DATA}/example_weather.csv",
                   "--measurements", f"{DATA}/example_measurements.csv",
                   "--seed", "7", "--generations", "5",
                   "--out", str(out)])
        assert rc == 3
        assert "singular" in capsys.readouterr().err.lower()


@pytest.fixture
def marches(monkeypatch):
    """Every march a command starts, by the module that starts it: verify's
    reference, the diagnoses' batches and the runs of ``simulate`` and
    ``stats``."""
    calls = []

    def counted(module):
        def wrapper(*args, **kwargs):
            calls.append(module.__name__)
            return simulate(*args, **kwargs)
        return wrapper

    for module in (thermodiag.verify, thermodiag.cli, thermodiag.diagnose):
        monkeypatch.setattr(module, "simulate", counted(module))
    return calls


class TestMainVerify:
    def test_default_protocol_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--seed", "11", "--out", str(out)])
        assert rc == 0
        text = (out / "verify_report.txt").read_text()
        assert "4/4 cases passed" in text
        assert (out / "verify_report.kv").exists()

    def test_reference_marched_once(self, tmp_path, capsys, marches):
        main(["verify", "--generations", "5", "--noise-sd", "0.05",
              "--out", str(tmp_path / "v")])
        assert marches.count("thermodiag.verify") == 1

    def test_corrupt_cases_file_exits_2(self, tmp_path, capsys):
        bad = write_tmp(tmp_path, "bad_cases.txt", "kind = nonsense\n")
        rc = main(["verify", "--cases", bad, "--out", str(tmp_path / "v")])
        assert rc == 2

    @pytest.mark.parametrize("case,base,message", [
        ("door_conductivity", "0.78", "component door: layers and area give a total "
                                      "resistance of 0.0 K/W"),
        ("interior_convection", "0.1", "h_ci * area is not finite"),
    ])
    def test_case_whose_network_overflows_exits_2(self, tmp_path, capsys, marches,
                                                  case, base, message):
        text = Path(f"{DATA}/example_cases.txt").read_text(encoding="utf-8")
        cases = write_tmp(tmp_path, "overflow.txt", text.replace(
            f"perturbed = {base}\n", "perturbed = 1e308\n"))
        assert main(["verify", "--cases", cases, "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cases}: [case {case}]: ")
        assert message in err
        assert marches == []

    def test_case_named_control_exits_2(self, tmp_path, capsys, marches):
        cases = write_tmp(tmp_path, "control.txt",
                          "[case control]\nkind = absorptivity\ncomponent = roof\n"
                          "base = 0.3\nperturbed = 0.9\n")
        out = tmp_path / "v"
        assert main(["verify", "--cases", cases, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cases}: [case control]: case id 'control' is reserved for the "
            "control run\n")
        assert marches == []
        assert not out.exists()

    @pytest.mark.parametrize("count", [0, 1])
    def test_floor_without_two_ground_nodes(self, tmp_path, capsys, building_text, count):
        # the bundled sensors need two ground nodes; without them verify
        # measures the inside surfaces, as for any other custom building
        assert building_text.count("internal_nodes = 2") == 1  # the floor's
        text = building_text.replace("internal_nodes = 2", f"internal_nodes = {count}")
        building = write_tmp(tmp_path, "floor.building", text)
        rc = main(["verify", "--building", building, "--generations", "3", "--dt", "3600",
                   "--out", str(tmp_path / "v")])
        assert rc in (0, 4)
        assert "cases passed" in capsys.readouterr().out

    def test_unknown_component_exits_2(self, tmp_path, capsys):
        cases = write_tmp(tmp_path, "chimney.txt",
                          "[case smoke]\nkind = absorptivity\ncomponent = chimney\n"
                          "base = 0.3\nperturbed = 0.9\n")
        rc = main(["verify", "--cases", cases, "--out", str(tmp_path / "v")])
        assert rc == 2
        err = capsys.readouterr().err
        assert cases in err
        assert "[case smoke]" in err
        assert "chimney" in err


class TestVerifyRejectsUpFront:
    """Bad cases and flags exit 2 before anything is marched or written."""

    @pytest.mark.parametrize("case, field", [
        ("kind = layer_conductivity\ncomponent = door\nbase = 0.5\nperturbed = 0.78\n",
         "expected base 0.5"),
        ("kind = layer_conductivity\ncomponent = door\nlayer = 5\nbase = 0.23\n"
         "perturbed = 0.78\n", "no layer 5"),
        ("kind = absorptivity\ncomponent = chimney\nbase = 0.3\nperturbed = 0.9\n",
         "no component 'chimney'"),
        ("kind = h_ci\nbase = 0.1\nperturbed = 0.1\n", "base equals perturbed"),
    ])
    def test_bad_fourth_case(self, tmp_path, capsys, marches, case, field):
        text = Path(f"{DATA}/example_cases.txt").read_text() + "\n[case d]\n" + case
        cases = write_tmp(tmp_path, "cases.txt", text)
        out = tmp_path / "v"
        rc = main(["verify", "--cases", cases, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cases}: [case d]: ")
        assert err.count("case d") == 1
        assert field in err
        assert marches == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--dt", "0"], "--dt"),
        (["--dt", "-5"], "--dt"),
        (["--dt", "nan"], "--dt"),
        (["--dt", "900", "--weather", f"{DATA}/example_weather.csv"], "--dt"),
        (["--noise-sd", "-0.2"], "--noise-sd"),
        (["--noise-sd", "inf"], "--noise-sd"),
        # 432,000,000 records of weather, one, and noise past the largest double
        (["--dt", "0.001"], "--dt 0.001 gives 4.32e+08 records"),
        (["--dt", "300000"], "--dt 300000.0 gives 1.44 records"),
        (["--noise-sd", "1e308"], "--noise-sd 1e+308 makes the noisy pseudo-measurements"),
    ])
    def test_bad_flag_named(self, tmp_path, capsys, marches, flags, named):
        out = tmp_path / "v"
        rc = main(["verify", *flags, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert marches == []
        assert not out.exists()

    @pytest.mark.parametrize("dt, records", [(1.0, 432_000), (216_000.0, 2), (288_000.0, 2)])
    def test_dt_records_at_the_bounds(self, monkeypatch, dt, records):
        # one record a second and two records are taken; the weather is the
        # first thing built past the check
        class Built(Exception):
            pass

        def built(**kwargs):
            raise Built(round(kwargs["days"] * 86400.0 / kwargs["dt"]))

        monkeypatch.setattr(thermodiag.cli, "synthetic_weather", built)
        with pytest.raises(Built) as exc:
            main(["verify", "--dt", repr(dt)])
        assert exc.value.args == (records,)
        assert thermodiag.cli.MAX_SYNTHETIC_RECORDS == 432_000

    def test_dt_sets_synthetic_step(self, tmp_path, capsys, monkeypatch):
        steps = []

        def recorded(**kwargs):
            steps.append(kwargs["dt"])
            return synthetic_weather(**kwargs)

        monkeypatch.setattr(thermodiag.cli, "synthetic_weather", recorded)
        for flags in ([], ["--dt", "1800"]):
            main(["verify", *flags, "--generations", "3", "--out", str(tmp_path)])
        assert steps == [900.0, 1800.0]

    @pytest.mark.parametrize("command", ["simulate", "diagnose", "stats"])
    def test_dt_only_on_verify(self, capsys, command):
        inputs = ["--building", f"{DATA}/example_cell.building",
                  "--weather", f"{DATA}/example_weather.csv"]
        if command != "simulate":
            inputs += ["--measurements", f"{DATA}/example_measurements.csv"]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--dt", "900"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt 900" in capsys.readouterr().err


MEASURED_INPUTS = ["--building", f"{DATA}/example_cell_door_defect.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--measurements", f"{DATA}/example_measurements.csv"]


def command_argv(command, tmp_path):
    """A short run of ``command`` on 480-record inputs."""
    if command == "verify":
        return ["verify", "--generations", "3", "--out", str(tmp_path / "o")]
    if command == "diagnose":
        return ["diagnose", *MEASURED_INPUTS, "--generations", "3",
                "--out", str(tmp_path / "o")]
    return ["stats", *MEASURED_INPUTS]


class TestFlagsCheckedBeforeMarch:
    """A bad --skip-steps or GA flag exits 2 naming the flag, marching nothing."""

    @pytest.mark.parametrize("command", ["diagnose", "stats", "verify"])
    @pytest.mark.parametrize("skip", ["-5", "479", "1000"])
    def test_skip_steps_named(self, tmp_path, capsys, marches, command, skip):
        rc = main([*command_argv(command, tmp_path), "--skip-steps", skip])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--skip-steps" in err and "480 records" in err and skip in err
        assert "skip_steps" not in err
        assert marches == []
        assert not (tmp_path / "o").exists()

    def test_exhaustive_over_the_node_cap_named(self, tmp_path, capsys, marches):
        # every node but the air node measured: 22, two over the oracle's cap
        desc = parse_building(f"{DATA}/example_cell_door_defect.building")
        weather = parse_weather(f"{DATA}/example_weather.csv")
        [values] = simulate(assemble(build_mesh(desc), desc), weather)
        meas = MeasurementSeries(dt=weather.dt, series=dict(enumerate(values, 1)))
        mpath = write_tmp(tmp_path, "dense.csv", measurements_csv(meas, weather.start))
        rc = main(["diagnose", "--building", f"{DATA}/example_cell_door_defect.building",
                   "--weather", f"{DATA}/example_weather.csv", "--measurements", mpath,
                   "--exhaustive", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --exhaustive: ")
        assert mpath in err and "22 nodes" in err and "20" in err
        assert marches == []
        assert not (tmp_path / "o").exists()

    def test_skip_steps_may_leave_two_samples(self, capsys):
        assert main(["stats", *MEASURED_INPUTS, "--skip-steps", "478"]) == 0
        assert "n_samples = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["diagnose", "verify"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--pc", "2", "crossover_probability"),
        ("--pm", "-0.1", "mutation_probability"),
        ("--pop-size", "31", "population_size"),
        # one (population/2 x (4 + 2L)) draw block a generation: capped
        ("--pop-size", "10002", "population_size"),
        ("--pop-size", "1000000000", "population_size"),
        ("--generations", "0", "max_generations"),
        ("--seed", "-1", "rng_seed"),
    ])
    def test_ga_flag_named(self, tmp_path, capsys, marches, command, flag, value, field):
        rc = main([*command_argv(command, tmp_path), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert field not in err
        assert marches == []
        assert not (tmp_path / "o").exists()


class TestObjectiveOverflow:
    """A J past the largest double exits 2 naming the overflow and its source."""

    @pytest.fixture
    def huge_air(self, tmp_path):
        meas = parse_measurements(f"{DATA}/example_measurements.csv")
        series = dict(meas.series)
        series[23] = np.full(meas.n_samples, 1e160)  # the air node
        return write_tmp(tmp_path, "huge.csv", measurements_csv(
            MeasurementSeries(dt=meas.dt, start=meas.start, series=series), meas.start))

    @pytest.mark.parametrize("command", ["diagnose", "diagnose --exhaustive", "stats"])
    def test_measurement_file_named(self, tmp_path, capsys, huge_air, command):
        argv = [*command.split(), "--building", f"{DATA}/example_cell_door_defect.building",
                "--weather", f"{DATA}/example_weather.csv", "--measurements", huge_air]
        if command != "stats":
            argv += ["--generations", "3", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {huge_air}: J, the sum of squared air residuals, overflows a double\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["diagnose", "stats", "verify --noise-sd 0.1"])
    def test_weather_file_named(self, tmp_path, capsys, command):
        # the simulated air series reaches about 8e198 °C, whose own squares
        # overflow, while the measured air series' squares sum to about 3e5
        # and the noise is small
        with open(f"{DATA}/example_weather.csv", encoding="utf-8") as fh:
            huge = write_tmp(tmp_path, "huge.csv", edit_record(fh.read(), 5, 1, "1e200"))
        argv = [*command.split(), "--building", f"{DATA}/example_cell.building",
                "--weather", huge]
        if command != "stats":
            argv += ["--generations", "3", "--out", str(tmp_path / "o")]
        if not command.startswith("verify"):
            argv += ["--measurements", f"{DATA}/example_measurements.csv"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {huge}: J, the sum of squared air residuals, overflows a double\n"
        assert not (tmp_path / "o").exists()

    def test_noise_sd_named(self, tmp_path, capsys):
        rc = main(["verify", "--noise-sd", "1e200", "--generations", "3",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --noise-sd 1e+200: J, the sum of squared air residuals, overflows a double\n")
        assert not (tmp_path / "o").exists()


class TestMeasurementColumnDigits:
    """A measurement column's node id is decimal digits, of any script, but
    not superscripts, which str.isdigit takes and int() refuses."""

    @staticmethod
    def argv(command, tmp_path, column):
        """``command`` on the bundled measurements with node_3 renamed."""
        text = Path(f"{DATA}/example_measurements.csv").read_text(encoding="utf-8")
        path = write_tmp(tmp_path, "m.csv", text.replace("node_3,", f"{column},", 1))
        argv = command_argv(command, tmp_path)
        argv[argv.index(f"{DATA}/example_measurements.csv")] = path
        return path, argv

    @pytest.mark.parametrize("command", ["stats", "diagnose"])
    def test_superscript_id_exits_2_naming_file_and_column(self, tmp_path, capsys, command):
        path, argv = self.argv(command, tmp_path, "node_\u00b2")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: column 'node_\u00b2' must be named node_<id>\n")

    @pytest.mark.parametrize("command", ["stats", "diagnose"])
    def test_arabic_indic_id_reads_as_its_node(self, tmp_path, capsys, command):
        _, argv = self.argv(command, tmp_path, "node_\u0663")
        assert main(argv) == 0
        renamed = capsys.readouterr().out
        assert main(command_argv(command, tmp_path / "plain")) == 0
        assert renamed == capsys.readouterr().out


class TestMainStats:
    def test_self_comparison_reports_zero(self, tmp_path, capsys):
        rc = main(["stats",
                   "--building", f"{DATA}/example_cell.building",
                   "--weather", f"{DATA}/example_weather.csv",
                   "--measurements", f"{DATA}/example_measurements.csv"])
        assert rc == 0
        text = capsys.readouterr().out
        assert re.search(r"(?m)^J = 0\.0$", text)
        assert re.search(r"(?m)^residual_mean = 0\.0$", text)
        assert re.search(r"(?m)^n_samples = 480$", text)

    def test_unforced_J_equals_the_diagnosis_unforced_J(self, tmp_path, capsys):
        # stats marches the model without the measurement series, the
        # diagnosis through its evaluator with them: one J all the same
        inputs = ["--building", f"{DATA}/example_cell_door_defect.building",
                  "--weather", f"{DATA}/example_weather.csv",
                  "--measurements", f"{DATA}/example_measurements.csv"]
        assert main(["stats", *inputs]) == 0
        J = re.search(r"(?m)^J = (.*)$", capsys.readouterr().out).group(1)
        out = tmp_path / "diag"
        assert main(["diagnose", *inputs, "--seed", "7", "--generations", "1",
                     "--out", str(out)]) == 0
        kv = (out / "report.kv").read_text()
        assert float(J) > 0.0
        for key in ("unforced_J", "J_unforced"):
            assert re.search(rf"(?m)^{key} = (.*)$", kv).group(1) == J


class TestBundledData:
    @pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
    def test_demo_runs(self, tmp_path, demo):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_make_inputs_rebuilds_data_byte_for_byte(self, tmp_path):
        # data/ is generated by the package; a kernel change that moves the
        # pseudo-measurements must come with regenerated files
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, str(ROOT / "demos" / "make_inputs.py")],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        rebuilt = sorted((tmp_path / "data").iterdir())
        assert [p.name for p in rebuilt] == [
            "example_cell.building", "example_cell_door_defect.building",
            "example_measurements.csv", "example_weather.csv"]
        stale = [p.name for p in rebuilt
                 if p.read_bytes() != (ROOT / "data" / p.name).read_bytes()]
        assert not stale, f"data/ is stale; run python3 demos/make_inputs.py: {stale}"
