"""The series CSV format: a header ``timestamp,<name>,...``, then one record
per line, a ``YYYY-MM-DD?HH:MM:SS`` stamp (``?`` is ``T`` or a space) on a
uniform time grid and one float per column.

:func:`read_series` reads the text after the header READ_BLOCK characters
at a time, through the file's UTF-8 text layer, and cuts each read after its
last line end; a chunk is the whole lines of a read with the part line the
read before it left over, and a ``\\r`` last in a read waits for the next,
as it may be the first half of a ``\\r\\n``.  numpy checks a chunk's line
layout, casts its stamps to ``datetime64`` and checks the grid.  A chunk of
plain fixed-notation cells, ``-?\\d+\\.\\d+``, whose digits N fit int64 (at
most 18, or a whole part 0 and up to 22 after the point, all zeros but the
last 18) is read as int64 digits, and :func:`decimal_floats` rounds
N / 10^s, s the digits after the point, as ``float()`` does.  N <= 2^53 and
10^s are exact doubles, so one division rounds correctly (Clinger's fast
path).  Otherwise N = nh + nl, nh the double nearest N; q = fl(nh / 10^s)
leaves the remainder nh - q 10^s, exact by Dekker's product, and
N / 10^s = q + (remainder + nl) / 10^s, a correction below a gap between
doubles with errors of a few 2^-53 of it.  The sum rounds correctly unless
it lies within 2^-30 of a gap of a tie; ``float()`` reads such a cell
itself.  Any other chunk is read by ``np.loadtxt``, which converts a cell as
``float()`` does (both call ``PyOS_string_to_double``) or raises.

The csv loop, ``csv.reader`` rows and ``float()``, is the reference.  A file
the chunked read cannot vouch for (a quote, a stamp off the layout or the
grid, a cell numpy does not take) goes to it whole, and it alone reports
faults, naming the record and column of the first.  So both reads give every
file the same values bit for bit, or the same message.  It also takes what
only ``float()`` reads (``1_0``, non-ASCII digits, quoted cells).

:func:`csv_blocks` writes a series in blocks of at most WRITE_BLOCK cells.
:func:`csv_rows` writes every value as the string ``repr`` gives it, the
shortest decimal that reads back to the same float and of those the closest,
with numpy operations over all cells at once.  The fast path takes zero and
the finite ``|x|`` in [1e-4, 1e15), which ``repr`` writes in fixed notation.
The decimal exponent e of ``|x|`` is counted against the doubles nearest to
each power of ten, so it is the exponent of ``repr``'s digits:
``np.frexp`` gives the binary exponent b, |x| in [2^(b-1), 2^b), a table
gives the e of 2^(b-1), and one compare with the one such double in the
binade, if any, adds 1.  The digits are those at the first of 15, 16 or 17
significant digits where some decimal reads back:

* 15: N = rint(|x| 10^s), s = 14 - e.  A decimal N / 10^s reads back iff
  ``N / 10**s == |x|``: N < 2^53 and 10^s <= 10^20 are exact doubles and the
  division rounds correctly, as ``float()`` does.  At most one 15-digit
  decimal reads back, within 0.11 of |x| 10^s, and the product is off by at
  most 1/16, so rint finds it.
* 16: rint - 1, rint and rint + 1 hold every decimal that can read back.
  Exactly one does: it is the digits.  Several do (``repr`` takes the
  closest), or rint + 1 >= 2^53 (the test is no longer exact): the cell
  falls back.
* 17: the decimal closest to |x| always reads back.  |x| 10^s = t + err
  exactly (Dekker's product; t is an even integer >= 2^53), so the digits
  are t + rint(err).  An err a half from an integer, a tie, falls back.

The digits are padded with zeros to 17, and a cell whose padded digits do
not have 17 digits falls back as well.  Each cell is one 40-byte slot: the
sign, the "0.000" prefix of a number below 1, then 17 (digit, point) byte
pairs; the point slot after digit e holds the point, the last one the
separator.  The pairs come from a table of the 10^4 groups of four digits,
one uint64 each, gathered by ``np.take`` from a (5, cells) array that holds
each group's values contiguously.  The groups after the last non-zero digit
come from a second half of the table that leaves out trailing zeros, and a
frame table puts back the zeros up to one past the point ("20.0").

A block's rows are built in one zeroed buffer: each row is its label
(:func:`row_numbers`, numpy's cast of the row numbers to bytes, or
:func:`iso_stamps`), nulls up to a whole number of 8-byte words with the
comma last, then the row's slots, written in place, the last separator a
newline.  Every byte not written is a null, and one ``bytes.translate`` per
block deletes the nulls.  Blocks are bytes: :func:`csv_blocks` yields them
to a binary file, so no text is decoded and encoded again, and
:func:`csv_text` makes the one string of a series file that a caller wants
as text.

``repr`` itself formats nan, inf, the non-zero ``|x|`` below 1e-4 or from
1e15 up (all of its exponent notation), 16-digit cells with several
candidates or with rint + 1 >= 2^53, and 17-digit ties: about 0.04 % of the
cells of a year's trajectory.
"""

from __future__ import annotations

import csv
from array import array
from datetime import datetime, timedelta

import numpy as np

__all__ = ["ParseError", "read_series", "csv_blocks", "csv_text", "iso_stamps", "row_numbers"]


class ParseError(Exception):
    """Input file rejected; the message names file, section/line and field."""


def _file_fault(path: str, exc: OSError | UnicodeDecodeError) -> ParseError:
    """A fault reading the file, named with it.  A decode fault names the bad
    byte but no line: the text layer decodes ahead of the reader in chunks,
    so the reader's line count is not the bad line."""
    if isinstance(exc, UnicodeDecodeError):
        return ParseError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x}: {exc.reason}")
    return ParseError(f"{path}: {exc.strerror or exc}")


#: 10^0 .. 10^22, every one an exact double.
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLIT = 134217729.0


def _split(x):
    """Split doubles into high and low halves of 26 bits each, x = hi + lo."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)
#: Within this share of a gap between doubles of a rounding tie, the
#: correction of a 17- or 18-digit decimal is too close to call.
_TIE = 2.0 ** -30


# ---------------------------------------------------------------------------
# reading

class _HandOver(Exception):
    """The fast series read cannot take this file; the csv loop reads it."""


#: Characters per read of a fast series read: about 2300 lines of a weather
#: file.  A chunk is the whole lines of a read and the part line before it,
#: and the read holds one chunk's text and arrays at a time.
READ_BLOCK = 2 ** 18

#: Where a ``YYYY-MM-DD?HH:MM:SS`` stamp has its digits, and its dashes and
#: colons; ``?`` is ``T`` or a space.
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_MARKS = [4, 7, 13, 16]
_STAMP_MARK_BYTES = np.frombuffer(b"--::", np.uint8)


class _Grid:
    """The time grid of the records read so far: the first stamp, the last
    record's time and the step, in whole seconds, and the record count."""

    def __init__(self):
        self.first, self.last, self.step, self.n = None, 0, None, 0


def _read_header(path: str, reader, check_header) -> tuple[int, list]:
    """The header's field count and the names ``check_header`` returns for its
    cells after ``timestamp``."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    if [h.strip() for h in header[:1]] != ["timestamp"]:
        raise ParseError(f"{path}: first column must be 'timestamp'")
    return len(header), check_header([h.strip() for h in header[1:]])


def read_series(path: str, check_header):
    """Read a series CSV into its first timestamp, its step in seconds, the
    column names ``check_header`` returns for the header cells after
    ``timestamp``, and the (n_records, n_columns) values; or raise a
    ParseError naming the file and the first fault.  The chunked read hands
    any file it cannot take to the csv loop, :func:`_read_series_csv`."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            width, names = _read_header(path, csv.reader(fh), check_header)
            if width < 2:
                raise _HandOver
            grid, buf, tail = _Grid(), array("d"), ""
            while text := fh.read(READ_BLOCK):
                # whole lines only; a last \r may be the first half of \r\n
                text = tail + text
                cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
                text, tail = text[:cut], text[cut:]
                if text:
                    buf.frombytes(_read_chunk(text, width - 1, grid).view(np.uint8))
            if tail:
                buf.frombytes(_read_chunk(tail, width - 1, grid).view(np.uint8))
    except (_HandOver, ParseError, csv.Error, OSError, ValueError):
        # the reference reads the file again, outside this handler so that its
        # error chains no context, and reports the first fault if there is one
        buf = None
    if buf is None or grid.n < 2:
        return _read_series_csv(path, check_header)
    return (datetime.fromisoformat(grid.first), float(grid.step), names,
            np.frombuffer(buf).reshape(grid.n, -1))


def _read_chunk(text: str, k: int, grid: _Grid) -> np.ndarray:
    """The (records, k) values of ``text``, whole lines of a series file, as
    ``float()`` reads them; their stamps are checked on ``grid``.

    Every ``\\r`` ends a line, as in the file's newline mode, and the blank
    lines csv skips are dropped.  Raise :class:`_HandOver` where csv could
    split a line otherwise (a quote, a field over its size limit), where a
    record does not have a stamp and ``k`` value cells, or where a stamp
    leaves the grid; a cell ``np.loadtxt`` refuses raises ValueError."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    if text.startswith("\n") or "\n\n" in text:
        text = "".join(line + "\n" for line in text.split("\n") if line)
        if not text:
            return np.empty((0, k))
    if '"' in text:
        raise _HandOver
    b = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(b == ord(","))
    # k commas to a line: the first ends the line's 19-byte stamp, the last
    # comes before the line's end
    if commas.size != ends.size * k:
        raise _HandOver
    commas = commas.reshape(-1, k)
    if (np.any(commas[:, 0] != starts + 19) or np.any(commas[:, -1] > ends)
            or np.max(ends - starts) >= csv.field_size_limit()):
        raise _HandOver
    _check_grid(b[starts[:, None] + np.arange(19)], grid)
    if grid.first is None:
        grid.first = text[:19]
    values = _fixed_cells(text, b, commas, ends)
    if values is None:
        values = np.loadtxt(text.split("\n")[:-1], delimiter=",", comments=None,
                            usecols=range(1, k + 1), ndmin=2)
    return values


def _check_grid(stamps: np.ndarray, grid: _Grid) -> None:
    """Check stamps, (records, 19) bytes, for dates and times ``fromisoformat``
    takes, on the grid of the records read before them, and carry the grid
    on; raise :class:`_HandOver` at the first that fails."""
    separator = stamps[:, 10]
    if (np.any(stamps[:, _STAMP_DIGITS] - np.uint8(ord("0")) > 9)
            or np.any(stamps[:, _STAMP_MARKS] != _STAMP_MARK_BYTES)
            or not np.all((separator == ord("T")) | (separator == ord(" ")))
            # numpy takes the year 0000, fromisoformat does not
            or np.any(np.all(stamps[:, :4] == ord("0"), axis=1))):
        raise _HandOver
    try:
        seconds = stamps.view("S19").ravel().astype("datetime64[s]").view(np.int64)
    except ValueError:  # a month, day or time of day out of range
        raise _HandOver from None
    gaps = np.diff(seconds, prepend=grid.last) if grid.n else np.diff(seconds)
    if gaps.size:
        grid.step = grid.step or int(gaps[0])
        if grid.step <= 0 or np.any(gaps != grid.step):
            raise _HandOver
    grid.last = int(seconds[-1])
    grid.n += seconds.size


def _fixed_cells(text: str, b: np.ndarray, commas: np.ndarray, ends: np.ndarray):
    """The values of a chunk, ``text`` and its bytes ``b``, when every cell is
    a plain fixed-notation decimal whose digits fit int64, read as the
    module docstring says; else None."""
    after = np.concatenate((commas[:, 1:], ends[:, None]), axis=1)
    negative = b[commas + 1] == ord("-")
    points = np.flatnonzero(b == ord("."))
    if points.size != commas.size:
        return None
    points = points.reshape(commas.shape)
    before = points - commas - 1 - negative
    scale = after - points - 1
    # one point to a cell with a digit on each side; the '-' and digit counts
    # then leave no other byte in a cell, the stamps holding 2 dashes and 14
    # digits each
    lines = len(ends)
    if (np.any(before < 1) or np.any(scale < 1)
            or np.count_nonzero(b == ord("-")) != 2 * lines + np.count_nonzero(negative)
            or np.count_nonzero(b - np.uint8(ord("0")) < 10)
            != 14 * lines + before.sum() + scale.sum()):
        return None
    zero_whole = (before == 1) & (b[points - 1] == ord("0"))
    if np.any((before + scale > 18) & ~(zero_whole & (scale <= 22))):
        return None
    # a 0. cell of over 18 digits after the point must lead with zeros up to
    # its last 18, so that they fit int64: numpy 1.24, the oldest supported,
    # reads an int64 cell past its range as a float and casts it, with only a
    # DeprecationWarning, where numpy 2 raises
    long = np.flatnonzero(scale > 18)
    first = points.ravel()[long, None] + 1
    lead = first + np.arange(4)
    if np.any((b[lead] != ord("0")) & (lead < first + scale.ravel()[long, None] - 18)):
        return None
    parts = np.loadtxt(text.replace(".", ",").split("\n")[:-1], dtype=np.int64,
                       delimiter=",", comments=None,
                       usecols=range(1, 2 * commas.shape[1] + 1), ndmin=2)
    n = np.abs(parts[:, ::2])
    n *= _POW10[np.minimum(scale, 18)].astype(np.int64)
    n += parts[:, 1::2]
    del parts
    if np.any((n < 0) | (n >= 10 ** 18)):  # cannot be, after the checks above
        return None
    values = decimal_floats(n, scale)
    for i in np.flatnonzero(np.isnan(values)):
        values.flat[i] = float(b[points.flat[i] - before.flat[i]:after.flat[i]].tobytes())
    return np.negative(values, out=values, where=negative)


def decimal_floats(n, s):
    """The doubles ``float()`` reads from the decimals n / 10^s, for int64
    0 <= n < 10^18 and 0 <= s <= 22, rounded as the module docstring says.
    NaN marks the rare value within 2^-30 of a gap between doubles of a
    rounding tie, which the caller reads with ``float()`` itself."""
    p = _POW10[s]
    x = n.astype(np.float64)
    x /= p
    big = n > np.int64(2 ** 53)
    if big.any():
        # in place where it can be: a chunk of a series file is the input
        n, p, s = n[big], p[big], s[big]
        hi = n.astype(np.float64)
        n -= hi.astype(np.int64)
        q = hi / p
        t = q * p
        q_hi, q_lo = _split(q)
        p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
        # Dekker's error of t, ((q_hi p_hi - t) + q_hi p_lo + q_lo p_hi) + q_lo p_lo
        err = q_hi * p_hi
        err -= t
        q_hi *= p_lo
        err += q_hi
        p_hi *= q_lo
        err += p_hi
        q_lo *= p_lo
        err += q_lo
        # c = (hi - t - err + lo) / 10^s, in hi
        hi -= t
        hi -= err
        hi += n
        hi /= p
        y = q + hi
        # the offset of q + c from y, against half the gap to each
        # neighbour; y > 0, so they are the next bit patterns either way
        q -= y
        q += hi
        bits = y.view(np.int64)
        up = (bits + 1).view(np.float64) - y
        down = y - (bits - 1).view(np.float64)
        tie = np.abs(q - up / 2) < _TIE * up
        tie |= np.abs(q + down / 2) < _TIE * down
        y[tie] = np.nan
        x[big] = y
    return x


def _read_series_csv(path: str, check_header):
    """The reference series read: :func:`read_series`'s result from
    ``csv.reader`` rows and ``float()``, or a ParseError naming the file and
    the record and column of the first fault."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            width, names = _read_header(path, reader, check_header)
            buf, n, last, step = array("d"), 0, None, None
            for row in filter(None, reader):
                n += 1
                if len(row) != width:
                    raise ParseError(f"{path}: record {n}: expected {width} fields")
                try:
                    stamp = datetime.fromisoformat(row[0].strip())
                    gap = None if n == 1 else stamp - last
                except (ValueError, TypeError) as exc:  # TypeError: naive and aware mixed
                    raise ParseError(
                        f"{path}: record {n}: bad timestamp {row[0]!r}: {exc}") from exc
                if n == 1:
                    start = stamp
                elif n == 2 and gap <= timedelta(0):
                    raise ParseError(f"{path}: record 2: timestamps must increase monotonically")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_fault(path, exc) from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    if n < 2:
        raise ParseError(f"{path}: needs at least 2 records")
    return start, step.total_seconds(), names, np.frombuffer(buf).reshape(n, -1)


# ---------------------------------------------------------------------------
# writing

#: Bytes per cell: sign, "0.000" prefix, 17 (digit, point) pairs.
SLOT = 40

#: The doubles nearest to 1e-4 .. 1e15; e = their count at or below |x|, - 5.
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 16)])
#: Candidates at or above this cannot be tested by an exact division.
_EXACT = 2.0 ** 53


def _binade_decades():
    """The decimal exponent by binary exponent: for each b with |x| in
    [2^(b - 1), 2^b) of [1e-4, 1e15), ``np.frexp``'s exponent (a negative b
    indexes from the end), the e of 2^(b - 1), and the double of _DECADES
    inside the binade, from which on e is one more, or inf where it holds
    none."""
    decades = _DECADES.tolist()
    low = np.zeros(64, np.int64)
    up = np.full(64, np.inf)
    for b in range(-13, 51):
        low[b] = sum(d <= 2.0 ** (b - 1) for d in decades) - 5
        up[b] = next((d for d in decades if 2.0 ** (b - 1) < d < 2.0 ** b), np.inf)
    return low, up


_BINADE_E, _BINADE_UP = _binade_decades()


def _pair_table():
    """Digit groups as packed (digit, point) pairs, one uint64 per group of
    four: [0, 10^4) every digit; [10^4, 2 10^4) the same without trailing
    zeros; [2 10^4, 2 10^4 + 10) a group's leading digit alone, in its last
    pair."""
    table = np.zeros((2 * 10 ** 4 + 10, 8), np.uint8)
    by_digit = table[:2 * 10 ** 4].reshape(2, 10, 10, 10, 10, 8)
    ascii_ = np.arange(48, 58, dtype=np.uint8)
    kept = np.zeros((), bool)  # some digit from here to the group's end is not 0
    for k in (3, 2, 1, 0):
        digit = ascii_.reshape((10,) + (1,) * (3 - k))  # along digit k's axis
        kept = kept | (digit != 48)
        by_digit[0, ..., 2 * k] = digit
        by_digit[1, ..., 2 * k] = np.where(kept, digit, np.uint8(0))
    table[2 * 10 ** 4:, 6] = ascii_
    return table.view(np.uint64).ravel()


def _frame_table():
    """The bytes a cell's digits do not give, by 2 (e + 4) + sign: the sign,
    the prefix below 1, the point, the zero digits up to one past the point
    (which the trailing-zero groups may have left out) and the separator."""
    frame = np.zeros((19, 2, SLOT), np.uint8)
    for e in range(-4, 15):
        row = frame[e + 4, 0]
        if e < 0:
            row[1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
        else:
            row[6:6 + 2 * (e + 2):2] = ord("0")
            row[7 + 2 * e] = ord(".")
        row[SLOT - 1] = ord(",")
    frame[:, 1] = frame[:, 0]
    frame[:, 1, 0] = ord("-")
    return frame.reshape(38, SLOT).view(np.uint64)


_GROUP = np.int64(10 ** 4)
_PAIRS = _pair_table()
_FRAME = _frame_table()


def _digits17(a, e):
    """The shortest round-trip digits of each |x| in ``a``, padded to 17
    digits with zeros, as int64; 0 where the cell must fall back."""
    digits = np.zeros(a.size, np.int64)
    p = _POW10[14 - e]
    n = np.rint(a * p)
    done = n / p == a
    digits[done] = n[done].astype(np.int64) * np.int64(100)

    todo = np.flatnonzero(~done)
    a16 = a[todo]
    p = _POW10[15 - e[todo]]
    n = np.rint(a16 * p)
    below = (n - 1.0) / p == a16
    on = n / p == a16
    above = (n + 1.0) / p == a16
    exact = n + 1.0 < _EXACT
    one = (below | on | above) & ~(on & (below | above)) & exact
    digits[todo[one]] = (n + above - below)[one].astype(np.int64) * np.int64(10)

    todo = todo[~(below | on | above) & exact]
    a17 = a[todo]
    s = 16 - e[todo]
    t = a17 * _POW10[s]
    a_hi, a_lo = _split(a17)
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    err = (((a_hi * p_hi - t) + a_hi * p_lo) + a_lo * p_hi) + a_lo * p_lo
    r = np.rint(err)
    digits[todo] = np.where(np.abs(err - r) == 0.5, np.int64(0),
                            t.astype(np.int64) + r.astype(np.int64))
    return digits


def _divmod(n, d, quotient, remainder):
    """``np.divmod(n, d, out=(quotient, remainder))`` for int64 n >= 0 and
    an int64 scalar d > 0, n and remainder possibly one array; numpy's
    floor_divide by a scalar is faster than its divmod."""
    np.floor_divide(n, d, out=quotient)
    np.subtract(n, quotient * d, out=remainder)


def _write_cells(x, slots):
    """Write each value of ``x`` into its SLOT bytes of ``slots``, a
    (rows, columns, SLOT) uint8 view of zeros holding one cell per value,
    nulls padding the unused bytes and a comma ending each."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    zero = a == 0.0
    # the other cells are formatted as 1.0 and overwritten below
    np.copyto(a, 1.0, where=~fast)
    binade = np.frexp(a)[1]  # int32
    e = _BINADE_E.take(binade)
    e += a >= _BINADE_UP.take(binade)
    digits = _digits17(a, e)
    frame_row = np.int64(2) * (e + np.int64(4)) + np.signbit(x)
    del a, binade, e
    digits[zero] = 0
    fallback = np.flatnonzero(~(zero | (fast & (digits >= np.int64(10 ** 16))
                                        & (digits < np.int64(10 ** 17)))))
    digits[fallback] = 0

    # five groups, each contiguous: the leading digit, then four of four
    # digits; a group drops its trailing zeros when every later group is zero
    groups = np.empty((5, x.size), np.int64)
    high = np.empty(x.size, np.int64)
    _divmod(digits, np.int64(10 ** 8), high, digits)  # digits keeps the low 8
    _divmod(high, _GROUP, groups[1], groups[2])
    _divmod(groups[1], _GROUP, groups[0], groups[1])
    _divmod(digits, _GROUP, groups[3], groups[4])
    del high, digits
    trailing = np.ones(x.size, bool)
    for j in (4, 3, 2, 1):
        zeros = groups[j] == 0
        np.add(groups[j], _GROUP, out=groups[j], where=trailing)
        trailing &= zeros
    groups[0] += np.int64(2) * _GROUP

    words = np.take(_PAIRS, groups.T)
    del groups
    words |= np.take(_FRAME, frame_row, axis=0)
    cells = slots.view(np.uint64)
    cells[...] = words.reshape(cells.shape)
    if fallback.size:
        text = np.array([repr(v) for v in x[fallback].tolist()], dtype="S")
        width = text.dtype.itemsize
        row, column = np.divmod(fallback, np.int64(slots.shape[1]))
        slots[row, column, :width] = text.view(np.uint8).reshape(fallback.size, width)
        slots[row, column, width:SLOT - 1] = 0


def csv_rows(labels, values: np.ndarray) -> bytes:
    """CSV rows ``labels[k],repr(values[k, 0]),...`` each ending in a newline,
    as ASCII bytes.

    ``values`` is a 2-D float array with at least one column and one row per
    label; ``labels`` are ASCII without nulls, as a bytes (``"S"``) array or
    any sequence numpy casts to one.  Each row is built in one buffer: the
    label, nulls up to a whole number of 8-byte words, a comma, then a SLOT
    of each value; one ``bytes.translate`` deletes the nulls.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, n = values.shape
    labels = np.asarray(labels, dtype="S")
    head = labels.dtype.itemsize // 8 * 8 + 8
    buf = np.zeros((rows, head // 8 + n * SLOT // 8), np.uint64).view(np.uint8)
    buf[:, :labels.dtype.itemsize] = labels.view(np.uint8).reshape(rows, labels.dtype.itemsize)
    buf[:, head - 1] = ord(",")
    _write_cells(values.ravel(), buf[:, head:].reshape(rows, n, SLOT))
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


#: Cells formatted per write when a series file is written out: a block is
#: WRITE_BLOCK // columns rows, and at least one.
WRITE_BLOCK = 4096


def csv_blocks(header: str, labels, values: np.ndarray):
    """Yield a CSV as ASCII bytes in blocks of at most WRITE_BLOCK cells (one
    row at least): the header line, then row k is its label, then
    ``values[k]``, every value written as its Python ``repr`` by
    :func:`csv_rows`.  ``labels(k0, k1)`` gives the labels of rows k0 to
    k1 - 1 as a bytes array: :func:`row_numbers` or :func:`iso_stamps`."""
    yield header.encode("ascii") + b"\n"
    rows = max(1, WRITE_BLOCK // values.shape[1])
    for k0 in range(0, values.shape[0], rows):
        block = values[k0:k0 + rows]
        yield csv_rows(labels(k0, k0 + len(block)), block)


def csv_text(header: str, labels, values: np.ndarray) -> str:
    """The CSV of :func:`csv_blocks` as one string.  CPython appends to a
    string that only one name holds in place, so this holds the text and
    one block, where joining the blocks would hold them and their join."""
    text = ""
    for block in csv_blocks(header, labels, values):
        text += block.decode("ascii")
    return text


def row_numbers(k0: int, k1: int) -> np.ndarray:
    """The row labels of a trajectory or plot file, for :func:`csv_blocks`:
    row k's is ``str(k)``, cast by numpy, k1 having as many digits as any."""
    return np.arange(k0, k1, dtype=np.int64).astype(f"S{len(str(k1))}")


def iso_stamps(start: datetime, dt: float):
    """The row labels of a series file from ``start`` in steps of ``dt``
    seconds, for :func:`csv_blocks`: row k's is the ISO stamp of start + k dt."""
    return lambda k0, k1: np.array(
        [(start + timedelta(seconds=k * dt)).isoformat() for k in range(k0, k1)], dtype="S")
