"""CSV rows of floats in Python's ``repr``, formatted as whole numpy arrays.

:func:`csv_rows` writes every value as the string ``repr`` gives it: the
shortest decimal that reads back to the same float, and of those the one
closest to it.  It builds the strings with numpy operations over all cells
at once and calls ``repr`` only for the few cells listed below.

The fast path takes zero and the finite ``|x|`` in [1e-4, 1e15), which
``repr`` writes in fixed notation.  The decimal exponent e of ``|x|`` is
read off a table of the doubles nearest to each power of ten, so it is the
exponent of ``repr``'s digits.  The digits are those at the first of 15, 16
or 17 significant digits where some decimal reads back:

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
not have 17 digits falls back as well.

Each cell is one 40-byte slot: the sign, the "0.000" prefix of a number
below 1, then 17 (digit, point) byte pairs; the point slot after digit e
holds the point, the last one the separator.  The pairs come from a table
of the 10^4 groups of four digits, one uint64 each.  The groups after the
last non-zero digit come from a second half of the table that leaves out
trailing zeros, and a frame table puts back the zeros up to one past the
point ("20.0").  Every byte not written is a null, and one
``bytes.translate`` per block deletes the nulls without indexing the bytes.

``repr`` itself formats nan, inf, the non-zero ``|x|`` below 1e-4 or from
1e15 up (all of its exponent notation), 16-digit cells with several
candidates or with rint + 1 >= 2^53, and 17-digit ties: about 0.04 % of the
cells of a year's trajectory.

:func:`decimal_floats` goes the other way, for the series reader: the
doubles ``float()`` reads from decimals of at most 18 digits, given as
int64 digits and a count of them after the point, with the same exact
products.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csv_rows", "decimal_floats"]

#: Bytes per cell: sign, "0.000" prefix, 17 (digit, point) pairs.
SLOT = 40

#: The doubles nearest to 1e-4 .. 1e15; e = their count at or below |x|, - 5.
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 16)])
#: 10^0 .. 10^22, every one an exact double.
_POW10 = np.array([float(10 ** k) for k in range(23)])
#: Veltkamp's splitting constant for doubles, 2^27 + 1.
_SPLIT = 134217729.0
#: Candidates at or above this cannot be tested by an exact division.
_EXACT = 2.0 ** 53


def _split(x):
    """Split doubles into high and low halves of 26 bits each, x = hi + lo."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)
#: Within this share of a gap between doubles of a rounding tie, the
#: correction of a 17- or 18-digit decimal is too close to call.
_TIE = 2.0 ** -30

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


def _slots(x):
    """One SLOT-byte row per value of ``x``, nulls padding the unused bytes,
    ending in a comma."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    zero = a == 0.0
    # the other cells are formatted as 1.0 and overwritten below
    a = np.where(fast, a, 1.0)
    e = np.searchsorted(_DECADES, a, side="right") - 5
    digits = _digits17(a, e)
    digits[zero] = 0
    fallback = np.flatnonzero(~(zero | (fast & (digits >= np.int64(10 ** 16))
                                        & (digits < np.int64(10 ** 17)))))
    digits[fallback] = 0

    # five groups: the leading digit, then four of four digits; a group
    # drops its trailing zeros when every later group is zero
    groups = np.empty((x.size, 5), np.int64)
    high, low = np.divmod(digits, np.int64(10 ** 8))
    np.divmod(high, _GROUP, out=(groups[:, 1], groups[:, 2]))
    np.divmod(groups[:, 1], _GROUP, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, _GROUP, out=(groups[:, 3], groups[:, 4]))
    trailing = np.ones(x.size, bool)
    for j in (4, 3, 2, 1):
        zeros = groups[:, j] == 0
        groups[:, j] += _GROUP * trailing
        trailing &= zeros
    groups[:, 0] += np.int64(2) * _GROUP

    words = _PAIRS[groups]
    words |= _FRAME[2 * (e + 4) + np.signbit(x)]
    cells = words.view(np.uint8)
    if fallback.size:
        text = np.array([repr(v) for v in x[fallback].tolist()], dtype="S")
        width = text.dtype.itemsize
        cells[fallback, :width] = text.view(np.uint8).reshape(fallback.size, width)
        cells[fallback, width:SLOT - 1] = 0
    return cells


def csv_rows(labels: list[str], values: np.ndarray) -> str:
    """CSV rows ``labels[k],repr(values[k, 0]),...`` each ending in a newline.

    ``values`` is a 2-D float array with at least one column and one row per
    label; labels are ASCII without nulls.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, n = values.shape
    cells = _slots(values.ravel()).reshape(rows, n, SLOT)
    cells[:, -1, SLOT - 1] = ord("\n")
    text = np.array(labels, dtype="S")
    text = text.view(np.uint8).reshape(rows, text.dtype.itemsize)
    out = np.concatenate([text, np.full((rows, 1), ord(","), np.uint8),
                          cells.reshape(rows, n * SLOT)], axis=1).ravel()
    return out.tobytes().translate(None, b"\0").decode("ascii")


def decimal_floats(n, s):
    """The doubles ``float()`` reads from the decimals n / 10^s, for int64
    0 <= n < 10^18 and 0 <= s <= 22.  NaN marks the rare value within 2^-30
    of a gap between doubles of a rounding tie, which the caller reads with
    ``float()`` itself.

    n <= 2^53: n and 10^s are exact doubles, so n / 10^s rounds correctly
    in one division (Clinger's fast path).  Otherwise n = nh + nl, nh the
    double nearest n and nl exact; q = fl(nh / 10^s) leaves the remainder
    nh - q 10^s, exact by Dekker's product, and n / 10^s = q + c with
    c = (remainder + nl) / 10^s, which is below a gap between doubles and
    carries errors of a few 2^-53 of it, so fl(q + c) is correctly rounded
    unless q + c lies within them of a tie."""
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
