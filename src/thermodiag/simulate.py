"""Implicit time stepping of the zone state equations, with measurement forcing.

The continuous equations ``capacity * dT/dt = exchange * T + input_coupling * U``
are discretised with a backward Euler step:

    M T_next = D T_prev + B U_next,   M = C/dt - A,   D = C/dt

Zero-capacity rows (the mean radiant node) lose their C/dt term and reduce to
the algebraic balance they represent; the step handles differential and
algebraic rows together.  A node with neither capacity nor a link leaves a
zero row of M, and is rejected before anything is marched.

Forcing a node replaces its equation by its measured series, and so cuts
the exchange graph.  The *sub-model* of the rows a caller asks for is the
unforced nodes joined to an unforced asked row by a path of unforced
nodes; no other unforced node reaches them, so the asked rows are the
march of the sub-model C alone, with its forced neighbours F as inputs:

    M_CC T_C,next = C_C/dt T_C,prev + K_C [U_next; T_F,next],   K_C = [B_C | A_CF]

and it starts, unless given T0, from its forced steady state, solving
``S T_C,0 = K_C [U_0; T_F,0]`` with S = -A_CC = M_CC - C_C/dt; a node with
no path to a boundary temperature or a forced node has none, and is named.
M_CC is constant over a run, so it is inverted once and the state term is
folded into one propagator per forcing set:

    T_next = G T_prev + h_next,   G = M_CC^-1 C_C/dt,   h_next = M_CC^-1 W_next

where W is the input term K_C [U; T_F].  The two products are one,
``T_next = [G | M_CC^-1] [T_prev; W_next]``.

A few boolean products over the batch find every set's sub-model.  Its
nodes are marched in id order, padded with identity rows whose state
stays 0 to a width that comes from n alone: ceil(n/2) rows for a
sub-model of at most ceil(n/2) nodes, n rows for a larger one.  A set
whose asked rows are all forced marches nothing.

:func:`simulate`, the one routine that advances the model, marches a stack
of forcing sets together over blocks of BLOCK_STEPS steps, or of
LONG_BLOCK_STEPS over a horizon of at least LONG_BLOCKS of them: the block
length depends on the horizon alone, never on the batch.  The sets are
marched in groups of one width of at most GROUP_SETS n propagator rows
(each width's sets split evenly in batch order, the groups marched one
after the other, in the order of their first set).  Each block is cut
into chunks of CHUNK_STEPS = q steps and marched as a two-level scan of
the linear recurrence:

1. every chunk of the block is marched from a zero state, all chunks side
   by side, one (set, node, chunk) product per step;
2. the chunk ends are chained from the block's start state: G^q times the
   start is added to the first chunk's end, then level k of a
   Hillis-Steele scan adds G^(q 2^k) times the ends 2^k chunks back to
   every later end (the powers are squared once per group, and each
   product is written into the block's right-hand-side buffer, idle until
   the check);
3. every chunk is marched again from its start, side by side, and ends on
   its chained end.

So a block of c = b / q chunks costs each set 2q + ceil(log2 c) + 1 small
products instead of one per step, and a long horizon's longer blocks pay
the fixed cost of a block iteration a quarter as often.  The states, the
inputs, the check and the output are all laid out (set, node, step);
within a block the step axis is split into (offset into the chunk, chunk),
so the chunks of one offset sit side by side with unit stride and each
step of a march is one product over all of them; the inputs, and the
block's measurements, are gathered once in that order, and the input
term is one product of K_C with the block's weather and the series of
every node forced in the group.  Every step's residual ``M_CC T - V``,
V = W + C_C/dt T_prev, is checked against RESIDUAL_RTOL at once, T_prev
being the reported state before it; the scale of a step, and of the
start, is its own right-hand side, forced-neighbour terms included.  The
block arrays are preallocated once for the largest group, and every
block and every group reuse them, so they do not grow with the batch;
each group's step matrices, and its sub-model masks, are its own, and
every group writes its rows of one output array.  The last chunk of the
horizon is padded with the last input record; the padding is marched
and checked but neither judged nor kept.

What is bit-exact: forced asked rows are their measurements (they are
copied from the series, never marched), a set's result is the same alone
or in any batch (every array is stacked per set and each product and
solve runs per set, with shapes that do not depend on the batch), and a
run is repeatable.  What is not: the march differs from a step-by-step
solve, and from another chunk length, by round-off (about 1e-13 degC on
the bundled cell), and so does a row's march from one ask to another:
the sub-model, and so the bits, depend on which rows are asked
(``rows=None`` asks for all of them, and so marches every unforced
node).  The evaluator always asks for the air row alone, so its J and
the air series it holds or marches again agree bit for bit.  A run of
one set is a batch of one, and every caller names the node rows it
reads; only those are kept.

All functions are pure; concurrent calls on distinct inputs are safe.  One
simulation is inherently sequential (each step depends on the previous state).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .model import INPUT_CHANNELS, TEMPERATURE_CHANNELS, StateMatrices

__all__ = [
    "SingularSystemError",
    "WeatherSeries",
    "MeasurementSeries",
    "simulate",
]

#: Relative residual bound for every linear solve.
RESIDUAL_RTOL = 1e-9

#: The input columns of the boundary temperatures.
_TEMPERATURES = [INPUT_CHANNELS.index(ch) for ch in TEMPERATURE_CHANNELS]

#: Time steps marched per block; every temporary of the march is a block
#: long.
BLOCK_STEPS = 128

#: Time steps per block over a horizon of at least LONG_BLOCKS such blocks.
LONG_BLOCK_STEPS = 512
LONG_BLOCKS = 16

#: Time steps per chunk; a block marches its block length // CHUNK_STEPS
#: chunks side by side.
CHUNK_STEPS = 8

#: Sets of n propagator rows marched together, at either block length: the
#: sets of each width are split evenly into groups of at most GROUP_SETS n
#: propagator rows, so the block buffers and the step matrices do not grow
#: with the batch, and a group holds as many sets of ceil(n/2) rows as fit.
GROUP_SETS = 16


class SingularSystemError(Exception):
    """The step system could not be solved to the required residual."""


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly sampled boundary conditions, one row per time step.

    Columns follow :data:`~thermodiag.model.INPUT_CHANNELS`: ambient and sky
    temperatures in °C, then incident shortwave flux per orientation in W/m².
    """

    dt: float           # s
    values: np.ndarray  # (n_records, 7)
    start: datetime | None = None  # first timestamp, when read from a file

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dt <= 0.0:
            raise ValueError("weather dt must be positive")
        if self.values.ndim != 2 or self.values.shape[1] != len(INPUT_CHANNELS):
            raise ValueError(f"weather values must have {len(INPUT_CHANNELS)} columns")
        if self.values.shape[0] < 2:
            raise ValueError("weather series needs at least 2 records")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weather series contains non-finite values")
        flux_cols = [i for i, ch in enumerate(INPUT_CHANNELS) if ch.startswith("I_")]
        if np.any(self.values[:, flux_cols] < 0.0):
            raise ValueError("shortwave fluxes must be >= 0")

    @property
    def n_records(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MeasurementSeries:
    """Measured node temperatures on the simulation time grid."""

    dt: float                       # s
    series: dict[int, np.ndarray]   # node id -> °C values
    start: datetime | None = None   # first timestamp, when read from a file

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("measurement dt must be positive")
        if not self.series:
            raise ValueError("measurement series is empty")
        clean = {}
        lengths = set()
        for node, values in self.series.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"series for node {node} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"series for node {node} contains non-finite values")
            lengths.add(arr.shape[0])
            clean[int(node)] = arr
        if len(lengths) != 1:
            raise ValueError("all measurement series must share one length")
        object.__setattr__(self, "series", clean)

    @property
    def n_samples(self) -> int:
        return next(iter(self.series.values())).shape[0]

    @property
    def node_ids(self) -> frozenset:
        return frozenset(self.series)

    def node_series(self, node_id: int) -> np.ndarray:
        try:
            return self.series[node_id]
        except KeyError:
            raise KeyError(f"no measurement series for node {node_id}") from None


def _check_step_scale(sm: StateMatrices, weather: WeatherSeries, start, series) -> None:
    """Reject a node whose C/dt term overflows before its group is marched.

    A step's right-hand side holds C/dt T_prev, so where C/dt times the
    largest temperature magnitude the march starts from or is driven by (the
    start, the weather's temperatures, the forced measurements) is not
    finite, the march would only produce inf and nan.
    """
    temperatures = weather.values[:, _TEMPERATURES]
    t_max = float(max(np.max(np.abs(start)), np.max(np.abs(temperatures)),
                      np.max(np.abs(series), initial=0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = sm.capacity / weather.dt * t_max
    bad = np.flatnonzero(~np.isfinite(scale))
    if bad.size:
        node = bad[0]
        raise ValueError(
            f"node {node + 1}: capacity {float(sm.capacity[node])!r} J/K over "
            f"dt = {weather.dt!r} s, times the largest temperature magnitude "
            f"{t_max!r} °C, is not finite")


def _check(M, T, V, MT, group, steps, limit):
    """Hold each residual ``M T - V`` (M T into ``MT``, V overwritten) to
    RESIDUAL_RTOL times its column's largest |V| or a normal float, naming
    the first failing set of ``group`` at the first of its ``steps``, the
    columns' steps, that fails; a step from ``limit`` on is not judged."""
    scale = np.maximum(np.max(V, axis=1), -np.min(V, axis=1))
    bound = RESIDUAL_RTOL * np.maximum(scale, np.finfo(float).tiny, out=scale)
    np.matmul(M, T, out=MT)
    V -= MT
    residual = np.max(np.abs(V, out=V), axis=1)
    # a state decayed to subnormals has no relative precision left, and a
    # non-finite one gives a NaN or infinite residual and fails
    failed = ~(residual <= bound) & (steps < limit)
    if failed.any():
        p = np.argmax(failed.any(axis=1))
        at = np.argmin(np.where(failed[p], steps, limit))
        raise SingularSystemError(
            f"{'step' if steps[at] else 'start'} solve of set {group[p]} of the batch failed "
            f"the residual check at step {steps[at]} ({residual[p, at]:.3e} > "
            f"{bound[p, at]:.3e}); the system is singular or severely ill-conditioned")


def _march_chunks(GW, Z, steps):
    """March every chunk of a block ``steps`` steps from its start, the
    chunks side by side: one product per step."""
    n = GW.shape[1]
    for i in range(steps):
        np.matmul(GW, Z[:, :, i], out=Z[:, :n, i + 1])


def _chain(G, ends, out):
    """One product of the chunk-end scan: ``G ends`` per set, into ``out``."""
    return np.matmul(G, ends, out=out)


def _scan_ends(powers, start, ends, buf):
    """Chain a block's chunk ends from its start, in place.

    ``ends`` (set, node, chunk) holds every chunk's march from a zero state
    and is left holding the ends of the march from ``start`` (set, node, 1).
    ``powers`` holds G^q, G^2q, G^4q, ..., at least ceil(log2 c) of them for
    c chunks, and ``buf`` has room for one product of every end.  G^q start
    is folded into chunk 0's end; then level k of a Hillis-Steele scan adds
    G^(q 2^k) times the ends 2^k chunks back to every later end, so a block
    takes ceil(log2 c) + 1 products.
    """
    n_sets, n, c = ends.shape
    ends[:, :, :1] += _chain(powers[0], start, buf[:n_sets * n].reshape(n_sets, n, 1))
    for k in range((c - 1).bit_length()):
        s = 1 << k
        back = buf[:n_sets * n * (c - s)].reshape(n_sets, n, c - s)
        ends[:, :, s:] += _chain(powers[k], ends[:, :, :c - s], back)


def _sub_models(sm, forced, asked, steady=False):
    """The (set, node index) masks of each set's sub-model for the ``asked``
    node indices, and of its forced nodes.

    A set's sub-model is its unforced nodes joined to an unforced asked
    node by a path of unforced nodes in the exchange graph, grown one
    product at a time.  For a ``steady`` start, a set with a node that no
    such path joins to a boundary temperature or a forced node is rejected.
    """
    n = sm.n_nodes
    sizes = np.fromiter(map(len, forced), dtype=np.intp, count=len(forced))
    nodes = np.fromiter((node for f in forced for node in f), dtype=np.intp)
    forced_mask = np.zeros((len(forced), n), dtype=bool)
    forced_mask[np.repeat(np.arange(len(forced)), sizes), nodes - 1] = True
    free = ~forced_mask
    linked = (sm.exchange != 0.0).astype(float)
    # reach[1] (steady only): the nodes joined to a boundary or forced node
    reach = np.zeros((1 + steady, len(forced), n), dtype=bool)
    reach[0][:, asked] = True
    reach[1:] = sm.input_coupling[:, _TEMPERATURES].any(axis=1) | (forced_mask @ linked > 0)
    reach &= free
    count = np.count_nonzero(reach)
    while True:
        reach |= (reach @ linked > 0.0) & free
        count, last = np.count_nonzero(reach), count
        if count == last:
            break
    floating = reach[0] & ~reach[-1]
    if floating.any():
        p = np.argmax(floating.any(axis=1))
        nodes = ", ".join(map(str, np.flatnonzero(floating[p]) + 1))
        raise ValueError(f"set {p} of the batch: nodes {nodes} reach no boundary temperature "
                         f"and no forced node, so their steady state is singular")
    return reach[0], forced_mask


def _plan(sm, forced, asked, steady):
    """The groups to march the sets ``forced`` in, for the ``asked`` node
    indices, and the (set, asked row) pairs whose node is forced.

    A sub-model of at most ceil(n/2) nodes is marched on ceil(n/2) rows, a
    larger one on n rows, and a set whose asked nodes are all forced is
    in no group.  Each group is the batch indices of sets of one width m,
    at most GROUP_SETS n propagator rows, split evenly in batch order, and
    m.  The groups come in the order of their first set.
    """
    n = sm.n_nodes
    reach, forced_mask = _sub_models(sm, forced, asked, steady)
    size = reach.sum(axis=1)
    half = -(-n // 2)
    groups = []
    for sets, m in ((np.flatnonzero((size > 0) & (size <= half)), half),
                    (np.flatnonzero(size > half), n)):
        most = GROUP_SETS * n // m
        if sets.size:
            groups += [(group, m) for group in np.array_split(sets, -(-sets.size // most))]
    groups.sort(key=lambda g: g[0][0])
    return groups, np.nonzero(forced_mask[:, asked])


def simulate(sm: StateMatrices, weather: WeatherSeries, forcings=(frozenset(),),
             meas: MeasurementSeries | None = None,
             T0: np.ndarray | None = None, rows=None) -> np.ndarray:
    """March forcing sets over the whole weather series together, by
    default the one empty set.

    Returns an array of shape ``(len(forcings), len(rows), n_records)``:
    per forcing set, the temperatures of the node ids in ``rows`` (all
    nodes by default, in id order), column 0 being the start: ``T0``, or
    by default each set's forced steady state under the first records.
    Forced rows hold their measurement at every column, including the
    first, so they reproduce the measurement series exactly.  A
    set's result is bit-identical whatever else is in the batch, but a
    row's bits may depend on which rows are asked for: a set is marched
    on the sub-model of its asked rows, so ``rows=None`` marches every
    unforced node, and one row asked alone may differ from the same row
    of a larger ask by round-off.

    The sets are marched in groups of one width of GROUP_SETS n
    propagator rows at most, one group after the other, in the order of
    each group's first set.  When sets fail the residual check, the error
    names the first failing set of the first group that fails (of the
    sets failing in the first block with a failure, the lowest-indexed
    one), by its index in ``forcings``, at that set's first failing step.
    """
    n = sm.n_nodes
    n_steps = weather.n_records
    forced = [sorted(frozenset(f)) for f in forcings]
    n_sets = len(forced)
    measured = sorted({node for nodes in forced for node in nodes})
    for node in measured[:1] + measured[-1:]:
        if not 1 <= node <= n:
            raise ValueError(f"forced node {node} outside 1..{n}")
    if measured:
        if meas is None:
            raise ValueError("forcing requires a measurement series")
        missing = sorted(set(measured) - meas.node_ids)
        if missing:
            raise ValueError(f"no measurement series for forced nodes {missing}")
        if meas.n_samples != n_steps:
            raise ValueError(
                f"measurement length {meas.n_samples} != weather length {n_steps}")
        if meas.dt != weather.dt:
            raise ValueError(f"measurement dt {meas.dt} != weather dt {weather.dt}")
    for node in () if rows is None else rows:
        if not 1 <= node <= n:
            raise ValueError(f"row node {node} outside 1..{n}")
    asked = np.arange(n) if rows is None else np.asarray(rows, dtype=int) - 1

    if T0 is not None:
        T0 = np.asarray(T0, dtype=float)
        if T0.shape != (n,) or not np.all(np.isfinite(T0)):
            raise ValueError(f"initial state must be finite with shape ({n},)")

    # the measured series of the forced nodes only, so an unforced run
    # allocates none over the horizon
    series = np.array([meas.node_series(node) for node in measured]).reshape(-1, n_steps)
    isolated = np.flatnonzero((sm.capacity == 0.0) & ~sm.exchange.any(axis=1))
    if isolated.size:
        raise SingularSystemError(f"node {isolated[0] + 1} has neither capacity nor a link, "
                                  f"so the step matrix is singular")

    # the groups, and the block buffers of the largest one, which every
    # group reuses; out has room for the padding
    groups, (forced_set, forced_row) = _plan(sm, forced, asked, T0 is None)
    q = CHUNK_STEPS
    block = LONG_BLOCK_STEPS if n_steps >= LONG_BLOCKS * LONG_BLOCK_STEPS else BLOCK_STEPS
    width = max((group.size * m for group, m in groups), default=0)
    Z_buf = np.empty(width * 2 * (q + 1) * (block // q))
    V_buf = np.empty(width * block)
    out = np.empty((n_sets, asked.size, 1 + -(-(n_steps - 1) // q) * q))
    for group, m in groups:
        _march_group(sm, weather, [forced[p] for p in group], m, measured, series, T0,
                     asked, out, group, Z_buf, V_buf, block)
    # forced asked rows are their measurements
    out[forced_set, forced_row, :n_steps] = series[
        np.searchsorted(measured, asked[forced_row] + 1)]
    return out[:, :, :n_steps]


def _march_group(sm, weather, forced, m, measured, series, T0, asked, out, group,
                 Z_buf, V_buf, block):
    """March one group of forcing sets over blocks of ``block`` steps, in
    the block buffers given, into their rows ``group`` of ``out``, the
    node indices ``asked`` of each.

    Each set marches its sub-model's nodes in id order, padded to ``m``
    rows, and its forced nodes enter as inputs; the rows of forced asked
    nodes are left for the caller.
    """
    n_steps = weather.n_records
    n_in = len(INPUT_CHANNELS)
    sets = slice(group[0], group[-1] + 1) if group[-1] - group[0] < group.size else group
    n_sets = group.size
    # the group's own masks, so that no mask of the whole batch is held
    # through the march
    sub, inputs = _sub_models(sm, forced, asked)
    # the sub-model's nodes in id order, then padding rows: identity rows of
    # M with no state or input term, so their state stays 0.  M holds
    # S = 0 - A_CC first, the steady state's matrix, whose zeros are +0
    order = np.argsort(~sub, axis=1, kind="stable")[:, :m]
    real = np.arange(m) < sub.sum(axis=1, keepdims=True)
    M = np.where(real[:, :, None] & real[:, None, :],
                 0.0 - sm.exchange[order[:, :, None], order[:, None, :]], np.eye(m))
    # K_C = [B_C | A_CF]: the input term's coupling to the weather and to
    # the series of each node the group forces, nonzero for the forced
    # neighbours only
    cols = np.flatnonzero(inputs.any(axis=0))
    series_rows = np.searchsorted(measured, cols + 1)[:, None, None]
    K = np.where(real[:, :, None],
                 np.hstack([sm.input_coupling, sm.exchange[:, cols]])[order], 0.0)
    K[:, :, n_in:] = np.where(inputs[:, None, cols], K[:, :, n_in:], 0.0)
    # the state row of each asked node (a forced one's is any row)
    rows_of = (np.arange(n_sets)[:, None], np.cumsum(sub, axis=1)[:, asked] - 1)
    if T0 is None:
        # each set's forced steady state, the forced values entering as A v,
        # v holding them by node: a product of inner length n whatever the
        # group forces, so that a set's bits do not depend on its batch
        v = np.zeros(inputs.shape + (1,))
        v[inputs, 0] = series[np.searchsorted(measured, np.nonzero(inputs)[1] + 1), 0]
        rhs = np.where(real[:, :, None], (sm.input_coupling @ weather.values[0])[order, None]
                       + (sm.exchange @ v)[rows_of[0], order], 0.0)
        start = np.linalg.solve(M, rhs)
        _check(M, start, rhs, np.empty_like(rhs), group, np.zeros(1, dtype=int), 1)
    else:
        start = np.where(real, T0[order], 0.0)[:, :, None]
    _check_step_scale(sm, weather, start, series)
    # M_CC = S + diag(C_C/dt), of the same bits as C/dt - A
    d = np.where(real, sm.capacity[order] / weather.dt, 0.0)
    M.reshape(n_sets, -1)[:, ::m + 1] += d

    # the step T_next = G T + M^-1 W as one product [G | M^-1] [T; W]
    GW = np.empty((n_sets, m, 2 * m))
    try:
        GW[:, :, m:] = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"step matrix could not be inverted: {exc}") from exc
    np.multiply(GW[:, :, m:], d[:, None, :], out=GW[:, :, :m])
    q = CHUNK_STEPS
    # G^q, G^2q, ..., one per level of the scan of the group's longest block
    powers = [np.linalg.matrix_power(GW[:, :, :m], q)]
    for _ in range(1, ((min(block, n_steps - 1) - 1) // q).bit_length()):
        powers.append(powers[-1] @ powers[-1])
    d = d[:, :, None, None]

    # a block of c chunks of q steps: Z stacks the states X over the inputs
    # W, laid out (set, row, offset into the chunk, chunk), so offset i of
    # chunk j is step k0 + j q + i - 1 for X, k0 + j q + i for W; X at
    # offset 0 holds the chunk starts and at offset q the chunk ends, and W's
    # last offset is unused.  V_buf holds the block's right-hand sides, laid
    # out like W but contiguous, and earlier in the block the scan's products;
    # ``start`` holds the block's start.  ``kept`` is out's marched columns
    # split into chunks.
    step_of = np.arange(block).reshape(-1, q).T
    out[sets, :, 0] = start[rows_of][:, :, 0]
    kept = out[:, :, 1:].reshape(out.shape[0], out.shape[1], -1, q)
    for k0 in range(1, n_steps, block):
        b = min(block, n_steps - k0)
        # the last chunk is padded to q steps with the last record; the
        # padding is marched and checked, but neither judged nor kept
        c = -(-b // q)
        steps = np.minimum(k0 + step_of[:, :c], n_steps - 1)
        Z = Z_buf[:n_sets * 2 * m * (q + 1) * c].reshape(n_sets, 2 * m, q + 1, c)
        X, W = Z[:, :m], Z[:, m:, :q]
        # the input term K_C [weather; series], the forced neighbours'
        # measurements entering through K_C, gathered once for the block
        drive = np.vstack([weather.values[steps.ravel()].T,
                           series[series_rows, steps].reshape(-1, q * c)])
        np.matmul(K, drive, out=W.reshape(n_sets, m, -1))
        # 1. every chunk marched from a zero state
        X[:, :, 0] = 0.0
        _march_chunks(GW, Z, q)
        # 2. the chunk ends chained from the block's start, in place
        _scan_ends(powers, start, X[:, :, q], V_buf)
        # 3. every chunk marched again from its start up to its chained end
        X[:, :, 0, :1] = start
        X[:, :, 0, 1:] = X[:, :, q, :c - 1]
        _march_chunks(GW, Z, q - 1)
        # right-hand sides V = W + d T_prev, (set, row, step) in V_buf;
        # each reduction over the rows runs along whole rows of steps
        V4 = V_buf[:W.size].reshape(W.shape)
        np.multiply(X[:, :, :q], d, out=V4)
        V4 += W
        V = V4.reshape(n_sets, m, -1)
        # M T in W's place, which the march is done with
        _check(M, X[:, :, 1:].reshape(V.shape), V, W.reshape(V.shape), group,
               (k0 + step_of[:, :c]).ravel(), n_steps)
        j0 = (k0 - 1) // q
        kept[sets, :, j0:j0 + c] = X[rows_of][:, :, 1:].transpose(0, 1, 3, 2)
        start[...] = X[:, :, q, c - 1:]
