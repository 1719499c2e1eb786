"""Implicit time stepping of the zone state equations, with measurement forcing.

The continuous equations ``capacity * dT/dt = exchange * T + input_coupling * U``
are discretised with a backward Euler step:

    M T_next = D T_prev + B U_next,   M = C/dt - A,   D = C/dt

Zero-capacity rows (the mean radiant node) lose their C/dt term and reduce to
the algebraic balance they represent; the step handles differential and
algebraic rows together.

Forcing a node replaces its row of M by a unit row and its right-hand side
entry by the measured temperature, so the node is pinned to the measurement
(a Dirichlet condition) while every other balance still sees it through the
couplings.  M is constant over a run, forced or not, so it is inverted once
and the state term is folded into one propagator per forcing set:

    T_next = G T_prev + h_next,   G = M^-1 D',   h_next = M^-1 W_next

where D' is D with the forced rows zeroed and W is the input term with the
measurements in the forced rows.  :func:`simulate_batch` marches a stack of
forcing sets together in blocks of BLOCK_STEPS steps: per block, ``h`` comes
from one stacked product, forced rows are overwritten with their
measurements bit for bit, and every step's residual ``M T - V`` is checked
against RESIDUAL_RTOL at once.  A block works in three preallocated
block-sized arrays, reused by every block: the states, the inputs (then the
residuals) and the propagated inputs (then the right-hand sides).  The
march keeps them step-major, (step, set, node); the check lays the
right-hand sides and residuals out node-major, (set, node, step), so its
reductions over the nodes run along whole rows of steps.  Every array is
stacked per set and each product runs per set, so a set's result does not
depend on the rest of the batch.  :func:`simulate` is a batch of one.

All functions are pure; concurrent calls on distinct inputs are safe.  One
simulation is inherently sequential (each step depends on the previous state).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .model import INPUT_CHANNELS, StateMatrices

__all__ = [
    "SingularSystemError",
    "WeatherSeries",
    "MeasurementSeries",
    "Trajectory",
    "simulate",
    "simulate_batch",
    "initial_state",
]

#: Relative residual bound for every linear solve.
RESIDUAL_RTOL = 1e-9

#: Time steps marched per block; every temporary of the march is this long.
BLOCK_STEPS = 64


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


@dataclass(frozen=True)
class Trajectory:
    """Simulated temperatures: one row per node, one column per time step."""

    values: np.ndarray  # (n_nodes, n_steps) °C
    dt: float           # s

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def node_series(self, node_id: int) -> np.ndarray:
        return self.values[node_id - 1]


def _check_forcing(forcing: frozenset, n: int, n_steps: int, dt: float,
                   meas: MeasurementSeries | None) -> list[int]:
    for node in forcing:
        if not 1 <= node <= n:
            raise ValueError(f"forced node {node} outside 1..{n}")
    if forcing:
        if meas is None:
            raise ValueError("forcing requires a measurement series")
        missing = sorted(forcing - meas.node_ids)
        if missing:
            raise ValueError(f"no measurement series for forced nodes {missing}")
        if meas.n_samples != n_steps:
            raise ValueError(
                f"measurement length {meas.n_samples} != weather length {n_steps}")
        if meas.dt != dt:
            raise ValueError(f"measurement dt {meas.dt} != weather dt {dt}")
    return sorted(forcing)


def simulate_batch(sm: StateMatrices, weather: WeatherSeries, forcings,
                   meas: MeasurementSeries | None = None,
                   T0: np.ndarray | None = None, rows=None) -> np.ndarray:
    """March several forcing sets over the whole weather series together.

    Returns an array of shape ``(len(forcings), len(rows), n_records)``:
    per forcing set, the temperatures of the node ids in ``rows`` (all
    nodes by default), column 0 being the initial state.  Forced nodes are
    overwritten with their measurement at every column, including the
    initial one, so their rows reproduce the measurement series exactly.
    A set's result is bit-identical whatever else is in the batch.
    """
    n = sm.n_nodes
    n_steps = weather.n_records
    dt = weather.dt
    forced = [_check_forcing(frozenset(f), n, n_steps, dt, meas) for f in forcings]
    n_sets = len(forced)
    keep = np.arange(n) if rows is None else np.asarray(rows, dtype=int) - 1

    if T0 is None:
        T0 = initial_state(sm, weather.values[0])
    T0 = np.asarray(T0, dtype=float)
    if T0.shape != (n,) or not np.all(np.isfinite(T0)):
        raise ValueError(f"initial state must be finite with shape ({n},)")

    # (set, node index) pairs of every forced row; the measured series of
    # the forced nodes only, so an unforced run allocates none over the
    # horizon, and the row of each forced row's series among them
    set_idx = np.array([p for p, nodes in enumerate(forced) for _ in nodes], dtype=int)
    node_idx = np.array([node - 1 for nodes in forced for node in nodes], dtype=int)
    measured = sorted(set(node_idx.tolist()))
    series = np.array([meas.node_series(i + 1) for i in measured]).reshape(-1, n_steps)
    series_row = np.searchsorted(measured, node_idx)

    c_over_dt = sm.capacity / dt
    M = np.repeat((np.diag(c_over_dt) - sm.exchange)[None], n_sets, axis=0)
    M[set_idx, node_idx, :] = 0.0
    M[set_idx, node_idx, node_idx] = 1.0
    try:
        M_inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"step matrix could not be inverted: {exc}") from exc
    # D': the state term of the right-hand side, without forced rows
    d = np.repeat(c_over_dt[None], n_sets, axis=0)
    d[set_idx, node_idx] = 0.0
    G = M_inv * d[:, None, :]
    M_inv_t = M_inv.transpose(0, 2, 1)

    out = np.empty((n_sets, keep.size, n_steps))
    # time-major blocks: X[0] is the last state of the previous block and
    # X[j] the state at step k0 + j - 1; Xv views each state as a column.
    # A holds the inputs W, then the residuals; B the propagated inputs h,
    # then the right-hand sides V.  All three are reused by every block.
    X = np.empty((BLOCK_STEPS + 1, n_sets, n))
    Xv = X[..., None]
    A = np.empty((BLOCK_STEPS, n_sets, n))
    B = np.empty_like(A)
    X[0] = T0
    X[0, set_idx, node_idx] = series[series_row, 0]
    out[:, :, 0] = X[0][:, keep]
    for k0 in range(1, n_steps, BLOCK_STEPS):
        b = min(BLOCK_STEPS, n_steps - k0)
        # W is the input term with the measurements in the forced rows
        W, H, Tb = A[:b], B[:b], X[1:b + 1]
        W[:] = (weather.values[k0:k0 + b] @ sm.input_coupling.T)[:, None]
        W[:, set_idx, node_idx] = series[series_row, k0:k0 + b].T
        np.matmul(W.transpose(1, 0, 2), M_inv_t, out=H.transpose(1, 0, 2))
        Hv = H[..., None]
        for j in range(b):
            T = Xv[j + 1]
            np.matmul(G, Xv[j], out=T)
            T += Hv[j]
        Tb[:, set_idx, node_idx] = series[series_row, k0:k0 + b].T
        # right-hand sides V = W + d T_prev in place; then the gate is
        # node-major: V copied into B and the residuals M T - V into A,
        # both (set, node, step), so each reduction over the nodes runs
        # along whole rows of steps
        W += np.multiply(d, X[:b], out=H)
        V = B.reshape(-1)[:W.size].reshape(n_sets, n, b)
        V[...] = W.transpose(1, 2, 0)
        R = np.matmul(M, Tb.transpose(1, 2, 0), out=A.reshape(-1)[:W.size].reshape(V.shape))
        R -= V
        residual = np.max(np.abs(R, out=R), axis=1)
        # relative to the right-hand side, but never to less than a normal
        # float: a state decayed to subnormals has no relative precision left
        scale = np.max(np.abs(V, out=V), axis=1)
        bound = RESIDUAL_RTOL * np.maximum(scale, np.finfo(float).tiny, out=scale)
        # T0 and the inputs are finite, and so is the bound; a non-finite
        # state gives a NaN or infinite residual and fails
        failed = ~(residual <= bound)
        if failed.any():
            # the first failing set of the batch, at its first failing step
            p, j = np.unravel_index(np.argmax(failed), failed.shape)
            raise SingularSystemError(
                f"step solve of set {p} of the batch failed the residual check at step "
                f"{k0 + j} ({residual[p, j]:.3e} > {bound[p, j]:.3e}); the system is "
                f"singular or severely ill-conditioned")
        out[:, :, k0:k0 + b] = Tb[:, :, keep].transpose(1, 2, 0)
        X[0] = X[b]
    return out


def simulate(sm: StateMatrices, weather: WeatherSeries,
             forcing: frozenset = frozenset(),
             meas: MeasurementSeries | None = None,
             T0: np.ndarray | None = None) -> Trajectory:
    """March the model over the whole weather series: a batch of one set."""
    values = simulate_batch(sm, weather, [forcing], meas, T0)[0]
    return Trajectory(values=values, dt=weather.dt)


def initial_state(sm: StateMatrices, U_0: np.ndarray) -> np.ndarray:
    """Steady state under the first input record, as a warm start.

    Solves ``exchange * T = -input_coupling * U_0``.  If the exchange matrix
    is singular (isolated nodes, degenerate meshes), falls back to a uniform
    field at the initial ambient temperature.
    """
    U_0 = np.asarray(U_0, dtype=float)
    rhs = -(sm.input_coupling @ U_0)
    try:
        T = np.linalg.solve(sm.exchange, rhs)
        if np.all(np.isfinite(T)):
            return T
    except np.linalg.LinAlgError:
        pass
    t_ae = U_0[INPUT_CHANNELS.index("T_ae")]
    return np.full(sm.n_nodes, t_ae)
