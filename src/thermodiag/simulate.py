"""Implicit time stepping of the zone state equations, with measurement forcing.

The continuous equations ``capacity * dT/dt = exchange * T + input_coupling * U``
are discretised with a backward Euler step:

    (C/dt - A) T_next = (C/dt) T_prev + B U_next

Zero-capacity rows (the mean radiant node) lose their C/dt term and reduce to
the algebraic balance they represent; the direct solve handles differential
and algebraic rows together.

Forcing a node replaces its row of the step matrix by a unit row and its
right-hand side entry by the measured temperature, so the node is pinned to
the measurement (a Dirichlet condition) while every other balance still sees
it through the couplings.  The step matrix is constant over a run, forced or
not, so it is factorised once and reused for every step.

All functions are pure; concurrent calls on distinct inputs are safe.  One
simulation is inherently sequential (each step depends on the previous state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .model import INPUT_CHANNELS, StateMatrices

__all__ = [
    "SingularSystemError",
    "WeatherSeries",
    "MeasurementSeries",
    "Trajectory",
    "simulate",
    "initial_state",
]

#: Relative residual bound for every linear solve.
RESIDUAL_RTOL = 1e-9


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

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, INPUT_CHANNELS.index(name)]


@dataclass(frozen=True)
class MeasurementSeries:
    """Measured node temperatures on the simulation time grid."""

    dt: float                       # s
    series: dict[int, np.ndarray]   # node id -> °C values

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


def _check_residual(M: np.ndarray, V: np.ndarray, T: np.ndarray) -> None:
    residual = np.linalg.norm(M @ T - V, ord=np.inf)
    bound = RESIDUAL_RTOL * np.linalg.norm(V, ord=np.inf)
    if not np.all(np.isfinite(T)) or residual > bound:
        raise SingularSystemError(
            f"step solve failed the residual check ({residual:.3e} > {bound:.3e}); "
            "the system is singular or severely ill-conditioned"
        )


def simulate(sm: StateMatrices, weather: WeatherSeries,
             forcing: frozenset = frozenset(),
             meas: MeasurementSeries | None = None,
             T0: np.ndarray | None = None) -> Trajectory:
    """March the model over the whole weather series.

    The trajectory has one column per weather record; column 0 is the initial
    state.  Forced nodes are overwritten with their measurement at every
    column, including the initial one, so their rows reproduce the measurement
    series exactly.
    """
    n = sm.n_nodes
    n_steps = weather.n_records
    forcing = frozenset(forcing)
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
        if meas.dt != weather.dt:
            raise ValueError(f"measurement dt {meas.dt} != weather dt {weather.dt}")

    if T0 is None:
        T0 = initial_state(sm, weather.values[0])
    T = np.asarray(T0, dtype=float).copy()
    if T.shape != (n,):
        raise ValueError(f"initial state must have shape ({n},)")

    forced = sorted(forcing)
    for node in forced:
        T[node - 1] = meas.node_series(node)[0]

    # The step matrix is constant over the run (same rows forced every step),
    # so factorise once and solve repeatedly.
    dt = weather.dt
    c_over_dt = sm.capacity / dt
    M = np.diag(c_over_dt) - sm.exchange
    for node in forced:
        M[node - 1, :] = 0.0
        M[node - 1, node - 1] = 1.0
    try:
        lu = lu_factor(M)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SingularSystemError(f"step matrix could not be factorised: {exc}") from exc

    out = np.empty((n, n_steps))
    out[:, 0] = T
    for k in range(1, n_steps):
        V = c_over_dt * T + sm.input_coupling @ weather.values[k]
        for node in forced:
            V[node - 1] = meas.node_series(node)[k]
        T = lu_solve(lu, V)
        _check_residual(M, V, T)
        for node in forced:
            T[node - 1] = meas.node_series(node)[k]
        out[:, k] = T
    return Trajectory(values=out, dt=dt)


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
