"""Models shared by the test modules."""

import numpy as np

from thermodiag.model import INPUT_CHANNELS, StateMatrices


def single_node_matrices(capacity: float, conductance_to_ambient: float) -> StateMatrices:
    """One capacity coupled to the ambient temperature channel.

    The minimal mesh for solver checks: the analytic response to a
    boundary step is a single exponential with time constant C/K.
    """
    coupling = np.zeros((1, len(INPUT_CHANNELS)))
    coupling[0, INPUT_CHANNELS.index("T_ae")] = conductance_to_ambient
    return StateMatrices(
        capacity=np.array([capacity], dtype=float),
        exchange=np.array([[-conductance_to_ambient]]),
        input_coupling=coupling,
    )
