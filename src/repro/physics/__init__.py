"""A small quantum-information substrate.

The routing layer of the paper works with analytic success probabilities,
but the underlying operations it abstracts — Bell-pair generation across a
lossy fibre, entanglement swapping at repeaters, teleportation of data
qubits — are implemented here from scratch so that the library can also run
attempt-level, protocol-level simulations (used by the Eq. 1 ablation's
Monte-Carlo check and by the examples).

* :mod:`repro.physics.qubit` — qubits, Bell states and entangled pairs.
* :mod:`repro.physics.entanglement` — attempt-level Bell-pair generation.
* :mod:`repro.physics.swapping` — entanglement swapping and repeater chains.
* :mod:`repro.physics.teleportation` — state-vector quantum teleportation.
* :mod:`repro.physics.decoherence` — exponential fidelity decay over time.
* :mod:`repro.physics.fidelity` — Werner-state fidelity algebra.
"""

from repro.physics.qubit import BellState, Qubit, BellPair
from repro.physics.entanglement import (
    EntanglementGenerator,
    GenerationResult,
    sample_successes,
)
from repro.physics.swapping import (
    SwapResult,
    entanglement_swap,
    sample_swap_successes,
    swap_chain,
)
from repro.physics.teleportation import TeleportationOutcome, teleport
from repro.physics.decoherence import DecoherenceModel
from repro.physics.fidelity import (
    fidelity_after_swap,
    fidelity_of_chain,
    werner_parameter,
    werner_fidelity,
)
from repro.physics.purification import (
    PurificationOutcome,
    SampledPurification,
    purification_ladder,
    purification_success_probability,
    purified_fidelity,
    purify_pair,
    recurrence_purification,
    rounds_to_reach,
    sample_purification,
)

__all__ = [
    "BellState",
    "Qubit",
    "BellPair",
    "EntanglementGenerator",
    "GenerationResult",
    "sample_successes",
    "SwapResult",
    "entanglement_swap",
    "sample_swap_successes",
    "swap_chain",
    "TeleportationOutcome",
    "teleport",
    "DecoherenceModel",
    "fidelity_after_swap",
    "fidelity_of_chain",
    "werner_parameter",
    "werner_fidelity",
    "PurificationOutcome",
    "SampledPurification",
    "purification_ladder",
    "purification_success_probability",
    "purified_fidelity",
    "purify_pair",
    "recurrence_purification",
    "rounds_to_reach",
    "sample_purification",
]
