"""Statevector simulation of controller-gated multiparty teleportation.

Four senders hold arbitrary two-qubit messages; one shared 17-qubit
entangled channel, eight Bell-state measurements, one controller
measurement, and table-driven Pauli corrections deliver every message to
its receiver exactly.  The package builds the channel, runs the protocol
under two independent engines, re-derives the correction tables by brute
force, and reproduces the efficiency comparison against contemporary
multidirectional protocols.
"""

from .protocol import InfoState, OutcomeRecord, ProtocolReport, run_exhaustive, run_protocol

__version__ = "0.1.0"

__all__ = [
    "InfoState",
    "OutcomeRecord",
    "ProtocolReport",
    "run_exhaustive",
    "run_protocol",
    "__version__",
]
