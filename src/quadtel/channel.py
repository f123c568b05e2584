"""Entangled-channel construction.

The channel for k sender/receiver pairs lives on 2k+1 qubits and is built
two independent ways:

* ``prepare_channel_circuit`` runs the gate sequence (all-zeros init, H on
  the controller, CNOT fan-out, H on each receiver-side qubit, CNOT within
  each pair);
* ``build_channel_analytic`` assembles the target superposition of Bell-pair
  products in one array (``controlled_sum``), with an explicit branch sign.

The circuit output equals the analytic state with branch sign (-1)^k: each
pair contributes a singlet with a minus sign on the controller-|1> branch,
so the signs cancel for even pair counts (in particular k=8, the full
protocol channel).

Register layout: channel qubit positions follow the construction order, with
the sender-side qubit of pair j at index 2j, the receiver-side qubit at
2j+1, and the controller at index 2k (the highest qubit).
"""
from __future__ import annotations

from enum import IntEnum
from typing import Mapping

import numpy as np

from .statevector import (
    _SQRT2_INV,
    StateVector,
    apply_1q,
    apply_cnot,
    controlled_sum,
    init_basis,
    pair_state,
)


class BellKind(IntEnum):
    """The four Bell states, numbered as measurement outcomes 0..3."""

    KAPPA_PLUS = 0  # (|00> + |11>)/sqrt2
    KAPPA_MINUS = 1  # (|00> - |11>)/sqrt2
    LAMBDA_PLUS = 2  # (|01> + |10>)/sqrt2
    LAMBDA_MINUS = 3  # (|01> - |10>)/sqrt2


# Coefficients c[2a+b] of |a> on the first pair member, |b> on the second.
BELL_COEFFS: Mapping[BellKind, np.ndarray] = {
    BellKind.KAPPA_PLUS: np.array([1, 0, 0, 1], dtype=complex) * _SQRT2_INV,
    BellKind.KAPPA_MINUS: np.array([1, 0, 0, -1], dtype=complex) * _SQRT2_INV,
    BellKind.LAMBDA_PLUS: np.array([0, 1, 1, 0], dtype=complex) * _SQRT2_INV,
    BellKind.LAMBDA_MINUS: np.array([0, 1, -1, 0], dtype=complex) * _SQRT2_INV,
}

# Symbols used by the CLI forced-outcome syntax and JSON reports.
BELL_SYMBOLS = ("k+", "k-", "l+", "l-")


def ghz_state(n_qubits: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt2 via H on the top qubit and a CNOT fan-out."""
    state = init_basis(n_qubits, 0)
    apply_1q(state, "H", n_qubits - 1)
    for target in range(n_qubits - 1):
        apply_cnot(state, n_qubits - 1, target)
    return state


def prepare_channel_circuit(k: int) -> StateVector:
    """Gate-level construction of the k-pair channel on 2k+1 qubits.

    Steps: GHZ over all qubits (controller on top), then H on each
    receiver-side qubit, then CNOT from the receiver-side qubit onto its
    sender-side partner.
    """
    if k < 1:
        raise ValueError(f"need at least one pair, got {k}")
    state = ghz_state(2 * k + 1)
    for j in range(k):
        apply_1q(state, "H", 2 * j + 1)
    for j in range(k):
        apply_cnot(state, 2 * j + 1, 2 * j)
    return state


def build_channel_analytic(k: int, branch_sign: int = 1) -> StateVector:
    """Direct tensor assembly of the k-pair channel, no gates involved.

    Returns (kappa+^k |0>_E + sign * lambda-^k |1>_E)/sqrt2.  The circuit
    builder reproduces this with branch_sign = (-1)^k.  Both branches are
    built in one array (``controlled_sum``), so the peak is the state alone.
    """
    if k < 1:
        raise ValueError(f"need at least one pair, got {k}")
    if branch_sign not in (1, -1):
        raise ValueError(f"branch sign must be +1 or -1, got {branch_sign}")
    kappa = [pair_state(BELL_COEFFS[BellKind.KAPPA_PLUS])] * k
    lam = [pair_state(BELL_COEFFS[BellKind.LAMBDA_MINUS])] * k
    return controlled_sum(kappa, lam, _SQRT2_INV, branch_sign * _SQRT2_INV)
