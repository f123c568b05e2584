"""Entangled-channel construction.

The channel for k sender/receiver pairs lives on 2k+1 qubits and is built
two independent ways:

* ``prepare_channel_circuit`` runs the paper's gates, Hadamard and CNOT,
  from the all-zeros state, pair by pair: H on the controller, then for
  each pair a CNOT from the controller onto both members, H on the
  receiver-side member and a CNOT from it onto its sender-side partner;
* ``build_channel_analytic`` assembles the target superposition of Bell-pair
  products in one array (``controlled_sum``), with an explicit branch sign.

The paper orders the same gates by kind: a CNOT fan-out from the controller
onto every qubit (a GHZ state), then H on every receiver-side qubit, then
the CNOT within every pair.  Both orders are one circuit: the pair-by-pair
order moves each gate only past gates on other qubits, or past CNOTs that
share only their control, and such gates commute.  It leaves the pairs not
yet reached at |00>, which ``init_basis`` records as fixed, so each gate
reads only the amplitudes of the pairs reached so far, a live set that
grows 4x per pair, where the fan-out first makes every gate read the whole
state.

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
    _is_integer,
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


def _check_pairs(k: int) -> None:
    if not (_is_integer(k) and k >= 1):
        raise ValueError(f"the pair count must be an integer of at least 1, got {k!r}")


def prepare_channel_circuit(k: int) -> StateVector:
    """Gate-level construction of the k-pair channel on 2k+1 qubits.

    From |0...0>: H on the controller (qubit 2k), then for each pair j in
    turn, CNOT from the controller onto 2j and onto 2j+1, H on 2j+1, and
    CNOT from 2j+1 onto 2j.  This is the paper's circuit (GHZ fan-out, then
    H on every receiver-side qubit, then CNOT within every pair) with each
    gate moved only past gates on other qubits or CNOTs sharing only their
    control, so the same unitary.  The pairs after j are still |00> and
    recorded in ``fixed``, so pair j's gates read 2^(2j+3) amplitudes at
    most, not 2^(2k+1).
    """
    _check_pairs(k)
    top = 2 * k
    state = init_basis(top + 1, 0)
    apply_1q(state, "H", top)
    for j in range(k):
        apply_cnot(state, top, 2 * j)
        apply_cnot(state, top, 2 * j + 1)
        apply_1q(state, "H", 2 * j + 1)
        apply_cnot(state, 2 * j + 1, 2 * j)
    return state


def build_channel_analytic(k: int, branch_sign: int = 1) -> StateVector:
    """Direct tensor assembly of the k-pair channel, no gates involved.

    Returns (kappa+^k |0>_E + sign * lambda-^k |1>_E)/sqrt2.  The circuit
    builder reproduces this with branch_sign = (-1)^k.  Both branches are
    built in one array (``controlled_sum``), so the peak is the state alone.
    """
    _check_pairs(k)
    if branch_sign not in (1, -1):
        raise ValueError(f"branch sign must be +1 or -1, got {branch_sign}")
    kappa = [pair_state(BELL_COEFFS[BellKind.KAPPA_PLUS])] * k
    lam = [pair_state(BELL_COEFFS[BellKind.LAMBDA_MINUS])] * k
    return controlled_sum(kappa, lam, _SQRT2_INV, branch_sign * _SQRT2_INV)
