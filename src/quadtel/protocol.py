"""Simultaneous multiparty controlled teleportation: protocol execution.

Up to four senders each hold a two-qubit message; a shared entangled channel
(two Bell pairs per sender plus one controller qubit) lets each receiver
reconstruct its sender's message after eight Bell-state measurements, one
controller measurement, and the table-driven Pauli corrections.

Two interchangeable engines execute the same protocol:

* ``dense``: one statevector over all 6s+1 qubits (needs the large-state
  opt-in beyond two senders);
* ``structured``: the controller superposition kept as two weighted branches,
  each branch a product of per-sender 6-qubit blocks.  This is exact, covers
  the full four-sender protocol in microseconds, and reconstructs the dense
  state on demand.  Its Bell measurement is one block kernel: a gather and a
  sign vector, derived at import from the CNOT/H definitions, give the
  basis-changed block grouped by the two measured bits, and the 2x2 joint
  probabilities drive both draws.  Its corrections are signed permutations
  of the 64 block amplitudes.

The dense engine runs the public ``statevector`` kernels gate by gate and is
the independent check on the structured one: the tests compare the two
engines' reports and sampled draws.

Register order (dense engine and block-local alike): sender block i occupies
qubits 6i..6i+5 as [message first, message second, channel sender-side,
channel receiver-side, channel sender-side', channel receiver-side'], and the
controller sits at qubit 6s.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import corrections
from .channel import BELL_COEFFS, BELL_SYMBOLS, BellKind
from .statevector import (
    BELL_OUTCOME_BITS,
    GATES_1Q,
    DensityMatrix,
    MIN_BRANCH_PROBABILITY,
    PAULI_FACTOR_MATRICES,
    ImpossibleBranchError,
    StateVector,
    apply_1q,
    apply_cnot,
    apply_pauli_word,
    bell_receiver_amplitudes,
    bsm,
    dm_fidelity,
    init_basis,
    measure_qubit,
    pair_state,
    partial_trace,
    tensor,
)

_SQRT2_INV = 1.0 / np.sqrt(2.0)

MAX_SENDERS = 4

ENGINES = ("dense", "structured")


class Party(str, Enum):
    ALICE = "alice"
    BOB = "bob"
    CHARLIE = "charlie"
    DAVID = "david"
    FANCY1, FANCY2, FANCY3, FANCY4 = corrections.RECEIVERS
    ELLE = "elle"


SENDERS = (Party.ALICE, Party.BOB, Party.CHARLIE, Party.DAVID)
RECEIVERS = (Party.FANCY1, Party.FANCY2, Party.FANCY3, Party.FANCY4)


@dataclass
class InfoState:
    """Normalized two-qubit message, coefficients ordered |00>,|01>,|10>,|11>."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (4,):
            raise ValueError(f"expected 4 coefficients, got {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("message coefficients must be finite")
        norm = np.linalg.norm(self.coeffs)
        if abs(norm - 1) > 1e-10:
            raise ValueError(f"message state is not normalized (norm {norm!r})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "InfoState":
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return cls(c / np.linalg.norm(c))

    def target_state(self) -> StateVector:
        """The message as a 2-qubit state on index 2a+b (first symbol high)."""
        return StateVector(2, self.coeffs)


@dataclass(frozen=True)
class OutcomeRecord:
    """Bell outcomes of the 2s sender measurements plus the controller bit."""

    bell: tuple[int, ...]
    z: int | None = None

    def __post_init__(self):
        if not all(b in range(4) for b in self.bell):
            raise ValueError(f"Bell outcomes must be in 0..3: {self.bell}")
        if self.z not in (None, 0, 1):
            raise ValueError(f"controller bit must be 0 or 1, got {self.z}")

    def symbols(self) -> str:
        parts = [BELL_SYMBOLS[b] for b in self.bell]
        if self.z is not None:
            parts.append(str(self.z))
        return ",".join(parts)


@dataclass(frozen=True)
class ClassicalMessage:
    sender: Party
    recipient: Party
    kind: str  # "bsm" or "controller"
    value: int
    bits: int


@dataclass
class ProtocolReport:
    outcome: OutcomeRecord
    branch_probability: float
    per_receiver_fidelity: tuple[float, ...]
    transcript: tuple[ClassicalMessage, ...]
    classical_bits_sent: int
    engine: str

    def to_dict(self) -> dict:
        return {
            "outcome": {"bell": list(self.outcome.bell), "z": self.outcome.z,
                        "symbols": self.outcome.symbols()},
            "branch_probability": self.branch_probability,
            "per_receiver_fidelity": list(self.per_receiver_fidelity),
            "classical_bits_sent": self.classical_bits_sent,
            "engine": self.engine,
            "transcript": [
                {"from": m.sender.value, "to": m.recipient.value, "kind": m.kind,
                 "value": m.value, "bits": m.bits}
                for m in self.transcript
            ],
        }


def _validate_inputs(inputs: Sequence[InfoState]) -> int:
    s = len(inputs)
    if not 1 <= s <= MAX_SENDERS:
        raise ValueError(f"sender count must be 1..{MAX_SENDERS}, got {s}")
    for info in inputs:
        if not isinstance(info, InfoState):
            raise TypeError(f"inputs must be InfoState, got {type(info)!r}")
    return s


def _block_state(info: InfoState, kind: BellKind) -> StateVector:
    """Six-qubit sender block: message pair plus two channel pairs of ``kind``."""
    pair = pair_state(BELL_COEFFS[kind], "first_low")
    return tensor(pair_state(info.coeffs, "first_low"), pair, pair)


class _Layout:
    """Qubit indices of the block-contiguous protocol register."""

    def __init__(self, s: int):
        self.s = s
        self.n_qubits = 6 * s + 1

    def message(self, i: int, which: int) -> int:
        return 6 * i + which

    def channel_sender(self, i: int, which: int) -> int:
        return 6 * i + 2 + 2 * which

    def channel_receiver(self, i: int, which: int) -> int:
        return 6 * i + 3 + 2 * which

    @property
    def controller(self) -> int:
        return 6 * self.s


class DenseState:
    """Dense-engine protocol state over the full 6s+1 qubit register."""

    engine = "dense"

    def __init__(self, s: int, state: StateVector):
        self.s = s
        self.layout = _Layout(s)
        self.state = state

    @classmethod
    def prepare(cls, inputs: Sequence[InfoState], *, allow_large: bool = False) -> "DenseState":
        s = _validate_inputs(inputs)
        branches = []
        for z, kind in enumerate((BellKind.KAPPA_PLUS, BellKind.LAMBDA_MINUS)):
            blocks = [_block_state(info, kind) for info in inputs]
            branches.append(tensor(*blocks, init_basis(1, z), allow_large=allow_large))
        amps = branches[0].amps  # fresh from tensor, so summed and scaled in place
        amps += branches[1].amps
        amps *= _SQRT2_INV
        return cls(s, StateVector(6 * s + 1, amps, copy=False))

    def copy(self) -> "DenseState":
        return DenseState(self.s, self.state.copy())

    def bsm_pair(self, j: int, *, forced=None, rng=None) -> tuple[int, float]:
        i, which = divmod(j, 2)
        a = self.layout.message(i, which)
        b = self.layout.channel_sender(i, which)
        outcome, prob, self.state = bsm(self.state, a, b, forced=forced, rng=rng)
        return outcome, prob

    def measure_controller(self, *, forced=None, rng=None) -> tuple[int, float]:
        z, prob, self.state = measure_qubit(self.state, self.layout.controller, forced=forced, rng=rng)
        return z, prob

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        word = [
            (entry.first.value, self.layout.channel_receiver(i, 0)),
            (entry.second.value, self.layout.channel_receiver(i, 1)),
        ]
        self.state = apply_pauli_word(self.state, word)
        if entry.phase_pi:
            # the word's result is a fresh array that nothing else holds
            np.negative(self.state.amps, out=self.state.amps)

    def receiver_dm(self, i: int) -> DensityMatrix:
        keep = (self.layout.channel_receiver(i, 1), self.layout.channel_receiver(i, 0))
        return partial_trace(self.state, keep)

    def pre_broadcast_dm(self) -> DensityMatrix:
        keep = []
        for i in range(self.s):
            keep += [self.layout.channel_receiver(i, 1), self.layout.channel_receiver(i, 0)]
        return partial_trace(self.state, keep)


def _bell_basis_gather(a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather form of the Bell basis change CNOT(a->b), H(a) on a 6-qubit block.

    Returns ``(dest, src0, src1, sign)``, each of shape (2, 2, 16) and indexed
    by (bit a, bit b, remaining bits): the changed block holds
    ``(amps[src0] + sign * amps[src1]) / sqrt2`` at the indices ``dest``.
    """
    x, y, rest = np.unravel_index(np.arange(64), (2, 2, 16))
    dest = (x << a) | (y << b)
    for k, q in enumerate(q for q in range(6) if q not in (a, b)):
        dest |= ((rest >> k) & 1) << q
    # H(a) takes output bit a = x from the CNOT output at a = 0 and a = 1 with
    # weights H[x, 0] = 1/sqrt2 and H[x, 1]; CNOT(a->b) leaves the a = 0 half
    # in place and takes the a = 1 half from the index with bit b flipped.
    h = GATES_1Q["H"]
    src0 = dest & ~(1 << a)
    src1 = (dest | (1 << a)) ^ (1 << b)
    sign = (h[x, 1] / h[x, 0]).real
    return tuple(arr.reshape(2, 2, 16) for arr in (dest, src0, src1, sign))


# One gather per sender pair (which = 0, 1): message qubit ``which`` and
# channel-sender qubit ``2 + 2 * which`` of the block.
_BELL_GATHERS = tuple(_bell_basis_gather(which, 2 + 2 * which) for which in (0, 1))


@functools.lru_cache(maxsize=None)
def _correction_permutation(first: str, second: str, phase_pi: bool) -> tuple[np.ndarray, np.ndarray]:
    """A correction word on block qubits 3 and 5 as a signed permutation.

    Returns ``(src, coeff)``: the corrected block is ``coeff * amps[src]``.
    """
    # little-endian block: qubit 5 is the most significant kron factor
    op = np.kron(
        np.kron(PAULI_FACTOR_MATRICES[second], np.eye(2)),
        np.kron(PAULI_FACTOR_MATRICES[first], np.eye(8)),
    )
    if phase_pi:
        op = -op
    src = np.abs(op).argmax(axis=1)
    coeff = op[np.arange(64), src]
    for arr in (src, coeff):
        arr.flags.writeable = False
    return src, coeff


class StructuredState:
    """Branch-factorized protocol state.

    Two controller branches with complex weights; each branch is a product of
    per-sender 6-qubit blocks.  Invariant kept by every operation: blocks are
    normalized and ``sum |weight|^2 = 1``, so reconstructing
    ``sum_z weight_z (blocks_z tensor |z>)`` reproduces the dense state
    amplitude for amplitude.
    """

    engine = "structured"

    def __init__(self, s, weights, blocks, controller_z=None):
        self.s = s
        self.weights = np.asarray(weights, dtype=complex)
        self.blocks = blocks  # blocks[branch][sender]
        self.controller_z = controller_z

    @classmethod
    def prepare(cls, inputs: Sequence[InfoState]) -> "StructuredState":
        s = _validate_inputs(inputs)
        blocks = [
            [_block_state(info, kind) for info in inputs]
            for kind in (BellKind.KAPPA_PLUS, BellKind.LAMBDA_MINUS)
        ]
        return cls(s, [_SQRT2_INV, _SQRT2_INV], blocks)

    def copy(self) -> "StructuredState":
        blocks = [[blk.copy() for blk in branch] for branch in self.blocks]
        return StructuredState(self.s, self.weights.copy(), blocks, self.controller_z)

    def _alive(self) -> list[int]:
        return [b for b in (0, 1) if abs(self.weights[b]) ** 2 > MIN_BRANCH_PROBABILITY]

    def _measure_bit(self, i: int, local_q: int, probs: dict, *, forced=None, rng=None):
        """Measure one block qubit, given (P0, P1) for it in each branch of ``probs``.

        Draws the bit (one ``rng.random()`` when sampled), zeroes the branches
        that cannot give it and reweights the rest.  Returns the bit, its
        probability and the kept branches, whose blocks the caller collapses.
        """
        totals = [0.0, 0.0]
        for b, p in probs.items():
            w2 = abs(self.weights[b]) ** 2
            totals[0] += w2 * p[0]
            totals[1] += w2 * p[1]
        if forced is not None:
            bit = forced
        else:
            if rng is None:
                raise ValueError("sampled measurement needs an explicit rng")
            bit = 1 if rng.random() < totals[1] / (totals[0] + totals[1]) else 0
        prob = totals[bit]
        if prob <= MIN_BRANCH_PROBABILITY:
            raise ImpossibleBranchError(f"block {i} qubit {local_q} outcome {bit} has probability {prob:.3e}")
        kept = [b for b, p in probs.items() if p[bit] > MIN_BRANCH_PROBABILITY]
        for b, p in probs.items():
            self.weights[b] = self.weights[b] * math.sqrt(p[bit]) if b in kept else 0.0
        self.weights /= math.sqrt(prob)
        return bit, prob, kept

    def bsm_pair(self, j: int, *, forced=None, rng=None) -> tuple[int, float]:
        i, which = divmod(j, 2)
        a, b = which, 2 + 2 * which  # block-local message and channel-sender qubits
        fa = fb = None
        if forced is not None:
            if forced not in range(4):
                raise ValueError(f"Bell outcome must be in 0..3, got {forced}")
            fa, fb = BELL_OUTCOME_BITS[forced]
        dest, src0, src1, sign = _BELL_GATHERS[which]
        changed, joint = {}, {}
        for br in self._alive():
            amps = self.blocks[br][i].amps
            changed[br] = (amps[src0] + sign * amps[src1]) * _SQRT2_INV
            joint[br] = (np.abs(changed[br]) ** 2).sum(axis=2).tolist()  # [bit a][bit b]
        marginal = {br: (sum(p[0]), sum(p[1])) for br, p in joint.items()}
        bit_a, pa, kept = self._measure_bit(i, a, marginal, forced=fa, rng=rng)
        conditional = {br: [p / marginal[br][bit_a] for p in joint[br][bit_a]] for br in kept}
        bit_b, pb, kept = self._measure_bit(i, b, conditional, forced=fb, rng=rng)
        for br in kept:
            amps = np.zeros(64, dtype=complex)
            amps[dest[bit_a, bit_b]] = changed[br][bit_a, bit_b] / math.sqrt(joint[br][bit_a][bit_b])
            self.blocks[br][i] = StateVector(6, amps, copy=False)
        return BELL_OUTCOME_BITS.index((bit_a, bit_b)), pa * pb

    def measure_controller(self, *, forced=None, rng=None) -> tuple[int, float]:
        probs = np.abs(self.weights) ** 2
        if forced is not None:
            z = forced
        else:
            if rng is None:
                raise ValueError("sampled measurement needs an explicit rng")
            z = 1 if rng.random() < probs[1] / probs.sum() else 0
        prob = float(probs[z])
        if prob <= MIN_BRANCH_PROBABILITY:
            raise ImpossibleBranchError(f"controller outcome {z} has probability {prob:.3e}")
        phase = self.weights[z] / abs(self.weights[z])
        self.weights = np.array([0.0, 0.0], dtype=complex)
        self.weights[z] = phase
        self.controller_z = z
        return z, prob

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        src, coeff = _correction_permutation(entry.first.value, entry.second.value, entry.phase_pi)
        for b in self._alive():
            self.blocks[b][i] = StateVector(6, coeff * self.blocks[b][i].amps[src], copy=False)

    def receiver_dm(self, i: int) -> DensityMatrix:
        mat = np.zeros((4, 4), dtype=complex)
        for b in self._alive():
            mat += abs(self.weights[b]) ** 2 * partial_trace(self.blocks[b][i], (5, 3)).mat
        return DensityMatrix(2, mat)

    def pre_broadcast_dm(self) -> DensityMatrix:
        dim = 1 << (2 * self.s)
        mat = np.zeros((dim, dim), dtype=complex)
        for b in self._alive():
            rho = np.array([[1.0]], dtype=complex)
            for i in range(self.s):
                rho = np.kron(partial_trace(self.blocks[b][i], (5, 3)).mat, rho)
            mat += abs(self.weights[b]) ** 2 * rho
        return DensityMatrix(2 * self.s, mat)

    def to_dense(self, *, allow_large: bool = False) -> StateVector:
        n = 6 * self.s + 1
        amps = np.zeros(1 << n, dtype=complex)
        for b in self._alive():
            branch = tensor(*self.blocks[b], init_basis(1, b), allow_large=allow_large)
            amps += self.weights[b] * branch.amps
        return StateVector(n, amps, copy=False)


def assemble_global(
    inputs: Sequence[InfoState],
    engine: str = "structured",
    *,
    allow_large_dense: bool = False,
):
    """Initial global state (messages plus channel) under the chosen engine."""
    if engine == "dense":
        return DenseState.prepare(inputs, allow_large=allow_large_dense)
    if engine == "structured":
        return StructuredState.prepare(inputs)
    raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")


def _build_transcript(s: int, outcomes: Sequence[int], z: int) -> tuple[tuple[ClassicalMessage, ...], int]:
    messages = []
    for i in range(s):
        for which in (0, 1):
            messages.append(
                ClassicalMessage(SENDERS[i], RECEIVERS[i], "bsm", outcomes[2 * i + which], bits=2)
            )
    for i in range(s):
        messages.append(ClassicalMessage(Party.ELLE, RECEIVERS[i], "controller", z, bits=1))
    return tuple(messages), sum(m.bits for m in messages)


def run_protocol(
    inputs: Sequence[InfoState],
    *,
    engine: str = "structured",
    forced: OutcomeRecord | None = None,
    rng: np.random.Generator | None = None,
    allow_large_dense: bool = False,
    bsm_order: Sequence[int] | None = None,
    state=None,
) -> ProtocolReport:
    """Execute one full protocol run and score every receiver.

    ``forced`` pins all measurement outcomes (its controller bit must be
    set); otherwise outcomes are sampled from ``rng``.  ``bsm_order`` permutes
    the execution order of the sender measurements (the report is order
    independent); messages are always reported in canonical party order.
    ``state`` lets exhaustive sweeps reuse a prepared copy.
    """
    s = _validate_inputs(inputs)
    n_bsm = 2 * s
    if forced is not None:
        if len(forced.bell) != n_bsm:
            raise ValueError(f"forced record has {len(forced.bell)} Bell outcomes, expected {n_bsm}")
        if forced.z is None:
            raise ValueError("forced record must include the controller bit")
    elif rng is None:
        raise ValueError("sampled mode needs an explicit rng")
    if state is None:
        state = assemble_global(inputs, engine, allow_large_dense=allow_large_dense)
    order = list(range(n_bsm)) if bsm_order is None else list(bsm_order)
    if sorted(order) != list(range(n_bsm)):
        raise ValueError(f"bsm_order must permute 0..{n_bsm - 1}")

    outcomes = [0] * n_bsm
    probability = 1.0
    for j in order:
        outcome, prob = state.bsm_pair(j, forced=forced.bell[j] if forced else None, rng=rng)
        outcomes[j] = outcome
        probability *= prob
    z, prob_z = state.measure_controller(forced=forced.z if forced else None, rng=rng)
    probability *= prob_z

    transcript, bits = _build_transcript(s, outcomes, z)
    fidelities = []
    for i in range(s):
        entry = corrections.table_lookup(RECEIVERS[i].value, (outcomes[2 * i], outcomes[2 * i + 1], z))
        state.apply_correction(i, entry)
        fidelities.append(dm_fidelity(state.receiver_dm(i), inputs[i].target_state()))
    return ProtocolReport(
        outcome=OutcomeRecord(tuple(outcomes), z),
        branch_probability=probability,
        per_receiver_fidelity=tuple(fidelities),
        transcript=transcript,
        classical_bits_sent=bits,
        engine=state.engine,
    )


def enumerate_records(s: int) -> list[OutcomeRecord]:
    """All 4^(2s) x 2 forced outcome records in canonical order."""
    records = []
    for bells in itertools.product(range(4), repeat=2 * s):
        for z in (0, 1):
            records.append(OutcomeRecord(tuple(bells), z))
    return records


def run_exhaustive(
    inputs: Sequence[InfoState],
    *,
    engine: str = "structured",
    allow_large_dense: bool = False,
) -> list[ProtocolReport]:
    """Run every measurement branch; reports come back in canonical order."""
    s = _validate_inputs(inputs)
    base = assemble_global(inputs, engine, allow_large_dense=allow_large_dense)
    return [
        run_protocol(inputs, engine=engine, forced=record, state=base.copy())
        for record in enumerate_records(s)
    ]


def pre_broadcast_state(
    inputs: Sequence[InfoState],
    bell_outcomes: Sequence[int],
    *,
    engine: str = "structured",
    allow_large_dense: bool = False,
) -> DensityMatrix:
    """Receiver-side density matrix after all sender measurements but before
    the controller's broadcast.

    The reduced index packs receiver pairs little-endian, block 0 lowest,
    second receiver qubit of each pair below the first.
    """
    s = _validate_inputs(inputs)
    if len(bell_outcomes) != 2 * s:
        raise ValueError(f"expected {2 * s} Bell outcomes, got {len(bell_outcomes)}")
    state = assemble_global(inputs, engine, allow_large_dense=allow_large_dense)
    for j, outcome in enumerate(bell_outcomes):
        state.bsm_pair(j, forced=outcome)
    return state.pre_broadcast_dm()


# --------------------------------------------------------------------------
# Expansion-term analysis (normalization adjudication support)
# --------------------------------------------------------------------------

def expansion_block_coefficients(info: InfoState) -> tuple[np.ndarray, float]:
    """Projection coefficients of one sender block onto the Bell outcome grid.

    For each controller branch z and outcome pair (g, h), the block state is
    projected onto that Bell outcome; returned are the coefficient magnitudes
    (shape (2, 4, 4)) and the worst-case deviation of the residual direction
    from the transcribed correction word applied inversely to the message.
    """
    mags = np.zeros((2, 4, 4))
    worst = 0.0
    for z, kind in enumerate((BellKind.KAPPA_PLUS, BellKind.LAMBDA_MINUS)):
        block = _block_state(info, kind)
        block = apply_1q(apply_cnot(block, 0, 2), "H", 0)
        block = apply_1q(apply_cnot(block, 1, 4), "H", 1)
        for g in range(4):
            for h in range(4):
                v = bell_receiver_amplitudes(block.amps, g, h)
                mag = np.linalg.norm(v)
                mags[z, g, h] = mag
                entry = corrections.table_lookup(corrections.RECEIVERS[0], (g, h, z))
                expected = entry.unitary().conj().T @ info.coeffs
                align = abs(np.vdot(expected, v)) / mag
                worst = max(worst, abs(1.0 - align))
    return mags, worst
