"""Simultaneous multiparty controlled teleportation: protocol execution.

Up to four senders each hold a two-qubit message; a shared entangled channel
(two Bell pairs per sender plus one controller qubit) lets each receiver
reconstruct its sender's message after eight Bell-state measurements, one
controller measurement, and the table-driven Pauli corrections.

Two interchangeable engines execute the same protocol:

* ``dense``: one statevector over all 6s+1 qubits (beyond two senders it
  needs the caller's opt-in, checked once in ``assemble_global``);
* ``structured``: the controller superposition kept as two weighted branches,
  each branch a product of per-sender 6-qubit blocks.  This is exact and
  covers the full four-sender protocol in microseconds.  Its Bell
  measurement is one block kernel: a gather and a sign vector, derived at
  import from the CNOT/H definitions, give the basis-changed block grouped
  by the two measured bits, and the 2x2 joint probabilities drive both
  draws.  Its corrections are signed permutations of the 64 block
  amplitudes.  Blocks are never written, so each block (``_Block``) keeps
  what it yields, and each message (``InfoState``) keeps the blocks built
  from it: every state prepared from the same messages, such as all the
  branches of a sampled run, reuses them and all they keep.
  ``block_outcome_table`` runs the same block calls over every outcome of
  one sender block, which gives all branches of the full protocol factorized.

The dense engine runs the public ``statevector`` kernels gate by gate and is
the independent check on the structured one: the tests compare the two
engines' reports and sampled draws.  Both draw every measured bit through
``statevector._draw_bit`` (forced, or one ``rng.random()`` against
p1/(p0+p1)) and map Bell outcomes to bits through ``_bell_bits``, so one seed
gives both engines the same outcomes.

Register order: a sender block holds six qubits, block-local 0..5, as
[message first, message second, channel sender-side, channel receiver-side,
channel sender-side', channel receiver-side'], and the controller sits at
qubit 6s.  The dense engine puts sender block i on qubits
6(s-1-i)..6(s-1-i)+5 (``DenseState._base``), so block 0, whose Bell pairs
are measured first, holds the top sender qubits.  ``_BELL_PAIRS`` and
``_RECEIVER_QUBITS`` name the block-local positions once; the dense engine
adds its block's base.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import corrections
from .channel import BELL_COEFFS, BELL_SYMBOLS, BellKind
from .statevector import (
    GATES_1Q,
    HARD_QUBIT_CAP,
    DensityMatrix,
    MIN_BRANCH_PROBABILITY,
    NORM_TOL,
    StateVector,
    _bell_bits,
    _bell_outcome,
    _draw_bit,
    _live,
    apply_pauli_word,
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

# Largest dense-engine state run without the caller's opt-in
# (``allow_large_dense``, the CLI's ``--allow-large-dense``): two senders, 13
# qubits, fit; a four-sender dense state is 25 qubits, 512 MiB, and
# ``DenseState.prepare`` holds one such array plus the lower half of a second.
DENSE_OPT_IN_QUBITS = 16

# Block-local qubits of a sender block.  Bell pair ``which`` (0, 1) measures
# the message qubit and the channel sender-side qubit _BELL_PAIRS[which]; the
# correction's first and second factors act on the receiver-side qubits
# _RECEIVER_QUBITS, and a receiver's density matrix keeps them in
# _RECEIVER_KEEP order, so that its index is 2a+b with a on the first.
_BELL_PAIRS = ((0, 2), (1, 4))
_RECEIVER_QUBITS = (3, 5)
_RECEIVER_KEEP = _RECEIVER_QUBITS[::-1]

# The channel pairs' Bell kind in each sender block, per controller branch z.
_BRANCH_KINDS = (BellKind.KAPPA_PLUS, BellKind.LAMBDA_MINUS)

# Block qubit names for ImpossibleBranchError, made once so that a measured
# bit does not format its own.
_QUBIT_NAMES = tuple(tuple(f"block {i} qubit {q}" for q in range(6)) for i in range(MAX_SENDERS))


SENDERS = ("alice", "bob", "charlie", "david")


@dataclass(frozen=True, eq=False)
class InfoState:
    """Normalized two-qubit message, coefficients ordered |00>,|01>,|10>,|11>.

    A message is immutable: it holds its own read-only copy of the
    coefficients.  So it can keep the sender blocks built from it, one per
    controller-branch Bell kind (see ``_block_state``), and every state
    prepared from it shares them and all they keep.  Messages compare and
    hash by identity, as the kept blocks belong to one message object: a
    message rebuilt from the same coefficients starts with none.
    """

    coeffs: np.ndarray
    _blocks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (4,):
            raise ValueError(f"expected 4 coefficients, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("message coefficients must be finite")
        with np.errstate(over="ignore"):  # coefficients above 1e154 overflow it to inf
            norm = float(np.linalg.norm(coeffs))
        if abs(norm - 1) > NORM_TOL:
            raise ValueError(f"message state is not normalized (norm {norm!r})")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "InfoState":
        """A random message: Gaussian real and imaginary parts, normalized."""
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return cls(c / np.linalg.norm(c))

    def target_state(self) -> StateVector:
        """The message as a 2-qubit state on index 2a+b (first symbol high)."""
        return StateVector(2, self.coeffs)


@dataclass(frozen=True)
class OutcomeRecord:
    """Bell outcomes of the 2s sender measurements plus the controller bit."""

    bell: tuple[int, ...]
    z: int

    def __post_init__(self):
        if not all(b in range(4) and not isinstance(b, bool) for b in self.bell):
            raise ValueError(f"Bell outcomes must be integers in 0..3: {self.bell}")
        if self.z not in (0, 1) or isinstance(self.z, bool):
            raise ValueError(f"controller bit must be the integer 0 or 1, got {self.z!r}")

    def symbols(self) -> str:
        return ",".join([BELL_SYMBOLS[b] for b in self.bell] + [str(self.z)])


@dataclass
class ProtocolReport:
    """One run's outcome and scores.

    The transcript's records are shared by every report of the process (see
    ``_BSM_MESSAGES``), and ``to_dict`` hands out the same records: they are
    read-only report data.
    """

    outcome: OutcomeRecord
    branch_probability: float
    per_receiver_fidelity: tuple[float, ...]
    transcript: tuple[dict, ...]  # report records: from, to, kind, value, bits
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
            "transcript": list(self.transcript),
        }


def _validate_inputs(inputs: Sequence[InfoState]) -> int:
    s = len(inputs)
    if not 1 <= s <= MAX_SENDERS:
        raise ValueError(f"sender count must be 1..{MAX_SENDERS}, got {s}")
    for info in inputs:
        if not isinstance(info, InfoState):
            raise TypeError(f"inputs must be InfoState, got {type(info)!r}")
    return s


def _block_state(info: InfoState, kind: BellKind) -> "_Block":
    """Six-qubit sender block: message pair plus two channel pairs of ``kind``.

    Built on first use and kept on the message, so every later call with the
    same message and kind returns the same ``_Block``, with all it keeps.
    """
    block = info._blocks.get(kind)
    if block is None:
        pair = pair_state(BELL_COEFFS[kind])
        block = info._blocks[kind] = _Block(tensor(pair_state(info.coeffs), pair, pair).amps)
    return block


class DenseState:
    """Dense-engine protocol state over the full 6s+1 qubit register.

    Sender block i sits on qubits 6(s-1-i)..6(s-1-i)+5 (``_base``) and Elle
    on the top qubit, 6s: the blocks run in reverse, so block 0, whose Bell
    pairs the protocol measures first, holds the highest sender qubits.  A
    measured qubit stays fixed, and fixed high qubits leave the live
    amplitudes in long contiguous runs (2^18 after block 0's first pair at
    s=4, 2^12 after block 1's); the low blocks are measured last, when few
    amplitudes are live.  Were block 0 on the low qubits, every live
    amplitude would sit alone in its 64-byte cache line from its first
    measurement on.

    Every operation runs the ``statevector`` kernels on the one state, which
    they update in place and never copy; ``copy()`` copies it, with the
    qubits its measurements fixed.  The register keeps all 6s+1 qubits, but
    each measured qubit leaves the kernels' sweep: they touch only the
    amplitudes that no measurement has set to 0 (``statevector._live``), and
    so does the phase flip of a correction.  After an operation raises
    ``ImpossibleBranchError`` the state is spent: a refused Bell measurement
    has already applied its basis change to the array, as a
    ``StructuredState`` refused at a Bell pair's second bit has already
    reweighted for the first.
    """

    engine = "dense"

    def __init__(self, s: int, state: StateVector):
        self.s = s
        self.state = state

    @classmethod
    def prepare(cls, inputs: Sequence[InfoState]) -> "DenseState":
        """Both controller branches, (blocks of z, last sender lowest) tensor |z>,
        summed and scaled by 1/sqrt2.

        Elle's qubit is the top one, so ``tensor`` leaves the top half of the
        z=0 product as zeros whose pages it never touches, and only the z=1
        product fills every page.  The z=0 branch is added into the z=1
        array in place, so the peak is the state plus half of it.
        """
        s = _validate_inputs(inputs)
        zero, one = (tensor(*[_block_state(info, kind) for info in reversed(inputs)], init_basis(1, z))
                     for z, kind in enumerate(_BRANCH_KINDS))
        amps = one.amps
        amps += zero.amps
        amps *= _SQRT2_INV
        return cls(s, StateVector(6 * s + 1, amps, copy=False))

    def copy(self) -> "DenseState":
        return DenseState(self.s, self.state.copy())

    def _base(self, i: int) -> int:
        """The lowest qubit of sender block i."""
        return 6 * (self.s - 1 - i)

    def bsm_pair(self, j: int, *, forced=None, rng=None) -> tuple[int, float]:
        i, which = divmod(j, 2)
        a, b = (self._base(i) + q for q in _BELL_PAIRS[which])
        return bsm(self.state, a, b, forced=forced, rng=rng)

    def measure_controller(self, *, forced=None, rng=None) -> tuple[int, float]:
        return measure_qubit(self.state, 6 * self.s, forced=forced, rng=rng)

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        word = [(factor, self._base(i) + q) for factor, q in zip((entry.first, entry.second), _RECEIVER_QUBITS)]
        apply_pauli_word(self.state, word)
        if entry.phase_pi:
            live = _live(self.state)
            np.negative(live, out=live)

    def receiver_dm(self, i: int) -> DensityMatrix:
        return partial_trace(self.state, [self._base(i) + q for q in _RECEIVER_KEEP])

    def pre_broadcast_dm(self) -> DensityMatrix:
        keep = [self._base(i) + q for i in range(self.s) for q in _RECEIVER_KEEP]
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


# One gather per sender pair (which = 0, 1).
_BELL_GATHERS = tuple(_bell_basis_gather(a, b) for a, b in _BELL_PAIRS)


@functools.cache
def _correction_permutation(
    first: corrections.PauliFactor, second: corrections.PauliFactor, phase_pi: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A correction word on the block's _RECEIVER_QUBITS as a signed permutation.

    Returns ``(src, coeff)``: the corrected block is ``coeff * amps[src]``.
    """
    factors = [np.eye(2)] * 6
    for factor, q in zip((first, second), _RECEIVER_QUBITS):
        factors[q] = factor.matrix
    op = functools.reduce(lambda low, high: np.kron(high, low), factors)  # qubit 0 lowest, as in tensor()
    if phase_pi:
        op = -op
    src = np.abs(op).argmax(axis=1)
    coeff = op[np.arange(64), src]
    for arr in (src, coeff):
        arr.flags.writeable = False
    return src, coeff


class _Block(StateVector):
    """A sender block, which keeps what it yields.

    A block is never written once created (its array is read-only, so an
    in-place kernel refuses it), so its results depend on it alone.  Each
    is computed on first use and kept: the Bell split per sender pair, the
    collapsed child per pair and outcome, the corrected form per correction
    entry, and the receiver-pair matrix.  A prepared block is kept on its
    message (``_block_state``), so every state that holds it reuses them:
    all states prepared from that message, of either engine's preparation,
    and all their copies.
    """

    __slots__ = ("_splits", "_children", "_corrected_by", "_receiver_rho")

    def __init__(self, amps: np.ndarray):
        super().__init__(6, amps, copy=False)
        self.amps.flags.writeable = False
        self._splits = [None, None]
        self._children = {}
        self._corrected_by = {}
        self._receiver_rho = None

    def bell_split(self, which: int) -> tuple:
        """The Bell measurement on sender pair ``which``.

        Returns ``(changed, joint, marginal)``: the basis-changed amplitudes
        indexed (bit a, bit b, rest), the joint probabilities [bit a][bit b]
        and the bit-a marginals.
        """
        split = self._splits[which]
        if split is None:
            _, src0, src1, sign = _BELL_GATHERS[which]
            changed = (self.amps[src0] + sign * self.amps[src1]) * _SQRT2_INV
            joint = (np.abs(changed) ** 2).sum(axis=2).tolist()
            split = self._splits[which] = changed, joint, (sum(joint[0]), sum(joint[1]))
        return split

    def collapsed(self, which: int, bit_a: int, bit_b: int) -> "_Block":
        """The normalized block after sender pair ``which`` reads (bit a, bit b)."""
        key = which, bit_a, bit_b
        child = self._children.get(key)
        if child is None:
            changed, joint, _ = self.bell_split(which)
            amps = np.zeros(64, dtype=complex)
            amps[_BELL_GATHERS[which][0][bit_a, bit_b]] = changed[bit_a, bit_b] / math.sqrt(joint[bit_a][bit_b])
            child = self._children[key] = _Block(amps)
        return child

    def corrected(self, entry: corrections.CorrectionEntry) -> "_Block":
        """The block after ``entry``'s word on its receiver qubits."""
        block = self._corrected_by.get(entry)
        if block is None:
            src, coeff = _correction_permutation(entry.first, entry.second, entry.phase_pi)
            block = self._corrected_by[entry] = _Block(coeff * self.amps[src])
        return block

    def receiver_mat(self) -> np.ndarray:
        """The receiver pair's reduced density matrix, indexed 2a+b."""
        if self._receiver_rho is None:
            self._receiver_rho = partial_trace(self, _RECEIVER_KEEP).mat
        return self._receiver_rho


class StructuredState:
    """Branch-factorized protocol state.

    Two controller branches with complex weights; each branch is a product of
    per-sender 6-qubit blocks.  Invariant kept by every operation: blocks are
    normalized and ``sum |weight|^2 = 1``, so reconstructing
    ``sum_z weight_z (blocks_z tensor |z>)`` reproduces the dense state
    amplitude for amplitude.

    A block is never written once created: an operation replaces it in
    ``blocks``.  So ``copy()`` shares the blocks, and with them the results
    each ``_Block`` keeps, as ``prepare`` does: it takes each message's kept
    blocks, so every state prepared from the same messages starts from the
    same blocks.  A fresh state and a copy run the same code, and both reuse
    what earlier branches computed.  ``weights`` is a 2-tuple of
    Python complex numbers that operations replace, so copies share it too.
    A Bell pair refused at its second bit (``ImpossibleBranchError``) leaves
    the weights reweighted for the first, so the state is then spent.
    """

    engine = "structured"

    def __init__(self, s, weights, blocks):
        self.s = s
        w0, w1 = weights
        self.weights = (complex(w0), complex(w1))
        self.blocks = blocks  # blocks[branch][sender], each a _Block

    @classmethod
    def prepare(cls, inputs: Sequence[InfoState]) -> "StructuredState":
        s = _validate_inputs(inputs)
        blocks = [[_block_state(info, kind) for info in inputs] for kind in _BRANCH_KINDS]
        return cls(s, [_SQRT2_INV, _SQRT2_INV], blocks)

    def copy(self) -> "StructuredState":
        return StructuredState(self.s, self.weights, [list(branch) for branch in self.blocks])

    def _alive(self) -> list[int]:
        return [b for b in (0, 1) if abs(self.weights[b]) ** 2 > MIN_BRANCH_PROBABILITY]

    def _measure_bit(self, i: int, local_q: int, probs: dict, *, forced=None, rng=None):
        """Measure one block qubit, given (P0, P1) for it in each branch of ``probs``.

        Draws the bit with ``_draw_bit``, zeroes the branches that cannot give
        it and reweights the rest.  Returns the bit, its probability and the
        kept branches, whose blocks the caller collapses.

        The weights are Python complex numbers, rounded as numpy's complex128
        was: ``abs(w) ** 2`` is numpy's value, and numpy divides a complex by
        a real as a product with the reciprocal, so the renormalization is
        ``w * (1.0 / d)``, not ``w / d``.
        """
        totals = [0.0, 0.0]
        for b, p in probs.items():
            w2 = abs(self.weights[b]) ** 2
            totals[0] += w2 * p[0]
            totals[1] += w2 * p[1]
        bit, prob = _draw_bit(totals[0], totals[1], _QUBIT_NAMES[i][local_q], forced=forced, rng=rng)
        kept = [b for b, p in probs.items() if p[bit] > MIN_BRANCH_PROBABILITY]
        weights = list(self.weights)
        for b, p in probs.items():
            weights[b] = weights[b] * math.sqrt(p[bit]) if b in kept else 0j
        scale = 1.0 / math.sqrt(prob)
        self.weights = (weights[0] * scale, weights[1] * scale)
        return bit, prob, kept

    def bsm_pair(self, j: int, *, forced=None, rng=None) -> tuple[int, float]:
        i, which = divmod(j, 2)
        a, b = _BELL_PAIRS[which]
        fa, fb = (None, None) if forced is None else _bell_bits(forced)
        splits = {br: self.blocks[br][i].bell_split(which) for br in self._alive()}
        marginal = {br: split[2] for br, split in splits.items()}
        bit_a, pa, kept = self._measure_bit(i, a, marginal, forced=fa, rng=rng)
        conditional = {br: [p / marginal[br][bit_a] for p in splits[br][1][bit_a]] for br in kept}
        bit_b, pb, kept = self._measure_bit(i, b, conditional, forced=fb, rng=rng)
        for br in kept:
            self.blocks[br][i] = self.blocks[br][i].collapsed(which, bit_a, bit_b)
        return _bell_outcome(bit_a, bit_b), pa * pb

    def measure_controller(self, *, forced=None, rng=None) -> tuple[int, float]:
        probs = np.abs(self.weights) ** 2  # numpy's array abs: Python's abs rounds otherwise on a third of values
        z, prob = _draw_bit(probs[0], probs[1], "controller", forced=forced, rng=rng)
        weights = [0j, 0j]
        weights[z] = self.weights[z] * (1.0 / abs(self.weights[z]))
        self.weights = tuple(weights)
        return z, float(prob)

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        for b in self._alive():
            self.blocks[b][i] = self.blocks[b][i].corrected(entry)

    def receiver_dm(self, i: int) -> DensityMatrix:
        mat = np.zeros((4, 4), dtype=complex)
        for b in self._alive():
            mat += abs(self.weights[b]) ** 2 * self.blocks[b][i].receiver_mat()
        return DensityMatrix(2, mat)

    def pre_broadcast_dm(self) -> DensityMatrix:
        dim = 1 << (2 * self.s)
        mat = np.zeros((dim, dim), dtype=complex)
        for b in self._alive():
            rho = np.array([[1.0]], dtype=complex)
            for i in range(self.s):
                rho = np.kron(self.blocks[b][i].receiver_mat(), rho)
            mat += abs(self.weights[b]) ** 2 * rho
        return DensityMatrix(2 * self.s, mat)


def assemble_global(
    inputs: Sequence[InfoState],
    engine: str = "structured",
    *,
    allow_large_dense: bool = False,
):
    """Initial global state (messages plus channel) under the chosen engine.

    The dense engine refuses states above DENSE_OPT_IN_QUBITS qubits unless
    ``allow_large_dense`` is set; this is the one place that policy is checked.
    """
    if engine == "structured":
        return StructuredState.prepare(inputs)
    if engine != "dense":
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    n_qubits = 6 * _validate_inputs(inputs) + 1
    if n_qubits > DENSE_OPT_IN_QUBITS and not allow_large_dense:
        raise ValueError(
            f"dense state of {n_qubits} qubits exceeds the {DENSE_OPT_IN_QUBITS}-qubit default; "
            f"pass --allow-large-dense to opt in up to {HARD_QUBIT_CAP}"
        )
    return DenseState.prepare(inputs)


# Every classical message a run can send, as its report record:
# _BSM_MESSAGES[i][value] from sender i and _CONTROLLER_MESSAGES[i][z] from
# Elle, both to receiver i.  Transcripts hold these records, never copies.
_BSM_MESSAGES = tuple(
    tuple({"from": SENDERS[i], "to": corrections.RECEIVERS[i], "kind": "bsm", "value": value, "bits": 2}
          for value in range(4))
    for i in range(MAX_SENDERS)
)
_CONTROLLER_MESSAGES = tuple(
    tuple({"from": "elle", "to": corrections.RECEIVERS[i], "kind": "controller", "value": z, "bits": 1}
          for z in (0, 1))
    for i in range(MAX_SENDERS)
)


def _build_transcript(s: int, outcomes: Sequence[int], z: int) -> tuple[dict, ...]:
    """The run's classical messages as report records, in canonical party order:
    each sender's two Bell outcomes to its receiver, then Elle's bit to every receiver."""
    bsm_messages = [_BSM_MESSAGES[j // 2][outcomes[j]] for j in range(2 * s)]
    return tuple(bsm_messages + [_CONTROLLER_MESSAGES[i][z] for i in range(s)])


def run_protocol(
    inputs: Sequence[InfoState],
    *,
    engine: str = "structured",
    forced: OutcomeRecord | None = None,
    rng: np.random.Generator | None = None,
    allow_large_dense: bool = False,
    state=None,
) -> ProtocolReport:
    """Execute one full protocol run and score every receiver.

    ``forced`` pins all measurement outcomes; otherwise outcomes are sampled
    from ``rng``.  Messages are reported in canonical party order.
    ``state`` lets exhaustive sweeps reuse a prepared copy.
    """
    s = _validate_inputs(inputs)
    n_bsm = 2 * s
    if forced is not None:
        if len(forced.bell) != n_bsm:
            raise ValueError(f"forced record has {len(forced.bell)} Bell outcomes, expected {n_bsm}")
    elif rng is None:
        raise ValueError("sampled mode needs an explicit rng")
    if state is None:
        state = assemble_global(inputs, engine, allow_large_dense=allow_large_dense)

    outcomes = []
    probability = 1.0
    for j in range(n_bsm):
        outcome, prob = state.bsm_pair(j, forced=forced.bell[j] if forced else None, rng=rng)
        outcomes.append(outcome)
        probability *= prob
    z, prob_z = state.measure_controller(forced=forced.z if forced else None, rng=rng)
    probability *= prob_z

    transcript = _build_transcript(s, outcomes, z)
    fidelities = []
    for i in range(s):
        entry = corrections.table_lookup(corrections.RECEIVERS[i], (outcomes[2 * i], outcomes[2 * i + 1], z))
        state.apply_correction(i, entry)
        fidelities.append(dm_fidelity(state.receiver_dm(i), inputs[i].target_state()))
    return ProtocolReport(
        outcome=OutcomeRecord(tuple(outcomes), z),
        branch_probability=probability,
        per_receiver_fidelity=tuple(fidelities),
        transcript=transcript,
        classical_bits_sent=sum(m["bits"] for m in transcript),
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
) -> DensityMatrix:
    """Receiver-side density matrix after all sender measurements but before
    the controller's broadcast.

    The reduced index packs receiver pairs little-endian, block 0 lowest,
    second receiver qubit of each pair below the first.
    """
    s = _validate_inputs(inputs)
    if len(bell_outcomes) != 2 * s:
        raise ValueError(f"expected {2 * s} Bell outcomes, got {len(bell_outcomes)}")
    state = assemble_global(inputs, engine)
    for j, outcome in enumerate(bell_outcomes):
        state.bsm_pair(j, forced=outcome)
    return state.pre_broadcast_dm()


def block_outcome_table(info: InfoState, receiver: str) -> tuple[np.ndarray, np.ndarray]:
    """One sender block's outcomes over (z, g, h), from the structured engine's block kernels.

    Returns ``(probs, fidelities)``, both of shape (2, 4, 4) and indexed
    [z, g, h]: the probability that the block's Bell measurements read (g, h)
    in controller branch z, and ``receiver``'s fidelity after the transcribed
    correction of (g, h, z).  Given z the sender blocks are independent, so a
    branch's probability is 1/2 times the product of its blocks' ``probs``,
    and receiver i's fidelity is block i's entry.  Each entry takes the same
    calls as a stepwise structured branch: the Bell split and collapse of
    pair 0, then of pair 1, then the correction.
    """
    probs = np.empty((2, 4, 4))
    fidelities = np.empty((2, 4, 4))
    target = info.target_state()
    for z, kind in enumerate(_BRANCH_KINDS):
        block = _block_state(info, kind)
        joint0 = block.bell_split(0)[1]
        for g in range(4):
            ga, gb = _bell_bits(g)
            child = block.collapsed(0, ga, gb)
            joint1 = child.bell_split(1)[1]
            for h in range(4):
                ha, hb = _bell_bits(h)
                leaf = child.collapsed(1, ha, hb)
                probs[z, g, h] = joint0[ga][gb] * joint1[ha][hb]
                entry = corrections.table_lookup(receiver, (g, h, z))
                fidelities[z, g, h] = dm_fidelity(DensityMatrix(2, leaf.corrected(entry).receiver_mat()), target)
    return probs, fidelities
