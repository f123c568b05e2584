"""Simultaneous multiparty controlled teleportation: protocol execution.

Up to four senders each hold a two-qubit message; a shared entangled channel
(two Bell pairs per sender plus one controller qubit) lets each receiver
reconstruct its sender's message after eight Bell-state measurements, one
controller measurement, and the table-driven Pauli corrections.

Two interchangeable engines execute the same protocol:

* ``dense``: one statevector over all 6s+1 qubits, 25 at four senders (how
  large a dense state a command may build is ``harness.cmd_run``'s policy);
* ``structured``: the controller superposition kept as two weighted branches,
  each branch a product of per-sender 6-qubit blocks.  This is exact and
  covers the full four-sender protocol in microseconds.  Its Bell
  measurement is one block kernel: the block grouped by the two measured
  bits (``statevector._live``), then CNOT's flip of the second bit and H's
  signs, give the basis-changed block, and the 2x2 joint probabilities
  drive both draws.  Its corrections are signed permutations of the 64 block
  amplitudes.  Messages and blocks are never written, so each result is
  kept once, in one place, keyed by what it depends on.  A message
  (``InfoState``) keeps its two sender blocks and the fidelity of each
  read-only receiver matrix it scores (``InfoState.score``).  A block
  (``_Block``) keeps its corrected forms, its receiver matrix at each branch
  weight, read-only, and in branch 0 each Bell step taken on it
  (``_BellStep``), per branch-1 block, pair and weights.  A step keeps the
  two Bell splits it reads, its draw totals, and per outcome the new
  weights and collapsed blocks.  Every state prepared from the same
  messages, such as all the branches of a sampled run, reuses them all, so
  once a branch's Bell steps are done it reads only kept results.
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
    _SQRT2_INV,
    GATES_1Q,
    MIN_BRANCH_PROBABILITY,
    NORM_TOL,
    StateVector,
    _bell_bits,
    _bell_outcome,
    _draw_bit,
    _is_integer,
    _live,
    apply_pauli_word,
    bsm,
    controlled_sum,
    dm_fidelity,
    measure_qubit,
    pair_state,
    partial_trace,
    tensor,
)

MAX_SENDERS = 4

ENGINES = ("dense", "structured")

# Block-local qubits of a sender block.  Bell pair ``which`` (0, 1) measures
# the message qubit and the channel sender-side qubit _BELL_PAIRS[which]; the
# correction's first and second factors act on the receiver-side qubits
# _RECEIVER_QUBITS, and a receiver's density matrix keeps them in
# _RECEIVER_KEEP order, so that its index is 2a+b with a on the first.
_BELL_PAIRS = ((0, 2), (1, 4))
_RECEIVER_QUBITS = (3, 5)
_RECEIVER_KEEP = _RECEIVER_QUBITS[::-1]
# The block's channel pairs, (sender-side, receiver-side): (2, 3) and (4, 5).
_CHANNEL_PAIRS = tuple(zip((b for _, b in _BELL_PAIRS), _RECEIVER_QUBITS))

# The channel pairs' Bell kind in each sender block, per controller branch z.
_BRANCH_KINDS = (BellKind.KAPPA_PLUS, BellKind.LAMBDA_MINUS)


def _parity(kind: BellKind) -> int:
    """The parity a ^ b of every term |a>|b> of the Bell state ``kind``."""
    (parity,) = {(k >> 1) ^ (k & 1) for k in np.flatnonzero(BELL_COEFFS[kind]).tolist()}
    return parity


# Block qubit names for ImpossibleBranchError, made once so that a measured
# bit does not format its own.
_QUBIT_NAMES = tuple(tuple(f"block {i} qubit {q}" for q in range(6)) for i in range(MAX_SENDERS))


SENDERS = ("alice", "bob", "charlie", "david")


@dataclass(frozen=True, eq=False)
class InfoState:
    """Normalized two-qubit message, coefficients ordered |00>,|01>,|10>,|11>.

    A message is immutable: it holds its own read-only copy of the
    coefficients, and the read-only target state on them.  So it can keep
    the sender blocks built from it, one per controller-branch Bell kind
    (see ``_block_state``), and every state prepared from it shares them and
    all they keep.  It also keeps the fidelity of each read-only receiver
    matrix it has scored (``score``).  Messages compare and hash by
    identity, as the kept blocks and scores belong to one message object: a
    message rebuilt from the same coefficients starts with none.
    """

    coeffs: np.ndarray
    _blocks: dict = field(default_factory=dict, init=False, repr=False)
    _scores: dict = field(default_factory=dict, init=False, repr=False)
    _target: StateVector = field(init=False, repr=False)

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
        object.__setattr__(self, "_target", StateVector(2, coeffs, copy=False))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "InfoState":
        """A random message: Gaussian real and imaginary parts, normalized."""
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return cls(c / np.linalg.norm(c))

    def target_state(self) -> StateVector:
        """The message as a read-only 2-qubit state on index 2a+b (first symbol high)."""
        return self._target

    def score(self, rho: np.ndarray) -> float:
        """``dm_fidelity(rho, target_state())``, the fidelity of a receiver's matrix.

        A read-only matrix that owns its data, as the structured engine's
        ``receiver_dm`` returns once a run has one controller branch, is
        scored once: the score is kept by the matrix's identity, together
        with the matrix, so that no other matrix takes its id while the
        score is kept.  Any other matrix, every dense one among them, is
        scored afresh, so a writable matrix edited in place gets its new
        score.
        """
        if rho.flags.writeable or not rho.flags.owndata:
            return dm_fidelity(rho, self._target)
        kept = self._scores.get(id(rho))
        if kept is None:
            kept = self._scores[id(rho)] = rho, dm_fidelity(rho, self._target)
        return kept[1]


@dataclass(frozen=True)
class OutcomeRecord:
    """Bell outcomes of the 2s sender measurements plus the controller bit."""

    bell: tuple[int, ...]
    z: int

    def __post_init__(self):
        if not all(_is_integer(b) and 0 <= b <= 3 for b in self.bell):
            raise ValueError(f"Bell outcomes must be integers in 0..3: {self.bell}")
        if not (_is_integer(self.z) and self.z in (0, 1)):
            raise ValueError(f"controller bit must be the integer 0 or 1, got {self.z!r}")
        # numpy integers become Python ints, which reports can serialize
        object.__setattr__(self, "bell", tuple(map(int, self.bell)))
        object.__setattr__(self, "z", int(self.z))

    def symbols(self) -> str:
        return ",".join([BELL_SYMBOLS[b] for b in self.bell] + [str(self.z)])


@dataclass
class ProtocolReport:
    """One run's outcome and scores.

    The transcript's records are shared by every report of the process (see
    ``_BSM_MESSAGES``): they are read-only.  ``to_dict`` leaves the
    transcript out, since it is a function of ``outcome`` alone (README,
    "Report schema"), and keeps its bit count.
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
        }


def _validate_inputs(inputs: Sequence[InfoState]) -> int:
    s = len(inputs)
    if not 1 <= s <= MAX_SENDERS:
        raise ValueError(f"sender count must be 1..{MAX_SENDERS}, got {s}")
    for info in inputs:
        if not isinstance(info, InfoState):
            raise TypeError(f"inputs must be InfoState, got {type(info)!r}")
    return s


def register_qubits(s: int) -> int:
    """The dense register's size: s six-qubit sender blocks, then Elle on the top qubit."""
    return 6 * s + 1


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
    qubits its measurements fixed, though no run copies a dense state.  The
    register keeps all 6s+1 qubits, but each measured qubit leaves the
    kernels' sweep: they touch only the amplitudes that no measurement has
    set to 0 (``statevector._live``), and so does the phase flip of a
    correction.  A forced run, as each branch of ``run_exhaustive`` is,
    prepares only its controller half (``prepare`` given z), with Elle's
    qubit fixed from the start, so its kernels never read the other half;
    only a sampled run holds both.  It also records each block's two
    channel pairs, whose parity is known in half z, so its kernels read
    only the 2^(4s) amplitudes those pairs allow, its nonzero ones, until a
    Bell measurement's CNOT writes the pair's sender-side qubit.  After
    an operation raises ``ImpossibleBranchError`` the state is spent: a
    refused Bell measurement has already applied its basis change to the
    array.  A refused ``StructuredState`` is left as it was.
    """

    engine = "dense"

    def __init__(self, s: int, state: StateVector):
        self.s = s
        self.state = state

    @classmethod
    def prepare(cls, inputs: Sequence[InfoState], z: int | None = None) -> "DenseState":
        """Both controller branches, (blocks of z, last sender lowest) tensor
        |z>/sqrt2, built in one array by ``controlled_sum``, Elle on top.

        Given ``z``, only branch z: the same half z, value for value, with
        the other half never written and Elle's qubit recorded as fixed at
        z (``StateVector.fixed``), so no kernel reads that half.  This is
        Elle's outcome z projected out first, which is valid since her
        measurement and the Bell measurements act on disjoint qubits: the
        state's norm squared is 1/2, so the first Bell measurement gives the
        joint probability of z and its bits, and ``measure_controller``
        then gives z with probability 1, up to ulps.  Half z's 2s channel
        pairs are all of one Bell kind, whose parity ``_parity`` reads from
        ``BELL_COEFFS``, and are recorded in ``StateVector.pairs``.  Both
        halves together record none: there the parity is Elle's bit.
        """
        s = _validate_inputs(inputs)
        if not (z is None or (_is_integer(z) and z in (0, 1))):
            raise ValueError(f"controller bit must be None or the integer 0 or 1, got {z!r}")
        low0, low1 = ([_block_state(info, kind) for info in reversed(inputs)] for kind in _BRANCH_KINDS)
        c0, c1 = (_SQRT2_INV if z in (None, k) else 0.0 for k in (0, 1))
        dense = cls(s, controlled_sum(low0, low1, c0, c1))
        if z is not None:
            elle = register_qubits(s) - 1
            dense.state.fixed = (1 << elle, z << elle)
            parity = _parity(_BRANCH_KINDS[z])
            dense.state.pairs = tuple((dense._base(i) + a, dense._base(i) + b, parity)
                                      for i in range(s) for a, b in _CHANNEL_PAIRS)
        return dense

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
        return measure_qubit(self.state, register_qubits(self.s) - 1, forced=forced, rng=rng)

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        word = [(factor, self._base(i) + q) for factor, q in zip((entry.first, entry.second), _RECEIVER_QUBITS)]
        apply_pauli_word(self.state, word)
        if entry.phase_pi:
            live = _live(self.state)
            np.negative(live, out=live)

    def receiver_dm(self, i: int) -> np.ndarray:
        return partial_trace(self.state, [self._base(i) + q for q in _RECEIVER_KEEP])


# H takes output bit x from inputs 0 and 1 with weights H[x, 0] = 1/sqrt2 and
# H[x, 1] = _H_SIGN[x]/sqrt2, shaped to broadcast over (bit a, bit b, rest).
_H_SIGN = (GATES_1Q["H"][:, 1] / GATES_1Q["H"][:, 0]).real.reshape(2, 1, 1)


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
    in-place kernel refuses it), so its results depend on it alone.  It
    keeps three, each computed on first use: its corrected form per
    correction entry, its receiver-pair matrix times each branch weight
    squared it is read at (``receiver_at``, read-only like the block), and,
    in branch 0, the Bell steps taken on it (``_BellStep``), per branch-1
    block, pair and weights.  ``bell_split`` and ``receiver_mat`` compute
    afresh: the step that reads a split keeps it, and the collapsed blocks
    it makes live in its results.  A prepared block is kept on its message
    (``_block_state``), so every state that holds it reuses what it keeps:
    all states prepared from that message, of either engine's preparation,
    and all their copies.
    """

    __slots__ = ("_corrected_by", "_receiver_by", "_steps")

    def __init__(self, amps: np.ndarray):
        super().__init__(6, amps, copy=False)
        self.amps.flags.writeable = False
        self._corrected_by = {}
        self._receiver_by = {}
        self._steps = {}

    def bell_split(self, which: int) -> tuple:
        """The Bell measurement on sender pair ``which``.

        Returns ``(changed, joint, marginal, conditional)``: the basis-changed
        amplitudes indexed (bit a, bit b, rest), the joint probabilities
        [bit a][bit b], the bit-a marginals, and per bit a the bit-b
        probabilities given it, or None where its marginal is at most
        MIN_BRANCH_PROBABILITY, as a measurement drops that block's branch.
        """
        # CNOT(a->b) takes the a = 1 half from bit b flipped, then H(a)
        v = _live(self, _BELL_PAIRS[which]).reshape(2, 2, 16)
        changed = (v[0] + _H_SIGN * v[1, ::-1]) * _SQRT2_INV
        joint = (np.abs(changed) ** 2).sum(axis=2).tolist()
        marginal = (sum(joint[0]), sum(joint[1]))
        conditional = tuple((p[0] / m, p[1] / m) if m > MIN_BRANCH_PROBABILITY else None
                            for p, m in zip(joint, marginal))
        return changed, joint, marginal, conditional

    def corrected(self, entry: corrections.CorrectionEntry) -> "_Block":
        """The block after ``entry``'s word on its receiver qubits."""
        block = self._corrected_by.get(entry)
        if block is None:
            src, coeff = _correction_permutation(entry.first, entry.second, entry.phase_pi)
            block = self._corrected_by[entry] = _Block(coeff * self.amps[src])
        return block

    def receiver_mat(self) -> np.ndarray:
        """The receiver pair's reduced density matrix, indexed 2a+b."""
        return partial_trace(self, _RECEIVER_KEEP)

    def receiver_at(self, p: float) -> np.ndarray:
        """``p * receiver_mat()``, the receiver matrix of a branch whose weight
        squared is ``p``, kept per p and read-only."""
        rho = self._receiver_by.get(p)
        if rho is None:
            rho = self._receiver_by[p] = p * self.receiver_mat()
            rho.flags.writeable = False
        return rho


def _collapsed(split: tuple, which: int, bit_a: int, bit_b: int) -> _Block:
    """The normalized block after sender pair ``which`` reads (bit a, bit b),
    from the pair's ``_Block.bell_split``."""
    changed, joint, _, _ = split
    amps = np.zeros(64, dtype=complex)
    half = _live(StateVector(6, amps, copy=False), _BELL_PAIRS[which])[bit_a, bit_b]
    half[...] = (changed[bit_a, bit_b] / math.sqrt(joint[bit_a][bit_b])).reshape(half.shape)
    return _Block(amps)


# The weights are Python complex numbers, rounded as numpy's complex128
# scalars were.  Every weight squared is ``abs(w) ** 2``, the value of
# numpy's scalar abs (its array ``np.abs`` rounds otherwise on about a third
# of complex values).  numpy divides a complex by a real as a product with
# the reciprocal, so the renormalization is ``w * (1.0 / d)``, not
# ``w / d``.  The totals add branch 0 first.

def _totals(w0: complex, w1: complex, probs0, probs1) -> tuple[float, float]:
    """A bit's two outcome weights over the branches, given its (P0, P1) in
    branch 0 and in branch 1; a branch whose pair is None takes no part."""
    t0 = t1 = 0.0
    if probs0 is not None:
        w2 = abs(w0) ** 2
        t0, t1 = w2 * probs0[0], w2 * probs0[1]
    if probs1 is not None:
        w2 = abs(w1) ** 2
        t0 += w2 * probs1[0]
        t1 += w2 * probs1[1]
    return t0, t1


def _reweighted(w0: complex, w1: complex, probs0, probs1, bit: int, prob: float):
    """The weights once the bit reads ``bit`` with total ``prob``, and whether
    each branch is kept.  A branch that takes part but cannot give the bit
    gets weight 0j; one that takes no part is only rescaled."""
    keep0 = keep1 = False
    if probs0 is not None:
        p = probs0[bit]
        keep0 = p > MIN_BRANCH_PROBABILITY
        w0 = w0 * math.sqrt(p) if keep0 else 0j
    if probs1 is not None:
        p = probs1[bit]
        keep1 = p > MIN_BRANCH_PROBABILITY
        w1 = w1 * math.sqrt(p) if keep1 else 0j
    scale = 1.0 / math.sqrt(prob)
    return w0 * scale, w1 * scale, keep0, keep1


class _BellStep:
    """One structured Bell measurement: sender pair ``which`` on a branch-0
    block and a branch-1 block, under two branch weights.

    Its result is a function of those and the outcome alone, so the branch-0
    block keeps it (``_Block._steps``), keyed by the branch-1 block, the pair
    and the weights.  A branch takes part while its weight squared exceeds
    MIN_BRANCH_PROBABILITY, and the step reads that branch's block's split
    (``_Block.bell_split``) once and keeps it.  The step keeps bit a's two
    totals, per bit a the reweighted weights and bit b's totals, and per
    outcome the whole result in ``results``: ``(weights, child0, child1,
    outcome, prob)``, where a child is the branch's collapsed block, made
    from the kept split, or None where the branch keeps its block.  So each
    collapsed block lives in the one result that made it.  A step holds no
    reference to the block that keeps it (a split is a fresh array, not a
    view), and the kept steps die with their message by reference counting
    (the key holds the branch-1 block, which no protocol state also holds
    in branch 0).  An outcome that ``_draw_bit`` refuses is never kept.
    """

    __slots__ = ("_splits", "_totals_a", "_after", "results")

    def __init__(self, block0: _Block, block1: _Block, which: int, weights: tuple[complex, complex]):
        w0, w1 = weights
        split0 = block0.bell_split(which) if abs(w0) ** 2 > MIN_BRANCH_PROBABILITY else None
        split1 = block1.bell_split(which) if abs(w1) ** 2 > MIN_BRANCH_PROBABILITY else None
        self._splits = split0, split1
        marginal0 = split0[2] if split0 else None
        marginal1 = split1[2] if split1 else None
        self._totals_a = _totals(w0, w1, marginal0, marginal1)
        after = []
        for bit_a, prob in enumerate(self._totals_a):
            if prob <= MIN_BRANCH_PROBABILITY:  # the draw refuses bit_a
                after.append(None)
                continue
            wa0, wa1, keep0, keep1 = _reweighted(w0, w1, marginal0, marginal1, bit_a, prob)
            cond0 = split0[3][bit_a] if keep0 else None
            cond1 = split1[3][bit_a] if keep1 else None
            after.append((wa0, wa1, cond0, cond1, _totals(wa0, wa1, cond0, cond1)))
        self._after = after
        self.results = {}

    def take(self, i: int, which: int, forced, rng) -> tuple:
        """Draw both bits through ``_draw_bit``, forced or from ``rng``, and
        return the outcome's result, computing and keeping it on first use."""
        fa, fb = (None, None) if forced is None else _bell_bits(forced)
        a, b = _BELL_PAIRS[which]
        names = _QUBIT_NAMES[i]
        bit_a, pa = _draw_bit(*self._totals_a, names[a], forced=fa, rng=rng)
        wa0, wa1, cond0, cond1, totals_b = self._after[bit_a]
        bit_b, pb = _draw_bit(*totals_b, names[b], forced=fb, rng=rng)
        outcome = _bell_outcome(bit_a, bit_b)
        result = self.results.get(outcome)
        if result is None:
            w0, w1, keep0, keep1 = _reweighted(wa0, wa1, cond0, cond1, bit_b, pb)
            split0, split1 = self._splits
            child0 = _collapsed(split0, which, bit_a, bit_b) if keep0 else None
            child1 = _collapsed(split1, which, bit_a, bit_b) if keep1 else None
            result = self.results[outcome] = (w0, w1), child0, child1, outcome, pa * pb
        return result


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

    Every operation handles branch 0 and branch 1 written out: a branch
    takes part while its weight squared exceeds MIN_BRANCH_PROBABILITY, and
    a measurement that cannot occur in it sets its weight to 0j and leaves
    its blocks as they were.  A Bell pair is one kept step (``_BellStep``),
    found on the branch-0 block by the branch-1 block, the pair and the
    weights: a forced outcome that the step has given before costs two dict
    lookups, and a sampled one draws both bits from the step's kept totals.
    The blocks a Bell pair leaves are the step result's collapsed blocks.
    A step assigns the weights and blocks only once both bits are drawn, so
    a Bell pair refused at either bit (``ImpossibleBranchError``) leaves
    the state as it was.  With one controller branch left, as after
    ``measure_controller``, ``receiver_dm`` returns the matrix its block
    keeps for that weight (``_Block.receiver_at``), read-only and the same
    object on every call; with both, it returns a fresh writable mixture.
    ``measure_controller`` draws from the two weights squared, computed
    afresh each call.

    No protocol run takes the per-branch drop: every Bell outcome has
    probability 1/4 in both controller branches, for every message, since
    the sender-side qubit of each channel pair is maximally mixed.  The drop
    exists for general, hand-built states.
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

    def bsm_pair(self, j: int, *, forced=None, rng=None) -> tuple[int, float]:
        i, which = divmod(j, 2)
        blocks0, blocks1 = self.blocks
        block0, block1 = blocks0[i], blocks1[i]
        key = block1, which, self.weights
        step = block0._steps.get(key)
        if step is None:
            step = block0._steps[key] = _BellStep(block0, block1, which, self.weights)
        # only an int is looked up: 1.0 and True equal 1, and _bell_bits refuses them
        result = step.results.get(forced) if type(forced) is int else None
        if result is None:
            result = step.take(i, which, forced, rng)
        self.weights, child0, child1, outcome, prob = result
        if child0 is not None:
            blocks0[i] = child0
        if child1 is not None:
            blocks1[i] = child1
        return outcome, prob

    def measure_controller(self, *, forced=None, rng=None) -> tuple[int, float]:
        w0, w1 = self.weights
        z, prob = _draw_bit(abs(w0) ** 2, abs(w1) ** 2, "controller", forced=forced, rng=rng)
        weights = [0j, 0j]
        weights[z] = self.weights[z] * (1.0 / abs(self.weights[z]))
        self.weights = tuple(weights)
        return z, prob

    def apply_correction(self, i: int, entry: corrections.CorrectionEntry) -> None:
        (w0, w1), (blocks0, blocks1) = self.weights, self.blocks
        if abs(w0) ** 2 > MIN_BRANCH_PROBABILITY:
            blocks0[i] = blocks0[i].corrected(entry)
        if abs(w1) ** 2 > MIN_BRANCH_PROBABILITY:
            blocks1[i] = blocks1[i].corrected(entry)

    def receiver_dm(self, i: int) -> np.ndarray:
        """The weighted sum of the branches' receiver matrices; the weights
        sum to 1, so at least one branch is above MIN_BRANCH_PROBABILITY.
        A single branch's term is its block's kept, read-only matrix."""
        (w0, w1), (blocks0, blocks1) = self.weights, self.blocks
        p0, p1 = abs(w0) ** 2, abs(w1) ** 2
        if p1 <= MIN_BRANCH_PROBABILITY:
            return blocks0[i].receiver_at(p0)
        if p0 <= MIN_BRANCH_PROBABILITY:
            return blocks1[i].receiver_at(p1)
        return p0 * blocks0[i].receiver_mat() + p1 * blocks1[i].receiver_mat()


def assemble_global(inputs: Sequence[InfoState], engine: str = "structured"):
    """Initial global state (messages plus channel) under the chosen engine."""
    if engine == "structured":
        return StructuredState.prepare(inputs)
    if engine != "dense":
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
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
    state=None,
) -> ProtocolReport:
    """Execute one full protocol run and score every receiver.

    ``forced`` pins all measurement outcomes; otherwise outcomes are sampled
    from ``rng``.  Messages are reported in canonical party order.
    ``state`` lets exhaustive sweeps reuse a prepared copy, and fixes the engine.
    """
    s = _validate_inputs(inputs)
    n_bsm = 2 * s
    if forced is not None:
        if len(forced.bell) != n_bsm:
            raise ValueError(f"forced record has {len(forced.bell)} Bell outcomes, expected {n_bsm}")
    elif rng is None:
        raise ValueError("sampled mode needs an explicit rng")
    if state is None and engine == "dense" and forced is not None:
        state = DenseState.prepare(inputs, forced.z)
    elif state is None:
        state = assemble_global(inputs, engine)

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
        fidelities.append(inputs[i].score(state.receiver_dm(i)))
    return ProtocolReport(
        outcome=forced if forced is not None else OutcomeRecord(tuple(outcomes), z),
        branch_probability=probability,
        per_receiver_fidelity=tuple(fidelities),
        transcript=transcript,
        classical_bits_sent=sum(m["bits"] for m in transcript),
        engine=state.engine,
    )


def enumerate_records(s: int) -> list[OutcomeRecord]:
    """All 4^(2s) x 2 forced outcome records in canonical order.

    Their fields are Python ints from ``range``, valid by construction, so
    the records are built without ``OutcomeRecord``'s per-value checks.
    """
    records = []
    for bells in itertools.product(range(4), repeat=2 * s):
        for z in (0, 1):
            record = object.__new__(OutcomeRecord)
            object.__setattr__(record, "bell", bells)
            object.__setattr__(record, "z", z)
            records.append(record)
    return records


def run_exhaustive(
    inputs: Sequence[InfoState],
    *,
    engine: str = "structured",
) -> list[ProtocolReport]:
    """Run every measurement branch; reports come back in canonical order."""
    records = enumerate_records(_validate_inputs(inputs))
    if engine == "dense":
        return [run_protocol(inputs, engine=engine, forced=record) for record in records]
    # the structured base stays for sweep-s3's pinned prepare and copy counts (ROADMAP item 1)
    base = assemble_global(inputs, engine)
    return [run_protocol(inputs, forced=record, state=base.copy()) for record in records]


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
        split0 = _block_state(info, kind).bell_split(0)
        for g in range(4):
            ga, gb = _bell_bits(g)
            split1 = _collapsed(split0, 0, ga, gb).bell_split(1)
            for h in range(4):
                ha, hb = _bell_bits(h)
                leaf = _collapsed(split1, 1, ha, hb)
                probs[z, g, h] = split0[1][ga][gb] * split1[1][ha][hb]
                entry = corrections.table_lookup(receiver, (g, h, z))
                fidelities[z, g, h] = dm_fidelity(leaf.corrected(entry).receiver_mat(), target)
    return probs, fidelities
