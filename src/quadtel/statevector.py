"""Dense complex statevector engine.

Basis-index convention (fixed for the whole package): indices are
little-endian, bit k of a basis index is the computational value of qubit k,
so qubit 0 occupies the least significant bit.  Ket strings in docstrings and
error messages are written the usual way, qubit n-1 leftmost.

All public operations are pure: they return new states and never mutate
their arguments.  Sampled measurements take an explicit numpy Generator;
there is no ambient randomness anywhere in this module.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Dense allocation limits.  States above DEFAULT_QUBIT_CAP qubits need the
# explicit allow_large opt-in; HARD_QUBIT_CAP (2^26 amplitudes, ~1 GiB) is
# never exceeded.
DEFAULT_QUBIT_CAP = 16
HARD_QUBIT_CAP = 26

# Forcing a branch below this Born probability is treated as impossible.
MIN_BRANCH_PROBABILITY = 1e-15

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

GATES_1Q: Mapping[str, np.ndarray] = {"H": _H, "X": _X, "Z": _Z}

# Single-qubit correction factors.  "XZ" is the operator product X·Z:
# apply Z first, then X, so XZ|1> = -|0>.
PAULI_FACTOR_MATRICES: Mapping[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": _X,
    "Z": _Z,
    "XZ": _X @ _Z,
}

# Per gate, the nonzero (coefficient, input half) pairs of each output half:
# the sparsity of the matrices above, looked up once per kernel call.
_Terms = tuple[tuple[tuple[complex, int], ...], ...]


def _terms(m: np.ndarray) -> _Terms:
    return tuple(tuple((m[r, h], h) for h in (0, 1) if m[r, h] != 0) for r in (0, 1))


_GATE_TERMS = {name: _terms(m) for name, m in GATES_1Q.items()}
_PAULI_TERMS = {name: _terms(m) for name, m in PAULI_FACTOR_MATRICES.items()}

# Free-axis entries per slab of a kernel.  A one-qubit kernel's slab is 2^14
# amplitude pairs: 512 KiB of complex128 in, as much out and a 256 KiB
# temporary, which stay in a 2 MiB L2 cache across the kernel's passes.
_SLAB = 1 << 14

# Trailing free axes with fewer entries than this are walked one index at a
# time, so that numpy's inner loop runs along a long axis, not one of length 1
# or 2 (which halves the speed of a Hadamard on qubit 1 of 25).
_SHORT_AXES = 4

# Bit pair (first qubit, second qubit) left behind by the Bell basis change
# (CNOT(first->second), H(first)) for each Bell outcome 0..3.  The mapping is
# not transcribed from anywhere: tests/test_statevector.py re-derives it by
# running the basis change on each prepared Bell state.
BELL_OUTCOME_BITS: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))


def bell_receiver_amplitudes(block_amps: np.ndarray, g: int, h: int) -> np.ndarray:
    """Receiver amplitudes of a measured 6-qubit sender block, index 2a+b.

    The block is [message, message', channel sender, receiver, sender',
    receiver'] after the Bell basis changes on (0, 2) and (1, 4); (g, h) are
    the two Bell outcomes and a, b the receiver and receiver' bits.
    """
    (g0, g1), (h0, h1) = BELL_OUTCOME_BITS[g], BELL_OUTCOME_BITS[h]
    fixed = g0 | (h0 << 1) | (g1 << 2) | (h1 << 4)
    return block_amps[[fixed | (a << 3) | (b << 5) for a in (0, 1) for b in (0, 1)]]


class ImpossibleBranchError(RuntimeError):
    """A measurement was forced onto a zero-probability branch."""


class StateVector:
    """Normalized pure state of ``n_qubits`` qubits as a dense amplitude array."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray | Sequence[complex], *, copy: bool = True):
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        arr = np.array(amps, dtype=complex, copy=copy)
        if arr.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, got {arr.shape}")
        self.n_qubits = n_qubits
        self.amps = arr

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps, copy=True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


@dataclass
class DensityMatrix:
    """Reduced density matrix over a subset of qubits (read-only analysis type)."""

    n_qubits: int
    mat: np.ndarray

    def trace(self) -> complex:
        return complex(np.trace(self.mat))


def _check_size(n_qubits: int, allow_large: bool) -> None:
    cap = HARD_QUBIT_CAP if allow_large else DEFAULT_QUBIT_CAP
    if n_qubits > cap:
        hint = "" if allow_large else " (pass allow_large=True to opt in up to 26)"
        raise ValueError(f"dense state of {n_qubits} qubits exceeds the {cap}-qubit cap{hint}")


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise IndexError(f"qubit {q} out of range for {state.n_qubits}-qubit state")


def _axis(n: int, q: int) -> int:
    # amps.reshape([2]*n) orders axes most-significant first
    return n - 1 - q


def init_basis(n_qubits: int, basis_index: int, *, allow_large: bool = False) -> StateVector:
    """Computational basis state |basis_index> on n_qubits qubits."""
    _check_size(n_qubits, allow_large)
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= basis_index < (1 << n_qubits):
        raise IndexError(f"basis index {basis_index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[basis_index] = 1.0
    return StateVector(n_qubits, amps, copy=False)


def _slabs(shape: tuple[int, ...]) -> Iterator[tuple[int | slice, ...]]:
    """Index tuples that cover free axes of sizes ``shape`` slab by slab.

    ``shape`` lists a view's axes other than its qubit axes, outermost first:
    ``(hi, lo)`` for the ``(hi, 2, lo)`` view of one qubit.  The axes outside
    the cut axis are walked one index at a time, the cut axis in steps that
    make a slab of about _SLAB entries, and the axes inside it whole, except
    short trailing ones, which are walked one index at a time.  A state no
    larger than one slab is a single slab.
    """
    if math.prod(shape) <= _SLAB:
        yield (slice(None),) * len(shape)
        return
    cut = len(shape) - 1
    while cut > 0 and math.prod(shape[cut:]) <= _SLAB:
        cut -= 1
    step = max(1, _SLAB // math.prod(shape[cut + 1:]))
    tail = len(shape)
    while tail > cut + 1 and math.prod(shape[tail - 1:]) < _SHORT_AXES:
        tail -= 1
    whole = (slice(None),) * (tail - cut - 1)
    for head in itertools.product(*map(range, shape[:cut])):
        for start in range(0, shape[cut], step):
            middle = (slice(start, start + step),) + whole
            for rest in itertools.product(*map(range, shape[tail:])):
                yield head + middle + rest


def _apply_matrix_1q(src: np.ndarray, terms: _Terms, q: int, out: np.ndarray) -> None:
    """Write the one-qubit operator ``terms`` on qubit q of ``src`` into ``out``.

    ``terms[r]`` lists the nonzero (coefficient, input half) pairs of output
    half r, so a Pauli factor costs one multiply per half.  ``out`` may be
    ``src`` when every half has a single term: each slab then keeps its new
    half 0 in the temporary until both input halves are read.
    """
    # index = high*2^(q+1) + bit*2^q + low
    v = src.reshape(-1, 2, 1 << q)
    o = out.reshape(v.shape)
    in_place = out is src
    buf = np.empty(min(_SLAB, src.size // 2), dtype=complex)
    for hi, lo in _slabs((v.shape[0], v.shape[2])):
        halves = (v[hi, 0, lo], v[hi, 1, lo])
        tmp = buf[: halves[0].size].reshape(halves[0].shape)
        for r, ((coef, h), *rest) in enumerate(terms):
            dst = tmp if in_place and r == 0 else o[hi, r, lo]
            np.multiply(coef, halves[h], out=dst)
            for coef, h in rest:
                np.multiply(coef, halves[h], out=tmp)
                np.add(dst, tmp, out=dst)
        if in_place:
            o[hi, 0, lo] = tmp


def apply_1q(state: StateVector, gate: str, q: int) -> StateVector:
    """Apply H, X or Z to qubit q."""
    _check_qubit(state, q)
    try:
        terms = _GATE_TERMS[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}, expected one of {sorted(GATES_1Q)}") from None
    out = np.empty_like(state.amps)
    _apply_matrix_1q(state.amps, terms, q, out)
    return StateVector(state.n_qubits, out, copy=False)


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Flip the target bit on basis states where the control bit is 1."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("CNOT control and target must differ")
    high, low = max(control, target), min(control, target)
    v = state.amps.reshape(-1, 2, 1 << (high - low - 1), 2, 1 << low)
    out = np.empty_like(v)

    def quarter(ctl: int, tgt: int) -> tuple[int, int]:
        # the (high bit, low bit) axes of a (control bit, target bit) quarter
        return (ctl, tgt) if control > target else (tgt, ctl)

    moves = [(quarter(ctl, tgt), quarter(ctl, tgt ^ ctl)) for ctl in (0, 1) for tgt in (0, 1)]
    for a, b, c in _slabs((v.shape[0], v.shape[2], v.shape[4])):
        for (x, y), (sx, sy) in moves:
            out[a, x, b, y, c] = v[a, sx, b, sy, c]
    return StateVector(state.n_qubits, out.reshape(-1), copy=False)


def apply_pauli_word(state: StateVector, word: Iterable[tuple[str, int]]) -> StateVector:
    """Apply an ordered list of (factor, qubit) with factor in {I, X, Z, XZ}.

    The sign XZ produces on |1> is retained exactly; nothing is normalized
    away.
    """
    src, out = state.amps, np.empty_like(state.amps)
    for factor, q in word:
        _check_qubit(state, q)
        try:
            terms = _PAULI_TERMS[str(factor)]
        except KeyError:
            raise ValueError(f"unknown Pauli factor {factor!r}") from None
        _apply_matrix_1q(src, terms, q, out)
        src = out
    if src is state.amps:
        out[...] = src
    return StateVector(state.n_qubits, out, copy=False)


def measure_probabilities(state: StateVector, q: int) -> tuple[float, float]:
    """Born probabilities (P0, P1) for a computational measurement of qubit q."""
    _check_qubit(state, q)
    v = state.amps.reshape(-1, 2, 1 << q)
    buf = np.empty(state.amps.size // 2)
    probs = []
    for bit in (0, 1):
        np.abs(v[:, bit, :], out=buf.reshape(v.shape[0], v.shape[2]))
        np.square(buf, out=buf)
        probs.append(float(np.sum(buf)))
    return probs[0], probs[1]


def measure_qubit(
    state: StateVector,
    q: int,
    *,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, StateVector]:
    """Projective computational-basis measurement of qubit q.

    Returns (outcome bit, its Born probability, renormalized collapsed state).
    Exactly one of ``forced`` (the requested outcome) or ``rng`` must be given.
    """
    p0, p1 = measure_probabilities(state, q)
    if forced is not None:
        if forced not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced}")
        bit = forced
    else:
        if rng is None:
            raise ValueError("sampled measurement needs an explicit rng")
        bit = 1 if rng.random() < p1 else 0
    prob = (p0, p1)[bit]
    if prob <= MIN_BRANCH_PROBABILITY:
        raise ImpossibleBranchError(f"outcome {bit} on qubit {q} has probability {prob:.3e}")
    v = state.amps.reshape(-1, 2, 1 << q)
    # np.zeros takes pages the OS hands out zeroed, so the discarded half is
    # never written (nor, for a high qubit, even touched)
    out = np.zeros(v.shape, dtype=complex)
    scale = np.sqrt(prob)
    for hi, lo in _slabs((v.shape[0], v.shape[2])):
        np.divide(v[hi, bit, lo], scale, out=out[hi, bit, lo])
    return bit, prob, StateVector(state.n_qubits, out.reshape(-1), copy=False)


def bsm_probabilities(state: StateVector, a: int, b: int) -> tuple[float, float, float, float]:
    """Probabilities of the four Bell outcomes for a BSM on (a, b), a first."""
    base = apply_1q(apply_cnot(state, a, b), "H", a)
    n = base.n_qubits
    v = np.abs(base.amps.reshape([2] * n)) ** 2
    probs = []
    for bit_a, bit_b in BELL_OUTCOME_BITS:
        sl = [slice(None)] * n
        sl[_axis(n, a)] = bit_a
        sl[_axis(n, b)] = bit_b
        probs.append(float(np.sum(v[tuple(sl)])))
    return tuple(probs)  # type: ignore[return-value]


def bsm(
    state: StateVector,
    a: int,
    b: int,
    *,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float, StateVector]:
    """Bell-state measurement of the ordered qubit pair (a, b).

    Implemented as the basis change CNOT(a->b), H(a) followed by two
    computational measurements; the measured qubits are left collapsed in
    the computational basis.  Outcomes are indexed 0..3 in the order
    (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
    with a as the first ket symbol (BELL_OUTCOME_BITS pins the bit map).
    Returns (outcome, joint Born probability, collapsed state).
    """
    if a == b:
        raise ValueError("BSM qubits must differ")
    st = apply_1q(apply_cnot(state, a, b), "H", a)
    if forced is not None:
        if forced not in (0, 1, 2, 3):
            raise ValueError(f"Bell outcome must be in 0..3, got {forced}")
        fa, fb = BELL_OUTCOME_BITS[forced]
    else:
        fa = fb = None
    bit_a, pa, st = measure_qubit(st, a, forced=fa, rng=rng)
    bit_b, pb, st = measure_qubit(st, b, forced=fb, rng=rng)
    outcome = BELL_OUTCOME_BITS.index((bit_a, bit_b))
    return outcome, pa * pb, st


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 — invariant under a global phase of either argument."""
    return float(abs(overlap(a, b)) ** 2)


def distance(a: StateVector, b: StateVector) -> float:
    """Plain L2 distance between amplitude arrays (phase sensitive)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return float(np.linalg.norm(a.amps - b.amps))


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix over the kept qubits.

    keep[j] becomes bit j of the reduced index, so the first listed qubit is
    the least significant bit of the result.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubits in keep list: {keep}")
    for q in keep:
        _check_qubit(state, q)
    n = state.n_qubits
    v = state.amps.reshape([2] * n)
    kept_axes = [_axis(n, q) for q in reversed(keep)]  # most significant kept bit first
    rest = [ax for ax in range(n) if ax not in kept_axes]
    a = v.transpose(kept_axes + rest).reshape(1 << len(keep), -1)
    return DensityMatrix(len(keep), a @ a.conj().T)


def dm_fidelity(dm: DensityMatrix, target: StateVector) -> float:
    """<target|rho|target>, the fidelity of a mixed state against a pure target."""
    if target.n_qubits != dm.n_qubits:
        raise ValueError(f"qubit counts differ: {dm.n_qubits} vs {target.n_qubits}")
    return float(np.real(np.vdot(target.amps, dm.mat @ target.amps)))


def tensor(*states: StateVector, allow_large: bool = False) -> StateVector:
    """Tensor product; the first argument occupies the lowest qubit indices."""
    if not states:
        raise ValueError("tensor needs at least one state")
    n = sum(s.n_qubits for s in states)
    _check_size(n, allow_large)
    amps = states[0].amps
    for s in states[1:]:
        amps = np.kron(s.amps, amps)
    return StateVector(n, amps, copy=False)


def permute_qubits(state: StateVector, perm: Sequence[int]) -> StateVector:
    """Relocate qubit q to index perm[q]; perm must be a bijection on 0..n-1."""
    n = state.n_qubits
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a bijection on 0..{n - 1}: {list(perm)}")
    idx = np.arange(state.amps.size)
    new_idx = np.zeros_like(idx)
    for q, t in enumerate(perm):
        new_idx |= ((idx >> q) & 1) << t
    out = np.empty_like(state.amps)
    out[new_idx] = state.amps
    return StateVector(n, out, copy=False)


def pair_state(coeffs: Sequence[complex], order: str = "first_high") -> StateVector:
    """Two-qubit state from labeled-pair coefficients.

    ``coeffs[2a + b]`` is the amplitude of |a> on the first pair member and
    |b> on the second.  order="first_high" puts the first member on qubit 1
    (so the amplitude array equals ``coeffs``); order="first_low" puts it on
    qubit 0, which is how labeled pairs sit inside channel registers.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (4,):
        raise ValueError(f"expected 4 coefficients, got {c.shape}")
    if order == "first_high":
        return StateVector(2, c)
    if order == "first_low":
        return StateVector(2, c[[0, 2, 1, 3]])
    raise ValueError(f"unknown order {order!r}")
