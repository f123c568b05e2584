"""Dense complex statevector engine.

Basis-index convention (fixed for the whole package): indices are
little-endian, bit k of a basis index is the computational value of qubit k,
so qubit 0 occupies the least significant bit.  Ket strings in docstrings and
error messages are written the usual way, qubit n-1 leftmost.

The kernels that change a state (``apply_1q``, ``apply_cnot``,
``apply_pauli_word``, ``measure_qubit``, ``bsm``) update the state they are
given, in its own amplitude array, and never copy it.  Like numpy's in-place
functions and ``list.sort`` they do not return it: the gates return None and
the measurements their outcome and its probability.  A caller that needs the
state before the kernel copies it first.  The rest (``tensor``,
``controlled_sum``, ``partial_trace``, ``measure_probabilities``,
``dm_fidelity``, ``pair_state``, ``init_basis``) are pure: they read their
arguments and return new objects.  Sampled measurements take an explicit
numpy Generator; there is no ambient randomness anywhere in this module.

A state records in ``fixed`` the qubits that ``measure_qubit`` left in a
definite bit, and a caller that prepares a qubit in a definite bit may
record it there too.  Every amplitude with the other bit at a fixed qubit
is exactly 0 in the array, which always holds the whole state; a kernel
that writes a qubit first drops it from ``fixed``, and ``copy()`` keeps it.
The kernels read and write only the live amplitudes: ``_live`` views the array
with each fixed qubit taken at its bit, so after the 8 Bell measurements
of a four-sender branch (16 measured qubits) they touch 2^9 of its 2^25
amplitudes.  A state with nothing fixed is one view of the whole array,
through the same code.

Within the live view a kernel works slab by slab (``_slabs``), and skips
every slab in which the amplitudes it reads are all +0.0, which one integer
pass over their bits tells (``_nonzero``): its outputs there are 0, which
the array already holds, so it never writes there.  ``tensor`` writes no
zero block either, so the pages of a zero slab are never written: the
prepared state of a four-sender dense branch has 2^17 nonzero amplitudes of
2^25, all in 128 of its 2048 runs of 2^14.  New states of 4 MiB and up are
mapped in 4 KiB pages (``_zeros``), so only the pages written are resident,
and reading one never written reads the kernel's shared zero page.  A
skipped slab is still read once, so ``fixed`` stays: the kernels never read
what a measurement removed.
"""
from __future__ import annotations

import functools
import itertools
import math
import mmap
from types import EllipsisType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

# Largest dense state any kernel allocates: 2^26 amplitudes, 1 GiB of
# complex128.  How large a state a caller may ask for below it is the
# caller's policy (the protocol's dense engine has its own opt-in).
HARD_QUBIT_CAP = 26

# Forcing a branch below this Born probability is treated as impossible.
MIN_BRANCH_PROBABILITY = 1e-15

# How far from 1 a state's norm may be: numpy's pairwise sums keep round-off
# in the norm of a normalized state orders of magnitude below this, while an
# unnormalized input or amplitude left outside a register misses it by far.
NORM_TOL = 1e-10

# numpy asks for transparent huge pages (2 MiB) on arrays of this size and
# up; ``_zeros`` maps such arrays itself, in 4 KiB pages
_HUGE_PAGE_BYTES = 4 << 20

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

# A basic index into a live view: an int or a slice per axis, or ``...``.
_Index = tuple[int | slice | EllipsisType, ...]

# Free-axis entries per slab of a kernel.  A one-qubit kernel's slab is 2^14
# amplitude pairs: 512 KiB of complex128 and three 256 KiB temporaries, which
# stay in a 2 MiB L2 cache across the kernel's passes.
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


def _bell_bits(outcome: int) -> tuple[int, int]:
    """The (first qubit, second qubit) bits that Bell outcome 0..3 leaves."""
    if outcome not in (0, 1, 2, 3):
        raise ValueError(f"Bell outcome must be in 0..3, got {outcome}")
    return BELL_OUTCOME_BITS[outcome]


def _bell_outcome(bit_a: int, bit_b: int) -> int:
    """The Bell outcome that left the bits (bit_a, bit_b); inverse of _bell_bits."""
    return BELL_OUTCOME_BITS.index((bit_a, bit_b))


class ImpossibleBranchError(RuntimeError):
    """A measurement was forced onto a zero-probability branch."""


def _draw_bit(
    p0: float,
    p1: float,
    where: str,
    *,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float]:
    """The measurement rule of both engines: one bit, forced or sampled.

    (p0, p1) are the outcome weights.  A sampled bit takes one uniform draw
    from ``rng`` and is 1 when the draw is below p1 / (p0 + p1).  Returns the
    bit and its weight, and refuses a bit whose weight is at most
    MIN_BRANCH_PROBABILITY; ``where`` names the measured qubit in that error.
    """
    if forced is not None:
        if forced not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced}")
        bit = forced
    elif rng is None:
        raise ValueError("sampled measurement needs an explicit rng")
    else:
        bit = 1 if rng.random() < p1 / (p0 + p1) else 0
    prob = p1 if bit else p0
    if prob <= MIN_BRANCH_PROBABILITY:
        raise ImpossibleBranchError(f"{where} outcome {bit} has probability {prob:.3e}")
    return bit, prob


class StateVector:
    """Normalized pure state of ``n_qubits`` qubits as a dense amplitude array.

    ``fixed`` is a pair of ints ``(mask, bits)``: bit q of ``mask`` is set
    when qubit q is in a definite bit, left there by ``measure_qubit`` or
    recorded by the caller that prepared it so, and bit q of ``bits`` is
    that bit.  Every amplitude with the other bit at a fixed qubit is
    exactly 0 in ``amps``, so ``amps`` is always the whole state
    and the kernels may skip those amplitudes (``_live``).  A kernel that
    writes qubit q drops it first, which is always valid: an empty ``fixed``
    claims nothing.
    """

    __slots__ = ("n_qubits", "amps", "fixed")

    def __init__(self, n_qubits: int, amps: np.ndarray | Sequence[complex], *, copy: bool = True):
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        arr = np.array(amps, dtype=complex, copy=copy)
        if arr.shape != (1 << n_qubits,):
            raise ValueError(f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, got {arr.shape}")
        self.n_qubits = n_qubits
        self.amps = arr
        self.fixed = (0, 0)

    def copy(self) -> "StateVector":
        new = StateVector(self.n_qubits, self.amps)
        new.fixed = self.fixed
        return new

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def _check_size(n_qubits: int) -> None:
    if n_qubits > HARD_QUBIT_CAP:
        raise ValueError(f"dense state of {n_qubits} qubits exceeds the {HARD_QUBIT_CAP}-qubit cap")


def _check_qubit(state: StateVector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise IndexError(f"qubit {q} out of range for {state.n_qubits}-qubit state")


def _zeros(n_qubits: int) -> np.ndarray:
    """A new array of 2^n_qubits complex zeros whose pages are mapped when used.

    Below _HUGE_PAGE_BYTES it is ``np.zeros``.  From there up it is a private
    anonymous mapping of the process's own, advised out of transparent huge
    pages, so that a write makes only its own 4 KiB pages resident (in a
    2 MiB huge page, a 256 KiB slab makes the whole page resident), and a
    read of a page never written maps the kernel's shared zero page and
    allocates nothing.  A shared mapping would not do: a read of a hole in
    shared memory allocates a page.  The mapping is freed with the array.
    """
    nbytes = 16 << n_qubits
    if nbytes < _HUGE_PAGE_BYTES:
        return np.zeros(1 << n_qubits, dtype=complex)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex)


def init_basis(n_qubits: int, basis_index: int) -> StateVector:
    """Computational basis state |basis_index> on n_qubits qubits."""
    _check_size(n_qubits)
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= basis_index < (1 << n_qubits):
        raise IndexError(f"basis index {basis_index} out of range for {n_qubits} qubits")
    amps = _zeros(n_qubits)
    amps[basis_index] = 1.0
    return StateVector(n_qubits, amps, copy=False)


def _nonzero(slab: np.ndarray) -> bool:
    """Whether ``slab`` holds an entry whose bits are not all 0 (+0.0).

    With a contiguous last axis this is one integer pass over the bits,
    without the complex compares of ``any()``; else it is ``any()``.  So
    the integer test counts -0.0 as nonzero, where ``any()`` does not; a
    kernel then processes a slab whose outputs are all zeros, and no value
    changes.
    """
    if slab.strides[-1] == slab.itemsize:
        return bool(slab.view(np.uint64).max())
    return bool(slab.any())


def _slabs(v: np.ndarray, kept: int = 0, short: int = _SHORT_AXES) -> Iterator[tuple[int, _Index]]:
    """The slabs of the live view ``v`` that hold a nonzero amplitude.

    ``v``'s first ``kept`` axes, of 2 entries each, are read whole in every
    slab; the others are its free axes, outermost first.  The axes outside
    the cut axis are walked one index at a time, the cut axis in steps that
    make a slab of about _SLAB free entries, and the axes inside it whole,
    except trailing ones of fewer than ``short`` entries in all, which are
    walked one index at a time.  With ``short=1`` every slab is _SLAB
    consecutive entries.  Yields (k, index): k numbers the slab among all
    of them, and ``v[(slice(None),) * kept + index]`` is the slab.  A slab
    whose entries are all +0.0 is read once, in one integer pass
    (``_nonzero``), and skipped: a kernel's outputs there are 0, which the
    array already holds, so its pages are never written.  A state no larger
    than one slab is yielded whole, as ``(0, (...,))`` and with no test,
    which leaves an array even where the free axes are none.
    """
    if v.size >> kept <= _SLAB:
        yield 0, (...,)
        return
    shape = v.shape[kept:]
    cut = len(shape) - 1
    while cut > 0 and math.prod(shape[cut:]) <= _SLAB:
        cut -= 1
    step = max(1, _SLAB // math.prod(shape[cut + 1:]))
    tail = len(shape)
    while tail > cut + 1 and math.prod(shape[tail - 1:]) < short:
        tail -= 1
    whole = (slice(None),) * (tail - cut - 1)
    reads = (slice(None),) * kept
    indices = (head + (slice(start, start + step),) + whole + rest
               for head in itertools.product(*map(range, shape[:cut]))
               for start in range(0, shape[cut], step)
               for rest in itertools.product(*map(range, shape[tail:])))
    for k, index in enumerate(indices):
        if _nonzero(v[reads + index]):
            yield k, index


@functools.lru_cache(maxsize=1024)
def _live_plan(
    n_qubits: int, fixed: tuple[int, int], keep: tuple[int, ...]
) -> tuple[tuple[int, ...], _Index, tuple[int, ...]]:
    """How ``_live`` views an n-qubit state: (shape, index, axes).

    ``shape`` splits the amplitudes, top qubit first, into an axis of 2 per
    kept or fixed qubit and one axis per run of adjacent other qubits.
    ``index`` takes each fixed qubit not in ``keep`` at its bit (its
    trailing ``...`` leaves a 0-d view, not a scalar, when every qubit is
    taken), and ``axes`` then puts the kept qubits first, in ``keep`` order,
    and the runs after them, outermost first.  A plan is made once per
    (n_qubits, fixed, keep), since a branch measures the same qubits in the
    same order.
    """
    mask, bits = fixed
    shape, index, kept, runs = [], [], {}, []
    # q is -1 for a run of live qubits outside keep
    for q, group in itertools.groupby(range(n_qubits - 1, -1, -1),
                                      lambda q: q if q in keep or mask >> q & 1 else -1):
        shape.append(1 << len(list(group)))
        if q >= 0 and q not in keep:
            index.append(bits >> q & 1)
            continue
        if q >= 0:
            kept[q] = len(kept) + len(runs)
        else:
            runs.append(len(kept) + len(runs))
        index.append(slice(None))
    return tuple(shape), (*index, ...), tuple(kept[q] for q in keep) + tuple(runs)


def _live(state: StateVector, keep: tuple[int, ...] = ()) -> np.ndarray:
    """A view of ``state.amps`` that leaves out the amplitudes fixed at 0.

    Each qubit of ``state.fixed`` not in ``keep`` is taken at its bit.  The
    view's axes are one of 2 per qubit of ``keep``, in that order, then one
    per run of adjacent live qubits, outermost first; with nothing fixed or
    kept it is the whole array as one axis.  It is built with
    ``reshape(copy=False)`` and basic indexing, so it is always a view and
    writes through it land in the state; never a copy.
    """
    shape, index, axes = _live_plan(state.n_qubits, state.fixed, keep)
    return state.amps.reshape(shape, copy=False)[index].transpose(axes)


def _unfix(state: StateVector, q: int) -> None:
    """Drop qubit q from ``state.fixed``, before a kernel writes it."""
    mask, bits = state.fixed
    if mask >> q & 1:
        state.fixed = (mask & ~(1 << q), bits & ~(1 << q))


def _apply_matrix_1q(state: StateVector, terms: _Terms, q: int) -> None:
    """Apply the one-qubit operator ``terms`` to qubit q of ``state`` in place.

    ``terms[r]`` lists the nonzero (coefficient, input half) pairs of output
    half r, so a Pauli factor costs one multiply per half.  Each slab of the
    live view keeps its new halves in temporaries until both input halves
    are read.
    """
    _unfix(state, q)
    v = _live(state, (q,))
    free = v.shape[1:]
    # a product temporary and the two new halves
    buf = np.empty(3 * min(_SLAB, math.prod(free)), dtype=complex)
    for _, index in _slabs(v, 1):
        halves = (v[(0,) + index], v[(1,) + index])
        shape, size = halves[0].shape, halves[0].size
        tmp, new0, new1 = (buf[k * size: (k + 1) * size].reshape(shape) for k in range(3))
        for dst, ((coef, h), *rest) in zip((new0, new1), terms):
            np.multiply(coef, halves[h], out=dst)
            for coef, h in rest:
                np.multiply(coef, halves[h], out=tmp)
                np.add(dst, tmp, out=dst)
        v[(0,) + index] = new0
        v[(1,) + index] = new1


def apply_1q(state: StateVector, gate: str, q: int) -> None:
    """Apply H, X or Z to qubit q."""
    _check_qubit(state, q)
    try:
        terms = _GATE_TERMS[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}, expected one of {sorted(GATES_1Q)}") from None
    _apply_matrix_1q(state, terms, q)


def apply_cnot(state: StateVector, control: int, target: int) -> None:
    """Flip the target bit on basis states where the control bit is 1.

    A fixed control stays fixed: the gate moves amplitudes only between
    entries with the same control bit.
    """
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError("CNOT control and target must differ")
    _unfix(state, target)
    # the control=1 quarters with target bit 0 and 1 swap through a slab temporary
    quarters = _live(state, (control, target))[1, ...]
    buf = np.empty(min(_SLAB, quarters[0].size), dtype=complex)
    for _, index in _slabs(quarters, 1):
        first = quarters[(0,) + index]
        tmp = buf[: first.size].reshape(first.shape)
        tmp[...] = first
        quarters[(0,) + index] = quarters[(1,) + index]
        quarters[(1,) + index] = tmp


def apply_pauli_word(state: StateVector, word: Iterable[tuple[str, int]]) -> None:
    """Apply an ordered list of (factor, qubit) with factor in {I, X, Z, XZ}.

    The sign XZ produces on |1> is retained exactly; nothing is normalized
    away.  The whole word is checked before any factor is applied, and an
    I factor is checked but not applied.
    """
    steps = []
    for factor, q in word:
        _check_qubit(state, q)
        try:
            terms = _PAULI_TERMS[str(factor)]
        except KeyError:
            raise ValueError(f"unknown Pauli factor {factor!r}") from None
        if terms is not _PAULI_TERMS["I"]:
            steps.append((terms, q))
    for terms, q in steps:
        _apply_matrix_1q(state, terms, q)


def measure_probabilities(state: StateVector, q: int) -> tuple[float, float]:
    """Born probabilities (P0, P1) for a computational measurement of qubit q.

    One pass over the live amplitudes, with the summation order of
    ``np.sum`` over the live entries of each half, in index order: every
    part is the squared magnitudes of 2^14 consecutive live entries of one
    half (all of them, if fewer), summed by ``np.sum``, and the parts are
    added in adjacent pairs, level by level.  For power-of-two lengths that
    is numpy's pairwise tree, so the bits do not change.  A part in a slab
    that ``_slabs`` skips is 0.0, as ``np.sum`` gives for it.
    """
    _check_qubit(state, q)
    v = _live(state, (q,))
    half = math.prod(v.shape[1:])
    part = min(_SLAB, half)
    buf = np.empty((2, part))
    sums = np.zeros((half // part, 2))
    for k, index in _slabs(v, 1, short=1):
        halves = v[(slice(None),) + index]
        np.abs(halves, out=buf.reshape(halves.shape))
        np.square(buf, out=buf)
        np.sum(buf, axis=1, out=sums[k])
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0, 0]), float(sums[0, 1])


def measure_qubit(
    state: StateVector,
    q: int,
    *,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float]:
    """Projective computational-basis measurement of qubit q.

    Collapses the state onto the outcome, renormalizes it and records q in
    ``state.fixed``.  Returns (outcome bit, its Born probability).  Exactly
    one of ``forced`` (the requested outcome) or ``rng`` must be given.  An
    impossible outcome raises before anything is written.
    """
    p0, p1 = measure_probabilities(state, q)
    bit, prob = _draw_bit(p0, p1, f"qubit {q}", forced=forced, rng=rng)
    v = _live(state, (q,))
    # numpy's complex division also multiplies by the reciprocal, so this
    # gives its bits, at under half its cost
    scale = 1 / np.sqrt(prob)
    kept, dropped = v[bit, ...], v[1 - bit, ...]
    for _, index in _slabs(kept):
        part = kept[index]
        np.multiply(part, scale, out=part)
    for _, index in _slabs(dropped):
        dropped[index] = 0
    mask, bits = state.fixed
    state.fixed = (mask | 1 << q, bits & ~(1 << q) | bit << q)
    return bit, prob


def bsm(
    state: StateVector,
    a: int,
    b: int,
    *,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, float]:
    """Bell-state measurement of the ordered qubit pair (a, b).

    Implemented as the basis change CNOT(a->b), H(a) followed by two
    computational measurements; the measured qubits are left collapsed in
    the computational basis.  Outcomes are indexed 0..3 in the order
    (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2
    with a as the first ket symbol (BELL_OUTCOME_BITS pins the bit map).
    Returns (outcome, joint Born probability).

    All four steps update the state in place.  An impossible outcome raises
    after the basis change, so the state is then spent.
    """
    if a == b:
        raise ValueError("BSM qubits must differ")
    fa, fb = (None, None) if forced is None else _bell_bits(forced)
    apply_cnot(state, a, b)
    apply_1q(state, "H", a)
    bit_a, pa = measure_qubit(state, a, forced=fa, rng=rng)
    bit_b, pb = measure_qubit(state, b, forced=fb, rng=rng)
    return _bell_outcome(bit_a, bit_b), pa * pb


def partial_trace(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix over the kept qubits, a (2^k, 2^k) array.

    keep[j] becomes bit j of the reduced index, so the first listed qubit is
    the least significant bit of the result.

    The result is the Gram matrix a @ conj(a).T, one gemm, of the
    (2^len(keep), rest) amplitude matrix a over the live view: the kept
    qubits whole, the fixed traced ones at their bits.  So a receiver pair
    of a measured branch reads a handful of amplitudes, while a state with
    nothing fixed is copied whole in kept order, as the reshape needs.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubits in keep list: {list(keep)}")
    for q in keep:
        _check_qubit(state, q)
    a = _live(state, keep[::-1]).reshape(1 << len(keep), -1)
    return a @ a.conj().T


def dm_fidelity(rho: np.ndarray, target: StateVector) -> float:
    """<target|rho|target>, the fidelity of a mixed state against a pure target."""
    dim = target.amps.size
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix of shape {rho.shape} does not fit a {target.n_qubits}-qubit target")
    return float(np.real(np.vdot(target.amps, rho @ target.amps)))


def tensor(*states: StateVector, out: np.ndarray | None = None) -> StateVector:
    """Tensor product; the first argument occupies the lowest qubit indices.

    The product is built in one array, a new one of zeros when ``out`` is
    None, else ``out``, which the result then holds (``amps is out``):
    ``out`` must be a writable C-contiguous complex128 array of the
    product's size.  The first factor is copied in, and each later factor
    widens it in place, block i of the wider product being that factor's
    amplitude i times the product so far.  The chain is built in the block
    where every later factor takes its first nonzero amplitude, which it
    scales last, so no block of a zero amplitude is ever written, and
    within a block only the slabs where the product so far is nonzero
    (``_slabs``, decided once per factor).  What is not written keeps what
    the array held.  A new array of 4 MiB and up comes from ``_zeros``,
    whose 4 KiB pages become resident only when written: such a product
    occupies memory only in the pages where it is nonzero, and one with a
    later factor of zeros writes nothing.  So ``out`` gives the product
    wherever it held 0 where the product is 0; ``controlled_sum`` relies on
    that to add a second product.  Every nonzero entry is the same single
    product as in a chain of ``np.kron``, so its bits are the same; an entry
    left unwritten in a new array holds +0.0 where the chain may give -0.0.
    """
    if not states:
        raise ValueError("tensor needs at least one state")
    n = sum(s.n_qubits for s in states)
    _check_size(n)
    if out is None:
        amps = _zeros(n)
    elif (isinstance(out, np.ndarray) and out.dtype == complex and out.shape == (1 << n,)
          and out.flags.c_contiguous and out.flags.writeable):
        amps = out
    else:
        raise ValueError(f"out must be a writable C-contiguous complex128 array of {1 << n} amplitudes")
    # each later factor's nonzero amplitudes, its first one last, and where
    # the first factor goes
    orders, start, size = [], 0, states[0].amps.size
    for s in states[1:]:
        nz = s.amps.nonzero()[0].tolist()
        if not nz:  # the product is 0: nothing to write
            return StateVector(n, amps, copy=False)
        orders.append(nz[1:] + nz[:1])
        start += nz[0] * size
        size *= s.amps.size
    size = states[0].amps.size
    amps[start:start + size] = states[0].amps
    for s, order in zip(states[1:], orders):
        low = amps[start:start + size]
        parts = [(index, low[index]) for _, index in _slabs(low)]
        start -= order[-1] * size
        for i in order:
            block = amps[start + i * size:start + (i + 1) * size]
            for index, part in parts:
                np.multiply(s.amps[i], part, out=block[index])
        size *= s.amps.size
    return StateVector(n, amps, copy=False)


def controlled_sum(low0: Sequence[StateVector], low1: Sequence[StateVector], c0: complex, c1: complex) -> StateVector:
    """c0 (low0 tensor |0>) + c1 (low1 tensor |1>), the control on top, in one array.

    ``low0`` and ``low1`` are ``tensor`` factors of the same size.  Each
    product is written only in its own half of a new zeroed array, since
    ``tensor`` writes no block of a zero amplitude, so the second fills the
    half the first left zero.  The peak is the state alone, and only the
    signs of some zeros may differ from the sum.
    """
    amps = tensor(*low0, StateVector(1, [c0, 0.0])).amps
    return tensor(*low1, StateVector(1, [0.0, c1]), out=amps)


def pair_state(coeffs: Sequence[complex]) -> StateVector:
    """Two-qubit state of a labeled pair, as pairs sit inside registers.

    ``coeffs[2a + b]`` is the amplitude of |a> on the first pair member, which
    goes on qubit 0, and |b> on the second, on qubit 1.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (4,):
        raise ValueError(f"expected 4 coefficients, got {c.shape}")
    return StateVector(2, c[[0, 2, 1, 3]])
