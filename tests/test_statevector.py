"""Statevector engine tests: gate kernels vs explicit matrices, measurement,
Bell measurement bit-map derivation and partial traces."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadtel import statevector as sv
from routes import resident, traced_peak

RT2 = np.sqrt(2.0)


def random_state(n, rng):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return sv.StateVector(n, amps / np.linalg.norm(amps))


# Independent constructions of the four Bell states on (qubit 1 = first
# member, qubit 0 = second), straight from the definitions.
def bell_amps(kind):
    k = {
        0: [1, 0, 0, 1],  # (|00> + |11>)/sqrt2
        1: [1, 0, 0, -1],  # (|00> - |11>)/sqrt2
        2: [0, 1, 1, 0],  # (|01> + |10>)/sqrt2
        3: [0, 1, -1, 0],  # (|01> - |10>)/sqrt2
    }[kind]
    return np.array(k, dtype=complex) / RT2


# ---------------------------------------------------------------- init_basis

def test_init_basis_single_zero():
    s = sv.init_basis(1, 0)
    assert np.allclose(s.amps, [1, 0])


def test_init_basis_seventeen_zeros():
    s = sv.init_basis(17, 0)
    assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1


def test_init_basis_index_three_is_11():
    s = sv.init_basis(2, 3)
    assert s.amps[3] == 1 and np.count_nonzero(s.amps) == 1


@pytest.mark.parametrize("n, index", [(2, 0), (2, 0b01), (5, 0b10110), (17, 0), (17, 1 << 16 | 0b1001)])
def test_init_basis_records_its_bits(n, index):
    # every qubit is fixed at its bit of the index, so the kernels read one
    # amplitude where a copy with nothing fixed reads them all: the same
    # bytes and results after an H, a CNOT and a forced measurement
    state = sv.init_basis(n, index)
    assert state.fixed == ((1 << n) - 1, index)
    whole = state.copy()
    whole.fixed = (0, 0)
    top = n - 1
    for s in (state, whole):
        sv.apply_1q(s, "H", top)
        sv.apply_cnot(s, top, 0)
    assert state.amps.tobytes() == whole.amps.tobytes()
    assert sv.measure_qubit(state, 0, forced=1) == sv.measure_qubit(whole, 0, forced=1)
    assert state.amps.tobytes() == whole.amps.tobytes()


def test_init_basis_range_errors():
    with pytest.raises(IndexError):
        sv.init_basis(2, 4)
    with pytest.raises(IndexError):
        sv.init_basis(2, -1)
    # one qubit over the hard cap is refused before the 2 GiB allocation
    def refuse_both():
        with pytest.raises(ValueError, match="27 qubits exceeds the 26-qubit cap"):
            sv.init_basis(sv.HARD_QUBIT_CAP + 1, 0)
        with pytest.raises(ValueError, match="27 qubits exceeds the 26-qubit cap"):
            sv.tensor(sv.init_basis(14, 0), sv.init_basis(13, 0))

    _, peak = traced_peak(refuse_both)
    assert peak < 1 << 20


# ------------------------------------------------------------------- 1q gates

def test_hadamard_on_zero():
    s = sv.init_basis(1, 0)
    sv.apply_1q(s, "H", 0)
    assert np.allclose(s.amps, [1 / RT2, 1 / RT2])


def test_hadamard_is_involution_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_state(3, rng)
        q = int(rng.integers(3))
        back = s.copy()
        sv.apply_1q(back, "H", q)
        sv.apply_1q(back, "H", q)
        assert np.linalg.norm(back.amps - s.amps) < 1e-12


def test_x_flips_zero():
    s = sv.init_basis(1, 0)
    sv.apply_1q(s, "X", 0)
    assert np.allclose(s.amps, [0, 1])


def test_apply_1q_rejects_bad_args():
    s = sv.init_basis(2, 0)
    with pytest.raises(IndexError):
        sv.apply_1q(s, "H", 2)
    with pytest.raises(ValueError):
        sv.apply_1q(s, "Y", 0)


# --------------------------------------------------------------------- CNOT

def test_cnot_flips_target_when_control_set():
    # |10> (qubit 1 holds the 1) -> |11>
    s = sv.init_basis(2, 2)
    sv.apply_cnot(s, 1, 0)
    assert np.allclose(s.amps, [0, 0, 0, 1])


def test_cnot_builds_bell_pair():
    # H on the second qubit, CNOT second->first: (|00>+|11>)/sqrt2
    s = sv.init_basis(2, 0)
    sv.apply_1q(s, "H", 1)
    sv.apply_cnot(s, 1, 0)
    assert np.allclose(s.amps, [1 / RT2, 0, 0, 1 / RT2])


def test_cnot_fanout_builds_17_qubit_ghz():
    s = sv.init_basis(17, 0)
    sv.apply_1q(s, "H", 16)
    for t in range(16):
        sv.apply_cnot(s, 16, t)
    nz = np.flatnonzero(np.abs(s.amps) > 1e-14)
    assert list(nz) == [0, (1 << 17) - 1]
    assert np.allclose(s.amps[nz], 1 / RT2)


def test_cnot_rejects_equal_control_target():
    with pytest.raises(ValueError):
        sv.apply_cnot(sv.init_basis(2, 0), 1, 1)


# -------------------------------------------------------------- Pauli words

def test_xz_word_recovers_coefficient_order():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c /= np.linalg.norm(c)
    # c0|11> - c1|10> - c2|01> + c3|00> on (first=qubit1, second=qubit0)
    state = sv.StateVector(2, [c[3], -c[2], -c[1], c[0]])
    sv.apply_pauli_word(state, [("XZ", 1), ("XZ", 0)])
    assert np.allclose(state.amps, c, atol=1e-12)


def test_identity_word_is_noop():
    rng = np.random.default_rng(12)
    s = random_state(3, rng)
    got = s.copy()
    sv.apply_pauli_word(got, [("I", 0), ("I", 2)])
    assert np.array_equal(got.amps, s.amps)


def test_identity_factors_are_checked_but_not_applied():
    state = random_state(20, np.random.default_rng(14))
    before = state.amps.tobytes()
    word = [("I", 0), ("XZ", 3), ("I", 19), ("X", 0), ("I", 3)]
    want = state.amps
    for f, q in word:  # the unskipped product: every factor applied, I too
        want = textbook_1q(want, sv.PAULI_FACTOR_MATRICES[f], q)
    got = state.copy()
    sv.apply_pauli_word(got, word)
    assert np.array_equal(got.amps, want)
    # an all-I word makes no pass over the state, so it allocates none of the
    # 768 KiB of slab temporaries that a factor's pass takes at 20 qubits
    _, peak = traced_peak(lambda: sv.apply_pauli_word(state, [("I", 0), ("I", 19)]))
    assert peak < 64 << 10
    # an I factor is still checked, before any factor is applied
    with pytest.raises(IndexError, match="qubit 20 out of range"):
        sv.apply_pauli_word(state, [("X", 0), ("I", 20)])
    assert state.amps.tobytes() == before


def test_xz_on_one_gives_minus_zero():
    s = sv.init_basis(1, 1)
    sv.apply_pauli_word(s, [("XZ", 0)])
    assert np.allclose(s.amps, [-1, 0])


def test_pauli_word_rejects_unknown_factor():
    with pytest.raises(ValueError):
        sv.apply_pauli_word(sv.init_basis(1, 0), [("Y", 0)])


# -------------------------------------------------------------- measurement

def test_measure_bell_pair_is_unbiased():
    s = sv.StateVector(2, bell_amps(0))
    for q in (0, 1):
        p0, p1 = sv.measure_probabilities(s, q)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_measure_ghz_forced_zero_collapses_everything():
    s = sv.init_basis(17, 0)
    sv.apply_1q(s, "H", 16)
    for t in range(16):
        sv.apply_cnot(s, 16, t)
    bit, prob = sv.measure_qubit(s, 16, forced=0)
    assert bit == 0 and abs(prob - 0.5) < 1e-12
    assert abs(s.amps[0] - 1) < 1e-12 and np.count_nonzero(np.abs(s.amps) > 1e-14) == 1


def test_forcing_impossible_branch_raises():
    with pytest.raises(sv.ImpossibleBranchError):
        sv.measure_qubit(sv.init_basis(1, 1), 0, forced=0)
    # refused before the state is written, and without a copy of it: one
    # of 20 qubits would be 16 MiB
    state = sv.init_basis(20, 1 << 19)
    before = state.amps.tobytes()
    def refuse():
        with pytest.raises(sv.ImpossibleBranchError, match="qubit 19 outcome 0"):
            sv.measure_qubit(state, 19, forced=0)

    _, peak = traced_peak(refuse)
    assert peak < 1 << 20
    assert state.amps.tobytes() == before


def test_measurement_completeness_on_random_states():
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_state(4, rng)
        q = int(rng.integers(4))
        p0, p1 = sv.measure_probabilities(s, q)
        assert abs(p0 + p1 - 1) < 1e-12


# ----------------------------------------------------------------------- BSM

def test_bell_bit_map_derivation():
    """Re-derive the bit-pair -> Bell outcome map and pin the frozen constant.

    Running the basis change CNOT(1->0), H(1) on each prepared Bell state
    leaves a deterministic bit pair; that empirical map must equal
    BELL_OUTCOME_BITS.
    """
    derived = {}
    for kind in range(4):
        st = sv.StateVector(2, bell_amps(kind))
        sv.apply_cnot(st, 1, 0)
        sv.apply_1q(st, "H", 1)
        idx = int(np.flatnonzero(np.abs(st.amps) > 1e-12)[0])
        assert abs(abs(st.amps[idx]) - 1) < 1e-12
        derived[kind] = ((idx >> 1) & 1, idx & 1)  # (first qubit bit, second qubit bit)
    assert tuple(derived[k] for k in range(4)) == sv.BELL_OUTCOME_BITS


@pytest.mark.parametrize("kind", range(4))
def test_bsm_identifies_prepared_bell_states(kind):
    st = sv.StateVector(2, bell_amps(kind))
    outcome, prob = sv.bsm(st, 1, 0, forced=kind)
    assert outcome == kind and abs(prob - 1) < 1e-12


def test_bsm_on_00_splits_between_kappa_outcomes():
    # brute-force expansion: |00> = (bell0 + bell1)/sqrt2
    s00 = sv.init_basis(2, 0)
    expected = [abs(np.vdot(bell_amps(k), s00.amps)) ** 2 for k in range(4)]
    assert np.allclose(expected, [0.5, 0.5, 0, 0], atol=1e-12)
    for k in (0, 1):
        _, prob = sv.bsm(s00.copy(), 1, 0, forced=k)
        assert abs(prob - expected[k]) < 1e-12
    for k in (2, 3):
        with pytest.raises(sv.ImpossibleBranchError):
            sv.bsm(s00.copy(), 1, 0, forced=k)


def test_bsm_completeness_on_random_states():
    rng = np.random.default_rng(17)
    s = random_state(4, rng)
    probs = [sv.bsm(s.copy(), 0, 3, forced=k)[1] for k in range(4)]
    assert abs(sum(probs) - 1) < 1e-12


def test_bsm_rejects_equal_qubits_and_bad_outcome():
    s = sv.init_basis(2, 0)
    with pytest.raises(ValueError):
        sv.bsm(s, 1, 1, forced=0)
    with pytest.raises(ValueError):
        sv.bsm(s, 1, 0, forced=4)


# -------------------------------------------------------------- partial trace

def test_partial_trace_of_bell_pair_is_maximally_mixed():
    s = sv.StateVector(2, bell_amps(0))
    for q in (0, 1):
        dm = sv.partial_trace(s, [q])
        assert np.allclose(dm, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keeping_everything():
    dm = sv.partial_trace(sv.init_basis(1, 0), [0])
    assert np.allclose(dm, [[1, 0], [0, 0]])


def test_dm_fidelity_refuses_a_matrix_of_another_size():
    target = sv.init_basis(2, 0)
    assert sv.dm_fidelity(sv.partial_trace(target, [0, 1]), target) == 1
    with pytest.raises(ValueError, match="2-qubit target"):
        sv.dm_fidelity(sv.partial_trace(target, [0]), target)


def test_partial_trace_rejects_empty_and_duplicate_keep():
    s = sv.init_basis(2, 0)
    with pytest.raises(ValueError):
        sv.partial_trace(s, [])
    with pytest.raises(ValueError):
        sv.partial_trace(s, [0, 0])


def test_partial_trace_is_physical_on_random_states():
    rng = np.random.default_rng(29)
    for _ in range(5):
        s = random_state(4, rng)
        keep = list(rng.choice(4, size=2, replace=False))
        dm = sv.partial_trace(s, keep)
        assert np.allclose(dm, dm.conj().T, atol=1e-10)
        assert abs(np.trace(dm) - 1) < 1e-10
        assert np.linalg.eigvalsh(dm).min() >= -1e-9


def test_partial_trace_bit_order_follows_keep_list():
    # |q1 q0> = |10>: keep [0, 1] -> reduced index bit0 = qubit 0
    s = sv.init_basis(2, 2)
    dm01 = sv.partial_trace(s, [0, 1])
    assert dm01[2, 2] == 1
    dm10 = sv.partial_trace(s, [1, 0])
    assert dm10[1, 1] == 1


def reference_partial_trace(state, keep):
    """The whole-state route: transpose the kept axes to the front, then one gemm."""
    n = state.n_qubits
    kept_axes = [n - 1 - q for q in reversed(keep)]
    rest = [ax for ax in range(n) if ax not in kept_axes]
    a = state.amps.reshape([2] * n).transpose(kept_axes + rest).reshape(1 << len(keep), -1)
    return a @ a.conj().T


@pytest.mark.parametrize("n, keep", [
    (19, [5, 3]), (19, [11, 9]), (19, [17, 15]),  # each receiver pair at s=3
    (20, [0, 1]), (20, [19, 18]),  # block 0's low pair, the top pair
    (20, [3, 5]), (20, [2, 13, 7]),  # a reversed order, a non-adjacent list
    (19, [5, 3, 11, 9, 17, 15]),  # all 2s receiver qubits at s=3, the joint receiver state
    (2, [0]), (2, [1, 0]), (6, [5, 3]), (6, [0, 4, 2]), (6, list(range(6))),
    (13, [5, 3]), (13, [11, 9]), (13, [12, 0]), (13, [5, 3, 11, 9]),
])
def test_partial_trace_matches_the_whole_state_route(n, keep):
    # with nothing fixed the live view is the whole array: the same matrix
    # a and the same gemm, so the same bits
    state = random_state(n, np.random.default_rng(90 + len(keep)))
    before = state.amps.tobytes()
    got = sv.partial_trace(state, keep)
    assert state.amps.tobytes() == before
    assert got.tobytes() == reference_partial_trace(state, keep).tobytes()


def test_partial_trace_of_a_measured_state_reads_only_its_live_view():
    # 20 qubits are 16 MiB; with 18 of them measured the receiver pair's
    # live view is 4 amplitudes, and a copy of the whole array would be seen
    state = random_state(20, np.random.default_rng(97))
    for q in range(20):
        if q not in (3, 5):
            sv.measure_qubit(state, q, forced=q % 2)
    dm, peak = traced_peak(lambda: sv.partial_trace(state, [5, 3]))
    assert peak < 64 << 10
    assert dm.tobytes() == reference_partial_trace(state, [5, 3]).tobytes()


# --------------------------------------------------- kernels vs matrix oracle

def full_1q_matrix(m, q, n):
    full = np.array([[1]], dtype=complex)
    for k in range(n):  # little-endian: later krons sit at higher qubits
        full = np.kron(m if k == q else np.eye(2), full)
    return full


def full_cnot_matrix(control, target, n):
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1 << n):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        full[j, i] = 1
    return full


def test_gate_kernels_match_matrix_oracle():
    rng = np.random.default_rng(31)
    for _ in range(4):
        s = random_state(3, rng)
        for name, m in sv.GATES_1Q.items():
            for q in range(3):
                _, got = run_in_place(sv.apply_1q, s, name, q)
                want = full_1q_matrix(m, q, 3) @ s.amps
                assert np.linalg.norm(got.amps - want) < 1e-12
        for c, t in itertools.permutations(range(3), 2):
            _, got = run_in_place(sv.apply_cnot, s, c, t)
            want = full_cnot_matrix(c, t, 3) @ s.amps
            assert np.linalg.norm(got.amps - want) < 1e-12
        for f, m in sv.PAULI_FACTOR_MATRICES.items():
            _, got = run_in_place(sv.apply_pauli_word, s, [(f, 1)])
            want = full_1q_matrix(m, 1, 3) @ s.amps
            assert np.linalg.norm(got.amps - want) < 1e-12


# ------------------------------------------------ kernels on multi-slab states

# 2^17 amplitudes are several of the kernels' slabs (2^14 amplitude pairs), so
# these cases walk the slab loops that 3-qubit states never leave.  The
# textbook expressions work on whole reshaped views and must agree bit for bit.
SLAB_N = 17
SLAB_CNOT_PAIRS = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 4), (3, 12), (12, 3), (7, 10), (13, 14),
                   (14, 13), (0, 16), (16, 0), (15, 16), (16, 15), (8, 9)]


@pytest.fixture(scope="module")
def slab_state():
    return random_state(SLAB_N, np.random.default_rng(53))


def run_in_place(kernel, state, *args, **kwargs):
    """Run a kernel on a copy of ``state``: (its result, the copy it updated).

    The kernel must update the copy through its own amplitude array, so the
    copy still holds that array afterwards.
    """
    st = state.copy()
    amps = st.amps
    result = kernel(st, *args, **kwargs)
    assert st.amps is amps
    return result, st


def textbook_1q(amps, m, q):
    """m on qubit q.  Each output half sums the products of m's nonzero
    entries only: a zero entry's product, added, could turn the sign of a
    zero output, where an input half is all 0."""
    v = amps.reshape(-1, 2, 1 << q)
    out = np.empty_like(v)
    for r in (0, 1):
        first, *rest = (m[r, h] * v[:, h, :] for h in (0, 1) if m[r, h] != 0)
        out[:, r, :] = first + rest[0] if rest else first
    return out.reshape(-1)


def textbook_cnot(amps, control, target):
    idx = np.arange(amps.size)
    return amps[np.where((idx >> control) & 1, idx ^ (1 << target), idx)]


def live_entries(amps, fixed):
    """Where the bits of the fixed qubits, fixed = (mask, bits), agree with ``bits``."""
    mask, bits = fixed
    return (np.arange(amps.size) & mask) == bits


def textbook_probabilities(amps, q, fixed=(0, 0)):
    """One np.sum of squared magnitudes over the live entries of each half of
    qubit q, in index order: every entry where no other fixed qubit has the
    other bit."""
    mask, bits = fixed
    other = ~(1 << q)
    live = live_entries(amps, (mask & other, bits & other))
    half = (np.arange(amps.size) >> q) & 1
    return tuple(float(np.sum(np.abs(amps[live & (half == bit)]) ** 2)) for bit in (0, 1))


def textbook_collapse(amps, q, bit, prob):
    v = amps.reshape(-1, 2, 1 << q)
    out = np.zeros_like(v)
    out[:, bit, :] = v[:, bit, :] / np.sqrt(prob)
    return out.reshape(-1)


@pytest.mark.parametrize("q", range(SLAB_N))
def test_one_qubit_kernels_on_multi_slab_state(slab_state, q):
    amps = slab_state.amps
    for name in ("H", "X", "Z"):
        result, got = run_in_place(sv.apply_1q, slab_state, name, q)
        assert result is None
        assert np.array_equal(got.amps, textbook_1q(amps, sv.GATES_1Q[name], q))
    other = (q + 9) % SLAB_N
    for f in ("I", "X", "Z", "XZ"):
        result, got = run_in_place(sv.apply_pauli_word, slab_state, [(f, q)])
        assert result is None
        assert np.array_equal(got.amps, textbook_1q(amps, sv.PAULI_FACTOR_MATRICES[f], q))
        # a later factor works in place on the word's own output
        _, got = run_in_place(sv.apply_pauli_word, slab_state, [(f, q), ("XZ", other), (f, q)])
        want = amps
        for g, r in [(f, q), ("XZ", other), (f, q)]:
            want = textbook_1q(want, sv.PAULI_FACTOR_MATRICES[g], r)
        assert np.array_equal(got.amps, want)


@pytest.mark.parametrize("q", range(SLAB_N))
def test_measurement_kernels_on_multi_slab_state(slab_state, q):
    amps = slab_state.amps
    before = amps.tobytes()
    probs = sv.measure_probabilities(slab_state, q)
    assert amps.tobytes() == before
    assert probs == textbook_probabilities(amps, q)
    for bit in (0, 1):
        result, collapsed = run_in_place(sv.measure_qubit, slab_state, q, forced=bit)
        assert result == (bit, probs[bit])
        assert np.array_equal(collapsed.amps, textbook_collapse(amps, q, bit, probs[bit]))


@pytest.mark.parametrize("control, target", SLAB_CNOT_PAIRS)
def test_cnot_on_multi_slab_state(slab_state, control, target):
    result, got = run_in_place(sv.apply_cnot, slab_state, control, target)
    assert result is None
    assert np.array_equal(got.amps, textbook_cnot(slab_state.amps, control, target))


# ------------------------------------------ kernels on states with zero slabs

# A kernel skips every slab in which the amplitudes it reads are all 0.  At 18
# qubits a one-qubit kernel reads 8 slabs of 2^14 amplitude pairs, and a CNOT 4
# of 2^14 pairs of its control=1 quarters.  Each case sets a seeded choice of
# slabs to 0: in some nothing, in some one of the two halves (or quarters) the
# kernel reads, in some all of it.
SPARSE_N = 18
SPARSE_QUBITS = [0, 1, 6, 13, 14, 15, 17]
SPARSE_CNOT_PAIRS = [(0, 1), (1, 0), (0, 17), (17, 0), (16, 17), (17, 16), (3, 12), (15, 2)]


def slab_entries(n, keep, at=()):
    """The amplitude indices of each slab that a kernel on qubits ``keep``
    reads, in order, each shaped (2^kept, -1) with the kept bits first.

    ``at`` takes the leading qubits of ``keep`` at a bit, as ``apply_cnot``
    reads only the quarters where its control is 1.
    """
    # no amplitude is 0, so _slabs yields every slab
    positions = sv._live(sv.StateVector(n, np.arange(1, (1 << n) + 1)), keep)[at + (...,)]
    kept = len(keep) - len(at)
    slabs = [(k, positions[(slice(None),) * kept + index]) for k, index in sv._slabs(positions, kept)]
    assert [k for k, _ in slabs] == list(range(len(slabs)))
    return [p.real.astype(np.int64).reshape(1 << kept, -1) - 1 for _, p in slabs]


def sparse_state(n, slabs, seed):
    """A random state in which each slab has nothing, one of its two parts or
    all of it set to 0, in a seeded order that gives each choice to a
    quarter of the slabs."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    parts = [(), (0,), (1,), (0, 1)]
    for entries, choice in zip(slabs, rng.permutation(np.arange(len(slabs)) % 4)):
        amps[entries[list(parts[choice])]] = 0
    return sv.StateVector(n, amps / np.linalg.norm(amps))


def assert_slabwise(got, want, slabs, amps):
    """``got`` holds the bytes of ``want`` on every slab where the input
    ``amps`` has a nonzero entry, and the value 0 on the others.  Entries in
    no slab are not read, and hold the bytes of ``want`` too."""
    read = np.zeros(got.size, dtype=bool)
    skipped = 0
    for entries in slabs:
        entries = entries.ravel()
        read[entries] = True
        if amps[entries].any():
            assert got[entries].tobytes() == want[entries].tobytes()
        else:
            skipped += 1
            assert not got[entries].any()
    assert skipped
    assert got[~read].tobytes() == want[~read].tobytes()


@pytest.mark.parametrize("q", SPARSE_QUBITS)
def test_one_qubit_kernels_skip_the_zero_slabs(q):
    slabs = slab_entries(SPARSE_N, (q,))
    state = sparse_state(SPARSE_N, slabs, 200 + q)
    amps = state.amps
    for name in ("H", "X", "Z"):
        _, got = run_in_place(sv.apply_1q, state, name, q)
        assert_slabwise(got.amps, textbook_1q(amps, sv.GATES_1Q[name], q), slabs, amps)
    word = [("XZ", q), ("Z", q)]
    _, got = run_in_place(sv.apply_pauli_word, state, word)
    assert_slabwise(got.amps, textbook_word(amps, word)[1], slabs, amps)


@pytest.mark.parametrize("q", SPARSE_QUBITS)
def test_measurements_skip_the_zero_slabs(q):
    slabs = slab_entries(SPARSE_N, (q,))
    state = sparse_state(SPARSE_N, slabs, 220 + q)
    amps = state.amps
    probs = sv.measure_probabilities(state, q)
    assert probs == textbook_probabilities(amps, q)
    # the collapse tests the kept half and the zeroed half of a slab apart
    halves = [entries[h:h + 1] for entries in slabs for h in (0, 1)]
    for bit in (0, 1):
        result, got = run_in_place(sv.measure_qubit, state, q, forced=bit)
        assert result == (bit, probs[bit])
        assert_slabwise(got.amps, textbook_collapse(amps, q, bit, probs[bit]), halves, amps)


@pytest.mark.parametrize("control, target", SPARSE_CNOT_PAIRS)
def test_cnot_skips_the_zero_slabs(control, target):
    slabs = slab_entries(SPARSE_N, (control, target), at=(1,))
    state = sparse_state(SPARSE_N, slabs, 240 + SPARSE_N * control + target)
    _, got = run_in_place(sv.apply_cnot, state, control, target)
    assert_slabwise(got.amps, textbook_cnot(state.amps, control, target), slabs, state.amps)


def test_nonzero_is_false_only_for_plus_zero():
    # the last entry alone, so a test of part of the slab misses it
    slab = np.zeros(sv._SLAB, dtype=complex)
    assert not sv._nonzero(slab)
    assert sv._nonzero(np.full(sv._SLAB, complex(-0.0, -0.0)))
    for value in (-0.0, complex(0, -0.0), 5e-324, 5e-324j, np.nan):
        one = slab.copy()
        one[-1] = value
        assert sv._nonzero(one), value


def test_slabs_skip_only_the_slabs_of_plus_zero():
    v = np.zeros((5, sv._SLAB), dtype=complex)
    v[1] = -0.0
    v[2, -1] = 5e-324
    v[3, -1] = np.nan
    assert [k for k, _ in sv._slabs(v.reshape(-1))] == [1, 2, 3]


def test_copy_is_byte_identical_and_keeps_fixed():
    # 17 qubits, 8 slabs; qubit 16 fixed at 1, so slabs 0-3 are +0.0.  Of
    # the others, one is +0.0, one -0.0, one holds a subnormal and one a NaN
    v = np.zeros((8, sv._SLAB), dtype=complex)
    v[5] = -0.0
    v[6, -1] = 5e-324
    v[7, 3] = np.nan
    state = sv.StateVector(17, v.reshape(-1))
    state.fixed = (1 << 16, 1 << 16)
    copy = state.copy()
    assert copy.fixed == state.fixed and not np.shares_memory(copy.amps, state.amps)
    assert copy.amps.tobytes() == state.amps.tobytes()


@pytest.mark.parametrize("fix", [False, True], ids=["qubit 0 kept", "qubit 0 fixed"])
def test_slabs_test_a_strided_last_axis_as_any_does(fix, monkeypatch):
    # qubit 0 kept or fixed leaves the free axes strided, so the integer
    # test does not apply: every zero there is -0.0, which it would count
    slabs = slab_entries(SPARSE_N, (0,))
    state = sparse_state(SPARSE_N, slabs, 260)
    if fix:
        sv.measure_qubit(state, 0, forced=1)
    kept = 0 if fix else 1
    v = sv._live(state, () if fix else (0,))
    v[v == 0] = -0.0
    got = list(sv._slabs(v, kept))
    assert v[(slice(None),) * kept + got[0][1]].strides[-1] != v.itemsize
    monkeypatch.setattr(sv, "_nonzero", lambda slab: bool(slab.any()))
    assert got == list(sv._slabs(v, kept))
    assert len(got) < len(slabs)


def test_measure_qubit_on_one_qubit_state():
    s = sv.StateVector(1, [0.6, 0.8j])
    for bit in (0, 1):
        (got_bit, prob), collapsed = run_in_place(sv.measure_qubit, s, 0, forced=bit)
        assert (got_bit, prob) == (bit, textbook_probabilities(s.amps, 0)[bit])
        assert np.array_equal(collapsed.amps, textbook_collapse(s.amps, 0, bit, prob))
        assert collapsed.amps[bit] != 0 and collapsed.amps[1 - bit] == 0


# ---------------------------------------------- summation order and in place

@pytest.mark.parametrize("n, measured", [(n, ()) for n in (1, 2, 3, 4, 5, 6, 20)] + [(20, (0, 2))],
                         ids=["1", "2", "3", "4", "5", "6", "20", "20-after-measuring-0-and-2"])
def test_measure_probabilities_keeps_the_whole_half_summation_order(n, measured):
    # textbook_probabilities sums the live entries of each half with one
    # np.sum; with nothing fixed that is the whole half.  At 20 qubits a half
    # is 32 parts of 2^14 entries: runs of one half below and above the part
    # length, and five levels of pairwise combining.  With qubits 0 and 2
    # fixed a half has 2^17 live entries, none of them adjacent in memory.
    state = random_state(n, np.random.default_rng(60 + n))
    for q in measured:
        sv.measure_qubit(state, q, forced=1)
    assert state.fixed == (sum(1 << q for q in measured),) * 2
    for q in range(n):
        assert sv.measure_probabilities(state, q) == textbook_probabilities(state.amps, q, state.fixed), q


def textbook_measure(amps, q, bit, fixed=(0, 0)):
    """(the measurement's (bit, probability), the collapsed amplitudes)."""
    prob = textbook_probabilities(amps, q, fixed)[bit]
    return (bit, prob), textbook_collapse(amps, q, bit, prob)


def textbook_bsm(amps, a, b, outcome):
    """(the Bell measurement's (outcome, probability), the collapsed amplitudes).

    The second bit's probability is over the live entries: the first
    measured qubit is fixed by then."""
    amps = textbook_1q(textbook_cnot(amps, a, b), sv.GATES_1Q["H"], a)
    bit_a, bit_b = sv.BELL_OUTCOME_BITS[outcome]
    (_, pa), amps = textbook_measure(amps, a, bit_a)
    (_, pb), amps = textbook_measure(amps, b, bit_b, (1 << a, bit_a << a))
    return (outcome, pa * pb), amps


def textbook_word(amps, word):
    for f, q in word:
        amps = textbook_1q(amps, sv.PAULI_FACTOR_MATRICES[f], q)
    return None, amps


def kernel_cases(n):
    """(name, call, textbook) triples.  Each call runs a kernel on a state;
    its textbook maps the amplitudes to (the kernel's result, the new amplitudes)."""
    top = n - 1
    word = [("XZ", 1), ("X", top), ("XZ", 1)]
    cases = [(f"{g} q{q}", lambda s, g=g, q=q: sv.apply_1q(s, g, q),
              lambda a, g=g, q=q: (None, textbook_1q(a, sv.GATES_1Q[g], q)))
             for g in ("H", "X", "Z") for q in (1, top)]
    cases += [(f"CNOT {c}->{t}", lambda s, c=c, t=t: sv.apply_cnot(s, c, t),
               lambda a, c=c, t=t: (None, textbook_cnot(a, c, t)))
              for c, t in ((top, 1), (0, top))]
    cases += [
        ("word", lambda s: sv.apply_pauli_word(s, word), lambda a: textbook_word(a, word)),
        ("measure q1=0", lambda s: sv.measure_qubit(s, 1, forced=0), lambda a: textbook_measure(a, 1, 0)),
        (f"measure q{top}=1", lambda s: sv.measure_qubit(s, top, forced=1),
         lambda a: textbook_measure(a, top, 1)),
        (f"bsm (1, {top})=3", lambda s: sv.bsm(s, 1, top, forced=3), lambda a: textbook_bsm(a, 1, top, 3)),
        (f"bsm ({top}, 0)=1", lambda s: sv.bsm(s, top, 0, forced=1), lambda a: textbook_bsm(a, top, 0, 1)),
    ]
    return cases


@pytest.mark.parametrize("n", [3, 20])
def test_kernels_update_the_state_they_are_given(n):
    # each kernel writes the textbook result, byte for byte, into the array
    # of the state it is given; at 20 qubits (16 MiB) it allocates only its
    # slab temporaries, under 1 MiB, never a copy of the state
    state = random_state(n, np.random.default_rng(70 + n))
    for name, call, textbook in kernel_cases(n):
        want_result, want = textbook(state.amps)
        st = state.copy()
        amps = st.amps
        result, peak = traced_peak(lambda: call(st))
        assert result == want_result, name
        assert st.amps is amps and amps.tobytes() == want.tobytes(), name
        assert peak < 1 << 20, name


def test_empty_pauli_word_leaves_the_state_untouched():
    s = random_state(3, np.random.default_rng(59))
    amps = s.amps
    before = amps.tobytes()
    assert sv.apply_pauli_word(s, []) is None
    assert s.amps is amps and amps.tobytes() == before


# ------------------------------------------------ fixed qubits, live view

@st.composite
def kernel_runs(draw):
    """(qubit count, state seed, steps): gates, Pauli words, forced
    measurements and copies on a 5-9 qubit state.  The few qubits make gates
    on measured qubits and repeated measurements common."""
    n = draw(st.integers(5, 9))
    qubit = st.integers(0, n - 1)
    step = st.one_of(
        st.tuples(st.sampled_from(sorted(sv.GATES_1Q)), qubit),
        st.tuples(st.just("CNOT"), st.lists(qubit, min_size=2, max_size=2, unique=True)),
        st.tuples(st.just("word"), st.lists(st.tuples(st.sampled_from(sorted(sv.PAULI_FACTOR_MATRICES)), qubit),
                                            max_size=3)),
        st.tuples(st.just("measure"), st.tuples(qubit, st.integers(0, 1))),
        st.tuples(st.just("copy"), st.none()),
    )
    return n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.lists(step, min_size=1, max_size=20))


def step_call(kind, arg):
    """The kernel call of one step of ``kernel_runs``, as a function of the state."""
    if kind == "CNOT":
        return lambda s: sv.apply_cnot(s, *arg)
    if kind == "word":
        return lambda s: sv.apply_pauli_word(s, arg)
    if kind == "measure":
        return lambda s: sv.measure_qubit(s, arg[0], forced=arg[1])
    return lambda s: sv.apply_1q(s, kind, arg)


# How far a measurement on the live view may be from one on the whole array:
# its probability sums the same squares in another order, a few ulps for a
# normalized state, and the collapsed amplitudes are divided by its root.
LIVE_MEASURE_TOL = 1e-14


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(run=kernel_runs())
def test_fixed_qubits_leave_the_whole_state_in_the_array(run):
    # after every step, each amplitude outside the live set is exactly 0,
    # and the step agrees with the same kernel run on a fresh StateVector of
    # the same amplitudes, which has nothing fixed: gates byte for byte on
    # the live entries (outside them both are 0, where the whole-array run
    # may write -0.0), measurements within LIVE_MEASURE_TOL
    n, seed, steps = run
    state = random_state(n, np.random.default_rng(seed))
    for kind, arg in steps:
        if kind == "copy":
            copy = state.copy()
            assert copy.fixed == state.fixed and copy.amps is not state.amps
            assert copy.amps.tobytes() == state.amps.tobytes()
            state = copy
            continue
        call = step_call(kind, arg)
        reference = sv.StateVector(n, state.amps)
        assert reference.fixed == (0, 0)
        try:
            want = call(reference)
        except sv.ImpossibleBranchError:
            before = state.amps.tobytes(), state.fixed
            with pytest.raises(sv.ImpossibleBranchError):
                call(state)
            assert (state.amps.tobytes(), state.fixed) == before
            continue
        got = call(state)
        live = live_entries(state.amps, state.fixed)
        assert not state.amps[~live].any(), (kind, arg)
        if kind == "measure":
            q, bit = arg
            assert state.fixed[0] >> q & 1 and state.fixed[1] >> q & 1 == bit
            assert got[0] == want[0] and abs(got[1] - want[1]) < LIVE_MEASURE_TOL
            assert np.abs(state.amps - reference.amps).max() < LIVE_MEASURE_TOL
        else:
            assert got is None
            assert np.array_equal(state.amps, reference.amps), (kind, arg)
            assert state.amps[live].tobytes() == reference.amps[live].tobytes(), (kind, arg)


def test_live_view_is_a_view_that_skips_the_fixed_qubits():
    state = random_state(9, np.random.default_rng(104))
    sv.measure_qubit(state, 4, forced=0)
    sv.measure_qubit(state, 0, forced=1)
    v = sv._live(state, (6, 1))
    # kept qubits 6 then 1, then the runs 8-7, 5 and 3-2
    assert v.shape == (2, 2, 4, 2, 4) and np.shares_memory(v, state.amps)
    idx = np.arange(state.amps.size).reshape(2, 2, 2, 2, 2, 2, 2, 2, 2)  # qubit 8 first
    want = idx[:, :, :, :, 0, :, :, :, 1].transpose(2, 6, 0, 1, 3, 4, 5).reshape(v.shape)
    assert np.array_equal(v, state.amps[want])
    # writes through the view land in the state's array
    v[1, 0] = 0
    assert not state.amps[want[1, 0]].any() and state.amps[want[0]].all()
    # with every qubit fixed the view is the one live amplitude, still a view
    for q in range(9):
        sv.measure_qubit(state, q, forced=int(q in (0, 1, 6)))
    one = sv._live(state)
    assert one.shape == () and np.shares_memory(one, state.amps)
    before = state.amps.copy()
    np.negative(one, out=one)
    assert np.array_equal(state.amps, np.where(np.arange(512) == 67, -before, before))


# ------------------------------------------------------- Bell-pair parities

# A 15-qubit state with two pairs recorded: qubits (2, 3) odd and (11, 12)
# even.  Every amplitude whose two bits break its pair's parity is 0, so the
# live view holds 2^13 of the 2^15 amplitudes.  Each kernel runs on it and
# on a state of the same amplitudes with no pairs, which reads them all.
PAIRS_N = 15
PAIR_PARITIES = {2: 1, 11: 0}  # each pair's lower member: its parity


def pairs_record(parities):
    """``StateVector.pairs`` for the pairs {lower member: parity}."""
    return sum(1 << q for q in parities), sum(p << q for q, p in parities.items())


PAIRS = pairs_record(PAIR_PARITIES)


def paired_state(seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << PAIRS_N) + 1j * rng.standard_normal(1 << PAIRS_N)
    idx = np.arange(amps.size)
    for q, parity in PAIR_PARITIES.items():
        amps[(idx >> q ^ idx >> q + 1) & 1 != parity] = 0
    state = sv.StateVector(PAIRS_N, amps / np.linalg.norm(amps))
    state.pairs = PAIRS
    return state


def unpaired(state):
    return sv.StateVector(state.n_qubits, state.amps)


def assert_within_ulps(got, want, ulps=4):
    got, want = (np.atleast_1d(np.asarray(a, dtype=complex)) for a in (got, want))
    np.testing.assert_array_max_ulp(got.view(float), want.view(float), ulps)


def test_live_view_of_pairs_is_the_amplitudes_they_allow():
    state = paired_state(120)
    live = sv._live(state)
    assert live.size == 1 << PAIRS_N - 2 and np.shares_memory(live, state.amps)
    assert np.count_nonzero(live) == np.count_nonzero(state.amps) == live.size
    assert state.copy().pairs == PAIRS
    # a kept or fixed member leaves its pair out of the view
    assert sv._live(state, (3,)).size == 1 << PAIRS_N - 1
    sv.measure_qubit(state, 12, forced=1)
    assert sv._live(state).size == 1 << PAIRS_N - 2


@st.composite
def live_cases(draw):
    """(n, fixed, {pair's lower member: parity}, keep): disjoint adjacent
    pairs, random fixed bits and a random ordered ``keep``."""
    n = draw(st.integers(2, 9))
    parities, q = {}, 0
    while q < n - 1:
        if draw(st.booleans()):
            parities[q] = draw(st.integers(0, 1))
            q += 1
        q += 1
    mask = draw(st.integers(0, (1 << n) - 1))
    bits = draw(st.integers(0, (1 << n) - 1)) & mask
    keep = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return n, (mask, bits), parities, tuple(keep)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=live_cases())
@example(case=(2, (0, 0), {0: 1}, ()))
@example(case=(9, (0, 0), {0: 0, 3: 1, 7: 1}, ()))
@example(case=(9, (0b000100000, 0b000100000), {0: 1, 2: 0, 7: 0}, (8, 1)))
def test_live_view_reads_the_addresses_the_records_allow(case):
    # the view of a state whose amplitude i is i holds the basis indices
    # that a brute force over all of them allows: each fixed qubit outside
    # keep at its bit, and each pair with no fixed or kept member at its
    # parity
    n, (mask, bits), parities, keep = case
    state = sv.StateVector(n, np.arange(1 << n))
    state.fixed, state.pairs = (mask, bits), pairs_record(parities)
    taken = mask | sum(1 << q for q in keep)
    viewed = {q: p for q, p in parities.items() if not taken >> q & 3}
    allowed = [i for i in range(1 << n)
               if not (i ^ bits) & mask & ~sum(1 << q for q in keep)
               and all((i >> q ^ i >> q + 1) & 1 == p for q, p in viewed.items())]
    v = sv._live(state, keep)
    assert np.shares_memory(v, state.amps)
    addresses = v.real.astype(np.int64)
    assert sorted(addresses.ravel().tolist()) == allowed
    # each kept axis carries its qubit's bit
    for axis, q in enumerate(keep):
        for k in (0, 1):
            assert (addresses.take(k, axis) >> q & 1 == k).all()
    # the other axes come outermost first, so the bits each one steps fall
    # from axis to axis; a viewed pair's axis steps its two qubits, entry k
    # with its lower member's bit k
    steps = [int(np.bitwise_or.reduce((addresses ^ addresses.take([0], axis)).ravel()))
             for axis in range(len(keep), addresses.ndim)]
    assert steps == sorted(steps, reverse=True)
    for q in viewed:
        (axis,) = [len(keep) + j for j, step in enumerate(steps) if step == 3 << q]
        for k in (0, 1):
            assert (addresses.take(k, axis) >> q & 1 == k).all()
    # a write to qubit q drops exactly the pair it is in, at q or q-1
    for q in range(n):
        written = state.copy()
        sv._unfix(written, q)
        assert written.pairs == pairs_record({low: p for low, p in parities.items() if q not in (low, low + 1)})
        assert written.fixed == (mask & ~(1 << q), bits & ~(1 << q))


PAIR_WRITES = [  # (kernel call, the qubits it writes), named by the call
    *(pytest.param(lambda s, g=g, q=q: sv.apply_1q(s, g, q), {q}, id=f"{g}{q}")
      for g in ("H", "X", "Z") for q in (2, 3, 11, 12, 13, 0, 7)),
    *(pytest.param(lambda s, c=c, t=t: sv.apply_cnot(s, c, t), {t}, id=f"CNOT{c}-{t}")
      for c, t in ((2, 11), (11, 0), (0, 13), (5, 6), (12, 2), (13, 12), (2, 3), (12, 11))),
    pytest.param(lambda s: sv.apply_pauli_word(s, [("XZ", 12), ("I", 2), ("Z", 7)]), {12, 7}, id="XZ12-I2-Z7"),
    pytest.param(lambda s: sv.apply_pauli_word(s, [("I", 11), ("I", 13), ("X", 14)]), {14}, id="I11-I13-X14"),
]


@pytest.mark.parametrize("call, written", PAIR_WRITES)
def test_gates_on_pairs_give_the_unpaired_values(call, written):
    # equal values: the paired run skips only amplitudes that are 0, where
    # the unpaired one may write -0.0.  A gate drops exactly the pairs with
    # a member it writes; an I factor writes nothing
    state = paired_state(121)
    plain = unpaired(state)
    call(state)
    call(plain)
    assert np.array_equal(state.amps, plain.amps)
    assert state.pairs == pairs_record({q: p for q, p in PAIR_PARITIES.items() if not written & {q, q + 1}})
    for q in range(PAIRS_N):
        assert_within_ulps(sv.measure_probabilities(state, q), sv.measure_probabilities(plain, q))


@pytest.mark.parametrize("q", range(PAIRS_N))
def test_measurements_on_pairs_agree_with_the_unpaired_ones(q):
    state = paired_state(122)
    assert_within_ulps(sv.measure_probabilities(state, q), sv.measure_probabilities(unpaired(state), q))
    assert state.pairs == PAIRS
    for bit in (0, 1):
        (got_bit, prob), got = run_in_place(sv.measure_qubit, state, q, forced=bit)
        (want_bit, want_prob), want = run_in_place(sv.measure_qubit, unpaired(state), q, forced=bit)
        assert got_bit == want_bit == bit
        assert_within_ulps(prob, want_prob)
        assert_within_ulps(got.amps, want.amps)
        # a measurement keeps the parity of every pair, so it drops none
        assert got.pairs == PAIRS and got.fixed == (1 << q, bit << q)


@pytest.mark.parametrize("keep", [(11, 4), (12, 2, 0), (3, 13, 11, 2), (5, 6), (0,), (14, 12, 7)])
def test_partial_trace_on_pairs_agrees_with_the_unpaired_one(keep):
    # with a member of each pair kept the view is the unpaired one, and so
    # are the bits.  A viewed pair drops its zero columns from the gemm's
    # inner dimension, which sums the same terms in another grouping
    state = paired_state(123)
    got, want = sv.partial_trace(state, keep), sv.partial_trace(unpaired(state), keep)
    if all(set(keep) & {q, q + 1} for q in PAIR_PARITIES):
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 4 * np.spacing(1.0)
    assert state.pairs == PAIRS


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(37)
    s = random_state(4, rng)
    for _ in range(40):
        kind = rng.integers(3)
        if kind == 0:
            sv.apply_1q(s, str(rng.choice(["H", "X", "Z"])), int(rng.integers(4)))
        elif kind == 1:
            c, t = rng.choice(4, size=2, replace=False)
            sv.apply_cnot(s, int(c), int(t))
        else:
            sv.apply_pauli_word(s, [(str(rng.choice(["I", "X", "Z", "XZ"])), int(rng.integers(4)))])
        assert abs(s.norm() - 1) < 1e-12


# ------------------------------------------------------ measurement commutes

def test_disjoint_computational_measurements_commute():
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = random_state(4, rng)
        for b0, b3 in itertools.product((0, 1), repeat=2):
            s1, s2 = s.copy(), s.copy()
            try:
                _, p1 = sv.measure_qubit(s1, 0, forced=b0)
                _, p2 = sv.measure_qubit(s1, 3, forced=b3)
            except sv.ImpossibleBranchError:
                continue
            _, q1 = sv.measure_qubit(s2, 3, forced=b3)
            _, q2 = sv.measure_qubit(s2, 0, forced=b0)
            assert abs(p1 * p2 - q1 * q2) < 1e-12
            assert abs(abs(np.vdot(s1.amps, s2.amps)) ** 2 - 1) < 1e-12


def test_disjoint_bsms_commute():
    rng = np.random.default_rng(43)
    s = random_state(4, rng)
    for g, h in itertools.product(range(4), repeat=2):
        s1, s2 = s.copy(), s.copy()
        _, p1 = sv.bsm(s1, 0, 1, forced=g)
        _, p2 = sv.bsm(s1, 2, 3, forced=h)
        _, q1 = sv.bsm(s2, 2, 3, forced=h)
        _, q2 = sv.bsm(s2, 0, 1, forced=g)
        assert abs(p1 * p2 - q1 * q2) < 1e-12
        assert abs(abs(np.vdot(s1.amps, s2.amps)) ** 2 - 1) < 1e-12


# ---------------------------------------------------------- tensor/pair_state

def test_tensor_puts_first_argument_at_low_qubits():
    s = sv.tensor(sv.init_basis(1, 1), sv.init_basis(1, 0))
    assert s.amps[1] == 1


def kron_chain(states):
    """The product of ``states`` by np.kron, the first state lowest."""
    want = states[0].amps
    for s in states[1:]:
        want = np.kron(s.amps, want)
    return want


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 3, 1), (6, 6, 1), (2, 2, 2), (3,)])
def test_tensor_is_a_kron_chain_in_a_fresh_array(sizes):
    rng = np.random.default_rng(sum(sizes))
    states = [random_state(k, rng) for k in sizes]
    got = sv.tensor(*states)
    assert got.n_qubits == sum(sizes)
    assert got.amps.tobytes() == kron_chain(states).tobytes()
    assert not any(np.shares_memory(got.amps, s.amps) for s in states)


@pytest.mark.parametrize("sizes", [(16, 2, 1), (15, 1, 2), (6, 6, 4, 1), (3, 2, 12, 1), (1, 1, 1, 1)])
def test_tensor_writes_the_kron_chain_from_the_parts_it_wrote(sizes):
    # tensor scans only the first factor for slabs of +0.0, and takes the
    # parts it wrote as the next factor's.  Here a factor larger than a slab
    # has slabs of zeros; every factor has zero amplitudes, its first one
    # among them; and the blocks of the small first factors are below one
    # slab.  The product has the chain's bytes at every nonzero entry, and
    # its values everywhere
    rng = np.random.default_rng(111 + sum(sizes))
    states = [random_state(k, rng) for k in sizes]
    for s in states:
        s.amps[rng.permutation(s.amps.size)[:s.amps.size // 3]] = 0
        s.amps[0] = 0
    slabs = states[0].amps.reshape(-1, min(sv._SLAB, states[0].amps.size))
    slabs[1:len(slabs) - 1:2] = 0
    got, want = sv.tensor(*states).amps, kron_chain(states)
    assert np.array_equal(got, want)
    assert got[want != 0].tobytes() == want[want != 0].tobytes()


def test_tensor_of_one_state_leaves_it_alone():
    s = random_state(3, np.random.default_rng(98))
    before = s.amps.tobytes()
    t = sv.tensor(s)
    sv.apply_1q(t, "X", 0)
    assert s.amps.tobytes() == before


def test_tensor_peaks_at_its_result():
    factors = [random_state(10, np.random.default_rng(99)), random_state(9, np.random.default_rng(100)),
               sv.init_basis(1, 1)]
    product, peak = traced_peak(lambda: sv.tensor(*factors))
    # the 16 MiB result of 20 qubits, and no np.kron intermediate
    assert peak <= (16 << 20) + (1 << 20)
    # the top factor |1> leaves the lower half unwritten: +0.0 from np.zeros
    want = np.kron(factors[2].amps, np.kron(factors[1].amps, factors[0].amps))
    half = want.size // 2
    assert product.amps[half:].tobytes() == want[half:].tobytes()
    assert product.amps[:half].tobytes() == bytes(half * 16)


@pytest.mark.parametrize("z", [0, 1])
def test_tensor_skips_the_blocks_of_a_zero_amplitude(z):
    # a top factor |z> leaves block 1 - z of the product zero; tensor builds
    # its chain in block z and never writes the other block, which keeps the
    # +0.0 its array starts from
    rng = np.random.default_rng(101 + z)
    factors = [random_state(3, rng), random_state(2, rng), sv.init_basis(1, z)]
    want = np.kron(factors[2].amps, np.kron(factors[1].amps, factors[0].amps)).reshape(2, 32)
    got = sv.tensor(*factors).amps.reshape(2, 32)
    assert got[z].tobytes() == want[z].tobytes()
    assert got[1 - z].tobytes() == bytes(32 * 16)


def test_tensor_builds_in_the_array_it_is_given():
    rng = np.random.default_rng(104)
    factors = [random_state(3, rng), random_state(2, rng)]
    out = np.full(32, np.nan, dtype=complex)
    got = sv.tensor(*factors, out=out)
    assert got.amps is out
    assert out.tobytes() == sv.tensor(*factors).amps.tobytes()


def test_tensor_leaves_the_blocks_it_skips_as_out_held_them():
    rng = np.random.default_rng(105)
    low = random_state(3, rng)
    out = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    before = out.copy()
    sv.tensor(low, sv.init_basis(1, 0), out=out)
    assert out[:8].tobytes() == low.amps.tobytes()
    assert out[8:].tobytes() == before[8:].tobytes()


def test_tensor_writes_nothing_for_a_factor_of_zeros():
    # the product is 0, which a new array holds; out keeps what it held, so
    # a controlled_sum with c1 = 0 leaves the |0> product whole
    rng = np.random.default_rng(108)
    low, zero = random_state(3, rng), sv.StateVector(2, np.zeros(4))
    assert sv.tensor(low, zero).amps.tobytes() == bytes(32 * 16)
    out = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    before = out.tobytes()
    sv.tensor(low, zero, out=out)
    assert out.tobytes() == before
    got = sv.controlled_sum([low], [low], 1.0, 0.0).amps
    assert got[:8].tobytes() == low.amps.tobytes() and not got[8:].any()


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("out", [
    np.zeros(16, dtype=complex),
    np.zeros(32, dtype=np.complex64),
    np.zeros((4, 8), dtype=complex),
    np.zeros(64, dtype=complex)[::2],
    read_only(np.zeros(32, dtype=complex)),
], ids=["size", "dtype", "shape", "strided", "read-only"])
def test_tensor_refuses_an_out_it_cannot_fill(out):
    rng = np.random.default_rng(106)
    with pytest.raises(ValueError, match="^out must be"):
        sv.tensor(random_state(3, rng), random_state(2, rng), out=out)
    assert not out.any()


@pytest.mark.parametrize("sizes", [(1,), (2, 2), (6, 6)])
@pytest.mark.parametrize("sign", [1, -1])
def test_controlled_sum_is_the_sum_of_two_kron_chains(sizes, sign):
    # about half of each factor's amplitudes are exactly 0, so tensor skips
    # blocks of both products and builds each chain in a block of a nonzero
    # amplitude, and the |1> product must leave the |0> product's half as it
    # found it
    rng = np.random.default_rng(107 + sum(sizes) + sign)
    low0, low1 = ([random_state(k, rng) for k in sizes] for _ in range(2))
    for s in low0 + low1:
        s.amps[rng.random(s.amps.size) < 0.5] = 0
    c0, c1 = 1 / RT2, sign / RT2
    got = sv.controlled_sum(low0, low1, c0, c1)
    want = np.kron([1, 0], c0 * kron_chain(low0)) + np.kron([0, 1], c1 * kron_chain(low1))
    assert got.n_qubits == sum(sizes) + 1
    assert np.array_equal(got.amps, want)


def test_controlled_sum_refuses_products_of_different_sizes():
    rng = np.random.default_rng(109)
    with pytest.raises(ValueError, match="^out must be"):
        sv.controlled_sum([random_state(2, rng)], [random_state(3, rng)], 1 / RT2, 1 / RT2)


def test_reading_a_new_state_allocates_nothing():
    # 22 qubits, 64 MiB, read whole: the pages never written read the
    # kernel's shared zero page.  A shared mapping would allocate a page
    # for each read (64 MiB of RssShmem), and a huge page without its zero
    # page 2 MiB of RssAnon.  Nothing is recorded fixed, so the kernel reads
    # every page, not only the one live amplitude
    state = sv.init_basis(22, 0)
    state.fixed = (0, 0)
    before = resident("RssAnon", "RssShmem")
    assert sv.measure_probabilities(state, 21) == (1.0, 0.0)
    assert resident("RssAnon", "RssShmem") - before <= 1 << 20


def test_a_write_to_a_new_state_makes_only_its_own_pages_resident():
    # one 256 KiB slab in the middle of a new 64 MiB state: 64 pages of
    # 4 KiB, where a 2 MiB huge page would make 2 MiB resident
    state = sv.init_basis(22, 0)
    slab = state.amps[1 << 20:][:sv._SLAB]
    before = resident("RssAnon")
    slab[:] = 1
    assert resident("RssAnon") - before <= 512 << 10


def test_tensor_touches_only_the_blocks_it_writes():
    # 22 qubits, 64 MiB in new 4 KiB pages.  A top factor |z> fills half z
    # only, for either z: the chain is built there, and the other half is
    # never written, not even as workspace
    rng = np.random.default_rng(103)
    low = [random_state(11, rng), random_state(10, rng)]
    size = 64 << 20
    want = kron_chain(low)
    for z in (0, 1):
        before = resident("RssAnon")
        product = sv.tensor(*low, sv.init_basis(1, z))
        grown = resident("RssAnon") - before
        assert size // 2 - (1 << 20) <= grown <= size // 2 + (1 << 20), z
        halves = product.amps.reshape(2, -1)
        assert halves[z].tobytes() == want.tobytes()
        assert halves[1 - z].tobytes() == bytes(size // 2)
        del product, halves


@pytest.mark.parametrize("call, new_mib", [
    (lambda s: sv.apply_1q(s, "H", 0), 0),
    (lambda s: sv.apply_cnot(s, 3, 20), 1),
    (lambda s: sv.measure_probabilities(s, 21), 0),
    (lambda s: sv.measure_qubit(s, 21, forced=1), 0),
    (lambda s: sv.measure_qubit(s, 1, forced=0), 0),
], ids=["H q0", "CNOT 3->20", "probabilities q21", "measure q21=1", "measure q1=0"])
def test_kernels_touch_only_the_slabs_they_write(call, new_mib):
    # 22 qubits, 64 MiB in new 4 KiB pages (see the tests above), written
    # only in one run of 2^16 amplitudes (1 MiB), the entries whose qubits
    # 21-16 read 100101.  A kernel writes only the slabs that read a nonzero
    # amplitude: the run, and for the CNOT the run with qubit 20 flipped,
    # ``new_mib`` outside it.  Reading the other slabs maps no memory, so
    # RssAnon grows by at most that and the kernel's slab temporaries (under
    # 1 MiB); a kernel that wrote every slab would add 32 or 64 MiB.
    run = np.random.default_rng(110).standard_normal(1 << 16) + 0j
    state = sv.init_basis(22, 0b100101 << 16)
    state.fixed = (0, 0)  # the run below writes qubits 0-15, which init_basis records
    amps = state.amps
    amps[0b100101 << 16:][:1 << 16] = run / np.linalg.norm(run)
    before = resident("RssAnon")
    call(state)
    assert resident("RssAnon") - before <= (new_mib + 1) << 20
    assert state.amps is amps


def test_pair_state_puts_the_first_member_on_qubit_0():
    c = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    c /= np.linalg.norm(c)
    # coefficient 2a+b belongs at basis index a + 2b
    assert np.array_equal(sv.pair_state(c).amps, c[[0, 2, 1, 3]])
