"""Statevector engine tests: gate kernels vs explicit matrices, measurement,
Bell measurement bit-map derivation, overlaps and partial traces."""
import itertools

import numpy as np
import pytest

from quadtel import statevector as sv

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
    s = sv.init_basis(17, 0, allow_large=True)
    assert s.amps[0] == 1 and np.count_nonzero(s.amps) == 1


def test_init_basis_index_three_is_11():
    s = sv.init_basis(2, 3)
    assert s.amps[3] == 1 and np.count_nonzero(s.amps) == 1


def test_init_basis_range_errors():
    with pytest.raises(IndexError):
        sv.init_basis(2, 4)
    with pytest.raises(IndexError):
        sv.init_basis(2, -1)
    with pytest.raises(ValueError):
        sv.init_basis(17, 0)  # over the default cap without opt-in


# ------------------------------------------------------------------- 1q gates

def test_hadamard_on_zero():
    s = sv.apply_1q(sv.init_basis(1, 0), "H", 0)
    assert np.allclose(s.amps, [1 / RT2, 1 / RT2])


def test_hadamard_is_involution_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = random_state(3, rng)
        q = int(rng.integers(3))
        back = sv.apply_1q(sv.apply_1q(s, "H", q), "H", q)
        assert sv.distance(back, s) < 1e-12


def test_x_flips_zero():
    s = sv.apply_1q(sv.init_basis(1, 0), "X", 0)
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
    s = sv.apply_cnot(sv.init_basis(2, 2), 1, 0)
    assert np.allclose(s.amps, [0, 0, 0, 1])


def test_cnot_builds_bell_pair():
    # H on the second qubit, CNOT second->first: (|00>+|11>)/sqrt2
    s = sv.apply_cnot(sv.apply_1q(sv.init_basis(2, 0), "H", 1), 1, 0)
    assert np.allclose(s.amps, [1 / RT2, 0, 0, 1 / RT2])


def test_cnot_fanout_builds_17_qubit_ghz():
    s = sv.apply_1q(sv.init_basis(17, 0, allow_large=True), "H", 16)
    for t in range(16):
        s = sv.apply_cnot(s, 16, t)
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
    scrambled = sv.StateVector(2, [c[3], -c[2], -c[1], c[0]])
    fixed = sv.apply_pauli_word(scrambled, [("XZ", 1), ("XZ", 0)])
    assert np.allclose(fixed.amps, c, atol=1e-12)


def test_identity_word_is_noop():
    rng = np.random.default_rng(12)
    s = random_state(3, rng)
    out = sv.apply_pauli_word(s, [("I", 0), ("I", 2)])
    assert sv.distance(out, s) == 0


def test_xz_on_one_gives_minus_zero():
    out = sv.apply_pauli_word(sv.init_basis(1, 1), [("XZ", 0)])
    assert np.allclose(out.amps, [-1, 0])


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
    s = sv.apply_1q(sv.init_basis(17, 0, allow_large=True), "H", 16)
    for t in range(16):
        s = sv.apply_cnot(s, 16, t)
    bit, prob, post = sv.measure_qubit(s, 16, forced=0)
    assert bit == 0 and abs(prob - 0.5) < 1e-12
    assert abs(post.amps[0] - 1) < 1e-12 and np.count_nonzero(np.abs(post.amps) > 1e-14) == 1


def test_forcing_impossible_branch_raises():
    with pytest.raises(sv.ImpossibleBranchError):
        sv.measure_qubit(sv.init_basis(1, 1), 0, forced=0)


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
        st = sv.apply_1q(sv.apply_cnot(sv.StateVector(2, bell_amps(kind)), 1, 0), "H", 1)
        idx = int(np.flatnonzero(np.abs(st.amps) > 1e-12)[0])
        assert abs(abs(st.amps[idx]) - 1) < 1e-12
        derived[kind] = ((idx >> 1) & 1, idx & 1)  # (first qubit bit, second qubit bit)
    assert tuple(derived[k] for k in range(4)) == sv.BELL_OUTCOME_BITS


def test_bell_receiver_amplitudes_pick_the_measured_block():
    st = random_state(6, np.random.default_rng(48))
    for g in range(4):
        for h in range(4):
            _, _, post = sv.bsm(st, 0, 2, forced=g)
            _, _, post = sv.bsm(post, 1, 4, forced=h)
            out = sv.bell_receiver_amplitudes(post.amps, g, h)
            assert abs(np.linalg.norm(out) - 1) < 1e-12
            idx = sv.bell_receiver_amplitudes(np.arange(64), g, h)
            # order 2a+b with a on qubit 3 and b on qubit 5
            assert [((i >> 3) & 1, (i >> 5) & 1) for i in idx] == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("kind", range(4))
def test_bsm_identifies_prepared_bell_states(kind):
    st = sv.StateVector(2, bell_amps(kind))
    outcome, prob, _ = sv.bsm(st, 1, 0, forced=kind)
    assert outcome == kind and abs(prob - 1) < 1e-12


def test_bsm_on_00_splits_between_kappa_outcomes():
    # brute-force expansion: |00> = (bell0 + bell1)/sqrt2
    s00 = sv.init_basis(2, 0)
    expected = [abs(np.vdot(bell_amps(k), s00.amps)) ** 2 for k in range(4)]
    assert np.allclose(expected, [0.5, 0.5, 0, 0], atol=1e-12)
    probs = sv.bsm_probabilities(s00, 1, 0)
    assert np.allclose(probs, expected, atol=1e-12)
    for k in (2, 3):
        with pytest.raises(sv.ImpossibleBranchError):
            sv.bsm(s00, 1, 0, forced=k)


def test_bsm_completeness_on_random_states():
    rng = np.random.default_rng(17)
    s = random_state(4, rng)
    probs = sv.bsm_probabilities(s, 0, 3)
    assert abs(sum(probs) - 1) < 1e-12


def test_bsm_rejects_equal_qubits_and_bad_outcome():
    s = sv.init_basis(2, 0)
    with pytest.raises(ValueError):
        sv.bsm(s, 1, 1, forced=0)
    with pytest.raises(ValueError):
        sv.bsm(s, 1, 0, forced=4)


# ---------------------------------------------------------- overlap/fidelity

def test_fidelity_of_state_with_itself():
    rng = np.random.default_rng(19)
    s = random_state(3, rng)
    assert abs(sv.fidelity(s, s) - 1) < 1e-12


def test_fidelity_of_orthogonal_states():
    assert sv.fidelity(sv.init_basis(1, 0), sv.init_basis(1, 1)) == 0


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(23)
    s = random_state(2, rng)
    flipped = sv.StateVector(2, np.exp(1j * np.pi) * s.amps)
    assert abs(sv.fidelity(s, flipped) - 1) < 1e-12


def test_overlap_rejects_size_mismatch():
    with pytest.raises(ValueError):
        sv.overlap(sv.init_basis(1, 0), sv.init_basis(2, 0))


# -------------------------------------------------------------- partial trace

def test_partial_trace_of_bell_pair_is_maximally_mixed():
    s = sv.StateVector(2, bell_amps(0))
    for q in (0, 1):
        dm = sv.partial_trace(s, [q])
        assert np.allclose(dm.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keeping_everything():
    dm = sv.partial_trace(sv.init_basis(1, 0), [0])
    assert np.allclose(dm.mat, [[1, 0], [0, 0]])


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
        assert np.allclose(dm.mat, dm.mat.conj().T, atol=1e-10)
        assert abs(dm.trace() - 1) < 1e-10
        assert np.linalg.eigvalsh(dm.mat).min() >= -1e-9


def test_partial_trace_bit_order_follows_keep_list():
    # |q1 q0> = |10>: keep [0, 1] -> reduced index bit0 = qubit 0
    s = sv.init_basis(2, 2)
    dm01 = sv.partial_trace(s, [0, 1])
    assert dm01.mat[2, 2] == 1
    dm10 = sv.partial_trace(s, [1, 0])
    assert dm10.mat[1, 1] == 1


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
                got = sv.apply_1q(s, name, q).amps
                want = full_1q_matrix(m, q, 3) @ s.amps
                assert np.linalg.norm(got - want) < 1e-12
        for c, t in itertools.permutations(range(3), 2):
            got = sv.apply_cnot(s, c, t).amps
            want = full_cnot_matrix(c, t, 3) @ s.amps
            assert np.linalg.norm(got - want) < 1e-12
        for f, m in sv.PAULI_FACTOR_MATRICES.items():
            got = sv.apply_pauli_word(s, [(f, 1)]).amps
            want = full_1q_matrix(m, 1, 3) @ s.amps
            assert np.linalg.norm(got - want) < 1e-12


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


def pure_call(kernel, state, *args, **kwargs):
    """Call a kernel and check that it left its input amplitudes as they were."""
    before = state.amps.copy()
    result = kernel(state, *args, **kwargs)
    assert before.tobytes() == state.amps.tobytes()
    return result


def textbook_1q(amps, m, q):
    v = amps.reshape(-1, 2, 1 << q)
    out = np.empty_like(v)
    out[:, 0, :] = m[0, 0] * v[:, 0, :] + m[0, 1] * v[:, 1, :]
    out[:, 1, :] = m[1, 0] * v[:, 0, :] + m[1, 1] * v[:, 1, :]
    return out.reshape(-1)


def textbook_probabilities(amps, q):
    v = amps.reshape(-1, 2, 1 << q)
    return tuple(float(np.sum(np.abs(v[:, bit, :]) ** 2)) for bit in (0, 1))


def textbook_collapse(amps, q, bit, prob):
    v = amps.reshape(-1, 2, 1 << q)
    out = np.zeros_like(v)
    out[:, bit, :] = v[:, bit, :] / np.sqrt(prob)
    return out.reshape(-1)


@pytest.mark.parametrize("q", range(SLAB_N))
def test_one_qubit_kernels_on_multi_slab_state(slab_state, q):
    amps = slab_state.amps
    for name in ("H", "X", "Z"):
        got = pure_call(sv.apply_1q, slab_state, name, q).amps
        assert np.array_equal(got, textbook_1q(amps, sv.GATES_1Q[name], q))
    other = (q + 9) % SLAB_N
    for f in ("I", "X", "Z", "XZ"):
        got = pure_call(sv.apply_pauli_word, slab_state, [(f, q)]).amps
        assert np.array_equal(got, textbook_1q(amps, sv.PAULI_FACTOR_MATRICES[f], q))
        # a later factor works in place on the word's own output
        got = pure_call(sv.apply_pauli_word, slab_state, [(f, q), ("XZ", other), (f, q)]).amps
        want = amps
        for g, r in [(f, q), ("XZ", other), (f, q)]:
            want = textbook_1q(want, sv.PAULI_FACTOR_MATRICES[g], r)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q", range(SLAB_N))
def test_measurement_kernels_on_multi_slab_state(slab_state, q):
    amps = slab_state.amps
    probs = pure_call(sv.measure_probabilities, slab_state, q)
    assert probs == textbook_probabilities(amps, q)
    for bit in (0, 1):
        got_bit, prob, collapsed = pure_call(sv.measure_qubit, slab_state, q, forced=bit)
        assert (got_bit, prob) == (bit, probs[bit])
        assert np.array_equal(collapsed.amps, textbook_collapse(amps, q, bit, prob))


@pytest.mark.parametrize("control, target", SLAB_CNOT_PAIRS)
def test_cnot_on_multi_slab_state(slab_state, control, target):
    idx = np.arange(1 << SLAB_N)
    source = np.where((idx >> control) & 1, idx ^ (1 << target), idx)
    got = pure_call(sv.apply_cnot, slab_state, control, target).amps
    assert np.array_equal(got, slab_state.amps[source])


def test_measure_qubit_on_one_qubit_state():
    s = sv.StateVector(1, [0.6, 0.8j])
    for bit in (0, 1):
        got_bit, prob, collapsed = pure_call(sv.measure_qubit, s, 0, forced=bit)
        assert (got_bit, prob) == (bit, textbook_probabilities(s.amps, 0)[bit])
        assert np.array_equal(collapsed.amps, textbook_collapse(s.amps, 0, bit, prob))
        assert collapsed.amps[bit] != 0 and collapsed.amps[1 - bit] == 0


def test_empty_pauli_word_returns_a_fresh_copy():
    s = random_state(3, np.random.default_rng(59))
    got = pure_call(sv.apply_pauli_word, s, [])
    assert np.array_equal(got.amps, s.amps) and not np.shares_memory(got.amps, s.amps)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(37)
    s = random_state(4, rng)
    for _ in range(40):
        kind = rng.integers(3)
        if kind == 0:
            s = sv.apply_1q(s, str(rng.choice(["H", "X", "Z"])), int(rng.integers(4)))
        elif kind == 1:
            c, t = rng.choice(4, size=2, replace=False)
            s = sv.apply_cnot(s, int(c), int(t))
        else:
            s = sv.apply_pauli_word(s, [(str(rng.choice(["I", "X", "Z", "XZ"])), int(rng.integers(4)))])
        assert abs(s.norm() - 1) < 1e-12


# ------------------------------------------------------ measurement commutes

def test_disjoint_computational_measurements_commute():
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = random_state(4, rng)
        for b0, b3 in itertools.product((0, 1), repeat=2):
            try:
                _, p1, s1 = sv.measure_qubit(s, 0, forced=b0)
                _, p2, s1 = sv.measure_qubit(s1, 3, forced=b3)
            except sv.ImpossibleBranchError:
                continue
            _, q1, s2 = sv.measure_qubit(s, 3, forced=b3)
            _, q2, s2 = sv.measure_qubit(s2, 0, forced=b0)
            assert abs(p1 * p2 - q1 * q2) < 1e-12
            assert abs(sv.fidelity(s1, s2) - 1) < 1e-12


def test_disjoint_bsms_commute():
    rng = np.random.default_rng(43)
    s = random_state(4, rng)
    for g, h in itertools.product(range(4), repeat=2):
        _, p1, s1 = sv.bsm(s, 0, 1, forced=g)
        _, p2, s1 = sv.bsm(s1, 2, 3, forced=h)
        _, q1, s2 = sv.bsm(s, 2, 3, forced=h)
        _, q2, s2 = sv.bsm(s2, 0, 1, forced=g)
        assert abs(p1 * p2 - q1 * q2) < 1e-12
        assert abs(sv.fidelity(s1, s2) - 1) < 1e-12


# ------------------------------------------------------------ tensor/permute

def test_tensor_puts_first_argument_at_low_qubits():
    s = sv.tensor(sv.init_basis(1, 1), sv.init_basis(1, 0))
    assert s.amps[1] == 1


def test_permute_qubits_identity_and_involution():
    rng = np.random.default_rng(47)
    s = random_state(3, rng)
    assert sv.distance(sv.permute_qubits(s, [0, 1, 2]), s) == 0
    swapped = sv.permute_qubits(s, [2, 1, 0])
    assert sv.distance(sv.permute_qubits(swapped, [2, 1, 0]), s) < 1e-15


def test_permute_qubits_rejects_non_bijection():
    with pytest.raises(ValueError):
        sv.permute_qubits(sv.init_basis(2, 0), [0, 0])


def test_pair_state_orders():
    c = np.array([0.1, 0.2, 0.3, 0.4], dtype=complex)
    c /= np.linalg.norm(c)
    high = sv.pair_state(c, "first_high")
    low = sv.pair_state(c, "first_low")
    assert np.allclose(high.amps, c)
    assert sv.distance(sv.permute_qubits(high, [1, 0]), low) < 1e-15
