"""Channel construction tests: Bell states, circuit vs analytic equivalence,
marginals and measurement support."""
import itertools

import numpy as np
import pytest

from quadtel import channel as ch
from quadtel import statevector as sv
from routes import traced_peak

RT2 = np.sqrt(2.0)


def test_bell_state_amplitude_tables():
    assert np.allclose(ch.BELL_COEFFS[ch.BellKind.KAPPA_PLUS], [1 / RT2, 0, 0, 1 / RT2])
    assert np.allclose(ch.BELL_COEFFS[ch.BellKind.KAPPA_MINUS], [1 / RT2, 0, 0, -1 / RT2])
    assert np.allclose(ch.BELL_COEFFS[ch.BellKind.LAMBDA_PLUS], [0, 1 / RT2, 1 / RT2, 0])
    assert np.allclose(ch.BELL_COEFFS[ch.BellKind.LAMBDA_MINUS], [0, 1 / RT2, -1 / RT2, 0])


def test_bell_states_are_orthonormal():
    for a in ch.BellKind:
        for b in ch.BellKind:
            got = np.vdot(ch.BELL_COEFFS[a], ch.BELL_COEFFS[b])
            assert abs(got - (1 if a == b else 0)) < 1e-12


def ghz_state(n_qubits):
    """(|0...0> + |1...1>)/sqrt2 via H on the top qubit and a CNOT fan-out."""
    state = sv.init_basis(n_qubits, 0)
    sv.apply_1q(state, "H", n_qubits - 1)
    for target in range(n_qubits - 1):
        sv.apply_cnot(state, n_qubits - 1, target)
    return state


def paper_order_channel(k):
    """The paper's channel circuit in its own gate order: the GHZ fan-out
    over all 2k+1 qubits, then H on every receiver-side qubit, then the CNOT
    within every pair, receiver-side member onto sender-side member."""
    state = ghz_state(2 * k + 1)
    for j in range(k):
        sv.apply_1q(state, "H", 2 * j + 1)
    for j in range(k):
        sv.apply_cnot(state, 2 * j + 1, 2 * j)
    return state


def test_ghz_checkpoint_two_amplitudes():
    s = ghz_state(17)
    nz = np.flatnonzero(np.abs(s.amps) > 1e-14)
    assert list(nz) == [0, 2**17 - 1]
    assert np.allclose(s.amps[nz], 1 / RT2)


def test_single_pair_circuit_carries_minus_sign():
    """Hand-assembled expectation for k=1: (kappa+ |0>_E - lambda- |1>_E)/sqrt2.

    The oracle builds the 3-qubit amplitudes with plain numpy krons, placing
    the sender-side member of the pair at qubit 0, independent of the channel
    module's own assembly code.
    """
    kappa = np.zeros(4, dtype=complex)
    kappa[0b00] = kappa[0b11] = 1 / RT2  # index = sender + 2*receiver
    lam = np.zeros(4, dtype=complex)
    lam[0b10] = 1 / RT2  # sender 0, receiver 1
    lam[0b01] = -1 / RT2  # sender 1, receiver 0
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    expected = (np.kron(e0, kappa) - np.kron(e1, lam)) / RT2
    got = ch.prepare_channel_circuit(1)
    assert np.linalg.norm(got.amps - expected) < 1e-12
    assert np.linalg.norm(got.amps - ch.build_channel_analytic(1, -1).amps) < 1e-12


@pytest.mark.parametrize("k", range(1, 11))
def test_pair_by_pair_circuit_has_the_paper_orders_bytes(k):
    # the builder applies the paper's gates pair by pair, reading only the
    # pairs it has reached; the paper's order, fan-out first, reads the whole
    # state at every gate.  Same unitary, and the same bytes, signed zeros too
    got = ch.prepare_channel_circuit(k)
    assert got.amps.tobytes() == paper_order_channel(k).amps.tobytes()
    assert got.fixed == (0, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_circuit_matches_analytic_with_alternating_sign(k):
    got = ch.prepare_channel_circuit(k)
    want = ch.build_channel_analytic(k, (-1) ** k)
    assert np.linalg.norm(got.amps - want.amps) < 1e-12
    wrong = ch.build_channel_analytic(k, -((-1) ** k))
    assert np.linalg.norm(got.amps - wrong.amps) > 0.5


def sum_of_branches(k, sign):
    """The analytic channel as one expression over fresh arrays: (branch0 + sign * branch1)/sqrt2."""
    kappa = [sv.pair_state(ch.BELL_COEFFS[ch.BellKind.KAPPA_PLUS])] * k
    lam = [sv.pair_state(ch.BELL_COEFFS[ch.BellKind.LAMBDA_MINUS])] * k
    branch0 = sv.tensor(*kappa, sv.init_basis(1, 0)).amps
    branch1 = sv.tensor(*lam, sv.init_basis(1, 1)).amps
    return (branch0 + sign * branch1) * (1 / RT2)


def test_full_channel_circuit_matches_analytic():
    got = ch.prepare_channel_circuit(8)
    want = ch.build_channel_analytic(8, +1)
    assert np.linalg.norm(got.amps - want.amps) < 1e-12
    # built in one array, the analytic build keeps the values of the expression;
    # values, not bytes: the one-array build has -0.0 where the sum has +0.0
    for k, sign in itertools.product((1, 2, 3, 8, 9), (1, -1)):
        assert np.array_equal(ch.build_channel_analytic(k, sign).amps, sum_of_branches(k, sign)), (k, sign)


def test_channel_builders_peak_near_the_state():
    # 10 pairs are 21 qubits, a 32 MiB state.  The circuit updates its one
    # state gate by gate, with slab temporaries under 1 MiB.  The analytic
    # build writes both branches into its one state array.
    size = 32 << 20
    for build, bound in ((ch.prepare_channel_circuit, size), (ch.build_channel_analytic, size)):
        _, peak = traced_peak(lambda: build(10))
        assert peak <= bound + (4 << 20), build.__name__


def test_channel_norm_and_size_cap():
    assert abs(ch.prepare_channel_circuit(3).norm() - 1) < 1e-12
    # 13 pairs are 27 qubits, one over the kernels' hard cap
    with pytest.raises(ValueError, match="27 qubits exceeds the 26-qubit cap"):
        ch.prepare_channel_circuit(13)
    with pytest.raises(ValueError, match="27 qubits exceeds the 26-qubit cap"):
        ch.build_channel_analytic(13)
    with pytest.raises(ValueError):
        ch.build_channel_analytic(2, branch_sign=2)


def test_pair_marginals_are_half_half_bell_mixture():
    state = ch.prepare_channel_circuit(8)
    kp = ch.BELL_COEFFS[ch.BellKind.KAPPA_PLUS]
    lm = ch.BELL_COEFFS[ch.BellKind.LAMBDA_MINUS]
    mix = 0.5 * np.outer(kp, kp.conj()) + 0.5 * np.outer(lm, lm.conj())
    for j in range(8):
        snd, rcv = 2 * j, 2 * j + 1
        dm = sv.partial_trace(state, [rcv, snd])  # index = 2*sender_bit + receiver_bit
        assert np.abs(dm - mix).max() < 1e-12


def test_bsm_support_on_channel_pairs():
    state = ch.prepare_channel_circuit(8)
    for j in range(8):
        snd, rcv = 2 * j, 2 * j + 1
        for kind in (ch.BellKind.KAPPA_PLUS, ch.BellKind.LAMBDA_MINUS):
            _, prob = sv.bsm(state.copy(), snd, rcv, forced=kind)
            assert abs(prob - 0.5) < 1e-12
        for kind in (ch.BellKind.KAPPA_MINUS, ch.BellKind.LAMBDA_PLUS):
            with pytest.raises(sv.ImpossibleBranchError):
                sv.bsm(state.copy(), snd, rcv, forced=kind)

