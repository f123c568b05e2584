"""Protocol tests: global-state assembly, forced and exhaustive runs, engine
equivalence, controller gating, transcripts, and order independence."""
import numpy as np
import pytest

from quadtel import channel as ch
from quadtel import protocol as pr
from quadtel import statevector as sv


def make_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return [pr.InfoState.random(rng) for _ in range(n)]


def product_coeffs(vectors):
    acc = np.array([1.0], dtype=complex)
    for v in vectors:
        acc = np.kron(np.asarray(v, dtype=complex), acc)
    return acc


def flip_pattern(c):
    # the double-flip collapse pattern: c0|11> - c1|10> - c2|01> + c3|00>
    return np.array([c[3], -c[2], -c[1], c[0]])


# ------------------------------------------------------------ message states

def test_info_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        pr.InfoState(np.array([1.0, 1.0, 0.0, 0.0]))


def test_info_state_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            pr.InfoState(np.array([bad, 0.0, 0.0, 0.0]))


def test_info_state_random_is_normalized():
    info = pr.InfoState.random(np.random.default_rng(1))
    assert abs(np.linalg.norm(info.coeffs) - 1) < 1e-12


def test_outcome_record_validation():
    with pytest.raises(ValueError):
        pr.OutcomeRecord((0, 4), 0)
    with pytest.raises(ValueError):
        pr.OutcomeRecord((0, 0), 2)
    assert pr.OutcomeRecord((0, 1, 2, 3), 1).symbols() == "k+,k-,l+,l-,1"


# ----------------------------------------------------------------- assembly

def test_assembled_state_is_normalized():
    state = pr.assemble_global(make_inputs(2, 2), "dense")
    assert abs(state.state.norm() - 1) < 1e-10


def test_structured_matches_dense_assembly():
    for s in (1, 2):
        inputs = make_inputs(s, 10 + s)
        dense = pr.assemble_global(inputs, "dense")
        structured = pr.assemble_global(inputs, "structured")
        assert sv.distance(structured.to_dense(), dense.state) < 1e-10


def test_dense_phase_correction_leaves_earlier_copies_untouched():
    from quadtel import corrections as co

    state = pr.assemble_global(make_inputs(1, 17), "dense")
    entry = next(e for e in co.TABLE_FIRST_PAIR.values() if e.phase_pi)
    kept = state.copy()
    snapshot = kept.state.amps.copy()
    state.apply_correction(0, entry)
    assert np.array_equal(kept.state.amps, snapshot)
    assert not np.shares_memory(state.state.amps, kept.state.amps)
    word = [(entry.first.value, state.layout.channel_receiver(0, 0)),
            (entry.second.value, state.layout.channel_receiver(0, 1))]
    assert np.array_equal(state.state.amps, -sv.apply_pauli_word(kept.state, word).amps)


def test_dense_assembly_matches_channel_module_construction():
    """Cross-check the protocol register against the channel builder.

    The same global state is assembled independently as (messages tensor
    channel-in-construction-order) and permuted into the block-contiguous
    protocol order.
    """
    inputs = make_inputs(2, 31)
    chan = ch.build_channel_analytic(4, +1)
    msgs = [sv.pair_state(i.coeffs, "first_low") for i in inputs]
    flat = sv.tensor(*msgs, chan)
    # message pair i sits at 2i,2i+1; channel qubit c at 4 + c in `flat`
    perm = [0, 1, 6, 7, 2, 3, 8, 9, 10, 11, 4 + 8]
    # qubit -> protocol position: messages to block bases, channel pairs after them
    perm = {0: 0, 1: 1, 2: 6, 3: 7}
    perm.update({4 + 0: 2, 4 + 1: 3, 4 + 2: 4, 4 + 3: 5})
    perm.update({4 + 4: 8, 4 + 5: 9, 4 + 6: 10, 4 + 7: 11})
    perm.update({4 + 8: 12})
    reordered = sv.permute_qubits(flat, [perm[q] for q in range(13)])
    dense = pr.assemble_global(inputs, "dense")
    assert sv.distance(reordered, dense.state) < 1e-12


def test_channel_pair_marginals_in_assembled_state():
    inputs = make_inputs(1, 7)
    structured = pr.assemble_global(inputs, "structured")
    kp = ch.bell_state(0).amps
    lm = ch.bell_state(3).amps
    mix = 0.5 * np.outer(kp, kp.conj()) + 0.5 * np.outer(lm, lm.conj())
    for which in (0, 1):
        keep = (3 + 2 * which, 2 + 2 * which)  # (receiver-side, sender-side)
        got = sum(
            abs(structured.weights[b]) ** 2
            * sv.partial_trace(structured.blocks[b][0], keep).mat
            for b in (0, 1)
        )
        assert np.abs(got - mix).max() < 1e-12


def test_dense_cap_enforced_for_large_runs():
    inputs = make_inputs(3, 3)  # 19 qubits dense
    with pytest.raises(ValueError):
        pr.assemble_global(inputs, "dense")
    state = pr.assemble_global(inputs, "dense", allow_large_dense=True)
    assert state.state.n_qubits == 19
    with pytest.raises(ValueError):
        pr.assemble_global(inputs, "bogus")


# -------------------------------------------------------------- forced runs

def test_all_kappa_plus_z0_needs_no_correction():
    inputs = make_inputs(4, 40)
    record = pr.OutcomeRecord((0,) * 8, 0)
    pre = pr.pre_broadcast_state(inputs, record.bell)
    # the z=0 branch of the pre-broadcast mixture is already the target
    # product, so the target scores 1/2 plus the tiny branch cross term
    target = product_coeffs([i.coeffs for i in inputs])
    other = product_coeffs([flip_pattern(i.coeffs) for i in inputs])
    expected = 0.5 * (1 + abs(np.vdot(target, other)) ** 2)
    assert abs(np.real(np.vdot(target, pre.mat @ target)) - expected) < 1e-10
    report = pr.run_protocol(inputs, forced=record)
    assert all(f > 1 - 1e-9 for f in report.per_receiver_fidelity)


def test_all_kappa_plus_z1_collapse_matches_flip_pattern():
    inputs = make_inputs(4, 41)
    state = pr.assemble_global(inputs, "structured")
    for j in range(8):
        state.bsm_pair(j, forced=0)
    z, prob = state.measure_controller(forced=1)
    assert abs(prob - 0.5) < 1e-12
    for i in range(4):
        dm = state.receiver_dm(i)
        expect = flip_pattern(inputs[i].coeffs)
        assert abs(np.real(np.vdot(expect, dm.mat @ expect)) - 1) < 1e-10
    # applying the tabulated correction restores every message
    for i in range(4):
        from quadtel import corrections as co

        state.apply_correction(i, co.table_lookup(f"fancy{i + 1}", (0, 0, 1)))
        fid = sv.dm_fidelity(state.receiver_dm(i), inputs[i].target_state())
        assert fid > 1 - 1e-9


def test_forced_branch_probability_is_two_to_minus_17():
    inputs = make_inputs(4, 42)
    rng = np.random.default_rng(5)
    for _ in range(4):
        record = pr.OutcomeRecord(tuple(int(b) for b in rng.integers(0, 4, 8)), int(rng.integers(2)))
        report = pr.run_protocol(inputs, forced=record)
        assert abs(report.branch_probability - 2.0 ** -17) < 1e-12
        assert all(f > 1 - 1e-9 for f in report.per_receiver_fidelity)


def test_forced_record_validation():
    inputs = make_inputs(2, 43)
    with pytest.raises(ValueError):
        pr.run_protocol(inputs, forced=pr.OutcomeRecord((0, 0), 0))  # wrong length
    with pytest.raises(ValueError):
        pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 4, None))  # missing z
    with pytest.raises(ValueError):
        pr.run_protocol(inputs)  # no rng in sampled mode


# ------------------------------------------------------ structured BSM kernel

def random_block(rng):
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    return sv.StateVector(6, v / np.linalg.norm(v))


@pytest.mark.parametrize("outcome", [0, 1, 2, 3, None])
@pytest.mark.parametrize("j", range(4))
def test_block_kernel_matches_generic_bsm(j, outcome):
    # structured bsm_pair against the generic sequence CNOT, H, measure_qubit
    # x2 on the same two-branch state of random blocks, written out densely;
    # outcome None samples both routes from one seed
    rng = np.random.default_rng(100 + j)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    blocks = [[random_block(rng) for _ in range(2)] for _ in range(2)]
    state = pr.StructuredState(2, w / np.linalg.norm(w), blocks)
    i, which = divmod(j, 2)
    a, b = 6 * i + which, 6 * i + 2 + 2 * which
    fa, fb = (None, None) if outcome is None else sv.BELL_OUTCOME_BITS[outcome]
    rng_generic, rng_kernel = np.random.default_rng(7 + j), np.random.default_rng(7 + j)
    generic = sv.apply_1q(sv.apply_cnot(state.to_dense(), a, b), "H", a)
    bit_a, p_a, generic = sv.measure_qubit(generic, a, forced=fa, rng=rng_generic)
    bit_b, p_b, generic = sv.measure_qubit(generic, b, forced=fb, rng=rng_generic)
    got, prob = state.bsm_pair(j, forced=outcome, rng=rng_kernel)
    assert got == sv.BELL_OUTCOME_BITS.index((bit_a, bit_b))
    assert abs(prob - p_a * p_b) < 1e-15
    assert sv.distance(state.to_dense(), generic) < 1e-13
    assert abs(np.sum(np.abs(state.weights) ** 2) - 1) < 1e-13


def test_block_kernel_names_an_impossible_outcome():
    # pair (0, 2) of block 1 holds k+, so its BSM can only read k+: k- fails
    # on the message qubit, l+ on the channel qubit
    rng = np.random.default_rng(110)
    amps = np.zeros(64, dtype=complex)
    amps[0b000000] = amps[0b000101] = 2 ** -0.5
    for outcome, where in ((1, "block 1 qubit 0 outcome 1"), (2, "block 1 qubit 2 outcome 1")):
        blocks = [[random_block(rng), sv.StateVector(6, amps)] for _ in range(2)]
        state = pr.StructuredState(2, [2 ** -0.5, 2 ** -0.5], blocks)
        with pytest.raises(sv.ImpossibleBranchError, match=f"^{where} has probability"):
            state.bsm_pair(2, forced=outcome)


# ----------------------------------------------------------- exhaustive runs

@pytest.mark.parametrize("engine", ["dense", "structured"])
def test_exhaustive_single_sender(engine):
    inputs = make_inputs(1, 50)
    reports = pr.run_exhaustive(inputs, engine=engine)
    assert len(reports) == 32
    probs = np.array([r.branch_probability for r in reports])
    assert np.abs(probs - 1 / 32).max() < 1e-12
    assert abs(probs.sum() - 1) < 1e-10
    assert min(min(r.per_receiver_fidelity) for r in reports) > 1 - 1e-9


def test_exhaustive_two_senders_structured():
    inputs = make_inputs(2, 51)
    reports = pr.run_exhaustive(inputs, engine="structured")
    assert len(reports) == 512
    probs = np.array([r.branch_probability for r in reports])
    assert np.abs(probs - 4.0 ** -4 / 2).max() < 1e-12
    assert abs(probs.sum() - 1) < 1e-10
    assert min(min(r.per_receiver_fidelity) for r in reports) > 1 - 1e-9


def test_engines_produce_identical_reports():
    for s in (1, 2):
        inputs = make_inputs(s, 60 + s)
        dense = pr.run_exhaustive(inputs, engine="dense")
        structured = pr.run_exhaustive(inputs, engine="structured")
        for a, b in zip(dense, structured):
            assert a.outcome == b.outcome
            assert abs(a.branch_probability - b.branch_probability) < 1e-12
            for fa, fb in zip(a.per_receiver_fidelity, b.per_receiver_fidelity):
                assert abs(fa - fb) < 1e-10


# Engine agreement on one branch, for probabilities and fidelities alike.
# Both are sums and products of a few dozen terms of order 1, so the engines
# stay a few ulps apart (measured at s=3: 3e-19 and 4e-16); the bound leaves
# more than an order of magnitude above that.
ENGINE_AGREEMENT_TOL = 1e-14


def assert_reports_agree(a, b):
    assert a.outcome == b.outcome and a.transcript == b.transcript
    assert abs(a.branch_probability - b.branch_probability) < ENGINE_AGREEMENT_TOL
    assert np.abs(np.subtract(a.per_receiver_fidelity, b.per_receiver_fidelity)).max() < ENGINE_AGREEMENT_TOL


def test_engines_agree_on_forced_branches_at_three_senders():
    inputs = make_inputs(3, 62)
    rng = np.random.default_rng(63)
    for _ in range(3):
        record = pr.OutcomeRecord(tuple(int(b) for b in rng.integers(0, 4, 6)), int(rng.integers(2)))
        dense = pr.run_protocol(inputs, engine="dense", forced=record, allow_large_dense=True)
        structured = pr.run_protocol(inputs, forced=record)
        assert_reports_agree(dense, structured)


def test_engines_draw_identical_sampled_outcomes():
    # both engines draw one rng.random() per measured bit, message qubit
    # first, so one seed gives both the same branches
    inputs = make_inputs(2, 64)
    dense_rng, structured_rng = np.random.default_rng(65), np.random.default_rng(65)
    for _ in range(24):
        dense = pr.run_protocol(inputs, engine="dense", rng=dense_rng)
        structured = pr.run_protocol(inputs, rng=structured_rng)
        assert_reports_agree(dense, structured)
    assert dense_rng.random() == structured_rng.random()


def test_exhaustive_shared_base_matches_fresh_state_per_branch():
    # run_exhaustive copies one prepared state per branch; no branch may see
    # another's measurements through that shared base
    for s in (1, 2):
        inputs = make_inputs(s, 52 + s)
        swept = pr.run_exhaustive(inputs, engine="structured")
        fresh = [pr.run_protocol(inputs, forced=r) for r in pr.enumerate_records(s)]
        assert [r.to_dict() for r in swept] == [r.to_dict() for r in fresh]


# --------------------------------------------------------- order independence

def test_bsm_order_does_not_change_report():
    inputs = make_inputs(4, 70)
    record = pr.OutcomeRecord((1, 3, 0, 2, 2, 1, 3, 0), 1)
    base = pr.run_protocol(inputs, forced=record)
    rng = np.random.default_rng(8)
    for _ in range(3):
        order = list(rng.permutation(8))
        shuffled = pr.run_protocol(inputs, forced=record, bsm_order=order)
        assert shuffled.outcome == base.outcome
        assert abs(shuffled.branch_probability - base.branch_probability) < 1e-12
        for fa, fb in zip(shuffled.per_receiver_fidelity, base.per_receiver_fidelity):
            assert abs(fa - fb) < 1e-10
        assert shuffled.transcript == base.transcript
    with pytest.raises(ValueError):
        pr.run_protocol(inputs, forced=record, bsm_order=[0] * 8)


# ------------------------------------------------------------------- gating

def test_pre_broadcast_matrix_is_half_half_mixture():
    inputs = make_inputs(4, 80)
    dm = pr.pre_broadcast_state(inputs, (0,) * 8)
    phi0 = product_coeffs([i.coeffs for i in inputs])
    phi1 = product_coeffs([flip_pattern(i.coeffs) for i in inputs])
    oracle = 0.5 * np.outer(phi0, phi0.conj()) + 0.5 * np.outer(phi1, phi1.conj())
    assert np.abs(dm.mat - oracle).max() < 1e-10
    assert abs(dm.trace() - 1) < 1e-10


def test_pre_broadcast_general_outcomes_match_single_sender_oracle():
    # dual route: the full-protocol marginal vs per-sender collapses computed
    # by the corrections module's independent mini-simulator
    from quadtel import corrections as co

    inputs = make_inputs(2, 81)
    bells = (2, 1, 3, 0)
    dm = pr.pre_broadcast_state(inputs, bells)
    branches = []
    for z in (0, 1):
        parts = [
            co.collapse_single_sender(inputs[i].coeffs, bells[2 * i], bells[2 * i + 1], z).amps
            for i in range(2)
        ]
        branches.append(product_coeffs(parts))
    oracle = 0.5 * np.outer(branches[0], branches[0].conj()) + 0.5 * np.outer(
        branches[1], branches[1].conj()
    )
    assert np.abs(dm.mat - oracle).max() < 1e-10


def test_pre_broadcast_engines_agree():
    inputs = make_inputs(2, 83)
    bells = (1, 0, 2, 3)
    structured = pr.pre_broadcast_state(inputs, bells, engine="structured")
    dense = pr.pre_broadcast_state(inputs, bells, engine="dense")
    assert np.abs(structured.mat - dense.mat).max() < 1e-10


def test_guessing_the_controller_bit_fails_on_average():
    rng = np.random.default_rng(82)
    fidelities = []
    for _ in range(20):
        inputs = [pr.InfoState.random(rng) for _ in range(4)]
        dm = pr.pre_broadcast_state(inputs, (0,) * 8)
        # a z=0 guess means applying identity corrections and hoping
        target = product_coeffs([i.coeffs for i in inputs])
        fidelities.append(float(np.real(np.vdot(target, dm.mat @ target))))
    assert np.mean(fidelities) < 0.999
    # while cooperating with the controller always succeeds
    report = pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 8, 1))
    assert all(f > 1 - 1e-9 for f in report.per_receiver_fidelity)


# ---------------------------------------------------------------- transcript

def test_transcript_counts_twenty_bits_for_four_senders():
    inputs = make_inputs(4, 90)
    report = pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 8, 0))
    assert report.classical_bits_sent == 20
    bsm_msgs = [m for m in report.transcript if m.kind == "bsm"]
    ctrl_msgs = [m for m in report.transcript if m.kind == "controller"]
    assert len(bsm_msgs) == 8 and all(m.bits == 2 for m in bsm_msgs)
    assert len(ctrl_msgs) == 4 and all(m.bits == 1 for m in ctrl_msgs)
    for i, sender in enumerate(pr.SENDERS):
        mine = [m for m in bsm_msgs if m.sender is sender]
        assert len(mine) == 2
        assert all(m.recipient is pr.RECEIVERS[i] for m in mine)
    assert {m.recipient for m in ctrl_msgs} == set(pr.RECEIVERS)
    assert all(m.sender is pr.Party.ELLE for m in ctrl_msgs)


def test_reduced_transcript_scales_with_sender_count():
    inputs = make_inputs(2, 91)
    report = pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 4, 0))
    assert report.classical_bits_sent == 2 * 4 + 2
    with pytest.raises(ValueError):
        pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 6, 0))


# ------------------------------------------------------------- sampled mode

def test_sampled_runs_reproduce_with_same_seed():
    inputs = make_inputs(2, 92)
    a = pr.run_protocol(inputs, rng=np.random.default_rng(123))
    b = pr.run_protocol(inputs, rng=np.random.default_rng(123))
    assert a.to_dict() == b.to_dict()
    assert all(f > 1 - 1e-9 for f in a.per_receiver_fidelity)


# 99.9th percentile of the chi-square law with 31 degrees of freedom (32
# outcomes, one constraint): a sampler that draws the uniform law fails one
# seed in a thousand, and the seed below is pinned.
CHI2_31_DOF_999 = 61.10


def test_sampled_outcomes_cover_the_outcome_space():
    inputs = make_inputs(1, 93)
    rng = np.random.default_rng(7)
    seen = {pr.run_protocol(inputs, rng=rng).outcome for _ in range(64)}
    assert len(seen) > 10
    # goodness of fit: every single-sender branch has probability 1/32
    records = pr.enumerate_records(1)
    n = 64 * len(records)
    counts = np.zeros(len(records))
    for _ in range(n):
        counts[records.index(pr.run_protocol(inputs, rng=rng).outcome)] += 1
    expected = n / len(records)
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_31_DOF_999


# --------------------------------------------------- expansion coefficients

def test_expansion_coefficients_are_uniform_quarters():
    rng = np.random.default_rng(94)
    for _ in range(3):
        info = pr.InfoState.random(rng)
        mags, worst_direction = pr.expansion_block_coefficients(info)
        assert np.abs(mags - 0.25).max() < 1e-12
        assert worst_direction < 1e-9
