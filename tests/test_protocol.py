"""Protocol tests: global-state assembly, forced and exhaustive runs, engine
equivalence, controller gating, transcripts, and order independence."""
import gc
import itertools
import json
import resource
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import routes
from quadtel import channel as ch
from quadtel import corrections as co
from quadtel import harness
from quadtel import protocol as pr
from quadtel import statevector as sv
from quadtel.harness import FIDELITY_TOL, PROBABILITY_SUM_TOL, PROBABILITY_TOL
from routes import (
    ENGINE_AGREEMENT_TOL,
    flip_pattern,
    joint_pre_broadcast,
    make_inputs,
    pre_broadcast,
    product_coeffs,
    rebuilt,
    resident,
    run_in_order,
    traced_peak,
)


def to_dense(state):
    """A structured state written out densely: sum_z weight_z (blocks_z tensor |z>)."""
    amps = sum(w * sv.tensor(*blocks, sv.init_basis(1, z)).amps
               for z, (w, blocks) in enumerate(zip(state.weights, state.blocks)))
    return sv.StateVector(6 * state.s + 1, amps, copy=False)


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


def test_info_state_owns_read_only_coefficients():
    # a message keeps the blocks built from it, so its coefficients may not
    # change after it is made: not through the caller's array, nor its own
    c = np.array([1, 0, 0, 0], dtype=complex)
    info = pr.InfoState(c)
    c[0], c[1] = 0, 1
    assert info.coeffs.tolist() == [1, 0, 0, 0]
    assert not np.shares_memory(info.coeffs, c)
    with pytest.raises(ValueError, match="read-only"):
        info.coeffs[0] = 0
    with pytest.raises(AttributeError):
        info.coeffs = c
    pr.StructuredState.prepare([info])
    assert repr(info) == repr(pr.InfoState([1, 0, 0, 0])) and "_blocks" not in repr(info)


def test_messages_compare_and_hash_by_identity():
    # the blocks a message keeps belong to that object: a message rebuilt
    # from the same coefficients is another message, which keeps none yet
    info = pr.InfoState([1, 0, 0, 0])
    pr._block_state(info, pr._BRANCH_KINDS[0])
    twin = pr.InfoState(info.coeffs)
    assert info == info and hash(info) == hash(info)
    assert info != twin and not twin._blocks
    assert len({info, twin, info}) == 2


def test_blocks_refuse_in_place_kernels():
    # every state prepared from a message shares its blocks, so a kernel
    # that updates a state in place must not reach one
    block = pr._block_state(make_inputs(1, 58)[0], pr._BRANCH_KINDS[0])
    before = block.amps.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        sv.apply_1q(block, "H", 0)
    with pytest.raises(ValueError, match="read-only"):
        sv.measure_qubit(block, 0, forced=0)
    assert block.amps.tobytes() == before


def test_outcome_record_validation():
    with pytest.raises(ValueError):
        pr.OutcomeRecord((0, 4), 0)
    with pytest.raises(ValueError):
        pr.OutcomeRecord((0, 0), 2)
    with pytest.raises(ValueError, match="controller bit"):
        pr.OutcomeRecord((0, 0), True)  # a bool would print as "True" in the symbols
    with pytest.raises(ValueError, match="Bell outcomes"):
        pr.OutcomeRecord((True, 0), 0)
    assert pr.OutcomeRecord((0, 1, 2, 3), 1).symbols() == "k+,k-,l+,l-,1"


@pytest.mark.parametrize("bell, z", [((2.0, 0), 1), ((2, 0), 1.0), ((np.float64(1), 0), 0),
                                     ((1, 0), np.float64(0)), ((np.True_, 0), 0), ((1, 0), np.False_)])
def test_outcome_record_refuses_non_integers(bell, z):
    # an integral float passes `in range(4)` but fails as a table index later
    with pytest.raises(ValueError, match="Bell outcomes|controller bit"):
        pr.OutcomeRecord(bell, z)


def test_outcome_record_takes_numpy_integers_as_ints():
    record = pr.OutcomeRecord((np.int64(2), np.uint8(0)), np.int32(1))
    assert record == pr.OutcomeRecord((2, 0), 1)
    assert all(type(v) is int for v in record.bell + (record.z,))
    inputs = [pr.InfoState.random(np.random.default_rng(1))]
    assert json.loads(json.dumps(pr.run_protocol(inputs, forced=record).to_dict()))["outcome"]["symbols"] == "l+,k+,1"


def test_enumerated_records_equal_the_validated_ones():
    # enumerate_records skips the per-value checks on records it builds from
    # range(4); each must equal the record validated from the same values
    for s in (1, 2, 3):
        records = pr.enumerate_records(s)
        want = [pr.OutcomeRecord(bells, z)
                for bells in itertools.product(range(4), repeat=2 * s) for z in (0, 1)]
        assert records == want and len(records) == 2 * 4 ** (2 * s)
        assert all(type(v) is int for record in records for v in record.bell + (record.z,))


# ----------------------------------------------------------------- assembly

def test_assembled_state_is_normalized():
    state = pr.assemble_global(make_inputs(2, 2), "dense")
    assert abs(state.state.norm() - 1) < 1e-10


def test_structured_matches_dense_assembly():
    for s in (1, 2):
        inputs = make_inputs(s, 10 + s)
        dense = pr.assemble_global(rebuilt(inputs), "dense")
        structured = pr.assemble_global(inputs, "structured")
        assert np.linalg.norm(to_dense(structured).amps - in_block_order(dense).amps) < 1e-10


def test_dense_prepare_peaks_at_its_one_state():
    inputs = make_inputs(3, 13)
    state, peak = traced_peak(lambda: pr.DenseState.prepare(inputs))
    # s=3 is 19 qubits, 8 MiB: both controller branches built in one array
    assert peak <= (8 << 20) + (1 << 20)
    structured = pr.assemble_global(rebuilt(inputs), "structured")
    assert np.linalg.norm(to_dense(structured).amps - in_block_order(state).amps) < 1e-10


@pytest.mark.parametrize("s", [1, 2, 3])
def test_dense_prepare_equals_the_summed_branches(s):
    inputs = make_inputs(s, 40 + s)
    branches = []
    for z, kind in enumerate((ch.BellKind.KAPPA_PLUS, ch.BellKind.LAMBDA_MINUS)):
        pair = sv.pair_state(ch.BELL_COEFFS[kind])
        blocks = [sv.tensor(sv.pair_state(info.coeffs), pair, pair) for info in reversed(inputs)]
        branches.append(sv.tensor(*blocks, sv.init_basis(1, z)).amps)
    want = (branches[0] + branches[1]) * (1 / np.sqrt(2))
    # values, not bytes: the sum's "+ 0.0" turns a -0.0 part into +0.0,
    # and prepare, which adds nothing, may keep the -0.0
    assert np.array_equal(pr.DenseState.prepare(inputs).state.amps, want)


@pytest.mark.parametrize("z", [0, 1])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_forced_dense_prepare_builds_only_half_z(s, z):
    # Elle's bit projected out first: half z of the full preparation, byte
    # for byte, and the other half never written.  Elle's qubit is fixed at
    # z, and each block's two channel pairs are recorded with the parity of
    # branch z's Bell kind (κ+ even, λ- odd), so the kernels' live view is
    # the 2^(4s) amplitudes of half z that those pairs allow
    inputs = make_inputs(s, 40 + s)
    full = pr.DenseState.prepare(inputs).state.amps.reshape(2, -1)
    state = pr.DenseState.prepare(inputs, z).state
    halves = state.amps.reshape(2, -1)
    assert halves[z].tobytes() == full[z].tobytes()
    assert halves[1 - z].tobytes() == bytes(halves[1 - z].nbytes)
    assert state.fixed == (1 << 6 * s, z << 6 * s)
    bases = [6 * (s - 1 - i) for i in range(s)]
    assert state.pairs == tuple((base + a, base + a + 1, z) for base in bases for a in (2, 4))
    live = sv._live(state)
    assert live.size == 1 << 4 * s
    assert np.count_nonzero(state.amps) == np.count_nonzero(live) == live.size
    # a two-half preparation records none: its parity depends on Elle's bit
    assert pr.DenseState.prepare(inputs).state.pairs == ()


def test_dense_prepare_refuses_a_controller_bit_other_than_0_or_1():
    with pytest.raises(ValueError, match="controller bit"):
        pr.DenseState.prepare(make_inputs(1, 40), 2)


def test_dense_first_bell_pair_leaves_long_contiguous_live_runs():
    # block 0, measured first, sits on the top sender qubits (12..17 at s=3):
    # measuring its first pair fixes qubits 12 and 14, so qubits 0..11 stay
    # one contiguous run, not one live amplitude per cache line
    state = pr.DenseState.prepare(make_inputs(3, 23))
    state.bsm_pair(0, forced=0)
    live = sv._live(state.state)
    assert live.strides[-1] == live.itemsize
    assert live.shape[-1] >= 1 << 12


def test_dense_phase_correction_leaves_earlier_copies_untouched():
    state = pr.assemble_global(make_inputs(1, 17), "dense")
    entry = next(e for e in co.TABLE_FIRST_PAIR.values() if e.phase_pi)
    kept = state.copy()
    snapshot = kept.state.amps.copy()
    state.apply_correction(0, entry)
    assert np.array_equal(kept.state.amps, snapshot)
    assert not np.shares_memory(state.state.amps, kept.state.amps)
    word = [(entry.first, 3), (entry.second, 5)]  # block 0's receiver qubits
    want = kept.state.copy()
    sv.apply_pauli_word(want, word)
    assert np.array_equal(state.state.amps, -want.amps)


def permute_qubits(state, perm):
    """Relocate qubit q to index perm[q]; perm is a bijection on 0..n-1."""
    idx = np.arange(state.amps.size)
    new_idx = np.zeros_like(idx)
    for q, t in enumerate(perm):
        new_idx |= ((idx >> q) & 1) << t
    out = np.empty_like(state.amps)
    out[new_idx] = state.amps
    return sv.StateVector(state.n_qubits, out, copy=False)


def in_block_order(dense):
    """A dense engine state with sender block i moved to qubits 6i..6i+5.

    The dense register holds the blocks in reverse, block i on qubits
    6(s-1-i)..6(s-1-i)+5; Elle stays on the top qubit, 6s.
    """
    s = dense.s
    perm = [6 * (s - 1 - q // 6) + q % 6 for q in range(6 * s)] + [6 * s]
    return permute_qubits(dense.state, perm)


def test_dense_assembly_matches_channel_module_construction():
    """Cross-check the protocol register against the channel builder.

    The same global state is assembled independently as (messages tensor
    channel-in-construction-order) and permuted into the block-contiguous
    protocol order.
    """
    inputs = make_inputs(2, 31)
    chan = ch.build_channel_analytic(4, +1)
    msgs = [sv.pair_state(i.coeffs) for i in inputs]
    flat = sv.tensor(*msgs, chan)
    # message pair i sits at 2i,2i+1; channel qubit c at 4 + c in `flat`
    # qubit -> protocol position: messages to block bases, channel pairs after them
    perm = {0: 0, 1: 1, 2: 6, 3: 7}
    perm.update({4 + 0: 2, 4 + 1: 3, 4 + 2: 4, 4 + 3: 5})
    perm.update({4 + 4: 8, 4 + 5: 9, 4 + 6: 10, 4 + 7: 11})
    perm.update({4 + 8: 12})
    reordered = permute_qubits(flat, [perm[q] for q in range(13)])
    dense = pr.assemble_global(inputs, "dense")
    assert np.linalg.norm(reordered.amps - in_block_order(dense).amps) < 1e-12


def test_channel_pair_marginals_in_assembled_state():
    inputs = make_inputs(1, 7)
    structured = pr.assemble_global(inputs, "structured")
    kp = ch.BELL_COEFFS[ch.BellKind.KAPPA_PLUS]
    lm = ch.BELL_COEFFS[ch.BellKind.LAMBDA_MINUS]
    mix = 0.5 * np.outer(kp, kp.conj()) + 0.5 * np.outer(lm, lm.conj())
    for which in (0, 1):
        keep = (3 + 2 * which, 2 + 2 * which)  # (receiver-side, sender-side)
        got = sum(
            abs(structured.weights[b]) ** 2
            * sv.partial_trace(structured.blocks[b][0], keep)
            for b in (0, 1)
        )
        assert np.abs(got - mix).max() < 1e-12


def test_assemble_global_builds_a_large_dense_state_without_a_flag():
    # the dense-memory opt-in is a command-line policy, checked in harness.cmd_run
    inputs = make_inputs(3, 3)
    state = pr.assemble_global(inputs, "dense")
    assert state.state.n_qubits == 19
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        pr.assemble_global(inputs, "bogus")


# -------------------------------------------------------------- forced runs

def test_all_kappa_plus_z0_needs_no_correction():
    inputs = make_inputs(4, 40)
    record = pr.OutcomeRecord((0,) * 8, 0)
    pre = joint_pre_broadcast(inputs, record.bell)
    # the z=0 branch of the pre-broadcast mixture is already the target
    # product, so the target scores 1/2 plus the tiny branch cross term
    target = product_coeffs([i.coeffs for i in inputs])
    other = product_coeffs([flip_pattern(i.coeffs) for i in inputs])
    expected = 0.5 * (1 + abs(np.vdot(target, other)) ** 2)
    assert abs(np.real(np.vdot(target, pre @ target)) - expected) < 1e-10
    report = pr.run_protocol(inputs, forced=record)
    assert all(f > 1 - FIDELITY_TOL for f in report.per_receiver_fidelity)


def test_all_kappa_plus_z1_collapse_matches_flip_pattern():
    inputs = make_inputs(4, 41)
    state = pr.assemble_global(inputs, "structured")
    for j in range(8):
        state.bsm_pair(j, forced=0)
    z, prob = state.measure_controller(forced=1)
    assert abs(prob - 0.5) < PROBABILITY_TOL
    for i in range(4):
        dm = state.receiver_dm(i)
        expect = flip_pattern(inputs[i].coeffs)
        assert abs(np.real(np.vdot(expect, dm @ expect)) - 1) < 1e-10
    # applying the tabulated correction restores every message
    for i in range(4):
        state.apply_correction(i, co.table_lookup(f"fancy{i + 1}", (0, 0, 1)))
        fid = sv.dm_fidelity(state.receiver_dm(i), inputs[i].target_state())
        assert fid > 1 - FIDELITY_TOL


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
    return pr._Block(v / np.linalg.norm(v))


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
    generic = to_dense(state)
    sv.apply_cnot(generic, a, b)
    sv.apply_1q(generic, "H", a)
    bit_a, p_a = sv.measure_qubit(generic, a, forced=fa, rng=rng_generic)
    bit_b, p_b = sv.measure_qubit(generic, b, forced=fb, rng=rng_generic)
    got, prob = state.bsm_pair(j, forced=outcome, rng=rng_kernel)
    assert got == sv.BELL_OUTCOME_BITS.index((bit_a, bit_b))
    assert abs(prob - p_a * p_b) < 1e-15
    assert np.linalg.norm(to_dense(state).amps - generic.amps) < 1e-13
    assert abs(np.sum(np.abs(state.weights) ** 2) - 1) < 1e-13


def k_plus_block():
    """A block whose pair (0, 2) holds k+, so that its BSM can only read k+."""
    amps = np.zeros(64, dtype=complex)
    amps[0b000000] = amps[0b000101] = 2 ** -0.5
    return pr._Block(amps)


def test_block_kernel_names_an_impossible_outcome():
    # pair (0, 2) of block 1 holds k+, so its BSM can only read k+: k- fails
    # on the message qubit, l+ on the channel qubit
    rng = np.random.default_rng(110)
    for outcome, where in ((1, "block 1 qubit 0 outcome 1"), (2, "block 1 qubit 2 outcome 1")):
        blocks = [[random_block(rng), k_plus_block()] for _ in range(2)]
        state = pr.StructuredState(2, [2 ** -0.5, 2 ** -0.5], blocks)
        with pytest.raises(sv.ImpossibleBranchError, match=f"^{where} has probability"):
            state.bsm_pair(2, forced=outcome)


def measure_with_branch_1_on_k_plus(outcome, seed):
    """``bsm_pair(2)`` on a two-branch state whose branch 1 holds the k+ block
    at block 1, against the generic route on the state written out densely.
    Returns the state and whether the measurement dropped branch 1."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    state = pr.StructuredState(2, w / np.linalg.norm(w),
                               [[random_block(rng), random_block(rng)], [random_block(rng), k_plus_block()]])
    branch_1 = list(state.blocks[1])
    fa, fb = (None, None) if outcome is None else sv.BELL_OUTCOME_BITS[outcome]
    rng_generic, rng_kernel = np.random.default_rng(seed), np.random.default_rng(seed)
    generic = to_dense(state)
    sv.apply_cnot(generic, 6, 8)
    sv.apply_1q(generic, "H", 6)
    bit_a, p_a = sv.measure_qubit(generic, 6, forced=fa, rng=rng_generic)
    bit_b, p_b = sv.measure_qubit(generic, 8, forced=fb, rng=rng_generic)
    got, prob = state.bsm_pair(2, forced=outcome, rng=rng_kernel)
    assert got == sv.BELL_OUTCOME_BITS.index((bit_a, bit_b))
    assert abs(prob - p_a * p_b) < 1e-15
    assert np.linalg.norm(to_dense(state).amps - generic.amps) < 1e-13
    assert abs(np.sum(np.abs(state.weights) ** 2) - 1) < 1e-13
    dropped = got != 0
    if dropped:
        assert state.weights[1] == 0j
        assert all(now is then for now, then in zip(state.blocks[1], branch_1))
    return state, dropped


@pytest.mark.parametrize("outcome", [1, 2, 3])
def test_bsm_drops_the_branch_that_cannot_give_the_outcome(outcome):
    # every protocol branch reads each Bell outcome with probability 1/4 in
    # both controller branches, so no run drops one: here branch 1 cannot
    # read k-, l+ or l-, which it refuses at the first bit (k-, l-) or the
    # second (l+), and branch 0 can
    _, dropped = measure_with_branch_1_on_k_plus(outcome, 120 + outcome)
    assert dropped


def test_sampled_bsm_drops_the_branch_that_cannot_give_the_outcome():
    # the same draws on both routes, from one seed per state; about three in
    # eight of them read an outcome that branch 1 cannot give
    dropped = [measure_with_branch_1_on_k_plus(None, seed)[1] for seed in range(130, 146)]
    assert any(dropped) and not all(dropped)


def test_kept_bell_step_serves_only_its_weights_and_branch_1_block():
    # a branch-0 block keeps each Bell step it takes, keyed by the branch-1
    # block, the pair and the weights.  States here share that block under
    # two weight pairs and two branch-1 blocks, one of which drops branch 1
    # on k-, l+ and l-; every call must equal the same call on rebuilt
    # blocks, which keep nothing, so no step may serve another key
    rng = np.random.default_rng(150)
    first, shared = random_block(rng), random_block(rng)
    branch_1 = [[random_block(rng), k_plus_block()], [random_block(rng), random_block(rng)]]
    weights = [w / np.linalg.norm(w) for w in rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
    for (w, blocks_1), outcome in itertools.product(
            [*itertools.product(weights, branch_1)] * 2, [0, 1, 2, 3, None, None]):
        kept = pr.StructuredState(2, w, [[first, shared], list(blocks_1)])
        fresh = pr.StructuredState(2, w, [[pr._Block(b.amps) for b in branch] for branch in kept.blocks])
        seed = int(rng.integers(1 << 30))
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = (state.bsm_pair(2, forced=outcome, rng=r) for state, r in zip((kept, fresh), rngs))
        assert got == want and kept.weights == fresh.weights
        assert block_bytes(kept) == block_bytes(fresh)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert len(shared._steps) == 4 and all(len(step.results) == 4 for step in shared._steps.values())


@pytest.mark.parametrize("outcome, where", [(1, "block 1 qubit 0 outcome 1"), (2, "block 1 qubit 2 outcome 1")])
def test_refused_bell_step_keeps_nothing(outcome, where):
    # both branches hold k+ at block 1's first pair, so k- is refused at the
    # message qubit and l+ at the channel qubit, on every call: a refused
    # outcome is never kept, and the state is left as it was
    rng = np.random.default_rng(160)
    state = pr.StructuredState(2, [0.6, 0.8j], [[random_block(rng), k_plus_block()] for _ in range(2)])
    blocks, weights = block_bytes(state), state.weights
    for _ in range(2):
        with pytest.raises(sv.ImpossibleBranchError, match=f"^{where} has probability"):
            state.bsm_pair(2, forced=outcome)
        assert block_bytes(state) == blocks and state.weights == weights
    (step,) = state.blocks[0][1]._steps.values()
    assert step.results == {}
    got, prob = state.bsm_pair(2, forced=0)
    assert got == 0 and abs(prob - 1) < 1e-12


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_bell_outcome_must_be_an_integer_on_both_engines(engine):
    # 1.0, np.float64(1.0) and True equal the outcome 1, but no engine takes
    # them: not on a fresh state, and not once a forced 1 is kept (the
    # structured engine keeps its Bell steps on the blocks all states share).
    # Nor does either engine's controller bit, DenseState.prepare's or
    # statevector.measure_qubit, which take a numpy integer
    inputs = make_inputs(1, 170)
    for kept in (False, True):
        if kept:
            assert pr.assemble_global(inputs, engine).bsm_pair(0, forced=1)[0] == 1
        for bad in (1.0, np.float64(1.0), True):
            state = pr.assemble_global(inputs, engine)
            with pytest.raises(ValueError, match="Bell outcome must be an integer"):
                state.bsm_pair(0, forced=bad)
            with pytest.raises(ValueError, match="forced outcome must be the integer 0 or 1"):
                state.measure_controller(forced=bad)
            with pytest.raises(ValueError, match="forced outcome must be the integer 0 or 1"):
                sv.measure_qubit(sv.StateVector(1, np.array([0.6, 0.8])), 0, forced=bad)
    for bad in (1.0, np.float64(1.0), True, np.True_):
        with pytest.raises(ValueError, match="controller bit must be None or the integer 0 or 1"):
            pr.DenseState.prepare(inputs, bad)
    assert pr.DenseState.prepare(inputs, np.int64(1)).state.fixed == pr.DenseState.prepare(inputs, 1).state.fixed
    assert pr.assemble_global(inputs, engine).measure_controller(forced=np.int64(1))[0] == 1
    assert sv.measure_qubit(sv.StateVector(1, np.array([0.6, 0.8])), 0, forced=np.int64(1))[0] == 1


def test_structured_receiver_dm_is_kept_read_only():
    # once a run has one controller branch, receiver_dm is the block's kept
    # p * receiver_mat(): read-only, the same object on every call, and equal
    # bit for bit to the product computed fresh
    inputs = make_inputs(2, 171)
    states = []
    for _ in range(2):
        state = pr.assemble_global(inputs, "structured")
        for j in range(4):
            state.bsm_pair(j, forced=j)
        state.measure_controller(forced=1)
        states.append(state)
    for i in range(2):
        rho = states[0].receiver_dm(i)
        p = abs(states[0].weights[1]) ** 2
        fresh = p * sv.partial_trace(states[0].blocks[1][i], pr._RECEIVER_KEEP)
        assert not rho.flags.writeable and np.array_equal(rho, fresh)
        assert states[1].receiver_dm(i) is rho
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0] = 0


def test_score_keeps_read_only_matrices_and_rescores_writable_ones():
    info = make_inputs(1, 172)[0]
    rho = np.outer(info.coeffs, info.coeffs.conj())
    assert info.score(rho) == pytest.approx(1)
    rho[...] = np.eye(4) / 4  # edited in place: scored afresh
    assert info.score(rho) == pytest.approx(0.25)
    assert info._scores == {}
    rho.flags.writeable = False
    assert info.score(rho) == pytest.approx(0.25)
    assert info._scores[id(rho)][0] is rho
    view = rho[:, :]  # owns no data, so its base could change under it: never kept
    assert info.score(view) == pytest.approx(0.25) and len(info._scores) == 1


def test_kept_bell_steps_are_few_and_die_with_their_messages(monkeypatch):
    # every Bell outcome has probability 1/4 in both controller branches, so
    # all branches at one depth of a run carry the same weights: an s=3 sweep
    # keeps 5 steps per sender (pair 0 on the prepared block, pair 1 on its
    # 4 children), each with its 4 outcomes, and one receiver matrix per
    # corrected leaf, each scored once.  Each Bell split, collapsed block and
    # receiver matrix is computed once: two splits per step, two collapsed
    # blocks per result, kept in it.  A step holds no reference to the
    # block that keeps it, so with the cycle collector off the messages, and
    # every block with the steps, matrices and scores it keeps, die as soon
    # as the run returns
    random_message = pr.InfoState.random

    def recording(keep):
        def random(rng):
            info = random_message(rng)
            keep(info)
            return info
        return random

    def kept_blocks(block):
        """The block and all it keeps: its corrected forms, and the collapsed
        blocks in its steps' results, (weights, child0, child1, outcome, prob)."""
        below = [*block._corrected_by.values(),
                 *(child for step in block._steps.values() for result in step.results.values()
                   for child in result[1:3] if child is not None)]
        return [block, *(kept for child in below for kept in kept_blocks(child))]

    def counted(name, function):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return function(*args)
        return call

    calls = {}
    for owner, name in ((pr._Block, "bell_split"), (pr, "_collapsed"), (pr._Block, "receiver_mat")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    made = []
    monkeypatch.setattr(pr.InfoState, "random", recording(made.append))
    harness.cmd_run(senders=3, mode="exhaustive")
    assert len(made) == 3
    assert calls == {"bell_split": 3 * 5 * 2, "_collapsed": 3 * 5 * 4 * 2, "receiver_mat": 3 * 32}
    for info in made:
        prepared0, prepared1 = (pr._block_state(info, kind) for kind in pr._BRANCH_KINDS)
        blocks = kept_blocks(prepared0)
        steps = [step for block in blocks for step in block._steps.values()]
        assert len(steps) == 5 and all(len(step.results) == 4 for step in steps)
        assert kept_blocks(prepared1) == [prepared1]
        # one kept receiver matrix and one score per corrected leaf: 2 x 16
        matrices = [m for block in blocks for m in block._receiver_by.values()]
        assert len(matrices) == 32 and len(info._scores) == 32
        assert {id(m) for m in matrices} == set(info._scores)
    refs = []
    monkeypatch.setattr(pr.InfoState, "random", recording(lambda info: refs.append(weakref.ref(info))))
    score = pr.InfoState.score

    def scoring(info, rho):
        if not rho.flags.writeable:
            refs.append(weakref.ref(rho))
        return score(info, rho)

    monkeypatch.setattr(pr.InfoState, "score", scoring)
    gc.disable()
    try:
        blocks = sum(isinstance(obj, pr._Block) for obj in gc.get_objects())
        harness.cmd_run(senders=4, mode="sampled:16")
        assert len(refs) == 4 + 4 * 16 and all(ref() is None for ref in refs)
        assert sum(isinstance(obj, pr._Block) for obj in gc.get_objects()) == blocks
    finally:
        gc.enable()


# ------------------------------------------------------------- route matrix

# (route, senders, record set) per cell; messages from SEEDS[s], records from
# SEEDS[s] + 1.  At s=4 the dense cell is 16 seeded 25-qubit branches, the
# controller bit alternating, the size of the README's s=4 runs.
ROUTE_CELLS = [
    ("structured", 1, "all"), ("operator", 1, "all"),
    ("kept", 1, "all"), ("kept", 2, "all"), ("kept", 3, "forced:64"), ("kept", 4, "forced:80"),
    *(("kept", s, "sampled:64") for s in range(1, pr.MAX_SENDERS + 1)),
    ("dense", 1, "all"), ("dense", 2, "all"), ("dense", 2, "sampled:24"), ("dense", 3, "forced:32"),
    ("dense", 4, "forced:16"),
    ("table", 1, "all"), ("table", 2, "all"), ("table", 4, "sampled:64"),
]
# The same comparison with every receiver corrected by I(x)I instead of its
# printed word.  The printed words give F = 1 on every branch, so a route that
# read another branch's fidelity would still agree; without them the
# fidelities differ from branch to branch (from 6e-4 to 1 at s=1, 2e-3 to 1 at
# s=2).  A dense cell of ``all`` records runs every branch as a forced run,
# on half z of the register alone.
IDENTITY_WORD_CELLS = [("kept", 1, "all"), ("dense", 1, "all"), ("operator", 1, "all"), ("table", 2, "all")]
SEEDS = {1: 61, 2: 62, 3: 62, 4: 66}
_IDENTITY_WORD = co.CorrectionEntry(co.PauliFactor.I, co.PauliFactor.I)


_CELLS = [(*cell, "printed") for cell in ROUTE_CELLS] + [(*cell, "identity") for cell in IDENTITY_WORD_CELLS]
CELL_IDS = [f"{r}-s{s}-{spec}" + ("-identity" if w == "identity" else "") for r, s, spec, w in _CELLS]


@pytest.mark.parametrize("route, s, spec, words", _CELLS, ids=CELL_IDS)
def test_route_matches_reference(route, s, spec, words, monkeypatch):
    # each route gives the reference's outcomes (drawn ones leave the generator
    # where the reference's is), probability and fidelities, byte for byte on
    # the structured engine; every branch keeps p = 2^-(4s+1), and fidelity 1
    # under the printed words
    if words == "identity":
        monkeypatch.setattr(co, "table_lookup", lambda receiver, key: _IDENTITY_WORD)
    inputs = make_inputs(s, SEEDS[s])
    mine, theirs = (routes.record_set(s, spec, SEEDS[s] + 1) for _ in range(2))
    want = routes.structured(inputs, theirs)
    got = routes.ROUTES[route](inputs, mine if route in routes.DRAWING else [w.outcome for w in want])
    assert [g.outcome for g in got] == [w.outcome for w in want]
    if isinstance(mine, routes.Sampled) and route in routes.DRAWING:
        assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state
    for branches in (want, got):
        probs = np.array([b.branch_probability for b in branches])
        assert np.abs(probs - 2.0 ** -(4 * s + 1)).max() < PROBABILITY_TOL
        if words == "printed":
            assert min(min(b.per_receiver_fidelity) for b in branches) >= 1 - FIDELITY_TOL
        if spec == "all":
            assert len(branches) == 2 * 16 ** s and abs(probs.sum() - 1) < PROBABILITY_SUM_TOL
    for g, w in zip(got, want):
        assert route not in ("structured", "kept") or g.to_dict() == w.to_dict()
        assert abs(g.branch_probability - w.branch_probability) < ENGINE_AGREEMENT_TOL
        assert np.abs(np.subtract(g.per_receiver_fidelity, w.per_receiver_fidelity)).max() < ENGINE_AGREEMENT_TOL


def test_forced_s4_dense_branch_touches_few_pages():
    # the 25-qubit register spans 512 MiB of pages that are mapped when
    # used.  Preparation writes the 2^16 amplitudes its channel pairs allow
    # and reads nothing back, and the kernels read only those amplitudes,
    # so the branch takes a few thousand page faults (a pass over half z
    # takes 65536) and makes about 12 MiB resident
    inputs = make_inputs(4, SEEDS[4])
    (record,) = routes.record_set(4, "forced:1", SEEDS[4] + 1)
    faults, before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, resident("RssAnon")
    state = pr.DenseState.prepare(inputs, record.z)
    report = pr.run_protocol(inputs, forced=record, state=state)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert faults <= 16384
    assert resident("RssAnon") - before < 24 << 20
    assert min(report.per_receiver_fidelity) >= 1 - FIDELITY_TOL


def test_every_route_has_a_cell():
    assert set(routes.ROUTES) <= {route for route, _, _ in ROUTE_CELLS}


# ------------------------------------------------------------- shared bases

def test_exhaustive_shared_base_matches_fresh_state_per_branch():
    # run_exhaustive runs each branch on a copy of one prepared state, and the
    # copies share its blocks and what each block keeps; no branch may see
    # another's measurements through them.  The reference runs each branch on
    # rebuilt messages, which hold no blocks.  Every branch at s=1, 2; 64
    # seeded ones at s=3
    rng = np.random.default_rng(55)
    for s in (1, 2, 3):
        inputs = make_inputs(s, 52 + s)
        records = pr.enumerate_records(s)
        swept = pr.run_exhaustive(inputs, engine="structured")
        picks = range(len(records)) if s < 3 else rng.choice(len(records), 64, replace=False)
        for k in picks:
            assert swept[k].to_dict() == pr.run_protocol(rebuilt(inputs), forced=records[k]).to_dict()


def block_bytes(state):
    return [[blk.amps.tobytes() for blk in branch] for branch in state.blocks]


def test_structured_copies_leave_the_base_and_each_other_alone():
    # sweeping every branch on copies of a base leaves its blocks and weights
    # as prepared, and two copies forced to different outcomes share no block
    inputs = make_inputs(2, 56)
    base = pr.StructuredState.prepare(inputs)
    prepared, weights = block_bytes(base), base.weights
    for record in pr.enumerate_records(2):
        pr.run_protocol(inputs, forced=record, state=base.copy())
    assert block_bytes(base) == prepared
    assert base.weights == weights
    one, two = base.copy(), base.copy()
    pr.run_protocol(inputs, forced=pr.OutcomeRecord((0, 1, 2, 3), 0), state=one)
    pr.run_protocol(inputs, forced=pr.OutcomeRecord((3, 2, 1, 0), 1), state=two)
    held = [{id(blk) for branch in state.blocks for blk in branch} for state in (base, one, two)]
    assert not (held[0] & held[1] or held[0] & held[2] or held[1] & held[2])


def test_python_weights_round_as_numpy_complex128():
    # StructuredState keeps its weights as Python complex numbers, and its
    # reports stay byte-identical only if they round as numpy's complex128
    # did: numpy divides a complex by a real as a product with the
    # reciprocal (plain ``w / d`` differs in the last bit on 45616 of these
    # draws), and ``abs`` agrees with numpy's scalar ``abs``
    rng = np.random.default_rng(115)
    n = 100_000
    re, im = rng.standard_normal((2, n)).tolist()
    divisors = np.sqrt(rng.random(n) + 1e-12).tolist()
    for a, b, d in zip(re, im, divisors):
        w = complex(a, b)
        assert w * (1.0 / d) == complex(np.complex128(w) / d)
        assert abs(w) ** 2 == abs(np.complex128(w)) ** 2


def test_structured_correction_cache_keeps_each_word_apart():
    # copies share each block's corrected forms; each word applied to the
    # same shared block must still give that word's result
    from quadtel import corrections as co

    base = pr.StructuredState.prepare(make_inputs(1, 18))
    for entry in dict.fromkeys(co.TABLE_FIRST_PAIR.values()):
        twin = base.copy()
        twin.apply_correction(0, entry)
        word = list(zip((entry.first, entry.second), pr._RECEIVER_QUBITS))
        for corrected, prepared in zip(twin.blocks, base.blocks):
            want = prepared[0].copy()
            sv.apply_pauli_word(want, word)
            assert np.array_equal(corrected[0].amps, -want.amps if entry.phase_pi else want.amps)


def test_message_keeps_one_block_per_bell_kind():
    # each message builds its block of each controller-branch kind once, and
    # every state prepared from it, of either engine, starts from those
    first, second = inputs = make_inputs(2, 57)
    for info in inputs:
        blocks = [pr._block_state(info, kind) for kind in pr._BRANCH_KINDS]
        for kind, block in zip(pr._BRANCH_KINDS, blocks):
            pair = sv.pair_state(ch.BELL_COEFFS[kind]).amps
            assert np.array_equal(block.amps, np.kron(pair, np.kron(pair, sv.pair_state(info.coeffs).amps)))
            assert pr._block_state(info, kind) is block
        assert blocks[0] is not blocks[1]
    assert pr._block_state(first, pr._BRANCH_KINDS[0]) is not pr._block_state(second, pr._BRANCH_KINDS[0])
    kept = [[pr._block_state(info, kind) for info in inputs] for kind in pr._BRANCH_KINDS]
    for state in (pr.StructuredState.prepare(inputs), pr.StructuredState.prepare(inputs).copy()):
        assert all(a is b for held, want in zip(state.blocks, kept) for a, b in zip(held, want))
    dense = pr.DenseState.prepare(inputs)
    assert np.array_equal(dense.state.amps, pr.DenseState.prepare(rebuilt(inputs)).state.amps)


# --------------------------------------------------------- order independence

def assert_reports_agree(a, b):
    assert a.outcome == b.outcome and a.transcript == b.transcript
    assert abs(a.branch_probability - b.branch_probability) < ENGINE_AGREEMENT_TOL
    assert np.abs(np.subtract(a.per_receiver_fidelity, b.per_receiver_fidelity)).max() < ENGINE_AGREEMENT_TOL


def test_bsm_order_does_not_change_report():
    inputs = make_inputs(4, 70)
    record = pr.OutcomeRecord((1, 3, 0, 2, 2, 1, 3, 0), 1)
    base = pr.run_protocol(inputs, forced=record)
    rng = np.random.default_rng(8)
    for _ in range(3):
        order = list(rng.permutation(8))
        shuffled = run_in_order(inputs, order, forced=record)
        assert shuffled.outcome == base.outcome
        assert abs(shuffled.branch_probability - base.branch_probability) < 1e-12
        for fa, fb in zip(shuffled.per_receiver_fidelity, base.per_receiver_fidelity):
            assert abs(fa - fb) < 1e-10
        assert shuffled.transcript == base.transcript


# The Bell measurements of each branch block by block in reverse, so that
# the low blocks' qubits are fixed while the high blocks' channel pairs are
# still recorded, on the first two records of `dense-s4-forced:16`; and at
# s=2 every order of the four on 8 seeded records.
DENSE_SCHEDULES = [
    (4, "forced:2", [[2 * i + which for i in range(3, -1, -1) for which in (0, 1)]]),
    (2, "forced:8", list(itertools.permutations(range(4)))),
]


@pytest.mark.parametrize("s, spec, orders", DENSE_SCHEDULES, ids=["s4-blocks-reversed", "s2-every-order"])
def test_dense_schedules_give_the_canonical_reports(s, spec, orders):
    inputs = make_inputs(s, SEEDS[s])
    records = routes.record_set(s, spec, SEEDS[s] + 1)
    canonical = routes.dense(inputs, records)
    for order in orders:
        for got, want in zip(routes.dense_schedule(inputs, records, order), canonical, strict=True):
            assert_reports_agree(got, want)


@pytest.fixture(scope="module")
def filled_bases():
    """Per sender count: the messages and a prepared state whose blocks hold
    the results of other branches, run in canonical and in reversed BSM order."""
    rng = np.random.default_rng(71)
    bases = {}
    for s in range(1, pr.MAX_SENDERS + 1):
        inputs = make_inputs(s, 71 + s)
        base = pr.StructuredState.prepare(inputs)
        for order in (range(2 * s), range(2 * s)[::-1]):
            for _ in range(16):
                run_in_order(inputs, order, rng=rng, state=base.copy())
        bases[s] = inputs, base
    return bases


@st.composite
def forced_runs(draw):
    s = draw(st.integers(1, pr.MAX_SENDERS))
    bell = draw(st.lists(st.integers(0, 3), min_size=2 * s, max_size=2 * s))
    record = pr.OutcomeRecord(tuple(bell), draw(st.integers(0, 1)))
    return s, record, draw(st.permutations(range(2 * s)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(run=forced_runs())
def test_cached_copy_matches_fresh_state_in_any_order(filled_bases, run):
    # a block's kept Bell split, correction and reduced matrix are what a
    # fresh state on rebuilt messages computes for it, whatever order the
    # measurements run in; and any order gives the canonical order's report
    s, record, order = run
    inputs, base = filled_bases[s]
    cached = run_in_order(inputs, order, forced=record, state=base.copy())
    fresh = run_in_order(rebuilt(inputs), order, forced=record)
    assert cached.to_dict() == fresh.to_dict()
    assert_reports_agree(fresh, pr.run_protocol(rebuilt(inputs), forced=record))


# ------------------------------------------------------------------- gating

def test_pre_broadcast_matrix_is_half_half_mixture():
    # before Elle's bit each receiver holds the equal mixture of the two
    # collapse patterns, and the receivers jointly the mixture of products
    for s, engine in ((4, "structured"), (2, "dense")):
        inputs = make_inputs(s, 80)
        mixtures, patterns, probs = pre_broadcast(inputs, (0,) * (2 * s), engine)
        assert all(abs(p - 0.5) < PROBABILITY_TOL for p in probs)
        for i, info in enumerate(inputs):
            for z, phi in enumerate((info.coeffs, flip_pattern(info.coeffs))):
                assert np.abs(patterns[z][i] - np.outer(phi, phi.conj())).max() < 1e-10
            assert np.abs(mixtures[i] - 0.5 * (patterns[0][i] + patterns[1][i])).max() < 1e-10
        dm = joint_pre_broadcast(inputs, (0,) * (2 * s), engine)
        phi0 = product_coeffs([i.coeffs for i in inputs])
        phi1 = product_coeffs([flip_pattern(i.coeffs) for i in inputs])
        oracle = 0.5 * np.outer(phi0, phi0.conj()) + 0.5 * np.outer(phi1, phi1.conj())
        assert np.abs(dm - oracle).max() < 1e-10
        assert abs(np.trace(dm) - 1) < 1e-10


def test_pre_broadcast_general_outcomes_match_single_sender_oracle():
    # dual route: the full-protocol marginal vs per-sender collapses computed
    # by the corrections module's independent mini-simulator
    inputs = make_inputs(2, 81)
    bells = (2, 1, 3, 0)
    dm = joint_pre_broadcast(inputs, bells)
    branches = []
    for z in (0, 1):
        parts = [
            co.collapse_single_sender(inputs[i].coeffs, bells[2 * i], bells[2 * i + 1], z)[0].amps
            for i in range(2)
        ]
        branches.append(product_coeffs(parts))
    oracle = 0.5 * np.outer(branches[0], branches[0].conj()) + 0.5 * np.outer(
        branches[1], branches[1].conj()
    )
    assert np.abs(dm - oracle).max() < 1e-10


@pytest.mark.parametrize("engine", pr.ENGINES)
def test_pre_broadcast_receiver_matches_branch_operators(engine):
    # at s=1, for all 16 (g, h): before z the receiver holds
    # 1/2 sum_z |K_z c><K_z c| / |K_z c|^2, with K_z the oracle's branch
    # operator of (g, h, z), and after z the pure collapse
    (info,) = make_inputs(1, 84)
    for g, h in itertools.product(range(4), repeat=2):
        mixtures, patterns, probs = pre_broadcast([info], (g, h), engine)
        collapses = []
        for z in (0, 1):
            image = co.branch_operator((g, h, z)) @ info.coeffs
            collapses.append(np.outer(image, image.conj()) / np.vdot(image, image).real)
            assert abs(probs[z] - 0.5) < PROBABILITY_TOL
            assert np.abs(patterns[z][0] - collapses[z]).max() < 1e-12, (g, h, z)
        assert np.abs(mixtures[0] - 0.5 * (collapses[0] + collapses[1])).max() < 1e-12, (g, h)


def test_pre_broadcast_engines_agree():
    inputs = make_inputs(2, 83)
    bells = (1, 0, 2, 3)
    structured = pre_broadcast(inputs, bells, "structured")
    dense = pre_broadcast(rebuilt(inputs), bells, "dense")
    # the mixtures, then the patterns per z, receiver by receiver
    for got, want in zip(structured[:2], dense[:2]):
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-10
    assert np.abs(np.subtract(structured[2], dense[2])).max() < PROBABILITY_TOL
    joint = joint_pre_broadcast(inputs, bells) - joint_pre_broadcast(rebuilt(inputs), bells, "dense")
    assert np.abs(joint).max() < 1e-10


# ---------------------------------------------------------------- transcript

def test_transcript_counts_twenty_bits_for_four_senders():
    inputs = make_inputs(4, 90)
    report = pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 8, 0))
    assert report.classical_bits_sent == 20
    bsm_msgs = [m for m in report.transcript if m["kind"] == "bsm"]
    ctrl_msgs = [m for m in report.transcript if m["kind"] == "controller"]
    assert len(bsm_msgs) == 8 and all(m["bits"] == 2 for m in bsm_msgs)
    assert len(ctrl_msgs) == 4 and all(m["bits"] == 1 for m in ctrl_msgs)
    for sender, receiver in zip(pr.SENDERS, co.RECEIVERS):
        mine = [m for m in bsm_msgs if m["from"] == sender]
        assert len(mine) == 2
        assert all(m["to"] == receiver for m in mine)
    assert {m["to"] for m in ctrl_msgs} == set(co.RECEIVERS)
    assert all(m["from"] == "elle" for m in ctrl_msgs)


def test_reduced_transcript_scales_with_sender_count():
    inputs = make_inputs(2, 91)
    report = pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 4, 0))
    assert report.classical_bits_sent == 2 * 4 + 2
    with pytest.raises(ValueError):
        pr.run_protocol(inputs, forced=pr.OutcomeRecord((0,) * 6, 0))


def test_transcripts_hold_the_records_every_run_would_build():
    # transcripts reference records built once at import; for every branch
    # at s=1..4 they equal the records built field by field per run
    for s in range(1, pr.MAX_SENDERS + 1):
        for outcomes, z in itertools.product(itertools.product(range(4), repeat=2 * s), (0, 1)):
            expected = [
                {"from": pr.SENDERS[i], "to": co.RECEIVERS[i], "kind": "bsm", "value": outcomes[2 * i + which],
                 "bits": 2}
                for i in range(s) for which in (0, 1)
            ] + [{"from": "elle", "to": co.RECEIVERS[i], "kind": "controller", "value": z, "bits": 1}
                 for i in range(s)]
            transcript = pr._build_transcript(s, outcomes, z)
            assert list(transcript) == expected
            assert sum(m["bits"] for m in transcript) == 5 * s == pr._bits_sent(2 * s, s)


# ------------------------------------------------------------- sampled mode

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


# ------------------------------------------------------- block outcome table

@st.composite
def messages(draw):
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8)))
    c = parts[:4] + 1j * parts[4:] * draw(st.booleans())
    assume(np.linalg.norm(c) > 1e-6)
    return c / np.linalg.norm(c)


# Every outcome has probability 1/16 in both controller branches, whatever the
# message: so no protocol run drops a branch at a Bell measurement.
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(c=messages())
@example(c=np.array([1, 0, 0, 0], dtype=complex))
@example(c=np.array([1, 1j, -1, -1j]) / 2)  # equal magnitudes
@example(c=np.array([0.6, 0, -0.8, 0], dtype=complex))  # real only
def test_outcome_table_is_uniform_with_unit_fidelity(c):
    info = pr.InfoState(c)
    for receiver in co.RECEIVERS:
        probs, fidelities = pr.block_outcome_table(info, receiver)
        assert probs.shape == fidelities.shape == (2, 4, 4)
        assert np.abs(probs - 1 / 16).max() < PROBABILITY_TOL
        assert np.abs(1 - fidelities).max() <= FIDELITY_TOL
