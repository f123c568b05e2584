"""Correction-table and collapse-catalog tests: transcription lookups, the
branch-operator derivation oracle, and the pattern-matching sweep."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadtel import corrections as co
from quadtel import statevector as sv

ALL_KEYS = [(g, h, z) for g, h in itertools.product(range(4), repeat=2) for z in (0, 1)]


def random_coeffs(seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return c / np.linalg.norm(c)


# ------------------------------------------------------------------- lookups

def test_lookup_identity_row():
    e = co.table_lookup("fancy1", (0, 0, 0))
    assert (e.first, e.second, e.phase_pi) == (co.PauliFactor.I, co.PauliFactor.I, False)


def test_lookup_controller_one_flip_row():
    e = co.table_lookup("fancy1", (0, 0, 1))
    assert (e.first, e.second, e.phase_pi) == (co.PauliFactor.XZ, co.PauliFactor.XZ, False)


def test_lookup_second_table_identity_row():
    e = co.table_lookup("fancy3", (3, 3, 1))
    assert (e.first, e.second, e.phase_pi) == (co.PauliFactor.I, co.PauliFactor.I, False)


def test_lookup_phase_marked_row():
    e = co.table_lookup("fancy2", (1, 2, 1))
    assert (e.first, e.second, e.phase_pi) == (co.PauliFactor.X, co.PauliFactor.Z, True)


def test_lookup_rejects_bad_receiver_and_key():
    with pytest.raises(KeyError):
        co.table_lookup("alice", (0, 0, 0))
    with pytest.raises(ValueError, match=r"\(4, 0, 0\)"):
        co.table_lookup("fancy1", (4, 0, 0))
    with pytest.raises(ValueError, match=r"\(0, 0, 2\)"):
        co.table_lookup("fancy1", (0, 0, 2))


# ------------------------------------------------------------------- oracle

# The eight keys where the bare word maps the collapse to minus the message
# while the printed word carries no e^(i.pi) flag: a global phase of one
# sender block, which no receiver can see.
PHASE_FLAG_DISAGREEMENTS = [(0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 3, 0), (2, 3, 0), (3, 0, 0), (3, 1, 0), (3, 2, 0)]


def test_bell_receiver_amplitudes_pick_the_measured_block():
    # the oracle reads the receiver pair (3, 5) from the live view; the
    # reference packs the measured Bell bits into the block's indices
    rng = np.random.default_rng(48)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    st = sv.StateVector(6, amps / np.linalg.norm(amps))
    for g in range(4):
        for h in range(4):
            post = st.copy()
            sv.bsm(post, 0, 2, forced=g)
            sv.bsm(post, 1, 4, forced=h)
            (g0, g1), (h0, h1) = sv.BELL_OUTCOME_BITS[g], sv.BELL_OUTCOME_BITS[h]
            fixed = g0 | (h0 << 1) | (g1 << 2) | (h1 << 4)
            # order 2a+b with a on qubit 3 and b on qubit 5
            idx = [fixed | (a << 3) | (b << 5) for a in (0, 1) for b in (0, 1)]
            out = sv._live(post, (3, 5)).reshape(4)
            assert out.tobytes() == post.amps[idx].tobytes()
            assert abs(np.linalg.norm(out) - 1) < 1e-12


@pytest.fixture(scope="module")
def ops():
    return {key: co.branch_operator(key) for key in ALL_KEYS}


def test_derive_identity_key():
    e = co.derive_correction((0, 0, 0), co.branch_operator((0, 0, 0)))
    assert (e.first, e.second) == (co.PauliFactor.I, co.PauliFactor.I)


def test_derive_controller_one_key():
    e = co.derive_correction((0, 0, 1), co.branch_operator((0, 0, 1)))
    assert (e.first, e.second) == (co.PauliFactor.XZ, co.PauliFactor.XZ)


def test_derived_words_match_transcription_everywhere(ops):
    for key in ALL_KEYS:
        derived = co.derive_correction(key, ops[key])
        for receiver in co.RECEIVERS:
            assert co.table_lookup(receiver, key).same_word(derived), key


def test_derive_correction_names_the_key_it_cannot_correct(ops):
    hadamards = np.kron(*[np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 2)
    mixed = ops[(1, 2, 1)] + ops[(0, 0, 0)]  # two words, each with the right amplitude
    for op in (co.BRANCH_AMPLITUDE * hadamards, 1j * ops[(1, 2, 1)], 2 * ops[(1, 2, 1)], mixed):
        with pytest.raises(co.TableDerivationError, match=r"\(g, h, z\) = \(1, 2, 1\)"):
            co.derive_correction((1, 2, 1), op)


def test_printed_words_map_every_branch_operator_to_a_multiple_of_identity(ops):
    disagree = {}
    for name, table in (("first", co.TABLE_FIRST_PAIR), ("second", co.TABLE_SECOND_PAIR)):
        for key, printed in table.items():
            product = printed.unitary() @ ops[key]
            lam = product[0, 0]
            assert np.abs(product - lam * np.eye(4)).max() < 1e-12, (name, key)
            assert abs(abs(lam) ** 2 - 1 / 32) < 1e-12 and abs(lam.imag) < 1e-12, (name, key)
            bare_lam = -lam if printed.phase_pi else lam
            if (bare_lam.real < 0) != printed.phase_pi:
                disagree.setdefault(name, []).append(key)
    assert {name: sorted(keys) for name, keys in disagree.items()} == {
        "first": PHASE_FLAG_DISAGREEMENTS,
        "second": PHASE_FLAG_DISAGREEMENTS,
    }
    # Pairwise orthogonal, so no two words are proportional and at most one
    # fits a branch operator; so are the patterns, each ± one inverse word.
    words = np.stack([co.CorrectionEntry(f, s).unitary() for f, s in itertools.product(co.PauliFactor, repeat=2)])
    for stack in (words, co.PATTERNS):
        gram = np.einsum("kij,lij->kl", stack.conj(), stack)
        assert np.abs(gram - 4 * np.eye(16)).max() < 1e-12


def test_every_entry_is_self_inverse_up_to_sign():
    # {0, ±1} matrices: the square is exactly I or -I
    eye = np.eye(4)
    for entry in co.TABLE_FIRST_PAIR.values():
        sq = entry.unitary() @ entry.unitary()
        assert np.array_equal(sq, eye) or np.array_equal(sq, -eye)


def test_self_inverse_check_applies_its_own_bound(monkeypatch):
    # a factor off by 1e-7 squares to 1 + 2e-7, inside numpy's default rtol
    # of 1e-5; one off by one ulp squares to 1 + 2^-51.  The exact check
    # fails both.
    z = sv.PAULI_FACTOR_MATRICES["Z"]
    for scale in (1 + 1e-7, np.nextafter(1.0, 2.0)):
        with monkeypatch.context() as patch:
            patch.setitem(sv.PAULI_FACTOR_MATRICES, "Z", z * scale)
            d = co.verify_tables()
        assert not d["self_inverse_ok"] and not d["all_ok"]
        assert d["n_matched"] == d["n_total"]


def test_kernels_apply_a_table_entry_as_it_stands():
    # a factor renders as its label, so the kernels read the table's own
    # factors; on index 2a+b the first factor acts on qubit 1
    assert [str(f) for f in co.PauliFactor] == [f"{f}" for f in co.PauliFactor] == ["I", "X", "Z", "XZ"]
    state = sv.StateVector(2, random_coeffs(5))
    for entry in co.TABLE_FIRST_PAIR.values():
        got = state.copy()
        sv.apply_pauli_word(got, [(entry.first, 1), (entry.second, 0)])
        assert np.array_equal(got.amps, np.kron(entry.first.matrix, entry.second.matrix) @ state.amps)
    with pytest.raises(ValueError, match=r"^unknown Pauli factor 'Y'$"):
        sv.apply_pauli_word(state, [(co.PauliFactor.X, 0), ("Y", 1)])


def test_receiver_columns_are_identical():
    for key in ALL_KEYS:
        first = co.table_lookup("fancy1", key)
        for receiver in co.RECEIVERS[1:]:
            assert co.table_lookup(receiver, key) == first


def test_correction_restores_random_inputs():
    for seed, key in enumerate([(0, 0, 0), (1, 2, 1), (3, 1, 0), (2, 3, 1), (3, 3, 1)], start=211):
        c = random_coeffs(seed)
        collapsed, _ = co.collapse_single_sender(c, *key)
        entry = co.table_lookup("fancy1", key)
        restored = entry.unitary() @ collapsed.amps
        assert abs(np.vdot(restored, c)) ** 2 > 1 - 1e-10


def test_phase_marked_words_work_without_their_phase():
    phase_keys = [k for k, e in co.TABLE_FIRST_PAIR.items() if e.phase_pi]
    assert phase_keys  # the transcription does carry phase marks
    for seed, key in enumerate(phase_keys, start=223):
        c = random_coeffs(seed)
        collapsed, _ = co.collapse_single_sender(c, *key)
        entry = co.table_lookup("fancy1", key)
        bare = co.CorrectionEntry(entry.first, entry.second, phase_pi=False)
        restored = bare.unitary() @ collapsed.amps
        assert abs(np.vdot(restored, c)) ** 2 > 1 - 1e-10


# ------------------------------------------------------------------ catalog

def test_eta_identity_pattern():
    c = random_coeffs(7)
    assert np.allclose(co.PATTERNS[15] @ c, c)


def test_eta_first_pattern_is_the_double_flip():
    c = random_coeffs(11)
    assert np.allclose(co.PATTERNS[0] @ c, [c[3], -c[2], -c[1], c[0]])


def test_match_eta_on_forced_collapses(ops):
    assert co.match_eta(co.derive_correction((0, 0, 1), ops[(0, 0, 1)])) == 1
    assert co.match_eta(co.derive_correction((0, 0, 0), ops[(0, 0, 0)])) == 16


def test_each_pattern_is_one_inverse_word_up_to_sign():
    # {0, ±1} matrices: the equalities are exact, and they make the catalog a
    # relabelling of the words, which match_eta reads
    words = [co.CorrectionEntry(f, s) for f, s in itertools.product(co.PauliFactor, repeat=2)]
    relabel = {}
    for k, pattern in enumerate(co.PATTERNS, 1):
        hits = [
            w for w in words
            if np.array_equal(pattern, w.unitary().conj().T) or np.array_equal(pattern, -w.unitary().conj().T)
        ]
        assert len(hits) == 1, k
        relabel[hits[0]] = k
    assert set(relabel) == set(words)
    assert {w: co.match_eta(w) for w in words} == relabel
    assert all(co.match_eta(co.CorrectionEntry(w.first, w.second, phase_pi=True)) == k for w, k in relabel.items())


def test_match_eta_rejects_unmatched_state(ops):
    # a catalog entry that is ± no inverse word, or that two entries share,
    # leaves its word without a pattern: match_eta reads None, not a guess
    rng = np.random.default_rng(19)
    generic = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    word = co.derive_correction((0, 0, 0), ops[(0, 0, 0)])
    k = co.match_eta(word)
    other = co.PATTERNS[k % co.N_PATTERNS]
    for bad in (generic, np.zeros((4, 4)), 2 * co.PATTERNS[k - 1], co.PATTERNS[k - 1] + other):
        patterns = co.PATTERNS.copy()
        patterns[k - 1] = bad
        found = co._catalog_map(patterns)
        assert found[word.first, word.second] is None
        assert sum(v is None for v in found.values()) == 1
    patterns = co.PATTERNS.copy()
    patterns[k % co.N_PATTERNS] = patterns[k - 1]
    found = co._catalog_map(patterns)
    assert found[word.first, word.second] is None


def _integer(entry):
    u = entry.unitary()
    exact = u.real.astype(int)
    assert np.array_equal(u, exact)
    return exact


def test_controller_bit_changes_the_word_by_y_tensor_y(ops):
    # Y = i·XZ, so up to phase the z=1 word is (XZ ⊗ XZ) times the z=0 word;
    # a word is a signed permutation, so its inverse is its transpose
    xz = _integer(co.CorrectionEntry(co.PauliFactor.XZ, co.PauliFactor.XZ))
    derived = {key: co.derive_correction(key, op) for key, op in ops.items()}
    for words in (derived, co.TABLE_FIRST_PAIR, co.TABLE_SECOND_PAIR):
        for g, h in itertools.product(range(4), repeat=2):
            u0, u1 = _integer(words[g, h, 0]), _integer(words[g, h, 1])
            assert np.array_equal(u0 @ u0.T, np.eye(4, dtype=int))
            diff = u1 @ u0.T
            assert np.array_equal(diff, xz) or np.array_equal(diff, -xz), (g, h)


@st.composite
def messages(draw):
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8)))
    c = parts[:4] + 1j * parts[4:] * draw(st.booleans())
    assume(np.linalg.norm(c) > 1e-6)
    return c / np.linalg.norm(c)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(c=messages())
@example(c=np.array([1, 0, 0, 0], dtype=complex))  # |00>: patterns 13..16 coincide on it
@example(c=np.array([1, 1j, -1, -1j]) / 2)  # equal magnitudes
@example(c=np.array([0.6, 0, -0.8, 0], dtype=complex))  # real only
def test_branch_operator_gives_every_collapse_and_its_pattern(ops, c):
    for key, op in ops.items():
        collapsed, prob = co.collapse_single_sender(c, *key)
        image = op @ c
        assert abs(prob - 1 / 32) < 1e-12 and abs(np.vdot(image, image).real - prob) < 1e-12, key
        assert np.abs(collapsed.amps - image / np.linalg.norm(image)).max() < 1e-12, key
        # K·c is proportional to the pattern state: equality in Cauchy-Schwarz
        pattern = co.PATTERNS[co.match_eta(co.derive_correction(key, op)) - 1] @ c
        assert abs(abs(np.vdot(pattern, image)) - np.linalg.norm(image)) < 1e-12, key


# ------------------------------------------------------------- verify sweep

def test_verify_tables_full_sweep():
    d = co.verify_tables()
    assert d["n_total"] == 128
    assert d["n_matched"] == 128
    assert d["receiver_columns_identical"]
    assert d["self_inverse_ok"]
    assert d["eta_total"] and d["eta_two_to_one"]
    assert d["all_ok"] and len(d["comparisons"]) == 128
    # the four printed phase marks are reproduced by the oracle exactly
    marked = [c for c in d["comparisons"] if c["printed"].startswith("e^")]
    assert len(marked) == 16  # 4 keys x 4 receivers
    assert all(c["phase_flags_agree"] for c in marked)
    # the eight unprinted ones show up as 32 disagreeing comparisons
    disagree = sorted({tuple(c["key"]) for c in d["comparisons"] if not c["phase_flags_agree"]})
    assert disagree == PHASE_FLAG_DISAGREEMENTS
    assert sum(not c["phase_flags_agree"] for c in d["comparisons"]) == 32
