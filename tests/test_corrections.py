"""Correction-table and collapse-catalog tests: transcription lookups, the
brute-force derivation oracle, and the pattern-matching sweep."""
import itertools

import numpy as np
import pytest

from quadtel import corrections as co
from quadtel.statevector import StateVector, fidelity

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

def test_derive_identity_key():
    e = co.derive_correction((0, 0, 0), rng=np.random.default_rng(1))
    assert (e.first, e.second) == (co.PauliFactor.I, co.PauliFactor.I)


def test_derive_controller_one_key():
    e = co.derive_correction((0, 0, 1), rng=np.random.default_rng(1))
    assert (e.first, e.second) == (co.PauliFactor.XZ, co.PauliFactor.XZ)


def test_derived_words_match_transcription_everywhere():
    rng = np.random.default_rng(101)
    for key in ALL_KEYS:
        derived = co.derive_correction(key, rng=rng)
        for receiver in co.RECEIVERS:
            assert co.table_lookup(receiver, key).same_word(derived), key


def test_every_entry_is_self_inverse_up_to_sign():
    eye = np.eye(4)
    for entry in co.TABLE_FIRST_PAIR.values():
        sq = entry.unitary() @ entry.unitary()
        assert np.allclose(sq, eye) or np.allclose(sq, -eye)


def test_receiver_columns_are_identical():
    for key in ALL_KEYS:
        first = co.table_lookup("fancy1", key)
        for receiver in co.RECEIVERS[1:]:
            assert co.table_lookup(receiver, key) == first


def test_correction_restores_random_inputs():
    rng = np.random.default_rng(211)
    for key in [(0, 0, 0), (1, 2, 1), (3, 1, 0), (2, 3, 1), (3, 3, 1)]:
        c = co._random_coeffs(rng)
        collapsed = co.collapse_single_sender(c, *key)
        entry = co.table_lookup("fancy1", key)
        restored = StateVector(2, entry.unitary() @ collapsed.amps)
        assert fidelity(restored, StateVector(2, c)) > 1 - 1e-10


def test_phase_marked_words_work_without_their_phase():
    rng = np.random.default_rng(223)
    phase_keys = [k for k, e in co.TABLE_FIRST_PAIR.items() if e.phase_pi]
    assert phase_keys  # the transcription does carry phase marks
    for key in phase_keys:
        c = co._random_coeffs(rng)
        collapsed = co.collapse_single_sender(c, *key)
        entry = co.table_lookup("fancy1", key)
        bare = co.CorrectionEntry(entry.first, entry.second, phase_pi=False)
        restored = StateVector(2, bare.unitary() @ collapsed.amps)
        assert fidelity(restored, StateVector(2, c)) > 1 - 1e-10


# ------------------------------------------------------------------ catalog

def test_eta_identity_pattern():
    c = random_coeffs(7)
    s = co.eta_state(16, c)
    assert np.allclose(s.amps, c)


def test_eta_first_pattern_is_the_double_flip():
    c = random_coeffs(11)
    s = co.eta_state(1, c)
    assert np.allclose(s.amps, [c[3], -c[2], -c[1], c[0]])


def test_eta_index_validation():
    c = random_coeffs(13)
    with pytest.raises(ValueError):
        co.eta_state(17, c)
    with pytest.raises(ValueError):
        co.eta_state(0, c)


def test_match_eta_on_forced_collapses():
    c = random_coeffs(17)
    pattern, phase = co.match_eta(co.collapse_single_sender(c, 0, 0, 1), c)
    assert pattern == 1 and abs(abs(phase) - 1) < 1e-12
    pattern, _ = co.match_eta(co.collapse_single_sender(c, 0, 0, 0), c)
    assert pattern == 16


def test_match_eta_rejects_unmatched_state():
    c = random_coeffs(19)
    other = random_coeffs(23)
    with pytest.raises(co.CatalogMatchError):
        co.match_eta(StateVector(2, other), c)


def test_eta_assignment_names_the_degenerate_key():
    # with the message |00> the first key's collapse matches four patterns
    with pytest.raises(co.CatalogMatchError) as err:
        co.eta_assignment([1, 0, 0, 0])
    assert str(err.value) == (
        "key (g, h, z) = (0, 0, 0): collapse state matches several patterns [13, 14, 15, 16]: "
        "the message coefficients are degenerate"
    )


def test_every_single_sender_collapse_is_cataloged():
    c = random_coeffs(29)
    counts = {}
    for g, h, z in ALL_KEYS:
        pattern, phase = co.match_eta(co.collapse_single_sender(c, g, h, z), c)
        assert abs(abs(phase) - 1) < 1e-9
        counts[pattern] = counts.get(pattern, 0) + 1
    assert sorted(counts) == list(range(1, 17))
    assert all(v == 2 for v in counts.values())


def test_eta_assignment_is_input_independent():
    a = co.eta_assignment(random_coeffs(31))
    b = co.eta_assignment(random_coeffs(37))
    assert a == b


# ------------------------------------------------------------- verify sweep

def test_verify_tables_full_sweep():
    d = co.verify_tables(np.random.default_rng(41))
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
