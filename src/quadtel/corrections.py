"""Receiver-side Pauli correction tables and the collapsed-state catalog.

The 32-row correction tables (two printed tables, one per receiver pair) are
transcribed as static data and never trusted blindly.  The oracle has its own
miniature single-sender simulator on the statevector and channel modules (not
the protocol engines, so the two routes stay independent); after the forced
measurements it reads the receiver pair from the state's live view, which
leaves out the measured qubits' zeroed amplitudes.  The run is linear
in the message, so a forced branch (g, h, z) is one 4x4 operator K, and a
check of K holds for every message at once.  ``derive_correction`` finds the
Pauli word U with U·K = +-I/sqrt(32), or None; ``verify_tables`` compares it
with every transcribed column, and a None word matches none.  The sweep
reads no random input: a ``verify-tables --seed`` value is only recorded in
the report.

The catalog has 16 two-qubit collapse patterns, repeated for each sender
block with that sender's symbols, each a signed permutation matrix in
``PATTERNS``.  Each pattern P is exactly +-U^+ for one word U, one to one, so
U·K = lambda·I gives K = +-lambda·P with no second fit: ``match_eta`` reads
the derived word's pattern from a map built once by exact equality, and a
word with no pattern maps to None, which fails the report's catalog checks.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channel import build_channel_analytic
from .statevector import (
    NORM_TOL,
    PAULI_FACTOR_MATRICES,
    StateVector,
    _live,
    bsm,
    measure_qubit,
    pair_state,
    tensor,
)

# A single-sender branch has probability 1/2 (controller) x 1/16 (two BSMs)
# for every message, so its operator K is 1/sqrt(32) times a unitary.
BRANCH_AMPLITUDE = 32 ** -0.5

# Thresholds of the oracle.  K's entries are 0 or +-1/sqrt(32) to round-off
# (about 1e-17); a wrong word is off by O(1/sqrt(32)), because the 16 words
# are pairwise Hilbert-Schmidt orthogonal.
OPERATOR_TOL = 1e-9  # entries of K - lambda·U^+, |lambda| - 1/sqrt(32) and Im lambda, for the fitted word U


class PauliFactor(str, Enum):
    """Single-qubit correction factor; XZ is the product X·Z (Z first)."""

    I = "I"  # noqa: E741 - the identity label is the natural name here
    X = "X"
    Z = "Z"
    XZ = "XZ"

    def __str__(self) -> str:
        # the label, as the kernels read a factor (``apply_pauli_word``); a
        # str mixin prints as ``PauliFactor.X`` on Python 3.10 to 3.12
        return self.value

    @property
    def matrix(self) -> np.ndarray:
        return PAULI_FACTOR_MATRICES[self.value]


@dataclass(frozen=True)
class CorrectionEntry:
    """A pair of single-qubit factors plus the printed global-phase marker."""

    first: PauliFactor
    second: PauliFactor
    phase_pi: bool = False

    def unitary(self) -> np.ndarray:
        """4x4 matrix on index 2a+b (first factor on the a bit)."""
        u = np.kron(self.first.matrix, self.second.matrix)
        return -u if self.phase_pi else u

    def word(self) -> str:
        text = f"{self.first}(x){self.second}"
        return f"e^(i.pi) {text}" if self.phase_pi else text

    def same_word(self, other: "CorrectionEntry") -> bool:
        """Equality up to global phase: the factor pairs match."""
        return self.first is other.first and self.second is other.second


_I, _X, _Z, _XZ = PauliFactor.I, PauliFactor.X, PauliFactor.Z, PauliFactor.XZ

# Transcription of the two printed correction tables, row for row: sixteen
# z=0 rows then sixteen z=1 rows, each (g, h, z, first, second, phase_pi).
# Both receivers of a printed table share one column, so each table is one
# literal here; the two tables are kept separate so the cross-table identity
# check stays meaningful.
_TABLE_FIRST_PAIR = (
    (0, 0, 0, _I, _I, False),
    (0, 1, 0, _I, _Z, False),
    (0, 2, 0, _I, _X, False),
    (0, 3, 0, _I, _XZ, False),
    (1, 0, 0, _Z, _I, False),
    (1, 1, 0, _Z, _Z, False),
    (1, 2, 0, _Z, _X, False),
    (1, 3, 0, _Z, _XZ, False),
    (2, 0, 0, _X, _I, False),
    (2, 1, 0, _X, _Z, False),
    (2, 2, 0, _X, _X, False),
    (2, 3, 0, _X, _XZ, False),
    (3, 0, 0, _XZ, _I, False),
    (3, 1, 0, _XZ, _Z, False),
    (3, 2, 0, _XZ, _X, False),
    (3, 3, 0, _XZ, _XZ, False),
    (0, 0, 1, _XZ, _XZ, False),
    (0, 1, 1, _XZ, _X, False),
    (0, 2, 1, _XZ, _Z, False),
    (0, 3, 1, _XZ, _I, False),
    (1, 0, 1, _X, _XZ, False),
    (1, 1, 1, _X, _X, False),
    (1, 2, 1, _X, _Z, True),
    (1, 3, 1, _X, _I, True),
    (2, 0, 1, _Z, _XZ, False),
    (2, 1, 1, _Z, _X, True),
    (2, 2, 1, _Z, _Z, False),
    (2, 3, 1, _Z, _I, False),
    (3, 0, 1, _I, _XZ, False),
    (3, 1, 1, _I, _X, True),
    (3, 2, 1, _I, _Z, False),
    (3, 3, 1, _I, _I, False),
)

_TABLE_SECOND_PAIR = (
    (0, 0, 0, _I, _I, False),
    (0, 1, 0, _I, _Z, False),
    (0, 2, 0, _I, _X, False),
    (0, 3, 0, _I, _XZ, False),
    (1, 0, 0, _Z, _I, False),
    (1, 1, 0, _Z, _Z, False),
    (1, 2, 0, _Z, _X, False),
    (1, 3, 0, _Z, _XZ, False),
    (2, 0, 0, _X, _I, False),
    (2, 1, 0, _X, _Z, False),
    (2, 2, 0, _X, _X, False),
    (2, 3, 0, _X, _XZ, False),
    (3, 0, 0, _XZ, _I, False),
    (3, 1, 0, _XZ, _Z, False),
    (3, 2, 0, _XZ, _X, False),
    (3, 3, 0, _XZ, _XZ, False),
    (0, 0, 1, _XZ, _XZ, False),
    (0, 1, 1, _XZ, _X, False),
    (0, 2, 1, _XZ, _Z, False),
    (0, 3, 1, _XZ, _I, False),
    (1, 0, 1, _X, _XZ, False),
    (1, 1, 1, _X, _X, False),
    (1, 2, 1, _X, _Z, True),
    (1, 3, 1, _X, _I, True),
    (2, 0, 1, _Z, _XZ, False),
    (2, 1, 1, _Z, _X, True),
    (2, 2, 1, _Z, _Z, False),
    (2, 3, 1, _Z, _I, False),
    (3, 0, 1, _I, _XZ, False),
    (3, 1, 1, _I, _X, True),
    (3, 2, 1, _I, _Z, False),
    (3, 3, 1, _I, _I, False),
)


def _build(rows: Iterable[tuple]) -> dict[tuple[int, int, int], CorrectionEntry]:
    table = {}
    for g, h, z, first, second, phase in rows:
        key = (g, h, z)
        if key in table:
            raise ValueError(f"duplicate transcription row {key}")
        table[key] = CorrectionEntry(first, second, phase)
    if len(table) != 32:
        raise ValueError("correction table must have exactly 32 rows")
    return table


TABLE_FIRST_PAIR = _build(_TABLE_FIRST_PAIR)
TABLE_SECOND_PAIR = _build(_TABLE_SECOND_PAIR)

RECEIVERS = ("fancy1", "fancy2", "fancy3", "fancy4")

RECEIVER_TABLES: Mapping[str, Mapping[tuple[int, int, int], CorrectionEntry]] = dict(
    zip(RECEIVERS, (TABLE_FIRST_PAIR, TABLE_FIRST_PAIR, TABLE_SECOND_PAIR, TABLE_SECOND_PAIR))
)


def table_lookup(receiver: str, key: tuple[int, int, int]) -> CorrectionEntry:
    """Transcribed correction for a receiver given (g, h, z)."""
    if receiver not in RECEIVER_TABLES:
        raise KeyError(f"unknown receiver {receiver!r}, expected one of {RECEIVERS}")
    try:
        return RECEIVER_TABLES[receiver][key]
    except (KeyError, TypeError):
        raise ValueError(f"no correction for (g, h, z) = {key!r}: g, h in 0..3 and z in 0, 1") from None


# --------------------------------------------------------------------------
# Derivation oracle
# --------------------------------------------------------------------------

def collapse_single_sender(coeffs: Sequence[complex], g: int, h: int, z: int) -> tuple[StateVector, float]:
    """Receiver-pair state after a forced single-sender run, phases intact.

    Seven qubits: message pair at (0, 1), a two-pair channel at (2..5) with
    the controller at 6.  Both BSMs and the controller measurement are forced
    to (g, h, z).  Returns the surviving amplitudes on the receiver qubits
    (3, 5), read from the live view, as a 2-qubit state on index 2a+b (a =
    the qubit paired with message qubit 0), and the branch probability: the
    product of the three forced draws.
    """
    info = pair_state(np.asarray(coeffs, dtype=complex))
    state = tensor(info, build_channel_analytic(2, +1))
    _, p_g = bsm(state, 0, 2, forced=g)
    _, p_h = bsm(state, 1, 4, forced=h)
    _, p_z = measure_qubit(state, 6, forced=z)
    out = _live(state, (3, 5)).reshape(4)
    pair, whole = np.linalg.norm(out), state.norm()
    if abs(pair - whole) > NORM_TOL:
        raise RuntimeError(f"collapse left amplitude outside the receiver pair (norm {pair} of {whole})")
    return StateVector(2, out, copy=False), p_g * p_h * p_z


def branch_operator(key: tuple[int, int, int]) -> np.ndarray:
    """The 4x4 operator K of the forced single-sender branch (g, h, z).

    The run is linear in the message c, so the branch maps c to K·c:
    ``collapse_single_sender(c, *key)`` is K·c / |K·c| with probability
    |K·c|^2.  Column j is sqrt(p_j)·collapse(e_j) for the basis message e_j.
    """
    columns = []
    for basis_message in np.eye(4, dtype=complex):
        state, prob = collapse_single_sender(basis_message, *key)
        columns.append(np.sqrt(prob) * state.amps)
    return np.stack(columns, axis=1)


# The 16 candidate words, phase-free, and their inverses U^+, built once:
# U·K = lambda·I exactly when K = lambda·U^+.
_WORDS = tuple(CorrectionEntry(first, second) for first, second in itertools.product(PauliFactor, repeat=2))
_WORD_INVERSES = np.stack([word.unitary().conj().T for word in _WORDS])


def derive_correction(op: np.ndarray) -> CorrectionEntry | None:
    """The one Pauli word U with U·K = lambda·I, lambda = +-1/sqrt(32), for K = ``op``, or None.

    Such a word restores every message of the branch exactly.  One product
    gives K's Hilbert-Schmidt component along each inverse word; at most one
    fits, as they are pairwise orthogonal.  The phase flag records lambda <
    0: the word maps the collapse to minus the message.  None, where no word
    fits, fails the report's word and catalog checks.
    """
    lams = np.einsum("kij,ij->k", _WORD_INVERSES.conj(), op) / 4
    k = int(np.argmax(np.abs(lams)))
    lam = complex(lams[k])
    if max(abs(abs(lam) - BRANCH_AMPLITUDE), abs(lam.imag), np.abs(op - lam * _WORD_INVERSES[k]).max()) > OPERATOR_TOL:
        return None
    return replace(_WORDS[k], phase_pi=lam.real < 0)


# --------------------------------------------------------------------------
# Collapsed-state catalog
# --------------------------------------------------------------------------

# The 16 catalog patterns.  Position c of a pattern holds (ket index 2a+b,
# sign) for message coefficient c, transcribed row for row from the first
# sender block; the other blocks repeat the same patterns with their own
# senders' symbols.  The printed catalog labels its first entry "2" twice;
# the first printed entry is stored as pattern 1 here.
_ETA_TERMS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((3, +1), (2, -1), (1, -1), (0, +1)),
    ((3, +1), (2, +1), (1, -1), (0, -1)),
    ((3, +1), (2, -1), (1, +1), (0, -1)),
    ((3, +1), (2, +1), (1, +1), (0, +1)),
    ((2, -1), (3, +1), (0, +1), (1, -1)),
    ((2, -1), (3, -1), (0, +1), (1, +1)),
    ((2, -1), (3, +1), (0, -1), (1, +1)),
    ((2, -1), (3, -1), (0, -1), (1, -1)),
    ((1, -1), (0, +1), (3, +1), (2, -1)),
    ((1, -1), (0, -1), (3, +1), (2, +1)),
    ((1, -1), (0, +1), (3, -1), (2, +1)),
    ((1, -1), (0, -1), (3, -1), (2, -1)),
    ((0, +1), (1, -1), (2, -1), (3, +1)),
    ((0, +1), (1, +1), (2, -1), (3, -1)),
    ((0, +1), (1, -1), (2, +1), (3, -1)),
    ((0, +1), (1, +1), (2, +1), (3, +1)),
)

N_PATTERNS = len(_ETA_TERMS)

# Pattern k as a signed permutation matrix: PATTERNS[k-1]·c is catalog entry
# k with the message coefficients c substituted.
PATTERNS = np.array(
    [[[sign * (ket == row) for ket, sign in terms] for row in range(4)] for terms in _ETA_TERMS], float
)


def _catalog_map(patterns: np.ndarray) -> dict[tuple[PauliFactor, PauliFactor], int | None]:
    """Each word's catalog pattern: the one k (1..16) with patterns[k-1] = +-U^+, else None.

    Words and patterns are {0, ±1} matrices, so the equality is exact.
    """
    found = {}
    for word, inverse in zip(_WORDS, _WORD_INVERSES):
        hits = [k for k, p in enumerate(patterns, 1) if np.array_equal(p, inverse) or np.array_equal(p, -inverse)]
        found[word.first, word.second] = hits[0] if len(hits) == 1 else None
    return found


_WORD_PATTERNS = _catalog_map(PATTERNS)


def match_eta(word: CorrectionEntry) -> int | None:
    """The catalog pattern 1..16 of a branch whose derived correction is ``word``, or None.

    The branch operator is +-lambda times that pattern, so every message's
    collapse is the pattern up to a global phase.
    """
    return _WORD_PATTERNS[word.first, word.second]


# --------------------------------------------------------------------------
# Verification sweep
# --------------------------------------------------------------------------

def verify_tables() -> dict:
    """Re-derive all 32 corrections and compare with every transcribed column.

    Returns the report's ``tables`` section: the 128 comparisons, the
    cross-table and self-inverse checks, the catalog map and ``all_ok``.
    """
    comparisons = []
    n_matched = 0
    keys = [(g, h, z) for g, h in itertools.product(range(4), repeat=2) for z in (0, 1)]
    assignment = {}
    for key in keys:
        derived = derive_correction(branch_operator(key))
        assignment[key] = None if derived is None else match_eta(derived)
        for receiver in RECEIVERS:
            printed = table_lookup(receiver, key)
            match = derived is not None and printed.same_word(derived)
            n_matched += match
            comparisons.append(
                {
                    "receiver": receiver,
                    "key": list(key),
                    "printed": printed.word(),
                    "derived": None if derived is None else derived.word(),
                    "word_match": match,
                    "phase_flags_agree": derived is not None and printed.phase_pi == derived.phase_pi,
                }
            )
    columns_identical = all(
        table_lookup(RECEIVERS[0], key) == table_lookup(r, key) for key in keys for r in RECEIVERS
    )
    # every word is a {0, ±1} matrix, so U·U is exact in float64
    eye = np.eye(4)
    self_inverse = all(
        np.array_equal(square, eye) or np.array_equal(square, -eye)
        for square in (e.unitary() @ e.unitary() for e in TABLE_FIRST_PAIR.values())
    )
    n_total = len(keys) * len(RECEIVERS)
    eta_total = None not in assignment.values()
    eta_two_to_one = Counter(assignment.values()) == {i: 2 for i in range(1, N_PATTERNS + 1)}
    return {
        "comparisons": comparisons,
        "n_matched": n_matched,
        "n_total": n_total,
        "receiver_columns_identical": columns_identical,
        "self_inverse_ok": self_inverse,
        "eta_map": {f"{g},{h},{z}": v for (g, h, z), v in sorted(assignment.items())},
        "eta_total": eta_total,
        "eta_two_to_one": eta_two_to_one,
        "notes": [
            "catalog prints its first entry with a duplicated label; it is stored as pattern 1",
            "word comparisons ignore global phase; phase flags are reported separately",
        ],
        "all_ok": (
            n_matched == n_total and columns_identical and self_inverse and eta_total and eta_two_to_one
        ),
    }
