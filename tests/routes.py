"""Independent routes to one protocol branch's answer, and the helpers the
tests share.

A route maps (messages, records) to one report, or one ``Branch`` holding a
report's outcome, probability and fidelities, per record.  ``records`` is a
list of outcome records, or ``Sampled`` branches, which the ``DRAWING`` routes
draw themselves.  ``test_protocol.py`` compares each route with the reference,
``structured``, over a matrix of (route, sender count, record set) cells.
"""
import functools
import tracemalloc
import weakref
from collections import namedtuple

import numpy as np

from quadtel import corrections as co
from quadtel import protocol as pr
from quadtel import statevector as sv

# Agreement of two routes on one branch, for probabilities and fidelities
# alike.  Both are sums and products of a few dozen terms of order 1, so the
# routes stay a few ulps apart (measured at s=3: 3e-19 and 4e-16); the bound
# leaves more than an order of magnitude above that.
ENGINE_AGREEMENT_TOL = 1e-14


def traced_peak(fn):
    """``(fn(), peak)``: fn's result and a bound on the peak memory it held.

    ``peak`` is the peak that Python's allocators, numpy's among them, held
    while fn ran, plus the peak of the arrays that ``statevector._zeros``
    mapped itself, which tracemalloc does not see; each counts from its
    mapping until it is freed.  The two peaks may fall at different times,
    so their sum is an upper bound on the true peak, never below it.
    """
    zeros, mapped = sv._zeros, [0, 0]  # live bytes, their peak

    def release(nbytes):
        mapped[0] -= nbytes

    def counted(n_qubits):
        amps = zeros(n_qubits)
        if not amps.flags.owndata:
            mapped[0] += amps.nbytes
            mapped[1] = max(mapped)
            weakref.finalize(amps, release, amps.nbytes)
        return amps

    sv._zeros = counted
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] + mapped[1]
    finally:
        tracemalloc.stop()
        sv._zeros = zeros


def make_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return [pr.InfoState.random(rng) for _ in range(n)]


def rebuilt(inputs):
    """The same messages as new InfoState objects.  A message keeps the
    blocks built from it, and everything they keep; new ones hold none, so a
    run on them computes every block result afresh."""
    return [pr.InfoState(info.coeffs) for info in inputs]


def product_coeffs(vectors):
    acc = np.array([1.0], dtype=complex)
    for v in vectors:
        acc = np.kron(np.asarray(v, dtype=complex), acc)
    return acc


def flip_pattern(c):
    # the double-flip collapse pattern: c0|11> - c1|10> - c2|01> + c3|00>
    return np.array([c[3], -c[2], -c[1], c[0]])


def pre_broadcast(inputs, bells, engine="structured"):
    """Each receiver before and after Elle's bit, through the engine
    operations a run uses: the forced Bell measurements, ``receiver_dm``
    before ``measure_controller``, then per z ``receiver_dm`` on a copy
    with z forced.

    Returns ``(mixtures, patterns, probs)``: receiver i's matrix before the
    bit, ``mixtures[i]``; after bit z, ``patterns[z][i]``; and the
    probability of z, ``probs[z]``.
    """
    state = pr.assemble_global(inputs, engine)
    for j, outcome in enumerate(bells):
        state.bsm_pair(j, forced=outcome)
    mixtures = [state.receiver_dm(i) for i in range(len(inputs))]
    patterns, probs = [], []
    for z in (0, 1):
        branch = state.copy()
        probs.append(branch.measure_controller(forced=z)[1])
        patterns.append([branch.receiver_dm(i) for i in range(len(inputs))])
    return mixtures, patterns, probs


def joint_pre_broadcast(inputs, bells, engine="structured"):
    """The receivers' joint matrix before Elle's bit, sum_z p_z (x)_i rho_i^z,
    indexed as ``product_coeffs`` orders the receiver pairs (block 0 lowest).

    Given z each receiver's matrix is pure, which this asserts: a receiver in
    a pure state shares no entanglement, so given z the receivers' joint
    state is the product of theirs.
    """
    _, patterns, probs = pre_broadcast(inputs, bells, engine)
    joint = 0
    for p, rhos in zip(probs, patterns):
        for rho in rhos:
            assert abs(np.trace(rho @ rho) - 1) < 1e-10
        joint = joint + p * functools.reduce(lambda acc, rho: np.kron(rho, acc), rhos, np.eye(1))
    return joint


# ``n`` branches, each drawn from ``rng`` as the engines draw them.
Sampled = namedtuple("Sampled", "n rng")


def record_set(s, spec, seed):
    """The records of a cell: ``all`` of them, ``forced:N`` (N seeded records,
    the controller bit alternating from 0) or ``sampled:N``."""
    if spec == "all":
        return pr.enumerate_records(s)
    kind, n = spec.split(":")
    rng = np.random.default_rng(seed)
    if kind == "sampled":
        return Sampled(int(n), rng)
    return [pr.OutcomeRecord(tuple(int(b) for b in rng.integers(0, 4, 2 * s)), k % 2) for k in range(int(n))]


Branch = namedtuple("Branch", "outcome branch_probability per_receiver_fidelity")


def _runs(run, records):
    if isinstance(records, Sampled):
        return [run(rng=records.rng) for _ in range(records.n)]
    return [run(forced=record) for record in records]


def structured(inputs, records):
    """The reference: the structured engine, stepwise, each branch on messages
    rebuilt from the same coefficients, so that it starts with no kept block."""
    return _runs(lambda **draw: pr.run_protocol(rebuilt(inputs), **draw), records)


def kept(inputs, records):
    """The structured engine on the caller's messages, whose blocks the earlier
    branches fill: all records through ``run_exhaustive``'s shared base, any
    other set branch by branch on the same messages."""
    if len(records) == 2 * 16 ** len(inputs):  # all records (a Sampled has 2 fields); the test checks outcomes
        return pr.run_exhaustive(inputs)
    return _runs(functools.partial(pr.run_protocol, inputs), records)


def dense(inputs, records):
    """The dense engine; all records through ``run_exhaustive``, whose branches
    run on copies of one prepared state."""
    inputs = rebuilt(inputs)
    if len(records) == 2 * 16 ** len(inputs):
        return pr.run_exhaustive(inputs, engine="dense")
    return _runs(functools.partial(pr.run_protocol, inputs, engine="dense"), records)


def table(inputs, records):
    """The product of the branch's ``block_outcome_table`` entries: 1/2 times
    each block's probability, and block i's fidelity for receiver i."""
    tables = [pr.block_outcome_table(info, receiver) for info, receiver in zip(rebuilt(inputs), co.RECEIVERS)]
    branches = []
    for record in records:
        entries = [(probs[record.z, g, h], fidelities[record.z, g, h])
                   for (probs, fidelities), g, h in zip(tables, record.bell[::2], record.bell[1::2])]
        branches.append(Branch(record, 0.5 * np.prod([p for p, _ in entries]), tuple(f for _, f in entries)))
    return branches


_branch_operator = functools.cache(co.branch_operator)  # K per key (g, h, z), built once


def operator(inputs, records):
    """One sender, from the corrections oracle: the branch maps the message c
    to K·c, so p = |K·c|^2, and the printed word U scores |<c|U·K·c>|^2 / p."""
    (info,) = inputs
    c = info.coeffs
    branches = []
    for record in records:
        key = (*record.bell, record.z)
        image = _branch_operator(key) @ c
        p = float(np.vdot(image, image).real)
        corrected = co.table_lookup(co.RECEIVERS[0], key).unitary() @ image
        branches.append(Branch(record, p, (abs(np.vdot(c, corrected)) ** 2 / p,)))
    return branches


ROUTES = {"structured": structured, "kept": kept, "dense": dense, "table": table, "operator": operator}
# The routes that run an engine, and so draw the branches of a ``Sampled`` set
# themselves; the others read the outcomes the reference drew.
DRAWING = ("structured", "kept", "dense")
