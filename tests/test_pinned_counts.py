"""The benchmark's pinned call counts, checked in the tier-1 suite.

``perfbench/workloads.py`` pins exact traced call counts per workload unit,
and the benchmark checks them only in its traced runs.  Here the first
``oracles`` round, one ``sample-s4`` command and one ``sweep-s3`` command
run under ``perfbench/spans.py``, both imported as they are, in a
subprocess: the tracer rebinds quadtel's functions for the rest of the
process.  One forced s=3 dense branch runs the same way, so that the per-size
kernel counts pinned for ``dense-s4`` at 25 qubits are checked, through their
formulas in s, at 19.
"""
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

from quadtel import protocol

ROOT = Path(__file__).resolve().parent.parent

# The workloads whose first unit runs traced here.
UNITS = ("oracles", "sample-s4", "sweep-s3")

TRACED_UNITS = r"""
import collections, contextlib, io, json, sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans, workloads
from quadtel import cli

tracer = spans.Tracer()
spans.install(tracer)
names = sys.argv[4:]
for unit, name in enumerate(names):
    tracer.current_unit = unit
    for cmd in next(iter(workloads.WORKLOADS[name].units(Path(sys.argv[3]), 0))):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(cmd.argv) == 0, cmd.argv
calls = collections.Counter(zip(tracer.unit, (tracer.names[i] for i in tracer.name)))
print(json.dumps({
    name: {span: calls[unit, span] for span in workloads.WORKLOADS[name].expected_calls}
    for unit, name in enumerate(names)
}))
"""


# One forced s=3 dense branch, 19 qubits, traced: its statevector calls by
# name and qubit count.
TRACED_DENSE_BRANCH = r"""
import collections, contextlib, io, json, sys

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from quadtel import cli

tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["run", "--senders", "3", "--engine", "dense", "--allow-large-dense",
                     "--mode", "forced:k+,k-,l+,l-,k+,l-,1", "--out", sys.argv[3]]) == 0
calls = collections.Counter(tracer.names[i] for i in tracer.name)
print(json.dumps({name: n for name, n in calls.items() if name.startswith("statevector.")}))
"""


def dense_branch_calls(s):
    """Calls of each statevector kernel on the full register in one dense branch with s senders."""
    return {
        "bsm": 2 * s,
        "apply_cnot": 2 * s,  # one per Bell measurement
        "apply_1q": 2 * s,
        "measure_qubit": 4 * s + 1,  # two per Bell measurement, then the controller
        "measure_probabilities": 4 * s + 1,
        "apply_pauli_word": s,  # one correction per receiver
        "partial_trace": s,  # one density matrix per receiver
        "tensor": 2,  # one product state per controller branch
    }


def _traced(script, *args):
    """Run ``script`` in a subprocess with the source and perfbench dirs; its last output line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(ROOT / "perfbench"), *map(str, args)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` without putting that directory on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_engines_define_every_traced_method():
    # and no other public method: one that the benchmark does not trace,
    # such as a test-only read-out, would run unseen by the pinned counts
    traced = set(_perfbench_module("spans").ENGINE_METHODS)
    for cls in (protocol.StructuredState, protocol.DenseState):
        public = {name for name, _ in inspect.getmembers(cls, callable) if not name.startswith("_")}
        assert public == traced, f"{cls.__name__}: {sorted(public ^ traced)}"


def test_traced_units_keep_the_pinned_call_counts(tmp_path):
    (tmp_path / "reports").mkdir()
    got = _traced(TRACED_UNITS, tmp_path, *UNITS)
    workloads = _perfbench_module("workloads")
    for name in UNITS:
        assert got[name] == workloads.WORKLOADS[name].expected_calls, name


def test_dense_branch_keeps_the_per_kernel_call_counts(tmp_path):
    # The q25 counts of dense-s4 run only in the benchmark's traced run (a
    # 512 MiB state); the same formulas are checked here at s=3, 19 qubits.
    got = _traced(TRACED_DENSE_BRANCH, tmp_path / "dense-s3.json")
    assert {name: n for name, n in got.items() if name.endswith(".q19")} == {
        f"statevector.{kernel}.q19": n for kernel, n in dense_branch_calls(3).items()
    }
    # dense-s4 pins every kernel above but bsm
    pinned = _perfbench_module("workloads").WORKLOADS["dense-s4"].expected_calls
    assert {name: n for name, n in pinned.items() if name.startswith("statevector.")} == {
        f"statevector.{kernel}.q25": n for kernel, n in dense_branch_calls(4).items() if kernel != "bsm"
    }
