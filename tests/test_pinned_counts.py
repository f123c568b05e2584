"""The benchmark's pinned call counts, checked in the tier-1 suite.

``perfbench/workloads.py`` pins exact traced call counts per workload unit,
and the benchmark checks them only in its traced runs.  Here the first
``oracles`` round, one ``sample-s4`` command and one ``sweep-s3`` command
run under ``perfbench/spans.py``, both imported as they are, in a
subprocess: the tracer rebinds quadtel's functions for the rest of the
process.
"""
import importlib.util
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


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` without putting that directory on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_engines_define_every_traced_method():
    spans = _perfbench_module("spans")
    for cls in (protocol.StructuredState, protocol.DenseState):
        missing = [m for m in spans.ENGINE_METHODS if m not in cls.__dict__]
        assert not missing, f"{cls.__name__} does not define {missing}"


def test_traced_units_keep_the_pinned_call_counts(tmp_path):
    (tmp_path / "reports").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_UNITS, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path), *UNITS],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    workloads = _perfbench_module("workloads")
    for name in UNITS:
        assert got[name] == workloads.WORKLOADS[name].expected_calls, name
