"""Golden digests: the rendered report of each subcommand, byte for byte.

Each sha256 below was recorded from ``render_report`` before a refactor and
must not move across one; the rendered text must also parse back to the
dict the command returned.  A change that alters a report on purpose updates
the digest in the same commit and says why.  The digests are the same with
OPENBLAS_NUM_THREADS=1 and with the default thread count.
"""
import hashlib
import json

import pytest

from quadtel import harness as hz

GOLDEN = {
    "run-s2-exhaustive-structured": (
        lambda: hz.cmd_run(senders=2, seed=0, mode="exhaustive"),
        "0bd9ba6a73bae6ec4f63d511773eabe565a8a07f8c666ffdb36597b81c254ac8",
    ),
    "run-s3-exhaustive-structured": (  # the sweep-s3 benchmark command, 8192 branches
        lambda: hz.cmd_run(senders=3, seed=0, mode="exhaustive"),
        "fc9fd8ce7a9c5dd3e66566c85b5a60232949b2b4c13656686ff0a2e776ab7278",
    ),
    "run-s2-exhaustive-dense": (
        lambda: hz.cmd_run(senders=2, seed=0, mode="exhaustive", engine="dense"),
        "ac3ecf14b30e8ac482fe97f13d7237e8d4398b19c5250084f56a7eb6afcf5511",
    ),
    "run-s4-sampled64": (
        lambda: hz.cmd_run(senders=4, seed=0, mode="sampled:64"),
        "870a38a9764c6eb9bed9afda88404988bc57abac66a80cbacb709192d004b932",
    ),
    "run-s3-dense-forced": (
        lambda: hz.cmd_run(senders=3, seed=0, mode="forced:k+,k-,l+,l-,k+,l-,1", engine="dense",
                           allow_large_dense=True),
        "07ac5566f97c12b5beda4c628d0b0954ea95e24ecfba6acd153a806da2f90dae",
    ),
    "verify-tables-3": (
        lambda: hz.cmd_verify_tables(seed=3),
        "8a51d6ad271bd93df0e078626f013665581efb6830100e1d81090c5d3795fa56",
    ),
    "verify-expansion-3": (
        lambda: hz.cmd_verify_expansion(seed=3),
        "b76dcf30a63ad9d9d625328ef144249df8447a57456368bedb8e25b6f2c84f36",
    ),
    "efficiency": (
        hz.cmd_efficiency,
        "dbae1d2473055f1ca86b23673c79e2427eee8afd84caf7902517404ff372384b",
    ),
    "prepare-channel-8": (
        lambda: hz.cmd_prepare_channel(8),
        "423ad679dab5d27a589dbf1cf155aa0e8d90e6dab86576cf0ff1234ed9d556ca",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical(name):
    command, digest = GOLDEN[name]
    report = command()
    rendered = hz.render_report(report)
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest
    assert json.loads(rendered) == report
