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
        "c980b7f865fb4c062791925bd8209d5d5b9a4fa18f4bf26ab6a30b27309c9f40",
    ),
    "run-s3-exhaustive-structured": (  # the sweep-s3 benchmark command, 8192 branches
        lambda: hz.cmd_run(senders=3, seed=0, mode="exhaustive"),
        "b976d6eb74a6bba259865a3e781323ad1b0958d29776102cc237b27ede589846",
    ),
    "run-s2-exhaustive-dense": (
        lambda: hz.cmd_run(senders=2, seed=0, mode="exhaustive", engine="dense"),
        "a1c2e96b1d8e3cc08e3cba4078ebb93ec322b1da46bd818b9e5e4d18ba0192a3",
    ),
    "run-s4-sampled64": (
        lambda: hz.cmd_run(senders=4, seed=0, mode="sampled:64"),
        "ab2a889328e2bb0953eedd40ecfdca3d16f34ddf89517c2ac58e5da51f2c1832",
    ),
    "run-s3-dense-forced": (
        lambda: hz.cmd_run(senders=3, seed=0, mode="forced:k+,k-,l+,l-,k+,l-,1", engine="dense",
                           allow_large_dense=True),
        "11ff27a41d97596c949bfdfcf001f4c649689444bcf23e0c2d1ecbcd1f1b4fed",
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
        "b35652b22ac4c9162dacccba946ebd6e0d49f0c20822a59fb52f3042744a0ec5",
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
