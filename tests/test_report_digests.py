"""Golden digests: the rendered report of each subcommand, byte for byte.

Each sha256 below was recorded from ``render_report`` before a refactor and
must not move across one.  A change that alters a report on purpose updates
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
        "2f84ffa47a2ea800c541027c4010dcebfda70ec62d88ef9802ffc64d9253d173",
    ),
    "run-s2-exhaustive-dense": (
        lambda: hz.cmd_run(senders=2, seed=0, mode="exhaustive", engine="dense"),
        "c09ffd5091bef758047f7a19f01caad278ebca38beca8d5e2ea145defcdc8492",
    ),
    "run-s4-sampled64": (
        lambda: hz.cmd_run(senders=4, seed=0, mode="sampled:64"),
        "a6e25290b67bd3c017d2fa00ccf2e86b69e2cf490d1978d8837de9434588edd5",
    ),
    "run-s3-dense-forced": (
        lambda: hz.cmd_run(senders=3, seed=0, mode="forced:k+,k-,l+,l-,k+,l-,1", engine="dense",
                           allow_large_dense=True),
        "3f151acf7e4ba863cb341c8e70dbdd1005026dfa6c84a1a2dfa1bc7bdfbe7d39",
    ),
    "verify-tables-3": (
        lambda: hz.cmd_verify_tables(seed=3),
        "c15d321bc56cd4caf1420c8a35e7ac9e15fb820268714ace6ef5bc4cdb07eb2b",
    ),
    "verify-expansion-3": (
        lambda: hz.cmd_verify_expansion(seed=3),
        "1b974bf0fa82ebd8fd6306322a3b7503e6eaff4230db1fab64d1a1bef4a9f213",
    ),
    "efficiency": (
        hz.cmd_efficiency,
        "c20d23a2066b9b72e03a0dc676669ab0d85d16815458b8836f6880437207f66e",
    ),
    "prepare-channel-8": (
        lambda: hz.cmd_prepare_channel(8),
        "4ca3e9c1738e4c425d418f6e8a1226b0baeb6441b7fd40d8054b985b9f19e5a5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical(name):
    command, digest = GOLDEN[name]
    report = command()
    rendered = hz.render_report(report)
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest
    assert rendered == json.dumps(report, sort_keys=True, indent=2) + "\n"
