"""The program still reproduces the benchmark's stored output digests.

One round of each workload at the digest seed holds every op kind of that
workload; each op must pass its check and hash to its stored digest.
"""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402

with open(run.DIGESTS, encoding="utf-8") as fh:
    STORED = json.load(fh)


@pytest.mark.parametrize("workload", sorted(STORED))
def test_one_round_reproduces_the_stored_digests(workload):
    res = worker.run(workload, run.DEFAULT_SEED, rounds=1)
    assert res["failures"] == []
    assert run.digest_failures(res["digests"], STORED[workload]) == []
