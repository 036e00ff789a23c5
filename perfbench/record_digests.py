"""Rewrite digests.json: the output digest of every op the default seed's op
list holds, per workload, all rounds. run.py compares runs with the default
seed against it, so a change in any canonical output shows as a failure.

    python3 perfbench/record_digests.py
"""

import json

from run import DEFAULT_SEED, DIGESTS, _worker
from workloads import WORKLOADS, build_rounds


def main():
    stored = {}
    for w in WORKLOADS:
        rounds = len(build_rounds(w, DEFAULT_SEED))
        res = _worker("--workload", w, "--seed", DEFAULT_SEED, "--rounds", rounds, timeout=None)
        if res["failures"]:
            raise SystemExit(f"{w}: {res['failures'][0]}")
        stored[w] = res["digests"]
        print(f"{w}: {len(res['digests'])} ops in {res['rounds']} rounds")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
