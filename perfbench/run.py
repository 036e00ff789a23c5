"""cmreduce benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload sweep-small-p --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Each workload is a closed loop with one client
in one process and one thread: a seeded list of `cmreduce ... --json`
commands, sent one after another through `cmreduce.cli.main` in a fresh
interpreter. Every op's envelope is checked (see checks.py).

--trace 0 reports the end-to-end metrics: setup_s (import cmreduce plus the
first catalog load, median over fresh processes spread over the run),
ops_per_s (median over rounds), op_p50_s, op_tail_s and peak_rss_mb. --trace 1 runs the workload untraced for half
the time and then the same ops again with every public function of the
package wrapped in a span, and reports the per-layer metrics and the
tracing overhead; the spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every op
passed its checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 1
SETUP_PROBES = 12  # fresh processes timed for setup_s, besides the worker
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def tail_percentile(values, beyond=10):
    """The highest whole percentile whose nearest-rank value leaves at least
    `beyond` samples above its rank: (value, percentile, samples beyond)."""
    n = len(values)
    if n <= beyond:
        raise BenchError(f"{n} samples cannot leave {beyond} beyond a percentile")
    q = 100 * (n - beyond) // n
    rank = -(-q * n // 100)  # ceil(q n / 100), 1-based
    return sorted(values)[rank - 1], q, n - rank


def round_rates(latencies, round_sizes):
    """Ops per second of op time in each round."""
    rates, i = [], 0
    for n in round_sizes:
        rates.append(n / sum(latencies[i:i + n]))
        i += n
    return rates


def worker_timeout(seconds):
    """Seconds to wait for a worker whose ops take about `seconds`: the ops
    may run up to one round past it, and set-up, probes and checks add a
    few seconds more."""
    return 2 * seconds + 60


def _worker(*args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} exited {proc.returncode}:"
                         f"\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_failures(digests, stored):
    """Ops whose canonical output differs from the stored digest; an op
    with no stored digest fails too."""
    failures = []
    for i, got in enumerate(digests):
        if i >= len(stored):
            failures.append({"op": i, "reason": "no stored digest for this op"})
        elif got != stored[i]:
            failures.append({"op": i, "reason": f"output digest {got} differs from stored"
                                                f" {stored[i]}"})
    return failures


def _digest_failures(result):
    """Digest failures of a run with the default seed."""
    if result["seed"] != DEFAULT_SEED:
        return []
    with open(DIGESTS, encoding="utf-8") as fh:
        return digest_failures(result["digests"], json.load(fh)[result["workload"]])


def _failures(*results):
    """Failure records of one or more worker runs, and how many ops failed."""
    failures, failed = [], 0
    for res in results:
        own = res["failures"] + _digest_failures(res)
        failures += own
        failed += len({f["op"] for f in own})
    return failures, failed


def end_to_end(workload, seed, seconds):
    res = _worker("--workload", workload, "--seed", seed, "--seconds", seconds,
                  "--setup-probes", SETUP_PROBES, timeout=worker_timeout(seconds))
    setups = [res["setup_s"], *res["setup_probes"]]
    lat = res["latencies"]
    tail, q, beyond = tail_percentile(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(round_rates(lat, res["round_sizes"])),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes spread over the run",
        "ops_per_s": f"median over {res['rounds']} rounds; {len(lat)} ops in {sum(lat):.2f} s"
                     " of op time",
        "op_tail_s": f"p{q} of {len(lat)} ops, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return values, notes, len(lat), *_failures(res)


def per_layer(workload, seed, seconds):
    """Untraced for half the time, then the same rounds traced."""
    plain = _worker("--workload", workload, "--seed", seed, "--seconds", seconds / 2,
                    timeout=worker_timeout(seconds / 2))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json.gz")
    traced = _worker("--workload", workload, "--seed", seed, "--rounds", plain["rounds"],
                     "--trace", "--spans-out", spans_out, timeout=worker_timeout(seconds))
    layers = traced["layers"]
    plain_s, traced_s = sum(plain["latencies"]), sum(traced["latencies"])
    n = len(traced["latencies"])
    layers.update({
        "trace.ops": n,
        "trace.op_s": traced_s,
        "trace.ops_per_s": n / traced_s,
        "trace.untraced_ops_per_s": len(plain["latencies"]) / plain_s,
        "trace.overhead": traced_s / plain_s,
    })
    values = {name: layers.get(name, 0) for name, _ in PER_LAYER}
    notes = {
        "trace.ops": f"{plain['rounds']} rounds; spans in {os.path.relpath(spans_out, ROOT)}",
        "trace.overhead": "traced op time / untraced op time on the same ops",
    }
    return values, notes, len(plain["latencies"]) + n, *_failures(plain, traced)


def run_workload(workload, seed, seconds, trace):
    if trace:
        values, notes, attempted, failures, failed = per_layer(workload, seed, seconds)
        units = dict(PER_LAYER)
    else:
        values, notes, attempted, failures, failed = end_to_end(workload, seed, seconds)
        units = dict(END_TO_END)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6}{note}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6}"
          f"  ({failed} of {attempted} ops failed)")
    for f in failures[:20]:
        print(f"  FAILED op {f['op']}: {f.get('argv')} {f['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }), flush=True)
    return not failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmreduce", "cli.py")):
        print(f"error: no cmreduce sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    try:
        for w in workloads:
            ok = run_workload(w, args.seed, args.seconds, bool(args.trace)) and ok
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
