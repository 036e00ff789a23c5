"""One benchmark process: import cmreduce, run a workload's ops through the
CLI entry point in-process, check each op, and print one JSON line.

Run by run.py in a fresh interpreter for every timed run, so module state
and caches never carry over from another run:

    python3 perfbench/worker.py --workload sweep-small-p --seed 1 --seconds 30 --setup-probes 12
    python3 perfbench/worker.py --workload sweep-small-p --seed 1 --rounds 2 --trace
    python3 perfbench/worker.py --setup-only

Each op pays what one `cmreduce ... --json` invocation pays apart from
interpreter start: argument parsing, catalog load, computation and JSON
output. Only the `cli.main` call is timed; parsing and checking the
envelope happen outside the timed region.

With --setup-probes N the worker also times N fresh interpreters doing the
same set-up (`--setup-only`), spaced evenly over the run between ops, so the
set-up samples see the same stretch of host time as the ops do. Probe time
does not count against --seconds.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

from tracer import Tracer, layer_metrics, leftover_wrappers
from workloads import build_rounds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROBE_TIMEOUT = 60


def _setup():
    """Import the package from the checkout and load the catalog once, as
    every CLI invocation does; returns the cli module and the seconds taken."""
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import cmreduce
    from cmreduce import cli, generator

    generator.catalog_load()
    elapsed = perf_counter() - t0
    if not os.path.abspath(cmreduce.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cmreduce imported from {cmreduce.__file__}, not {SRC}")
    return cli, elapsed


def _clear_caches():
    # Separate CLI invocations never share in-process caches. Drawn primes
    # never repeat a (curve, p) pair, but generate picks its own prime, so
    # clear every functools cache in the package between ops as well.
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cmreduce" or name.startswith("cmreduce.")):
            for obj in list(vars(mod).values()):
                obj = getattr(obj, "__perfbench_original__", obj)
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _setup_probe():
    """Set-up seconds of a fresh interpreter, and the wall time it cost."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only"],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
    return json.loads(proc.stdout)["setup_s"], perf_counter() - t0


def _run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception as e:  # an escaped exception is a failed op, not a crash
            code = f"raised {type(e).__name__}: {e}"
    return perf_counter() - t0, code, out.getvalue()


def run(workload, seed, seconds=None, rounds=None, trace=False, setup_probes=0):
    """Run whole rounds until the next one would overrun `seconds` (at least
    one), or exactly `rounds` rounds; return the result record. With
    `seconds`, also take `setup_probes` set-up samples spread over the run."""
    cli, setup_s = _setup()
    import checks  # imports cmreduce, so only after timing setup

    op_rounds = build_rounds(workload, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    latencies, digests, failures, round_sizes, probes = [], [], [], [], []
    if rounds is not None:
        setup_probes = 0
    start = perf_counter()
    probe_s = 0.0  # wall time spent in probes, left out of the run's budget
    last_round = 0.0

    def elapsed():
        return perf_counter() - start - probe_s

    def probe():
        nonlocal probe_s
        sample, cost = _setup_probe()
        probes.append(sample)
        probe_s += cost

    def probe_due():
        n = len(probes)
        return n < setup_probes and elapsed() >= (n + 0.5) * seconds / setup_probes

    try:
        for ops in op_rounds:
            if rounds is not None and len(round_sizes) == rounds:
                break
            if rounds is None and round_sizes and elapsed() + last_round > seconds:
                break
            round_start = elapsed()
            for op in ops:
                if probe_due():
                    probe()
                _clear_caches()
                idx = len(latencies)
                if tracer is not None:
                    tracer.op = idx
                dt, code, text = _run_op(cli, op["argv"])
                if tracer is not None:
                    tracer.op = None
                latencies.append(dt)
                doc = None
                try:
                    doc = json.loads(text)
                    checks.check_op(op, code, doc)
                except (checks.CheckFailed, ValueError, KeyError, TypeError) as e:
                    failures.append({"op": idx, "argv": op["argv"],
                                     "reason": f"exit {code}; {type(e).__name__}: {e}"})
                digests.append(None if doc is None else checks.digest(op, code, doc))
            last_round = elapsed() - round_start
            round_sizes.append(len(ops))
        while len(probes) < setup_probes:  # the run ended before their turn
            probe()
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "setup_probes": probes,
        "rounds": len(round_sizes),
        "round_sizes": round_sizes,
        "latencies": latencies,
        "digests": digests,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        left = leftover_wrappers()
        if left:
            failures.append({"op": None, "argv": None, "reason": f"wrappers left installed: {left}"})
        result["layers"] = layer_metrics(tracer.spans, sum(latencies))
        result["spans"] = tracer.spans
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", help="file for the traced run's spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--setup-probes", type=int, default=0,
                    help="fresh set-up samples to spread over a --seconds run")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": _setup()[1]}))
        return 0
    if (args.seconds is None) == (args.rounds is None):
        ap.error("give exactly one of --seconds and --rounds")
    result = run(args.workload, args.seed, args.seconds, args.rounds, args.trace,
                 args.setup_probes)
    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        spans.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
