"""Tests of the benchmark's own logic: self times, the tail-percentile rule,
seeded op lists, and removal of the tracing wrappers.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import cmreduce.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import (  # noqa: E402
    DEFAULT_SEED,
    DIGESTS,
    END_TO_END,
    BenchError,
    digest_failures,
    tail_percentile,
    worker_timeout,
)


def add(spans, name, parent, start, end, error=None):
    """Append a finished span the way the tracer's wrapper does."""
    i = len(spans)
    spans.name.append(spans.name_id(name))
    spans.parent.append(parent)
    spans.op.append(0)
    spans.start.append(start)
    spans.end.append(end)
    if error is not None:
        spans.error[i] = error
    return i


def test_self_times_of_nested_tree():
    # main [0, 10] > a [1, 4] > leaf [2, 3]; main > b [5, 9] > c [6, 7], d [7, 8.5]
    s = tracer.Spans()
    main = add(s, "cli.main", -1, 0.0, 10.0)
    a = add(s, "generator.verify", main, 1.0, 4.0)
    add(s, "ff_arith.is_prime", a, 2.0, 3.0)
    b = add(s, "generator.generate", main, 5.0, 9.0)
    add(s, "splitting.find_prime", b, 6.0, 7.0)
    add(s, "splitting.find_prime", b, 7.0, 8.5)
    assert list(tracer.self_times(s)) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    m = tracer.layer_metrics(s, op_s=10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["generator.self_s"] == pytest.approx(3.5)
    assert m["splitting.self_s"] == pytest.approx(2.5)
    assert m["splitting.find_prime.s"] == pytest.approx(2.5)
    assert m["generator.generate.find_prime_calls"] == 2
    assert m["generator.generate.is_prime_calls"] == 0
    assert m["splitting.find_prime.candidates"] == 0  # is_prime under verify only
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(10.0)


def test_self_time_clips_child_to_parent_and_counts_recursion_once():
    s = tracer.Spans()
    outer = add(s, "ff_arith.poly_mul", -1, 0.0, 4.0)
    add(s, "ff_arith.poly_mul", outer, 1.0, 5.0)  # ends after its parent
    assert list(tracer.self_times(s)) == pytest.approx([1.0, 4.0])
    m = tracer.layer_metrics(s, op_s=4.0)
    assert m["ff_arith.poly_mul.s"] == pytest.approx(4.0)
    assert m["ff_arith.poly_mul.calls"] == 2


def test_find_prime_candidates_and_generate_is_prime_calls():
    s = tracer.Spans()
    gen = add(s, "generator.generate", -1, 0.0, 10.0)
    fp = add(s, "splitting.find_prime", gen, 0.0, 5.0)
    for t in range(4):
        add(s, "ff_arith.is_prime", fp, t, t + 0.5)
    rc = add(s, "generator.reduce_curve", gen, 5.0, 6.0, error="BadReductionError")
    add(s, "ff_arith.is_prime", rc, 5.0, 5.5)
    add(s, "splitting.split_by_factorization", gen, 7.0, 8.0)
    m = tracer.layer_metrics(s, op_s=10.0)
    assert m["splitting.find_prime.candidates"] == 4
    assert m["splitting.find_prime.yield"] == pytest.approx(0.25)
    assert m["generator.generate.is_prime_calls"] == 1
    assert m["generator.generate.split_calls"] == 1
    assert m["generator.reduce_curve.refused"] == 1


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(11, 9, 10), (20, 50, 10), (75, 86, 10), (100, 90, 10), (101, 90, 10), (650, 98, 13)],
)
def test_tail_percentile_leaves_ten_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    value, q, left = tail_percentile(values)
    assert (q, left) == (percentile, beyond)
    assert sum(1 for v in values if v > value) == left >= 10
    # the next whole percentile would leave fewer than ten
    assert n - -(-(q + 1) * n // 100) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(BenchError):
        tail_percentile([1.0] * 10)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    first = workloads.build_rounds(workload, 7, max_rounds=3)
    assert first == workloads.build_rounds(workload, 7, max_rounds=3)
    assert first != workloads.build_rounds(workload, 8, max_rounds=3)


@pytest.mark.parametrize("workload", ["sweep-small-p", "verify-large-p"])
def test_drawn_curve_prime_pairs_never_repeat(workload):
    ops = [op for r in workloads.build_rounds(workload, 3) for op in r if op["kind"] != "generate"]
    pairs = [(op["curve"], op["p"]) for op in ops]
    assert len(pairs) == len(set(pairs))


def test_rounds_have_the_same_slots_whatever_the_seed():
    def shape(rounds):
        return sorted((op["kind"], op.get("curve"), op.get("field")) for op in rounds[0])

    for workload in workloads.WORKLOADS:
        assert shape(workloads.build_rounds(workload, 1, 1)) == shape(
            workloads.build_rounds(workload, 2, 1))


def test_wrappers_are_removed_after_a_traced_run():
    before = {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name.startswith("cmreduce")
        for attr, obj in vars(mod).items()
    }
    t = tracer.Tracer()
    t.install()
    assert cmreduce.cli.main is not before["cmreduce.cli", "main"]
    assert cmreduce.generator.is_prime is not before["cmreduce.generator", "is_prime"]
    t.op = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cmreduce.cli.main(["split", "--field", "cyclotomic-5", "--p", "11", "--json"]) == 0
    t.op = None
    t.restore()
    assert tracer.leftover_wrappers() == []
    for (name, attr), obj in before.items():
        assert vars(sys.modules[name])[attr] is obj
    names = {t.spans.names[i] for i in t.spans.name}
    assert {"cli.main", "generator.catalog_load", "splitting.split_by_residue",
            "ff_arith.is_prime"} <= names


def test_ops_beyond_the_stored_digests_fail():
    assert digest_failures(["a", "b"], ["a", "b", "c"]) == []
    fails = digest_failures(["a", "x", "c"], ["a", "b"])
    assert [f["op"] for f in fails] == [1, 2]
    assert "no stored digest" in fails[1]["reason"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stored_digests_cover_every_op_of_the_default_seed(workload):
    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)[workload]
    assert len(stored) == sum(len(r) for r in workloads.build_rounds(workload, DEFAULT_SEED))


def test_worker_timeout_grows_with_the_run():
    assert worker_timeout(200) > 2 * 200 > worker_timeout(36)


def test_bad_primes_match_the_catalog_models():
    assert [p for p in range(3, 60) if workloads.is_probable_prime(p)
            and workloads.is_bad_prime("wamelen-c2", p)] == [5, 13, 31, 41, 47]
    assert workloads.is_bad_prime("weng-g3", 7) and not workloads.is_bad_prime("weng-g3", 11)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
