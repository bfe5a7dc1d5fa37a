"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

harness.require_source()


def _signature(calls):
    return [(c.argv, c.key) for c in calls]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_calls(workload):
    assert _signature(workloads.call_list(workload, 7, "/t")) == _signature(
        workloads.call_list(workload, 7, "/t"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_calls_but_not_kind_counts(workload):
    one = workloads.call_list(workload, 1, "/t")
    two = workloads.call_list(workload, 2, "/t")
    assert _signature(one) != _signature(two)
    assert Counter(c.kind for c in one) == Counter(c.kind for c in two)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_draws_recorded_calls(workload):
    expected = harness.load_expected(workload)
    for seed in range(40):
        for call in workloads.call_list(workload, seed, "/t"):
            assert call.key is None or call.key in expected, call.key


def test_coefficient_pools_are_admissible():
    literal = {"1": 0, "i": 1, "-1": 2, "-i": 3}
    for q, pool in workloads.COEFFS4.items():
        for text, cplx in pool:
            parts = text.split(",")
            x0, x1, y0, y1 = ([literal[p] * q // 4 for p in parts] if cplx
                              else [int(p) for p in parts])
            assert (x0 - y0) % q == (x1 - y1 + q // 2) % q, text


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap on [3, 4];
    # a has a child [2, 3]; b has one that runs past b's end.
    tree = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],
        ["a1", 2.0, 3.0, 1, 0, None],
        ["b1", 5.0, 7.0, 2, 0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0, 2.0])


def test_layer_metrics_count_spans_under_their_parents():
    tree = [
        ["cli.main", 0.0, 5.0, -1, 0, None],
        ["seeds.gcp_for_length", 0.5, 2.0, 0, 0, None],
        ["construct.golay_double", 0.6, 1.0, 1, 0, None],
        ["verify.verify", 0.7, 0.9, 2, 0, 11],
        ["algebra.aacf", 0.7, 0.8, 3, 0, 64],
        ["search.search_cs", 2.0, 4.0, 0, 0, (1000, 3)],
        ["verify.verify", 2.5, 3.0, 5, 0, 11],
        ["construct.golay_double", 4.0, 4.5, 0, 0, None],
    ]
    m = spans.layer_metrics(tree)
    assert m["cli.main.self_s"] == pytest.approx(1.0)
    assert m["seeds.compose_steps"] == 1
    assert m["construct.calls"] == 2
    assert m["construct.self_s"] == pytest.approx(0.2 + 0.5)
    assert m["algebra.aacf.products"] == 64
    assert m["verify.distinct_ratio"] == 0.5
    assert m["search.nodes"] == 1000 and m["search.sets"] == 3
    assert m["search.verify_calls"] == 1
    assert m["search.nodes_per_s"] == pytest.approx(500.0)
    slow = spans.layer_metrics(tree, slowdown=2.0)
    assert slow["cli.main.self_s"] == pytest.approx(0.5)
    assert slow["search.nodes_per_s"] == pytest.approx(1000.0)
    assert slow["search.nodes"] == 1000


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("calls")
    env = harness.setup("short-catalog", 3, tmp)
    template = {s[0]: s for s in workloads.slots("short-catalog")}
    calls = workloads.pipeline(template["cs4-4-14"], template["cs4-4-14"][1][1], 0, str(tmp))
    calls += workloads.pipeline(template["non-cs"], 1, 1, str(tmp))
    calls += workloads.pipeline(template["malformed"], 0, 2, str(tmp))
    results, _, _ = harness.run_pass(env, calls)
    return calls, results, harness.load_expected("short-catalog")


def test_recorded_outputs_pass(short_run):
    calls, results, expected = short_run
    oracle = outputs.Oracle()
    assert [harness.check(c, r, expected, oracle) for c, r in zip(calls, results)] == [
        None] * len(calls)


def _corrupt(calls, results, kind, exit=0, **change):
    i = next(i for i, c in enumerate(calls) if c.kind == kind and c.exit == exit)
    res = harness.Result(**{**vars(results[i]), **change})
    return calls[i], res


def test_check_flags_corrupted_set_file(short_run):
    calls, results, expected = short_run
    call, res = _corrupt(calls, results, "theorem1")
    flipped = res.written[:-2] + ("1" if res.written[-2] != "1" else "0") + "\n"
    res.written = flipped
    assert harness.check(call, res, expected, outputs.Oracle())[0] == "wrong"


def test_check_flags_changed_float_but_not_rounding(short_run):
    calls, results, expected = short_run
    call, res = _corrupt(calls, results, "papr")
    first = outputs._NUMBER.findall(res.stdout.split("papr=")[1])[0]
    value = float(first)
    for new, verdict in ((value * (1 + 1e-4), "wrong"), (value * (1 + 1e-12), None)):
        text = res.stdout.replace(f"papr={first}", f"papr={new!r}", 1)
        bad = harness.Result(**{**vars(res), "stdout": text})
        got = harness.check(call, bad, expected, outputs.Oracle())
        assert (got and got[0]) == verdict


def test_check_flags_wrong_exit_code_and_crash(short_run):
    calls, results, expected = short_run
    call, res = _corrupt(calls, results, "verify", exit=1, code=0)
    assert harness.check(call, res, expected, outputs.Oracle())[0] == "wrong"
    call, res = _corrupt(calls, results, "gcp", code=None, error="RecursionError: deep")
    assert harness.check(call, res, expected, outputs.Oracle())[0] == "crash"


def test_oracle_decides_complementarity():
    gold = harness.SRC / "cskit" / "data" / "golden"
    for name in ("cs8_q2_len13.txt", "pair_q2_len10.txt", "cs4_q2_len14.txt"):
        (q, exps), = outputs.parse_sets((gold / name).read_text())
        assert outputs.is_complementary(q, exps)
        assert outputs.papr_within_bound(q, exps)
        exps[0, 3] ^= 1
        assert not outputs.is_complementary(q, exps)
    # a size-3 set over q=3 and a pair over q=6, found by exhaustive search
    (q3, e3), = outputs.parse_sets("q=3 rows=3 len=2\n01\n02\n00\n")
    assert outputs.is_complementary(q3, e3)
    (q6, e6), = outputs.parse_sets("q=6 rows=2 len=2\n01\n04\n")
    assert outputs.is_complementary(q6, e6)
    (q6, e6), = outputs.parse_sets("q=6 rows=2 len=2\n01\n03\n")
    assert not outputs.is_complementary(q6, e6)


def test_benchmark_json_names_every_reported_metric():
    import json

    import run

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = set(spans.layer_metrics([])) | {"seeds.load_seeds.s", "trace.overhead_frac",
                                             "machine.slowdown"}
    assert {m["name"] for m in spec["per_layer"]} == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
