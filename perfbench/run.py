#!/usr/bin/env python3
"""cskit benchmark: real CLI pipelines driven in-process through `cskit.cli.main`.

    python3 perfbench/run.py --workload long-construct --seed 1 --seconds 40 --trace 0

Closed loop: one client in one process issues one call after another.
Each workload builds its call list from the seed (see workloads.py) and
repeats set-up plus a timed pass over the list until the time is up. Every call's exit code and output are checked against the outputs
recorded in expected/ and, outside the timed region, against an
independent numpy oracle. Times are corrected for the machine's speed
during each pass (see harness.CALIBRATION_REF_S and README.md); raw pass
times are printed beside them. With --trace 1, passes alternate between
untraced and traced, and the per-layer metrics of the traced passes are
reported instead of the end-to-end ones. The last line of output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import outputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name == "search.nodes_per_s":
        return "1/s"
    if name == "io.bytes":
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("_frac") or name == "machine.slowdown":
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def measure(args, expected, tmp) -> dict:
    """Set-ups and timed passes until the time is up.

    Every pass runs on a fresh set-up, as each real CLI invocation starts
    in a fresh process; set-ups are thereby spread over the whole run, like
    the passes, so that `setup_s` sees the same machine as `wall_s`.
    """
    oracle = outputs.Oracle()
    state = {"walls": [], "latencies": [], "traced_walls": [], "layers": [],
             "attempted": 0, "failed": 0, "wrong": [], "crashed": [], "tracer": None,
             "setup_s": [], "load_seeds_s": [], "raw_walls": [], "slowdowns": []}
    cycle_times = []
    start = time.perf_counter()
    passes = 0
    while True:
        cycle_start = time.perf_counter()
        setups = [harness.setup(args.workload, args.seed, tmp) for _ in range(SETUPS_PER_PASS)]
        env = setups[-1]
        traced = bool(args.trace) and passes % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install(env.cskit)
        try:
            results, raw_wall, slow = harness.run_pass(env, env.calls, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        wall = raw_wall / slow
        state["slowdowns"].append(slow)
        state["setup_s"].extend(s.setup_s / slow for s in setups)
        state["load_seeds_s"].extend(s.load_seeds_s / slow for s in setups)
        for call, res in zip(env.calls, results):
            state["attempted"] += 1
            problem = harness.check(call, res, expected, oracle)
            if problem:
                state["failed"] += 1
                kind = "crashed" if problem[0] == "crash" else "wrong"
                state[kind].append(f"{' '.join(call.argv)}: {problem[1]}")
        if traced:
            state["traced_walls"].append(wall)
            state["layers"].append(spans.layer_metrics(tracer.spans, slow))
            state["tracer"] = tracer
        else:
            state["walls"].append(wall)
            state["raw_walls"].append(raw_wall)
            state["latencies"].extend(res.seconds / slow for res in results)
        passes += 1
        cycle_times.append(time.perf_counter() - cycle_start)
        enough = passes >= (2 if args.trace else 1)
        elapsed = time.perf_counter() - start
        if enough and elapsed + max(cycle_times) > args.seconds:
            break
    state["passes"] = passes
    state["calls_per_pass"] = len(env.calls)
    return state


def report(args, state) -> dict:
    walls, lat = state["walls"], state["latencies"]
    print(f"# cskit benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  seconds={args.seconds}")
    print(f"# nproc={os.cpu_count()}  cpu={cpu_model()!r}  python={platform.python_version()}"
          f"  numpy={np.__version__}  loop=closed, 1 client")
    print(f"# calls per pass={state['calls_per_pass']}  passes={state['passes']} "
          f"(untraced {len(walls)}, traced {len(state['traced_walls'])})  "
          f"attempted={state['attempted']}  failed={state['failed']}")
    for line in state["crashed"][:5] + state["wrong"][:5]:
        print(f"# failed: {line}")
    print(f"# machine slowdown per pass (probe time / {harness.CALIBRATION_REF_S:g} s): "
          + " ".join(f"{x:.3f}" for x in state["slowdowns"])
          + "; times below are divided by it")
    print(f"# raw wall time per untraced pass, s: "
          + " ".join(f"{x:.4f}" for x in state["raw_walls"]))
    if not args.trace:
        p90 = percentile(lat, 90)
        metrics = {
            "setup_s": statistics.median(state["setup_s"]),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": (state["attempted"] - state["failed"]) / state["attempted"],
        }
        units = END_TO_END_UNITS
        notes = {"setup_s": f"median of {len(state['setup_s'])} set-ups",
                 "wall_s": f"median of {len(walls)} passes",
                 "op_p50_ms": f"n={len(lat)} calls",
                 "op_p90_ms": f"n={len(lat)} calls, {sum(x > p90 for x in lat)} beyond p90",
                 "ops_ok_frac": f"{state['failed']} of {state['attempted']} calls failed"}
    else:
        metrics = spans.median_metrics(state["layers"])
        metrics["seeds.load_seeds.s"] = statistics.median(state["load_seeds_s"])
        metrics["trace.overhead_frac"] = (statistics.median(state["traced_walls"])
                                          / statistics.median(walls) - 1)
        metrics["machine.slowdown"] = statistics.median(state["slowdowns"])
        units = {name: layer_unit(name) for name in metrics}
        notes = {name: f"per pass, median of {len(state['layers'])} traced passes"
                 for name in metrics}
        notes["seeds.load_seeds.s"] = f"median of {len(state['load_seeds_s'])} set-ups"
        notes["machine.slowdown"] = "median over passes; not applied to this one"
        notes["trace.overhead_frac"] = (
            f"traced {statistics.median(state['traced_walls']):.4f} s vs untraced "
            f"wall_s {statistics.median(walls):.4f} s per pass")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {units[name]:6s} {notes.get(name, '')}")
    return {
        "correct": not state["wrong"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cskit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.require_source()
    expected = harness.load_expected(args.workload)
    tmp = harness.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        state = measure(args, expected, tmp)
        result = report(args, state)
        if state["tracer"] is not None:
            out_dir = harness.ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            state["tracer"].write(path)
            print(f"# spans of the last traced pass: {path.relative_to(harness.ROOT)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
