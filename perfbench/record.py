"""Record the expected output of every call any workload seed can issue.

    python3 perfbench/record.py [workload ...]

Runs each slot of each named workload (all of them by default) once with
every option it has, checks each output with the oracle, and writes the
digests to perfbench/expected/<workload>.json.gz. Run it only on a commit
whose outputs are the reference; the benchmark compares against them.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import time

import harness
import outputs
import workloads


def record(workload: str) -> dict:
    tmp = harness.ROOT / ".perfbench_tmp" / f"record-{workload}-{os.getpid()}"
    oracle = outputs.Oracle()
    expected: dict = {}
    try:
        env = harness.setup(workload, 0, tmp)
        index = 0
        for slot in workloads.slots(workload):
            for option in slot[1]:
                calls = workloads.pipeline(slot, option, index, str(tmp))
                index += 1
                results, _, _ = harness.run_pass(env, calls)
                for call, res in zip(calls, results):
                    if call.key is None:
                        continue
                    problem = harness.sanity(call, res, oracle)
                    if problem:
                        raise SystemExit(f"{workload}: {' '.join(call.argv)}: {problem}")
                    got = outputs.digest(call.check, res.code, res.stdout, res.written)
                    if expected.setdefault(call.key, got) != got:
                        raise SystemExit(f"{workload}: {call.key} gave two outputs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    harness.require_source()
    harness.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        start = time.perf_counter()
        expected = record(workload)
        with gzip.GzipFile(harness.expected_path(workload), "wb", mtime=0) as fh:
            fh.write(json.dumps(expected, sort_keys=True, indent=0).encode("utf-8"))
        print(f"{workload}: {len(expected)} outputs in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
