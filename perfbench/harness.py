"""Driving `cskit.cli.main` in-process and checking what each call did."""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import outputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"

# The machine this benchmark was defined on (2 vCPUs of an Intel Xeon,
# shared with other tenants) runs the same code up to 50% slower for
# seconds to minutes at a time. A fixed pure-Python loop, timed before every
# call, tracks that slowdown; times are reported divided by it, that is in
# seconds at the speed where the loop takes CALIBRATION_REF_S. Raw times
# are printed beside them.
CALIBRATION_REF_S = 150e-6


@dataclass
class Env:
    """One set-up: freshly imported cskit, loaded seeds and the call list."""

    cskit: object
    cli: object
    clear_cache: object       # cskit.seeds.gcp_for_length.cache_clear
    calls: list
    setup_s: float
    load_seeds_s: float


@dataclass
class Result:
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]      # uncaught exception, if any
    seconds: float
    written: Optional[str] = None


def require_source() -> None:
    """Put the checkout's `src` first on the path; fail if it is not there."""
    if not (SRC / "cskit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cskit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, tmp: Path) -> Env:
    """Import cskit afresh, load both seed databases and write the inputs."""
    for name in [n for n in sys.modules if n == "cskit" or n.startswith("cskit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cskit = importlib.import_module("cskit")
    cli = importlib.import_module("cskit.cli")
    seeds_start = time.perf_counter()
    cskit.load_seeds(2)
    cskit.load_seeds(4)
    seeds_end = time.perf_counter()
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    workloads.write_inputs(str(tmp))
    calls = workloads.call_list(workload, seed, str(tmp))
    end = time.perf_counter()
    return Env(cskit, cli, cskit.seeds.gcp_for_length.cache_clear, calls,
               end - start, seeds_end - seeds_start)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of machine speed."""
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i % 7
    return time.perf_counter() - start


def run_pass(env: Env, calls, tracer=None) -> tuple[list[Result], float, float]:
    """Issue the calls one after another.

    Returns their results, the wall time of the pass without the
    calibration probes, and the machine's slowdown during the pass: the
    median probe time over CALIBRATION_REF_S.
    """
    for call in calls:
        if call.writes:
            with contextlib.suppress(FileNotFoundError):
                os.remove(call.writes)
    results = []
    probes = []
    clock = time.perf_counter
    for i, call in enumerate(calls):
        probes.append(calibrate())
        env.clear_cache()
        if tracer is not None:
            tracer.call_id = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = env.cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a real invocation would die with a traceback
            code, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        results.append(Result(code, out.getvalue(), err.getvalue(), error, clock() - t0))
    wall = sum(res.seconds for res in results)
    for call, res in zip(calls, results):
        if call.writes and os.path.exists(call.writes):
            res.written = Path(call.writes).read_text(encoding="utf-8")
    return results, wall, statistics.median(probes) / CALIBRATION_REF_S


def sanity(call, res: Result, oracle: outputs.Oracle) -> Optional[str]:
    """Checks that need no recording: no traceback, the oracle, the decision."""
    if res.error:
        return f"uncaught {res.error}"
    if call.check != "deep" and res.code != call.exit:
        return f"exit {res.code}, expected {call.exit}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    if res.code != 0 and not (res.stderr.strip() or res.stdout.strip()):
        return f"exit {res.code} without a message"
    if res.code == 0 and call.writes and not (res.written and oracle.sets_ok(res.written)):
        return "oracle rejects the written set"
    if res.code == 0 and call.sets_on_stdout and res.stdout and not oracle.sets_ok(res.stdout):
        return "oracle rejects a set on stdout"
    if call.decides:
        is_cs = oracle.decide(Path(call.decides).read_text(encoding="utf-8"))
        if res.code != (0 if is_cs else 1):
            return f"exit {res.code} but the oracle says is_cs={is_cs}"
    return None


def check(call, res: Result, expected: dict, oracle: outputs.Oracle) -> tuple[str, str] | None:
    """None if the call passed, else (severity, reason).

    Severity "crash" is a call that gave no answer (an uncaught exception);
    "wrong" is a call whose answer differs from the recorded or the oracle's.
    The deep-search probe has no recorded output: it must end with exit code
    0, 2 or 3, and a set it prints must pass the oracle.
    """
    if res.error:
        return "crash", res.error
    if call.check == "deep":
        if res.code not in (0, 2, 3):
            return "wrong", f"exit {res.code}, expected 0, 2 or 3"
    else:
        want = expected.get(call.key)
        if want is None:
            return "wrong", f"no recorded output for {call.key}"
        if not outputs.matches(want, outputs.digest(call.check, res.code, res.stdout,
                                                    res.written)):
            return "wrong", "output differs from the recorded one"
    reason = sanity(call, res, oracle)
    return ("wrong", reason) if reason else None


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json.gz"


def load_expected(workload: str) -> dict:
    with gzip.open(expected_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)
