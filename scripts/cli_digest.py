#!/usr/bin/env python3
"""Run a fixed list of cskit command-line calls in process and digest their outputs.

The list covers `enumerate` as text, --json and --table1 for q 2 and 4 and
set sizes 4 and 8; `gcp` for q 2 and 4 and every length 1-1199, some with
--out; `seeds list`; `selftest`; `theorem1` and `theorem2` on the packaged
goldens and on q=4 pairs, with exponent tuples, --complex literals and
inadmissible tuples; `stack`; `verify` as text and --report json on the
goldens and on sets that are not complementary; small `search` shapes; and
every cap and input refusal. One record per call holds its argv, exit
code, stdout, stderr and the set file it writes, with the path of the
temporary directory that holds every input and output replaced by <tmp>.

Left out: `papr`, since the FFT's rounding picks among tied peaks; and
--help and usage errors, whose text differs between Python versions. The
floats of `verify --report json` are rounded to 9 decimals. The whole run
takes about 6 s on one core of a shared Intel Xeon.

Run with --check to compare the SHA-256 digest of the records with the
recorded one instead (exit 1 on a mismatch). Without it the script prints
one line per call (exit code, a hash of its record, argv), so the calls of
two checkouts can be compared line by line. A change that alters an
output on purpose records the new digest in DIGEST.
"""

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from itertools import product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cskit import cli  # noqa: E402

DIGEST = "015792f4364f45a9d9786a98c8c4057486650a2ce96a86249c0731757b67e5de"

GOLDENS = ("pair_q2_len10.txt", "pair_q2_len4.txt", "pair_q2_len8.txt", "cs4_q2_len5.txt",
           "cs4_q2_len14.txt", "cs8_q2_len13.txt")
NON_CS = (
    "q=2 rows=2 len=10\n0000000000\n0000000000\n",
    "q=2 rows=4 len=7\n0001101\n0110100\n0000000\n0101010\n",
    "q=4 rows=2 len=8\n01230123\n00112233\n",
    "q=4 rows=4 len=5\n00000\n01230\n02020\n03210\n",
    "q=3 rows=3 len=6\n122112\n002021\n202002\n",
)
MALFORMED = (
    "",
    "q=2 rows=2\n0101\n0011\n",
    "q=2 rows=2 len=4\n0101\n00x1\n",
    "q=4 rows=2 len=4\n0123\n012\n",
    "q=2 rows=3 len=3\n010\n001\n",
    "q=2 rows=2 len=4\n# a note\n0101\n# a late note\n0011\n",
    "q=11 rows=1 len=1\n0\n",
    "q=2 rows=0 len=4\n",
    "q=2 rows=1 len=2\n\xff\xfe\n",
)
CAP_HEADERS = ("q=2 rows=1 len=65537", "q=2 rows=9 len=65536", "q=2 rows=524289 len=1",
               "q=2 rows=8 len=65536", "q=2 rows=524288 len=1")


def write_inputs(tmp: Path) -> None:
    shutil.copytree(REPO / "src" / "cskit" / "data" / "golden", tmp / "golden")
    for i, text in enumerate(NON_CS):
        (tmp / f"non-cs-{i}.txt").write_text(text, encoding="utf-8")
    for i, text in enumerate(MALFORMED):
        # the last file holds the bytes 0xff 0xfe, which are not UTF-8
        (tmp / f"malformed-{i}.txt").write_bytes(text.encode("latin-1"))
    for i, header in enumerate(CAP_HEADERS):  # garbage rows: the caps come first
        (tmp / f"cap-{i}.txt").write_text(f"{header}\nx\n")
    # parsed, never verified: the output caps refuse them before any construction
    for name, rows, length in (("wide-pair", 2, 32769), ("wide-set", 4, 32768),
                               ("tall-set", 4, 65536)):
        (tmp / f"{name}.txt").write_text(f"q=2 rows={rows} len={length}\n"
                                         + ("0" * length + "\n") * rows)
    (tmp / "plainfile").write_text("not a directory\n")


def calls(tmp: Path):
    """The argv of every call, in order; later calls read what earlier ones wrote."""
    t = str(tmp)
    gold = {name: f"{t}/golden/{name}" for name in GOLDENS}

    yield ["selftest"]
    for q in ([], ["--q", "2"], ["--q", "4"], ["--q", "3"], ["--q", "0"]):
        yield ["seeds", "list", *q]

    for q, size in product((2, 4), (4, 8)):
        base = ["enumerate", "--q", str(q), "--size", str(size)]
        for max_len in (1, 2, 3, 34, 600):
            yield [*base, "--max", str(max_len)]
            yield [*base, "--max", str(max_len), "--json"]
            yield [*base, "--max", str(max_len), "--table1"]
        yield [*base, "--max", "2600"]
        yield [*base, "--max", "34", "--json", "--table1"]
    yield ["enumerate", "--q", "3", "--size", "4", "--max", "10"]
    yield ["enumerate", "--q", "2", "--size", "4", "--max", "0"]
    yield ["enumerate", "--q", "2", "--size", "8", "--max", "100001"]

    for q in (2, 4):
        for length in range(1, 1200):
            yield ["gcp", "--q", str(q), "--len", str(length)]
        for length in (1, 2, 3, 5, 10, 13, 26, 52, 100, 1040):
            yield ["gcp", "--q", str(q), "--len", str(length), "--out", f"{t}/q{q}_len{length}.txt"]
    for length in (5, 13, 26):
        yield ["gcp", "--q", "4", "--len", str(length), "--pretty"]
    yield ["gcp", "--q", "2", "--len", "0"]
    yield ["gcp", "--q", "3", "--len", "4"]
    yield ["gcp", "--q", "2", "--len", "16385"]
    yield ["gcp", "--q", "2", "--len", "4", "--out", f"{t}/plainfile/x"]

    pair_a, pair_b = gold["pair_q2_len10.txt"], gold["pair_q2_len4.txt"]
    for coeffs in product("01", repeat=4):
        yield ["theorem1", "--pair-a", pair_a, "--pair-b", pair_b, "--coeffs", ",".join(coeffs)]
    for coeffs in product(("1", "-1"), repeat=4):
        yield ["theorem1", "--pair-a", pair_b, "--pair-b", pair_a, "--complex",
               f"--coeffs={','.join(coeffs)}"]
    yield ["theorem1", "--pair-a", pair_a, "--pair-b", pair_b, "--coeffs=-1,3,0,1", "--pretty"]
    yield ["theorem1", "--pair-a", pair_a, "--pair-b", pair_b, "--coeffs", "0,0,0,1",
           "--out", f"{t}/cs4_q2_len14.txt"]
    q4_a, q4_b = f"{t}/q4_len3.txt", f"{t}/q4_len5.txt"
    for coeffs in product("0123", repeat=4):
        yield ["theorem1", "--pair-a", q4_a, "--pair-b", q4_b, "--coeffs", ",".join(coeffs)]
    for coeffs in product(("1", "-1", "i", "-i"), repeat=4):
        yield ["theorem1", "--pair-a", q4_b, "--pair-b", q4_a, "--complex",
               f"--coeffs={','.join(coeffs)}"]
    yield ["theorem1", "--pair-a", q4_a, "--pair-b", q4_b, "--coeffs", "0,1,0,3", "--pretty"]
    yield ["theorem1", "--pair-a", q4_a, "--pair-b", q4_b, "--coeffs", "0,1,0,3",
           "--out", f"{t}/cs4_q4_len8.txt"]

    pair, set4 = gold["pair_q2_len8.txt"], gold["cs4_q2_len5.txt"]
    for coeffs in product("01", repeat=6):
        yield ["theorem2", "--pair", pair, "--set", set4, "--coeffs", ",".join(coeffs)]
    yield ["theorem2", "--pair", pair, "--set", set4, "--complex", "--coeffs", "1,-1,-1,1,1,1",
           "--out", f"{t}/cs8_q2_len13.txt"]
    for coeffs in list(product("0123", repeat=6))[::37]:
        yield ["theorem2", "--pair", q4_b, "--set", f"{t}/cs4_q4_len8.txt",
               "--coeffs", ",".join(coeffs)]
    yield ["theorem2", "--pair", q4_a, "--set", f"{t}/cs4_q4_len8.txt", "--complex",
           "--coeffs", "1,i,1,-i,1,1", "--pretty"]

    # construction refusals: inputs of the wrong shape, alphabet or kind, and bad --coeffs
    for argv in (
        ["theorem1", "--pair-a", gold["cs4_q2_len14.txt"], "--pair-b", pair_b],
        ["theorem1", "--pair-a", pair_a, "--pair-b", q4_a],
        ["theorem1", "--pair-a", f"{t}/non-cs-0.txt", "--pair-b", pair_b],
        ["theorem2", "--pair", set4, "--set", set4],
        ["theorem2", "--pair", pair, "--set", pair_b],
        ["theorem2", "--pair", pair, "--set", f"{t}/non-cs-1.txt"],
    ):
        yield [*argv, "--coeffs", "0,0,0,1" if argv[0] == "theorem1" else "0,1,1,0,0,0"]
    for coeffs in ("0,0,1", "0,0,0,1,0", "0,x,0,1", "1.5,0,0,1"):
        yield ["theorem1", "--pair-a", pair_a, "--pair-b", pair_b, "--coeffs", coeffs]
    for coeffs in ("1,1,i,1", "1,1,x,1", "1,1,-1"):
        yield ["theorem1", "--pair-a", pair_a, "--pair-b", pair_b, "--complex", "--coeffs", coeffs]
    yield ["theorem1", "--pair-a", f"{t}/non-cs-4.txt", "--pair-b", f"{t}/non-cs-4.txt",
           "--coeffs", "0,0,0,1"]

    set14 = gold["cs4_q2_len14.txt"]
    yield ["stack", set14, f"{t}/cs4_q2_len14.txt"]
    yield ["stack", set14, set14, "--out", f"{t}/cs8_q2_len14.txt"]
    yield ["stack", f"{t}/cs4_q4_len8.txt", f"{t}/cs4_q4_len8.txt", "--pretty"]
    yield ["stack", set4, set14]
    yield ["stack", set14, f"{t}/non-cs-1.txt"]
    yield ["stack", f"{t}/q2_len10.txt", f"{t}/q4_len13.txt"]

    verified = [*gold.values(), f"{t}/cs4_q4_len8.txt", f"{t}/cs8_q2_len14.txt",
                f"{t}/q4_len1040.txt"]
    for path in verified + [f"{t}/non-cs-{i}.txt" for i in range(len(NON_CS))]:
        yield ["verify", path]
        yield ["verify", path, "--report", "json"]

    for q, size, length in [(1, 1, 3), (2, 1, 2), (3, 3, 3), (6, 2, 3)] + [
            (2, 2, n) for n in range(1, 9)] + [(4, 2, n) for n in range(1, 5)] + [
            (2, 4, n) for n in range(2, 4)] + [(4, 4, 2)]:
        yield ["search", "--q", str(q), "--size", str(size), "--len", str(length)]
    yield ["search", "--q", "2", "--size", "2", "--len", "10", "--limit", "3"]
    yield ["search", "--q", "4", "--size", "2", "--len", "6", "--limit", "1"]
    yield ["search", "--q", "2", "--size", "2", "--len", "26", "--work-bound", "1000"]
    yield ["search", "--q", "2", "--size", "2", "--len", "7", "--work-bound", "0"]
    yield ["search", "--q", "2", "--size", "2", "--len", "4", "--limit", "0"]
    yield ["search", "--q", "2", "--size", "2", "--len", "4", "--work-bound", "-1"]
    yield ["search", "--q", "11", "--size", "2", "--len", "4"]
    yield ["search", "--q", "2", "--size", "0", "--len", "4"]
    yield ["search", "--q", "2", "--size", "2", "--len", "1001"]
    yield ["search", "--q", "2", "--size", "65537", "--len", "1"]

    # input refusals: paths the OS refuses, malformed files, and the set caps
    for path in ("missing.txt", "golden", "plainfile/x", "a" * 5000):
        yield ["verify", f"{t}/{path}"]
    for i in range(len(MALFORMED)):
        yield ["verify", f"{t}/malformed-{i}.txt"]
    for i in range(len(CAP_HEADERS)):
        yield ["verify", f"{t}/cap-{i}.txt"]
    yield ["theorem1", "--pair-a", f"{t}/wide-pair.txt", "--pair-b", f"{t}/wide-pair.txt",
           "--coeffs", "0,0,0,1"]
    yield ["theorem2", "--pair", f"{t}/wide-pair.txt", "--set", f"{t}/wide-set.txt",
           "--coeffs", "0,1,1,0,0,0"]
    yield ["stack", *[f"{t}/tall-set.txt"] * 3]
    yield ["stack", f"{t}/missing.txt", set14]
    yield ["theorem1", "--pair-a", pair_a, "--pair-b", f"{t}/malformed-2.txt",
           "--coeffs", "0,0,0,1"]


def record(argv: list, tmp: str) -> str:
    """One call's argv, exit code, stdout, stderr and written file, as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    if argv[0] == "verify" and argv[-1] == "json" and code in (0, 1):
        # the last digits of a float are not the CLI's contract; -0.0 reads as 0.0
        stdout = json.dumps(json.loads(stdout, parse_float=lambda s: round(float(s), 9) + 0.0))
    written = None
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        written = target.read_text(encoding="utf-8") if target.is_file() else None
    return json.dumps([argv, code, stdout, err.getvalue(), written]).replace(tmp, "<tmp>")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the records' digest matches DIGEST")
    args = parser.parse_args()
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for argv in calls(Path(tmp)):
            line = record(argv, tmp)
            digest.update(line.encode("utf-8") + b"\n")
            if not args.check:
                code = json.loads(line)[1]
                short = hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]
                print(code, short, " ".join(argv).replace(tmp, "<tmp>"))
    if args.check:
        if digest.hexdigest() != DIGEST:
            print(f"CLI digest {digest.hexdigest()} differs from the recorded {DIGEST}")
            sys.exit(1)
        print("the CLI outputs match their recorded digest")
    else:
        print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
