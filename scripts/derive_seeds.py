#!/usr/bin/env python3
"""Regenerate the packaged primitive-pair seed files.

Every seed that is not transcribed from a worked example is found by the
backtracking pair search (first solution, ascending exponent order, so
the result is deterministic) and canonicalized. The quaternary length-13
kernel takes about 31 s and binary length 26 about 1.6 s on one 2.1 GHz
Xeon core. Run with --write to refresh src/cskit/data/seeds/ in place, or
with --check to compare every record byte for byte with the files there
(exit 1 on a mismatch); with neither the script just prints the records
it would write.
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from cskit.algebra import Sequence  # noqa: E402
from cskit.io import serialize_set  # noqa: E402
from cskit.reach import SEED_LENGTHS  # noqa: E402
from cskit.search import first_cs  # noqa: E402
from cskit.verify import ComplementarySet, ensure_verified  # noqa: E402

SEED_DIR = REPO / "src" / "cskit" / "data" / "seeds"

# Transcribed worked-example pair; every other length SEED_LENGTHS names is searched.
PAPER_EXAMPLE_SEEDS = {
    (2, 10): ("0011000101", "0000010110"),
}

SEARCH_NOTE = (
    "found by scripts/derive_seeds.py: first solution of the ends-inward "
    "backtracking pair search, canonicalized"
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="write files into %s" % SEED_DIR)
    mode.add_argument(
        "--check", action="store_true", help="exit 1 unless the files in %s match" % SEED_DIR
    )
    args = parser.parse_args()

    records = []
    for (q, length), rows in PAPER_EXAMPLE_SEEDS.items():
        pair = ensure_verified(
            ComplementarySet(tuple(Sequence.from_exponents(q, (int(c) for c in r)) for r in rows))
        )
        note = "provenance=paper-example\nworked example pair, verified on load"
        records.append((q, length, pair, note))
        print(f"q={q} len={length}: transcribed, verified")

    searched = [(q, length) for q in sorted(SEED_LENGTHS) for length in sorted(SEED_LENGTHS[q])
                if (q, length) not in PAPER_EXAMPLE_SEEDS]
    for q, length in searched:
        t0 = time.monotonic()
        pair = first_cs(q, 2, length)
        dt = time.monotonic() - t0
        if pair is None:
            raise SystemExit(f"no q={q} pair of length {length} exists; seed table is wrong")
        note = f"provenance=derived-search\n{SEARCH_NOTE}"
        records.append((q, length, pair, note))
        print(f"q={q} len={length}: searched in {dt:.2f}s")

    texts = {}
    for q, length, pair, note in sorted(records):
        name = f"q{q}_len{length}.txt"
        texts[name] = text = serialize_set(pair, note)
        print(f"--- {name}")
        sys.stdout.write(text)
        if args.write:
            SEED_DIR.mkdir(parents=True, exist_ok=True)
            (SEED_DIR / name).write_text(text, encoding="utf-8")
    if args.write:
        print(f"wrote {len(records)} seed files to {SEED_DIR}")
    if args.check:
        derived = {name: text.encode("utf-8") for name, text in texts.items()}
        on_disk = {path.name: path.read_bytes() for path in SEED_DIR.glob("*.txt")}
        bad = sorted(
            name for name in derived.keys() | on_disk.keys()
            if on_disk.get(name) != derived.get(name)
        )
        if bad:
            print(f"seed files differ from the derived records: {', '.join(bad)}")
            sys.exit(1)
        print(f"all {len(texts)} seed files match the derived records")


if __name__ == "__main__":
    main()
