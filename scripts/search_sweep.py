#!/usr/bin/env python3
"""Run the search sweep and print one JSON record per search_cs call.

The sweep covers q 1-8, set sizes 1-6 and lengths 1-12, each without a
limit and with limits 1, 2 and 3: 2,304 calls, each under a work bound of
60,000 nodes. A record holds the shape, the limit, and either the classes
found (rows as exponent strings), `complete` and the node count, or the
work-bound error. The records pin what a change to the search may not
move: the classes, their order and `complete`, and the nodes that
`--work-bound` counts. The whole sweep takes about 20 s on one core of a
shared Intel Xeon.

Run with --check to compare the SHA-256 digest of the output with the
recorded one instead (exit 1 on a mismatch). A change that lowers node
counts on purpose records the new digest in DIGEST.
"""

import argparse
import hashlib
import json
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cskit.errors import WorkBoundExceeded  # noqa: E402
from cskit.search import search_cs  # noqa: E402

WORK_BOUND = 60_000
DIGEST = "9b4814e1cb45ed8ca86df82502f9ac8e633048aa50a5a5b64207b39d5219deff"


def records():
    for q, size, length, limit in product(range(1, 9), range(1, 7), range(1, 13), (None, 1, 2, 3)):
        record = {"q": q, "size": size, "len": length, "limit": limit}
        try:
            result = search_cs(q, size, length, limit, WORK_BOUND)
        except WorkBoundExceeded as exc:
            record["error"] = str(exc)
        else:
            record["sets"] = [[row.render() for row in cs.rows] for cs in result.sets]
            record["complete"] = result.complete
            record["nodes"] = result.nodes
        yield json.dumps(record, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the output's digest matches DIGEST")
    args = parser.parse_args()
    digest = hashlib.sha256()
    for line in records():
        digest.update(line.encode("ascii") + b"\n")
        if not args.check:
            print(line)
    if args.check:
        if digest.hexdigest() != DIGEST:
            print(f"sweep digest {digest.hexdigest()} differs from the recorded {DIGEST}")
            sys.exit(1)
        print("the sweep matches its recorded digest")


if __name__ == "__main__":
    main()
