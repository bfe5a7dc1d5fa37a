#!/usr/bin/env python3
"""Build and verify every set `enumerate` lists as constructive.

The sweep covers q 2 and 4, set sizes 4 and 8 and every length up to
2,600. For each constructive entry of `reachable_lengths(q, size, 2600)`
it builds the set from the entry's witness through the library
constructors, which verify what they build:

- a pair-sum (M, N) is `cs4_from_pairs` of the pairs `gcp_for_length`
  gives for M and N;
- a pair-plus-set4 (M, P) is `cs8_from_pair_and_set` of the pair M and the
  size-4 set this sweep built for P;
- a stack (L) is `stack` of two copies of the size-4 set built for L.

The coefficients are fixed per alphabet (COEFFS4, COEFFS8). Each set must
be verified and have the listed size and length. The sweep prints one JSON
record per set: its shape, its witness and the SHA-256 of the serialized
set, so the records hash every row. It takes about 35 s on one core of a
shared Intel Xeon.

Run with --check to compare instead (exit 1 on any mismatch):
- the SHA-256 digest of the output with the recorded DIGEST;
- the number of sets per (q, size) with SETS;
- the number of lengths listed existence-only per (q, size) with
  EXISTENCE_ONLY;
- the paper's special cases: every size-4 length 2^a + 2^b, N + 1 and N + 2
  up to MAX_LEN, with N a pair length of the existence pattern, is listed,
  and as many of them are existence-only as SPECIAL_EXISTENCE_ONLY says.
A change that makes more lengths constructive on purpose records the new
digest and counts here.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cskit.construct import (  # noqa: E402
    Coeffs4,
    Coeffs8,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    stack,
)
from cskit.io import serialize_set  # noqa: E402
from cskit.reach import gcp_lengths, reachable_lengths  # noqa: E402
from cskit.seeds import gcp_for_length  # noqa: E402

MAX_LEN = 2600
COEFFS4 = {2: Coeffs4(0, 0, 0, 1), 4: Coeffs4(0, 0, 0, 2)}
COEFFS8 = {2: Coeffs8(0, 1, 1, 0, 0, 0), 4: Coeffs8(0, 0, 2, 2, 0, 0)}
DIGEST = "8739550bafcb4162c5cf8a5df978417db50b89982f97ce4296916f632ed32d60"
SETS = {(2, 4): 501, (2, 8): 1661, (4, 4): 1436, (4, 8): 2598}  # 6,196 in all
EXISTENCE_ONLY = {(2, 4): 0, (2, 8): 0, (4, 4): 429, (4, 8): 1}
# (q, family): how many lengths of the family are listed existence-only
SPECIAL_EXISTENCE_ONLY = {(2, "2^a+2^b"): 0, (2, "N+1"): 0, (2, "N+2"): 0,
                          (4, "2^a+2^b"): 0, (4, "N+1"): 45, (4, "N+2"): 16}


def pair(q, length):
    return gcp_for_length(q, length).pair


def build(q, witness, sets4):
    """The set a witness names; sets4 holds the size-4 sets built so far by length."""
    if witness.kind == "pair-sum":
        m, n = witness.operands
        return cs4_from_pairs(pair(q, m), pair(q, n), COEFFS4[q])
    if witness.kind == "pair-plus-set4":
        m, p = witness.operands
        return cs8_from_pair_and_set(pair(q, m), sets4[p], COEFFS8[q])
    set4 = sets4[witness.operands[0]]
    return stack([set4, set4])


def records(counts):
    """One JSON line per built set; counts collects the sets and the
    existence-only lengths per (q, size)."""
    for q in (2, 4):
        sets4 = {}
        for size in (4, 8):
            built = existence_only = 0
            for entry in reachable_lengths(q, size, MAX_LEN).entries:
                if not entry.constructive:
                    existence_only += 1
                    continue
                cs = build(q, entry.witness, sets4)
                if not cs.verified or (cs.size, cs.length) != (size, entry.length):
                    raise SystemExit(f"q={q} size={size} len={entry.length}: built "
                                     f"{cs.size} x {cs.length}, verified={cs.verified}")
                if size == 4:
                    sets4[entry.length] = cs
                built += 1
                yield json.dumps({
                    "q": q, "size": size, "len": entry.length,
                    "witness": [entry.witness.kind, *entry.witness.operands],
                    "sha256": hashlib.sha256(serialize_set(cs).encode("ascii")).hexdigest(),
                })
            counts["sets"][q, size] = built
            counts["existence_only"][q, size] = existence_only


def special_cases(q):
    """{family: (lengths not listed, lengths listed existence-only)} for size 4."""
    listed = {e.length: e.constructive for e in reachable_lengths(q, 4, MAX_LEN).entries}
    powers = [1 << k for k in range(MAX_LEN.bit_length())]
    pattern = gcp_lengths(q, MAX_LEN)
    families = {
        "2^a+2^b": {a + b for a in powers for b in powers},
        "N+1": {n + 1 for n in pattern},
        "N+2": {n + 2 for n in pattern},
    }
    out = {}
    for name, lengths in families.items():
        lengths = {length for length in lengths if length <= MAX_LEN}
        out[name] = (sorted(lengths - listed.keys()),
                     sum(1 for length in lengths if length in listed and not listed[length]))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the digest, the counts and the special cases match")
    args = parser.parse_args()
    counts = {"sets": {}, "existence_only": {}}
    digest = hashlib.sha256()
    for line in records(counts):
        digest.update(line.encode("ascii") + b"\n")
        if not args.check:
            print(line)
    if not args.check:
        return
    failures = []
    if digest.hexdigest() != DIGEST:
        failures.append(f"sweep digest {digest.hexdigest()} differs from the recorded {DIGEST}")
    for name, recorded in (("sets", SETS), ("existence_only", EXISTENCE_ONLY)):
        if counts[name] != recorded:
            failures.append(f"{name} per (q, size) {counts[name]} differ from the recorded "
                            f"{recorded}")
    for q in (2, 4):
        for family, (missing, existence_only) in special_cases(q).items():
            if missing:
                failures.append(f"q={q} {family}: lengths {missing} are not listed for size 4")
            if existence_only != SPECIAL_EXISTENCE_ONLY[q, family]:
                failures.append(f"q={q} {family}: {existence_only} lengths existence-only, "
                                f"recorded {SPECIAL_EXISTENCE_ONLY[q, family]}")
    for failure in failures:
        print(failure)
    if failures:
        sys.exit(1)
    print("the sweep matches its recorded digest, counts and special cases")


if __name__ == "__main__":
    main()
