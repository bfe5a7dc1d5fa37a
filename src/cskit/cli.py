"""Command-line interface.

Exit codes: 0 success / verified, 1 verification-negative (or no pair
available), 2 input error, 3 work bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as setio
from .algebra import Sequence
from .construct import (
    Coeffs4,
    Coeffs8,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    golay_double,
    stack,
    turyn_product,
)
from .errors import InputError, SeedError, WorkBoundExceeded
from .papr import DEFAULT_OVERSAMPLE, papr
from .reach import published_row_diff, reachable_lengths
from .search import DEFAULT_WORK_BOUND, search_cs
from .seeds import gcp_for_length, load_seeds
from .verify import ComplementarySet, ensure_verified, verify

_COMPLEX_LITERALS = {"1": 0, "-1": 2, "i": 1, "-i": 3}  # quarters of a turn


def _load(path: str) -> ComplementarySet:
    cs, _ = setio.read_set_file(path)
    return cs


def _load_pair(path: str, name: str) -> ComplementarySet:
    cs = _load(path)
    if cs.size != 2:
        raise InputError(f"{name}: expected 2 rows, got {cs.size}")
    return ensure_verified(cs)


def _parse_coeffs(raw: str, count: int, q: int, as_complex: bool) -> list[int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != count:
        raise InputError(f"expected {count} comma-separated coefficients, got {len(parts)}")
    if not as_complex:
        try:
            return [int(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"bad coefficient exponent: {exc}") from None
    out = []
    for p in parts:
        if p not in _COMPLEX_LITERALS:
            raise InputError(f"bad complex literal {p!r} (use 1, -1, i, -i)")
        quarter = _COMPLEX_LITERALS[p]
        if quarter * q % 4:
            raise InputError(f"{p} is not a {q}-th root of unity")
        out.append(quarter * q // 4)
    return out


def _emit_set(cs: ComplementarySet, out: str | None, pretty: bool) -> None:
    if out:
        setio.write_set_file(out, cs)
        return
    if pretty:
        for row in cs.rows:
            print(row.render(pretty=True))
    else:
        sys.stdout.write(setio.serialize_set(cs))


def _report_dict(cs: ComplementarySet, report) -> dict:
    n = cs.length
    profile = report.sum_profile
    nonzero = {tau: profile.at(tau).to_complex() for tau in profile.nonzero_shifts() if tau >= 0}
    return {
        "is_cs": report.is_cs,
        "q": cs.q,
        "rows": cs.size,
        "len": n,
        "peak": cs.size * n,
        "first_defect_shift": report.first_defect_shift,
        "defect_magnitudes": {str(t): m for t, m in report.defect_magnitudes.items()},
        "sum_profile": [[z.real, z.imag] for z in (nonzero.get(tau, 0j) for tau in range(n))],
    }


def cmd_verify(args) -> int:
    cs = _load(args.file)
    report = verify(cs)
    if args.report == "json":
        print(json.dumps(_report_dict(cs, report)))
    else:
        print(f"is_cs: {report.is_cs}")
        print(f"q={cs.q} rows={cs.size} len={cs.length}")
        peak = report.sum_profile.peak.to_complex().real
        print(f"peak: {peak:g} (expected {cs.size * cs.length})")
        if report.is_cs:
            print("off-peak: all shifts exactly zero")
        else:
            print(f"first defect shift: {report.first_defect_shift}")
            for tau, mag in sorted(report.defect_magnitudes.items()):
                print(f"  shift {tau}: |sum| = {mag:g}")
    return 0 if report.is_cs else 1


def cmd_theorem1(args) -> int:
    pair_a = _load_pair(args.pair_a, "--pair-a")
    pair_b = _load_pair(args.pair_b, "--pair-b")
    x0, x1, y0, y1 = _parse_coeffs(args.coeffs, 4, pair_a.q, args.complex)
    cs = cs4_from_pairs(pair_a, pair_b, Coeffs4(x0, x1, y0, y1))
    _emit_set(cs, args.out, args.pretty)
    return 0


def cmd_theorem2(args) -> int:
    pair = _load_pair(args.pair, "--pair")
    set4 = ensure_verified(_load(args.set))
    coeffs = _parse_coeffs(args.coeffs, 6, pair.q, args.complex)
    cs = cs8_from_pair_and_set(pair, set4, Coeffs8(*coeffs))
    _emit_set(cs, args.out, args.pretty)
    return 0


def cmd_stack(args) -> int:
    sets = [ensure_verified(_load(path)) for path in args.files]
    _emit_set(stack(sets), args.out, args.pretty)
    return 0


def cmd_gcp(args) -> int:
    result = gcp_for_length(args.q, args.len)
    if not result.available:
        print(f"no q={args.q} pair of length {args.len}: {result.reason}")
        return 1
    print(f"derivation: {result.chain}")
    _emit_set(result.pair, args.out, args.pretty)
    return 0


def cmd_enumerate(args) -> int:
    reach = reachable_lengths(args.q, args.size, args.max)
    if args.json:
        records = [
            {
                "length": e.length,
                "witness": {"kind": e.witness.kind, "operands": list(e.witness.operands)},
                "constructive": e.constructive,
            }
            for e in reach.entries
        ]
        print(json.dumps({"q": args.q, "size": args.size, "max": args.max,
                          "lengths": records}))
    else:
        print(f"q={args.q} size={args.size} max={args.max}: {len(reach.entries)} lengths")
        for e in reach.entries:
            label = "constructive" if e.constructive else "existence-only"
            print(f"{e.length:4d}  {e.witness.describe():<42} {label}")
    if args.table1:
        extras, missing = published_row_diff(args.q, args.size, args.max)
        print(f"reference-row diff: extras={sorted(extras)} missing={sorted(missing)}")
    return 0


def cmd_search(args) -> int:
    result = search_cs(args.q, args.size, args.len, limit=args.limit,
                       work_bound=args.work_bound)
    for cs in result.sets:
        sys.stdout.write(setio.serialize_set(cs))
    if not result.complete:
        print(f"incomplete: stopped after {args.limit} sets", file=sys.stderr)
    return 0


def cmd_papr(args) -> int:
    cs = _load(args.file)
    rows = []
    for i, row in enumerate(cs.rows):
        result = papr(row, args.oversample)
        rows.append((i, result))
    if args.json:
        print(json.dumps([
            {"row": i, "papr": r.papr, "peak_t": r.peak_t, "oversample": r.oversample}
            for i, r in rows
        ]))
    else:
        for i, r in rows:
            print(f"row={i} papr={r.papr:.9f} peak_t={r.peak_t:.6f} "
                  f"oversample={r.oversample}")
    return 0


def cmd_seeds(args) -> int:
    qs = [args.q] if args.q else [2, 4]
    for q in qs:
        for record in load_seeds(q):
            print(f"q={record.q} len={record.length:3d} provenance={record.provenance}")
            for row in record.pair.rows:
                print(f"  {row.render()}")
    return 0


def _selftest_golden(data_dir) -> list[str]:
    failures = []
    gold = data_dir.joinpath("golden")
    expect = {
        "pair_q2_len10.txt": (2, 2, 10),
        "pair_q2_len4.txt": (2, 2, 4),
        "pair_q2_len8.txt": (2, 2, 8),
        "cs4_q2_len5.txt": (2, 4, 5),
        "cs4_q2_len14.txt": (2, 4, 14),
        "cs8_q2_len13.txt": (2, 8, 13),
    }
    loaded = {}
    for name, (q, size, length) in expect.items():
        cs, _ = setio.parse_set(gold.joinpath(name).read_text(encoding="utf-8"))
        if (cs.q, cs.size, cs.length) != (q, size, length):
            failures.append(f"{name}: wrong shape")
            continue
        try:
            loaded[name] = ensure_verified(cs)
        except InputError:
            failures.append(f"{name}: failed verification")
            continue
        print(f"ok: {name} verifies")
    if len(loaded) == len(expect):
        pair_a = loaded["pair_q2_len10.txt"]
        pair_b = loaded["pair_q2_len4.txt"]
        built = cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 1))
        if setio.serialize_set(built) != setio.serialize_set(loaded["cs4_q2_len14.txt"]):
            failures.append("size-4 golden reconstruction differs")
        else:
            print("ok: size-4 golden reconstruction is byte-identical")
        pair8 = loaded["pair_q2_len8.txt"]
        set4 = loaded["cs4_q2_len5.txt"]
        built8 = cs8_from_pair_and_set(pair8, set4, Coeffs8(0, 1, 1, 0, 0, 0))
        if setio.serialize_set(built8) != setio.serialize_set(loaded["cs8_q2_len13.txt"]):
            failures.append("size-8 golden reconstruction differs")
        else:
            print("ok: size-8 golden reconstruction is byte-identical")
    return failures


def cmd_selftest(args) -> int:
    from importlib import resources

    failures = []
    for q in (2, 4):
        try:
            records = load_seeds(q)
            print(f"ok: {len(records)} q={q} seeds verify")
        except SeedError as exc:
            failures.append(str(exc))
    data_dir = resources.files("cskit").joinpath("data")
    failures.extend(_selftest_golden(data_dir))
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("selftest: all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cskit",
        description="Construct, verify, search, and enumerate complementary sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide whether a set file is complementary")
    p.add_argument("file")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("theorem1", help="size-4 set from two pairs (lengths M and N)")
    p.add_argument("--pair-a", required=True)
    p.add_argument("--pair-b", required=True)
    p.add_argument("--coeffs", required=True, metavar="x0,x1,y0,y1")
    p.add_argument("--complex", action="store_true",
                   help="coefficients as literals 1,-1,i,-i instead of exponents")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_theorem1)

    p = sub.add_parser("theorem2", help="size-8 set from a pair and a size-4 set")
    p.add_argument("--pair", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--coeffs", required=True, metavar="x0,x1,x2,x3,y0,y1")
    p.add_argument("--complex", action="store_true")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_theorem2)

    p = sub.add_parser("stack", help="vertically concatenate verified sets")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("gcp", help="compose a pair of a given length from seeds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_gcp)

    p = sub.add_parser("enumerate", help="reachable set lengths with witnesses")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--size", type=int, choices=[4, 8], required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--table1", action="store_true",
                   help="diff against the embedded reference rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", help="exhaustive set search, canonicalized")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--work-bound", type=int, default=DEFAULT_WORK_BOUND)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("papr", help="per-row peak-to-average power ratio")
    p.add_argument("file")
    p.add_argument("--oversample", type=int, default=DEFAULT_OVERSAMPLE)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_papr)

    p = sub.add_parser("seeds", help="seed database views")
    seeds_sub = p.add_subparsers(dest="seeds_command", required=True)
    pl = seeds_sub.add_parser("list", help="list the packaged seed pairs")
    pl.add_argument("--q", type=int)
    pl.set_defaults(func=cmd_seeds)

    p = sub.add_parser("selftest", help="verify every packaged data file")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SeedError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    except WorkBoundExceeded as exc:
        print(f"error: work-bound: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
