"""Command-line interface.

Exit codes: 0 success / verified, 1 verification-negative (or no pair
available), 2 input error or an output the system refuses (an OSError, or
a character stdout cannot encode), 3 work bound exceeded, a request above
its cap or out of memory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from functools import partial

from . import io as setio
from .algebra import check_alphabet
from .construct import (
    Coeffs4,
    Coeffs8,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    stack,
)
from .errors import InputError, SeedError, WorkBoundExceeded
from .papr import DEFAULT_OVERSAMPLE, papr
from .reach import SEED_LENGTHS, published_row_diff, reachable_lengths
from .search import DEFAULT_WORK_BOUND, search_cs
from .seeds import gcp_for_length, load_seeds
from .verify import ComplementarySet, ensure_verified, verify

_COMPLEX_LITERALS = {"1": 0, "-1": 2, "i": 1, "-i": 3}  # quarters of a turn
ENUMERATE_MAX_CAP = 100_000  # about 1 s for --q 4 --size 8
GCP_LEN_CAP = 16_384  # about 1.3 s for --q 2
PAPR_GRID_CAP = 2**22  # FFT points per row, oversample * N
SEARCH_SHAPE_CAP = 2_000_000  # search --size * --len^2; a full path's slot records grow so
SEARCH_SLOT_CAP = 2**16  # search --size * --len; per-slot state is allocated before any node


def _parse_coeffs(raw: str, record: type, q: int, as_complex: bool) -> tuple:
    """`record` (Coeffs4 or Coeffs8) filled in from --coeffs."""
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != len(record._fields):
        raise InputError(
            f"expected {len(record._fields)} comma-separated coefficients, got {len(parts)}")
    if not as_complex:
        try:
            return record(*(int(p) for p in parts))
        except ValueError as exc:
            raise InputError(f"bad coefficient exponent: {exc}") from None
    out = []
    for p in parts:
        if p not in _COMPLEX_LITERALS:
            raise InputError(f"bad complex literal {p!r} (use 1, -1, i, -i)")
        quarter = _COMPLEX_LITERALS[p]
        if quarter * q % 4:
            raise InputError(f"{p} is not a root of unity for q={q}")
        out.append(quarter * q // 4)
    return record(*out)


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
    cs = setio.read_set_file(args.file)[0]
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


def cmd_concatenate(args) -> int:
    """theorem1 and theorem2: the concatenation rule, as its parser row sets it up."""
    first, second = [setio.read_set_file(getattr(args, dest))[0] for dest in args.inputs]
    setio.check_caps(f"{args.command} output", args.rows, first.length + second.length)
    coeffs = _parse_coeffs(args.coeffs, args.record, first.q, args.complex)
    _emit_set(args.build(first, second, coeffs), args.out, args.pretty)
    return 0


def cmd_stack(args) -> int:
    sets = [setio.read_set_file(path)[0] for path in args.files]
    if len({cs.length for cs in sets}) == 1:  # else stack refuses the lengths (exit 2)
        setio.check_caps("stack output", sum(cs.size for cs in sets), sets[0].length)
    _emit_set(stack(sets), args.out, args.pretty)
    return 0


def cmd_gcp(args) -> int:
    if args.len > GCP_LEN_CAP:
        raise WorkBoundExceeded(f"gcp --len {args.len} is above the cap of {GCP_LEN_CAP}")
    result = gcp_for_length(args.q, args.len)
    if not result.available:
        print(f"no q={args.q} pair of length {args.len}: {result.reason}")
        return 1
    if args.out:  # written first, so a failed write prints no derivation
        setio.write_set_file(args.out, result.pair)
    print(f"derivation: {result.chain}")
    if not args.out:
        _emit_set(result.pair, None, args.pretty)
    return 0


def cmd_enumerate(args) -> int:
    if args.max > ENUMERATE_MAX_CAP:
        raise WorkBoundExceeded(
            f"enumerate --max {args.max} is above the cap of {ENUMERATE_MAX_CAP}")
    reach = reachable_lengths(args.q, args.size, args.max)
    if args.json:
        # json.dumps of the whole document, written a slice of records at a time
        head = json.dumps({"q": args.q, "size": args.size, "max": args.max, "lengths": []})
        sys.stdout.write(head[:-2])
        for i in range(0, len(reach.entries), 1024):
            records = [{"length": e.length, "witness": e.witness._asdict(),
                        "constructive": e.constructive} for e in reach.entries[i:i + 1024]]
            sys.stdout.write((", " if i else "") + json.dumps(records)[1:-1])
        sys.stdout.write("]}\n")
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
    check_alphabet(args.q)  # exit 2 for any shape, before the caps and the search
    for cap, value, name in ((SEARCH_SHAPE_CAP, args.size * args.len**2, "size * len^2"),
                             (SEARCH_SLOT_CAP, args.size * args.len, "size * len")):
        if value > cap:
            raise WorkBoundExceeded(f"search --size {args.size} --len {args.len} is above "
                                    f"the cap of {cap} for {name}")
    result = search_cs(args.q, args.size, args.len, limit=args.limit,
                       work_bound=args.work_bound)
    for cs in result.sets:
        sys.stdout.write(setio.serialize_set(cs))
    if not result.complete:
        print(f"incomplete: stopped after {args.limit} sets", file=sys.stderr)
    return 0


def cmd_papr(args) -> int:
    cs = setio.read_set_file(args.file)[0]
    if args.oversample * cs.length > PAPR_GRID_CAP:
        raise WorkBoundExceeded(
            f"papr --oversample {args.oversample} on length {cs.length} is above "
            f"the cap of {PAPR_GRID_CAP} grid points")
    results = [papr(row, args.oversample) for row in cs.rows]
    if args.json:
        print(json.dumps([{"row": i, **r._asdict()} for i, r in enumerate(results)]))
    else:
        for i, r in enumerate(results):
            print(f"row={i} papr={r.papr:.9f} peak_t={r.peak_t:.6f} "
                  f"oversample={r.oversample}")
    return 0


def cmd_seeds(args) -> int:
    qs = sorted(SEED_LENGTHS) if args.q is None else [args.q]
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
        try:
            cs, _ = setio.read_set_file(gold.joinpath(name))
        except (InputError, WorkBoundExceeded) as exc:
            failures.append(f"{name}: {exc}")
            continue
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
        rebuilds = (
            ("size-4", cs4_from_pairs, "pair_q2_len10.txt", "pair_q2_len4.txt",
             Coeffs4(0, 0, 0, 1), "cs4_q2_len14.txt"),
            ("size-8", cs8_from_pair_and_set, "pair_q2_len8.txt", "cs4_q2_len5.txt",
             Coeffs8(0, 1, 1, 0, 0, 0), "cs8_q2_len13.txt"),
        )
        for what, build, first, second, coeffs, name in rebuilds:
            built = build(loaded[first], loaded[second], coeffs)
            if setio.serialize_set(built) != setio.serialize_set(loaded[name]):
                failures.append(f"{what} golden reconstruction differs")
            else:
                print(f"ok: {what} golden reconstruction is byte-identical")
    return failures


def cmd_selftest(args) -> int:
    from importlib import resources

    failures = []
    for q in sorted(SEED_LENGTHS):
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


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line, `error: usage: ...`, and exit 2."""

    def error(self, message):
        self.exit(2, f"error: usage: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    # By default argparse reads the terminal size in every help formatter it
    # makes (one per argument) and formats a usage line to find each
    # subparsers' prog. Here the width HelpFormatter would read is read once
    # per call and given to every parser, and the progs are passed.
    make_parser = partial(_Parser, formatter_class=partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2))
    parser = make_parser(
        prog="cskit",
        description="Construct, verify, search, and enumerate complementary sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                parser_class=make_parser)

    p = sub.add_parser("verify", help="decide whether a set file is complementary")
    p.add_argument("file")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    # the two concatenation rules: their input files, the record --coeffs fills,
    # the constructor and the output's row count
    for name, summary, inputs, record, build, rows in (
            ("theorem1", "size-4 set from two pairs (lengths M and N)", ("--pair-a", "--pair-b"),
             Coeffs4, cs4_from_pairs, 4),
            ("theorem2", "size-8 set from a pair and a size-4 set", ("--pair", "--set"),
             Coeffs8, cs8_from_pair_and_set, 8)):
        p = sub.add_parser(name, help=summary)
        dests = [p.add_argument(option, required=True).dest for option in inputs]
        p.add_argument("--coeffs", required=True, metavar=",".join(record._fields),
                       help="comma-separated; give a list that starts with - as --coeffs=<list>")
        p.add_argument("--complex", action="store_true",
                       help="coefficients as literals 1,-1,i,-i instead of exponents")
        p.add_argument("--out")
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(func=cmd_concatenate, inputs=dests, record=record, build=build,
                       rows=rows)

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
    seeds_sub = p.add_subparsers(dest="seeds_command", required=True, prog=p.prog,
                                 parser_class=make_parser)
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
    except (InputError, SeedError, OSError, UnicodeEncodeError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    except WorkBoundExceeded as exc:
        print(f"error: work-bound: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: work-bound: {args.command}: out of memory", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
