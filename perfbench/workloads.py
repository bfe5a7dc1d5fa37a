"""Call lists for the three benchmark workloads.

A workload is a fixed template of slots. Each slot is one small user
pipeline (for example `gcp`, `gcp`, `theorem1`, `verify`, `papr`) whose
calls read only files written earlier in the same pipeline. The workload
seed picks one option per slot (pair split or which pair comes first,
coefficients, search limits) and the order of the slots; it never changes
which slots exist, so every seed issues the same number of calls of each
kind and nearly the same work.

Every call carries a key that names what its output depends on. The
outputs recorded for every key any seed can produce live in
`expected/<workload>.json.gz` (see `record.py`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("long-construct", "short-catalog", "search")


@dataclass(frozen=True)
class Call:
    """One `cskit.cli.main` invocation and what checking it needs."""

    argv: tuple[str, ...]
    key: Optional[str]        # expected-output key; None for the deep-search probe
    check: str = "exact"      # "exact", "float" (tolerant numbers) or "deep"
    exit: int = 0             # exit code the call is meant to end with
    writes: Optional[str] = None   # set file the call writes (--out)
    sets_on_stdout: bool = False   # stdout carries set files (search)
    decides: Optional[str] = None  # input file whose complementarity the exit code states

    @property
    def kind(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# Lengths, from the existence pattern of the paper, computed here so that the
# call lists do not depend on the code under test.

QUATERNARY_KERNELS = (1, 2, 3, 5, 11, 13)


def binary_constructive(length: int) -> bool:
    """2^a * 5^b * 13^c with a >= b + c: a product of 2s, 10s and 26s."""
    if length < 1:
        return False
    counts = {}
    for p in (2, 5, 13):
        counts[p] = 0
        while length % p == 0:
            length //= p
            counts[p] += 1
    return length == 1 and counts[2] >= counts[5] + counts[13]


def constructive(q: int, length: int) -> bool:
    """Lengths at which the shipped seeds compose a q-ary Golay pair."""
    if q == 2:
        return binary_constructive(length)
    return any(length % k == 0 and binary_constructive(length // k)
               for k in QUATERNARY_KERNELS)


def splits(q: int, total: int) -> list[tuple[int, int]]:
    """The three most balanced pair-length splits M + N = total, M <= N."""
    out = [(m, total - m) for m in range(total // 2, 0, -1)
           if constructive(q, m) and constructive(q, total - m)]
    return out[:3]


def _orientations(split: tuple[int, int]) -> list[tuple[int, int]]:
    return [split, split[::-1]] if split[0] != split[1] else [split]


# Coefficients as (text, --complex). Each entry is admissible for its q.
COEFFS4 = {
    2: (("0,0,0,1", False), ("1,-1,1,1", True), ("1,0,0,0", False), ("1,1,-1,1", True)),
    4: (("0,0,0,2", False), ("1,i,1,-i", True), ("0,2,0,0", False), ("i,1,1,i", True)),
}
COEFFS8 = {2: ("0,1,1,0,0,0", "0,0,1,1,0,0"), 4: ("0,0,2,2,0,0", "0,1,2,3,0,0")}


# ---------------------------------------------------------------------------
# Pipeline builders. `tag` makes file names unique within a pass; keys never
# contain it, since outputs depend only on the pipeline's parameters.


class _Pipe:
    def __init__(self, tmp: str, tag: str):
        self.tmp, self.tag, self.calls = tmp, tag, []

    def path(self, role: str) -> str:
        return f"{self.tmp}/{self.tag}-{role}.txt"

    def gcp(self, q: int, length: int, role: str) -> tuple[str, str]:
        out = self.path(role)
        key = f"gcp({q},{length})"
        self.calls.append(Call(("gcp", "--q", str(q), "--len", str(length), "--out", out),
                               key, writes=out))
        return out, key

    def theorem1(self, a, b, coeff, role: str) -> tuple[str, str]:
        text, cplx = coeff
        out = self.path(role)
        key = f"t1({a[1]},{b[1]},{text}{',c' if cplx else ''})"
        argv = ["theorem1", "--pair-a", a[0], "--pair-b", b[0], "--coeffs", text, "--out", out]
        if cplx:
            argv.append("--complex")
        self.calls.append(Call(tuple(argv), key, writes=out))
        return out, key

    def theorem2(self, pair, set4, text: str, role: str) -> tuple[str, str]:
        out = self.path(role)
        key = f"t2({pair[1]},{set4[1]},{text})"
        argv = ("theorem2", "--pair", pair[0], "--set", set4[0], "--coeffs", text, "--out", out)
        self.calls.append(Call(argv, key, writes=out))
        return out, key

    def stack(self, sets, role: str) -> tuple[str, str]:
        out = self.path(role)
        key = f"stack({','.join(s[1] for s in sets)})"
        argv = ("stack", *(s[0] for s in sets), "--out", out)
        self.calls.append(Call(argv, key, writes=out))
        return out, key

    def verify(self, src, json_report: bool) -> None:
        argv = ["verify", src[0]] + (["--report", "json"] if json_report else [])
        key = f"verify{'-json' if json_report else ''}({src[1]})"
        self.calls.append(Call(tuple(argv), key, check="float", decides=src[0]))

    def papr(self, src, as_json: bool) -> None:
        argv = ["papr", src[0]] + (["--json"] if as_json else [])
        key = f"papr{'-json' if as_json else ''}({src[1]})"
        self.calls.append(Call(tuple(argv), key, check="float"))


def _cs4_pipe(p: _Pipe, q, split, coeff, verify_json, papr_json):
    a = p.gcp(q, split[0], "a")
    b = p.gcp(q, split[1], "b")
    s = p.theorem1(a, b, coeff, "s4")
    p.verify(s, verify_json)
    p.papr(s, papr_json)


def _long_cs4_pipe(p: _Pipe, q, split, coeff):
    a = p.gcp(q, split[0], "a")
    b = p.gcp(q, split[1], "b")
    s = p.theorem1(a, b, coeff, "s4")
    p.verify(s, False)
    p.verify(s, True)


def _cs8_pipe(p: _Pipe, q, m, split, coeff, text8):
    pair = p.gcp(q, m, "m")
    a = p.gcp(q, split[0], "a")
    b = p.gcp(q, split[1], "b")
    s4 = p.theorem1(a, b, coeff, "s4")
    s8 = p.theorem2(pair, s4, text8, "s8")
    p.verify(s8, False)
    p.verify(s8, True)
    p.papr(s8, True)


def _stack_pipe(p: _Pipe, q, split, coeffs):
    a = p.gcp(q, split[0], "a")
    b = p.gcp(q, split[1], "b")
    s1 = p.theorem1(a, b, coeffs[0], "s1")
    s2 = p.theorem1(a, b, coeffs[1], "s2")
    st = p.stack([s1, s2], "st")
    p.verify(st, False)
    p.verify(st, True)


def _pair_pipe(p: _Pipe, q, length, papr_json):
    pair = p.gcp(q, length, "p")
    p.verify(pair, False)
    p.papr(pair, papr_json)


def _search_pipe(p: _Pipe, q, size, length, limit=None, bound=None, deep=False):
    argv = ["search", "--q", str(q), "--size", str(size), "--len", str(length)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    if bound is not None:
        argv += ["--work-bound", str(bound)]
    key = None if deep else " ".join(argv)
    p.calls.append(Call(tuple(argv), key, check="deep" if deep else "exact",
                        exit=3 if bound is not None else 0, sets_on_stdout=True))


def _plain(p: _Pipe, argv, key: str, check="exact", exit=0, decides=None):
    p.calls.append(Call(tuple(argv), key, check=check, exit=exit, decides=decides))


# ---------------------------------------------------------------------------
# Fixed input files written at set-up: a non-complementary set (verify exits
# 1) and malformed files (exit 2). The seed picks one of each.

NON_CS = (
    "q=2 rows=2 len=10\n0000000000\n0000000000\n",
    "q=2 rows=4 len=7\n0001101\n0110100\n0000000\n0101010\n",
    "q=4 rows=2 len=8\n01230123\n00112233\n",
    "q=4 rows=4 len=5\n00000\n01230\n02020\n03210\n",
)
MALFORMED = (
    "q=2 rows=2\n0101\n0011\n",
    "q=2 rows=2 len=4\n0101\n00x1\n",
    "q=4 rows=2 len=4\n0123\n012\n",
    "q=2 rows=3 len=3\n010\n001\n",
    "",
)


# ---------------------------------------------------------------------------
# Slot templates. Each slot is (name, options, builder(pipe, option)).

Slot = tuple[str, list, Callable]


def _enumerate(p: _Pipe, q, size, max_len, flags=()):
    argv = ["enumerate", "--q", str(q), "--size", str(size), "--max", str(max_len), *flags]
    _plain(p, argv, " ".join(argv))


# A few tiny calls give every layer some work in every workload, so that each
# per-layer time is measured everywhere; they cost well under 1% of a pass.
PROBES: list[Slot] = [
    ("probe-search", [1, 2], lambda p, o: _search_pipe(p, 2, 2, 8, limit=o)),
    ("probe-reach", [30, 32, 34], lambda p, o: _enumerate(p, 2, 4, o)),
]


def _long_slots() -> list[Slot]:
    # Pair lengths are fixed per slot so that every seed does the same work;
    # the seed picks which pair comes first, the coefficients and the order.
    # Cheap `papr` calls are few here, which keeps the median call inside the
    # dense band of verify and theorem1 calls rather than in a gap below it.
    slots: list[Slot] = []
    for q, cs4, cs8, stack, pair in ((2, ((128, 208), (260, 260)), (104, (80, 128)),
                                      (104, 160), 1024),
                                     (4, ((160, 176), (220, 300)), (96, (88, 120)),
                                      (104, 160), 1040)):
        c4 = COEFFS4[q]
        for split in cs4:
            opts = list(itertools.product(_orientations(split), c4))
            slots.append((f"cs4-{q}-{sum(split)}", opts,
                          lambda p, o, q=q: _long_cs4_pipe(p, q, *o)))
        opts = list(itertools.product(_orientations(cs8[1]), c4[:2], COEFFS8[q]))
        slots.append((f"cs8-{q}", opts, lambda p, o, q=q, m=cs8[0]: _cs8_pipe(p, q, m, *o)))
        opts = list(itertools.product(_orientations(stack), itertools.permutations(c4[:3], 2)))
        slots.append((f"stack-{q}", opts, lambda p, o, q=q: _stack_pipe(p, q, *o)))
        slots.append((f"pair-{q}", [False, True],
                      lambda p, o, q=q, n=pair: _pair_pipe(p, q, n, o)))
    return slots + PROBES


def _short_slots() -> list[Slot]:
    slots: list[Slot] = []
    i = 0
    for q in (2, 4):
        for total in range(2, 65):
            sp = splits(q, total)
            if not sp:
                continue
            opts = list(itertools.product(sp, COEFFS4[q]))
            slots.append((f"cs4-{q}-{total}", opts,
                          lambda p, o, q=q, i=i: _cs4_pipe(p, q, o[0], o[1], i % 2 == 1,
                                                           i % 3 == 0)))
            i += 1
    for q, size, flags in ((2, 4, ("--json",)), (2, 8, ("--table1",)),
                           (4, 4, ("--json", "--table1")), (4, 8, ("--json",))):
        slots.append((f"enumerate-{q}-{size}", [2400, 2500, 2600],
                      lambda p, o, q=q, size=size, flags=flags: _enumerate(p, q, size, o, flags)))
    slots.append(("seeds", [None, 2, 4], lambda p, o: _plain(
        p, ["seeds", "list"] + ([] if o is None else ["--q", str(o)]),
        f"seeds list {o}")))
    slots.append(("selftest", [None], lambda p, o: _plain(p, ["selftest"], "selftest")))
    slots.append(("non-cs", list(range(len(NON_CS))), lambda p, o: _plain(
        p, ["verify", f"{p.tmp}/non-cs-{o}.txt"], f"verify(non-cs-{o})",
        check="float", exit=1, decides=f"{p.tmp}/non-cs-{o}.txt")))
    slots.append(("malformed", list(range(len(MALFORMED))), lambda p, o: _plain(
        p, ["verify", f"{p.tmp}/malformed-{o}.txt"], f"verify(malformed-{o})", exit=2)))
    return slots + PROBES[:1]


def _search_slots() -> list[Slot]:
    slots: list[Slot] = []
    sweep = ([(2, 2, n) for n in range(1, 17)] + [(4, 2, n) for n in range(1, 9)]
             + [(2, 4, n) for n in range(2, 6)] + [(4, 4, n) for n in range(2, 4)]
             + [(3, 3, n) for n in range(2, 6)] + [(6, 2, n) for n in range(2, 6)])
    # Shapes with no solution that pruning refutes in a few nodes: the
    # short queries of a survey. They also put the median call among many
    # calls of near-equal cost, which keeps op_p50_ms steady.
    sweep += ([(2, 3, n) for n in range(2, 7)] + [(4, 3, n) for n in range(2, 5)]
              + [(3, 2, n) for n in range(2, 8)] + [(1, 1, 2), (2, 1, 2)])
    for shape in sweep:
        slots.append((f"search-{shape}", [shape], lambda p, o: _search_pipe(p, *o)))
    for name, q, size, lengths, limits in (("limit-a", 2, 2, (8, 10), (1, 2, 3)),
                                           ("limit-b", 4, 2, (4, 6), (1, 2, 3)),
                                           ("limit-c", 2, 4, (3, 4), (1, 2)),
                                           ("limit-d", 3, 3, (3, 5), (1, 2))):
        slots.append((name, list(itertools.product(lengths, limits)),
                      lambda p, o, q=q, size=size: _search_pipe(p, q, size, o[0], limit=o[1])))
    for name, q, lengths in (("bound-a", 2, (18, 20)), ("bound-b", 4, (10, 11))):
        slots.append((name, list(itertools.product(lengths, (24000, 25000, 26000))),
                      lambda p, o, q=q: _search_pipe(p, q, 2, o[0], bound=o[1])))
    # The deep-search probe: its recursion depth grows with the set size.
    slots.append(("deep", [None], lambda p, o: _search_pipe(p, 2, 1100, 2, limit=1, deep=True)))
    slots.append(("probe-pair", [(2, 20), (2, 40)], lambda p, o: _pair_pipe(p, *o, False)))
    return slots + PROBES[1:]


SLOTS = {"long-construct": _long_slots, "short-catalog": _short_slots, "search": _search_slots}


def slots(workload: str) -> list[Slot]:
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    return SLOTS[workload]()


def pipeline(slot: Slot, option, index: int, tmp: str) -> list[Call]:
    """The calls of one slot with one option; `index` keeps file names unique."""
    pipe = _Pipe(tmp, f"s{index}")
    slot[2](pipe, option)
    return pipe.calls


def call_list(workload: str, seed: int, tmp: str) -> list[Call]:
    """The workload's calls for one seed: one option per slot, slots shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    template = slots(workload)
    chosen = [pipeline(slot, rng.choice(slot[1]), i, tmp) for i, slot in enumerate(template)]
    rng.shuffle(chosen)
    return [call for pipe in chosen for call in pipe]


def write_inputs(tmp: str) -> None:
    """The fixed input files some calls read."""
    for i, text in enumerate(NON_CS):
        with open(f"{tmp}/non-cs-{i}.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
    for i, text in enumerate(MALFORMED):
        with open(f"{tmp}/malformed-{i}.txt", "w", encoding="utf-8") as fh:
            fh.write(text)
