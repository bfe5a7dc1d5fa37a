"""Spans around calls into cskit's layers, recorded from outside the package.

`Tracer.install` replaces each traced function at every cskit module that
binds it (so `cskit.construct.verify` and `cskit.search.verify` are both
caught) with a wrapper that appends a span: name, start, end, parent span,
the id of the CLI call it belongs to, and a layer-specific value taken
from the arguments or the result (a count, or for `verify` the identity of
the row stack). `uninstall` puts the originals back.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def _set_key(cs):
    return tuple(row.exponents for row in cs.rows)


# name -> (defining module, function, value from (args, result))
TRACED = {
    "cli.main": ("cli", "main", None),
    "io.parse_set": ("io", "parse_set", lambda a, r: len(a[0])),
    "io.serialize_set": ("io", "serialize_set", lambda a, r: len(r)),
    "algebra.aacf": ("algebra", "aacf", lambda a, r: len(a[0]) ** 2),
    "verify.verify": ("verify", "verify", lambda a, r: hash(_set_key(a[0]))),
    "verify.ensure_verified": ("verify", "ensure_verified", None),
    "construct.cs4_from_pairs": ("construct", "cs4_from_pairs", None),
    "construct.cs8_from_pair_and_set": ("construct", "cs8_from_pair_and_set", None),
    "construct.stack": ("construct", "stack", None),
    "construct.golay_double": ("construct", "golay_double", None),
    "construct.turyn_product": ("construct", "turyn_product", None),
    "seeds.gcp_for_length": ("seeds", "gcp_for_length", None),
    "reach.reachable_lengths": ("reach", "reachable_lengths", lambda a, r: len(r.entries)),
    "search.search_cs": ("search", "search_cs", lambda a, r: (r.nodes, len(r.sets))),
    "search.canonical_rows": ("search", "canonical_rows", None),
    "papr.papr": ("papr", "papr", lambda a, r: r.oversample * len(a[0])),
}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, call id, value]
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for name, (mod, attr, value) in TRACED.items():
            fn = getattr(sys.modules[f"{package.__name__}.{mod}"], attr)
            wrapper = self._wrap(name, fn, value)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _under(spans, i, name) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, slowdown: float = 1.0) -> dict[str, float]:
    """Per-layer counts and times of one pass; times are divided by `slowdown`."""
    own = [t / slowdown for t in self_times(spans)]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    count: Counter = Counter()
    distinct = set()
    nodes = sets = search_verifies = compose = 0
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        total[name] += (span[2] - span[1]) / slowdown
        self_s[name] += own[i]
        if name == "verify.verify":
            distinct.add(span[5])
            if _under(spans, i, "search.search_cs"):
                search_verifies += 1
        elif name == "search.search_cs":
            if span[5] is not None:
                nodes += span[5][0]
                sets += span[5][1]
        elif span[5] is not None:
            count[name] += span[5]
        if name in ("construct.golay_double", "construct.turyn_product") and _under(
                spans, i, "seeds.gcp_for_length"):
            compose += 1
    construct = [n for n in calls if n.startswith("construct.")]
    return {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "io.parse_set.self_s": self_s["io.parse_set"],
        "io.serialize_set.self_s": self_s["io.serialize_set"],
        "io.bytes": count["io.parse_set"] + count["io.serialize_set"],
        "algebra.aacf.calls": calls["algebra.aacf"],
        "algebra.aacf.self_s": self_s["algebra.aacf"],
        "algebra.aacf.products": count["algebra.aacf"],
        "verify.verify.calls": calls["verify.verify"],
        "verify.verify.self_s": self_s["verify.verify"],
        "verify.ensure_verified.calls": calls["verify.ensure_verified"],
        "verify.distinct_ratio": (len(distinct) / calls["verify.verify"]
                                  if calls["verify.verify"] else 0.0),
        "construct.calls": sum(calls[n] for n in construct),
        "construct.total_s": sum(total[n] for n in construct),
        "construct.self_s": sum(self_s[n] for n in construct),
        "seeds.gcp_for_length.calls": calls["seeds.gcp_for_length"],
        "seeds.gcp_for_length.total_s": total["seeds.gcp_for_length"],
        "seeds.compose_steps": compose,
        "reach.reachable_lengths.calls": calls["reach.reachable_lengths"],
        "reach.reachable_lengths.total_s": total["reach.reachable_lengths"],
        "reach.entries": count["reach.reachable_lengths"],
        "search.search_cs.calls": calls["search.search_cs"],
        "search.search_cs.self_s": self_s["search.search_cs"],
        "search.nodes": nodes,
        "search.nodes_per_s": (nodes / total["search.search_cs"]
                               if total["search.search_cs"] else 0.0),
        "search.sets": sets,
        "search.canonical_rows.calls": calls["search.canonical_rows"],
        "search.verify_calls": search_verifies,
        "papr.papr.calls": calls["papr.papr"],
        "papr.papr.self_s": self_s["papr.papr"],
        "papr.fft_points": count["papr.papr"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over passes; counts repeat, so they pass through."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
