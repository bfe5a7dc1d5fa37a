"""Verified-on-load database of primitive Golay pairs.

Seeds ship as text files under cskit/data/seeds/ (binary lengths 1, 2,
10, 26; quaternary lengths 1, 2, 3, 5, 11, 13). Every record must pass
the pair verifier at load time; a failing or missing record aborts with
an error naming the seed, so no unverified data can enter a
construction. Composite lengths are realized on demand by doubling and
Turyn products along a factorization plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from . import io as setio
from .construct import golay_double, turyn_product
from .errors import InputError, SeedError
from .reach import (
    QUATERNARY_SEED_KERNELS,
    binary_composition_plan,
    in_gcp_pattern,
    quaternary_composition_plan,
)
from .verify import ComplementarySet, ensure_verified

PROVENANCES = ("paper-example", "derived-search", "literature")

REQUIRED_LENGTHS = {2: (1, 2, 10, 26), 4: tuple(sorted(QUATERNARY_SEED_KERNELS))}

_FILENAME = re.compile(r"^q(\d+)_len(\d+)\.txt$")


@dataclass(frozen=True)
class SeedRecord:
    q: int
    length: int
    pair: ComplementarySet  # verified
    provenance: str
    note: str


def _default_seed_dir():
    return resources.files("cskit").joinpath("data").joinpath("seeds")


def _parse_seed(name: str, data: bytes) -> SeedRecord:
    try:
        cs, note = setio.parse_set(setio.decode_text(data))
    except InputError as exc:
        raise SeedError(f"seed {name}: {exc}") from None
    if cs.size != 2:
        raise SeedError(f"seed {name}: expected 2 rows, got {cs.size}")
    if not note:
        raise SeedError(f"seed {name}: missing provenance note")
    first, _, rest = note.partition("\n")
    if not first.startswith("provenance="):
        raise SeedError(f"seed {name}: first note line must be 'provenance=<value>'")
    provenance = first[len("provenance="):].strip()
    if provenance not in PROVENANCES:
        raise SeedError(f"seed {name}: unknown provenance {provenance!r}")
    try:
        pair = ensure_verified(cs)
    except InputError as exc:
        raise SeedError(f"seed {name} failed verification: {exc}") from None
    return SeedRecord(
        q=cs.q,
        length=cs.length,
        pair=pair,
        provenance=provenance,
        note=rest,
    )


def _load_dir(q: int, directory) -> tuple[SeedRecord, ...]:
    records = []
    names = sorted(entry.name for entry in directory.iterdir())
    for name in names:
        m = _FILENAME.match(name)
        if not m or int(m.group(1)) != q:
            continue
        record = _parse_seed(name, directory.joinpath(name).read_bytes())
        if record.q != q:
            raise SeedError(f"seed {name}: header q={record.q} does not match filename")
        if record.length != int(m.group(2)):
            raise SeedError(f"seed {name}: length {record.length} does not match filename")
        records.append(record)
    records.sort(key=lambda r: r.length)
    have = {r.length for r in records}
    missing = [ln for ln in REQUIRED_LENGTHS[q] if ln not in have]
    if missing:
        raise SeedError(f"missing q={q} seed files for lengths {missing}")
    return tuple(records)


def load_seeds(q: int, directory: Union[str, Path, None] = None) -> tuple[SeedRecord, ...]:
    """All seed records for one alphabet, verified and sorted by length."""
    if q not in REQUIRED_LENGTHS:
        raise InputError(f"no seeds for q={q} (supported: 2, 4)")
    if directory is None:
        return _load_default(q)
    return _load_dir(q, Path(directory))


@lru_cache(maxsize=None)
def _load_default(q: int) -> tuple[SeedRecord, ...]:
    return _load_dir(q, _default_seed_dir())


def seed_pair(q: int, length: int) -> SeedRecord:
    for record in load_seeds(q):
        if record.length == length:
            return record
    raise SeedError(f"no q={q} seed of length {length}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GcpLookup:
    """Result of a pair request: a verified pair with its derivation chain,
    or an explicit reason why none is available."""

    q: int
    length: int
    pair: Optional[ComplementarySet] = None
    chain: Optional[str] = None
    reason: Optional[str] = None

    @property
    def available(self) -> bool:
        return self.pair is not None


def _build_binary(plan: tuple[int, int, int]) -> tuple[ComplementarySet, str]:
    doublings, tens, twentysixes = plan
    pair = None
    chain = ""
    for count, ln in ((twentysixes, 26), (tens, 10)):
        for _ in range(count):
            record = seed_pair(2, ln)
            if pair is None:
                pair, chain = record.pair, f"seed(q=2, len={ln})"
            else:
                pair = turyn_product(record.pair, pair)
                chain = f"turyn(seed(q=2, len={ln}), {chain})"
    if pair is None:
        if doublings == 0:
            return seed_pair(2, 1).pair, "seed(q=2, len=1)"
        pair, chain = seed_pair(2, 2).pair, "seed(q=2, len=2)"
        doublings -= 1
    for _ in range(doublings):
        pair = golay_double(pair)
        chain = f"double({chain})"
    return pair, chain


@lru_cache(maxsize=None)
def gcp_for_length(q: int, length: int) -> GcpLookup:
    """A verified pair of the requested length composed from seeds.

    Unavailability is a value, not an error: the returned record carries
    the reason (length outside the existence pattern, or inside it but
    with no composition path from the shipped seeds).
    """
    if q not in REQUIRED_LENGTHS:
        raise InputError(f"no seeds for q={q} (supported: 2, 4)")
    if length < 1:
        raise InputError(f"length must be >= 1, got {length}")
    if q == 2:
        plan = binary_composition_plan(length)
        if plan is None:
            return GcpLookup(
                q, length, reason=f"{length} is not of the form 2^a * 10^b * 26^c"
            )
        pair, chain = _build_binary(plan)
        return GcpLookup(q, length, pair=pair, chain=chain)

    qplan = quaternary_composition_plan(length)
    if qplan is not None:
        kernel, bplan = qplan
        record = seed_pair(4, kernel)
        if length == kernel:
            return GcpLookup(q, length, pair=record.pair, chain=f"seed(q=4, len={kernel})")
        bpair, bchain = _build_binary(bplan)
        pair = turyn_product(bpair, record.pair)
        return GcpLookup(
            q, length, pair=pair, chain=f"turyn({bchain}, seed(q=4, len={kernel}))"
        )
    fact = in_gcp_pattern(4, length)
    if fact is not None:
        return GcpLookup(
            q,
            length,
            reason=(
                f"length reachable in principle ({fact.describe()} satisfies the "
                "existence pattern), but no construction path is available from "
                "the shipped seeds"
            ),
        )
    return GcpLookup(
        q,
        length,
        reason=(
            f"{length} is not of the form 2^(a+u) * 3^b * 5^c * 11^e * 13^z "
            "with b+c+e+z <= a+2u+1 and u <= c+z"
        ),
    )
