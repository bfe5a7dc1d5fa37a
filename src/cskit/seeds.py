"""Verified-on-load database of primitive Golay pairs.

Seeds ship as text files under cskit/data/seeds/, one per length in
`reach.SEED_LENGTHS` (binary 1, 2, 10, 26; quaternary 1, 2, 3, 5, 11,
13). Every record must pass the pair verifier at load time; a failing or
missing record aborts with an error naming the seed, so no unverified
data can enter a construction. A composite length is realized on demand
by replaying the tree `reach.composition` plans for it: its seed leaves
come from this database, its doubling and Turyn steps from `construct`.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import NamedTuple, Optional

from . import io as setio
from .construct import golay_double, turyn_product
from .errors import InputError, SeedError, WorkBoundExceeded
from .reach import (SEED_LENGTHS, Composition, composition, in_gcp_pattern, pattern_form,
                    require_pair_data)
from .verify import ComplementarySet, ensure_verified

PROVENANCES = ("paper-example", "derived-search", "literature")


class SeedRecord(NamedTuple):
    q: int
    length: int
    pair: ComplementarySet  # verified
    provenance: str
    note: str


def _default_seed_dir():
    return resources.files("cskit").joinpath("data").joinpath("seeds")


def _parse_seed(path, q: int, length: int) -> SeedRecord:
    """The verified record of the seed file `path`, named for a q-ary pair of `length`."""
    try:
        cs, note = setio.read_set_file(path)
    except (InputError, WorkBoundExceeded) as exc:
        raise SeedError(f"seed {path.name}: {setio.without_path(exc, path)}") from None
    if cs.size != 2:
        raise SeedError(f"seed {path.name}: expected 2 rows, got {cs.size}")
    if not note:
        raise SeedError(f"seed {path.name}: missing provenance note")
    first, _, rest = note.partition("\n")
    if not first.startswith("provenance="):
        raise SeedError(f"seed {path.name}: first note line must be 'provenance=<value>'")
    provenance = first[len("provenance="):].strip()
    if provenance not in PROVENANCES:
        raise SeedError(f"seed {path.name}: unknown provenance {provenance!r}")
    try:
        pair = ensure_verified(cs)
    except InputError as exc:
        raise SeedError(f"seed {path.name} failed verification: {exc}") from None
    if cs.q != q:
        raise SeedError(f"seed {path.name}: header q={cs.q} does not match filename")
    if cs.length != length:
        raise SeedError(f"seed {path.name}: length {cs.length} does not match filename")
    return SeedRecord(
        q=cs.q,
        length=cs.length,
        pair=pair,
        provenance=provenance,
        note=rest,
    )


@lru_cache(maxsize=None)
def load_seeds(q: int) -> tuple[SeedRecord, ...]:
    """The seed records of the lengths SEED_LENGTHS names, verified and sorted by length."""
    require_pair_data(q, "seeds")
    directory = _default_seed_dir()
    files = {length: directory.joinpath(f"q{q}_len{length}.txt")
             for length in sorted(SEED_LENGTHS[q])}
    missing = [length for length, path in files.items() if not path.is_file()]
    if missing:
        raise SeedError(f"missing q={q} seed files for lengths {missing}")
    return tuple(_parse_seed(path, q, length) for length, path in files.items())


def seed_pair(q: int, length: int) -> SeedRecord:
    for record in load_seeds(q):
        if record.length == length:
            return record
    raise SeedError(f"no q={q} seed of length {length}")


# ---------------------------------------------------------------------------


class GcpLookup(NamedTuple):
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


def _build(step: Composition) -> ComplementarySet:
    """Replay a composition: seeds from the database, steps through `construct`."""
    if step.op == "seed":
        return seed_pair(step.q, step.length).pair
    parts = [_build(part) for part in step.parts]
    return golay_double(*parts) if step.op == "double" else turyn_product(*parts)


@lru_cache(maxsize=None)
def gcp_for_length(q: int, length: int) -> GcpLookup:
    """A verified pair of the requested length composed from seeds.

    Unavailability is a value, not an error: the returned record carries
    the reason (length outside the existence pattern, or inside it but
    with no composition path from the shipped seeds).
    """
    require_pair_data(q, "seeds")
    if length < 1:
        raise InputError(f"length must be >= 1, got {length}")
    plan = composition(q, length)
    if plan is not None:
        return GcpLookup(q, length, pair=_build(plan), chain=plan.describe())
    fact = in_gcp_pattern(q, length)
    if fact is None:
        return GcpLookup(q, length, reason=f"{length} is not of the form {pattern_form(q)}")
    return GcpLookup(q, length, reason=(
        f"length reachable in principle ({fact.describe()} satisfies the existence pattern), "
        "but no construction path is available from the shipped seeds"))
