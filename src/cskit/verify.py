"""Decide whether a stack of sequences is a complementary set.

A stack of P length-N rows is complementary when the sum of the rows'
aperiodic autocorrelations is exactly zero at every shift 0 < tau < N
(and P*N at tau = 0). `verify` and `ensure_verified_all` (which correlates
each distinct row of its batch once) share one integer test on the canonical
coordinates of the summed profile; no epsilon is involved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .algebra import CorrelationProfile, Sequence, aacf, complex_parts
from .errors import InputError


# not a NamedTuple: it validates in __post_init__, and len() would count fields
@dataclass(frozen=True)
class ComplementarySet:
    """A stack of equal-length rows over one alphabet.

    Only `ensure_verified_all` sets `verified`; freshly built or parsed
    stacks carry verified=False. The constructors accept either kind and
    verify the inputs without the flag, so the flag saves work but never
    lets an unchecked stack through. It is a cache bit: a verified copy
    equals, and hashes like, the stack it was made from.
    """

    rows: tuple[Sequence, ...]
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise InputError("a complementary set needs at least one row")
        first = self.rows[0]
        for row in self.rows[1:]:
            if row.q != first.q:
                raise InputError("all rows must share one alphabet")
            if len(row) != len(first):
                raise InputError("all rows must share one length")

    @property
    def q(self) -> int:
        return self.rows[0].q

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def length(self) -> int:
        return len(self.rows[0])


# every field is required: a NamedTuple default would be one dict shared by all reports
class VerificationReport(NamedTuple):
    is_cs: bool
    sum_profile: CorrelationProfile
    first_defect_shift: Optional[int]
    defect_magnitudes: dict[int, float]


def _summed_coords(candidate: ComplementarySet, profiles: dict):
    """The summed profile's coordinates, via the memo row -> coordinates."""
    total = 0
    for row, k in Counter(candidate.rows).items():
        coords = profiles.get(row)
        if coords is None:
            coords = profiles[row] = aacf(row).coords
        total = total + (coords * k if k > 1 else coords)
    return total


def _is_cs(total, size: int) -> bool:
    """The decision: the summed profile is 0 at every shift tau > 0 (those
    below 0 are their conjugates) and P*N times 1 at tau = 0."""
    n = (len(total) + 1) // 2
    peak = total[n - 1].tolist()
    return peak[0] == size * n and not any(peak[1:]) and not total[n:].any()


def _report(candidate: ComplementarySet, coords) -> VerificationReport:
    """The report on a stack from its summed profile's coordinates; the
    magnitudes of the shifts tau > 0 whose summed value is not exactly zero
    are read off the coordinate array (libm's hypot, as abs of a complex)."""
    n = candidate.length
    shifts = np.flatnonzero(coords[n:].any(axis=1))  # tau - 1 for each defect
    defects = dict(zip((shifts + 1).tolist(),
                       np.hypot(*complex_parts(candidate.q, coords[n:][shifts]).T).tolist()))
    return VerificationReport(
        is_cs=_is_cs(coords, candidate.size),
        sum_profile=CorrelationProfile(candidate.q, n, coords),
        first_defect_shift=next(iter(defects), None),
        defect_magnitudes=defects,
    )


def verify(candidate: ComplementarySet) -> VerificationReport:
    """Exact complementarity decision with the full defect profile."""
    return _report(candidate, _summed_coords(candidate, {}))


def ensure_verified_all(
    stacks: Iterable[ComplementarySet], profiles: Optional[dict] = None
) -> list[ComplementarySet]:
    """Verified copies of the stacks, or InputError naming the first failing
    stack's first defect. Each distinct row among them is correlated once;
    calls that pass one `profiles` memo (row -> coordinates) share it."""
    profiles = {} if profiles is None else profiles
    out = []
    for cs in stacks:
        if not cs.verified and not _is_cs(coords := _summed_coords(cs, profiles), cs.size):
            shift = _report(cs, coords).first_defect_shift
            raise InputError(f"not a complementary set: first defect at shift {shift}")
        out.append(cs if cs.verified else ComplementarySet(cs.rows, verified=True))
    return out


def ensure_verified(candidate: ComplementarySet) -> ComplementarySet:
    """Return a verified copy, or raise InputError naming the first defect."""
    return ensure_verified_all((candidate,))[0]
