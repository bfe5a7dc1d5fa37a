"""Decide whether a stack of sequences is a complementary set.

A stack of P length-N rows is complementary when the sum of the rows'
aperiodic autocorrelations is exactly zero at every shift 0 < tau < N
(and P*N at tau = 0). The decision is an integer test on the canonical
coordinates of the summed profile; no epsilon is involved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .algebra import CorrelationProfile, Sequence, aacf, root_coords
from .errors import InputError


@dataclass(frozen=True)
class ComplementarySet:
    """A stack of equal-length rows over one alphabet.

    Only `ensure_verified` sets `verified`; freshly built or parsed stacks
    carry verified=False.
    """

    rows: tuple[Sequence, ...]
    verified: bool = False

    def __post_init__(self):
        if not self.rows:
            raise InputError("a complementary set needs at least one row")
        first = self.rows[0]
        for row in self.rows[1:]:
            if row.q != first.q:
                raise InputError("all rows must share one alphabet")
            if len(row) != len(first):
                raise InputError("all rows must share one length")

    @classmethod
    def of(cls, *rows: Sequence) -> "ComplementarySet":
        return cls(tuple(rows))

    @property
    def q(self) -> int:
        return self.rows[0].q

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def length(self) -> int:
        return len(self.rows[0])


@dataclass(frozen=True)
class VerificationReport:
    is_cs: bool
    sum_profile: CorrelationProfile
    first_defect_shift: Optional[int] = None
    defect_magnitudes: dict[int, float] = field(default_factory=dict)


def sum_aacf(candidate: ComplementarySet) -> CorrelationProfile:
    """Sum of the per-row autocorrelation profiles.

    Each distinct row is correlated once, and its integer profile is scaled
    by the number of times the row occurs.
    """
    total = None
    for row, k in Counter(candidate.rows).items():
        coords = aacf(row).coords
        if k > 1:
            coords = coords * k
        total = coords if total is None else total + coords
    return CorrelationProfile(candidate.q, candidate.length, total)


def verify(candidate: ComplementarySet) -> VerificationReport:
    """Exact complementarity decision with the full defect profile.

    Only the shifts whose summed value is not exactly zero are visited.
    """
    total = sum_aacf(candidate)
    defects = {tau: abs(total.at(tau)) for tau in total.nonzero_shifts() if tau > 0}
    first = next(iter(defects), None)
    peak = candidate.size * candidate.length * root_coords(candidate.q)[0]  # P*N times 1
    peak_ok = total.coords[candidate.length - 1].tolist() == peak.tolist()
    return VerificationReport(
        is_cs=(first is None and peak_ok),
        sum_profile=total,
        first_defect_shift=first,
        defect_magnitudes=defects,
    )


def ensure_verified(candidate: ComplementarySet) -> ComplementarySet:
    """Return a verified copy, or raise InputError naming the first defect."""
    if candidate.verified:
        return candidate
    report = verify(candidate)
    if not report.is_cs:
        raise InputError(
            f"not a complementary set: first defect at shift {report.first_defect_shift}"
        )
    return ComplementarySet(candidate.rows, verified=True)
