"""Decide whether a stack of sequences is a complementary set.

A stack of P length-N rows is complementary when the sum of the rows'
aperiodic autocorrelations is exactly zero at every shift 0 < tau < N
(and P*N at tau = 0). The decision is an integer test on the canonical
coordinates of the summed profile; no epsilon is involved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from .algebra import Alphabet, CorrelationProfile, RootSum, Sequence, aacf
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
            if row.alphabet != first.alphabet:
                raise InputError("all rows must share one alphabet")
            if len(row) != len(first):
                raise InputError("all rows must share one length")

    @classmethod
    def of(cls, *rows: Sequence) -> "ComplementarySet":
        return cls(tuple(rows))

    @property
    def alphabet(self) -> Alphabet:
        return self.rows[0].alphabet

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

    @property
    def peak(self) -> RootSum:
        return self.sum_profile.peak


def sum_aacf(candidate: ComplementarySet) -> CorrelationProfile:
    """Sum of the per-row autocorrelation profiles."""
    total = aacf(candidate.rows[0])
    for row in candidate.rows[1:]:
        total = total + aacf(row)
    return total


def verify(candidate: ComplementarySet) -> VerificationReport:
    """Exact complementarity decision with the full defect profile.

    Only the shifts whose summed value is not exactly zero are visited.
    """
    total = sum_aacf(candidate)
    defects = {tau: abs(total.at(tau)) for tau in total.nonzero_shifts() if tau > 0}
    first = next(iter(defects), None)
    peak_ok = total.peak == RootSum.from_int(candidate.q, candidate.size * candidate.length)
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
    return dataclasses.replace(candidate, verified=True)


def is_gcp(a: Sequence, b: Sequence) -> bool:
    """True iff (a, b) is a Golay complementary pair."""
    return verify(ComplementarySet.of(a, b)).is_cs
