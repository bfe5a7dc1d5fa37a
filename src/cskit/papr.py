"""Peak-to-average power ratio of the multicarrier signal a sequence carries.

The continuous-time signal s(t) = sum_k a_k * exp(2*pi*sqrt(-1)*k*t) is
sampled on an oversampled grid over one period; the reported PAPR is
max |s|^2 / N (linear scale). A grid maximum never exceeds the true
supremum, so bound checks against the analytic limits (2 for a Golay
pair row, the set size for a complementary-set row) pass one-sidedly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import Sequence
from .errors import InputError

DEFAULT_OVERSAMPLE = 16


class PaprResult(NamedTuple):
    papr: float          # linear scale, >= 1 for unimodular sequences
    peak_t: float        # peak position in [0, 1)
    oversample: int


def papr(seq: Sequence, oversample: int = DEFAULT_OVERSAMPLE) -> PaprResult:
    if oversample < 1:
        raise InputError(f"oversample must be >= 1, got {oversample}")
    n = len(seq)
    grid = oversample * n
    padded = np.zeros(grid, dtype=complex)
    padded[:n] = seq.as_complex()
    signal = np.fft.ifft(padded) * grid
    power = np.abs(signal) ** 2
    peak = int(np.argmax(power))
    return PaprResult(
        papr=float(power[peak]) / n,
        peak_t=peak / grid,
        oversample=oversample,
    )
