"""The public names of the cskit package."""

import sys

import cskit
from cskit.verify import VerificationReport

from conftest import load_golden


def test_public_names():
    names = cskit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(cskit, name) for name in names)
    assert "Alphabet" not in names and "is_gcp" not in names
    assert isinstance(cskit.verify(load_golden("cs4_q2_len5.txt")), VerificationReport)
    # `cskit.verify` is the function; its module stays reachable by path
    assert sys.modules["cskit.verify"].verify is cskit.verify
