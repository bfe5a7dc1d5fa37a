"""The public names of the cskit package."""

import dataclasses
import sys

import pytest

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


def _records():
    """(a builder of one record from fresh values, what its methods answer)."""
    from cskit.reach import Derivation, LengthEntry

    pair = cskit.seed_pair(2, 2).pair
    entry = lambda: LengthEntry(5, Derivation("pair-sum", (2, 3)), True)  # noqa: E731
    return [
        (lambda: cskit.Coeffs4(1, 6, 0, 3),
         lambda r: (r.reduced(4), r.violations(4), len(r.violations(3))),
         ((1, 2, 0, 3), [], 1)),
        (lambda: cskit.Coeffs8(4, 0, 0, 0, 0, 0),
         lambda r: (r.reduced(2), len(r.violations(4))), ((0, 0, 0, 0, 0, 0), 2)),
        (lambda: cskit.PaprResult(2.0, 0.25, 16), lambda r: r.papr, 2.0),
        (lambda: cskit.LengthFactorization(2, (1, 0, 1)), lambda r: r.describe(),
         "2^1 * 10^0 * 26^1"),
        (lambda: Derivation("pair-plus-set4", (10, 26)), lambda r: r.describe(), "M+P = 10+26"),
        (entry, lambda r: r.witness.describe(), "M+N = 2+3"),
        (lambda: cskit.ReachabilitySet(2, 4, 5, (entry(),)), lambda r: r.lengths(), [5]),
        (lambda: cskit.SearchResult(2, 2, 2, (pair,), True, 3), lambda r: r.sets[0].size, 2),
        (lambda: cskit.SeedRecord(2, 2, pair, "paper-example", "n"), lambda r: r.pair.length, 2),
        (lambda: cskit.GcpLookup(2, 3, reason="no"), lambda r: r.available, False),
        (lambda: cskit.verify(load_golden("cs4_q2_len5.txt")),
         lambda r: (r.is_cs, r.first_defect_shift, r.defect_magnitudes), (True, None, {})),
    ]


def test_result_records_are_named_tuples():
    records = _records()
    assert len(records) == 11
    for build, probe, answer in records:
        record, again = build(), build()
        assert isinstance(record, tuple) and record == again and record == tuple(again)
        assert probe(record) == answer, type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], again[0])
        if type(record) is VerificationReport:
            assert record.defect_magnitudes is not again.defect_magnitudes
            with pytest.raises(TypeError):  # its dict and ndarray profile hash no value
                hash(record)
        else:
            assert hash(record) == hash(again)
    assert cskit.GcpLookup(2, 2, cskit.seed_pair(2, 2).pair, "seed(q=2, len=2)").available
    with pytest.raises(TypeError):  # no shared {} default: every field is required
        VerificationReport(True, None)


def test_only_the_algebra_value_types_are_dataclasses():
    exported = [getattr(cskit, name) for name in cskit.__all__]
    assert {obj.__name__ for obj in exported if dataclasses.is_dataclass(obj)} == {
        "ComplementarySet", "CorrelationProfile", "RootSum", "Sequence"}
