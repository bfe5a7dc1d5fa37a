"""Toolkit for q-ary complementary sequence sets of non-power-of-two lengths."""

from .algebra import (
    CorrelationProfile,
    RootSum,
    Sequence,
    aacf,
    accf,
    cyclotomic_polynomial,
)
from .construct import (
    Coeffs4,
    Coeffs8,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    golay_double,
    stack,
    turyn_product,
)
from .errors import InputError, ParseError, SeedError, WorkBoundExceeded
from .io import parse_set, read_set_file, serialize_set, write_set_file
from .papr import PaprResult, papr
from .reach import (
    LengthFactorization,
    ReachabilitySet,
    gcp_lengths,
    published_row_diff,
    reachable_lengths,
)
from .search import SearchResult, canonical_rows, first_cs, search_cs
from .seeds import GcpLookup, SeedRecord, gcp_for_length, load_seeds, seed_pair
from .verify import (
    ComplementarySet,
    VerificationReport,
    ensure_verified,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Coeffs4",
    "Coeffs8",
    "ComplementarySet",
    "CorrelationProfile",
    "GcpLookup",
    "InputError",
    "LengthFactorization",
    "PaprResult",
    "ParseError",
    "ReachabilitySet",
    "RootSum",
    "SearchResult",
    "SeedError",
    "SeedRecord",
    "Sequence",
    "VerificationReport",
    "WorkBoundExceeded",
    "aacf",
    "accf",
    "canonical_rows",
    "cs4_from_pairs",
    "cs8_from_pair_and_set",
    "cyclotomic_polynomial",
    "ensure_verified",
    "first_cs",
    "gcp_for_length",
    "gcp_lengths",
    "golay_double",
    "load_seeds",
    "papr",
    "parse_set",
    "published_row_diff",
    "reachable_lengths",
    "read_set_file",
    "search_cs",
    "seed_pair",
    "serialize_set",
    "stack",
    "turyn_product",
    "verify",
    "write_set_file",
]
