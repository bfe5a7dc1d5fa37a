"""Length reachability: pattern enumeration, witnesses, reference-row diffs."""

import random

import pytest

import helpers
from cskit import reach as reach_module
from cskit import seeds
from cskit.errors import InputError
from cskit.reach import (
    PUBLISHED_ROWS,
    Composition,
    LengthEntry,
    composition,
    gcp_lengths,
    in_gcp_pattern,
    published_row_diff,
    reachable_lengths,
)


def brute_binary_pattern(max_len):
    out = set()
    a = 0
    while 2**a <= max_len:
        b = 0
        while 2**a * 10**b <= max_len:
            c = 0
            while 2**a * 10**b * 26**c <= max_len:
                out.add(2**a * 10**b * 26**c)
                c += 1
            b += 1
        a += 1
    return out


def brute_quaternary_pattern(max_len):
    out = set()
    for a in range(8):
        for u in range(8):
            for b in range(5):
                for c in range(4):
                    for e in range(3):
                        for z in range(3):
                            if b + c + e + z > a + 2 * u + 1 or u > c + z:
                                continue
                            length = 2 ** (a + u) * 3**b * 5**c * 11**e * 13**z
                            if length <= max_len:
                                out.add(length)
    return out


def test_binary_pattern_examples():
    assert gcp_lengths(2, 34) == [1, 2, 4, 8, 10, 16, 20, 26, 32]
    assert gcp_lengths(2, 1) == [1]


def test_quaternary_pattern_examples():
    assert gcp_lengths(4, 13) == [1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13]


@pytest.mark.parametrize("max_len", [1, 7, 34, 100, 200])
def test_binary_pattern_against_brute_enumeration(max_len):
    assert set(gcp_lengths(2, max_len)) == brute_binary_pattern(max_len)


@pytest.mark.parametrize("max_len", [1, 13, 40, 100])
def test_quaternary_pattern_against_brute_enumeration(max_len):
    assert set(gcp_lengths(4, max_len)) == brute_quaternary_pattern(max_len)


def pattern_length(fact):
    """The length a pattern witness stands for."""
    if fact.q == 2:
        a, b, c = fact.exponents
        return 2**a * 10**b * 26**c
    a, b, c, e, z, u = fact.exponents
    return 2 ** (a + u) * 3**b * 5**c * 11**e * 13**z


def test_pattern_factorizations_reproduce_lengths():
    for q, cap in ((2, 120), (4, 90)):
        for length in gcp_lengths(q, cap):
            fact = in_gcp_pattern(q, length)
            assert fact is not None
            assert pattern_length(fact) == length


@pytest.mark.parametrize("q", [2, 4])
def test_in_gcp_pattern_matches_the_table(q):
    table = helpers.oracle_pattern_factorizations(q, 3000)
    for length in range(-1, 3001):
        assert in_gcp_pattern(q, length) == table.get(length)


@pytest.mark.parametrize("q", [2, 4])
def test_gcp_lengths_match_the_nested_loops(q):
    full = helpers.oracle_gcp_lengths(q, 3000)
    for max_len in [*range(1, 400), 2600, 3000]:
        assert gcp_lengths(q, max_len) == [n for n in full if n <= max_len]
    assert gcp_lengths(q, 100_000) == helpers.oracle_gcp_lengths(q, 100_000)


def test_unsupported_alphabet():
    with pytest.raises(InputError, match=r"^no pattern data for q=3 \(supported: 2, 4\)$"):
        gcp_lengths(3, 10)
    with pytest.raises(InputError, match="^max length must be >= 1$"):
        gcp_lengths(3, 0)
    for length in (0, 8):  # whatever the length
        with pytest.raises(InputError, match=r"^no composition data for q=3 \(supported: 2, 4\)$"):
            composition(3, length)
    # reachable_lengths checks the size first, then max and q as gcp_lengths does
    for args, message in (((3, 6, 0), "enumeration covers set sizes 4 and 8, got 6"),
                          ((2, 6, 10), "enumeration covers set sizes 4 and 8, got 6"),
                          ((4, 5, -1), "enumeration covers set sizes 4 and 8, got 5"),
                          ((3, 8, 0), "max length must be >= 1"),
                          ((2, 4, 0), "max length must be >= 1"),
                          ((3, 4, 10), "no pattern data for q=3 (supported: 2, 4)")):
        with pytest.raises(InputError) as exc:
            reachable_lengths(*args)
        assert str(exc.value) == message


def test_every_refusal_names_the_alphabets_with_seeds(monkeypatch, tmp_path):
    # the list is read from SEED_LENGTHS when a request is refused, so an
    # alphabet added there is named by every check, each before its other inputs
    monkeypatch.setitem(reach_module.SEED_LENGTHS, 8, ())
    monkeypatch.setattr(seeds, "_default_seed_dir", lambda: tmp_path / "absent")
    calls = (
        (lambda: gcp_lengths(3, 10), "pattern data"),
        (lambda: in_gcp_pattern(3, 0), "pattern data"),
        (lambda: composition(3, 0), "composition data"),
        (lambda: seeds.load_seeds(3), "seeds"),
        (lambda: seeds.gcp_for_length(3, 0), "seeds"),
    )
    for call, what in calls:
        with pytest.raises(InputError, match=rf"^no {what} for q=3 \(supported: 2, 4, 8\)$"):
            call()


# ---------------------------------------------------------------------------
# Size-4 sums.


EXPECTED_CS4_Q2_34 = [
    2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 16, 17, 18, 20, 21, 22, 24, 26, 27,
    28, 30, 32, 33, 34,
]


def test_cs4_binary_lengths_to_34():
    assert reachable_lengths(2, 4, 34).lengths() == EXPECTED_CS4_Q2_34


def test_cs4_binary_against_independent_sum_oracle():
    pattern = brute_binary_pattern(34)
    expected = sorted({m + n for m in pattern for n in pattern if m + n <= 34})
    assert reachable_lengths(2, 4, 34).lengths() == expected


def test_cs4_quaternary_lengths_to_34():
    assert reachable_lengths(4, 4, 34).lengths() == [2] + list(range(3, 35))


def test_cs4_length29_witness_is_3_plus_26():
    entry = reachable_lengths(4, 4, 29).entries[-1]
    assert entry.length == 29
    assert entry.witness.operands == (3, 26)
    assert entry.constructive


def test_cs4_witnesses_are_pattern_sums():
    for q in (2, 4):
        reach = reachable_lengths(q, 4, 34)
        pattern = set(gcp_lengths(q, 34))
        for entry in reach.entries:
            m, n = entry.witness.operands
            assert m + n == entry.length
            assert m in pattern and n in pattern


def test_cs4_remark_scale_coverage():
    lengths = set(reachable_lengths(4, 4, 40).lengths())
    assert set(range(2, 41)) <= lengths
    by_length = {e.length: e for e in reachable_lengths(4, 4, 40).entries}
    assert all(by_length[L].constructive for L in range(2, 41))


# ---------------------------------------------------------------------------
# Size-8 sums.


def test_cs8_binary_lengths_to_34():
    assert reachable_lengths(2, 8, 34).lengths() == [2] + list(range(3, 35))


def test_cs8_quaternary_lengths_to_34():
    assert reachable_lengths(4, 8, 34).lengths() == [2] + list(range(3, 35))


def test_cs8_length13_admits_the_8_plus_5_derivation():
    candidates = helpers.cs8_candidates(2, 13)[13]
    assert any(kind == "pair-plus-set4" and ops == (8, 5) for ops, _, kind in candidates)


def test_cs8_stack_only_length_two():
    reach = reachable_lengths(2, 8, 2)
    assert reach.lengths() == [2]
    assert reach.entries[0].witness.kind == "stack"


def test_cs8_witnesses_check_out():
    for q in (2, 4):
        reach = reachable_lengths(q, 8, 34)
        pattern = set(gcp_lengths(q, 34))
        cs4 = set(reachable_lengths(q, 4, 34).lengths())
        for entry in reach.entries:
            w = entry.witness
            if w.kind == "stack":
                assert w.operands[0] == entry.length and entry.length in cs4
            else:
                m, p = w.operands
                assert m + p == entry.length
                assert m in pattern and p in cs4


# ---------------------------------------------------------------------------
# One witness per length against the candidate-list oracle.


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("size", [4, 8])
def test_witnesses_match_candidate_list_oracle(q, size):
    for cap in [*range(1, 301), 2400, 2500, 2600]:
        assert reachable_lengths(q, size, cap) == helpers.oracle_reachable_lengths(q, size, cap)


@pytest.mark.parametrize("q", [2, 4])
def test_size8_plans_each_pattern_length_once(monkeypatch, q):
    # the q=4 planner asks for its binary part through the module global,
    # so only the calls made outside `composition` are counted
    calls, depth = [], []

    def counted(q_, m):
        if not depth:
            calls.append(m)
        depth.append(m)
        try:
            return composition(q_, m)
        finally:
            depth.pop()

    monkeypatch.setattr(reach_module, "composition", counted)
    reachable_lengths(q, 8, 2600)
    assert sorted(calls) == gcp_lengths(q, 2600)


def test_each_returned_entry_is_built_once_in_length_order(monkeypatch):
    # the size-8 pass reads the size-4 lengths as masks, with no size-4 entries
    built = []

    def counted(*fields):
        built.append(fields[0])
        return LengthEntry(*fields)

    monkeypatch.setattr(reach_module, "LengthEntry", counted)
    result = reachable_lengths(4, 8, 2600)
    assert len(result.entries) == 2599
    assert built == result.lengths()


@pytest.mark.parametrize("seed", range(4))
def test_witnesses_match_oracle_under_random_plans(monkeypatch, seed):
    # The real plans never pit a constructive stack against an existence-only
    # M+P; random plan subsets do, and the stack must win there.
    rng = random.Random(seed)
    stacks_beating_pair_sums = 0
    for q in (2, 4):
        planned = {m for m in gcp_lengths(q, 300) if rng.random() < 0.5}
        # `is not None` is the plan test, so an unplanned length must get None
        fake_plan = lambda q_, m: Composition("seed", q_, m) if m in planned else None  # noqa: E731
        monkeypatch.setattr(reach_module, "composition", fake_plan)
        monkeypatch.setattr(helpers, "composition", fake_plan)
        for size in (4, 8):
            for cap in (1, 2, 13, 34, 77, 150, 300):
                assert reachable_lengths(q, size, cap) == helpers.oracle_reachable_lengths(
                    q, size, cap
                )
        candidates = helpers.cs8_candidates(q, 300)
        for entry in reachable_lengths(q, 8, 300).entries:
            stacks_beating_pair_sums += (
                entry.witness.kind == "stack"
                and entry.constructive
                and any(kind == "pair-plus-set4" for _, _, kind in candidates[entry.length])
            )
    assert stacks_beating_pair_sums > 0


# ---------------------------------------------------------------------------
# Monotonicity, constructive labels, reference rows.


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("size", [4, 8])
def test_monotone_in_max_length(q, size):
    previous = set()
    for cap in (2, 5, 9, 14, 21, 34):
        current = set(reachable_lengths(q, size, cap).lengths())
        assert previous <= current
        previous = current


def test_constructive_labels_track_composition_plans():
    reach = reachable_lengths(4, 4, 34)
    for entry in reach.entries:
        m, n = entry.witness.operands
        assert entry.constructive == (
            composition(4, m) is not None and composition(4, n) is not None
        )


def test_published_row_diffs():
    assert published_row_diff(2, 4, 34) == ({2, 32}, set())
    assert published_row_diff(2, 8, 34) == ({2}, set())
    assert published_row_diff(4, 4, 34) == ({2}, set())
    assert published_row_diff(4, 8, 34) == ({2}, set())
    with pytest.raises(InputError, match="^no reference row for q=3, size=4$"):
        published_row_diff(3, 4, 10)


def test_published_rows_are_subsets_of_computed():
    for (q, size), row in PUBLISHED_ROWS.items():
        computed = set(reachable_lengths(q, size, 34).lengths())
        assert row <= computed
