"""Seed database: load-time verification and composite pair derivation."""

import importlib
import shutil

import pytest

import helpers
from conftest import load_golden
from cskit import seeds
from cskit.cli import main
from cskit.errors import InputError, SeedError
from cskit.io import serialize_set
from cskit.reach import SEED_LENGTHS, composition
from cskit.seeds import gcp_for_length, load_seeds, seed_pair
from cskit.verify import verify

verify_module = importlib.import_module("cskit.verify")  # cskit.verify is the function


@pytest.fixture
def seed_copy(tmp_path, seed_dir, monkeypatch):
    """A copy of the packaged seeds that `load_seeds` reads in their place,
    with its cache cleared before and after the test."""
    target = tmp_path / "seeds"
    shutil.copytree(seed_dir, target)
    monkeypatch.setattr(seeds, "_default_seed_dir", lambda: target)
    load_seeds.cache_clear()
    yield target
    load_seeds.cache_clear()


@pytest.mark.parametrize("q", [2, 4])
def test_required_lengths_present_and_verified(q):
    records = load_seeds(q)
    lengths = [r.length for r in records]
    assert lengths == sorted(lengths)
    for needed in SEED_LENGTHS[q]:
        assert needed in lengths
    for record in records:
        assert record.pair.verified
        assert record.provenance in ("paper-example", "derived-search", "literature")
        assert verify(record.pair).is_cs


def test_worked_example_seed_is_packaged():
    record = seed_pair(2, 10)
    assert [r.render(pretty=True) for r in record.pair.rows] == [
        "++--+++-+-",
        "+++++-+--+",
    ]
    assert record.provenance == "paper-example"


def test_length_one_seed():
    record = seed_pair(2, 1)
    assert [r.render() for r in record.pair.rows] == ["0", "0"]


def test_quaternary_length3_seed_matches_search_canonical_form():
    record = seed_pair(4, 3)
    assert tuple(r.exponents for r in record.pair.rows) == ((0, 0, 2), (0, 1, 0))


def test_unsupported_alphabet_rejected():
    with pytest.raises(InputError):
        load_seeds(3)


@pytest.mark.parametrize("q", [2, 4])
def test_a_second_load_reuses_the_verified_records(monkeypatch, q):
    calls = []
    real = verify_module.aacf
    monkeypatch.setattr(verify_module, "aacf", lambda row: calls.append(row) or real(row))
    load_seeds.cache_clear()
    first = load_seeds(q)
    assert calls  # the first load verifies every record
    calls.clear()
    assert load_seeds(q) is first
    assert calls == []


def test_missing_seed_file_aborts(seed_copy):
    (seed_copy / "q2_len26.txt").unlink()
    with pytest.raises(SeedError, match=r"missing q=2 seed files for lengths \[26\]"):
        load_seeds(2)


def test_a_seed_file_no_seed_length_names_is_not_loaded(seed_copy, capsys):
    # a valid q=2 pair of length 4, which SEED_LENGTHS[2] does not name
    pair = load_golden("pair_q2_len4.txt")
    (seed_copy / "q2_len4.txt").write_text(serialize_set(pair, "provenance=literature"))
    assert [r.length for r in load_seeds(2)] == sorted(SEED_LENGTHS[2])
    assert main(["seeds", "list", "--q", "2"]) == 0
    assert "len=  4" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "name",
    [
        "q2_len2.txt",
        "q2_len10.txt",
        "q2_len26.txt",
        "q4_len2.txt",
        "q4_len3.txt",
        "q4_len5.txt",
        "q4_len11.txt",
        "q4_len13.txt",
    ],
)
def test_corrupting_one_exponent_fails_load(name, seed_copy):
    # rewriting the leading entry of row 0 provably breaks the shift N-1 sum
    # for any pair of length >= 2 (single-entry pairs stay complementary
    # under every rewrite, so length-1 files are exempt)
    q = int(name[1])
    path = seed_copy / name
    lines = path.read_text().splitlines()
    first_data = next(i for i, ln in enumerate(lines) if i > 0 and not ln.startswith("#"))
    row = lines[first_data]
    flipped = str((int(row[0]) + 1) % q)
    lines[first_data] = flipped + row[1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SeedError, match=name.removesuffix(".txt")):
        load_seeds(q)


def test_non_utf8_seed_file_names_the_file(seed_copy):
    path = seed_copy / "q2_len1.txt"
    path.write_bytes(path.read_bytes().replace(b"\n0\n0\n", b"\n\xff\n0\n"))
    message = r"seed q2_len1\.txt: byte 0xff is not UTF-8 \(line 4, column 1\)"
    with pytest.raises(SeedError, match=message):
        load_seeds(2)


def test_tampered_provenance_rejected(seed_copy):
    path = seed_copy / "q2_len2.txt"
    path.write_text(path.read_text().replace("provenance=derived-search", "provenance=guess"))
    with pytest.raises(SeedError, match="unknown provenance"):
        load_seeds(2)


@pytest.mark.parametrize("name, edit, message", [
    ("q2_len2.txt", lambda text: text.replace("rows=2", "rows=4") + "00\n01\n",
     "expected 2 rows, got 4"),
    ("q2_len2.txt", lambda text: "".join(ln for ln in text.splitlines(True)
                                         if not ln.startswith("#")),
     "missing provenance note"),
    ("q2_len2.txt", lambda text: text.replace("# provenance=", "# source="),
     "first note line must be 'provenance=<value>'"),
    ("q2_len1.txt", lambda text: text.replace("q=2", "q=4"), "header q=4 does not match filename"),
    ("q2_len2.txt", lambda text: text.replace("len=2", "len=1").replace("\n00\n01\n",
                                                                        "\n0\n0\n"),
     "length 1 does not match filename"),
])
def test_a_malformed_seed_file_is_named_with_its_fault(seed_copy, name, edit, message):
    path = seed_copy / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(SeedError) as exc:
        load_seeds(2)
    assert str(exc.value) == f"seed {name}: {message}"


# ---------------------------------------------------------------------------
# Composite pair derivation.


def test_binary_pattern_coverage_to_64():
    for length in (1, 2, 4, 8, 10, 16, 20, 26, 32, 40, 52, 64):
        result = gcp_for_length(2, length)
        assert result.available, result.reason
        assert result.pair.verified
        assert result.pair.length == length
        assert verify(result.pair).is_cs


def test_binary_length52_uses_the_26_kernel():
    result = gcp_for_length(2, 52)
    assert "len=26" in result.chain


def test_binary_off_pattern_lengths_unavailable():
    for length in (3, 5, 6, 7, 9, 11, 13):
        result = gcp_for_length(2, length)
        assert not result.available
        assert "2^a * 10^b * 26^c" in result.reason


def test_quaternary_seed_lengths_resolve_directly():
    for length in (3, 5, 11, 13):
        result = gcp_for_length(4, length)
        assert result.available
        assert result.chain == f"seed(q=4, len={length})"


def test_quaternary_composites_verify():
    for length, fragment in [(6, "len=3"), (26, "len=13"), (30, "len=3"), (52, "len=13")]:
        result = gcp_for_length(4, length)
        assert result.available, result.reason
        assert fragment in result.chain
        assert verify(result.pair).is_cs


def test_quaternary_pattern_gap_reported_honestly():
    # 18 = 2 * 3^2 satisfies the existence pattern but needs two odd kernels
    result = gcp_for_length(4, 18)
    assert not result.available
    assert "reachable in principle" in result.reason
    assert "no construction path" in result.reason


def test_quaternary_off_pattern_length():
    result = gcp_for_length(4, 29)
    assert not result.available
    assert "not of the form" in result.reason


@pytest.mark.parametrize("q", [2, 4])
def test_every_unavailability_reason(q):
    # the reasons as they were spelled out per q, from the oracle's exponents
    facts = helpers.oracle_pattern_factorizations(q, 600)
    unavailable = [n for n in range(1, 601) if composition(q, n) is None]
    for length in unavailable:
        fact = facts.get(length)
        if fact is None and q == 2:
            expected = f"{length} is not of the form 2^a * 10^b * 26^c"
        elif fact is None:
            expected = (f"{length} is not of the form 2^(a+u) * 3^b * 5^c * 11^e * 13^z "
                        "with b+c+e+z <= a+2u+1 and u <= c+z")
        else:
            assert q == 4, length  # every binary pattern length has a plan
            a, b, c, e, z, u = fact.exponents
            expected = (f"length reachable in principle (2^({a}+{u}) * 3^{b} * 5^{c} * 11^{e} "
                        f"* 13^{z} satisfies the existence pattern), but no construction path "
                        "is available from the shipped seeds")
        assert gcp_for_length.__wrapped__(q, length).reason == expected


def test_bad_requests_rejected():
    with pytest.raises(InputError):
        gcp_for_length(2, 0)
    with pytest.raises(InputError):
        gcp_for_length(5, 4)
    with pytest.raises(SeedError, match="^no q=2 seed of length 3$"):
        seed_pair(2, 3)


def test_gcp_matches_the_chain_building_oracle_to_2600():
    constructive = {2: 0, 4: 0}
    for q in (2, 4):
        for length in range(1, 2601):
            expected = helpers.oracle_gcp(q, length)
            result = gcp_for_length.__wrapped__(q, length)
            assert result.available == (expected is not None), (q, length)
            if expected is not None:
                pair, chain = expected
                assert result.chain == chain
                assert serialize_set(result.pair) == serialize_set(pair)
                constructive[q] += 1
    assert constructive == {2: 42, 4: 98}


@pytest.mark.parametrize("q,length,steps", [(2, 1024, 9), (4, 1040, 4)])
def test_replay_runs_one_construct_call_per_tree_step(monkeypatch, q, length, steps):
    # patched on the module, as a tracer does: the replay must look them up at call time
    calls = []
    for op, name in (("double", "golay_double"), ("turyn", "turyn_product")):

        def counted(*parts, _op=op, _fn=getattr(seeds, name)):
            out = _fn(*parts)
            calls.append((_op, out.length))
            return out

        monkeypatch.setattr(seeds, name, counted)

    def post_order(step):
        for part in step.parts:
            yield from post_order(part)
        if step.op != "seed":
            yield step.op, step.length

    assert gcp_for_length.__wrapped__(q, length).pair.length == length
    assert calls == list(post_order(composition(q, length)))
    assert len(calls) == steps
