"""Micro-benchmarks of the exact correlation kernel, the paths built on it,
the search engine, the reachable-length enumeration and the CLI paths.

    PYTHONPATH=src python3 -m pytest bench --benchmark-json=out.json

These sit outside the tier-1 `testpaths` and run only when named. Every
input is fixed (seeded sequences, seed-database pairs), so two commits are
timed on identical work; each benchmark also checks its result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys

import pytest

from cskit import cli
from cskit.algebra import Sequence, aacf
from cskit.construct import Coeffs4, cs4_from_pairs, stack, turyn_product
from cskit.errors import WorkBoundExceeded
from cskit.io import parse_set, serialize_set, write_set_file
from cskit.reach import reachable_lengths
from cskit.search import _backtrack, first_cs, search_cs
from cskit.seeds import gcp_for_length, seed_pair
from cskit.verify import ComplementarySet, ensure_verified, verify


@pytest.fixture(scope="module")
def cs8_q4_len1040():
    """An 8-row quaternary set of length 1040: two size-4 sets from 520+520."""
    pair = gcp_for_length(4, 520).pair
    return stack([
        cs4_from_pairs(pair, pair, Coeffs4(0, 0, 0, 2)),
        cs4_from_pairs(pair, pair, Coeffs4(1, 0, 0, 1)),
    ])


# the long rows are the baselines for a faster exact kernel at the length caps
@pytest.mark.parametrize("q,n", [(2, 1024), (4, 264), (4, 1040),
                                 (2, 8320), (4, 8320), (2, 32768), (4, 32768)])
def test_aacf(benchmark, q, n):
    rng = random.Random(q * 100_000 + n)
    seq = Sequence.from_exponents(q, [rng.randrange(q) for _ in range(n)])
    profile = benchmark(aacf, seq)
    assert profile.length_n == n


def test_verify_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    report = benchmark(verify, cs8_q4_len1040)
    assert report.is_cs


@pytest.mark.parametrize("q,n", [(2, 10), (4, 160)])
def test_ensure_verified_pair(benchmark, q, n):
    # a fresh unverified copy, so every round decides the pair again
    cs = ComplementarySet(gcp_for_length(q, n).pair.rows)
    assert benchmark(ensure_verified, cs).verified


def test_gcp_for_length_cold(benchmark):
    def cold():
        gcp_for_length.cache_clear()
        return gcp_for_length(2, 1024)

    assert benchmark(cold).pair.length == 1024


def test_cs4_from_pairs_len2048(benchmark):
    pair = gcp_for_length(2, 1024).pair
    cs = benchmark(cs4_from_pairs, pair, pair, Coeffs4(0, 0, 0, 1))
    assert (cs.size, cs.length) == (4, 2048)


def test_parse_set_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    text = serialize_set(cs8_q4_len1040)
    cs, _ = benchmark(parse_set, text)
    assert cs.rows == cs8_q4_len1040.rows


def test_serialize_set_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    text = benchmark(serialize_set, cs8_q4_len1040)
    assert len(text) == len("q=4 rows=8 len=1040\n") + 8 * 1041


def test_turyn_product_q4_len1040(benchmark):
    # the last step of gcp_for_length(4, 1040): binary length 80, kernel 13
    pair = benchmark(turyn_product, gcp_for_length(2, 80).pair, seed_pair(4, 13).pair)
    assert pair.rows == gcp_for_length(4, 1040).pair.rows


def test_report_dict_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    report = verify(cs8_q4_len1040)
    record = benchmark(cli._report_dict, cs8_q4_len1040, report)
    assert record["is_cs"] and len(record["sum_profile"]) == 1040


@pytest.mark.parametrize("q,p,n,nodes", [(2, 2, 14, 18203), (4, 2, 7, 8158)])
def test_enumerate_full(benchmark, q, p, n, nodes):
    # the engine alone: the norm test refutes (2, 2, 14) before a node
    assert benchmark(_backtrack, q, p, n, lambda rows: False, 10**9) == nodes


@pytest.mark.parametrize("q,p,n,limit,nodes,classes", [
    (2, 2, 16, None, 67009, 96),
    (4, 2, 8, None, 30658, 76),
    (4, 2, 7, None, 8158, 0),  # no pair: the lex-leader checks of all three maps, no emit
    (2, 1100, 2, 1, 1101, 1),  # the perfbench deep probe
    (4, 4, 3, None, 485, 25),  # emit-heavy: verifying the classes is most of the time
    (2, 4, 5, None, 392, 24),
    # the facet prune: q = 3 and 6 ran the table engine before, and q = 8
    # and 10 carry the widest packed ints (16 and 30 forms)
    (3, 3, 6, None, 4195, 49),
    (6, 2, 6, None, 23967, 0),
    (8, 2, 5, None, 10444, 10),
    (10, 2, 5, None, 22735, 0),
])
def test_search_cs(benchmark, q, p, n, limit, nodes, classes):
    result = benchmark(search_cs, q, p, n, limit)
    assert (result.nodes, len(result.sets)) == (nodes, classes)


def test_search_cs_work_bound(benchmark):
    # the perfbench bound-a calls: a binary pair search cut at 24,000 nodes
    def bounded():
        with pytest.raises(WorkBoundExceeded):
            search_cs(2, 2, 18, work_bound=24000)

    benchmark(bounded)


def test_first_cs_q2_len20(benchmark):
    pair = benchmark(first_cs, 2, 2, 20)
    assert (pair.size, pair.length) == (2, 20)


def test_first_cs_q4_len11(benchmark):
    pair = benchmark(first_cs, 4, 2, 11)
    assert pair.rows == seed_pair(4, 11).pair.rows


def test_search_refuted_pair(benchmark):
    # 2 * 15 = 30 is no sum of two odd squares: no binary pair of length 15
    result = benchmark(search_cs, 2, 2, 15)
    assert result.sets == () and result.complete


def run_cli(*argv):
    """Exit code and stdout of one in-process CLI call."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_cli_search_q2_size4_len5(benchmark):
    code, out = benchmark(run_cli, "search", "--q", "2", "--size", "4", "--len", "5")
    assert code == 0 and out.count("q=2 rows=4 len=5\n") == 24


def _drop_cskit() -> dict:
    """Remove cskit and its submodules from sys.modules; return what was there."""
    names = [n for n in sys.modules if n == "cskit" or n.startswith("cskit.")]
    return {name: sys.modules.pop(name) for name in names}


def test_fresh_import(benchmark):
    # each CLI call starts a new process that imports cskit (bytecode may be
    # cached here); the originals come back, so later cases see one cskit
    def fresh():
        _drop_cskit()
        importlib.import_module("cskit")
        return importlib.import_module("cskit.cli")

    saved = _drop_cskit()
    try:
        assert benchmark(fresh).build_parser().prog == "cskit"
    finally:
        _drop_cskit()
        sys.modules.update(saved)
    assert sys.modules["cskit.cli"] is cli


def test_cli_build_parser(benchmark):
    assert benchmark(cli.build_parser).prog == "cskit"


def test_cli_gcp_q2_len4(benchmark):
    # a whole call whose work is a cached lookup: the parser is most of it
    code, out = benchmark(run_cli, "gcp", "--q", "2", "--len", "4")
    assert code == 0
    assert out == "derivation: double(seed(q=2, len=2))\nq=2 rows=2 len=4\n0001\n0010\n"


def test_cli_gcp_q4_len520_cold(benchmark):
    def cold():
        gcp_for_length.cache_clear()
        return run_cli("gcp", "--q", "4", "--len", "520")

    code, out = benchmark(cold)
    assert code == 0 and out.startswith("derivation: ") and "q=4 rows=2 len=520\n" in out


def test_cli_enumerate_q4_size8_max2600(benchmark):
    code, out = benchmark(run_cli, "enumerate", "--q", "4", "--size", "8", "--max", "2600")
    assert code == 0 and out.startswith("q=4 size=8 max=2600: 2599 lengths\n")


def test_cli_papr_cs8_q4_len1040(benchmark, cs8_q4_len1040, tmp_path):
    path = tmp_path / "cs8.txt"
    write_set_file(path, cs8_q4_len1040)
    code, out = benchmark(run_cli, "papr", str(path))
    assert code == 0 and out.count("row=") == 8


def test_cli_verify_cs8_q4_len1040(benchmark, cs8_q4_len1040, tmp_path):
    path = tmp_path / "cs8.txt"
    write_set_file(path, cs8_q4_len1040)
    code, out = benchmark(run_cli, "verify", str(path))
    assert code == 0 and out.startswith("is_cs: True\n")


def test_cli_selftest(benchmark):
    code, _ = benchmark(run_cli, "selftest")
    assert code == 0


def test_cli_seeds_list(benchmark):
    code, out = benchmark(run_cli, "seeds", "list")
    assert code == 0 and out.count("provenance=") == 10


REACH_ENTRIES = {
    (2, 4, 2600): 501,
    (2, 8, 2600): 1661,
    (4, 4, 2600): 1865,
    (4, 8, 2600): 2599,
    (4, 8, 10000): 9999,
}


@pytest.mark.parametrize("q,size,max_len", list(REACH_ENTRIES))
def test_reachable_lengths(benchmark, q, size, max_len):
    reach = benchmark(reachable_lengths, q, size, max_len)
    assert len(reach.entries) == REACH_ENTRIES[q, size, max_len]
