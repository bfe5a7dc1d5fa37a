"""Command-line surface: subcommands, formats, exit codes."""

import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cskit import cli, seeds
from cskit import io as setio
from cskit.algebra import MAX_Q, Sequence
from cskit.cli import main
from cskit.construct import Coeffs4, Coeffs8, cs4_from_pairs, cs8_from_pair_and_set, stack
from cskit.errors import InputError
from cskit.io import parse_set, read_set_file, serialize_set, write_set_file
from cskit.papr import PaprResult
from cskit.reach import SEED_LENGTHS, ReachabilitySet, reachable_lengths
from cskit.search import SearchResult
from cskit.seeds import GcpLookup, gcp_for_length, load_seeds
from cskit.verify import ComplementarySet, ensure_verified, verify

from conftest import load_golden
from helpers import dft_set, oracle_build_parser, oracle_report, rootsum_accf, sum_rootsums

verify_module = importlib.import_module("cskit.verify")  # cskit.verify is the function


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


COMMANDS = ["verify", "theorem1", "theorem2", "stack", "gcp", "enumerate", "search", "papr",
            "seeds", "selftest"]


def golden(golden_dir, name):
    return str(golden_dir / name)


def test_verify_golden_set(capsys, golden_dir):
    code, out, _ = run(capsys, "verify", golden(golden_dir, "cs8_q2_len13.txt"))
    assert code == 0
    assert "is_cs: True" in out
    assert "peak: 104" in out


def test_verify_json_report(capsys, golden_dir):
    code, out, _ = run(
        capsys, "verify", golden(golden_dir, "cs4_q2_len14.txt"), "--report", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_cs"] is True
    assert report["peak"] == 56
    assert report["first_defect_shift"] is None
    assert len(report["sum_profile"]) == 14


def test_verify_json_is_exact_for_gaussian_alphabets(capsys, tmp_path):
    # q=4: the sums are Gaussian integers, printed as such, and the
    # conjugates 2 + 2i and 2 - 2i have one magnitude
    path = tmp_path / "q4.txt"
    path.write_text("q=4 rows=2 len=8\n01230123\n00112233\n")
    code, out, _ = run(capsys, "verify", str(path), "--report", "json")
    report = json.loads(out)
    assert code == 1
    assert report["sum_profile"] == [[16, 0], [4, -10], [-6, -6], [-2, 2], [0, 0], [-2, -2],
                                     [-2, 2], [0, 2]]
    assert report["defect_magnitudes"] == {"1": abs(4 - 10j), "2": abs(6 + 6j), "3": abs(2 + 2j),
                                           "5": abs(2 + 2j), "6": abs(2 + 2j), "7": 2}


def test_verify_json_sum_profile_matches_rootsum_oracle(capsys, tmp_path):
    # q=3 gives non-Gaussian values; shifts 2 and 4 are exactly zero
    path = tmp_path / "q3.txt"
    path.write_text("q=3 rows=3 len=6\n122112\n002021\n202002\n")
    code, out, _ = run(capsys, "verify", str(path), "--report", "json")
    cs, _ = read_set_file(str(path))
    per_row = [rootsum_accf(row, row) for row in cs.rows]
    total = [sum_rootsums(values) for values in zip(*per_row)][cs.length - 1:]
    assert code == 1
    assert [not any(v.coords) for v in total] == [False, False, True, False, True, False]
    assert json.loads(out)["sum_profile"] == [[v.to_complex().real, v.to_complex().imag] for v in total]


@st.composite
def report_sets(draw, q):
    # a complementary dft_set, or a random stack (rarely complementary)
    if draw(st.booleans()):
        scales = draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
        return dft_set(q, draw(st.integers(1, q)), scales)
    n = draw(st.integers(1, 60))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return ComplementarySet(tuple(Sequence.from_exponents(q, draw(row))
                                  for _ in range(draw(st.integers(1, 4)))))


@given(st.integers(1, MAX_Q), st.data())
@settings(max_examples=200, deadline=None)
def test_report_dict_is_bit_identical_to_the_per_shift_oracle(q, data):
    cs = data.draw(report_sets(q))
    assert json.dumps(cli._report_dict(cs, verify(cs))) == json.dumps(oracle_report(cs))


@pytest.mark.parametrize("q", range(1, MAX_Q + 1))
def test_verify_json_bytes_match_the_per_shift_oracle(capsys, tmp_path, q):
    # a complementary and a random set of every q, and for even q a binary
    # pair of length 52 carried over to q
    rng = random.Random(q)
    sets = [dft_set(q, q, [rng.randrange(q) for _ in range(q)]),
            ComplementarySet(tuple(Sequence.from_exponents(q, [rng.randrange(q) for _ in range(97)])
                                   for _ in range(3)))]
    if q % 2 == 0:
        sets.append(ComplementarySet(tuple(Sequence.from_exponents(q, [e * q // 2 for e in row])
                                           for row in gcp_for_length(2, 52).pair.rows)))
    path = tmp_path / "set.txt"
    for cs in sets:
        write_set_file(path, cs)
        want = oracle_report(cs)
        assert run(capsys, "verify", str(path), "--report", "json") == (
            0 if want["is_cs"] else 1, json.dumps(want) + "\n", "")
    assert [oracle_report(cs)["is_cs"] for cs in sets] == [True, False] + [True] * (q % 2 == 0)


def test_verify_tampered_set_reports_defect(capsys, golden_dir, tmp_path):
    text = (golden_dir / "cs4_q2_len14.txt").read_text()
    lines = text.splitlines()
    # flip the final symbol of the last row
    last = lines[-1]
    lines[-1] = last[:-1] + ("1" if last[-1] == "0" else "0")
    bad = tmp_path / "tampered.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "first defect shift" in out


def test_verify_malformed_file_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("q=2 rows=1 len=3\n0z0\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "line 2, column 2" in err


def bad_path(tmp_path, kind):
    """A path the OS refuses to open: missing, a directory, through a
    regular file, or a name too long."""
    if kind == "missing":
        return str(tmp_path / "nope.txt")
    if kind == "directory":
        return str(tmp_path)
    if kind == "through-file":
        plain = tmp_path / "plainfile"
        plain.write_text("not a directory\n")
        return str(plain / "x")
    return str(tmp_path / ("a" * 5000))


@pytest.mark.parametrize("target", ["missing", "directory", "through-file", "too-long"])
def test_verify_missing_file_exit2(capsys, tmp_path, target):
    code, out, err = run(capsys, "verify", bad_path(tmp_path, target))
    assert (code, out) == (2, "")
    assert err.startswith("error: input: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_of_an_empty_path_names_the_missing_file(capsys):
    # "" is no file; Path("") would be the directory "."
    assert run(capsys, "verify", "") == (
        2, "", "error: input: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("kind", ["directory", "through-file", "too-long"])
def test_unwritable_out_path_exit2(capsys, tmp_path, kind):
    # the set is written before the derivation line, so a failed write prints none
    code, out, err = run(capsys, "gcp", "--q", "2", "--len", "4", "--out", bad_path(tmp_path, kind))
    assert (code, out) == (2, "")
    assert err.startswith("error: input: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "papr"])
def test_non_utf8_set_file_exit2(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"q=2 rows=1 len=2\n\xff\xfe\n")
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (2, "")
    assert err == "error: input: byte 0xff is not UTF-8 (line 2, column 1)\n"


def test_theorem1_reproduces_packaged_output(capsys, golden_dir, tmp_path):
    out_file = tmp_path / "cs.txt"
    code, _, _ = run(
        capsys,
        "theorem1",
        "--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
        "--pair-b", golden(golden_dir, "pair_q2_len4.txt"),
        "--coeffs", "0,0,0,1",
        "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_bytes() == (golden_dir / "cs4_q2_len14.txt").read_bytes()


def test_theorem1_complex_literals(capsys, golden_dir, tmp_path):
    out_file = tmp_path / "cs.txt"
    code, _, _ = run(
        capsys,
        "theorem1",
        "--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
        "--pair-b", golden(golden_dir, "pair_q2_len4.txt"),
        "--coeffs", "1,1,1,-1",
        "--complex",
        "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_bytes() == (golden_dir / "cs4_q2_len14.txt").read_bytes()


def test_theorem1_rejects_inadmissible_coeffs(capsys, golden_dir):
    code, _, err = run(
        capsys,
        "theorem1",
        "--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
        "--pair-b", golden(golden_dir, "pair_q2_len4.txt"),
        "--coeffs", "0,0,0,0",
    )
    assert code == 2
    assert "x0*conj(y0) + x1*conj(y1)" in err


def test_theorem1_rejects_imaginary_literal_for_binary(capsys, golden_dir):
    code, _, err = run(
        capsys,
        "theorem1",
        "--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
        "--pair-b", golden(golden_dir, "pair_q2_len4.txt"),
        "--coeffs", "1,i,1,i",
        "--complex",
    )
    assert code == 2
    assert err == "error: input: i is not a root of unity for q=2\n"


def test_a_coeffs_list_that_starts_with_minus_takes_the_equals_form(capsys, golden_dir):
    # after a space argparse reads "-1,..." as an option; --coeffs=<list> passes it whole
    pairs = ["--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
             "--pair-b", golden(golden_dir, "pair_q2_len4.txt")]
    outputs = []
    for argv in (["--coeffs=-1,0,0,0"], ["--coeffs=-1,1,1,1", "--complex"],
                 ["--coeffs", "1,0,0,0"]):
        code, out, err = outcome(capsys, ["theorem1", *pairs, *argv])
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    for argv in (["--coeffs", "-1,0,0,0"], ["--complex", "--coeffs", "-1,1,1,1"]):
        assert outcome(capsys, ["theorem1", *pairs, *argv]) == (
            2, "", "error: usage: argument --coeffs: expected one argument\n")


def test_theorem2_takes_the_same_literals(capsys, golden_dir):
    outputs = []
    for coeffs, flags in (("1,-1,-1,1,1,1", ["--complex"]), ("0,1,1,0,0,0", [])):
        code, out, err = run(capsys, "theorem2", "--pair", golden(golden_dir, "pair_q2_len8.txt"),
                             "--set", golden(golden_dir, "cs4_q2_len5.txt"), "--coeffs", coeffs,
                             *flags)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == serialize_set(load_golden("cs8_q2_len13.txt"))


def test_theorem1_takes_imaginary_literals_for_quaternary(capsys, tmp_path):
    # at q = 4 each literal is a root: 1, i, -1, -i are exponents 0, 1, 2, 3
    for length in (3, 5):
        assert main(["gcp", "--q", "4", "--len", str(length),
                     "--out", str(tmp_path / f"p{length}.txt")]) == 0
    capsys.readouterr()
    outputs = []
    for coeffs, flags in (("i,-1,1,-i", ["--complex"]), ("1,2,0,3", [])):
        code, out, err = run(capsys, "theorem1", "--pair-a", str(tmp_path / "p3.txt"),
                             "--pair-b", str(tmp_path / "p5.txt"), "--coeffs", coeffs, *flags)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    cs, _ = parse_set(outputs[0])
    assert (cs.q, cs.size, cs.length) == (4, 4, 8) and verify(cs).is_cs


def test_theorem2_reproduces_packaged_output(capsys, golden_dir, tmp_path):
    out_file = tmp_path / "cs.txt"
    code, _, _ = run(
        capsys,
        "theorem2",
        "--pair", golden(golden_dir, "pair_q2_len8.txt"),
        "--set", golden(golden_dir, "cs4_q2_len5.txt"),
        "--coeffs", "0,1,1,0,0,0",
        "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_bytes() == (golden_dir / "cs8_q2_len13.txt").read_bytes()


def test_theorem2_rejects_non_gcp_pair_input(capsys, golden_dir, tmp_path):
    bad = tmp_path / "notgcp.txt"
    bad.write_text("q=2 rows=2 len=2\n00\n00\n")
    code, _, err = run(
        capsys,
        "theorem2",
        "--pair", str(bad),
        "--set", golden(golden_dir, "cs4_q2_len5.txt"),
        "--coeffs", "0,1,1,0,0,0",
    )
    assert code == 2
    assert "not a complementary set" in err


def test_stack_doubles_set_size(capsys, golden_dir, tmp_path):
    out_file = tmp_path / "stacked.txt"
    path = golden(golden_dir, "cs4_q2_len14.txt")
    code, _, _ = run(capsys, "stack", path, path, "--out", str(out_file))
    assert code == 0
    cs, _ = read_set_file(out_file)
    assert cs.size == 8 and cs.length == 14


def count_aacf(monkeypatch) -> list:
    """The rows `aacf` is called on from now on, wherever cskit verifies."""
    correlated = []
    aacf = verify_module.aacf
    monkeypatch.setattr(verify_module, "aacf", lambda row: correlated.append(row) or aacf(row))
    return correlated


def test_construction_inputs_are_verified_in_one_batch(capsys, golden_dir, tmp_path,
                                                        monkeypatch):
    # one pass over the inputs and the output correlates each distinct row
    # once: the same pair as --pair-a and --pair-b costs 2 autocorrelations
    # plus 4 for the output rows; a stack's output rows are its inputs'
    # rows, so a set stacked on itself costs 4, and two sets with 8
    # distinct rows cost 8, whether the inputs come verified or not
    paths = [golden(golden_dir, name)
             for name in ("pair_q2_len10.txt", "pair_q2_len4.txt", "cs4_q2_len14.txt")]
    pair10, pair4, set14 = (ensure_verified(read_set_file(path)[0]) for path in paths)
    other = cs4_from_pairs(pair10, pair4, Coeffs4(1, 1, 1, 0))
    assert len(set(set14.rows + other.rows)) == 8
    other_path = tmp_path / "other.txt"
    other_path.write_text(serialize_set(other))
    correlated = count_aacf(monkeypatch)
    expected, counts = [], []
    for build in (lambda: cs4_from_pairs(pair10, pair10, Coeffs4(0, 0, 0, 1)),
                  lambda: stack([set14, set14]), lambda: stack([set14, other])):
        correlated.clear()
        expected.append(serialize_set(build()))
        counts.append(len(correlated))
    assert counts == [4, 4, 8]  # verified inputs: the output rows only
    outputs, counts = [], []
    for argv in (["theorem1", "--pair-a", paths[0], "--pair-b", paths[0], "--coeffs", "0,0,0,1"],
                 ["stack", paths[2], paths[2]], ["stack", paths[2], str(other_path)]):
        correlated.clear()
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        counts.append(len(correlated))
        outputs.append(out)
    assert counts == [6, 4, 8]
    assert outputs == expected


def test_a_failing_input_is_correlated_once(capsys, golden_dir, tmp_path, monkeypatch):
    # the defect shift is read from the sums that rejected the set, so a bad
    # 4-row set after a good pair costs the pair's 2 rows and its own 4
    bad = tmp_path / "bad.txt"
    bad.write_text("q=2 rows=4 len=5\n00000\n00001\n00010\n00100\n")
    correlated = count_aacf(monkeypatch)
    code, out, err = run(capsys, "theorem2", "--pair", golden(golden_dir, "pair_q2_len8.txt"),
                         "--set", str(bad), "--coeffs", "0,1,1,0,0,0")
    assert (code, out, len(correlated)) == (2, "", 6)
    assert err == "error: input: not a complementary set: first defect at shift 1\n"


def test_shape_mismatches_exit2_before_any_correlation(capsys, golden_dir, tmp_path,
                                                       monkeypatch):
    # alphabets, lengths and row counts are read from the loaded rows, and the
    # coefficients from --coeffs, so a mismatch or a bad coefficient exits 2
    # with its one-line message before any input is verified
    pair10, pair4, pair8, set5, set14 = (golden(golden_dir, name) for name in (
        "pair_q2_len10.txt", "pair_q2_len4.txt", "pair_q2_len8.txt", "cs4_q2_len5.txt",
        "cs4_q2_len14.txt"))
    quaternary = tmp_path / "q4.txt"
    quaternary.write_text("q=4 rows=4 len=14\n" + "01230123012301\n" * 4)
    pair_q4 = tmp_path / "pair_q4.txt"
    pair_q4.write_text("q=4 rows=2 len=1\n0\n0\n")
    correlated = count_aacf(monkeypatch)
    cases = [
        (["stack", str(quaternary), set14], "stacked sets must share one alphabet"),
        (["stack", set14, set5], "stacked sets must share one length"),
        (["theorem1", "--pair-a", pair10, "--pair-b", str(pair_q4), "--coeffs", "0,0,0,1"],
         "both pairs must share one alphabet"),
        (["theorem2", "--pair", pair10, "--set", pair4, "--coeffs", "0,1,1,0,0,0"],
         "set4 must have exactly 4 rows, got 2"),
        (["theorem2", "--pair", str(pair_q4), "--set", set5, "--coeffs", "0,1,1,0,0,0"],
         "pair and set4 must share one alphabet"),
        (["theorem1", "--pair-a", set5, "--pair-b", pair4, "--coeffs", "0,0,0,1"],
         "pair_a must have exactly 2 rows, got 4"),
    ]
    # both concatenation commands parse --coeffs into their record alike
    for inputs, count in ((["theorem1", "--pair-a", pair10, "--pair-b", pair4], 4),
                          (["theorem2", "--pair", pair8, "--set", set5], 6)):
        cases += [
            ([*inputs, "--coeffs", "0,0,0"],
             f"expected {count} comma-separated coefficients, got 3"),
            ([*inputs, "--coeffs", "0," * (count - 1) + "x"],
             "bad coefficient exponent: invalid literal for int() with base 10: 'x'"),
            ([*inputs, "--complex", "--coeffs", "1," * (count - 1) + "j"],
             "bad complex literal 'j' (use 1, -1, i, -i)"),
            ([*inputs, "--complex", "--coeffs", "1," * (count - 1) + "i"],
             "i is not a root of unity for q=2"),
        ]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", f"error: input: {message}\n")
    # inadmissible coefficients are named before a non-complementary input
    not_cs = tmp_path / "not_cs.txt"
    not_cs.write_text("q=2 rows=2 len=2\n00\n00\n")
    code, _, err = run(capsys, "theorem1", "--pair-a", str(not_cs), "--pair-b", pair4,
                       "--coeffs", "0,0,0,0")
    assert code == 2 and err.startswith("error: input: inadmissible coefficients: ")
    assert correlated == []


def test_gcp_prints_chain(capsys, tmp_path):
    out_file = tmp_path / "pair.txt"
    code, out, _ = run(capsys, "gcp", "--q", "2", "--len", "52", "--out", str(out_file))
    assert (code, out) == (0, "derivation: double(seed(q=2, len=26))\n")
    cs, _ = read_set_file(out_file)
    assert cs.size == 2 and cs.length == 52


@pytest.mark.parametrize(
    "q,length,chain",
    [
        (2, 1, "seed(q=2, len=1)"),
        (2, 2, "seed(q=2, len=2)"),
        (4, 1, "seed(q=4, len=1)"),
        (4, 4, "turyn(seed(q=2, len=2), seed(q=4, len=2))"),
        (4, 1040, "turyn(double(double(double(seed(q=2, len=10)))), seed(q=4, len=13))"),
    ],
)
def test_gcp_derivation_line(capsys, q, length, chain):
    code, out, _ = run(capsys, "gcp", "--q", str(q), "--len", str(length))
    assert code == 0
    assert out.splitlines()[:2] == [f"derivation: {chain}", f"q={q} rows=2 len={length}"]


@pytest.mark.parametrize(
    "q,length,reason",
    [
        (2, 3, "3 is not of the form 2^a * 10^b * 26^c"),
        (
            4,
            18,
            "length reachable in principle (2^(1+0) * 3^2 * 5^0 * 11^0 * 13^0 satisfies the "
            "existence pattern), but no construction path is available from the shipped seeds",
        ),
        (
            4,
            29,
            "29 is not of the form 2^(a+u) * 3^b * 5^c * 11^e * 13^z "
            "with b+c+e+z <= a+2u+1 and u <= c+z",
        ),
    ],
)
def test_gcp_unavailable_line(capsys, q, length, reason):
    code, out, err = run(capsys, "gcp", "--q", str(q), "--len", str(length))
    assert (code, out, err) == (1, f"no q={q} pair of length {length}: {reason}\n", "")


def test_gcp_unavailable_exit1(capsys):
    code, out, _ = run(capsys, "gcp", "--q", "2", "--len", "3")
    assert code == 1
    assert "2^a * 10^b * 26^c" in out


def test_gcp_len_above_cap_exit3_before_any_work(capsys, monkeypatch):
    # the stub records the calls that pass the cap; no real call above it runs
    called = []

    def stub(q, length):
        called.append(length)
        return GcpLookup(q, length, reason="stub")

    monkeypatch.setattr(cli, "gcp_for_length", stub)
    cap = cli.GCP_LEN_CAP
    code, out, err = run(capsys, "gcp", "--q", "2", "--len", str(cap + 1))
    assert (code, out, called) == (3, "", [])
    assert err == f"error: work-bound: gcp --len {cap + 1} is above the cap of {cap}\n"
    code, out, _ = run(capsys, "gcp", "--q", "2", "--len", str(cap))
    assert (code, called) == (1, [cap])
    assert out == f"no q=2 pair of length {cap}: stub\n"


def test_enumerate_table_and_diff(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--size", "4", "--max", "34", "--table1")
    assert code == 0
    assert "reference-row diff: extras=[2, 32] missing=[]" in out
    assert "constructive" in out


def test_enumerate_json_records(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "4", "--size", "8", "--max", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    lengths = [e["length"] for e in payload["lengths"]]
    assert lengths == [2] + list(range(3, 14))
    assert all("witness" in e for e in payload["lengths"])


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("max_len", [1, 2, 3, 34, 600])
def test_enumerate_json_is_the_dumped_document(capsys, q, size, max_len):
    # written a slice at a time, the document is still json.dumps of the whole
    code, out, _ = run(capsys, "enumerate", "--q", str(q), "--size", str(size),
                       "--max", str(max_len), "--json")
    records = [
        {"length": e.length,
         "witness": {"kind": e.witness.kind, "operands": list(e.witness.operands)},
         "constructive": e.constructive}
        for e in reachable_lengths(q, size, max_len).entries
    ]
    assert code == 0
    assert out == json.dumps({"q": q, "size": size, "max": max_len, "lengths": records}) + "\n"
    assert (records == []) == (max_len == 1)


def test_enumerate_max_above_cap_exit3_before_any_work(capsys, monkeypatch):
    # the stub records the calls that pass the cap; no real call above it runs
    called = []

    def stub(q, size, max_len):
        called.append(max_len)
        return ReachabilitySet(q, size, max_len, ())

    monkeypatch.setattr(cli, "reachable_lengths", stub)
    cap = cli.ENUMERATE_MAX_CAP
    code, out, err = run(capsys, "enumerate", "--q", "4", "--size", "8", "--max", str(cap + 1))
    assert (code, out, called) == (3, "", [])
    assert err == f"error: work-bound: enumerate --max {cap + 1} is above the cap of {cap}\n"
    code, out, _ = run(capsys, "enumerate", "--q", "4", "--size", "8", "--max", str(cap))
    assert (code, called) == (0, [cap])
    assert out == f"q=4 size=8 max={cap}: 0 lengths\n"


@pytest.mark.parametrize(
    ("argv", "err"),
    [
        (["--q", "3", "--size", "4", "--max", "10"],
         "error: input: no pattern data for q=3 (supported: 2, 4)\n"),
        (["--q", "2", "--size", "4", "--max", "0"], "error: input: max length must be >= 1\n"),
    ],
)
def test_enumerate_pattern_errors_exit2(capsys, argv, err):
    assert run(capsys, "enumerate", *argv) == (2, "", err)


def test_search_shape_above_cap_exit3_before_any_work(capsys, monkeypatch):
    # the stub records the calls that pass the cap; no real call above it runs
    called = []

    def stub(q, size, length, limit, work_bound):
        called.append((size, length))
        return SearchResult(q, size, length, (), True, 0)

    monkeypatch.setattr(cli, "search_cs", stub)
    cap = cli.SEARCH_SHAPE_CAP
    assert cap == 2 * 1000**2
    # the norm test refutes (2, 1001) at once, yet above the cap it exits 3 too
    for size, length in ((2, 1001), (3, 1000), (cap + 1, 1)):
        code, out, err = run(capsys, "search", "--q", "2", "--size", str(size), "--len", str(length))
        assert (code, out, called) == (3, "", [])
        assert err == (f"error: work-bound: search --size {size} --len {length} is above "
                       f"the cap of {cap} for size * len^2\n")
    assert run(capsys, "search", "--q", "2", "--size", "2", "--len", "1000") == (0, "", "")
    assert called == [(2, 1000)]


def test_search_slots_above_cap_exit3_before_any_work(capsys, monkeypatch):
    # size * len bounds the per-slot state at length 1, where size * len^2 does not
    called = []

    def stub(q, size, length, limit, work_bound):
        called.append((size, length))
        return SearchResult(q, size, length, (), True, 0)

    monkeypatch.setattr(cli, "search_cs", stub)
    cap = cli.SEARCH_SLOT_CAP
    assert cap == 2**16
    for size, length in ((cap + 1, 1), (cap // 2 + 1, 2)):
        code, out, err = run(capsys, "search", "--q", "2", "--size", str(size), "--len", str(length))
        assert (code, out, called) == (3, "", [])
        assert err == (f"error: work-bound: search --size {size} --len {length} is above "
                       f"the cap of {cap} for size * len\n")
    # the deep probe and the largest pair shape still run
    for size, length in ((cap, 1), (1100, 2), (2, 1000)):
        assert run(capsys, "search", "--q", "2", "--size", str(size), "--len", str(length)) == (0, "", "")
    assert called == [(cap, 1), (1100, 2), (2, 1000)]


def test_search_streams_sets(capsys):
    code, out, _ = run(capsys, "search", "--q", "4", "--size", "2", "--len", "3")
    assert code == 0
    assert "q=4 rows=2 len=3" in out
    first_block = "\n".join(out.splitlines()[:3]) + "\n"
    cs, _ = parse_set(first_block)
    assert cs.size == 2


def test_search_empty_result(capsys):
    code, out, _ = run(capsys, "search", "--q", "2", "--size", "2", "--len", "3")
    assert code == 0
    assert out == ""


def test_search_limit_notes_incompleteness(capsys):
    code, out, err = run(
        capsys, "search", "--q", "2", "--size", "4", "--len", "4", "--limit", "2"
    )
    assert code == 0
    assert out.count("q=2 rows=4 len=4") == 2
    assert "incomplete" in err


def test_search_deep_probe_returns_one_set(capsys):
    # 1100 slots deep: beyond the interpreter's default recursion limit
    code, out, err = run(
        capsys, "search", "--q", "2", "--size", "1100", "--len", "2", "--limit", "1"
    )
    assert code == 0
    cs, _ = parse_set(out)
    assert cs.size == 1100
    assert verify(cs).is_cs
    assert err == "incomplete: stopped after 1 sets\n"


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["frob"], "argument command: invalid choice: 'frob' (choose from"),
    (["search", "--q", "2"], "the following arguments are required: --size, --len"),
    (["seeds", "list", "--q", "x"], "argument --q: invalid int value: 'x'"),
    (["gcp", "--q", "2", "--len", "4", "a\nb"], "unrecognized arguments: a b"),
])
def test_usage_errors_print_one_line_and_exit2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("error: usage: " + message)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("columns", ["80", "120"])
@pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in COMMANDS),
                                  ["seeds", "list", "--help"], ["frob"],
                                  ["search", "--q", "2"], ["gcp", "--q", "x", "--len", "4"]])
def test_help_and_usage_errors_match_the_default_argparse_parser(capsys, monkeypatch,
                                                                 columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", oracle_build_parser)
    assert got == outcome(capsys, argv)
    assert got[0] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize("argv", [["gcp", "--q", "2", "--len", "4"], ["search", "--q", "2"]])
def test_a_call_reads_the_terminal_size_once_and_every_call_reads_it(capsys, monkeypatch,
                                                                    argv):
    reads = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: reads.append(a) or size(*a))
    outcome(capsys, argv)
    assert len(reads) == 1
    heights = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        heights.append(outcome(capsys, ["--help"])[1].count("\n"))
    assert len(reads) == 3
    assert heights[0] > heights[1]  # the usage line wraps at 80 columns, not at 120


def test_search_limit_below_one_exit2(capsys):
    code, out, err = run(
        capsys, "search", "--q", "2", "--size", "2", "--len", "2", "--limit", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: input: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("length", [3, 24])
def test_search_negative_work_bound_exit2(capsys, length):
    # length 24 is refuted before any node, so it would pass any bound
    code, out, err = run(capsys, "search", "--q", "2", "--size", "2", "--len", str(length),
                         "--work-bound", "-1")
    assert (code, out, err) == (2, "", "error: input: work bound must be >= 0, got -1\n")


def test_search_work_bound_exit3(capsys):
    code, _, err = run(
        capsys, "search", "--q", "2", "--size", "4", "--len", "4", "--work-bound", "10"
    )
    assert code == 3
    assert "work bound" in err


def test_search_refuted_shape_passes_any_work_bound(capsys):
    # the norm test refutes length 24 before the search visits a node
    code, out, err = run(
        capsys, "search", "--q", "2", "--size", "2", "--len", "24", "--work-bound", "1"
    )
    assert (code, out, err) == (0, "", "")


def test_search_q_above_text_format_exit2_before_searching(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "search_cs", lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "search", "--q", "12", "--size", "2", "--len", "3")
    assert code == 2
    assert out == ""
    assert err == "error: input: alphabet order must be in [1, 10], got 12\n"
    assert calls == []


def test_papr_rows(capsys, golden_dir):
    code, out, _ = run(capsys, "papr", golden(golden_dir, "pair_q2_len10.txt"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("papr=" in line for line in lines)


def test_papr_json(capsys, golden_dir):
    code, out, _ = run(
        capsys, "papr", golden(golden_dir, "cs4_q2_len14.txt"), "--json",
        "--oversample", "8",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert all(r["papr"] <= 4 + 1e-9 for r in rows)
    assert all(r["oversample"] == 8 for r in rows)


def test_papr_grid_above_cap_exit3_before_any_work(capsys, golden_dir, monkeypatch):
    # the stub records the calls that pass the cap; no real call above it runs
    called = []

    def stub(row, oversample):
        called.append(oversample)
        return PaprResult(1.0, 0.0, oversample)

    monkeypatch.setattr(cli, "papr", stub)
    cap = cli.PAPR_GRID_CAP
    path = golden(golden_dir, "pair_q2_len10.txt")
    over = cap // 10 + 1
    code, out, err = run(capsys, "papr", path, "--oversample", str(over))
    assert (code, out, called) == (3, "", [])
    assert err == (f"error: work-bound: papr --oversample {over} on length 10 is above "
                   f"the cap of {cap} grid points\n")
    code, _, _ = run(capsys, "papr", path, "--oversample", str(over - 1))
    assert (code, called) == (0, [over - 1, over - 1])


def test_pretty_rendering(capsys, golden_dir):
    code, out, _ = run(
        capsys,
        "theorem1",
        "--pair-a", golden(golden_dir, "pair_q2_len10.txt"),
        "--pair-b", golden(golden_dir, "pair_q2_len4.txt"),
        "--coeffs", "0,0,0,1",
        "--pretty",
    )
    assert code == 0
    assert out.splitlines()[0] == "++--+++-+-++-+"


def test_a_glyph_stdout_cannot_encode_exits2_with_one_line(capsys, monkeypatch):
    # -i renders as a non-ASCII glyph; an ASCII stdout refuses it like a failed write
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["gcp", "--q", "4", "--len", "5", "--pretty"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: input: 'ascii' codec can't encode character '\\xee'")
    assert err.count("\n") == 1 and "Traceback" not in err
    stdout.flush()
    assert stdout.buffer.getvalue().startswith(b"derivation: ")


def test_seeds_list(capsys):
    code, out, _ = run(capsys, "seeds", "list", "--q", "4")
    assert code == 0
    for length in (1, 2, 3, 5, 11, 13):
        assert f"len={length:3d}" in out


@pytest.mark.parametrize("q", [0, 3])
def test_seeds_list_unknown_alphabet_exit2(capsys, q):
    code, out, err = run(capsys, "seeds", "list", "--q", str(q))
    assert (code, out, err) == (2, "", f"error: input: no seeds for q={q} (supported: 2, 4)\n")


SELFTEST_OUT = """\
ok: 4 q=2 seeds verify
ok: 6 q=4 seeds verify
ok: pair_q2_len10.txt verifies
ok: pair_q2_len4.txt verifies
ok: pair_q2_len8.txt verifies
ok: cs4_q2_len5.txt verifies
ok: cs4_q2_len14.txt verifies
ok: cs8_q2_len13.txt verifies
ok: size-4 golden reconstruction is byte-identical
ok: size-8 golden reconstruction is byte-identical
selftest: all checks passed
"""


def test_selftest_passes_on_clean_checkout(capsys):
    assert run(capsys, "selftest") == (0, SELFTEST_OUT, "")


@pytest.mark.parametrize("what, build, first, second, coeffs, name, other", [
    ("size-4", cs4_from_pairs, "pair_q2_len10.txt", "pair_q2_len4.txt",
     Coeffs4(0, 0, 1, 0), "cs4_q2_len14.txt", "size-8"),
    ("size-8", cs8_from_pair_and_set, "pair_q2_len8.txt", "cs4_q2_len5.txt",
     Coeffs8(0, 0, 1, 1, 0, 0), "cs8_q2_len13.txt", "size-4"),
])
def test_selftest_names_a_golden_its_rebuild_differs_from(
    capsys, golden_dir, tmp_path, what, build, first, second, coeffs, name, other
):
    # the golden is replaced by a verified set of its shape, built from the
    # same inputs with other admissible coefficients
    shutil.copytree(golden_dir, tmp_path / "golden")
    path = tmp_path / "golden" / name
    original = path.read_bytes()
    write_set_file(path, build(load_golden(first), load_golden(second), coeffs))
    assert path.read_bytes() != original
    assert cli._selftest_golden(tmp_path) == [f"{what} golden reconstruction differs"]
    verifies = [line for line in SELFTEST_OUT.splitlines(True) if line.endswith("verifies\n")]
    ok = f"ok: {other} golden reconstruction is byte-identical\n"
    assert capsys.readouterr().out == "".join(verifies) + ok


def test_selftest_names_a_golden_file_that_is_not_utf8(capsys, golden_dir, tmp_path):
    shutil.copytree(golden_dir, tmp_path / "golden")
    path = tmp_path / "golden" / "pair_q2_len4.txt"
    data = bytearray(path.read_bytes())
    data[22] = 0xFF  # the first entry of the second row
    path.write_bytes(bytes(data))
    failures = cli._selftest_golden(tmp_path)
    assert failures == ["pair_q2_len4.txt: byte 0xff is not UTF-8 (line 3, column 1)"]
    out = capsys.readouterr().out
    assert out.count("verifies\n") == 5 and "reconstruction" not in out


@pytest.mark.parametrize("text, failure", [
    ("q=2 rows=2 len=3\n000\n001\n", "wrong shape"),
    ("q=2 rows=2 len=4\n0000\n0000\n", "failed verification"),
    # the reader refuses a header above a cap, and a file longer than its header allows
    pytest.param(f"q=2 rows=2 len={setio.SET_LEN_CAP + 1}\n",
                 f"row length {setio.SET_LEN_CAP + 1} is above the cap of {setio.SET_LEN_CAP}",
                 id="above-a-cap"),
    pytest.param("q=2 rows=2 len=4\n" + "# note\n" * 10_000 + "0000\n0001\n",
                 "longer than q=2 rows=2 len=4 and its notes", id="longer-file"),
])
def test_selftest_names_a_golden_of_the_wrong_shape_or_not_complementary(
    capsys, golden_dir, tmp_path, text, failure
):
    shutil.copytree(golden_dir, tmp_path / "golden")
    path = tmp_path / "golden" / "pair_q2_len4.txt"
    path.write_text(text)
    # the file is named once, by its name, as in every other failure line
    assert cli._selftest_golden(tmp_path) == [f"pair_q2_len4.txt: {failure}"]
    out = capsys.readouterr().out
    assert out.count("verifies\n") == 5 and "reconstruction" not in out


def test_selftest_prints_a_fail_line_per_failed_check_and_exits1(capsys, monkeypatch, tmp_path):
    # no seed directory at all: each alphabet's files are reported missing
    monkeypatch.setattr(seeds, "_default_seed_dir", lambda: tmp_path / "absent")
    load_seeds.cache_clear()
    try:
        result = run(capsys, "selftest")
    finally:
        load_seeds.cache_clear()
    golden_lines = SELFTEST_OUT.splitlines(True)[2:-1]  # the golden checks still run
    fails = [f"FAIL: missing q={q} seed files for lengths {sorted(SEED_LENGTHS[q])}\n"
             for q in (2, 4)]
    assert result == (1, "".join(golden_lines + fails), "")


def test_set_file_row_length_above_cap_exit3_before_any_verification(
    capsys, tmp_path, monkeypatch
):
    # the stub records the sets that pass the cap; no real verification runs
    called = []

    def stub(cs):
        called.append(cs.length)
        raise InputError("stub")

    monkeypatch.setattr(cli, "verify", stub)
    cap = setio.SET_LEN_CAP
    assert cap >= 3 * cli.GCP_LEN_CAP  # theorem2 on a capped pair and set4
    above, at = tmp_path / "above.txt", tmp_path / "at.txt"
    above.write_text(f"q=4 rows=1 len={cap + 1}\n{'3' * (cap + 1)}\n")
    at.write_text(f"q=4 rows=1 len={cap}\n{'3' * cap}\n")
    code, out, err = run(capsys, "verify", str(above))
    assert (code, out, called) == (3, "", [])
    assert err == f"error: work-bound: {above}: row length {cap + 1} is above the cap of {cap}\n"
    code, _, err = run(capsys, "verify", str(at))
    assert (code, err, called) == (2, "error: input: stub\n", [cap])


def test_set_file_caps_are_read_from_the_header(capsys, tmp_path):
    # garbage rows: a file above a cap exits 3 before any row is parsed, and
    # one at the caps reaches the parser (exit 2)
    cap, entries = setio.SET_LEN_CAP, setio.SET_ENTRY_CAP
    assert entries == 8 * cap  # theorem2 writes 8 rows
    cases = [
        (f"q=2 rows=1 len={cap + 1}", f"row length {cap + 1} is above the cap of {cap}"),
        (f"q=2 rows=9 len={cap}",
         f"9 rows of length {cap} are above the cap of {entries} entries"),
        (f"q=2 rows={entries + 1} len=1",
         f"{entries + 1} rows of length 1 are above the cap of {entries} entries"),
    ]
    for header, message in cases:
        path = tmp_path / "above.txt"
        path.write_text(f"{header}\nx\n")
        expected = (3, "", f"error: work-bound: {path}: {message}\n")
        assert run(capsys, "verify", str(path)) == expected
    for header in (f"q=2 rows=8 len={cap}", f"q=2 rows={entries} len=1"):
        path = tmp_path / "at.txt"
        path.write_text(f"{header}\nx\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and err.startswith("error: input: ") and "(line 2, column" in err


def test_a_set_file_is_read_no_further_than_its_header_allows(capsys, tmp_path, monkeypatch):
    # its rows, each with a \r\n, and SET_NOTE_BYTES of notes load; one byte more is refused
    monkeypatch.setattr(setio, "SET_NOTE_BYTES", 10)
    path = tmp_path / "set.txt"
    for note, expected in (("# 123456", (0, "")), ("# 1234567", (
            2, f"error: input: {path}: longer than q=2 rows=2 len=2 and its notes\n"))):
        path.write_bytes(f"q=2 rows=2 len=2\r\n{note}\r\n00\r\n01\r\n".encode())
        code, _, err = run(capsys, "verify", str(path))
        assert (code, err) == expected


def test_outputs_above_the_set_caps_exit3_before_anything_is_built(
    capsys, tmp_path, monkeypatch, golden_dir
):
    # caps so small that the golden inputs meet them but the outputs may not:
    # above a cap no file is written, no row is correlated and no
    # constructor runs; at both caps the set is built and written
    called = []
    for name in ("cs4_from_pairs", "cs8_from_pair_and_set", "stack"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _name=name:
                            called.append(_name) or _real(*a))
    correlated = count_aacf(monkeypatch)
    pair, set5, set14 = (golden(golden_dir, name) for name in
                         ("pair_q2_len10.txt", "cs4_q2_len5.txt", "cs4_q2_len14.txt"))
    out = tmp_path / "out.txt"
    cases = [
        (["theorem1", "--pair-a", pair, "--pair-b", pair, "--coeffs", "0,0,0,1"], 4, 20),
        (["theorem2", "--pair", pair, "--set", set5, "--coeffs", "0,1,1,0,0,0"], 8, 15),
        (["stack", set14, set14], 8, 14),  # the output length is an input's, within its cap
    ]
    for argv, rows, length in cases:
        entries = rows * length
        above = [(length, entries - 1,
                  f"{rows} rows of length {length} are above the cap of {entries - 1} entries")]
        if argv[0] != "stack":
            above.append((length - 1, entries,
                          f"row length {length} is above the cap of {length - 1}"))
        for len_cap, entry_cap, message in above:
            monkeypatch.setattr(setio, "SET_LEN_CAP", len_cap)
            monkeypatch.setattr(setio, "SET_ENTRY_CAP", entry_cap)
            expected = (3, "", f"error: work-bound: {argv[0]} output: {message}\n")
            assert run(capsys, *argv, "--out", str(out)) == expected
            assert called == [] and correlated == [] and not out.exists()
        monkeypatch.setattr(setio, "SET_LEN_CAP", length)
        monkeypatch.setattr(setio, "SET_ENTRY_CAP", entries)
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        built = read_set_file(out)[0]
        assert (built.size, built.length) == (rows, length) and called and correlated
        out.unlink()
        called.clear()
        correlated.clear()
    # stacked inputs of different lengths have no output shape: exit 2, as without caps
    monkeypatch.setattr(setio, "SET_LEN_CAP", 14)
    monkeypatch.setattr(setio, "SET_ENTRY_CAP", 56)
    code, _, err = run(capsys, "stack", set5, set14, "--out", str(out))
    assert (code, err) == (2, "error: input: stacked sets must share one length\n")
    assert not out.exists()
    # a 4-row --pair-a meets the caps first: exit 3 above them, 2 at them
    called.clear()
    argv = ["theorem1", "--pair-a", set14, "--pair-b", pair, "--coeffs", "0,0,0,1"]
    monkeypatch.setattr(setio, "SET_LEN_CAP", 23)
    monkeypatch.setattr(setio, "SET_ENTRY_CAP", 96)
    assert run(capsys, *argv) == (
        3, "", "error: work-bound: theorem1 output: row length 24 is above the cap of 23\n")
    monkeypatch.setattr(setio, "SET_LEN_CAP", 24)
    assert run(capsys, *argv) == (2, "", "error: input: pair_a must have exactly 2 rows, got 4\n")
    assert called == ["cs4_from_pairs"] and correlated == []


# ---------------------------------------------------------------------------
# Fuzzing: every invocation ends with an exit code and a message, never a
# traceback. Sizes stay small so that each call runs in milliseconds.

SMALL = st.integers(-3, 12).map(str)
ODD = st.sampled_from(["99999999", "1e3", "", "x", "--q"]) | st.text(max_size=4)
VALUE = st.one_of(SMALL, SMALL, SMALL, ODD)


@st.composite
def set_file_bytes(draw):
    # a well-formed file of a small shape, often complementary by chance,
    # then maybe cut, given a byte that is not UTF-8, or replaced
    q, rows, length = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    digits = "0123456789"[:q]
    body = [draw(st.text(alphabet=digits, min_size=length, max_size=length)) for _ in range(rows)]
    raw = (f"q={q} rows={rows} len={length}\n" + "\n".join(body) + "\n").encode()
    cut = draw(st.integers(0, len(raw)))
    return draw(st.sampled_from([raw, raw, raw[:cut], raw[:cut] + b"\xff" + raw[cut:]])
                | st.binary(max_size=40))


def read_outcome(read):
    """(rows, q, note) of a read, or the type and message of its error."""
    try:
        cs, note = read()
    except InputError as exc:
        return type(exc), str(exc)
    return tuple(row.exponents for row in cs.rows), cs.q, note


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=set_file_bytes())
@example(data=b"\n\xff")  # a bad header line, and a byte after it that is not UTF-8
def test_read_set_file_reads_what_parse_set_parses(tmp_path, data):
    path = tmp_path / "set.txt"
    path.write_bytes(data)

    def from_bytes():
        # the header line, as readline gives it, is checked before the bytes after it decode
        setio.parse_header(setio.decode_text(io.BytesIO(data).readline()))
        return parse_set(setio.decode_text(data))

    assert read_outcome(lambda: read_set_file(path)) == read_outcome(from_bytes)
    assert read_outcome(lambda: read_set_file(str(path))) == read_outcome(from_bytes)


@st.composite
def argv(draw, files, bad):
    # files: two set files and an output path; bad: paths the OS refuses
    command = draw(st.sampled_from(COMMANDS))
    coeffs = st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "i", "-i", "x"]),
                      min_size=3, max_size=7).map(",".join)

    def flag(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    def path(i):
        return draw(st.sampled_from([files[i]] * 3 + bad))

    def out():
        return flag("--out", draw(st.sampled_from([files[2]] + bad)))

    if command == "verify":
        args = [path(0)] + flag("--report", draw(st.sampled_from(["text", "json", "csv"])))
    elif command == "papr":
        args = [path(0), "--oversample", draw(VALUE)] + flag("--json")
    elif command == "stack":
        args = [path(i) for i in range(draw(st.integers(1, 2)))] + flag("--pretty") + out()
    elif command == "theorem1":
        args = ["--pair-a", path(0), "--pair-b", path(1), "--coeffs", draw(coeffs)]
        args += flag("--complex") + flag("--pretty") + out()
    elif command == "theorem2":
        args = ["--pair", path(0), "--set", path(1), "--coeffs", draw(coeffs)]
        args += flag("--complex") + out()
    elif command == "gcp":
        args = ["--q", draw(VALUE), "--len", draw(VALUE)] + flag("--pretty") + out()
    elif command == "enumerate":
        size = draw(st.sampled_from(["4", "8"]) | VALUE)
        args = ["--q", draw(VALUE), "--size", size, "--max", draw(SMALL)]
        args += flag("--table1") + flag("--json")
    elif command == "search":
        # --len and --size stay small: the search tables grow as their square
        args = ["--q", draw(SMALL), "--size", draw(SMALL), "--len", draw(SMALL),
                "--work-bound", str(draw(st.integers(-3, 2000)))]
        args += flag("--limit", draw(SMALL))
    elif command == "seeds":
        args = ["list"] + flag("--q", draw(VALUE))
    else:
        args = []
    tokens = [command] + args
    if draw(st.integers(0, 4)) == 0:  # drop a token or add a stray one
        at = draw(st.integers(0, len(tokens)))
        tokens = tokens[:at] + [draw(VALUE)] + tokens[at:] if draw(st.booleans()) else (
            tokens[:at] + tokens[at + 1:])
    return tokens


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_invocations_end_with_an_exit_code(capsys, tmp_path, data):
    files = []
    for i in range(2):
        path = tmp_path / f"fuzz{i}.txt"
        path.write_bytes(data.draw(set_file_bytes(), label=f"file{i}"))
        files.append(str(path))
    files.append(str(tmp_path / "out.txt"))
    plain = tmp_path / "plainfile"
    plain.write_text("not a directory\n")
    bad = [str(tmp_path / "missing.txt"), str(plain / "x"), str(tmp_path / ("a" * 5000))]
    tokens = data.draw(argv(files, bad), label="argv")
    code, _, err = outcome(capsys, tokens)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Memory: the CLI run in a child process (Linux).

# A forked child starts from its parent's peak RSS, and this test process is
# far larger than a cheap call, so a small launcher process runs the CLI and
# reports its exit code and peak RSS (ru_maxrss, in KiB on Linux).
LAUNCHER = """
import resource, subprocess, sys
limit = int(sys.argv[1]) << 20
def set_limit():  # the address-space limit applies to the child's process alone
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
proc = subprocess.run([sys.executable, *sys.argv[2:]],
                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                      preexec_fn=set_limit if limit else None)
sys.stderr.buffer.write(proc.stderr)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def child(*argv, limit_mb=0, python=("-m", "cskit.cli")):
    """(exit code, stderr, peak RSS in MB) of `python -m cskit.cli argv` run in a
    child process; `python` replaces `-m cskit.cli`, as ("-c", script) does."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", LAUNCHER, str(limit_mb), *python, *argv],
                            capture_output=True, text=True, env=env, check=True)
    code, kib = result.stdout.split()
    return int(code), result.stderr, int(kib) / 1024


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in KiB")


@linux_only
def test_out_of_memory_exits3_with_one_line():
    code, err, _ = child("search", "--q", "8", "--size", "2", "--len", "1000",
                         "--work-bound", "100000", limit_mb=400)
    assert code == 3
    assert err == "error: work-bound: search: out of memory\n"


@pytest.fixture(scope="module")
def small_call_peak():
    """The peak RSS in MB of `seeds list`, a cheap call, for scale."""
    code, err, peak = child("seeds", "list")
    assert (code, err) == (0, "")
    return peak


@pytest.fixture(scope="module")
def cap_files(tmp_path_factory):
    """(the capped q=4 pair, the 4 x 32,768 set theorem1 makes of it with itself)."""
    out = tmp_path_factory.mktemp("caps")
    pair = gcp_for_length(4, cli.GCP_LEN_CAP).pair
    write_set_file(out / "pair.txt", pair)
    write_set_file(out / "cs4.txt", cs4_from_pairs(pair, pair, Coeffs4(0, 0, 0, 2)))
    return out / "pair.txt", out / "cs4.txt"


@linux_only
def test_enumerate_json_at_its_cap_stays_near_a_small_call(small_call_peak):
    # the records are written as they are encoded, so the document is never held
    code, err, peak = child("enumerate", "--q", "4", "--size", "8",
                            "--max", str(cli.ENUMERATE_MAX_CAP), "--json")
    assert (code, err) == (0, "")
    assert peak - small_call_peak < 45, (small_call_peak, peak)


@linux_only
def test_theorem1_to_the_largest_size4_set_stays_near_a_small_call(tmp_path, small_call_peak,
                                                                    cap_files):
    pair, _ = cap_files
    code, err, peak = child("theorem1", "--pair-a", str(pair), "--pair-b", str(pair),
                            "--coeffs", "0,0,0,2", "--out", str(tmp_path / "cs4.txt"))
    assert (code, err) == (0, "")
    assert peak - small_call_peak < 20, (small_call_peak, peak)


@pytest.fixture(scope="module")
def long_file(tmp_path_factory):
    """A 40 MB file whose header and first rows make a q=2 rows=2 len=4 set."""
    path = tmp_path_factory.mktemp("long") / "long.txt"
    with open(path, "wb") as fh:
        fh.write(b"q=2 rows=2 len=4\n0000\n0001\n")
        for _ in range(8):
            fh.write(b"0101\n" * (1 << 20))
    return path


@linux_only
@pytest.mark.parametrize("argv,margin,expected", [
    (("gcp", "--q", "4", "--len", str(cli.GCP_LEN_CAP)), 15, (0, "")),
    (("verify", "{cs4}"), 20, (0, "")),
    (("papr", "{cs4}", "--oversample", "64"), 130, (0, "")),
    (("verify", "{long}"), 15,
     (2, "error: input: {long}: longer than q=2 rows=2 len=4 and its notes\n")),
    (("verify", "/dev/zero"), 15,
     (2, "error: input: header must be 'q=<int> rows=<int> len=<int>' (line 1, column 1)\n")),
], ids=["gcp", "verify", "papr", "verify-long-file", "verify-dev-zero"])
def test_a_call_at_its_cap_stays_within_its_margin_of_a_small_call(small_call_peak, cap_files,
                                                                   long_file, argv, margin,
                                                                   expected):
    # README's "memory at the caps" table: 4, 8 and 116 MB above `seeds list`,
    # and about 0 for a refused file, read no further than its header allows.
    # The address-space limit turns a regression there into exit 3 instead of
    # exhausting memory.
    files = {"cs4": cap_files[1], "long": long_file}
    code, err, peak = child(*(arg.format(**files) for arg in argv),
                            limit_mb=400 if expected[0] else 0)
    assert (code, err) == (expected[0], expected[1].format(**files))
    assert peak - small_call_peak < margin, (small_call_peak, peak)


@linux_only
def test_the_library_reads_a_set_file_no_further_than_its_header_allows(small_call_peak,
                                                                        long_file):
    # cskit.read_set_file is the CLI's reader: the 40 MB file is refused after
    # its header's allowance, as `verify` refuses it
    script = ("import sys, cskit\n"
              "try:\n    cskit.read_set_file(sys.argv[1])\n"
              "except cskit.InputError as exc:\n    sys.exit(f'{type(exc).__name__}: {exc}')\n")
    code, err, peak = child(str(long_file), limit_mb=400, python=("-c", script))
    assert (code, err) == (1, f"InputError: {long_file}: longer than q=2 rows=2 len=4 "
                              "and its notes\n")
    assert peak - small_call_peak < 15, (small_call_peak, peak)
