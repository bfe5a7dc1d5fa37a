"""Command-line surface: subcommands, formats, exit codes."""

import json
import shutil

import pytest

from cskit.cli import main
from cskit.io import parse_set, read_set_file
from cskit.verify import verify

from helpers import rootsum_accf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_json_sum_profile_matches_rootsum_oracle(capsys, tmp_path):
    # q=3 gives non-Gaussian values; shifts 2 and 4 are exactly zero
    path = tmp_path / "q3.txt"
    path.write_text("q=3 rows=3 len=6\n122112\n002021\n202002\n")
    code, out, _ = run(capsys, "verify", str(path), "--report", "json")
    cs, _ = read_set_file(str(path))
    per_row = [rootsum_accf(row, row) for row in cs.rows]
    total = [sum(values[1:], values[0]) for values in zip(*per_row)][cs.length - 1:]
    assert code == 1
    assert [v.is_zero for v in total] == [False, False, True, False, True, False]
    assert json.loads(out)["sum_profile"] == [[v.to_complex().real, v.to_complex().imag] for v in total]


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


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_verify_missing_file_exit2(capsys, tmp_path, target):
    path = tmp_path / "nope.txt" if target == "missing" else tmp_path
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: input: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
    assert "not a 2-th root" in err


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


def test_gcp_prints_chain(capsys, tmp_path):
    out_file = tmp_path / "pair.txt"
    code, out, _ = run(capsys, "gcp", "--q", "2", "--len", "52", "--out", str(out_file))
    assert code == 0
    assert "derivation:" in out
    assert "len=26" in out
    cs, _ = read_set_file(out_file)
    assert cs.size == 2 and cs.length == 52


def test_gcp_unavailable_exit1(capsys):
    code, out, _ = run(capsys, "gcp", "--q", "2", "--len", "3")
    assert code == 1
    assert "2^a * 10^b * 26^c" in out


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


def test_search_limit_below_one_exit2(capsys):
    code, out, err = run(
        capsys, "search", "--q", "2", "--size", "2", "--len", "2", "--limit", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: input: ")
    assert err.count("\n") == 1


def test_search_work_bound_exit3(capsys):
    code, _, err = run(
        capsys, "search", "--q", "2", "--size", "4", "--len", "4", "--work-bound", "10"
    )
    assert code == 3
    assert "work bound" in err


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


def test_seeds_list(capsys):
    code, out, _ = run(capsys, "seeds", "list", "--q", "4")
    assert code == 0
    for length in (1, 2, 3, 5, 11, 13):
        assert f"len={length:3d}" in out


def test_selftest_passes_on_clean_checkout(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: all checks passed" in out
    assert "byte-identical" in out
