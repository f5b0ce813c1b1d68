import json
import os

import pytest

from semiring_lab.cli import main

from conftest import GOLDEN3_TEXT


@pytest.fixture()
def golden3_file(tmp_path):
    path = tmp_path / "golden3.txt"
    path.write_text(GOLDEN3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_golden(capsys, golden3_file):
    code, out, err = run(capsys, "analyze", golden3_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    results = report["results"]
    assert results["sigma"]["transitive"] is False
    pairs = {tuple(p) for p in results["sigma"]["pairs"]}
    assert {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")} <= pairs
    assert ("a", "c") not in pairs
    assert results["sigma_star"]["pairs"] == sorted(
        [x, y] for x in "abc" for y in "abc")
    assert results["eta_methods_agree"] is True
    assert results["eta"]["sigma_star"] == [["a", "b", "c"]]
    assert results["varieties"]["N"] is False


def test_analyze_order1(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\ne\ne\n\ne\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["eta_methods_agree"] is True
    assert results["green_mult"]["D"] == [["e"]]


def test_analyze_dl2_memberships(capsys, tmp_path):
    path = tmp_path / "dl2.txt"
    path.write_text("2\n0 1\n0 1\n1 1\n\n0 0\n0 1\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    varieties = json.loads(out)["results"]["varieties"]
    assert varieties["D"] is True
    for name in ("D_dot", "L_dot", "R_dot", "N"):
        assert varieties[name] is True


def test_analyze_parse_failure(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a semiring\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_missing_file(capsys):
    code, _, _ = run(capsys, "analyze", "/nonexistent/file.txt")
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_unreadable_input(capsys, tmp_path, command):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"3\n\xff\xfe\n")
    for path in (tmp_path, binary):
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert "cannot read input" in err


@pytest.mark.parametrize("variable", ["SEMIRING_LAB_MAX_ORDER",
                                      "SEMIRING_LAB_BUDGET_SECS"])
def test_malformed_environment_variable(capsys, monkeypatch, variable):
    monkeypatch.setenv(variable, "abc")
    code, _, err = run(capsys, "verify", "--max-order", "1")
    assert code == 2
    assert variable in err


def test_analyze_invalid_algebra(capsys, tmp_path):
    path = tmp_path / "notidem.txt"
    # aa = b breaks multiplicative idempotency
    path.write_text("2\na b\na b\nb b\n\nb b\nb b\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["failures"]


def test_verify_clean_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["inconsistencies"] == 0
    assert report["results"]["instances"] == 17


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "THM_3_1", "--max-order", "2")
    assert code == 0
    assert json.loads(out)["results"]["suite"] == ["THM_3_1"]


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "THM_NOPE", "--max-order", "2")
    assert code == 3


def test_verify_worker_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2",
                     "--workers", "1")
    _, out2, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2",
                     "--workers", "4")
    assert out1 == out2


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--count-only")
    assert code == 0
    assert out.strip() == "379"


def test_enumerate_filter_and_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--iso",
                       "--filter", "D_dot")
    assert code == 0
    records = out.split("%%\n")
    assert all(rec.startswith("2\n") for rec in records)


def test_enumerate_to_directory(capsys, tmp_path):
    out_dir = str(tmp_path / "stream")
    code, _, _ = run(capsys, "enumerate", "-n", "2", "--out", out_dir)
    assert code == 0
    assert len(os.listdir(out_dir)) == 16


def test_enumerate_budget_exhaustion(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "3", "--count-only",
                     "--budget-nodes", "10")
    assert code == 4


def test_enumerate_unknown_filter(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "2", "--filter", "Z_weird")
    assert code == 3


def test_decompose_round_trip(capsys, tmp_path):
    import semiring_lab as sl
    cfg = sl.EnumConfig(order=3, up_to_iso=True, filter=sl.CATALOG["D_dot"])
    member = next(iter(sl.enumerate_idempotent_semirings(cfg)))
    path = tmp_path / "member.txt"
    path.write_text(sl.format_semiring_text(member))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    s1 = sl.parse_semiring_text(results["s1"])
    s2 = sl.parse_semiring_text(results["s2"])
    d = sl.parse_semiring_text(results["spine"])
    prod, _ = sl.spined_product(s1, s2, d, results["phi1"], results["phi2"])
    assert sl.is_isomorphic(prod, member) is not None


def test_decompose_non_member(capsys, golden3_file):
    code, _, err = run(capsys, "decompose", golden3_file)
    assert code == 3


def test_explore_sigma(capsys):
    code, out, _ = run(capsys, "explore-sigma", "--max-order", "3")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["instances"] == 396
    # the literature's 3-element example shows up as a non-transitive row
    assert any(row["sigma_transitive"] is False for row in results["rows"])
    # and some transitive-sigma instances live outside N
    assert any(c["sigma_transitive"] and not c["in_N"]
               for c in results["cross_table"])
    total = sum(c["count"] for c in results["cross_table"])
    assert total == results["instances"]


def test_timing_flag_controls_json_field(capsys):
    _, out, _ = run(capsys, "verify", "--suite", "THM_2_5", "--max-order", "1")
    assert json.loads(out)["timing"] is None
    _, out, _ = run(capsys, "--timing", "verify", "--suite", "THM_2_5",
                    "--max-order", "1")
    assert json.loads(out)["timing"] is not None
