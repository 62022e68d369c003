"""The command-line interface: output, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gentle.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def fx(name):
    return os.path.join(FIXTURES, f"{name}.gentle")


def test_validate_dual_numbers():
    code, out, _ = run_cli("validate", fx("dual_numbers"))
    assert code == 0
    assert "gentle, dim A = 2" in out


def test_validate_json_roundtrip():
    code, out, _ = run_cli("validate", fx("pent"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 13 and len(data["arrows"]) == 6


def test_threads_json_schema():
    code, out, _ = run_cli("threads", fx("pent"), "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"permitted", "forbidden", "phi1", "phi2", "critical", "aag_cycles"}
    assert data["aag_cycles"] == [{"n": 4, "m": 0, "threads": data["aag_cycles"][0]["threads"]}]


def test_ag_json():
    code, out, _ = run_cli("ag", fx("pent"), "--json")
    assert code == 0
    data = json.loads(out)
    assert [(o["n"], o["m"]) for o in data["orbits"]] == [(4, 0)]


def test_cycles_json_schema():
    code, out, _ = run_cli("cycles", fx("kronecker"), "--json")
    assert code == 0
    data = json.loads(out)
    for c in data["cycles"]:
        assert set(c) == {"n", "entries", "shifts", "certificate", "calabi_yau"}
        assert set(c["certificate"]) == {"E1", "E2", "E3"}
        assert c["calabi_yau"] == 1


def test_hom_command():
    code, out, _ = run_cli("hom", fx("a2"), "--from", "a", "--to", "a")
    assert code == 0
    assert "hom dimension: 1" in out


def test_hom_with_shift_and_profile():
    code, out, _ = run_cli("hom", fx("kronecker"), "--from", "a", "--to", "a@1",
                           "--profile", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hom_dim"] == 1
    assert data["profile"].get("0") == 1


def test_alp_command():
    code, out, _ = run_cli("alp", fx("pent"), "--from", "triv:1:+1", "--to", "triv:3:+1")
    assert code == 0
    assert "single" in out and "af" in out


def test_band_command():
    code, out, _ = run_cli("band", fx("pent"), "--band", "d^-1, e^-1, f^-1, c, b, a",
                           "--scalar", "1")
    assert code == 0
    assert "NOT an exceptional 1-cycle" in out
    code, out, _ = run_cli("band", fx("kronecker"), "--band", "b^-1, a", "--scalar", "2/3")
    assert code == 0
    assert "an exceptional 1-cycle" in out


def test_search_command_json():
    code, out, _ = run_cli("search", fx("a3_relation"), "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(c["n"] for c in data["cycles"]) == [2, 4]


def test_missing_file_is_domain_error():
    code, out, err = run_cli("cycles", "missing.gentle")
    assert code == 1
    assert "missing.gentle" in err


def test_invalid_algebra_is_domain_error(tmp_path):
    bad = tmp_path / "bad.gentle"
    bad.write_text("vertex 1\narrow x : 1 -> 1\n")
    code, _, err = run_cli("validate", str(bad))
    assert code == 1
    assert "infinite-dimensional" in err


def test_usage_error_exit_code():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    code, _, _ = run_cli("hom", fx("a2"), "--from", "a")
    assert code == 2


def test_bad_word_is_domain_error():
    code, _, err = run_cli("hom", fx("pent"), "--from", "b*a", "--to", "b")
    assert code == 1
    assert "zero or non-composable" in err


@pytest.mark.parametrize("expr, message", [
    ("zz@1", "error: unknown arrow 'zz'"),      # the word is bad, the shift is fine
    ("a@1@2", "error: unknown arrow 'a@1'"),    # only the last '@' starts the shift
    ("a@x", "error: bad shift suffix in 'a@x'"),
])
def test_bad_word_with_shift_suffix_reports_the_word(expr, message):
    code, out, err = run_cli("hom", fx("pent"), "--from", expr, "--to", "a")
    assert code == 1 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize("args", [
    ("threads", fx("pent"), "--json"),
    ("cycles", fx("a3_relation"), "--json"),
    ("ag", fx("a2"), "--json"),
    ("search", fx("kronecker"), "--json"),
])
def test_reruns_byte_identical(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_search_reports_the_bounds_it_used():
    code, out, _ = run_cli("search", fx("a3_hereditary"), "--json")
    assert code == 0
    default = json.loads(out)
    assert len(default["cycles"]) == 2
    code, out, _ = run_cli("search", fx("a3_hereditary"), "--json", "--shift-window", "0")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"] == {"max_letters": default["bounds"]["max_letters"],
                              "shift_window": 0}
    assert data["cycles"] == []
    code, out, _ = run_cli("search", fx("a3_hereditary"), "--json", "--max-letters", "0")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"] == {"max_letters": 0,
                              "shift_window": default["bounds"]["shift_window"]}
    # zero letters leaves the trivial strings, whose stalks form no cycle here
    assert data["cycles"] == []


@pytest.mark.parametrize("flag", ["--max-letters", "--shift-window"])
def test_search_negative_bound_is_domain_error(flag):
    code, out, err = run_cli("search", fx("a3_hereditary"), flag, "-1")
    assert code == 1
    assert out == ""
    assert "must be non-negative" in err


def test_selftest_runs():
    code, out, _ = run_cli("selftest", "--count", "2", "--seed", "11")
    assert code == 0
    assert "passed" in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selftest_without_checks_is_domain_error(count):
    code, out, err = run_cli("selftest", "--count", count)
    assert code == 1
    assert out == ""
    assert "--count must be at least 1" in err


def test_dot_output():
    code, out, _ = run_cli("ag", fx("pent"), "--dot")
    assert code == 0
    assert out.startswith("digraph") and out.rstrip().endswith("}")
