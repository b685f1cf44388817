import json
import subprocess
import sys
from pathlib import Path

import pytest

from cuspcovers.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cycle_command_text(capsys):
    code, out, err = run_cli(capsys, "cycle", "-m", "3", "1", "-1", "0")
    assert code == 0
    assert out == "cycle: (3)  dual: (3)\n"


def test_cycle_command_matrix_and_cycle_agree(capsys):
    _, out_m, _ = run_cli(capsys, "cycle", "-m", "1640", "221", "-141", "-19")
    _, out_c, _ = run_cli(capsys, "cycle", "-c", "8,2,4,3,12")
    assert out_m == out_c
    assert "cycle: (2, 4, 3, 12, 8)" in out_m


def test_monodromy_command(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "-c", "3")
    assert code == 0
    assert out == "[[3, 1], [-1, 0]]\n"


def test_dual_command(capsys):
    code, out, _ = run_cli(capsys, "dual", "-c", "3")
    assert code == 0 and out == "(3)\n"
    code, out, _ = run_cli(capsys, "dual", "-c", "8,2,4,3,12")
    assert out.count("2") > 10  # nineteen entries, mostly twos


def test_verify_json_flagship(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-m", "1640", "221", "-141", "-19", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NO_CI_COVER"
    assert doc["witness"] is None
    assert doc["trace"] == "1621"
    assert doc["cycle"] == [2, 4, 3, 12, 8]
    assert len(doc["dual_cycle"]) == 19
    assert doc["input"] == {"matrix": [1640, 221, -141, -19]}
    assert len(doc["covers"]) == 58
    rec = doc["covers"][0]
    assert set(rec) == {
        "degree", "fiber_index", "fiber_hnf", "induced",
        "cycle_len", "dual_len", "cycle", "dual",
    }
    assert rec["degree"] == 1 and rec["fiber_index"] == "1"
    assert rec["induced"] == ["1640", "221", "-141", "-19"]
    # degree-4 induced entries outgrow 32-bit consumers; strings keep them exact
    big = [r for r in doc["covers"] if r["degree"] == 4]
    assert any(abs(int(e)) > 2**31 for r in big for e in r["induced"])
    assert all(str(int(e)) == e for r in big for e in r["induced"])


def test_verify_json_deterministic_and_key_sorted(capsys):
    args = ("verify", "-c", "8,2,4,3,12", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert list(doc) == sorted(doc)


def test_verify_half_same_verdict(capsys):
    _, full, _ = run_cli(capsys, "verify", "-c", "8,2,4,3,12", "--format", "json")
    _, half, _ = run_cli(capsys, "verify", "-c", "8,2,4,3,12", "--format", "json", "--half")
    assert json.loads(full)["verdict"] == json.loads(half)["verdict"] == "NO_CI_COVER"


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "-m", "3", "1", "-1", "0")
    assert code == 0
    assert "verdict: HAS_CI_COVER" in out
    assert "witness: degree 1" in out


def test_covers_command(capsys):
    code, out, _ = run_cli(capsys, "covers", "-m", "1640", "221", "-141", "-19",
                           "--max-degree", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two degree-1 covers
    assert lines[1].split()[:2] == ["1", "1"]
    assert lines[2].split()[:2] == ["1", "1619"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "verify", "-c", "3", "--format", "json",
                           "-o", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "HAS_CI_COVER"


def test_search_traces(capsys):
    code, out, _ = run_cli(capsys, "search-traces", "2000")
    assert code == 0
    assert out.split() == ["13", "1621"]


def test_search_matrix(capsys):
    code, out, _ = run_cli(capsys, "search-matrix", "1621", "--limit", "50")
    assert code == 0
    assert "[[1640, 221], [-141, -19]]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "-m", "1", "0", "0", "1"),        # trace 2
        ("verify", "-m", "2", "0", "0", "2"),        # det 4
        ("verify", "-c", "2,2,2"),                   # no entry >= 3
        ("verify", "-c", "8,x,4"),                   # malformed list
        ("cycle", "-c", "1,5"),                      # entry < 2
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_missing_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_module_entry_point():
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "cuspcovers", "cycle", "-m", "3", "1", "-1", "0"],
        capture_output=True,
        text=True,
        cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert proc.stdout == "cycle: (3)  dual: (3)\n"
