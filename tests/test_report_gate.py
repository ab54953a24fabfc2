"""`tools/report_gate.py compare` on small hand-written run directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_gate.py"
_SPEC = importlib.util.spec_from_file_location("report_gate", _PATH)
report_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_gate)

TABLE = "check  checked  failed  worst  status\noracle_agreement  4  0  1.000e-11  PASS\n"


def _report(worst=1e-11, passed=True):
    return {"rows": [{"name": "oracle_agreement", "worst": worst, "passed": passed}]}


def _write(root, report=None, table=TABLE, codes=None):
    root.mkdir()
    (root / "exit_codes.json").write_text(json.dumps(codes or {"verify_seed-7": 0}))
    (root / "verify_seed-7.json").write_text(json.dumps(report or _report()))
    (root / "verify_seed-7.txt").write_text(table)
    return root


@pytest.fixture
def old(tmp_path):
    return _write(tmp_path / "old")


def test_identical_directories_pass(old, tmp_path, capsys):
    assert report_gate.compare(old, _write(tmp_path / "new")) == 0
    assert "0 gated difference(s)" in capsys.readouterr().out


def test_passed_flip_fails(old, tmp_path, capsys):
    new = _write(tmp_path / "new", report=_report(passed=False))
    assert report_gate.compare(old, new) == 1
    assert "rows[oracle_agreement].passed: True -> False" in capsys.readouterr().out


def test_changed_number_passes_and_prints_its_relative_change(old, tmp_path, capsys):
    new = _write(tmp_path / "new", report=_report(worst=1.00001e-11))
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "rows[oracle_agreement].worst: 1e-11 -> 1.00001e-11  (rel 1.00e-05)" in out
    assert "largest relative change per key:\n  oracle_agreement.worst: 1.00e-05\n" in out


def test_missing_file_fails(old, tmp_path, capsys):
    new = _write(tmp_path / "new")
    (new / "verify_seed-7.json").unlink()
    assert report_gate.compare(old, new) == 1
    assert "verify_seed-7.json: only in" in capsys.readouterr().out


def test_changed_stdout_line_count_fails(old, tmp_path, capsys):
    new = _write(tmp_path / "new", table=TABLE + "overall: PASS on 1 fixtures\n")
    assert report_gate.compare(old, new) == 1
    assert "verify_seed-7.txt: 2 lines -> 3 lines" in capsys.readouterr().out


def test_changed_csv_line_is_printed_and_counted(old, tmp_path, capsys):
    new = _write(tmp_path / "new")
    for root, last in ((old, "2,0.5,1e-16"), (new, "2,0.50000000000000011,1e-16")):
        (root / "fixture").mkdir()
        (root / "fixture" / "euler.csv").write_text(f"t,u_1,residual\n0,1,0\n{last}\n")
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "fixture/euler.csv:\n  - 2,0.5,1e-16\n  + 2,0.50000000000000011,1e-16\n" in out
    assert out.endswith(
        "differing lines per text file:\n  fixture/euler.csv: 1\n1 differing line(s)\n"
        "4 files compared, 0 gated difference(s)\n"
    )
