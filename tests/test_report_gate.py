"""`tools/report_gate.py compare` on small hand-written run directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_gate.py"
_SPEC = importlib.util.spec_from_file_location("report_gate", _PATH)
report_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_gate)

TABLE = "check  checked  failed  worst  status\nclassical_residual  4  0  1.000e-11  PASS\n"


def _report(worst=1e-11, passed=True, failures=0):
    row = {"name": "classical_residual", "failures": failures, "worst": worst, "passed": passed}
    return {"rows": [row]}


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
    assert "rows[classical_residual].passed: True -> False" in capsys.readouterr().out


def test_changed_number_passes_and_prints_its_relative_change(old, tmp_path, capsys):
    new = _write(tmp_path / "new", report=_report(worst=1.00001e-11))
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "rows[classical_residual].worst: 1e-11 -> 1.00001e-11  (rel 1.00e-05)" in out
    assert "largest relative change per key:\n  classical_residual.worst: 1.00e-05\n" in out


def test_risen_failures_are_marked_and_listed(old, tmp_path, capsys):
    new = _write(tmp_path / "new", report=_report(failures=2))
    assert report_gate.compare(old, new) == 0  # a rise alone gates nothing
    out = capsys.readouterr().out
    assert "rows[classical_residual].failures: 0 -> 2  (rel inf, higher)" in out
    assert "failures that rose:\n  verify_seed-7.json: classical_residual.failures: 0 -> 2\n" in out


def test_fallen_failures_are_not_listed(tmp_path, capsys):
    old = _write(tmp_path / "old", report=_report(failures=3))
    new = _write(tmp_path / "new", report=_report(failures=1))
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "rows[classical_residual].failures: 3 -> 1  (rel 6.67e-01, lower)" in out
    assert "failures that rose" not in out


def test_missing_file_fails(old, tmp_path, capsys):
    new = _write(tmp_path / "new")
    (new / "verify_seed-7.json").unlink()
    assert report_gate.compare(old, new) == 1
    assert "verify_seed-7.json: only in" in capsys.readouterr().out


def test_changed_stdout_line_count_fails(old, tmp_path, capsys):
    new = _write(tmp_path / "new", table=TABLE + "overall: PASS on 1 fixtures\n")
    assert report_gate.compare(old, new) == 1
    assert "verify_seed-7.txt: 2 lines -> 3 lines" in capsys.readouterr().out


def _write_csv(root, text):
    (root / "fixture").mkdir()
    (root / "fixture" / "euler.csv").write_text(text)


def test_changed_csv_cells_are_counted_per_column(old, tmp_path, capsys):
    new = _write(tmp_path / "new")
    _write_csv(old, "t,u_1,u_2,residual\n0,1,-2,0\n1,0.5,0.25,1e-16\n2,0.5,0.125,2e-16\n")
    _write_csv(new, "t,u_1,u_2,residual\n0,1,-2,0\n1,0.5,0.25,3e-16\n2,0.5000001,0.125,1e-16\n")
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert (
        "fixture/euler.csv: 3 differing cell(s), by column:\n"
        "  residual: 2, largest relative change 2.00e+00\n"
        "  u_1: 1, largest relative change 2.00e-07\n"
    ) in out
    assert "0.5000001" not in out  # no line is printed
    assert out.endswith(
        "differing lines per text file:\n  fixture/euler.csv: 2\n2 differing line(s)\n"
        "4 files compared, 0 gated difference(s)\n"
    )


def test_csv_header_or_ragged_row_is_printed_as_a_line(old, tmp_path, capsys):
    new = _write(tmp_path / "new")
    _write_csv(old, "t,u_1\n0,1\n1,nan\n")
    _write_csv(new, "t,u_2\n0,1,2\n1,0.5\n")
    assert report_gate.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "fixture/euler.csv:\n  - t,u_1\n  + t,u_2\n" in out
    assert "fixture/euler.csv:\n  - 0,1\n  + 0,1,2\n" in out
    assert (
        "fixture/euler.csv: 1 differing cell(s), by column:\n"
        "  u_1: 1, largest relative change inf\n"
    ) in out
