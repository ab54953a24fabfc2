import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from daepencil.chains import compute_chain, consistent_space
from daepencil.cli import main
from daepencil.exceptions import IsomorphismError
from daepencil.fileio import write_matrix_market, write_vector
from daepencil.fixtures import FixtureSpec, generate
from daepencil.subspaces import RankTolerance, full_space


def verify_one_fixture(tmp_path, capsys):
    """`verify` on one fixture of Kronecker index 2: exit code, table, rows by name."""
    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps([{"n1": 2, "nilpotent_blocks": [2], "seed": 1}]))
    out = tmp_path / "suite.json"
    code = main(["verify", "--fixtures", str(spec_file), "--json", str(out)])
    rows = {row["name"]: row for row in json.loads(out.read_text())["rows"]}
    return code, capsys.readouterr().out, rows


def write_pencil(tmp_path, E, A, u0=None):
    e_path, a_path = tmp_path / "E.mtx", tmp_path / "A.mtx"
    write_matrix_market(e_path, E)
    write_matrix_market(a_path, A)
    paths = [str(e_path), str(a_path)]
    if u0 is not None:
        u_path = tmp_path / "u0.txt"
        write_vector(u_path, u0)
        paths.append(str(u_path))
    return paths


@pytest.fixture
def mixed_files(tmp_path):
    E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
    return tmp_path, write_pencil(tmp_path, E, np.eye(3), np.array([1.0, 0.0, 0.0]))


class TestAnalyze:
    def test_fixture_reports_index_one(self, tmp_path):
        pencil, _ = generate(FixtureSpec(1, (2,), 100.0, 0))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        out = tmp_path / "report.json"
        code = main(["analyze", *paths, "--json", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["regular"] is True
        assert report["index_chain"]["k"] == 1
        assert report["index_nilpotency"]["k"] == 1
        assert report["consistent_dim"] == 1
        assert report["iso"]["bijective"] is True
        assert all(c["passed"] for c in report["identity_checks"])

    def test_high_index_analyze_omits_undecidable_expansion(self, tmp_path):
        pencil, _ = generate(FixtureSpec(1, (6,), 100.0, 2))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        out = tmp_path / "r.json"
        assert main(["analyze", *paths, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        identities = [c["identity"] for c in report["identity_checks"]]
        # k = 5: the float64 horizon (1/eps)^(1/6) ~ 406 lies below s = 1e3,
        # so the expansion remainder is not decidable
        assert "expansion_e" not in identities
        assert all(c["passed"] for c in report["identity_checks"])
        assert report["index_chain"]["k"] == 5

        # k = 3 is decidable on s in [1e3, (1/eps)^(1/4) ~ 8.2e3]
        pencil, _ = generate(FixtureSpec(1, (4,), 100.0, 2))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        assert main(["analyze", *paths, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        checks = {c["identity"]: c for c in report["identity_checks"]}
        assert checks["expansion_e"]["passed"]
        assert all(c["passed"] for c in report["identity_checks"])
        assert report["index_chain"]["k"] == 3

    def test_saturated_growth_route_is_not_confident(self, tmp_path):
        # pure nilpotent, Kronecker index 3: growth samples past s ~ 1.8e5
        # are singular in float64 and are dropped instead of failing the run
        pencil, _ = generate(FixtureSpec(0, (3,), seed=3779272412266780573))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        out = tmp_path / "r.json"
        assert main(["analyze", *paths, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["index_growth"]["confident"] is False
        assert report["index_growth"]["diagnostics"]["samples_dropped"] >= 1
        assert report["index_chain"]["k"] == report["index_nilpotency"]["k"] == 2

    def test_not_regular_exit_3(self, tmp_path):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        paths = write_pencil(tmp_path, M, M)
        out = tmp_path / "r.json"
        assert main(["analyze", *paths, "--json", str(out)]) == 3
        assert json.loads(out.read_text())["regular"] is False

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.mtx"), str(tmp_path / "nope2.mtx")]) == 1
        assert "error" in capsys.readouterr().err

    def test_index_disagreement_exit_2(self, tmp_path, monkeypatch):
        import daepencil.cli as cli_mod

        pencil, _ = generate(FixtureSpec(1, (2,), 100.0, 0))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        real_analyze = cli_mod.analyze_pencil

        def disagreeing(*args, **kwargs):
            report = real_analyze(*args, **kwargs)
            report.indices_agree = False
            return report

        monkeypatch.setattr(cli_mod, "analyze_pencil", disagreeing)
        assert main(["analyze", *paths, "--json", str(tmp_path / "r.json")]) == 2

    def test_tol_leaves_the_nilpotency_route_alone(self, tmp_path):
        # --tol sets the IV chain's rank tolerance only; the kernel chain keeps 1e-10
        pencil, _ = generate(FixtureSpec(5, (3,), 100.0, 11))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        reports = []
        for tol in ("1e-10", "1e-8"):
            out = tmp_path / f"r{tol}.json"
            assert main(["analyze", *paths, "--tol", tol, "--json", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1]["tol"] == 1e-8
        assert reports[0]["index_nilpotency"] == reports[1]["index_nilpotency"]

    def test_non_finite_tol_exit_1(self, tmp_path, capsys):
        pencil, _ = generate(FixtureSpec(1, (2,), 100.0, 0))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        for tol in ("inf", "nan", "0"):
            assert main(["analyze", *paths, "--tol", tol]) == 1
            assert "rank tolerance must be positive and finite" in capsys.readouterr().err

    def test_byte_identical_reports(self, tmp_path):
        pencil, _ = generate(FixtureSpec(2, (2,), 100.0, 3))
        paths = write_pencil(tmp_path, pencil.E, pencil.A)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", *paths, "--seed", "9", "--json", str(out1)]) == 0
        assert main(["analyze", *paths, "--seed", "9", "--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_decides_nothing_about_the_pencil(self, tmp_path, capsys):
        # --seed draws only the identity checks' u0: the certificate, its
        # witness and every index, space and isomorphism verdict are the same
        fx = tmp_path / "fx"
        argv = ["generate", "--n1", "20", "--blocks", "3,2", "--seed", "21", "--out", str(fx)]
        assert main(argv) == 0
        capsys.readouterr()
        reports = []
        for seed in ("0", "7"):
            out = tmp_path / f"r{seed}.json"
            paths = [str(fx / "E.mtx"), str(fx / "A.mtx")]
            assert main(["analyze", *paths, "--seed", seed, "--json", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        keys = (
            "regular",
            "witness",
            "index_growth",
            "index_nilpotency",
            "index_chain",
            "iv_dims",
            "consistent_dim",
            "iso",
        )
        assert [reports[0][k] for k in keys] == [reports[1][k] for k in keys]
        assert reports[0]["regular"] and reports[0]["witness"] is not None


class TestSolve:
    def test_exponential_final_value(self, mixed_files, tmp_path):
        _, paths = mixed_files
        out = tmp_path / "traj.csv"
        code = main(
            ["solve", *paths, "--t-end", "1.0", "--steps", "10", "--csv", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u_1,u_2,u_3,residual"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[1]) == pytest.approx(np.exp(-1.0), rel=1e-10)
        assert float(last[2]) == pytest.approx(0.0, abs=1e-12)

    def test_inconsistent_exit_4(self, tmp_path, capsys):
        E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
        paths = write_pencil(tmp_path, E, np.eye(3), np.array([0.0, 1.0, 0.0]))
        assert main(["solve", *paths, "--t-end", "1.0", "--steps", "5"]) == 4
        err = capsys.readouterr().err
        assert "away from the consistent space" in err
        assert "\ndistance to the consistent space: 1\n" in err
        assert "\njump u(0+) (range part along W*): 0 0 0\n" in err

    def test_refused_split_exits_4_without_a_jump(self, tmp_path, capsys):
        # the "split refused" fixture of verify --random 60 --dim-range 2..20
        # --index-range 0..4 --conditioning 1e5 --seed 1: dim V* + dim W* = 6 != 7
        pencil, _ = generate(FixtureSpec(2, (5,), 1e5, 7320455584413677429))
        paths = write_pencil(tmp_path, pencil.E, pencil.A, np.ones(pencil.n))
        assert main(["solve", *paths, "--t-end", "1.0", "--steps", "5"]) == 4
        err = capsys.readouterr().err
        assert "; no jump u(0+), the split is refused: splitting failed:" in err
        assert err.endswith("\njump u(0+) (range part along W*): none, the split is refused\n")

    def test_tol_reaches_the_consistency_test(self, tmp_path, capsys):
        # u0 = b + 1e-7 w, b a consistent basis vector and w a unit normal:
        # consistent under --tol 1e-7 (membership 1e-6), not under the default
        pencil, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        chain = compute_chain(pencil, RankTolerance(1e-7))
        cons = consistent_space(pencil, chain)
        off = np.eye(pencil.n) - cons.basis @ cons.basis.T
        w = off[:, np.argmax(np.linalg.norm(off, axis=0))]
        u0 = cons.basis[:, 0] + 1e-7 * w / np.linalg.norm(w)
        paths = write_pencil(tmp_path, pencil.E, pencil.A, u0)
        args = ["solve", *paths, "--t-end", "1", "--steps", "4"]
        assert main([*args, "--tol", "1e-7"]) == 0
        assert main(args) == 4
        assert "away from the consistent space" in capsys.readouterr().err

    def test_oracle_matches_exponential(self, mixed_files, tmp_path):
        _, paths = mixed_files
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", *paths, "--t-end", "1", "--steps", "4", "--csv", str(o1)]) == 0
        assert main(
            ["solve", *paths, "--t-end", "1", "--steps", "4", "--method", "oracle", "--csv", str(o2)]
        ) == 0
        a = np.loadtxt(str(o1), delimiter=",", skiprows=1)
        b = np.loadtxt(str(o2), delimiter=",", skiprows=1)
        np.testing.assert_allclose(a[:, :-1], b[:, :-1], atol=1e-9)

    def test_euler_residual_shrinks_when_steps_doubled(self, mixed_files, tmp_path):
        _, paths = mixed_files

        def worst_residual(steps):
            out = tmp_path / f"e{steps}.csv"
            code = main(
                ["solve", *paths, "--t-end", "1", "--steps", str(steps),
                 "--method", "euler", "--csv", str(out)]
            )
            assert code == 0
            data = np.loadtxt(str(out), delimiter=",", skiprows=1)
            return np.max(data[:, -1])

        assert worst_residual(80) < worst_residual(40)

    @pytest.mark.parametrize("method", ["exponential", "euler", "oracle"])
    def test_not_regular_exit_3(self, tmp_path, method, capsys):
        M = np.diag([1.0, 0.0])
        paths = write_pencil(tmp_path, M, M, np.array([1.0, 0.0]))
        csv = tmp_path / "out.csv"
        args = ["solve", *paths, "--t-end", "1", "--steps", "4", "--method", method]
        assert main([*args, "--csv", str(csv)]) == 3
        assert "not regular" in capsys.readouterr().err
        assert not csv.exists()

    def test_seed_is_rejected(self, mixed_files, capsys):
        _, paths = mixed_files
        with pytest.raises(SystemExit) as exc:
            main(["solve", *paths, "--t-end", "1", "--steps", "2", "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exponential", "oracle"])
    def test_refused_generator_exit_1(self, tmp_path, method, capsys):
        # at conditioning 1e6 this fixture's IV chain is wrong and its reduced
        # generator refused; the oracle's consistency test passes u0 on to it
        out = tmp_path / "fx"
        args = ["--n1", "16", "--blocks", "1", "--conditioning", "1e6"]
        assert main(["generate", *args, "--seed", "219515429046291558", "--out", str(out)]) == 0
        paths = [str(out / name) for name in ("E.mtx", "A.mtx", "u0.txt")]
        csv = tmp_path / "out.csv"
        solve = ["solve", *paths, "--t-end", "1", "--steps", "4", "--method", method]
        assert main([*solve, "--csv", str(csv)]) == 1
        assert "reduced generator residual" in capsys.readouterr().err
        assert not csv.exists()

    def test_csv_to_stdout(self, mixed_files, capsys):
        _, paths = mixed_files
        assert main(["solve", *paths, "--t-end", "1", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,u_1")


class TestVerify:
    def test_random_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(
            ["verify", "--random", "6", "--dim-range", "2..8", "--index-range", "0..2",
             "--seed", "7", "--json", str(out)]
        )
        table = capsys.readouterr().out
        assert code == 0, table
        assert "overall: PASS" in table
        payload = json.loads(out.read_text())
        assert payload["passed"] is True and payload["fixtures"] == 6

    def test_suite_with_pure_nilpotent_fixtures_passes(self, capsys):
        # this draw holds pure-nilpotent fixtures whose growth samples saturate
        code = main(
            ["verify", "--random", "20", "--dim-range", "2..20", "--index-range", "0..4",
             "--seed", "1"]
        )
        assert code == 0, capsys.readouterr().out

    def test_fixture_file(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(
            json.dumps([{"n1": 2, "nilpotent_blocks": [2], "seed": 1}])
        )
        assert main(["verify", "--fixtures", str(spec_file)]) == 0
        assert "index_agreement" in capsys.readouterr().out

    def test_reversing_chain_fails_chain_monotone(self, tmp_path, monkeypatch, capsys):
        import daepencil.chains as chains_mod

        real, calls = chains_mod.preimage, []

        def reversing(M, S, scale):  # IV_3 is the whole space: dims 4, 3, 2, 4
            calls.append(S)
            return full_space(M.shape[0]) if len(calls) == 3 else real(M, S, scale)

        monkeypatch.setattr(chains_mod, "preimage", reversing)
        code, table, rows = verify_one_fixture(tmp_path, capsys)
        # three for the reversed chain, which the oracle's split reads as well
        assert code == 1 and len(calls) == 3
        assert table.endswith("overall: FAIL on 1 fixtures\n")
        assert (rows["chain_monotone"]["checked"], rows["chain_monotone"]["failures"]) == (1, 1)
        # the stabilization step has no witness: IV_2 and IV_3 differ
        stab = rows["chain_stabilization"]
        assert (stab["checked"], stab["failures"]) == (1, 1)
        # the identity checks still ran on the fixture
        assert rows["resolvent_commutation"]["checked"] == 1

    def test_failing_generator_fails_its_rows(self, tmp_path, monkeypatch, capsys):
        import daepencil.solvers as solvers_mod

        def failing(chain):
            raise IsomorphismError("reduced generator residual exceeds its cap")

        monkeypatch.setattr(solvers_mod, "_generator", failing)
        code, table, rows = verify_one_fixture(tmp_path, capsys)
        assert code == 1 and table.endswith("overall: FAIL on 1 fixtures\n")
        counts = {name: (row["checked"], row["failures"]) for name, row in rows.items()}
        assert counts["transform_match"] == (1, 1)
        assert counts["classical_residual"] == (2, 2)  # one per consistent basis vector
        # the oracle rejects the inconsistent u0 before it reads the generator
        assert counts["inconsistency_detection"] == (1, 0)
        assert "oracle_agreement" not in rows

    def test_oracle_without_splitting_fails_its_rows(self, tmp_path, monkeypatch, capsys):
        import daepencil.solvers as solvers_mod

        # a W chain stopped at the whole space leaves no room for the range part
        monkeypatch.setattr(solvers_mod, "_wong_chain", lambda p: (full_space(p.n),) * 2)
        code, table, rows = verify_one_fixture(tmp_path, capsys)
        assert code == 1 and table.endswith("overall: FAIL on 1 fixtures\n")
        detect = rows["inconsistency_detection"]
        assert (detect["checked"], detect["failures"]) == (1, 1)
        assert detect["note"] == "1 failed: split refused, dim V* + dim W* != n"
        assert "(1 failed: split refused, dim V* + dim W* != n)" in table
        assert rows["classical_residual"]["failures"] == 0

    @pytest.mark.parametrize(
        "option", [["--random", "3"], ["--dim-range", "2..6"], ["--index-range", "0..1"],
                   ["--conditioning", "10"]]
    )
    def test_fixture_file_refuses_the_random_options(self, tmp_path, capsys, option):
        # a fixture file fixes every spec, so an option that shapes the random draw is refused
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([{"n1": 2, "nilpotent_blocks": [2], "seed": 1}]))
        assert main(["verify", "--fixtures", str(spec_file), *option, "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {option[0]} draws random fixtures and cannot go with --fixtures\n"
        )

    def test_empty_fixture_list_exit_1(self, tmp_path, capsys):
        spec_file = tmp_path / "empty.json"
        spec_file.write_text("[]")
        assert main(["verify", "--fixtures", str(spec_file)]) == 1
        assert "nothing to verify" in capsys.readouterr().err

    def test_no_source_exit_1(self, capsys):
        assert main(["verify"]) == 1
        assert "nothing to verify" in capsys.readouterr().err

    def test_internal_errors_map_to_exit_1(self, monkeypatch, capsys):
        # exit 4 belongs to solve; anything escaping verify is a plain error
        import daepencil.cli as cli_mod
        from daepencil.exceptions import InconsistentInitialValueError

        def boom(*args, **kwargs):
            raise InconsistentInitialValueError("synthetic", 1.0, None)

        monkeypatch.setattr(cli_mod, "run_suite", boom)
        assert main(["verify", "--random", "1"]) == 1
        assert "synthetic" in capsys.readouterr().err

    def test_wrong_u0_length_exit_1(self, tmp_path, capsys):
        paths = write_pencil(tmp_path, np.eye(2), np.eye(2), np.array([1.0, 2.0, 3.0]))
        assert main(["solve", *paths, "--t-end", "1", "--steps", "2"]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_malformed_fixture_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        assert main(["verify", "--fixtures", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entries,message",
        [
            ([1, 2], "0 is not a JSON object: 1"),
            ([{"n1": 2, "nilpotent_blocks": 3}], "0: nilpotent_blocks must be a list"),
            ([{"n1": 1}, {"n1": 2.7}], "1: n1 2.7 is not a JSON integer"),
            ([{"seed": 1}], "0: n1 null is not a JSON integer"),
            ([{"n1": 1, "nilpotent_blocks": [2, True]}], "0: block true is not a JSON integer"),
            ([{"n1": 1, "conditioning": "10"}], "0: conditioning must be a JSON number"),
            ([{"n1": 1, "conditioning": 0.5}], "0: conditioning bound must be finite and >= 1"),
            ([{"n1": 1, "seed": -1}], "0: seed must be nonnegative, not -1"),
            ([[1, 2]], "0 is not a JSON object: [\n  1,\n  2\n]"),
        ],
    )
    def test_malformed_fixture_entry_exit_1(self, tmp_path, capsys, entries, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(entries))
        assert main(["verify", "--fixtures", str(bad)]) == 1
        assert f"error: fixture entry {message}" in capsys.readouterr().err

    def test_range_without_dots_exit_1(self, capsys):
        assert main(["verify", "--random", "3", "--dim-range", "2-20"]) == 1
        assert "error: expected 'a..b', got '2-20'" in capsys.readouterr().err

    @pytest.mark.parametrize("conditioning", ["inf", "nan"])
    def test_non_finite_conditioning_exit_1(self, capsys, conditioning):
        assert main(["verify", "--random", "3", "--conditioning", conditioning]) == 1
        assert "conditioning bound must be finite and >= 1" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        args = ["verify", "--random", "3", "--dim-range", "2..6",
                "--index-range", "0..1", "--seed", "11"]
        j1, j2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert main([*args, "--json", str(j1)]) == 0
        first = capsys.readouterr().out
        assert main([*args, "--json", str(j2)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert j1.read_bytes() == j2.read_bytes()


class TestGenerate:
    def test_writes_fixture_files(self, tmp_path, capsys):
        out_dir = tmp_path / "fx"
        code = main(
            ["generate", "--n1", "1", "--blocks", "2", "--seed", "4", "--out", str(out_dir)]
        )
        assert code == 0
        truth = json.loads((out_dir / "truth.json").read_text())
        assert truth["ground_truth"] == {
            "kronecker_index": 2,
            "growth_index": 1,
            "consistent_dim": 1,
        }
        # the generated files round-trip through analyze with agreeing indices
        assert main(
            ["analyze", str(out_dir / "E.mtx"), str(out_dir / "A.mtx")]
        ) == 0
        capsys.readouterr()
        # generated u0 solves consistently
        assert main(
            ["solve", str(out_dir / "E.mtx"), str(out_dir / "A.mtx"),
             str(out_dir / "u0.txt"), "--t-end", "1", "--steps", "4"]
        ) == 0

    @pytest.mark.parametrize("conditioning", ["nan", "inf"])
    def test_non_finite_conditioning_exit_1(self, tmp_path, capsys, conditioning):
        out = tmp_path / "d"
        args = ["generate", "--n1", "2", "--blocks", "2", "--conditioning", conditioning]
        assert main([*args, "--out", str(out)]) == 1
        assert "conditioning bound must be finite and >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_blocks_exit_1(self, tmp_path, capsys):
        assert main(
            ["generate", "--n1", "0", "--blocks", "", "--out", str(tmp_path / "x")]
        ) == 1
        assert "error" in capsys.readouterr().err


def run_module(*args, cwd=None):
    """`python -m daepencil ARGS` from this checkout's src, in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "daepencil", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_runs_from_a_checkout():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: daepencil")


class TestQuietStderr:
    """numpy's RuntimeWarnings stay off the CLI's stderr."""

    @pytest.fixture(scope="class")
    def n160(self, tmp_path_factory):
        # det(sE + A) would overflow to inf at the certificate's first point
        out = tmp_path_factory.mktemp("n160")
        args = ["generate", "--n1", "155", "--blocks", "3,2", "--seed", "24", "--out", str(out)]
        assert main(args) == 0
        return out

    def test_analyze_with_an_overflowing_determinant(self, n160):
        done = run_module("analyze", "E.mtx", "A.mtx", cwd=n160)
        assert done.returncode == 0
        assert json.loads(done.stdout)["regular"] is True
        assert done.stderr == ""

    def test_analyze_of_a_pencil_whose_norms_overflow(self, tmp_path):
        # ||E||_F overflows, so the certificate's circle has an infinite radius
        pencil, _ = generate(FixtureSpec(2, (1,), seed=1))
        write_pencil(tmp_path, 1e200 * pencil.E, 1e200 * pencil.A)
        done = run_module("analyze", "E.mtx", "A.mtx", cwd=tmp_path)
        assert done.returncode == 3
        assert json.loads(done.stdout)["regular"] is False
        assert done.stderr == ""

    @pytest.mark.parametrize(
        "method, reason",
        [
            ("exponential", "no classical solution exists"),
            (
                "oracle",
                "its kernel-part component has norm 1.000000e+00; "
                "only its range part evolves classically",
            ),
        ],
    )
    def test_inconsistent_exit_4(self, tmp_path, method, reason):
        # E = diag(1, N2), A = I: IV_(k+1) = span(e1) and W* = span(e2, e3)
        E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
        write_pencil(tmp_path, E, np.eye(3), np.array([1.0, 1.0, 0.0]))
        args = ["--t-end", "1", "--steps", "4", "--method", method]
        done = run_module("solve", "E.mtx", "A.mtx", "u0.txt", *args, cwd=tmp_path)
        assert done.returncode == 4
        assert done.stderr == (
            f"error: u0 is 1.000000e+00 away from the consistent space; {reason}\n"
            "distance to the consistent space: 1\n"
            "jump u(0+) (range part along W*): 1 0 0\n"
        )

    def test_euler_step_whose_E_over_h_overflows(self, n160):
        args = ["--method", "euler", "--t-end", "1e-310", "--steps", "1"]
        done = run_module("solve", "E.mtx", "A.mtx", "u0.txt", *args, cwd=n160)
        assert done.returncode == 1
        assert done.stderr == "error: E/h + A is numerically singular at h = 1.0510100501e-310\n"


def test_analyze_writes_a_failing_generator_into_its_report(tmp_path, monkeypatch):
    import daepencil.solvers as solvers_mod

    def failing(chain):
        raise IsomorphismError("reduced generator residual exceeds its cap")

    monkeypatch.setattr(solvers_mod, "_generator", failing)
    pencil, _ = generate(FixtureSpec(2, (2,), seed=1))
    out = tmp_path / "r.json"
    assert main(["analyze", *write_pencil(tmp_path, pencil.E, pencil.A), "--json", str(out)]) == 0
    checks = {c["identity"]: c for c in json.loads(out.read_text())["identity_checks"]}
    assert checks["transform_match"] == {
        "identity": "transform_match",
        "points": 0,
        "max_relative_error": None,
        "passed": False,
        "details": {"error": "reduced generator residual exceeds its cap"},
    }


def test_analyze_names_the_line_of_a_non_ascii_byte(tmp_path, capsys):
    pencil, _ = generate(FixtureSpec(1, (2,), 100.0, 0))
    e_path, a_path = write_pencil(tmp_path, pencil.E, pencil.A)
    text = Path(e_path).read_text().splitlines(keepends=True)
    text.insert(1, "% café\n")
    Path(e_path).write_bytes("".join(text).encode("utf-8"))
    assert main(["analyze", e_path, a_path]) == 1
    err = capsys.readouterr().err
    assert f"{e_path}:2: non-ASCII byte 0xc3" in err


def test_analyze_rejects_a_digit_separator(tmp_path, capsys):
    path = tmp_path / "E.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n1_0\n")
    assert main(["analyze", str(path), str(path)]) == 1
    assert f"{path}:3: non-numeric entry '1_0'" in capsys.readouterr().err


@pytest.fixture
def generated(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["generate", "--n1", "2", "--blocks", "2", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    return [str(out / name) for name in ("E.mtx", "A.mtx", "u0.txt")]


@pytest.mark.parametrize("method", ["exponential", "euler", "oracle"])
def test_solve_rejects_a_non_finite_initial_value(generated, method, capsys, tmp_path):
    u0 = Path(generated[2])
    lines = u0.read_text().splitlines()
    u0.write_text("\n".join(["nan", *lines[1:]]) + "\n")
    csv = tmp_path / "out.csv"
    args = ["solve", *generated, "--t-end", "1", "--steps", "4", "--method", method]
    assert main([*args, "--csv", str(csv)]) == 1
    assert "u0 contains non-finite entries" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("method", ["exponential", "euler", "oracle"])
@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_solve_rejects_a_non_finite_horizon(generated, method, t_end, capsys, tmp_path):
    csv = tmp_path / "out.csv"
    args = ["solve", *generated, "--t-end", t_end, "--steps", "4", "--method", method]
    assert main([*args, "--csv", str(csv)]) == 1
    assert f"got --t-end {t_end} and --steps 4" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("method", ["exponential", "euler", "oracle"])
def test_solve_rejects_a_non_finite_tol(generated, method, capsys, tmp_path):
    # every method refuses a bad --tol as analyze does, not only the one that reads it
    csv = tmp_path / "out.csv"
    args = ["solve", *generated, "--t-end", "1", "--steps", "4", "--method", method]
    for tol in ("inf", "nan", "0"):
        assert main([*args, "--tol", tol, "--csv", str(csv)]) == 1
        assert "rank tolerance must be positive and finite" in capsys.readouterr().err
        assert not csv.exists()


def test_solve_refuses_an_overflowing_euler_step(generated, capsys, tmp_path):
    # E/h overflows at h = 1e-310: no row of NaN, but the singular-step error
    csv = tmp_path / "out.csv"
    args = ["solve", *generated, "--t-end", "1e-310", "--steps", "1", "--method", "euler"]
    with np.errstate(over="ignore"):
        assert main([*args, "--csv", str(csv)]) == 1
    assert "E/h + A is numerically singular" in capsys.readouterr().err
    assert not csv.exists()
