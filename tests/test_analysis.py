"""analyze_pencil on pencils outside the generated real family."""

import importlib.util
from pathlib import Path

import numpy as np

import daepencil.analysis as analysis_mod
from daepencil.analysis import analyze_pencil
from daepencil.exceptions import IsomorphismError
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import new_pencil
from daepencil.verification import random_specs

_SPEC = importlib.util.spec_from_file_location("exact", Path(__file__).with_name("exact.py"))
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)


def test_analysis_takes_one_svd_of_E(matrix_norm2_calls, matrix_svd_calls):
    # svd_E gives norm_E and both chains' first steps; the certificate's
    # Frobenius norm of E is no SVD
    p, _ = generate(FixtureSpec(35, (3, 2), 100.0, 5))
    p = new_pencil(p.E, p.A)  # nothing kept yet
    matrix_norm2_calls.clear()
    matrix_svd_calls.clear()
    analyze_pencil(p)
    assert [x is p.E for x in matrix_norm2_calls + matrix_svd_calls].count(True) == 1


def test_analysis_factorizations(monkeypatch, matrix_norm2_calls):
    # the factorizations of one conditioning-100 analysis, n = 40: a second
    # SVD of E, a second chain or an extra resolvent grid changes a count
    p, _ = generate(FixtureSpec(35, (3, 2), 100.0, 5))
    p = new_pencil(p.E, p.A)  # nothing kept yet
    calls = {name: [] for name in ("inv", "solve", "svd", "eigvals")}
    for name, seen in calls.items():
        real = getattr(np.linalg, name)
        counted = lambda a, *r, _real=real, _seen=seen, **k: _seen.append(a) or _real(a, *r, **k)
        monkeypatch.setattr(np.linalg, name, counted)
    matrix_norm2_calls.clear()
    analyze_pencil(p, seed=1)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "inv": 3, "solve": 7, "svd": 15, "eigvals": 1
    }
    assert sum(np.prod(np.shape(a)[:-2], dtype=int) for a in calls["inv"]) == 44
    assert len(matrix_norm2_calls) == 1


def test_complex_pencil_with_a_complex_consistent_space():
    # a complex right factor Q leaves no real vector in the consistent space,
    # so the transform match must take the basis vector as it is
    p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
    rng = np.random.default_rng(0)
    Q = np.eye(p.n) + 0.5 * (rng.standard_normal((p.n, p.n)) + 1j * rng.standard_normal((p.n, p.n)))
    report = analyze_pencil(new_pencil(p.E @ Q, p.A @ Q))
    assert report.regular and report.consistent_dim == 3
    checks = {c["identity"]: c for c in report.identity_checks}
    assert checks["transform_match"]["passed"]
    assert all(c["passed"] for c in checks.values())


def test_stokes_like_saddle():
    # the 1-D Stokes-like saddle of tests/exact.py, n = 24: its finite eigenvalues
    # run from 17 to 561 in modulus, far outside the |lambda| <= 2.2 of the
    # generated fixtures
    report = analyze_pencil(new_pencil(*exact.stokes_like_floats(16)))
    assert report.n == 24 and report.regular
    assert report.stabilization == 1 and report.consistent_dim == 8
    assert report.index_nilpotency["k"] == 1
    checks = {c["identity"]: c for c in report.identity_checks}
    assert set(checks) == {
        "commutation_b", "shift_d", "expansion_e", "solution_formula", "transform_match"
    }
    assert all(c["passed"] for c in checks.values()), checks
    assert checks["transform_match"]["max_relative_error"] <= 1e-12


def test_failing_generator_fails_transform_match(monkeypatch):
    import daepencil.solvers as solvers_mod

    message = "reduced generator residual exceeds its cap"

    def failing(chain):
        raise IsomorphismError(message)

    monkeypatch.setattr(solvers_mod, "_generator", failing)
    report = analyze_pencil(generate(FixtureSpec(2, (2,), seed=1))[0])
    checks = {c["identity"]: c for c in report.identity_checks}
    # stabilization 1: the expansion's coefficients need the generator too
    unevaluated = ("expansion_e", "transform_match")
    for name in unevaluated:
        c = checks[name]
        assert not c["passed"] and c["max_relative_error"] is None
        assert c["points"] == 0 and c["details"] == {"error": message}
    assert all(c["passed"] for name, c in checks.items() if name not in unevaluated)


def test_k5_pencil_lists_no_expansion():
    # k = 5: the float64 horizon (1/eps)^(1/6) ~ 406 lies below the grid floor 1e3
    report = analyze_pencil(generate(FixtureSpec(1, (6,), seed=3))[0])
    assert report.stabilization == 5 and report.consistent_dim == 1
    assert [c["identity"] for c in report.identity_checks] == [
        "commutation_b", "shift_d", "solution_formula", "transform_match"
    ]


def test_analyze_pencil_runs_the_battery_once(monkeypatch):
    calls = []
    battery = analysis_mod.identity_checks

    def counted(a, seed):
        calls.append(seed)
        return battery(a, seed)

    monkeypatch.setattr(analysis_mod, "identity_checks", counted)
    report = analyze_pencil(generate(FixtureSpec(2, (2,), seed=1))[0], seed=4)
    assert calls == [4] and len(report.identity_checks) == 5


def test_no_abort_on_failing_generators_at_conditioning_1e6():
    """At conditioning 1e6 the reduced generator fails on 19 of these 60
    fixtures (17 over its residual cap, 2 with a restricted E that is not
    bijective); each report carries its failed transform_match, and the 13
    past k = 0 their unevaluated expansion_e, the only expansions that fail."""
    errors, expansions = [], []
    for spec in random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e6):
        report = analyze_pencil(generate(spec)[0], spec.seed)
        for c in report.identity_checks:
            if c["identity"] == "transform_match" and c["max_relative_error"] is None:
                assert not c["passed"]
                errors.append(c["details"]["error"])
            if c["identity"] == "expansion_e" and not c["passed"]:
                assert c["max_relative_error"] is None and report.stabilization > 0
                expansions.append(c["details"]["error"])
    assert len(errors) == 19 and len(expansions) == 13 and set(expansions) <= set(errors)
    assert sum(e.startswith("reduced generator residual") for e in errors) == 17
    assert sum(e.startswith("restricted E is not bijective") for e in errors) == 2
