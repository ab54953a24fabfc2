"""analyze_pencil on pencils outside the generated real family."""

import numpy as np

import daepencil.analysis as analysis_mod
from daepencil.analysis import analyze_pencil
from daepencil.exceptions import IsomorphismError
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import new_pencil
from daepencil.verification import random_specs


def stokes_like(m):
    """The 1-D Stokes-like saddle E = diag(I_m, 0_q), A = [[L, B^T], [-B, 0]].

    L is the tridiagonal Laplacian over h^2 with h = 1/(m + 1), and B has
    q = m/2 rows with +-1/h on the disjoint node pairs (2i, 2i + 1).  At
    m = 16 its finite eigenvalues run from 17 to 561 in modulus, far outside
    the |lambda| <= 2.2 of the generated fixtures.
    """
    q = m // 2
    inv_h = float(m + 1)
    L = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) * inv_h**2
    B = np.zeros((q, m))
    B[np.arange(q), 2 * np.arange(q)] = inv_h
    B[np.arange(q), 2 * np.arange(q) + 1] = -inv_h
    E = np.zeros((m + q, m + q))
    E[:m, :m] = np.eye(m)
    A = np.block([[L, B.T], [-B, np.zeros((q, q))]])
    return new_pencil(E, A)


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
    report = analyze_pencil(stokes_like(16))
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
    tm = checks["transform_match"]
    assert not tm["passed"] and tm["max_relative_error"] is None
    assert tm["points"] == 0 and tm["details"] == {"error": message}
    assert all(c["passed"] for name, c in checks.items() if name != "transform_match")


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
    bijective); each report carries its failed transform_match."""
    errors = []
    for spec in random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e6):
        report = analyze_pencil(generate(spec)[0], spec.seed)
        for c in report.identity_checks:
            if c["identity"] == "transform_match" and c["max_relative_error"] is None:
                assert not c["passed"]
                errors.append(c["details"]["error"])
    assert len(errors) == 19
    assert sum(e.startswith("reduced generator residual") for e in errors) == 17
    assert sum(e.startswith("restricted E is not bijective") for e in errors) == 2
