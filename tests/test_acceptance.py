"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The fixture population is 200 seeded pencils spanning dimensions 2-40,
Kronecker indices 1-5, and conditioning up to 100; it is built once and
shared across criteria, with the build time charged to criterion 1.
"""

import time

import numpy as np

from daepencil.analysis import build_analysis
from daepencil.chains import check_restricted_iso, compute_chain, consistent_space
from daepencil.cli import main
from daepencil.exceptions import InconsistentInitialValueError
from daepencil.expm import expm
from daepencil.fixtures import FixtureSpec, generate
from daepencil.laplace import (
    expansion_grid,
    verify_commutation,
    verify_expansion,
    verify_shift,
    verify_solution_formula,
    verify_transform_match,
)
from daepencil.pencils import certify_regularity, index_by_nilpotency, new_pencil
from daepencil.rng import make_rng
from daepencil.solvers import (
    classical_solution,
    decomposition_oracle,
    fitting_splitting,
    implicit_euler,
)
from daepencil.subspaces import RankTolerance, contains, equal
from daepencil.verification import random_specs

MASTER_SEED = 20260809
IDENTITY_POINTS = tuple(np.geomspace(0.5, 50.0, 20))
SOLVE_GRID = np.linspace(0.0, 2.0, 9)


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    return passed


def acceptance_specs():
    """200 fixtures covering dims 2-40, Kronecker indices 1-5, cond <= 100."""
    rng = make_rng(MASTER_SEED)
    specs = []
    for i in range(200):
        kron = 1 + i % 5
        n = int(rng.integers(max(kron, 2), 41))
        blocks = [kron]
        room = n - kron
        if room > 0 and kron > 1 and rng.uniform() < 0.3:
            extra = int(rng.integers(1, min(kron, room) + 1))
            blocks.append(extra)
        cond = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
        specs.append(
            FixtureSpec(
                n1=n - sum(blocks),
                nilpotent_blocks=tuple(blocks),
                conditioning=cond,
                seed=int(rng.integers(2**63)),
            )
        )
    return specs


_CACHE = {}


def bundle():
    """Build (once) (spec, ground truth, Analysis) per fixture and record the time."""
    if "analyzed" not in _CACHE:
        start = time.perf_counter()
        analyzed = []
        for spec in acceptance_specs():
            pencil, truth = generate(spec)
            analyzed.append((spec, truth, build_analysis(pencil)))
        _CACHE["analyzed"] = analyzed
        _CACHE["build_seconds"] = time.perf_counter() - start
    return _CACHE["analyzed"]


def random_regular_pencils(count=100, seed=MASTER_SEED + 1):
    """Gaussian pencils, some with deliberately rank-deficient E."""
    rng = make_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 31))
        E = rng.standard_normal((n, n))
        drop = int(rng.integers(0, max(1, n // 2)))
        if drop:
            E[:, rng.choice(n, size=drop, replace=False)] = 0.0
        p = new_pencil(E, rng.standard_normal((n, n)))
        if certify_regularity(p).regular:
            out.append(p)
    return out


def test_criterion_1_index_agreement():
    analyzed = bundle()
    elapsed = _CACHE["build_seconds"]
    failures = []
    for spec, truth, a in analyzed:
        k = truth.growth_index
        ok = a.chain_index.k == k and a.nilpotency.k == k
        if a.growth.confident:
            ok = ok and a.growth.k == k
        if not ok:
            failures.append(spec)
    confident = sum(1 for _, _, a in analyzed if a.growth.confident)
    passed = not failures and elapsed <= 60.0
    assert _report(
        1,
        passed,
        f"200 fixtures, {len(failures)} disagreements, growth confident on "
        f"{confident}/200, built in {elapsed:.1f}s (limit 60s)",
    ), failures[:5]


def test_criterion_2_chain_laws():
    analyzed = bundle()
    violations = 0
    checked = 0
    for _, _, a in analyzed:
        chain = a.chain
        for j in range(len(chain.spaces) - 1):
            checked += 1
            if not contains(chain.spaces[j], chain.spaces[j + 1]):
                violations += 1
        k = a.nilpotency.k
        checked += 1
        if not equal(chain.spaces[k + 1], chain.spaces[k + 2]):
            violations += 1
    for pencil in random_regular_pencils():
        chain = compute_chain(pencil)
        k = index_by_nilpotency(pencil).k
        for j in range(len(chain.spaces) - 1):
            checked += 1
            if not contains(chain.spaces[j], chain.spaces[j + 1]):
                violations += 1
        checked += 1
        if not equal(chain.spaces[k + 1], chain.spaces[k + 2]):
            violations += 1
    assert _report(
        2,
        violations == 0,
        f"monotonicity and stabilization: {checked} checks, {violations} violations "
        "(200 fixtures + 100 random regular pencils, tolerance 1e-9)",
    )


def test_chain_decisions_at_conditioning_1e5():
    """Where the equality test of bases breaks down (conditioning 1e5), the
    chain stopped by dimension still finds every index and consistent space.

    The share is the one measured on this population: 60 of 60 for both.
    """
    specs = random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e5)
    index_right = dim_right = 0
    for spec in specs:
        pencil, truth = generate(spec)
        chain = compute_chain(pencil)
        index_right += chain.stabilization == truth.growth_index
        dim_right += consistent_space(pencil, chain).dim == truth.consistent_dim
    passed = index_right == dim_right == len(specs)
    assert _report(
        "2 (conditioning 1e5)",
        passed,
        f"{index_right}/60 stabilization = growth index, "
        f"{dim_right}/60 consistent dimension right",
    )


def test_criterion_3_resolvent_identities_b_d():
    analyzed = bundle()
    worst_b = worst_d = 0.0
    for _, _, a in analyzed:
        worst_b = max(worst_b, verify_commutation(a.pencil, IDENTITY_POINTS).max_relative_error)
        worst_d = max(worst_d, verify_shift(a.pencil, IDENTITY_POINTS).max_relative_error)
    passed = worst_b <= 1e-10 and worst_d <= 1e-10
    assert _report(
        3,
        passed,
        f"(b) worst {worst_b:.3e}, (d) worst {worst_d:.3e} at 20 points per pencil "
        "(tolerance 1e-10)",
    )


def canonical_pencil(n1, kron, seed):
    """Block-canonical pencil without conjugation: exact nilpotent structure."""
    rng = make_rng(seed)
    n = n1 + kron
    E = np.zeros((n, n))
    A = np.zeros((n, n))
    if n1:
        E[:n1, :n1] = np.eye(n1)
        S = rng.standard_normal((n1, n1))
        S /= max(np.linalg.norm(S, 2), 1.0)
        A[:n1, :n1] = 1.2 * np.eye(n1) + S
    E[n1:, n1:] = np.eye(kron, k=1)
    A[n1:, n1:] = np.eye(kron)
    return new_pencil(E, A)


def test_criterion_3_expansion_canonical_forms():
    worst = 0.0
    for kron in range(1, 6):
        for n1 in (0, 3):
            p = canonical_pencil(n1, kron, seed=kron + 10 * n1)
            chain = compute_chain(p)
            rep = verify_expansion(p, chain, chain.stabilization, np.geomspace(1e3, 1e6, 16))
            worst = max(worst, rep.max_relative_error)
    assert _report(
        3,
        worst <= 10.0,
        f"(e) on canonical-form pencils, Kronecker 1-5: worst C {worst:.3e} "
        "(bound 10, s in [1e3, 1e6])",
    )


def test_criterion_3_expansion_full_population():
    """Bounded-remainder expansion at k = stabilization, all fixtures, C <= 10.

    Each fixture is sampled on expansion_grid(k): s from 1e3 up to the float64
    horizon min(1e6, (1/eps)^(1/(k+1))), above which roundoff of the stored
    pencil (~eps * s^(k+1)) dominates the measured constant.  Every fixture
    (Kronecker index <= 5, so k <= 4) must have such a grid.
    """
    analyzed = bundle()
    worst_by_kron = {}
    for _, truth, a in analyzed:
        k = a.chain.stabilization
        grid = expansion_grid(k)
        assert grid is not None, f"no float64-decidable grid at k = {k}"
        rep = verify_expansion(a.pencil, a.chain, k, grid)
        kron = truth.kronecker_index
        worst_by_kron[kron] = max(worst_by_kron.get(kron, 0.0), rep.max_relative_error)
    worst = max(worst_by_kron.values())
    detail = ", ".join(f"nu={nu}: C={c:.2e}" for nu, c in sorted(worst_by_kron.items()))
    assert _report(
        3,
        worst <= 10.0,
        f"(e) full population at k = stabilization, s in expansion_grid(k): {detail}",
    ), f"worst C by index on expansion_grid(k): {detail}"


def test_expansion_default_grid_decides_index_4_fixture():
    """With no grid given, verify_expansion samples below the float64 horizon.

    A fixed grid up to s = 1e6 measures roundoff ~eps * s^4 ~ 1e8 at k = 3.
    """
    spec = acceptance_specs()[3]
    pencil, truth = generate(spec)
    assert truth.kronecker_index == 4
    chain = compute_chain(pencil)
    rep = verify_expansion(pencil, chain, chain.stabilization)
    assert rep.passed, rep.max_relative_error
    assert max(rep.sample_points) <= expansion_grid(chain.stabilization)[-1]


def test_criterion_4_restricted_isomorphism():
    analyzed = bundle()
    sigmas = []
    failures = 0
    for _, _, a in analyzed:
        iso = a.iso
        if not iso.bijective:
            failures += 1
        if iso.sigma_min is not None:
            sigmas.append(iso.sigma_min)
    q = np.percentile(sigmas, [0, 25, 50, 75, 100])
    assert _report(
        4,
        failures == 0,
        f"bijective on all 200 fixtures; sigma_min distribution "
        f"min {q[0]:.2e} / q25 {q[1]:.2e} / med {q[2]:.2e} / q75 {q[3]:.2e} / max {q[4]:.2e}",
    )


def test_restricted_iso_decides_through_the_rank_rule():
    # bijective iff the dimensions agree and tol.rank, against ||E||, keeps all
    # of C^H (E B); coarse tolerances make both verdicts and rank-deficient maps occur
    verdicts, deficient = set(), 0
    for _, _, a in bundle():
        p = a.pencil
        for chain in (a.chain, *(compute_chain(p, RankTolerance(t)) for t in (1e-4, 1e-3, 1e-2))):
            k = chain.stabilization
            B, C = chain.spaces[k + 1].basis, chain.images[k].basis
            iso = check_restricted_iso(p, chain)
            rank = 0
            if B.size and C.size:
                svals = np.linalg.svd(C.conj().T @ (p.E @ B), compute_uv=False)
                rank = chain.tol.rank(svals, (C.shape[1], B.shape[1]), reference=p.norm_E)
            same = B.shape[1] == C.shape[1]
            assert iso.bijective == (same and rank == B.shape[1])
            verdicts.add(iso.bijective)
            deficient += same and rank < B.shape[1]
    assert verdicts == {True, False} and deficient > 0


def _oracle_states(pencil, split, u0, times):
    _, _, c_r = split.components(u0)
    states = np.empty((times.size, pencil.n))
    for i, t in enumerate(times):
        states[i] = (split.range_basis @ (expm(-t * split.generator) @ c_r)).real
    return states


def test_criterion_5_classical_solution():
    analyzed = bundle()
    worst_residual = worst_initial = worst_oracle = 0.0
    trajectories = 0
    for spec, _, a in analyzed:
        cons = consistent_space(a.pencil, a.chain)
        if cons.dim == 0:
            continue
        scale = a.pencil.norm_E + a.pencil.norm_A
        split = fitting_splitting(a.pencil)
        for u0 in cons.basis.T.real:
            traj = classical_solution(a.pencil, a.chain, u0, SOLVE_GRID)
            trajectories += 1
            peak = max(float(np.max(np.linalg.norm(traj.states, axis=1))), 1e-300)
            worst_residual = max(
                worst_residual, float(np.max(traj.derivative_residuals)) / (scale * peak)
            )
            worst_initial = max(
                worst_initial,
                float(np.linalg.norm(traj.states[0] - u0)) / np.linalg.norm(u0),
            )
            ref = _oracle_states(a.pencil, split, u0, SOLVE_GRID)
            worst_oracle = max(
                worst_oracle,
                float(np.max(np.linalg.norm(ref - traj.states, axis=1))) / peak,
            )
    passed = worst_residual <= 1e-8 and worst_initial <= 1e-12 and worst_oracle <= 1e-7
    assert _report(
        5,
        passed,
        f"{trajectories} consistent-basis trajectories: residual {worst_residual:.2e} "
        f"(<=1e-8 rel), initial {worst_initial:.2e} (<=1e-12), oracle {worst_oracle:.2e} (<=1e-7)",
    )


def test_criterion_6_laplace_solution_formulas():
    analyzed = bundle()
    worst_formula = 0.0
    worst_transform = 0.0
    transforms = 0
    for spec, _, a in analyzed:
        rng = make_rng(spec.seed + 77)
        u0 = rng.standard_normal(a.pencil.n)
        u0 /= np.linalg.norm(u0)
        rep = verify_solution_formula(a.pencil, u0, IDENTITY_POINTS)
        worst_formula = max(worst_formula, rep.max_relative_error)

        cons = consistent_space(a.pencil, a.chain)
        if cons.dim == 0:
            continue
        rep = verify_transform_match(a.pencil, a.chain, cons.basis[:, 0])
        transforms += 1
        worst_transform = max(worst_transform, rep.max_relative_error)
    passed = worst_formula <= 1e-10 and worst_transform <= 1e-6
    assert _report(
        6,
        passed,
        f"solution formula worst {worst_formula:.2e} (<=1e-10, arbitrary u0, 20 points); "
        f"transform match worst {worst_transform:.2e} (<=1e-6, {transforms} fixtures)",
    )


def test_criterion_7_inconsistency_detection():
    analyzed = bundle()
    applicable = 0
    detected = 0
    for spec, _, a in analyzed:
        cons = consistent_space(a.pencil, a.chain)
        n = a.pencil.n
        if cons.dim >= n:
            continue
        applicable += 1
        off = np.eye(n) - cons.basis @ cons.basis.conj().T
        j = int(np.argmax(np.linalg.norm(off, axis=0)))
        bad = off[:, j].real / np.linalg.norm(off[:, j])
        if cons.dim:
            bad = bad + cons.basis[:, 0].real
        hits = 0
        try:
            classical_solution(a.pencil, a.chain, bad, SOLVE_GRID)
        except InconsistentInitialValueError:
            hits += 1
        try:
            decomposition_oracle(a.pencil, bad, SOLVE_GRID)
        except InconsistentInitialValueError:
            hits += 1
        if hits == 2:
            detected += 1
    assert _report(
        7,
        detected == applicable,
        f"{detected}/{applicable} fixtures with consistent_dim < n flagged by both "
        "the classical solver and the splitting oracle (100% required)",
    )


def test_criterion_8_implicit_euler():
    ratios = []
    # index-0 conjugated fixture and the hand pencil diag(1, N2) vs identity
    p_ode, _ = generate(FixtureSpec(4, (), 50.0, MASTER_SEED))
    p_mixed = new_pencil(
        np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]]), np.eye(3)
    )
    for pencil in (p_ode, p_mixed):
        chain = compute_chain(pencil)
        u0 = consistent_space(pencil, chain).basis[:, 0].real

        def solve_err(h):
            traj = implicit_euler(pencil, u0, h, 1.0)
            ref = classical_solution(pencil, chain, u0, traj.times)
            return np.max(np.linalg.norm(traj.states - ref.states, axis=1))

        ratios.append(solve_err(0.02) / solve_err(0.01))
    first_order = all(1.7 <= r <= 2.3 for r in ratios)

    def forcing(t):
        return np.array([1.0, 0.0, 0.0]) if t >= 1.0 else np.zeros(3)

    traj = implicit_euler(p_mixed, np.zeros(3), 0.125, 2.0, forcing=forcing)
    causal = bool(np.all(traj.states[traj.times < 1.0] == 0.0))
    assert _report(
        8,
        first_order and causal,
        f"convergence ratios {', '.join(f'{r:.2f}' for r in ratios)} (in [1.7, 2.3]); "
        f"delayed forcing states exactly zero before onset: {causal}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    args = [
        "verify",
        "--random",
        "5",
        "--dim-range",
        "2..12",
        "--index-range",
        "0..2",
        "--seed",
        "13",
    ]
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main([*args, "--json", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main([*args, "--json", str(out2)]) == 0
    stdout2 = capsys.readouterr().out
    identical = stdout1 == stdout2 and out1.read_bytes() == out2.read_bytes()
    assert _report(
        9,
        identical,
        "two cmd_verify runs with the same seed: stdout and JSON byte-identical",
    )
