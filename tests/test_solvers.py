import gc
import pickle
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

import daepencil.solvers as solvers_mod
from daepencil.chains import check_restricted_iso, compute_chain, consistent_space
from daepencil.analysis import analyze_pencil, build_analysis, identity_checks
from daepencil.exceptions import (
    ConditioningWarning,
    InconsistentInitialValueError,
    IsomorphismError,
    NonFiniteEntriesError,
    NotRegularError,
    ShapeMismatchError,
    SingularMatrixError,
)
from daepencil.fixtures import FixtureSpec, generate
from daepencil.laplace import (
    hat_solution,
    verify_expansion,
    verify_identities,
    verify_transform_match,
)
from daepencil.pencils import _wong_chain, index_by_nilpotency, new_pencil
from daepencil.solvers import (
    classical_solution,
    decomposition_oracle,
    fitting_splitting,
    implicit_euler,
    is_consistent,
    nearest_consistent,
    reduced_generator,
)
from daepencil.subspaces import RankTolerance, contains, distance, full_space, span
from daepencil.verification import random_specs, run_suite

N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
DIAG_1_N2_E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
E1_3 = np.array([1.0, 0.0, 0.0])


@pytest.fixture
def mixed():
    p = new_pencil(DIAG_1_N2_E, np.eye(3))
    return p, compute_chain(p)


def offset_consistent(tol, step=1e-7):
    """(pencil, chain at tol, u0) for FixtureSpec(3, (2,), 100, 5): u0 is a consistent
    basis vector plus step times a unit normal to the consistent space."""
    p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
    chain = compute_chain(p, tol)
    cons = consistent_space(p, chain)
    off = np.eye(p.n) - cons.basis @ cons.basis.T
    w = off[:, np.argmax(np.linalg.norm(off, axis=0))]
    return p, chain, cons.basis[:, 0] + step * w / np.linalg.norm(w)


@pytest.fixture
def nilpotent():
    p = new_pencil(N2, np.eye(2))
    return p, compute_chain(p)


class TestConsistency:
    def test_everything_consistent_for_invertible_E(self):
        rng = np.random.default_rng(0)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        chain = compute_chain(p)
        ok, dist = is_consistent(p, chain, rng.standard_normal(3))
        assert ok and dist < 1e-12

    def test_nilpotent_rejects_e1(self, nilpotent):
        p, chain = nilpotent
        ok, dist = is_consistent(p, chain, np.array([1.0, 0.0]))
        assert not ok
        assert dist == pytest.approx(1.0)

    def test_mixed_accepts_e1(self, mixed):
        p, chain = mixed
        ok, dist = is_consistent(p, chain, E1_3)
        assert ok and dist < 1e-12

    def test_chain_tolerance_decides_consistency(self):
        # u0 and span([u0]) get one verdict: the chain's membership tolerance
        p, chain, u0 = offset_consistent(RankTolerance(1e-7))
        assert contains(consistent_space(p, chain), span([u0], chain.tol))
        ok, dist = is_consistent(p, chain, u0)
        assert ok and dist == pytest.approx(1e-7)
        traj = classical_solution(p, chain, u0, np.linspace(0.0, 1.0, 5))
        np.testing.assert_allclose(traj.states[0], nearest_consistent(p, chain, u0), atol=1e-14)

    def test_default_tolerance_rejects_the_same_offset(self):
        p, chain, u0 = offset_consistent(RankTolerance())
        assert not contains(consistent_space(p, chain), span([u0], chain.tol))
        assert not is_consistent(p, chain, u0)[0]
        with pytest.raises(InconsistentInitialValueError):
            classical_solution(p, chain, u0, np.linspace(0.0, 1.0, 5))

    def test_nearest_consistent_projects(self, nilpotent, mixed):
        p, chain = nilpotent
        np.testing.assert_allclose(
            nearest_consistent(p, chain, np.array([3.0, 4.0])), np.zeros(2)
        )
        p, chain = mixed
        np.testing.assert_allclose(
            nearest_consistent(p, chain, np.array([2.0, 1.0, 1.0])),
            np.array([2.0, 0.0, 0.0]),
            atol=1e-14,
        )


class TestReducedGenerator:
    def test_similar_to_A_when_E_identity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        p = new_pencil(np.eye(4), A)
        gen = reduced_generator(p, compute_chain(p))
        assert gen.dim == 4
        # M = B^H A B is similar to A: same spectrum
        ours = np.sort_complex(np.linalg.eigvals(gen.M))
        ref = np.sort_complex(np.linalg.eigvals(A))
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-9)

    def test_mixed_block_scalar_generator(self, mixed):
        p, chain = mixed
        gen = reduced_generator(p, chain)
        assert gen.dim == 1
        np.testing.assert_allclose(gen.M, [[1.0]], atol=1e-12)
        assert gen.max_residual <= 1e-8 * 2

    def test_empty_generator_for_trivial_space(self):
        p = new_pencil(np.zeros((2, 2)), np.eye(2))
        gen = reduced_generator(p, compute_chain(p))
        assert gen.dim == 0 and gen.M.shape == (0, 0)

    def test_one_solve_and_no_least_squares(self, monkeypatch):
        # S = C^H E B is certified square and of full rank before _generator runs
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        chain = compute_chain(p)
        assert check_restricted_iso(p, chain).bijective and p.norm_E and p.norm_A
        calls = []
        for name in ("solve", "lstsq"):
            real = getattr(np.linalg, name)
            counted = lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k)
            monkeypatch.setattr(np.linalg, name, counted)
        assert solvers_mod._generator(chain).dim == 3
        assert calls == ["solve"]

    @pytest.mark.parametrize("conditioning, refusals", [(1e2, 0), (1e6, 17)])
    def test_refused_exactly_where_least_squares_misses_the_cap(self, conditioning, refusals):
        refused = 0
        for spec in random_specs(60, (2, 20), (0, 4), 1, conditioning=conditioning):
            p, _ = generate(spec)
            chain = compute_chain(p)
            if not check_restricted_iso(p, chain).bijective:
                continue
            k = chain.stabilization
            B = chain.spaces[k + 1].basis
            if B.shape[1] == 0:
                continue
            S = chain.images[k].basis.conj().T @ (p.E @ B)
            ref = np.linalg.lstsq(S, chain.images[k].basis.conj().T @ (p.A @ B), rcond=None)[0]
            worst = np.max(np.linalg.norm(p.E @ (B @ ref) - p.A @ B, axis=0))
            if worst > solvers_mod.GENERATOR_RTOL * (p.norm_E + p.norm_A):
                refused += 1
                with pytest.raises(IsomorphismError, match="reduced generator residual"):
                    reduced_generator(p, chain)
            else:
                M = reduced_generator(p, chain).M
                assert np.linalg.norm(M - ref) <= 1e-9 * np.linalg.norm(ref)
        assert refused == refusals

    def test_residual_invariant_on_fixtures(self):
        for nu, n1 in [(1, 3), (2, 2), (3, 4)]:
            p, _ = generate(FixtureSpec(n1, (nu,), 100.0, nu + 3 * n1))
            chain = compute_chain(p)
            gen = reduced_generator(p, chain)
            scale = np.linalg.norm(p.E, 2) + np.linalg.norm(p.A, 2)
            assert gen.max_residual <= 1e-8 * scale


class TestClassicalSolution:
    def test_scalar_decay(self):
        p = new_pencil(np.eye(2), np.eye(2))
        chain = compute_chain(p)
        traj = classical_solution(p, chain, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(traj.states[-1], [np.exp(-1.0), 0.0], rtol=1e-12)

    def test_mixed_block_decay(self, mixed):
        p, chain = mixed
        times = np.linspace(0.0, 1.0, 5)
        traj = classical_solution(p, chain, E1_3, times)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), rtol=1e-12)
        np.testing.assert_allclose(traj.states[:, 1:], 0.0, atol=1e-14)
        assert traj.method == "exponential"

    def test_zero_initial_value(self, nilpotent):
        p, chain = nilpotent
        traj = classical_solution(p, chain, np.zeros(2), np.linspace(0, 1, 3))
        assert np.all(traj.states == 0.0)

    def test_inconsistent_raises_with_payload(self, nilpotent):
        p, chain = nilpotent
        with pytest.raises(InconsistentInitialValueError) as err:
            classical_solution(p, chain, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert err.value.distance == pytest.approx(1.0)
        np.testing.assert_allclose(err.value.jump, np.zeros(2))  # V* = {0}

    def test_residual_and_initial_value_invariants(self):
        p, truth = generate(FixtureSpec(4, (2,), 100.0, 8))
        chain = compute_chain(p)
        cons = consistent_space(p, chain)
        scale = np.linalg.norm(p.E, 2) + np.linalg.norm(p.A, 2)
        times = np.linspace(0.0, 2.0, 9)
        for u0 in cons.basis.T.real:
            traj = classical_solution(p, chain, u0, times)
            peak = np.max(np.linalg.norm(traj.states, axis=1))
            assert np.max(traj.derivative_residuals) <= 1e-8 * scale * peak
            assert np.linalg.norm(traj.states[0] - u0) <= 1e-12 * np.linalg.norm(u0)
            for state in traj.states:
                assert distance(cons, state) <= 1e-9 * max(np.linalg.norm(state), 1e-300)

    def test_semigroup_property(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 21))
        chain = compute_chain(p)
        cons = consistent_space(p, chain)
        rng = np.random.default_rng(5)
        for _ in range(20):
            t, s = rng.uniform(0.05, 1.5, size=2)
            u0 = cons.basis.real @ rng.standard_normal(cons.dim)
            direct = classical_solution(p, chain, u0, np.array([0.0, t + s])).states[-1]
            stop = classical_solution(p, chain, u0, np.array([0.0, t])).states[-1]
            restart = classical_solution(p, chain, stop, np.array([0.0, s])).states[-1]
            scale = max(np.linalg.norm(direct), 1e-300)
            assert np.linalg.norm(restart - direct) / scale <= 1e-9

    def test_nonuniform_grid_matches_uniform_evaluation(self, mixed):
        p, chain = mixed
        times = np.array([0.0, 0.13, 0.5, 0.51, 1.7])
        traj = classical_solution(p, chain, E1_3, times)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), rtol=1e-12)

    def test_rejects_bad_grid(self, mixed):
        p, chain = mixed
        with pytest.raises(ValueError):
            classical_solution(p, chain, E1_3, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            classical_solution(p, chain, E1_3, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="times must be a nonempty 1-d grid"):
            classical_solution(p, chain, E1_3, np.array([]))

    def test_complex_left_scaling_invariance(self, mixed):
        # multiplying E and A by the same invertible matrix changes neither
        # the IV spaces nor the solutions; use a complex unitary diagonal
        p, chain = mixed
        D = np.diag(np.exp(1j * np.array([0.3, 1.1, -0.7])))
        pc = new_pencil(D @ p.E, D @ p.A)
        assert pc.is_complex
        chain_c = compute_chain(pc)
        assert chain_c.dims == chain.dims
        times = np.linspace(0.0, 1.0, 5)
        traj = classical_solution(pc, chain_c, E1_3.astype(complex), times)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), atol=1e-11)


class TestImplicitEuler:
    def test_scalar_geometric_recursion(self):
        # (E/h + A) u+ = (E/h) u: each step multiplies by 10/11
        p = new_pencil([[1.0]], [[1.0]])
        traj = implicit_euler(p, np.array([1.0]), h=0.1, T=1.0)
        assert traj.states[-1][0] == pytest.approx((10.0 / 11.0) ** 10, rel=1e-14)
        assert len(traj.times) == 11

    def test_first_order_convergence(self, mixed):
        p, chain = mixed

        def err(h):
            traj = implicit_euler(p, E1_3, h, 1.0)
            ref = classical_solution(p, chain, E1_3, traj.times)
            return np.max(np.linalg.norm(traj.states - ref.states, axis=1))

        ratio = err(0.02) / err(0.01)
        assert 1.7 <= ratio <= 2.3

    def test_convergence_on_conjugated_fixture(self):
        p, _ = generate(FixtureSpec(1, (2,), 50.0, 4))
        chain = compute_chain(p)
        u0 = consistent_space(p, chain).basis[:, 0].real

        def err(h):
            traj = implicit_euler(p, u0, h, 1.0)
            ref = classical_solution(p, chain, u0, traj.times)
            return np.max(np.linalg.norm(traj.states - ref.states, axis=1))

        ratio = err(0.02) / err(0.01)
        assert 1.7 <= ratio <= 2.3

    @pytest.mark.parametrize("seed", range(6))
    def test_index_three_stays_near_the_exponential_route(self, seed):
        # stepping a vector keeps the roundoff of W's nilpotent block in check;
        # squaring W, as a grid filled by doubling would, reads NaN on all six
        p, _ = generate(FixtureSpec(36, (3,), 100.0, seed))
        chain = compute_chain(p)
        u0 = consistent_space(p, chain).basis[:, 0]
        traj = implicit_euler(p, u0, 1e-3, 2.0)
        ref = classical_solution(p, chain, u0, traj.times)
        assert np.all(np.isfinite(traj.states))
        err = np.max(np.linalg.norm(traj.states - ref.states, axis=1))
        assert err <= 1e-2 * np.max(np.linalg.norm(ref.states, axis=1))

    def test_delayed_forcing_causality(self, mixed):
        p, _ = mixed

        def forcing(t):
            return np.array([1.0, 0.0, 0.0]) if t >= 1.0 else np.zeros(3)

        traj = implicit_euler(p, np.zeros(3), h=0.125, T=2.0, forcing=forcing)
        before = traj.states[traj.times < 1.0]
        after = traj.states[traj.times >= 1.0 + 0.125]
        assert np.all(before == 0.0)  # exact zeros, not just small
        assert np.any(after != 0.0)

    def test_residual_column_shrinks_with_steps(self, mixed):
        p, _ = mixed
        r_coarse = np.max(implicit_euler(p, E1_3, 0.1, 1.0).derivative_residuals)
        r_fine = np.max(implicit_euler(p, E1_3, 0.05, 1.0).derivative_residuals)
        assert r_fine < r_coarse

    def test_forced_steady_state(self):
        p = new_pencil([[1.0]], [[2.0]])
        traj = implicit_euler(p, np.array([0.0]), 0.05, 8.0, forcing=lambda t: np.array([2.0]))
        assert traj.states[-1][0] == pytest.approx(1.0, rel=1e-4)

    def test_singular_step_is_nudged(self):
        # E/h + A = I/0.1 - I/0.1 is exactly zero at h = 0.1
        p = new_pencil(np.eye(2), -np.eye(2) / 0.1)
        u0 = np.array([1.0, -2.0])
        with pytest.warns(ConditioningWarning, match="singular at h=0.1"):
            traj = implicit_euler(p, u0, 0.1, 0.3)
        assert np.all(np.isfinite(traj.states)) and traj.times[1] == 0.1 * 1.01
        np.testing.assert_array_equal(traj.states, implicit_euler(p, u0, 0.1 * 1.01, 0.3).states)

    def test_singular_at_every_step_raises(self):
        p = new_pencil(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError, match="E/h \\+ A is singular"):
            implicit_euler(p, np.ones(2), 0.1, 1.0)

    def test_non_finite_forcing_is_refused_as_such(self):
        p = new_pencil(np.eye(2), np.eye(2))
        with pytest.raises(NonFiniteEntriesError, match="forcing returned non-finite"):
            implicit_euler(p, np.ones(2), 0.1, 0.3, forcing=lambda t: np.array([np.nan, 0.0]))

    def test_forcing_of_the_wrong_length_is_refused(self):
        p = new_pencil(np.eye(2), np.eye(2))
        with pytest.raises(ShapeMismatchError, match="forcing must return vectors of pencil size"):
            implicit_euler(p, np.ones(2), 0.1, 0.3, forcing=lambda t: np.zeros(3))

    def test_overflowing_step_matrix_raises(self):
        # E/h overflows to inf at h = 1e-310 and the solve returns NaN, which
        # the singular rule of every shifted solve refuses
        p = new_pencil(np.eye(2), np.eye(2))
        with np.errstate(over="ignore"):
            with pytest.raises(SingularMatrixError, match="E/h \\+ A is numerically singular"):
                implicit_euler(p, np.ones(2), 1e-310, 1e-310)


class TestDecompositionOracle:
    def test_plain_ode_reproduces_exponential(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((3, 3))
        p = new_pencil(np.eye(3), A)
        u0 = rng.standard_normal(3)
        times = np.linspace(0.0, 1.0, 6)
        traj = decomposition_oracle(p, u0, times)
        ref = classical_solution(p, compute_chain(p), u0, times)
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-9 * np.max(np.abs(ref.states))

    def test_kernel_component_flagged(self):
        p = new_pencil(N2, np.eye(2))
        with pytest.raises(InconsistentInitialValueError) as err:
            decomposition_oracle(p, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert err.value.distance == pytest.approx(1.0, rel=1e-8)

    def test_mixed_block_agrees(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        times = np.linspace(0.0, 1.0, 5)
        traj = decomposition_oracle(p, E1_3, times)
        np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), atol=1e-9)

    def test_agreement_on_fixtures(self):
        for nu, n1, seed in [(1, 3, 0), (2, 2, 1), (3, 3, 2), (4, 2, 3)]:
            p, _ = generate(FixtureSpec(n1, (nu,), 100.0, seed))
            chain = compute_chain(p)
            cons = consistent_space(p, chain)
            times = np.linspace(0.0, 2.0, 9)
            for u0 in cons.basis.T.real:
                ours = classical_solution(p, chain, u0, times)
                ref = decomposition_oracle(p, u0, times)
                peak = np.max(np.linalg.norm(ours.states, axis=1))
                assert np.max(np.linalg.norm(ours.states - ref.states, axis=1)) <= 1e-7 * peak

    def test_not_regular_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotRegularError):
            decomposition_oracle(new_pencil(M, M), np.ones(2), np.array([0.0, 1.0]))

    def test_split_keeps_the_wong_chains_tolerance(self, monkeypatch):
        # the range part's IV chain is computed at the tolerance of the W chain
        tols, real = [], solvers_mod.compute_chain
        monkeypatch.setattr(
            solvers_mod, "compute_chain", lambda p, tol: tols.append(tol) or real(p, tol)
        )
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        split = fitting_splitting(p)
        assert split.tol is _wong_chain(p)[0].tol
        assert len(tols) == 1 and tols[0] is split.tol
        assert split.tol == RankTolerance()

    def test_splitting_dimensions(self):
        p, truth = generate(FixtureSpec(2, (3,), 100.0, 12))
        split = fitting_splitting(p)
        assert split.range_basis.shape[1] == truth.consistent_dim
        assert split.kernel_basis.shape[1] == p.n - truth.consistent_dim
        assert 0 < split.basis_sigma_min <= 1.0

    def test_range_that_never_shrinks_raises(self, monkeypatch):
        # a range part that keeps the whole space leaves no room for W*
        monkeypatch.setattr(solvers_mod, "consistent_space", lambda p, chain: full_space(p.n))
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        with pytest.raises(SingularMatrixError, match="range dim 5 \\+ kernel dim 3 != 5"):
            fitting_splitting(p)

    def test_no_spurious_rejection_on_hard_fixture(self):
        # strongly conditioned multi-block problem: the oblique components of
        # a genuinely consistent u0 must stay below the widened threshold
        p, _ = generate(FixtureSpec(24, (4, 3), 100.0, 99))
        chain = compute_chain(p)
        cons = consistent_space(p, chain)
        times = np.linspace(0.0, 1.0, 5)
        for u0 in cons.basis.T.real[:6]:
            traj = decomposition_oracle(p, u0, times)
            ref = classical_solution(p, chain, u0, times)
            peak = np.max(np.linalg.norm(ref.states, axis=1))
            assert np.max(np.linalg.norm(traj.states - ref.states, axis=1)) <= 1e-7 * peak


class TestOneGenerator:
    """The oracle evolves by the kept reduced generator, whose basis is the split's range basis."""

    def test_oracle_solves_nothing_once_the_generator_is_kept(self, monkeypatch):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        gen = reduced_generator(p, compute_chain(p))
        calls, build = [], solvers_mod._generator
        monkeypatch.setattr(solvers_mod, "_generator", lambda c: calls.append(c) or build(c))
        decomposition_oracle(p, gen.basis, np.linspace(0.0, 1.0, 3))
        assert calls == []
        assert fitting_splitting(p).range_basis is gen.basis

    @pytest.mark.parametrize(
        "spec",
        [
            FixtureSpec(5, (2,), 1e6, 4514850545263806986),
            FixtureSpec(5, (2, 1), 1e6, 5829590293598359382),
            FixtureSpec(7, (), 1e6, 4638956394626251145),
            FixtureSpec(16, (1,), 1e6, 3142015530790644800),
        ],
    )
    def test_oracle_agrees_at_conditioning_1e6(self, spec):
        p, _ = generate(spec)
        chain = compute_chain(p)
        basis = consistent_space(p, chain).basis
        times = np.linspace(0.0, 2.0, 9)
        ours = classical_solution(p, chain, basis, times).states
        ref = decomposition_oracle(p, basis, times).states
        peak = np.max(np.linalg.norm(ours, axis=1), axis=0)
        assert np.all(np.max(np.linalg.norm(ref - ours, axis=1), axis=0) <= 1e-7 * peak)

    @pytest.mark.filterwarnings("ignore::daepencil.exceptions.ConditioningWarning")
    def test_oracle_refuses_where_the_generator_is_refused(self):
        # a wrong IV chain (consistent dimension 14, not 16) whose split is built
        p, truth = generate(FixtureSpec(16, (1,), 1e6, 219515429046291558))
        chain = compute_chain(p)
        basis = consistent_space(p, chain).basis
        assert basis.shape[1] != truth.consistent_dim
        with pytest.raises(IsomorphismError):
            reduced_generator(p, chain)
        split = fitting_splitting(p)
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(IsomorphismError, match="reduced generator residual"):
            decomposition_oracle(p, basis, times)
        with pytest.raises(InconsistentInitialValueError):
            decomposition_oracle(p, split.kernel_basis[:, 0], times)


class TestWongSplit:
    @pytest.mark.filterwarnings("ignore::daepencil.exceptions.ConditioningWarning")
    def test_split_refuses_no_pencil_whose_routes_are_right(self):
        # at conditioning 1e6 the split may refuse a pencil, but only one
        # whose IV chain or W chain is wrong
        right = 0
        for spec in random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e6):
            p, truth = generate(spec)
            chain = compute_chain(p)
            if (
                chain.stabilization == truth.growth_index
                and consistent_space(p, chain).dim == truth.consistent_dim
                and index_by_nilpotency(p).diagnostics["nilpotency"] == truth.kronecker_index
            ):
                right += 1
                fitting_splitting(p)  # SingularMatrixError if refused
        assert right >= 30


def _finite(alpha, beta):
    return np.abs(beta) > 1e-6 * np.abs(alpha)


def _qz_agreement(specs, range_basis):
    """(fixtures, worst distance) over the fixtures where QZ's count of finite
    eigenvalues equals both the true and the chain's consistent dimension; the
    distance is sin of the largest principal angle between range_basis(pencil)
    and the finite right deflating subspace of (A, E), sorted first by ordqz."""
    agree, worst = 0, 0.0
    for spec in specs:
        p, truth = generate(spec)
        *_, alpha, beta, _, Z = scipy.linalg.ordqz(p.A, p.E, sort=_finite, output="complex")
        r = int(np.count_nonzero(_finite(alpha, beta)))
        if not r == truth.consistent_dim == consistent_space(p, compute_chain(p)).dim:
            continue  # QZ is no oracle of dimensions
        agree += 1
        V, Zr = range_basis(p), Z[:, :r]
        if r:
            worst = max(worst, float(np.linalg.norm(Zr - V @ (V.conj().T @ Zr), 2)))
    return agree, worst


class TestQzDeflatingSubspace:
    """V* of the split against the finite deflating subspace of QZ (Moler and Stewart)."""

    @pytest.mark.filterwarnings("ignore::daepencil.exceptions.ConditioningWarning")
    @pytest.mark.parametrize(
        "seed, conditioning, floor", [(1, 1e2, 20), (7, 1e2, 20), (1, 1e5, 8)]
    )
    def test_range_basis_spans_the_finite_deflating_subspace(self, seed, conditioning, floor):
        # measured: 38, 38 and 15 of 60 fixtures agree, worst 5.8e-14, 3.3e-13 and 2.5e-10
        specs = random_specs(60, (2, 20), (0, 4), seed, conditioning)
        agree, worst = _qz_agreement(specs, lambda p: fitting_splitting(p).range_basis)
        assert agree >= floor
        assert worst <= 1e-6

    def test_a_range_basis_turned_out_of_v_star_is_caught(self):
        def turned(p):
            V = fitting_splitting(p).range_basis
            if not 0 < V.shape[1] < p.n:
                return V
            off = np.eye(p.n) - V @ V.conj().T
            w = off[:, np.argmax(np.linalg.norm(off, axis=0))]
            V = V.copy()
            V[:, 0] = np.cos(1e-3) * V[:, 0] + np.sin(1e-3) * w / np.linalg.norm(w)
            return V

        agree, worst = _qz_agreement(random_specs(10, (2, 20), (0, 4), 1, 1e2), turned)
        assert agree > 0 and worst > 1e-6


class TestCachedArtifacts:
    def test_second_call_returns_same_object(self):
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        chain = compute_chain(p)
        assert fitting_splitting(p) is fitting_splitting(p)
        assert reduced_generator(p, chain) is reduced_generator(p, chain)
        assert check_restricted_iso(p, chain) is check_restricted_iso(p, chain)

    def test_chain_artifacts_are_kept_on_the_pencil(self):
        # every compute_chain call wraps the kept spaces in a new IvChain; the
        # restricted map and the reduced generator are shared across them
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        first, second = compute_chain(p), compute_chain(p)
        assert first is not second
        assert check_restricted_iso(p, first) is check_restricted_iso(p, second)
        assert reduced_generator(p, first) is reduced_generator(p, second)
        other = compute_chain(p, RankTolerance(1e-8))
        assert reduced_generator(p, other) is not reduced_generator(p, compute_chain(p))

    def test_one_iv_chain_per_pencil_and_tolerance(self):
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        assert compute_chain(p).spaces is compute_chain(p).spaces
        assert compute_chain(p).images is compute_chain(p, RankTolerance(1e-10)).images
        assert compute_chain(p, RankTolerance(1e-8)).spaces is not compute_chain(p).spaces
        # the split's range part is the consistent space of the kept chain
        assert fitting_splitting(p).range_basis is consistent_space(p, compute_chain(p)).basis

    def test_verify_builds_one_iv_chain_per_fixture(self, monkeypatch):
        import daepencil.chains as chains_mod

        spec = FixtureSpec(2, (2,), 100.0, 1)
        steps = len(compute_chain(generate(spec)[0]).spaces) - 1
        calls, real = [], chains_mod.preimage
        monkeypatch.setattr(chains_mod, "preimage", lambda *a: calls.append(a) or real(*a))
        assert run_suite([spec]).passed
        # the oracle's split reads the chain the analysis built
        assert len(calls) == steps

    def test_no_two_norm_beyond_norm_E_and_norm_A(self, matrix_norm2_calls, matrix_svd_calls):
        p, _ = generate(FixtureSpec(4, (3, 2), 100.0, 12))
        p = new_pencil(p.E, p.A)  # nothing kept yet
        matrix_norm2_calls.clear()
        matrix_svd_calls.clear()
        fitting_splitting(p)
        index_by_nilpotency(p)
        # norm_E is the top value of E's one SVD, svd_E
        assert [x is p.A for x in matrix_norm2_calls] == [True]
        assert [x is p.E for x in matrix_svd_calls].count(True) == 1

    def test_cached_arrays_are_read_only(self):
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        split = fitting_splitting(p)
        gen = reduced_generator(p, compute_chain(p))
        for array in (split.range_basis, split.kernel_basis, gen.M, gen.basis):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_chain_of_another_pencil_is_rejected(self, mixed):
        _, chain = mixed
        other = new_pencil(DIAG_1_N2_E, 2.0 * np.eye(3))
        for call in (
            lambda: consistent_space(other, chain),
            lambda: check_restricted_iso(other, chain),
            lambda: reduced_generator(other, chain),
            lambda: classical_solution(other, chain, E1_3, np.array([0.0, 1.0])),
            lambda: verify_expansion(other, chain, 1),
        ):
            with pytest.raises(ShapeMismatchError):
                call()

    def test_equal_pencil_built_twice_shares_the_chain(self, mixed):
        _, chain = mixed
        twin = new_pencil(DIAG_1_N2_E.copy(), np.eye(3))
        traj = classical_solution(twin, chain, E1_3, np.array([0.0, 1.0]))
        assert traj.states[-1][0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def _jordan(d, lam):
    return lam * np.eye(d) + np.diag(np.full(d - 1, 2.0), 1)


_RNG = np.random.default_rng(11)
_Q = np.linalg.qr(_RNG.standard_normal((6, 6)))[0]
EVOLVE_GENERATORS = {
    "normal": _Q @ np.diag([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]) @ _Q.T,
    "jordan": _jordan(6, 1.0),
    "growing": _jordan(6, -1.0) + 0.1 * _RNG.standard_normal((6, 6)),
    "complex": _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6)),
}


class TestEvolveDoubling:
    """Uniform grids are filled by repeated squaring; compare with one exponential per point."""

    @pytest.mark.parametrize("kind", sorted(EVOLVE_GENERATORS))
    @pytest.mark.parametrize("size", [3, 4, 5, 9, 1601, 2001])
    @pytest.mark.parametrize("t0", [0.0, 0.7])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_direct_exponential(self, kind, size, t0, m):
        M = EVOLVE_GENERATORS[kind]
        C0 = np.random.default_rng(size + m).standard_normal((6, m))
        times = t0 + np.linspace(0.0, 2.0, size)
        rows = solvers_mod._evolve(M, C0, times)
        assert rows.shape == (size * m, 6)
        direct = np.array([(scipy.linalg.expm(-t * M) @ C0).T for t in times])
        peak = np.max(np.linalg.norm(direct, axis=2))
        assert np.max(np.abs(rows.reshape(size, m, 6) - direct)) <= 1e-12 * peak


# acceptance_specs()[1], [2], [4] and [7] of the acceptance suite
BLOCK_SPECS = [
    FixtureSpec(7, (2,), 77.18982493462926, 8260361215794292901),
    FixtureSpec(32, (3,), 65.64330185339603, 6243975140293346584),
    FixtureSpec(3, (5, 5), 51.769710268767454, 3863699837839773971),
    FixtureSpec(11, (3,), 34.402767867042435, 8402350920931806502),
]


def _block_case(spec, complex_):
    """(pencil, chain, consistent basis as a block of initial values)."""
    p, _ = generate(spec)
    if complex_:  # a complex diagonal on the left changes neither IV spaces nor solutions
        D = np.diag(np.exp(1j * np.linspace(0.3, 2.0, p.n)))
        p = new_pencil(D @ p.E, D @ p.A)
    chain = compute_chain(p)
    basis = consistent_space(p, chain).basis
    return p, chain, basis if complex_ else basis.real


class TestBlockInitialValues:
    TIMES = np.linspace(0.0, 2.0, 9)

    @pytest.mark.parametrize(
        "spec, complex_", [(s, False) for s in BLOCK_SPECS] + [(BLOCK_SPECS[1], True)]
    )
    def test_block_matches_columns(self, spec, complex_):
        p, chain, U0 = _block_case(spec, complex_)
        m = U0.shape[1]
        solves = (
            lambda u: classical_solution(p, chain, u, self.TIMES),
            lambda u: decomposition_oracle(p, u, self.TIMES),
        )
        for solve in solves:
            block = solve(U0)
            assert block.states.shape == (9, p.n, m)
            assert block.derivative_residuals.shape == (9, m)
            for j in range(m):
                single = solve(U0[:, j])
                peak = np.max(np.abs(single.states))
                assert np.max(np.abs(block.states[:, :, j] - single.states)) <= 1e-13 * peak
                res = single.derivative_residuals
                diff = np.abs(block.derivative_residuals[:, j] - res)
                assert np.max(diff) <= 1e-13 * max(np.max(res), 1e-300)

    def test_vector_keeps_its_shapes(self):
        p, chain, U0 = _block_case(BLOCK_SPECS[0], False)
        for traj in (
            classical_solution(p, chain, U0[:, 0], self.TIMES),
            decomposition_oracle(p, U0[:, 0], self.TIMES),
        ):
            assert traj.states.shape == (9, p.n)
            assert traj.derivative_residuals.shape == (9,)

    def test_block_with_inconsistent_columns_is_rejected(self):
        spec = BLOCK_SPECS[0]
        p, chain, U0 = _block_case(spec, False)
        cons = consistent_space(p, chain)
        off = np.eye(p.n) - cons.basis @ cons.basis.T
        away = off[:, np.argmax(np.linalg.norm(off, axis=0))]
        away /= np.linalg.norm(away)
        block = np.column_stack([U0[:, 0], U0[:, 1] + 0.3 * away, U0[:, 2] + 0.7 * away])
        ok, dist = is_consistent(p, chain, block)
        assert not ok and dist == pytest.approx(0.7)
        assert is_consistent(p, chain, U0) == (True, pytest.approx(0.0, abs=1e-12))
        with pytest.raises(InconsistentInitialValueError) as err:
            classical_solution(p, chain, block, self.TIMES)
        assert err.value.distance == pytest.approx(0.7)
        range_part = fitting_splitting(p).components(block)[0]
        np.testing.assert_allclose(err.value.jump, range_part, atol=1e-12)

        per_column = []
        for j in (1, 2):
            with pytest.raises(InconsistentInitialValueError) as one:
                decomposition_oracle(p, block[:, j], self.TIMES)
            per_column.append(one.value)
        assert [e.distance for e in per_column] == [pytest.approx(0.3), pytest.approx(0.7)]
        with pytest.raises(InconsistentInitialValueError) as err:
            decomposition_oracle(p, block, self.TIMES)
        assert err.value.distance == max(e.distance for e in per_column)
        columns = np.column_stack([e.jump for e in per_column])
        np.testing.assert_allclose(err.value.jump[:, 1:], columns, atol=1e-12)


def _off_consistent(spec, rng=None):
    """(pencil, chain, u0) at the default tolerance: u0 is a consistent basis vector plus a
    unit normal to IV_{k+1}, or with rng a random unit vector."""
    p, _ = generate(spec)
    chain = compute_chain(p)
    if rng is not None:
        u0 = rng.standard_normal(p.n)
        return p, chain, u0 / np.linalg.norm(u0)
    cons = consistent_space(p, chain)
    off = np.eye(p.n) - cons.basis @ cons.basis.T
    w = off[:, np.argmax(np.linalg.norm(off, axis=0))]
    return p, chain, cons.basis[:, 0] + w / np.linalg.norm(w)


def _payload(call):
    with pytest.raises(InconsistentInitialValueError) as err:
        call()
    return err.value


def _euler_gap(p, u0, jump, h):
    """||first implicit Euler step from u0 - jump||; the step is s (sE + A)^{-1} E u0, s = 1/h."""
    return float(np.linalg.norm(implicit_euler(p, u0, h, h).states[1] - jump))


class TestInconsistentPayload:
    """Every route's InconsistentInitialValueError carries the distance to IV_{k+1}
    and the jump u(0+), the range part along W* where the solution restarts."""

    TIMES = np.linspace(0.0, 1.0, 3)

    @pytest.mark.parametrize(
        "spec",
        [
            FixtureSpec(6, (1,), 100.0, 2),
            FixtureSpec(3, (2,), 100.0, 5),
            FixtureSpec(4, (3, 1), 100.0, 7),
        ],
    )
    def test_every_route_carries_one_payload(self, spec):
        p, chain, u0 = _off_consistent(spec)
        first, *others = [
            _payload(lambda: classical_solution(p, chain, u0, self.TIMES)),
            _payload(lambda: verify_transform_match(p, chain, u0)),
            _payload(lambda: decomposition_oracle(p, u0, self.TIMES)),
        ]
        assert first.distance == is_consistent(p, chain, u0)[1]
        for other in others:
            assert other.distance == first.distance
            assert np.array_equal(other.jump, first.jump)

    def test_payload_survives_a_pickle(self, nilpotent):
        p, chain = nilpotent
        err = _payload(lambda: classical_solution(p, chain, np.array([1.0, 2.0]), self.TIMES))
        back = pickle.loads(pickle.dumps(err))
        assert (str(back), back.distance) == (str(err), err.distance)
        assert np.array_equal(back.jump, err.jump)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jump_is_the_projection_where_the_summands_are_orthogonal(self, seed):
        # at conditioning 1 the canonical summands V* and W* stay orthogonal
        p, chain, u0 = _off_consistent(FixtureSpec(4, (2, 1), 1.0, seed))
        jump = _payload(lambda: classical_solution(p, chain, u0, self.TIMES)).jump
        assert np.max(np.abs(jump - nearest_consistent(p, chain, u0))) <= 1e-12

    def test_refused_split_leaves_no_jump(self):
        # the "split refused" fixture of verify --random 60 --dim-range 2..20
        # --index-range 0..4 --conditioning 1e5 --seed 1
        p, chain, u0 = _off_consistent(FixtureSpec(2, (5,), 1e5, 7320455584413677429))
        err = _payload(lambda: classical_solution(p, chain, u0, self.TIMES))
        assert err.jump is None and err.distance == is_consistent(p, chain, u0)[1]
        assert str(err).endswith(
            "; no jump u(0+), the split is refused: "
            "splitting failed: range dim 2 + kernel dim 4 != 7"
        )

    def test_euler_first_step_reaches_the_jump_at_index_one(self):
        # the Kronecker-index-1 fixtures with n1 > 0 of the ladder, seeds 1 and 7
        specs = [
            spec
            for seed in (1, 7)
            for spec in random_specs(60, (2, 20), (0, 4), seed)
            if spec.nilpotent_blocks and max(spec.nilpotent_blocks) == 1 and spec.n1 > 0
        ]
        assert len(specs) == 11
        rng = np.random.default_rng(3)
        for spec in specs:
            p, chain, u0 = _off_consistent(spec, rng)
            jump = _payload(lambda: classical_solution(p, chain, u0, self.TIMES)).jump
            assert _euler_gap(p, u0, jump, 1e-6) <= 1e-4, spec

    @pytest.mark.parametrize(
        "spec, nu",
        [
            (FixtureSpec(6, (1,), 100.0, 2), 1),
            (FixtureSpec(3, (2,), 100.0, 5), 2),
            (FixtureSpec(5, (2, 2), 100.0, 3), 2),
            (FixtureSpec(4, (3, 1), 100.0, 7), 3),
        ],
    )
    def test_halving_h_scales_the_euler_gap_by_the_index(self, spec, nu):
        # O(h) at nu = 1; at nu >= 2 the step grows like h^-(nu-1) along W*
        p, chain, u0 = _off_consistent(spec)
        jump = _payload(lambda: classical_solution(p, chain, u0, self.TIMES)).jump
        gaps = [_euler_gap(p, u0, jump, h) for h in (1e-3, 5e-4, 2.5e-4)]
        expected = 0.5 if nu == 1 else 2.0 ** (nu - 1)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine / coarse == pytest.approx(expected, rel=0.02)


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteInput:
    """NaN and infinity in an initial value, a time grid or a step are rejected
    up front, not turned into NaN states or an OverflowError."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_initial_value_on_every_route(self, mixed, bad):
        p, chain = mixed
        u0 = np.array([bad, 0.0, 0.0])
        times = np.linspace(0.0, 1.0, 5)
        for call in (
            lambda: classical_solution(p, chain, u0, times),
            lambda: decomposition_oracle(p, u0, times),
            lambda: implicit_euler(p, u0, 0.25, 1.0),
            lambda: is_consistent(p, chain, u0),
            lambda: nearest_consistent(p, chain, u0),
            lambda: classical_solution(p, chain, np.column_stack([E1_3, u0]), times),
            lambda: verify_identities(p, u0, (1.0, 2.0)),
            lambda: hat_solution(p, u0, 2.0),
        ):
            with pytest.raises(NonFiniteEntriesError, match="u0 contains non-finite entries"):
                call()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_time_grid(self, mixed, bad):
        p, chain = mixed
        for times in ([0.0, bad], [bad, 1.0], [0.0, 0.5, bad, 2.0]):
            for call in (
                lambda: classical_solution(p, chain, E1_3, times),
                lambda: decomposition_oracle(p, E1_3, times),
            ):
                with pytest.raises(ValueError, match=f"times must be finite, got {bad}"):
                    call()

    @pytest.mark.parametrize("h, T", [(0.5, np.inf), (np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0)])
    def test_euler_step_and_horizon(self, mixed, h, T):
        p, _ = mixed
        with pytest.raises(ValueError, match=f"got h = {h} and T = {T}"):
            implicit_euler(p, E1_3, h, T)


def test_complex_initial_value_on_a_real_pencil():
    # the imaginary part is kept, not cast away with a ComplexWarning
    p = new_pencil(np.eye(2), np.diag([1.0, 2.0]))
    u0 = np.array([1.0 + 1.0j, 0.0])
    times = np.linspace(0.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = classical_solution(p, compute_chain(p), u0, times)
        oracle = decomposition_oracle(p, u0, times)
        euler = implicit_euler(p, u0, 0.5, 1.0)
    for traj in (exact, oracle, euler):
        np.testing.assert_array_equal(traj.states[0], u0)
    np.testing.assert_allclose(exact.states[-1], [np.exp(-1.0) * (1.0 + 1.0j), 0.0])
    np.testing.assert_allclose(oracle.states, exact.states, rtol=1e-12)


class TestFailedGeneratorKept:
    # the residual cap fails this fixture's reduced generator
    SPEC = FixtureSpec(11, (3,), 1e6, 7769129907283941149)

    def test_built_once_and_raised_on_every_call(self, monkeypatch):
        builds = []
        build = solvers_mod._generator

        def counted(chain):
            builds.append(chain)
            return build(chain)

        monkeypatch.setattr(solvers_mod, "_generator", counted)
        p, _ = generate(self.SPEC)
        a = build_analysis(p)
        transform = identity_checks(a, self.SPEC.seed + 2)[-1]
        assert transform.identity == "transform_match" and not transform.passed
        basis = consistent_space(p, a.chain).basis
        messages = {transform.details["error"]}
        for _ in range(3):
            with pytest.raises(IsomorphismError, match="reduced generator residual") as err:
                classical_solution(p, a.chain, basis, np.linspace(0.0, 1.0, 3))
            messages.add(str(err.value))
        assert len(builds) == 1
        assert len(messages) == 1


class TestKeptArtifactsFreeTheirPencil:
    """Kept artifacts must not refer back to their pencil: with the cyclic
    collector off, a pencil is freed by reference counting once its last
    outside reference goes, after every route below."""

    @staticmethod
    def freed_after(spec, flow):
        enabled = gc.isenabled()
        gc.disable()
        try:
            p = generate(spec)[0]  # a fresh new_pencil
            alive = weakref.ref(p)
            flow(p)
            del p
            return alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_after_analysis(self):
        assert self.freed_after(FixtureSpec(2, (3,), 100.0, 12), lambda p: analyze_pencil(p, 1))

    def test_after_a_solve(self):
        def solve(p):
            chain = compute_chain(p)
            u0 = consistent_space(p, chain).basis[:, 0]
            times = np.linspace(0.0, 1.0, 3)
            classical_solution(p, chain, u0, times)
            decomposition_oracle(p, u0, times)

        assert self.freed_after(FixtureSpec(2, (3,), 100.0, 12), solve)

    def test_after_a_kept_failure(self):
        # the reduced generator of this fixture fails and is kept as its error
        spec = TestFailedGeneratorKept.SPEC
        assert self.freed_after(spec, lambda p: analyze_pencil(p, spec.seed))
