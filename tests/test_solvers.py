import numpy as np
import pytest
import scipy.linalg

import daepencil.solvers as solvers_mod
from daepencil.chains import check_restricted_iso, compute_chain, consistent_space
from daepencil.analysis import build_analysis, identity_checks
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
from daepencil.laplace import verify_expansion
from daepencil.pencils import _shifted_kernels, new_pencil
from daepencil.solvers import (
    classical_solution,
    decomposition_oracle,
    fitting_splitting,
    implicit_euler,
    is_consistent,
    nearest_consistent,
    reduced_generator,
)
from daepencil.subspaces import RankTolerance, contains, distance, span

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
        np.testing.assert_allclose(err.value.nearest, np.zeros(2))

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
                ref = decomposition_oracle(p, u0, times, seed=seed)
                peak = np.max(np.linalg.norm(ours.states, axis=1))
                assert np.max(np.linalg.norm(ours.states - ref.states, axis=1)) <= 1e-7 * peak

    def test_not_regular_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotRegularError):
            decomposition_oracle(new_pencil(M, M), np.ones(2), np.array([0.0, 1.0]))

    def test_split_keeps_the_shift_routes_one_tolerance(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        split = fitting_splitting(p, seed=2)
        assert split.tol is _shifted_kernels(p, 2)[3][0].tol
        assert split.tol == RankTolerance()

    def test_splitting_dimensions(self):
        p, truth = generate(FixtureSpec(2, (3,), 100.0, 12))
        split = fitting_splitting(p)
        assert split.range_basis.shape[1] == truth.consistent_dim
        assert split.kernel_basis.shape[1] == p.n - truth.consistent_dim
        assert 0 < split.basis_sigma_min <= 1.0

    def test_range_that_never_shrinks_raises(self, monkeypatch):
        # images of F that keep the whole space leave no room for ker F^3
        monkeypatch.setattr(solvers_mod, "image", lambda M, S, scale: S)
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
            traj = decomposition_oracle(p, u0, times, seed=99)
            ref = classical_solution(p, chain, u0, times)
            peak = np.max(np.linalg.norm(ref.states, axis=1))
            assert np.max(np.linalg.norm(traj.states - ref.states, axis=1)) <= 1e-7 * peak


class TestCachedArtifacts:
    def test_second_call_returns_same_object(self):
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        chain = compute_chain(p)
        assert fitting_splitting(p, seed=3) is fitting_splitting(p, seed=3)
        assert fitting_splitting(p, seed=3) is not fitting_splitting(p, seed=4)
        assert reduced_generator(p, chain) is reduced_generator(p, chain)
        assert check_restricted_iso(p, chain) is check_restricted_iso(p, chain)

    def test_one_two_norm_of_F_for_kernels_and_split(self, matrix_norm2_calls):
        p, _ = generate(FixtureSpec(4, (3, 2), 100.0, 12))
        p = new_pencil(p.E, p.A)  # nothing kept yet
        matrix_norm2_calls.clear()
        fitting_splitting(p)
        assert [F.shape for F in matrix_norm2_calls] == [(p.n, p.n)]

    def test_cached_arrays_are_read_only(self):
        p, _ = generate(FixtureSpec(2, (3,), 100.0, 12))
        split = fitting_splitting(p)
        gen = reduced_generator(p, compute_chain(p))
        for array in (split.range_basis, split.kernel_basis, split.generator, gen.M, gen.basis):
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
            lambda u: decomposition_oracle(p, u, self.TIMES, seed=spec.seed),
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
            decomposition_oracle(p, U0[:, 0], self.TIMES, seed=BLOCK_SPECS[0].seed),
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
        np.testing.assert_allclose(err.value.nearest, cons.basis @ (cons.basis.T @ block), atol=1e-12)

        per_column = []
        for j in (1, 2):
            with pytest.raises(InconsistentInitialValueError) as one:
                decomposition_oracle(p, block[:, j], self.TIMES, seed=spec.seed)
            per_column.append(one.value.distance)
        with pytest.raises(InconsistentInitialValueError) as err:
            decomposition_oracle(p, block, self.TIMES, seed=spec.seed)
        assert err.value.distance == pytest.approx(max(per_column), rel=1e-12)
        assert err.value.nearest.shape == block.shape


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
        a = build_analysis(p, self.SPEC.seed)
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
