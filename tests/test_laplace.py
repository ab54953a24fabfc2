import numpy as np
import pytest

from daepencil.chains import compute_chain, consistent_space
from daepencil.exceptions import InconsistentInitialValueError
from daepencil.fixtures import FixtureSpec, generate
from daepencil.laplace import (
    hat_solution,
    verify_commutation,
    verify_expansion,
    verify_shift,
    verify_solution_formula,
    verify_transform_match,
)
from daepencil.pencils import new_pencil

N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
N3 = np.eye(3, k=1)
DIAG_1_N2_E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
POINTS = tuple(np.geomspace(0.5, 50.0, 20))


class TestCommutation:
    def test_identity_E(self):
        rng = np.random.default_rng(0)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        rep = verify_commutation(p, POINTS)
        assert rep.passed and rep.identity == "commutation_b"

    def test_nilpotent_symbolic(self):
        rep = verify_commutation(new_pencil(N2, np.eye(2)), (2.0,))
        assert rep.max_relative_error <= 1e-14

    def test_zero_E(self):
        rep = verify_commutation(new_pencil(np.zeros((2, 2)), np.eye(2)), (1.0, 5.0))
        assert rep.max_relative_error == 0.0 and rep.passed


class TestShift:
    def test_E_identity_A_zero(self):
        rep = verify_shift(new_pencil(np.eye(2), np.zeros((2, 2))), (2.0,))
        assert rep.max_relative_error <= 1e-15

    def test_nilpotent(self):
        rep = verify_shift(new_pencil(N2, np.eye(2)), (3.0,))
        assert rep.passed

    def test_zero_E(self):
        rep = verify_shift(new_pencil(np.zeros((2, 2)), np.eye(2)), (5.0,))
        assert rep.max_relative_error <= 1e-15

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            verify_shift(new_pencil(np.eye(2), np.eye(2)), (0.0,))

    def test_on_fixtures(self):
        for nu in range(1, 6):
            p, _ = generate(FixtureSpec(3, (nu,), 100.0, nu))
            assert verify_shift(p, POINTS).passed
            assert verify_commutation(p, POINTS).passed


class TestExpansion:
    def test_k0_reduces_to_shift(self):
        rng = np.random.default_rng(1)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        rep = verify_expansion(p, compute_chain(p), 0)
        assert rep.passed and rep.identity == "expansion_e"

    def test_canonical_jordan_terminates(self):
        # x = e1 lies in IV_2 and E x = 0: the expansion collapses and the
        # remainder must absorb x/s, which the growing resolvent norm allows
        p = new_pencil(N3, np.eye(3))
        chain = compute_chain(p)
        rep = verify_expansion(p, chain, 2)
        assert rep.passed

    def test_zero_dimensional_iv_passes_trivially(self):
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        rep = verify_expansion(p, chain, 2)  # IV_2 = {0}
        assert rep.passed and rep.max_relative_error == 0.0

    def test_conjugated_low_index(self):
        for nu in (1, 2):
            p, _ = generate(FixtureSpec(3, (nu,), 100.0, nu + 30))
            chain = compute_chain(p)
            rep = verify_expansion(p, chain, chain.stabilization)
            assert rep.passed, rep.max_relative_error

    def test_no_default_grid_past_the_float64_horizon(self):
        # Kronecker index 6: k = 5, horizon (1/eps)^(1/6) ~ 406 < 1e3
        p = new_pencil(np.eye(6, k=1), np.eye(6))
        chain = compute_chain(p)
        with pytest.raises(ValueError, match="horizon"):
            verify_expansion(p, chain, 5)
        assert verify_expansion(p, chain, 5, np.geomspace(1e3, 1e6, 4)).passed

    def test_k_out_of_range(self):
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        with pytest.raises(ValueError):
            verify_expansion(p, chain, chain.stabilization + 2)


class TestHatSolution:
    def test_integrator_pencil(self):
        p = new_pencil(np.eye(2), np.zeros((2, 2)))
        u0 = np.array([3.0, -1.0])
        np.testing.assert_allclose(hat_solution(p, u0, 4.0), u0 / 4.0)

    def test_scalar_decay_transform(self):
        p = new_pencil(np.eye(2), np.eye(2))
        u0 = np.array([1.0, 0.0])
        s = 2.5
        np.testing.assert_allclose(hat_solution(p, u0, s), u0 / (s + 1.0))

    def test_nilpotent_constant_transform(self):
        # E e2 = e1 and (sE+I)^{-1} e1 = e1: the transform is constant in s
        p = new_pencil(N2, np.eye(2))
        for s in (1.0, 7.0, 300.0):
            np.testing.assert_allclose(
                hat_solution(p, np.array([0.0, 1.0]), s), [1.0, 0.0], atol=1e-14
            )

    def test_conjugate_symmetry(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 2))
        u0 = np.arange(1.0, p.n + 1.0)
        s = 2.0 + 1.5j
        np.testing.assert_allclose(
            hat_solution(p, u0, np.conj(s)), np.conj(hat_solution(p, u0, s)), rtol=1e-12
        )


class TestSolutionFormula:
    def test_zero_initial_value(self):
        p = new_pencil(np.eye(2), np.eye(2))
        rep = verify_solution_formula(p, np.zeros(2), (1.0, 2.0))
        assert rep.max_relative_error == 0.0

    def test_scalar_identity_at_one(self):
        # 1/(s+1) = 1/s - (1/(s+1))/s at s = 1: both sides e1/2
        p = new_pencil(np.eye(2), np.eye(2))
        u0 = np.array([1.0, 0.0])
        np.testing.assert_allclose(hat_solution(p, u0, 1.0), u0 / 2.0)
        assert verify_solution_formula(p, u0, (1.0,)).passed

    def test_nilpotent_derived_value(self):
        # E u0 = 0 for u0 = e1, so both sides vanish identically
        p = new_pencil(N2, np.eye(2))
        u0 = np.array([1.0, 0.0])
        np.testing.assert_allclose(hat_solution(p, u0, 4.0), np.zeros(2), atol=1e-15)
        rep = verify_solution_formula(p, u0, (4.0,))
        assert rep.passed

    def test_holds_for_inconsistent_u0(self):
        # the formula is algebraic: consistency is irrelevant
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0])
        assert not consistent_space(p, chain).dim  # u0 demonstrably inconsistent
        assert verify_solution_formula(p, u0, POINTS).passed

    def test_on_fixtures_with_random_u0(self):
        rng = np.random.default_rng(3)
        for nu in range(1, 6):
            p, _ = generate(FixtureSpec(3, (nu,), 100.0, 7 * nu))
            u0 = rng.standard_normal(p.n)
            assert verify_solution_formula(p, u0, POINTS).passed


class TestTransformMatch:
    def test_scalar_integral(self):
        # int_0^inf e^{-2t} e^{-t} dt = 1/3 = hat value at s = 2
        p = new_pencil(np.eye(2), np.eye(2))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0])
        rep = verify_transform_match(p, chain, u0, (2.0,), T=15.0, quad_steps=2000)
        assert rep.passed
        np.testing.assert_allclose(hat_solution(p, u0, 2.0), u0 / 3.0)

    def test_mixed_block(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0, 0.0])
        rep = verify_transform_match(p, chain, u0, (3.0,), T=10.0, quad_steps=1600)
        assert rep.passed
        np.testing.assert_allclose(hat_solution(p, u0, 3.0), u0 / 4.0)

    def test_zero_initial_value(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        chain = compute_chain(p)
        rep = verify_transform_match(p, chain, np.zeros(3), (4.0,), T=10.0)
        assert rep.passed and rep.max_relative_error == 0.0

    def test_consistent_fixture(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 9))
        chain = compute_chain(p)
        u0 = consistent_space(p, chain).basis[:, 0].real
        rep = verify_transform_match(p, chain, u0, (3.0, 4.0), T=10.0, quad_steps=1600)
        assert rep.passed

    def test_rejects_inconsistent_u0(self):
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        with pytest.raises(InconsistentInitialValueError):
            verify_transform_match(p, chain, np.array([1.0, 0.0]), (4.0,), T=10.0)

    def test_rejects_small_sT(self):
        p = new_pencil(np.eye(2), np.eye(2))
        chain = compute_chain(p)
        with pytest.raises(ValueError):
            verify_transform_match(p, chain, np.array([1.0, 0.0]), (2.0,), T=1.0)

    def test_distinct_from_solution_formula_for_inconsistent(self):
        # the algebraic formula passes where the transform match refuses to run
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0])
        assert verify_solution_formula(p, u0, (4.0,)).passed
        with pytest.raises(InconsistentInitialValueError):
            verify_transform_match(p, chain, u0, (4.0,), T=10.0)
