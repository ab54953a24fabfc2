import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daepencil.laplace as laplace_mod
import daepencil.pencils as pencils_mod
import daepencil.solvers as solvers_mod
from daepencil.analysis import IDENTITY_POINTS
from daepencil.chains import compute_chain, consistent_space
from daepencil.exceptions import (
    InconsistentInitialValueError,
    IsomorphismError,
    ShapeMismatchError,
    SingularMatrixError,
)
from daepencil.fixtures import FixtureSpec, generate
from daepencil.laplace import (
    _expansion_coefficients,
    _identity_errors,
    expansion_grid,
    hat_solution,
    verify_commutation,
    verify_expansion,
    verify_identities,
    verify_shift,
    verify_solution_formula,
    verify_transform_match,
)
from daepencil.pencils import new_pencil, resolvent
from daepencil.verification import random_specs, run_suite

N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
N3 = np.eye(3, k=1)
DIAG_1_N2_E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])
POINTS = tuple(np.geomspace(0.5, 50.0, 20))
# acceptance_specs()[7] of the acceptance suite: Kronecker index 3, k = 2, n = 14
ACCEPTANCE_K2 = FixtureSpec(11, (3,), 34.402767867042435, 8402350920931806502)
# fixture 18 of random_specs(60, (2, 20), (0, 4), seed=7, conditioning=1e6)
SINGULAR_TOP = FixtureSpec(0, (2,), 1e6, 6105875996742672204)


def _count_resolvents(monkeypatch):
    """Record every sample point whose resolvent laplace takes; it takes them
    all through the one sampler, pencils._sampled."""
    calls = []
    real = pencils_mod._sampled

    def counted(pencil, points, *args, **kwargs):
        calls.extend(np.asarray(points).tolist())
        return real(pencil, points, *args, **kwargs)

    monkeypatch.setattr(laplace_mod, "_sampled", counted)
    monkeypatch.setattr(pencils_mod, "_sampled", counted)
    return calls


def _exact_commutation(p, R):
    """The relative 2-norm error the commutation check bounds from above, in the
    check's association E (R A) - A (R E)."""
    diff = p.E @ (R @ p.A) - p.A @ (R @ p.E)
    return np.linalg.norm(diff, 2) / max(p.norm_E * p.norm_A * np.linalg.norm(R, 2), 1e-300)


def _exact_shift(p, R, s):
    """The relative 2-norm error the shift check bounds from above."""
    lhs = R @ p.E
    rhs = np.eye(p.n) / s - (R @ p.A) / s
    denom = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1e-300)
    return np.linalg.norm(lhs - rhs, 2) / denom


def _check_certified(p, points=POINTS):
    """Every sampled error lies in [exact, n * exact], every lower bound is certified.

    The errors and bounds are taken on the stack of all points, the exact
    values point by point.  The factor 1 -+ 1e-12 only absorbs roundoff in
    comparing two float64 evaluations of mathematically ordered quantities.
    """
    s = np.asarray(points)
    R = np.array([resolvent(p, t) for t in points])
    for X in (R, R @ p.E, np.eye(p.n) / s[:, None, None] - (R @ p.A) / s[:, None, None]):
        for lb, Xj in zip(pencils_mod._norm2(X), X):
            assert np.max(np.linalg.norm(Xj, axis=0)) * (1 - 1e-12) <= lb
            assert lb <= np.linalg.norm(Xj, 2) * (1 + 1e-12)
    errors = _identity_errors(p, R, s, np.zeros(p.n))
    for got, exact in (
        (errors[:, 0], [_exact_commutation(p, Rj) for Rj in R]),
        (errors[:, 1], [_exact_shift(p, Rj, t) for Rj, t in zip(R, s)]),
    ):
        exact = np.array(exact)
        assert np.all(exact * (1 - 1e-12) <= got) and np.all(got <= p.n * exact * (1 + 1e-12))
    ref = max(_exact_commutation(p, resolvent(p, t)) for t in points)
    assert ref * (1 - 1e-12) <= verify_commutation(p, points).max_relative_error


class TestCertifiedBounds:
    def test_no_matrix_two_norm_in_the_identity_checks(self, matrix_norm2_calls):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        p.norm_E, p.norm_A  # the pencil's own norms, kept on it, are taken once
        matrix_norm2_calls.clear()
        verify_identities(p, np.ones(p.n), POINTS)
        assert matrix_norm2_calls == []

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        complex_=st.booleans(),
    )
    def test_bounds_on_random_pencils(self, n, seed, complex_):
        rng = np.random.default_rng(seed)
        E, A = rng.standard_normal((2, n, n))
        if complex_:
            E, A = E + 1j * rng.standard_normal((n, n)), A + 1j * rng.standard_normal((n, n))
        _check_certified(new_pencil(E, A), POINTS[::4])

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize(
        "spec", [FixtureSpec(3, (nu,), 100.0, nu) for nu in range(1, 6)] + [ACCEPTANCE_K2]
    )
    def test_bounds_on_scaled_fixtures(self, spec, scale):
        p, _ = generate(spec)
        _check_certified(new_pencil(scale * p.E, scale * p.A), POINTS[::4])

    def test_zero_matrix_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_commutation(new_pencil(np.zeros((2, 2)), np.eye(2)), (1.0, 5.0))
        assert rep.max_relative_error == 0.0


class TestScaledIdentities:
    """Scaling (E, A) by a power of two leaves every sampled error as it is.

    At 2^-565 the product ||E|| ||A|| underflows and the squares of the
    commutation residual do too; at 2^565 those squares overflow.
    """

    @pytest.mark.parametrize("scale", [2.0**-565, 2.0**565], ids=["2^-565", "2^565"])
    def test_exact_at_extreme_scales(self, scale):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        u0 = np.ones(p.n) / np.sqrt(p.n)
        reference = verify_identities(p, u0, POINTS)
        scaled = verify_identities(new_pencil(scale * p.E, scale * p.A), u0, POINTS)
        for ref, rep in zip(reference, scaled):
            assert rep.passed, rep.identity
            expected = pytest.approx(ref.max_relative_error, rel=1e-12, abs=0)
            assert rep.max_relative_error == expected


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

    @pytest.mark.parametrize("spec", [ACCEPTANCE_K2, FixtureSpec(3, (2,), 100.0, 31)])
    def test_one_resolvent_per_sample_point(self, monkeypatch, spec):
        # one per grid point, however many vectors IV_k has, and no other
        p, _ = generate(spec)
        chain = compute_chain(p)
        k = chain.stabilization
        assert chain.spaces[k].dim > 1
        calls = _count_resolvents(monkeypatch)
        rep = verify_expansion(p, chain, k)
        assert rep.passed
        assert len(calls) == len(expansion_grid(k))
        calls.clear()
        verify_expansion(p, chain, k, expansion_grid(k)[:5])
        assert len(calls) == 5

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("past", [0, 1])
    def test_closed_form_coefficients_on_canonical_pencils(self, complex_, past):
        # E = diag(I, N), A = diag(J, I): x = (r, w) in IV_k has N w = 0, so
        # (sE+A)^{-1} E x = ((sI + J)^{-1} r, 0) and x_l = (-1)^l (J^l r, 0)
        rng = np.random.default_rng(7)
        n1, N = 3, np.zeros((5, 5))
        N[:3, :3], N[3:, 3:] = N3, N2  # Kronecker index 3, stabilization 2
        J = rng.standard_normal((n1, n1)) + complex_ * 1j * rng.standard_normal((n1, n1))
        E = np.block([[np.eye(n1), np.zeros((n1, 5))], [np.zeros((5, n1)), N]])
        A = np.block([[J, np.zeros((n1, 5))], [np.zeros((5, n1)), np.eye(5)]])
        p = new_pencil(E + 0j if complex_ else E, A)
        chain = compute_chain(p)
        k = chain.stabilization + past
        assert chain.stabilization == 2
        B = chain.spaces[k].basis
        coeffs = _expansion_coefficients(chain, p.E @ B, k)
        assert coeffs.shape == (k, p.n, B.shape[1])
        r, zero = B[:n1], np.zeros((5, B.shape[1]))
        for l in range(1, k + 1):
            expected = np.vstack([(-1) ** l * np.linalg.matrix_power(J, l) @ r, zero])
            assert np.linalg.norm(coeffs[l - 1] - expected) <= 1e-13 * np.linalg.norm(J, 2) ** l

    def test_k_out_of_range(self):
        p = new_pencil(N3, np.eye(3))
        chain = compute_chain(p)
        for k in (-1, chain.stabilization - 1, chain.stabilization + 2):
            with pytest.raises(ValueError, match="stabilization"):
                verify_expansion(p, chain, k)

    def test_conditioning_ladder_fixtures_pass(self):
        # fixtures 27, 48 and 59 of the 1e5 ladder: a Vandermonde fit of the
        # coefficients from extra resolvents moved their C to 34.9, 19.8 and 31.3
        specs = random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e5)
        for i in (27, 48, 59):
            p, _ = generate(specs[i])
            chain = compute_chain(p)
            rep = verify_expansion(p, chain, chain.stabilization)
            assert rep.passed, (i, rep.max_relative_error)

    def test_point_singular_after_its_nudges_is_dropped_and_fails(self):
        # sE + A stays numerically singular at 1e6 * 1.01^j, j = 0..5, from the
        # top grid point; other points are sampled after nudges
        p, _ = generate(SINGULAR_TOP)
        chain = compute_chain(p)
        k = chain.stabilization
        grid = expansion_grid(k)
        rep = verify_expansion(p, chain, k)
        assert not rep.passed and rep.details["samples_dropped"] == 1
        assert len(rep.sample_points) == len(grid) - 1 and max(rep.sample_points) < grid[-1]
        assert rep.max_relative_error <= 10.0  # the points sampled pass
        row = {r.name: r for r in run_suite([SINGULAR_TOP]).rows}["resolvent_expansion"]
        assert (row.checked, row.failures, row.passed) == (1, 1, False)

    def test_failing_generator_raises_past_k0(self, monkeypatch):
        def failing(chain):
            raise IsomorphismError("reduced generator residual exceeds its cap")

        monkeypatch.setattr(solvers_mod, "_generator", failing)
        p, _ = generate(FixtureSpec(2, (2,), seed=1))
        with pytest.raises(IsomorphismError):
            verify_expansion(p, compute_chain(p), 1)
        p = new_pencil(np.eye(3), np.random.default_rng(1).standard_normal((3, 3)))
        assert verify_expansion(p, compute_chain(p), 0).passed  # k = 0 needs no coefficient


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

    def test_singular_point_raises(self):
        # sE + A = 0 at s = 1: the vector solve refuses like resolvent does
        p = new_pencil(np.eye(2), -np.eye(2))
        with pytest.raises(SingularMatrixError):
            hat_solution(p, np.ones(2), 1.0)

    def test_matches_resolvent_without_forming_it(self, monkeypatch):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 2))
        u0 = np.arange(1.0, p.n + 1.0)
        expected = resolvent(p, 2.5) @ (p.E @ u0)
        calls = _count_resolvents(monkeypatch)
        np.testing.assert_allclose(hat_solution(p, u0, 2.5), expected, rtol=1e-10)
        assert calls == []

    def test_conjugate_symmetry(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 2))
        u0 = np.arange(1.0, p.n + 1.0)
        s = 2.0 + 1.5j
        np.testing.assert_allclose(
            hat_solution(p, u0, np.conj(s)), np.conj(hat_solution(p, u0, s)), rtol=1e-12
        )


class TestSingularSamplePoint:
    """A pole exactly on a sample point is nudged to 1.01 s, the point reported."""

    def test_identities(self):
        s = IDENTITY_POINTS[3]
        p = new_pencil(np.eye(2), -s * np.eye(2))
        reports = verify_identities(p, np.array([0.6, 0.8]), IDENTITY_POINTS)
        expected = IDENTITY_POINTS[:3] + (s * 1.01,) + IDENTITY_POINTS[4:]
        for rep in reports:
            assert rep.passed and rep.sample_points == expected

    def test_expansion(self):
        grid = expansion_grid(0)
        p = new_pencil(np.eye(2), -grid[4] * np.eye(2))
        rep = verify_expansion(p, compute_chain(p), 0)
        assert rep.passed
        assert rep.sample_points == (*grid[:4], grid[4] * 1.01, *grid[5:])


class TestSharedIdentities:
    @pytest.mark.parametrize("spec", [FixtureSpec(3, (2,), 100.0, 5), ACCEPTANCE_K2])
    def test_bit_identical_to_the_three_verifiers(self, spec):
        p, _ = generate(spec)
        u0 = np.random.default_rng(4).standard_normal(p.n)
        shared = verify_identities(p, u0, POINTS)
        alone = (
            verify_commutation(p, POINTS),
            verify_shift(p, POINTS),
            verify_solution_formula(p, u0, POINTS),
        )
        assert [r.identity for r in shared] == ["commutation_b", "shift_d", "solution_formula"]
        for a, b in zip(shared, alone):
            assert a.max_relative_error == b.max_relative_error
            assert a.passed == b.passed and a.sample_points == b.sample_points

    def test_one_resolvent_per_point(self, monkeypatch):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        calls = _count_resolvents(monkeypatch)
        verify_identities(p, np.ones(p.n), POINTS)
        assert len(calls) == len(POINTS)

    def test_empty_grid_samples_nothing_and_passes(self):
        # the sampler's one empty chunk reaches every error function
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        reports = (*verify_identities(p, np.ones(2), ()), verify_expansion(p, chain, 1, ()))
        for rep in reports:
            assert rep.sample_points == () and rep.max_relative_error == 0.0 and rep.passed

    @pytest.mark.parametrize("u0", [np.ones((2, 1)), np.ones(3), np.ones(1)])
    def test_rejects_a_misshapen_initial_value(self, u0):
        p = new_pencil(np.eye(2), np.diag([1.0, 2.0]))
        for call in (
            lambda: verify_identities(p, u0, (1.0, 2.0)),
            lambda: verify_solution_formula(p, u0, (1.0,)),
            lambda: hat_solution(p, u0, 2.0),
        ):
            with pytest.raises(ShapeMismatchError, match="initial value shape"):
                call()

    def test_rejects_zero_point(self):
        # every identity check is a selection from verify_identities, which
        # refuses s = 0, where the commutation identity reads E = E
        p = new_pencil(np.eye(2), np.eye(2))
        for check in (
            lambda points: verify_identities(p, np.ones(2), points),
            lambda points: verify_commutation(p, points),
            lambda points: verify_solution_formula(p, np.ones(2), points),
        ):
            with pytest.raises(ValueError, match="undefined at s = 0"):
                check((1.0, 0.0))

    @pytest.mark.parametrize(
        "spec, chunks",
        [(FixtureSpec(3, (2,), 100.0, 5), 1), (FixtureSpec(55, (3, 2), 100.0, 5), 3)],
    )
    def test_each_stack_normed_once_per_chunk(self, monkeypatch, spec, chunks):
        # R and both shift sides take one _norm2 call each, both defects one
        # _frobenius call each, at the chunk's size: one stack of all of them
        # would triple _norm2's temporaries.  n = 5 samples the 20 points in
        # one chunk, n = 60 in three.
        p, _ = generate(spec)
        calls = {"_norm2": 0, "_frobenius": 0}
        for name in calls:
            real = getattr(laplace_mod, name)

            def counted(X, name=name, real=real):
                calls[name] += 1
                return real(X)

            monkeypatch.setattr(laplace_mod, name, counted)
        verify_identities(p, np.ones(p.n), POINTS)
        assert calls == {"_norm2": 3 * chunks, "_frobenius": 2 * chunks}


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
        rep = verify_transform_match(p, chain, u0)
        assert rep.passed
        np.testing.assert_allclose(hat_solution(p, u0, 2.0), u0 / 3.0)

    def test_mixed_block(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0, 0.0])
        rep = verify_transform_match(p, chain, u0)
        assert rep.passed
        np.testing.assert_allclose(hat_solution(p, u0, 3.0), u0 / 4.0)

    def test_zero_initial_value(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        chain = compute_chain(p)
        rep = verify_transform_match(p, chain, np.zeros(3))
        assert rep.passed and rep.max_relative_error == 0.0

    def test_consistent_fixture(self):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 9))
        chain = compute_chain(p)
        u0 = consistent_space(p, chain).basis[:, 0].real
        rep = verify_transform_match(p, chain, u0)
        assert rep.passed

    def test_rejects_inconsistent_u0(self):
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        with pytest.raises(InconsistentInitialValueError):
            verify_transform_match(p, chain, np.array([1.0, 0.0]))

    def test_points_lie_right_of_the_spectrum(self):
        # E u' - u = 0 grows as e^t: M = -I, alpha = 1, so s = 4 and 5
        p = new_pencil(np.eye(2), -np.eye(2))
        rep = verify_transform_match(p, compute_chain(p), np.array([1.0, 2.0]))
        assert rep.sample_points == (4.0, 5.0)
        assert rep.passed and rep.max_relative_error < 1e-15

    def test_fails_on_a_perturbed_generator(self, monkeypatch):
        # M + 1e-4 ||M||_2 P, P of unit 2-norm, fails on every solvable fixture
        specs = [
            *random_specs(60, (2, 20), (0, 4), seed=7),
            *random_specs(60, (2, 20), (0, 4), seed=1, conditioning=1e5),
            FixtureSpec(115, (3, 2), 100.0, 5),
            FixtureSpec(155, (3, 2), 100.0, 5),
        ]
        rng = np.random.default_rng(0)
        generator = solvers_mod._generator

        def perturbed(chain):
            gen = generator(chain)
            P = rng.standard_normal(gen.M.shape)
            P /= np.linalg.norm(P, 2)
            M = gen.M + 1e-4 * np.linalg.norm(gen.M, 2) * P
            return solvers_mod.ReducedGenerator(gen.k, gen.basis, M, gen.max_residual)

        monkeypatch.setattr(solvers_mod, "_generator", perturbed)
        verdicts = []
        for spec in specs:
            p, _ = generate(spec)
            chain = compute_chain(p)
            cons = consistent_space(p, chain)
            if not cons.dim:
                continue
            try:
                rep = verify_transform_match(p, chain, cons.basis[:, 0])
            except IsomorphismError:  # no generator to perturb
                continue
            verdicts.append(rep.passed)
        assert len(verdicts) == 108 and not any(verdicts)

    def test_distinct_from_solution_formula_for_inconsistent(self):
        # the algebraic formula passes where the transform match refuses to run
        p = new_pencil(N2, np.eye(2))
        chain = compute_chain(p)
        u0 = np.array([1.0, 0.0])
        assert verify_solution_formula(p, u0, (4.0,)).passed
        with pytest.raises(InconsistentInitialValueError):
            verify_transform_match(p, chain, u0)


class TestNaNFails:
    """A NaN sample error reaches the reported value, so the check fails."""

    COLUMNS = ("commutation_b", "shift_d", "solution_formula")  # of _identity_errors

    @pytest.mark.parametrize("name", COLUMNS)
    def test_nan_at_one_point_fails_the_sampled_identity(self, monkeypatch, name):
        column = self.COLUMNS.index(name)
        errors = laplace_mod._identity_errors

        def nan_at_third_point(pencil, R, s, u0):
            out = errors(pencil, R, s, u0)
            out[:, column] = np.where(s == POINTS[2], np.nan, out[:, column])
            return out

        monkeypatch.setattr(laplace_mod, "_identity_errors", nan_at_third_point)
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        u0 = np.ones(p.n) / np.sqrt(p.n)
        for rep in verify_identities(p, u0, POINTS):
            assert rep.passed == (rep.identity != name)
            assert np.isnan(rep.max_relative_error) == (rep.identity == name)

    def test_nan_at_one_point_fails_the_expansion(self, monkeypatch):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 5))
        chain = compute_chain(p)
        grid = expansion_grid(1)
        assert verify_expansion(p, chain, 1).passed
        sample = laplace_mod._sampled

        def nan_at_one_grid_point(pencil, points, f, *args, **kwargs):
            def nan_point(R, s):
                return f(R, np.where(s == grid[4], np.nan, s))

            return sample(pencil, points, nan_point, *args, **kwargs)

        monkeypatch.setattr(laplace_mod, "_sampled", nan_at_one_grid_point)
        rep = verify_expansion(p, chain, 1)
        assert np.isnan(rep.max_relative_error) and not rep.passed

    def test_nan_at_one_point_fails_the_transform_match(self, monkeypatch):
        p, _ = generate(FixtureSpec(3, (2,), 100.0, 9))
        chain = compute_chain(p)
        u0 = consistent_space(p, chain).basis[:, 0].real
        assert verify_transform_match(p, chain, u0).passed
        hat = laplace_mod.hat_solution

        def nan_at_four(pencil, u0, s):
            return np.full(pencil.n, np.nan) if s == 4.0 else hat(pencil, u0, s)

        monkeypatch.setattr(laplace_mod, "hat_solution", nan_at_four)
        rep = verify_transform_match(p, chain, u0)
        assert np.isnan(rep.max_relative_error) and not rep.passed
