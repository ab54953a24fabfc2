import itertools

import numpy as np
import pytest

import daepencil.chains as chains_mod
import daepencil.pencils as pencils_mod
from daepencil.chains import (
    check_restricted_iso,
    compute_chain,
    consistent_space,
    index_by_chain,
)
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import index_by_nilpotency, new_pencil, resolvent
from daepencil.subspaces import RankTolerance, Subspace, contains, distance, equal, span

N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
N3 = np.eye(3, k=1)
DIAG_1_N2_E = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]])


class TestComputeChain:
    def test_invertible_E_stabilizes_immediately(self):
        rng = np.random.default_rng(1)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        chain = compute_chain(p)
        assert chain.dims == (3, 3, 3)
        assert chain.stabilization == 0

    def test_nilpotent_2x2(self):
        chain = compute_chain(new_pencil(N2, np.eye(2)))
        assert chain.dims == (2, 1, 0, 0)
        assert chain.stabilization == 1

    def test_jordan_3x3(self):
        chain = compute_chain(new_pencil(N3, np.eye(3)))
        assert chain.dims == (3, 2, 1, 0, 0)
        assert chain.stabilization == 2

    def test_mixed_block(self):
        chain = compute_chain(new_pencil(DIAG_1_N2_E, np.eye(3)))
        assert chain.dims == (3, 2, 1, 1)
        assert chain.stabilization == 1

    def test_stabilization_witness_recorded(self):
        chain = compute_chain(new_pencil(N2, np.eye(2)))
        k = chain.stabilization
        assert len(chain.spaces) == k + 3
        assert equal(chain.spaces[k + 1], chain.spaces[k + 2])


    @pytest.mark.parametrize("nu", [1, 3, 5])
    def test_two_matrix_norms_whatever_the_step_count(self, matrix_norm2_calls, nu):
        p, _ = generate(FixtureSpec(4, (nu,), 100.0, nu))
        p = new_pencil(p.E, p.A)  # nothing kept yet
        matrix_norm2_calls.clear()
        chain = compute_chain(p)
        assert chain.stabilization == nu - 1  # nu + 1 steps, one image and preimage each
        assert len(matrix_norm2_calls) == 2
        assert matrix_norm2_calls[0] is p.E and matrix_norm2_calls[1] is p.A


class TestIndexByChain:
    def test_examples(self):
        rng = np.random.default_rng(2)
        p0 = new_pencil(np.eye(2), rng.standard_normal((2, 2)))
        assert index_by_chain(compute_chain(p0)).k == 0
        assert index_by_chain(compute_chain(new_pencil(N2, np.eye(2)))).k == 1
        est = index_by_chain(compute_chain(new_pencil(DIAG_1_N2_E, np.eye(3))))
        assert est.k == 1 and est.method == "ivchain" and est.confident


class TestConsistentSpace:
    def test_full_for_invertible_E(self):
        rng = np.random.default_rng(3)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        assert consistent_space(p, compute_chain(p)).dim == 3

    def test_trivial_for_pure_nilpotent(self):
        p = new_pencil(N2, np.eye(2))
        assert consistent_space(p, compute_chain(p)).dim == 0

    def test_mixed_block_span_e1(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        cons = consistent_space(p, compute_chain(p))
        assert equal(cons, span([np.array([1.0, 0.0, 0.0])]))


class TestRestrictedIso:
    def test_identity_pencil(self):
        rng = np.random.default_rng(4)
        p = new_pencil(np.eye(3), rng.standard_normal((3, 3)))
        iso = check_restricted_iso(p, compute_chain(p))
        assert iso.bijective
        assert iso.sigma_min == pytest.approx(1.0)
        assert iso.sigma_max == pytest.approx(1.0)

    def test_vacuous_on_trivial_spaces(self):
        p = new_pencil(N2, np.eye(2))
        iso = check_restricted_iso(p, compute_chain(p))
        assert iso.dim_domain == 0 and iso.dim_codomain == 0
        assert iso.bijective and iso.sigma_min is None

    def test_mixed_block(self):
        p = new_pencil(DIAG_1_N2_E, np.eye(3))
        iso = check_restricted_iso(p, compute_chain(p))
        assert iso.dim_domain == iso.dim_codomain == 1
        assert iso.sigma_min == pytest.approx(1.0)
        assert iso.bijective


class TestChainLawsOnFixtures:
    @pytest.mark.parametrize("nu,seed", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)])
    def test_monotone_and_stabilization(self, nu, seed):
        pencil, truth = generate(FixtureSpec(3, (nu,), 100.0, seed))
        chain = compute_chain(pencil)
        for j in range(len(chain.spaces) - 1):
            assert contains(chain.spaces[j], chain.spaces[j + 1])
        k = index_by_nilpotency(pencil).k
        assert k == chain.stabilization == truth.growth_index
        assert equal(chain.spaces[k + 1], chain.spaces[k + 2])

    def test_monotone_on_random_rank_deficient_pencils(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            E = rng.standard_normal((n, n))
            drop = int(rng.integers(0, n))
            if drop:
                E[:, rng.choice(n, size=drop, replace=False)] = 0.0
            p = new_pencil(E, rng.standard_normal((n, n)))
            chain = compute_chain(p)
            for j in range(len(chain.spaces) - 1):
                assert contains(chain.spaces[j], chain.spaces[j + 1])
            assert np.all(np.diff(chain.dims) <= 0)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_resolvent_maps_each_space_into_the_next(self, nu):
        pencil, _ = generate(FixtureSpec(2, (nu,), 50.0, nu + 10))
        chain = compute_chain(pencil)
        nE = np.linalg.norm(pencil.E, 2)
        checked = 0
        for s in (3.0, 10.0, 100.0):
            R = resolvent(pencil, s)
            noise = 10 * np.finfo(float).eps * np.linalg.norm(R, 2) * nE
            for k in range(chain.stabilization + 1):
                ivk, ivk1 = chain.spaces[k], chain.spaces[k + 1]
                for x in ivk.basis.T:
                    y = R @ (pencil.E @ x)
                    norm = np.linalg.norm(y)
                    if 1e-8 * norm > noise:  # membership decidable in float64
                        assert distance(ivk1, y) <= 1e-8 * norm
                        checked += 1
        assert checked > 0

    def test_iso_bijective_on_fixtures(self):
        for nu in range(1, 5):
            for n1 in (0, 1, 4):
                pencil, truth = generate(FixtureSpec(n1, (nu,), 100.0, 17 * nu + n1))
                chain = compute_chain(pencil)
                iso = check_restricted_iso(pencil, chain)
                assert iso.bijective
                assert iso.dim_domain == truth.consistent_dim

    def test_coarse_tolerance_still_stabilizes(self):
        pencil, truth = generate(FixtureSpec(2, (2,), 10.0, 5))
        chain = compute_chain(pencil, RankTolerance(1e-6))
        assert chain.stabilization == truth.growth_index

    def test_single_size_5_block_descends_one_dim_per_step(self):
        pencil, truth = generate(FixtureSpec(0, (5,), 100.0, 31))
        chain = compute_chain(pencil)
        assert chain.dims == (5, 4, 3, 2, 1, 0, 0)
        assert chain.stabilization == truth.growth_index == 4


def oscillating(monkeypatch, module, name, n, dims):
    """Replace module.name by a step whose results cycle through coordinate
    spaces of the given dims; the list of its calls is returned.

    The step raises after 4n + 10 calls, so a chain that never stops fails
    the test instead of hanging it.
    """
    calls = []
    cycle = itertools.cycle(dims)

    def step(*args):
        calls.append(args)
        if len(calls) > 4 * n + 10:
            raise AssertionError(f"{name} called {len(calls)} times: the chain never stops")
        return Subspace(np.eye(n)[:, : next(cycle)])

    monkeypatch.setattr(module, name, step)
    return calls


class TestOneStoppingRule:
    """Every subspace chain stops at its first repeated or reversed dimension,
    so dimensions that oscillate (roundoff at high conditioning) stop it
    within n + 1 steps."""

    def test_iv_chain(self, monkeypatch):
        pencil, _ = generate(FixtureSpec(3, (2,), 100.0, 1))
        n = pencil.n
        calls = oscillating(monkeypatch, chains_mod, "preimage", n, (n, n - 1))
        chain = compute_chain(pencil)
        assert len(calls) <= n + 1
        # IV_3 reverses the fall from IV_1 to IV_2, so the chain stops at k = 1
        assert chain.dims == (n, n, n - 1, n)
        assert chain.stabilization == 1 and len(chain.images) == 3

    def test_kernel_chain(self, monkeypatch):
        pencil, _ = generate(FixtureSpec(3, (2,), 100.0, 1))
        n = pencil.n
        calls = oscillating(monkeypatch, pencils_mod, "preimage", n, (n, n - 1))
        kernels = pencils_mod._wong_chain(pencil)
        assert len(calls) <= n + 1
        assert [K.dim for K in kernels] == [0, n, n - 1]
