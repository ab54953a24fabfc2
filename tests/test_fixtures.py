import numpy as np
import pytest

from daepencil.chains import compute_chain, consistent_space, index_by_chain
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import certify_regularity, index_by_nilpotency


class TestFixtureSpec:
    def test_dim(self):
        assert FixtureSpec(2, (3, 1)).dim == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            FixtureSpec(-1, ())
        with pytest.raises(ValueError):
            FixtureSpec(0, ())
        with pytest.raises(ValueError):
            FixtureSpec(1, (0,))
        with pytest.raises(ValueError):
            FixtureSpec(1, (2,), conditioning=0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and >= 1"):
                FixtureSpec(1, (2,), conditioning=bad)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            FixtureSpec(1, (2,), seed=-1)


class TestGenerate:
    def test_pure_ode(self):
        pencil, truth = generate(FixtureSpec(2, (), seed=0))
        assert truth.kronecker_index == 0
        assert truth.growth_index == 0
        assert truth.consistent_dim == 2
        assert pencil.n == 2

    def test_mixed(self):
        pencil, truth = generate(FixtureSpec(1, (2,), seed=0))
        assert truth == type(truth)(2, 1, 1)
        assert pencil.n == 3

    def test_pure_nilpotent(self):
        _, truth = generate(FixtureSpec(0, (3,), seed=0))
        assert truth.kronecker_index == 3
        assert truth.growth_index == 2
        assert truth.consistent_dim == 0

    def test_always_regular(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n1 = int(rng.integers(0, 5))
            blocks = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(0, 3)))
            if n1 + sum(blocks) == 0:
                continue
            spec = FixtureSpec(n1=n1, nilpotent_blocks=blocks, seed=int(rng.integers(2**32)))
            pencil, _ = generate(spec)
            assert certify_regularity(pencil).regular

    def test_conditioning_respected(self):
        for cond in (1.0, 10.0, 100.0):
            spec = FixtureSpec(3, (2,), conditioning=cond, seed=7)
            pencil, _ = generate(spec)
            # E = P E0 Q with kappa(P), kappa(Q) <= cond each; the nonzero
            # singular values of E can spread by at most cond^2
            s = np.linalg.svd(pencil.E, compute_uv=False)
            nonzero = s[s > 1e-10 * s[0] * pencil.n]
            assert nonzero[0] / nonzero[-1] <= cond * cond * 1.01

    def test_deterministic_per_seed(self):
        a1, _ = generate(FixtureSpec(2, (2,), seed=5))
        a2, _ = generate(FixtureSpec(2, (2,), seed=5))
        b, _ = generate(FixtureSpec(2, (2,), seed=6))
        np.testing.assert_array_equal(a1.E, a2.E)
        np.testing.assert_array_equal(a1.A, a2.A)
        assert not np.array_equal(a1.E, b.E)

    def test_ground_truth_matches_analysis(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            blocks = tuple(int(b) for b in rng.integers(1, 6, size=rng.integers(0, 3)))
            n1 = int(rng.integers(0 if blocks else 1, 6))
            spec = FixtureSpec(n1, blocks, 100.0, int(rng.integers(2**32)))
            pencil, truth = generate(spec)
            chain = compute_chain(pencil)
            assert index_by_chain(chain).k == truth.growth_index
            assert index_by_nilpotency(pencil).k == truth.growth_index
            assert consistent_space(pencil, chain).dim == truth.consistent_dim

    def test_block_sizes_one_are_index_zero(self):
        pencil, truth = generate(FixtureSpec(2, (1, 1), seed=3))
        assert truth.kronecker_index == 1 and truth.growth_index == 0
        chain = compute_chain(pencil)
        assert index_by_chain(chain).k == 0
        assert consistent_space(pencil, chain).dim == 2
