"""Seeded test pencils with known index and consistent dimension.

Fixtures are assembled in canonical block form - an invertible ODE block
next to nilpotent Jordan blocks - and conjugated by random matrices of
controlled condition number, so every generated pencil carries exact ground
truth for the index and the dimension of its consistent space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pencils import new_pencil
from .rng import make_rng

__all__ = ["FixtureSpec", "GroundTruth", "generate"]


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one fixture.

    n1 is the dimension of the ODE block; each entry of nilpotent_blocks adds
    a Jordan block of that size with zero eigenvalue to E.  conditioning
    bounds the condition number of both random change-of-basis factors.
    """

    n1: int
    nilpotent_blocks: tuple = ()
    conditioning: float = 100.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nilpotent_blocks", tuple(int(b) for b in self.nilpotent_blocks))
        if self.n1 < 0:
            raise ValueError("n1 must be nonnegative")
        if any(b < 1 for b in self.nilpotent_blocks):
            raise ValueError("nilpotent block sizes must be >= 1")
        if self.n1 + sum(self.nilpotent_blocks) < 1:
            raise ValueError("total dimension must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, not {self.seed}")
        if not 1.0 <= self.conditioning < np.inf:
            raise ValueError(f"conditioning bound must be finite and >= 1, not {self.conditioning}")

    @property
    def dim(self) -> int:
        return self.n1 + sum(self.nilpotent_blocks)


@dataclass(frozen=True)
class GroundTruth:
    kronecker_index: int
    growth_index: int  # max(kronecker_index - 1, 0): the resolvent-growth index
    consistent_dim: int


def _random_orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _conditioned_matrix(n, cond, rng):
    """U diag(sigma) V^T with log-uniform sigma, condition number <= cond."""
    U = _random_orthogonal(n, rng)
    V = _random_orthogonal(n, rng)
    half = 0.5 * np.log(cond)
    sigma = np.exp(rng.uniform(-half, half, size=n))
    return (U * sigma) @ V.T


def generate(spec: FixtureSpec):
    """Build the pencil and its ground truth.

    E0 = blockdiag(I_{n1}, N_{b1}, ...), A0 = blockdiag(J, I) with J random
    with spectrum inside the disk of radius 1 around 1.2 (real parts >= 0.2),
    then E = P E0 Q, A = P A0 Q with seeded conditioned factors.
    """
    rng = make_rng(spec.seed)
    n1 = spec.n1
    n = spec.dim
    E0 = np.zeros((n, n))
    A0 = np.zeros((n, n))
    if n1:
        E0[:n1, :n1] = np.eye(n1)
        if n1 == 1:
            A0[0, 0] = 1.2 + rng.uniform(-1.0, 1.0)
        else:
            S = rng.standard_normal((n1, n1))
            S /= np.linalg.norm(S, 2)
            A0[:n1, :n1] = 1.2 * np.eye(n1) + S
    at = n1
    for b in spec.nilpotent_blocks:
        E0[at : at + b, at : at + b] = np.eye(b, k=1)
        A0[at : at + b, at : at + b] = np.eye(b)
        at += b

    P = _conditioned_matrix(n, spec.conditioning, rng)
    Q = _conditioned_matrix(n, spec.conditioning, rng)
    pencil = new_pencil(P @ E0 @ Q, P @ A0 @ Q)

    kron = max(spec.nilpotent_blocks, default=0)
    truth = GroundTruth(
        kronecker_index=kron,
        growth_index=max(kron - 1, 0),
        consistent_dim=n1,
    )
    return pencil, truth
