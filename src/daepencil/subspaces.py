"""Rank-revealing subspace algebra on R^n and C^n.

Every subspace is stored as a matrix with orthonormal columns obtained from
an SVD, so comparisons reduce to projection distances and stay robust under
ill-conditioned spanning sets.  All operations are pure functions of
immutable values; results may be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeMismatchError

__all__ = [
    "RankTolerance",
    "Subspace",
    "span",
    "full_space",
    "zero_space",
    "image",
    "preimage",
    "kernel",
    "contains",
    "equal",
    "project",
    "distance",
]


@dataclass(frozen=True)
class RankTolerance:
    """Relative cutoff deciding which singular values count as zero.

    A singular value sigma_i of an (m, k) matrix is treated as zero iff
    sigma_i <= relative * sigma_max * max(m, k).  A matrix whose largest
    singular value is zero has rank 0.  The rule is deterministic: the same
    matrix always yields the same rank decision.
    """

    relative: float = 1e-10

    def __post_init__(self):
        if not 0 < self.relative < np.inf:
            raise ValueError(f"rank tolerance must be positive and finite, got {self.relative!r}")

    @property
    def membership(self) -> float:
        """Relative distance up to which a vector lies in a subspace (every such test)."""
        return 10.0 * self.relative

    def rank(self, singular_values, shape, reference=None) -> int:
        """Numerical rank; `reference` overrides sigma_max as the scale.

        Matrices derived from a linear map (images, complement-projected
        maps) are ranked against the map's operator norm, otherwise a
        product that vanishes to roundoff could never be recognized as zero.
        """
        s = np.asarray(singular_values, dtype=float)
        scale = float(reference) if reference is not None else (s[0] if s.size else 0.0)
        if s.size == 0 or scale == 0.0:
            return 0
        return int(np.count_nonzero(s > self.relative * scale * max(shape)))

    def coarser(self, other: "RankTolerance") -> "RankTolerance":
        """The looser of two tolerances; set operations on two subspaces use this."""
        return self if self.relative >= other.relative else other


def _as_column_matrix(vectors):
    """Stack a list of equal-length vectors as matrix columns."""
    vecs = [np.asarray(v) for v in vectors]
    if not vecs:
        raise ShapeMismatchError("span of an empty vector list has no ambient dimension")
    n = vecs[0].shape
    if len(n) != 1 or n[0] < 1:
        raise ShapeMismatchError(f"expected 1-d vectors, got shape {n}")
    for v in vecs[1:]:
        if v.shape != n:
            raise ShapeMismatchError(f"mixed vector lengths: {n[0]} vs {v.shape}")
    return _as_inexact(np.column_stack(vecs))


def _as_inexact(M):
    M = np.asarray(M)
    if not np.issubdtype(M.dtype, np.inexact):
        M = M.astype(float)
    return M


def _orthonormal_columns(M, tol: RankTolerance):
    """Orthonormal basis of the column space of M, ranked against its own sigma_max."""
    M = _as_inexact(M)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return np.ascontiguousarray(U[:, : tol.rank(s, M.shape)])


def _nullspace_columns(M, tol: RankTolerance, reference=None, shape=None, svd=None):
    """Orthonormal basis of the kernel of M (M may be rectangular), ranked at
    shape (M's own unless given); svd, where given, is np.linalg.svd(M)."""
    M = _as_inexact(M)
    _, s, Vh = np.linalg.svd(M) if svd is None else svd
    r = tol.rank(s, M.shape if shape is None else shape, reference)
    return np.ascontiguousarray(Vh[r:].conj().T)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n or C^n.

    basis is an (ambient_dim, dim) matrix with orthonormal columns; dim may
    be zero (the trivial subspace {0}).  tol is the rank tolerance the basis
    was constructed with and is inherited by derived subspaces.  complement,
    where kept (None otherwise), is an orthonormal basis of the orthogonal
    complement, (ambient_dim, ambient_dim - dim), from the same SVD as basis:
    image keeps it for a thick image, and preimage then takes a thin kernel.
    """

    basis: np.ndarray
    tol: RankTolerance = field(default_factory=RankTolerance)
    complement: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        basis = _as_inexact(self.basis)
        if basis.ndim != 2:
            raise ShapeMismatchError(f"basis must be 2-d, got ndim={basis.ndim}")
        n, d = basis.shape
        if n < 1:
            raise ShapeMismatchError("ambient dimension must be >= 1")
        if d > n:
            raise ShapeMismatchError(f"{d} basis vectors cannot be independent in dim {n}")
        if d:
            gram = basis.conj().T @ basis
            err = np.max(np.abs(gram - np.eye(d)))
            if err > 10 * np.finfo(float).eps * n:
                raise ValueError(f"basis columns not orthonormal (Gram error {err:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        if self.complement is not None:
            if self.complement.shape != (n, n - d):
                raise ShapeMismatchError(
                    f"complement of shape {self.complement.shape} for dim {d} of {n}"
                )
            self.complement.setflags(write=False)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def span(vectors, tol: RankTolerance = RankTolerance()) -> Subspace:
    """Subspace spanned by a list of equal-length vectors."""
    M = _as_column_matrix(vectors)
    return Subspace(_orthonormal_columns(M, tol), tol)


def full_space(n: int, tol: RankTolerance = RankTolerance()) -> Subspace:
    return Subspace(np.eye(n), tol)


def zero_space(n: int, tol: RankTolerance = RankTolerance()) -> Subspace:
    return Subspace(np.zeros((n, 0)), tol)


def _check_square(M, n=None):
    """M as an inexact square matrix, of size n where n is given."""
    M = _as_inexact(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {M.shape}")
    if n is not None and M.shape[0] != n:
        raise ShapeMismatchError(f"matrix size {M.shape[0]} does not match ambient dimension {n}")
    return M


def _given_scale(scale, svd):
    """||M||_2 as given: the top value of a kept svd = np.linalg.svd(M), or scale."""
    if svd is not None and scale is not None:
        raise ValueError("give svd or scale, not both: a kept svd carries ||M||_2")
    return scale if svd is None else svd[1][0]


def image(M, S: Subspace, scale=None, svd=None) -> Subspace:
    """span{M b : b in S.basis}, the image of S under M.

    Rank decisions are taken relative to ||M||_2, so an image that vanishes to
    roundoff collapses to {0}, not kept alive by its noise.  svd, where given, is
    np.linalg.svd(M), kept by the caller: ||M||_2 is its top singular value, and
    the range of M, the image of the whole space, is read from it.  Otherwise
    ||M||_2 is scale, taken unless given; giving both is a ValueError.  The image
    of a thick S (more than n/2 dimensions) takes its SVD with the full left factor
    and keeps the rest of it as the complement, from which preimage takes a thin kernel.
    """
    M = _check_square(M, S.ambient_dim)
    n, d = S.basis.shape
    scale = _given_scale(scale, svd)
    if d == 0:
        return zero_space(n, S.tol)
    scale = np.linalg.norm(M, 2) if scale is None else scale
    thick = 2 * d > n
    if svd is None or d < n:
        svd = np.linalg.svd(M @ S.basis, full_matrices=thick)
    U, s, _ = svd
    r = S.tol.rank(s, (n, d), reference=scale)
    complement = np.ascontiguousarray(U[:, r:]) if thick else None
    return Subspace(np.ascontiguousarray(U[:, :r]), S.tol, complement)


def preimage(M, S: Subspace, scale=None, svd=None) -> Subspace:
    """{x : M x in S}, the kernel of (I - P_S) M, or of Q^H M where S keeps
    its complement Q.

    Always contains ker M; is the full space, with no SVD, when S is.  Rank
    decisions are relative to ||M||_2, given as in image, at M's shape n x n in
    both forms: Q^H M is the c x n kernel problem of an S of codimension c, and in
    exact arithmetic its singular values are the nonzero ones of (I - P_S) M, so
    the two forms share one cutoff.  Where S is {0}, ker M is read from svd.
    """
    M = _check_square(M, S.ambient_dim)
    scale = _given_scale(scale, svd)
    if S.dim == S.ambient_dim:
        return full_space(S.ambient_dim, S.tol)
    scale = np.linalg.norm(M, 2) if scale is None else scale
    if S.complement is not None:
        K = S.complement.conj().T @ M
    else:
        K = M - S.basis @ (S.basis.conj().T @ M)
    svd = svd if S.dim == 0 else None
    return Subspace(_nullspace_columns(K, S.tol, scale, M.shape, svd), S.tol)


def kernel(M, tol: RankTolerance = RankTolerance()) -> Subspace:
    """Kernel of a square matrix as a Subspace."""
    return Subspace(_nullspace_columns(_check_square(M), tol), tol)


def project(S: Subspace, v):
    """Orthogonal projection onto S of a vector v, or of each column of an (n, m) block v."""
    v = _as_inexact(np.asarray(v))
    if v.shape[:1] != (S.ambient_dim,) or v.ndim > 2:
        raise ShapeMismatchError(
            f"vector shape {v.shape} does not match ambient dimension {S.ambient_dim}"
        )
    if S.dim == 0:
        return np.zeros_like(v)
    return S.basis @ (S.basis.conj().T @ v)


def distance(S: Subspace, v):
    """Euclidean distance from v to S; for an (n, m) block, its m column distances at once."""
    v = np.asarray(v)
    return np.linalg.norm(v - project(S, v), axis=0)


def contains(S: Subspace, T: Subspace) -> bool:
    """Whether T is a subset of S, decided basis-vector-wise.

    Each unit basis vector t of T must satisfy distance(S, t) <= membership of
    the coarser of the two operands' tolerances (one projection for all).
    """
    if S.ambient_dim != T.ambient_dim:
        raise ShapeMismatchError(f"ambient dimensions differ: {S.ambient_dim} vs {T.ambient_dim}")
    if T.dim == 0:
        return True
    if T.dim > S.dim:
        return False
    cutoff = S.tol.coarser(T.tol).membership
    return bool(np.all(distance(S, T.basis) <= cutoff * np.linalg.norm(T.basis, axis=0)))


def equal(S: Subspace, T: Subspace) -> bool:
    """Set equality via mutual containment."""
    return contains(S, T) and contains(T, S)


def _monotone_chain(step, start: Subspace) -> list:
    """[start, step(start), step(step(start)), ...] while the dimensions are strictly monotone.

    The last space returned is the first that breaks the trend: a repeated
    dimension (the chain has stabilized) or a reversal (roundoff; callers'
    checks report it).  A strictly monotone run of dimensions in [0, n] has at
    most n + 1 terms, so step runs at most n + 1 times and needs no cap.
    """
    spaces = [start, step(start)]
    trend = spaces[1].dim - start.dim
    while (spaces[-1].dim - spaces[-2].dim) * trend > 0:
        spaces.append(step(spaces[-1]))
    return spaces
