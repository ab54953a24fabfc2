"""The nested chain of initial-value spaces and the restricted-E isomorphism.

IV_0 is the whole space and IV_{k+1} = {x : Ax in E[IV_k]}.  The chain is
decreasing; its stabilization step is the third, subspace-algebraic route to
the pencil index, and IV_{stabilization+1} is exactly the set of initial
values admitting a classical solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeMismatchError, TruncatedChainError
from .pencils import IndexEstimate, Pencil, _cached
from .subspaces import RankTolerance, Subspace, equal, full_space, image, preimage

__all__ = [
    "IvChain",
    "IsoReport",
    "compute_chain",
    "index_by_chain",
    "consistent_space",
    "check_restricted_iso",
]


@dataclass(frozen=True)
class IvChain:
    """The computed spaces IV_0, IV_1, ..., one past the stabilization witness.

    stabilization is the smallest k with IV_{k+1} = IV_{k+2}, or None when
    the iteration cap was hit first (then truncated is True).  In finite
    dimensions the strictly decreasing dimensions force stabilization within
    n + 1 steps, so truncation only signals a numerical pathology.

    The chain also holds the pencil the spaces belong to and the images
    E[IV_j] compute_chain found on the way (one per space but the last); the
    restricted-isomorphism report and the reduced generator are computed once
    from them and kept on the chain.
    """

    spaces: tuple
    stabilization: int | None
    truncated: bool
    pencil: Pencil = field(repr=False, compare=False)
    images: tuple = field(repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.spaces)

    @property
    def tol(self) -> RankTolerance:
        return self.spaces[0].tol


def compute_chain(pencil: Pencil, tol: RankTolerance = RankTolerance(), max_k=None) -> IvChain:
    """Iterate IV_{k+1} = preimage(A, image(E, IV_k)) until it stabilizes.

    Stops at the first k with IV_{k+1} = IV_{k+2}, recording one extra space
    as the witness; hitting max_k (default n + 2) first is reported through
    the truncated flag rather than raised.
    """
    n = pencil.n
    if max_k is None:
        max_k = n + 2
    spaces = [full_space(n, tol)]
    images = []
    while True:
        images.append(image(pencil.E, spaces[-1], pencil.norm_E))
        spaces.append(preimage(pencil.A, images[-1], pencil.norm_A))
        stable = len(spaces) >= 3 and equal(spaces[-1], spaces[-2])
        if stable or len(spaces) > max_k:
            break
    # the last space is IV_j with j = len(spaces) - 1; stable means k = j - 2
    return IvChain(
        tuple(spaces), len(spaces) - 3 if stable else None, not stable, pencil, tuple(images)
    )


def _check_owner(pencil: Pencil, chain: IvChain):
    """Reject a chain computed for another pencil (compared by value)."""
    if chain.pencil != pencil:
        raise ShapeMismatchError("chain does not belong to this pencil")


def _stabilization(chain: IvChain) -> int:
    """The chain's stabilization step; TruncatedChainError if it has none."""
    if chain.truncated:
        raise TruncatedChainError("chain hit max_k before stabilizing")
    return chain.stabilization


def index_by_chain(chain: IvChain) -> IndexEstimate:
    """The stabilization step as an index estimate.

    Agreement with the growth and nilpotency routes is exactly the
    finite-dimensional index question; callers compare the three and treat
    disagreement as a reportable failure, not as something to reconcile here.
    """
    return IndexEstimate(
        k=_stabilization(chain),
        method="ivchain",
        confident=True,
        diagnostics={"dims": list(chain.dims)},
    )


def consistent_space(pencil: Pencil, chain: IvChain) -> Subspace:
    """IV_{k+1} at the stabilization step k: the consistent initial values."""
    _check_owner(pencil, chain)
    return chain.spaces[_stabilization(chain) + 1]


@dataclass(frozen=True)
class IsoReport:
    """Diagnostics for E restricted to IV_{k+1} -> E[IV_k].

    sigma_min/sigma_max are the extreme singular values of the restricted
    matrix expressed in the orthonormal bases of domain and codomain (None
    when both are zero-dimensional, where the map is vacuously bijective).
    bijective requires equal dimensions and sigma_min above the rank cutoff.
    """

    k: int
    dim_domain: int
    dim_codomain: int
    sigma_min: float | None
    sigma_max: float | None
    bijective: bool


def check_restricted_iso(pencil: Pencil, chain: IvChain) -> IsoReport:
    """Form the matrix of E from IV_{k+1} into E[IV_k] and test bijectivity.

    Computed once per chain and kept on it.
    """
    _check_owner(pencil, chain)
    _stabilization(chain)
    return _cached(chain, "iso", lambda: _restricted_iso(chain))


def _restricted_iso(chain):
    pencil = chain.pencil
    k = chain.stabilization
    domain = chain.spaces[k + 1]
    codomain = chain.images[k]
    if domain.dim == 0 and codomain.dim == 0:
        return IsoReport(k, 0, 0, None, None, True)
    restricted = codomain.basis.conj().T @ (pencil.E @ domain.basis)
    if restricted.size == 0:
        # one side trivial, the other not: dimensions already disagree
        return IsoReport(k, domain.dim, codomain.dim, None, None, False)
    svals = np.linalg.svd(restricted, compute_uv=False)
    # bijectivity floor measured against ||E||, not against the restricted
    # matrix itself, so a map that vanishes on IV_{k+1} cannot look invertible
    cutoff = chain.tol.relative * pencil.norm_E * max(restricted.shape)
    bijective = domain.dim == codomain.dim and float(svals[-1]) > cutoff
    return IsoReport(
        k=k,
        dim_domain=domain.dim,
        dim_codomain=codomain.dim,
        sigma_min=float(svals[-1]),
        sigma_max=float(svals[0]),
        bijective=bool(bijective),
    )
