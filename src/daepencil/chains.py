"""The nested chain of initial-value spaces and the restricted-E isomorphism.

IV_0 is the whole space and IV_{k+1} = {x : Ax in E[IV_k]}.  The chain is
decreasing; its stabilization step is the third, subspace-algebraic route to
the pencil index, and IV_{stabilization+1} is exactly the set of initial
values admitting a classical solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeMismatchError
from .pencils import IndexEstimate, Pencil, _cached
from .subspaces import RankTolerance, Subspace, _monotone_chain, full_space, image, preimage

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

    stabilization is the step k at which the dimensions stopped falling:
    dim IV_{k+1} = dim IV_{k+2}, which in exact arithmetic means
    IV_{k+1} = IV_{k+2}.  A dimension that rises instead also stops the chain
    there; only roundoff can make one rise, and verify's chain_monotone row
    reports it.

    The chain also holds the pencil the spaces belong to and the images
    E[IV_j] compute_chain found on the way (one per space but the last); the
    restricted map with its isomorphism report and the reduced generator are
    computed once from them and kept on the pencil per tolerance, like the
    spaces, so every IvChain of one pencil and tolerance shares them.
    """

    spaces: tuple
    stabilization: int
    pencil: Pencil = field(repr=False, compare=False)
    images: tuple = field(repr=False, compare=False)

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.spaces)

    @property
    def tol(self) -> RankTolerance:
        return self.spaces[0].tol


def compute_chain(pencil: Pencil, tol: RankTolerance = RankTolerance()) -> IvChain:
    """Iterate IV_{k+1} = preimage(A, image(E, IV_k)) from IV_1 until the
    dimensions stop strictly falling (subspaces._monotone_chain).

    E[IV_0] comes with its complement from the pencil's kept svd_E (as does
    the image of any later IV_k that is the whole space), and each image of a
    thick IV_k keeps its complement Q, so each step's preimage is the thin
    kernel of Q^H A, ranked at n x n against ||A||.  Every step keeps its own
    rank rule.

    The space that repeats (or reverses) the dimension is kept as the witness.
    Spaces and images are kept on the pencil per tolerance; the IvChain is
    not, since it refers back to the pencil and would pin it in a cycle.
    """

    def build():
        images = []

        def step(space):
            images.append(image(pencil.E, space, svd=pencil.svd_E))
            return preimage(pencil.A, images[-1], pencil.norm_A)

        spaces = [full_space(pencil.n, tol)]
        spaces += _monotone_chain(step, step(spaces[0]))
        return tuple(spaces), tuple(images)

    spaces, images = _cached(pencil, ("iv", tol), build)
    # the last space is IV_j with j = len(spaces) - 1, the witness of k = j - 2
    return IvChain(spaces, len(spaces) - 3, pencil, images)


def _check_owner(pencil: Pencil, chain: IvChain):
    """Reject a chain computed for another pencil (compared by value)."""
    if chain.pencil != pencil:
        raise ShapeMismatchError("chain does not belong to this pencil")


def index_by_chain(chain: IvChain) -> IndexEstimate:
    """The stabilization step as an index estimate.

    Agreement with the growth and nilpotency routes is exactly the
    finite-dimensional index question; callers compare the three and treat
    disagreement as a reportable failure, not as something to reconcile here.
    """
    return IndexEstimate(
        k=chain.stabilization,
        method="ivchain",
        confident=True,
        diagnostics={"dims": list(chain.dims)},
    )


def consistent_space(pencil: Pencil, chain: IvChain) -> Subspace:
    """IV_{k+1} at the stabilization step k: the consistent initial values."""
    _check_owner(pencil, chain)
    return chain.spaces[chain.stabilization + 1]


@dataclass(frozen=True)
class IsoReport:
    """Diagnostics for E restricted to IV_{k+1} -> E[IV_k].

    sigma_min/sigma_max are the extreme singular values of the restricted
    matrix expressed in the orthonormal bases of domain and codomain (None
    when both are zero-dimensional, where the map is vacuously bijective).
    bijective requires equal dimensions and full rank under chain.tol, against ||E||.
    """

    k: int
    dim_domain: int
    dim_codomain: int
    sigma_min: float | None
    sigma_max: float | None
    bijective: bool


def check_restricted_iso(pencil: Pencil, chain: IvChain) -> IsoReport:
    """Form the matrix of E from IV_{k+1} into E[IV_k] and test bijectivity.

    Computed once per pencil and tolerance and kept on the pencil.
    """
    _check_owner(pencil, chain)
    return _restricted_iso(chain)[0]


def _restricted_iso(chain):
    """(IsoReport, read-only C^H (E B) for the bases B of IV_{k+1} and C of E[IV_k],
    None if either is empty), built once per pencil and tolerance and kept on the pencil."""
    return _cached(chain.pencil, ("iso", chain.tol), lambda: _build_iso(chain))


def _build_iso(chain):
    pencil = chain.pencil
    k = chain.stabilization
    domain = chain.spaces[k + 1]
    codomain = chain.images[k]
    if domain.dim == 0 or codomain.dim == 0:
        # bijective iff both sides are trivial; otherwise the dimensions disagree
        bijective = domain.dim == codomain.dim
        return IsoReport(k, domain.dim, codomain.dim, None, None, bijective), None
    restricted = codomain.basis.conj().T @ (pencil.E @ domain.basis)
    restricted.setflags(write=False)
    svals = np.linalg.svd(restricted, compute_uv=False)
    # ranked against ||E||, not against the restricted matrix itself, so a
    # map that vanishes on IV_{k+1} cannot look invertible
    rank = chain.tol.rank(svals, restricted.shape, reference=pencil.norm_E)
    bijective = domain.dim == codomain.dim == rank
    report = IsoReport(k, domain.dim, codomain.dim, float(svals[-1]), float(svals[0]), bijective)
    return report, restricted
