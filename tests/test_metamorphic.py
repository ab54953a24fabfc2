"""Metamorphic relations of every decision.

The regularity verdict, the index and the consistent dimension are
invariants of the pencil, so they must survive transposition, equivalence
(PEQ, PAQ) by orthogonal and by well-conditioned diagonal factors, and
scaling (aE, aA); a direct sum takes the larger index and adds the
consistent dimensions.  The growth index is compared only where both
estimates are confident.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from daepencil.chains import compute_chain, consistent_space
from daepencil.fixtures import generate
from daepencil.pencils import certify_regularity, index_by_growth, index_by_nilpotency, new_pencil
from daepencil.verification import random_specs

SEED = 1  # the analysis seed of every decision


def decisions(p):
    """(the decisions that must survive every relation, the growth estimate or None)."""
    if not certify_regularity(p, SEED).regular:
        return {"regular": False}, None
    chain = compute_chain(p)
    kernel_dims = index_by_nilpotency(p).diagnostics["kernel_dims"]
    return {
        "regular": True,
        "chain": chain.stabilization,
        "nilpotency": len(kernel_dims) - 2,
        "consistent": consistent_space(p, chain).dim,
        "kernel_dims": kernel_dims,
    }, index_by_growth(p)


def direct_sum(a, b):
    """The decisions of diag(E1, E2), diag(A1, A2) from those of the summands."""
    if not (a["regular"] and b["regular"]):
        return {"regular": False}
    length = max(len(a["kernel_dims"]), len(b["kernel_dims"]))
    padded = [d["kernel_dims"] + d["kernel_dims"][-1:] * length for d in (a, b)]
    return {
        "regular": True,
        "chain": max(a["chain"], b["chain"]),
        "nilpotency": max(a["nilpotency"], b["nilpotency"]),
        "consistent": a["consistent"] + b["consistent"],
        "kernel_dims": [x + y for x, y in zip(*padded)][:length],
    }


def related(p, rng):
    """(relation name, transformed pencil) for each one-pencil relation."""
    n = p.n
    P, Q = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    D, G = (np.diag(10.0 ** rng.uniform(0.0, 1.0, n)) for _ in range(2))  # cond <= 10
    yield "transpose", new_pencil(p.E.T, p.A.T)
    yield "orthogonal", new_pencil(P @ p.E @ Q, P @ p.A @ Q)
    yield "diagonal", new_pencil(D @ p.E @ G, D @ p.A @ G)
    for a in (1e-2, 1e2):
        yield f"scaled {a:g}", new_pencil(a * p.E, a * p.A)


def confident_k(*estimates):
    """The largest growth k of the estimates if every one is confident, else None."""
    if all(e is not None and e.confident for e in estimates):
        return max(e.k for e in estimates)
    return None


def mismatches(specs, rng):
    """(relation, fixture or pair index) for every relation that changes a decision."""
    pencils = [generate(spec)[0] for spec in specs]
    found = [decisions(p) for p in pencils]
    missed = []

    def compare(name, index, want, want_k, pencil):
        got, growth = decisions(pencil)
        k = confident_k(growth)
        if got != want or (want_k is not None and k is not None and k != want_k):
            missed.append((name, index))

    for i, (p, (want, growth)) in enumerate(zip(pencils, found)):
        for name, q in related(p, rng):
            compare(name, i, want, confident_k(growth), q)
    for i in range(len(pencils) // 2):
        p, q = pencils[2 * i], pencils[2 * i + 1]
        (a, ga), (b, gb) = found[2 * i], found[2 * i + 1]
        summed = new_pencil(block_diag(p.E, q.E), block_diag(p.A, q.A))
        compare("direct sum", i, direct_sum(a, b), confident_k(ga, gb), summed)
    return missed


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_decisions_survive_every_relation(seed):
    specs = random_specs(60, (2, 20), (0, 4), seed=seed)
    assert mismatches(specs, np.random.default_rng(seed)) == []
