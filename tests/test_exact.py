"""The IV chain, the W chain and the split against exact rational arithmetic.

tests/exact.py decides regularity and the dimensions of both Wong sequences
of small sparse integer pencils by row reduction over the rationals; every
exactly regular pencil must get the same dimensions from the float routes.
Exactly singular pencils are drawn too but left out: no route claims to
decide them yet.
"""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import numpy as np

from daepencil.chains import compute_chain
from daepencil.pencils import index_by_nilpotency, new_pencil
from daepencil.solvers import fitting_splitting

_SPEC = importlib.util.spec_from_file_location("exact", Path(__file__).with_name("exact.py"))
exact = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(exact)

N3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestOracle:
    def test_jordan_block(self):
        assert exact.regular(N3, I3)
        assert exact.iv_dims(N3, I3) == [3, 2, 1, 0, 0]
        assert exact.wong_dims(N3, I3) == [0, 1, 2, 3, 3]

    def test_invertible_E(self):
        assert exact.iv_dims(I3, N3) == [3, 3, 3]
        assert exact.wong_dims(I3, N3) == [0, 0]

    def test_singular_pencil(self):
        M = [[1, 0], [0, 0]]
        assert not exact.regular(M, M)

    def test_determinant(self):
        assert exact.det([[2, 1], [1, 1]]) == 1
        assert exact.det([[0, 1], [1, 0]]) == -1
        assert exact.det([[1, 2], [2, 4]]) == 0


def _regular_pencils(seed, count):
    """(E, A) of the exactly regular pencils among count random ones, n = 2..5."""
    rng = random.Random(seed)
    drawn = (
        exact.random_pencil(rng, rng.randint(2, 5), rng.choice((0.3, 0.4))) for _ in range(count)
    )
    return [(E, A) for E, A in drawn if exact.regular(E, A)]


def test_float_routes_match_the_exact_chains():
    pencils = _regular_pencils(1, 400)
    nilpotency = Counter()
    for E, A in pencils:
        iv, wong = exact.iv_dims(E, A), exact.wong_dims(E, A)
        n = len(E)
        assert iv[-1] + wong[-1] == n  # V* (+) W* is the whole space
        nilpotency[len(wong) - 2] += 1

        p = new_pencil(np.array(E, dtype=float), np.array(A, dtype=float))
        est = index_by_nilpotency(p)
        split = fitting_splitting(p)
        assert est.diagnostics["kernel_dims"] == wong, (E, A)
        assert est.diagnostics["nilpotency"] == len(wong) - 2
        assert list(compute_chain(p).dims) == iv, (E, A)
        assert (split.range_basis.shape[1], split.kernel_basis.shape[1]) == (iv[-1], wong[-1])
    # enough pencils, with W chains that stabilize at every step from 0 to 3
    assert len(pencils) >= 250
    assert {0, 1, 2, 3} <= nilpotency.keys()
