"""The IV chain, the W chain and the split against exact rational arithmetic.

tests/exact.py decides regularity and the dimensions of both Wong sequences
of small sparse integer pencils by row reduction over the rationals; every
exactly regular pencil must get the same dimensions from the float routes,
and every exactly singular one must fail the regularity certificate.
"""

import importlib.util
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from daepencil.chains import compute_chain
from daepencil.pencils import certify_regularity, index_by_nilpotency, new_pencil
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


@lru_cache(maxsize=None)
def _drawn(seed, count):
    """count random integer pencils (E, A), n = 2..5, in draw order."""
    rng = random.Random(seed)
    return [
        exact.random_pencil(rng, rng.randint(2, 5), rng.choice((0.3, 0.4))) for _ in range(count)
    ]


def _regular_pencils(seed, count):
    """(E, A) of the exactly regular pencils among count random ones, n = 2..5."""
    return [(E, A) for E, A in _drawn(seed, count) if exact.regular(E, A)]


def _float(E, A):
    return new_pencil(np.array(E, dtype=float), np.array(A, dtype=float))


# exactly singular draws of _drawn(1, 400) that certify_regularity calls regular
# at every seed: det(sE + A) evaluates to roundoff, not to an exact zero
CALLED_REGULAR = (209, 293, 295)
# an exactly singular draw of _drawn(1, 400) whose verdict depends on the seed:
# called singular at seeds 0, 2, 19 and 38 and regular at the other 36 of 0..39
SEED_DEPENDENT = 305


def test_exactly_singular_pencils_fail_the_certificate():
    drawn = _drawn(1, 400)
    singular = [i for i, (E, A) in enumerate(drawn) if not exact.regular(E, A)]
    assert len(singular) == 121 and {*CALLED_REGULAR, SEED_DEPENDENT} <= set(singular)
    checked = [i for i in singular if i not in CALLED_REGULAR]
    assert [i for i in checked if certify_regularity(_float(*drawn[i]), 0).regular] == []
    assert len(checked) == 118


@pytest.mark.parametrize(
    "index",
    [
        pytest.param(i, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4"))
        for i in CALLED_REGULAR
    ],
)
def test_singular_pencil_called_regular(index):
    E, A = _drawn(1, 400)[index]
    assert not exact.regular(E, A)
    assert not certify_regularity(_float(E, A), 0).regular


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_singular_pencil_called_singular_at_every_seed():
    p = _float(*_drawn(1, 400)[SEED_DEPENDENT])
    assert [seed for seed in range(40) if certify_regularity(p, seed).regular] == []


def test_zero_row_or_column_is_called_singular():
    # a row (or column) that is zero in both E and A makes det(sE + A) vanish
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 5)
        E, A = exact.random_pencil(rng, n, rng.choice((0.3, 0.4)))
        i, column = rng.randrange(n), rng.random() < 0.5
        for M in (E, A):
            for j in range(n):
                M[j if column else i][i if column else j] = 0
        assert not exact.regular(E, A)
        for seed in (0, 1):
            assert not certify_regularity(_float(E, A), seed).regular, (E, A, seed)


def _assert_routes_match(E, A):
    """The float IV chain, W chain, nilpotency and split dimensions of the
    exactly regular (E, A) are the exact ones; returns the exact IV and W dims."""
    iv, wong = exact.iv_dims(E, A), exact.wong_dims(E, A)
    assert iv[-1] + wong[-1] == len(E)  # V* (+) W* is the whole space
    p = _float(E, A)
    est = index_by_nilpotency(p)
    split = fitting_splitting(p)
    assert est.diagnostics["kernel_dims"] == wong, (E, A)
    assert est.diagnostics["nilpotency"] == len(wong) - 2
    assert list(compute_chain(p).dims) == iv, (E, A)
    assert (split.range_basis.shape[1], split.kernel_basis.shape[1]) == (iv[-1], wong[-1])
    return iv, wong


def test_float_routes_match_the_exact_chains():
    pencils = _regular_pencils(1, 400)
    nilpotency = Counter(len(_assert_routes_match(E, A)[1]) - 2 for E, A in pencils)
    # enough pencils, with W chains that stabilize at every step from 0 to 3
    assert len(pencils) >= 250
    assert {0, 1, 2, 3} <= nilpotency.keys()


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_float_routes_match_the_exact_chains_on_stokes_saddles(m):
    # n = 3m/2 with q = m/2 constraints: the consistent space is the m - q
    # divergence-free velocities, and the W chain stops at nilpotency 2
    E, A = exact.stokes_like(m)
    assert exact.regular(E, A) and certify_regularity(_float(E, A), 0).regular
    q = m // 2
    assert _assert_routes_match(E, A) == ([m + q, m, m - q, m - q], [0, q, 2 * q, 2 * q])
