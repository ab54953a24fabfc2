"""Exact answers for small integer pencils, by row reduction over the rationals.

A test oracle that shares no code with daepencil: every matrix is a list of
rows of fractions.Fraction and every decision is exact.  It decides
regularity from det(sE + A) at the n + 1 integer points s = 0..n (a
polynomial of degree at most n vanishes identically iff it vanishes there),
and the dimensions of the two Wong sequences: the IV chain
IV_0 = C^n, IV_{j+1} = A^{-1}(E IV_j), and the W chain W_0 = {0},
W_{j+1} = E^{-1}(A W_j).  Only the standard library is used.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rref(rows):
    """(the nonzero rows of the reduced row echelon form of rows, their pivot columns)."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _kernel(rows, n):
    """A basis of {x in Q^n : row . x = 0 for every row}."""
    reduced, pivots = _rref(rows)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(x)
    return basis


def _apply(M, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in M]


def image(M, S):
    """A basis of M S for the basis S (a list of vectors)."""
    return _rref([_apply(M, x) for x in S])[0]


def preimage(M, S):
    """A basis of {x : M x in span S}: the kernel of C M for rows C spanning S's annihilator."""
    n = len(M)
    annihilator = _kernel(S, n)
    rows = [[sum(c[i] * M[i][j] for i in range(n)) for j in range(n)] for c in annihilator]
    return _kernel(rows, n)


def det(M):
    """det M by elimination over the rationals."""
    M = [list(map(Fraction, row)) for row in M]
    n, value = len(M), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            value = -value
        value *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return value


def regular(E, A):
    """Whether det(sE + A) is not identically zero."""
    n = len(E)
    return any(
        det([[s * e + a for e, a in zip(re, ra)] for re, ra in zip(E, A)]) for s in range(n + 1)
    )


def _chain(step, start):
    """[start, step(start), ...] up to the first space of repeated dimension."""
    spaces = [start, step(start)]
    while len(spaces[-1]) != len(spaces[-2]):
        spaces.append(step(spaces[-1]))
    return spaces


def iv_dims(E, A):
    """dim IV_0, dim IV_1, ... as compute_chain lists them: IV_0, then from
    IV_1 up to the first repeat of the dimension."""
    E, A = _fractions(E), _fractions(A)
    n = len(E)
    full = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def step(S):
        return preimage(A, image(E, S))

    return [n] + [len(S) for S in _chain(step, step(full))]


def wong_dims(E, A):
    """dim W_0, dim W_1, ... up to the first repeat of the dimension."""
    E, A = _fractions(E), _fractions(A)
    return [len(W) for W in _chain(lambda W: preimage(E, image(A, W)), [])]


def _fractions(M):
    return [list(map(Fraction, row)) for row in M]


def stokes_like(m):
    """(E, A) of the 1-D Stokes-like saddle E = diag(I_m, 0_q),
    A = [[L, B^T], [-B, 0]], q = m/2, n = 3m/2, in integers: L is the
    Laplacian (m + 1)^2 tridiag(-1, 2, -1) over h^2, h = 1/(m + 1), and B has
    +-(m + 1) = +-1/h on the disjoint node pairs (2i, 2i + 1)."""
    q, h = m // 2, m + 1
    n = m + q
    E = [[int(i == j < m) for j in range(n)] for i in range(n)]
    A = [[0] * n for _ in range(n)]
    for i in range(m):
        A[i][i] = 2 * h * h
        if i + 1 < m:
            A[i][i + 1] = A[i + 1][i] = -h * h
    for i in range(q):
        A[2 * i][m + i], A[2 * i + 1][m + i] = h, -h
        A[m + i][2 * i], A[m + i][2 * i + 1] = -h, h
    return E, A


def random_pencil(rng: random.Random, n, density=0.4):
    """(E, A), n x n integer matrices whose entries are 0, or +-1 or +-2
    with probability density."""

    def matrix():
        return [
            [rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]

    return matrix(), matrix()
