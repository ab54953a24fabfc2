import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daepencil import subspaces as ss
from daepencil.exceptions import ShapeMismatchError
from daepencil.subspaces import (
    RankTolerance,
    Subspace,
    contains,
    distance,
    equal,
    full_space,
    image,
    intersect,
    kernel,
    preimage,
    project,
    span,
    zero_space,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
N3 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def coordinate_span(n, *indices):
    return span([np.eye(n)[:, i] for i in indices])


def oracle_member(S, v):
    """Independent membership test: appending v must not raise the rank."""
    stacked = np.column_stack([S.basis, v]) if S.dim else np.atleast_2d(v).T
    return np.linalg.matrix_rank(stacked, tol=1e-8) == S.dim


class TestRankTolerance:
    def test_rank_rule(self):
        tol = RankTolerance(1e-10)
        assert tol.rank([1.0, 1e-3, 1e-14], (3, 3)) == 2
        assert tol.rank([0.0, 0.0], (2, 2)) == 0
        assert tol.rank([], (5, 0)) == 0

    def test_deterministic(self):
        tol = RankTolerance()
        s = np.array([2.0, 1e-9, 1e-12])
        assert tol.rank(s, (3, 3)) == tol.rank(s, (3, 3))

    def test_positive_required(self):
        with pytest.raises(ValueError):
            RankTolerance(0.0)
        with pytest.raises(ValueError):
            RankTolerance(-1e-3)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                RankTolerance(bad)

    def test_membership_is_ten_times_relative(self):
        # exact at the default: the membership bound stays 1e-9
        assert RankTolerance().membership == 1e-9
        assert RankTolerance(1e-7).membership == 10.0 * 1e-7

    def test_coarser(self):
        a, b = RankTolerance(1e-10), RankTolerance(1e-6)
        assert a.coarser(b) is b
        assert b.coarser(a) is b


class TestSpan:
    def test_single_nonzero_vector(self):
        S = span([(1.0, 0.0), (0.0, 0.0)])
        assert S.dim == 1
        assert abs(abs(S.basis[0, 0]) - 1.0) < 1e-14
        assert abs(S.basis[1, 0]) < 1e-14

    def test_collinear(self):
        assert span([(1.0, 0.0), (2.0, 0.0)]).dim == 1

    def test_spanning_the_plane(self):
        assert span([(1.0, 1.0), (1.0, -1.0), (3.0, 0.0)]).dim == 2

    def test_mismatched_lengths(self):
        with pytest.raises(ShapeMismatchError):
            span([(1.0, 0.0), (1.0, 0.0, 0.0)])

    def test_empty_list(self):
        with pytest.raises(ShapeMismatchError):
            span([])

    def test_zero_subspace_representable(self):
        Z = zero_space(3)
        assert Z.dim == 0 and Z.ambient_dim == 3


class TestSubspaceValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_too_many_vectors(self):
        with pytest.raises(ShapeMismatchError):
            Subspace(np.ones((2, 3)))

    def test_basis_frozen(self):
        S = full_space(2)
        with pytest.raises(ValueError):
            S.basis[0, 0] = 5.0


class TestImage:
    def test_identity_map(self):
        S = span([(1.0, 2.0, 0.0), (0.0, 1.0, 1.0)])
        assert equal(image(np.eye(3), S), S)

    def test_zero_subspace(self):
        M = np.arange(9.0).reshape(3, 3)
        assert image(M, zero_space(3)).dim == 0

    def test_nilpotent_shift(self):
        # N e1 = 0 and N e2 = e1, so the image of span{e1,e2} is span{e1}
        S = coordinate_span(3, 0, 1)
        assert equal(image(N3, S), coordinate_span(3, 0))

    def test_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            image(np.eye(2), full_space(3))


class TestPreimage:
    def test_identity_map(self):
        S = span([(1.0, 1.0, 1.0)])
        assert equal(preimage(np.eye(3), S), S)

    def test_full_space_unconstrained(self):
        M = np.arange(9.0).reshape(3, 3)
        assert preimage(M, full_space(3)).dim == 3

    def test_nilpotent_iv_step(self):
        # {x : x in span{e1}} computed through the identity map
        S = preimage(np.eye(2), span([E1]))
        assert equal(S, span([E1]))

    def test_contains_kernel(self):
        assert contains(preimage(N2, span([E2])), kernel(N2))

    def test_zero_map_gives_everything(self):
        assert preimage(np.zeros((3, 3)), span([(1.0, 0.0, 0.0)])).dim == 3


def test_known_scale_gives_the_default_bytes():
    # image and preimage accept ||M||_2 precomputed; passing it changes nothing
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5)) @ np.diag([1.0, 1.0, 1e-3, 1e-12, 0.0])
    S = span(list(rng.standard_normal((2, 5))))
    scale = np.linalg.norm(M, 2)
    for op in (image, preimage):
        assert np.array_equal(op(M, S, scale).basis, op(M, S).basis)


class TestKernelSumIntersect:
    def test_kernel_nilpotent(self):
        assert equal(kernel(N2), span([E1]))

    def test_kernel_invertible(self):
        assert kernel(np.array([[2.0, 1.0], [0.0, 3.0]])).dim == 0

    def test_coordinate_intersection(self):
        S = coordinate_span(3, 0, 1)
        T = coordinate_span(3, 1, 2)
        assert equal(intersect(S, T), coordinate_span(3, 1))

    def test_sum(self):
        S = coordinate_span(3, 0)
        T = coordinate_span(3, 2)
        assert equal(ss.sum(S, T), coordinate_span(3, 0, 2))
        assert ss.sum(zero_space(3), zero_space(3)).dim == 0

    def test_disjoint_intersection(self):
        assert intersect(coordinate_span(2, 0), coordinate_span(2, 1)).dim == 0

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            intersect(full_space(2), full_space(3))


class TestProjectDistance:
    def test_unit_distance(self):
        assert distance(span([E1]), E2) == pytest.approx(1.0)

    def test_member_distance_zero(self):
        S = span([(1.0, 2.0), (0.0, 1.0)])
        assert distance(S, np.array([3.0, -1.0])) < 1e-12

    def test_projection_onto_zero_space(self):
        v = np.array([1.0, 2.0])
        assert np.all(project(zero_space(2), v) == 0.0)

    def test_vector_length_checked(self):
        with pytest.raises(ShapeMismatchError):
            project(full_space(2), np.ones(3))


class TestContainsEqual:
    def test_chain(self):
        small = coordinate_span(3, 0)
        big = coordinate_span(3, 0, 1)
        assert contains(big, small)
        assert not contains(small, big)
        assert not equal(small, big)

    def test_everything_contains_zero(self):
        assert contains(zero_space(4), zero_space(4))
        assert contains(span([(1.0, 0.0, 0.0, 0.0)]), zero_space(4))

    def test_rotation_invariance(self):
        # same plane described by two different spanning sets
        S = span([(1.0, 1.0, 0.0), (1.0, -1.0, 0.0)])
        T = coordinate_span(3, 0, 1)
        assert equal(S, T)

    def test_agrees_with_rank_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            S = span(list(rng.standard_normal((int(rng.integers(1, n + 1)), n))))
            v = rng.standard_normal(n)
            if rng.uniform() < 0.5 and S.dim:
                v = S.basis @ rng.standard_normal(S.dim)  # force a member
            assert oracle_member(S, v) == (distance(S, v) <= 1e-8 * np.linalg.norm(v))


def _well_separated(M):
    """No singular value in the ambiguous band between zero and clearly nonzero.

    Inside that band rank decisions are arbitrary and direction accuracy is
    inherently lost, so set-algebra laws cannot be expected of any fixed
    tolerance; exact deficiency and honest full rank both stay in play.
    """
    s = np.linalg.svd(np.atleast_2d(M), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True
    return not np.any((s > 1e-12 * s[0]) & (s < 1e-6 * s[0]))


@st.composite
def matrices_and_subspaces(draw):
    # quarter-integer entries keep instances generic while excluding
    # near-tolerance scales, where direction accuracy is inherently lost
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=n))
    elements = st.integers(min_value=-40, max_value=40).map(lambda k: k / 4.0)
    M = np.array(draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)))
    vecs = np.array(draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=m, max_size=m)))
    assume(_well_separated(M) and _well_separated(vecs))
    return M, vecs


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(matrices_and_subspaces())
    def test_gram_orthonormality(self, data):
        M, vecs = data
        n = M.shape[0]
        for T in (span(list(vecs)), image(M, span(list(vecs))), preimage(M, span(list(vecs))), kernel(M)):
            if T.dim:
                gram = T.basis.T @ T.basis
                assert np.max(np.abs(gram - np.eye(T.dim))) <= 10 * np.finfo(float).eps * n

    @settings(max_examples=60, deadline=None)
    @given(matrices_and_subspaces())
    def test_image_idempotence(self, data):
        M, vecs = data
        S = span(list(vecs))
        assert equal(image(M, image(np.eye(M.shape[0]), S)), image(M, S))
        if S.dim:
            assert equal(span(list(S.basis.T)), S)

    @settings(max_examples=60, deadline=None)
    @given(matrices_and_subspaces())
    def test_projection_contraction(self, data):
        M, vecs = data
        S = span(list(vecs))
        v = M[:, 0]
        p1 = project(S, v)
        assert np.linalg.norm(p1) <= np.linalg.norm(v) * (1 + 1e-12)
        p2 = project(S, p1)
        assert np.linalg.norm(p2 - p1) <= 1e-12 * max(1.0, np.linalg.norm(p1))

    @settings(max_examples=60, deadline=None)
    @given(matrices_and_subspaces())
    def test_image_preimage_adjunction(self, data):
        M, vecs = data
        S = span(list(vecs))
        assert contains(S, image(M, preimage(M, S)))
        assert contains(preimage(M, image(M, S)), S)

    @settings(max_examples=40, deadline=None)
    @given(matrices_and_subspaces())
    def test_intersect_sum_bounds(self, data):
        M, vecs = data
        S = span(list(vecs))
        T = image(M, S)
        inter, union = intersect(S, T), ss.sum(S, T)
        assert contains(S, inter) and contains(T, inter)
        assert contains(union, S) and contains(union, T)
        assert inter.dim + union.dim == S.dim + T.dim


class TestToleranceMerging:
    def test_coarser_tolerance_wins(self):
        fine = span([E1], RankTolerance(1e-12))
        coarse = span([E2], RankTolerance(1e-6))
        assert ss.sum(fine, coarse).tol.relative == 1e-6
        assert intersect(fine, coarse).tol.relative == 1e-6

    def test_near_parallel_vectors_merge_under_coarse_tol(self):
        v = np.array([1.0, 1e-8])
        S = span([E1, v], RankTolerance(1e-4))
        assert S.dim == 1
        assert span([E1, v], RankTolerance(1e-12)).dim == 2

    def test_complex_subspaces(self):
        S = span([np.array([1.0 + 1.0j, 0.0]), np.array([2.0 + 2.0j, 0.0])])
        assert S.dim == 1
        assert distance(S, np.array([0.0, 1.0 + 0.0j])) == pytest.approx(1.0)


def _contains_per_vector(S, T):
    """The basis-vector-wise rule of contains, one distance at a time."""
    if T.dim == 0:
        return True
    if T.dim > S.dim:
        return False
    cutoff = 10.0 * S.tol.coarser(T.tol).relative
    return all(
        np.linalg.norm(t - S.basis @ (S.basis.conj().T @ t)) <= cutoff * np.linalg.norm(t)
        for t in T.basis.T
    )


class TestBlockProjection:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_contains_matches_per_vector_rule(self, complex_):
        rng = np.random.default_rng(17 + complex_)

        def draw(shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_ else x

        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 8))
            S = Subspace(np.linalg.qr(draw((n, n)))[0][:, : int(rng.integers(0, n + 1))])
            k = int(rng.integers(0, n + 1))
            # members of S pushed off it by noise around the 1e-9 cutoff, or anything
            offset = 10.0 ** rng.uniform(-13, -7) if rng.uniform() < 0.8 else 1.0
            vectors = S.basis @ draw((S.dim, k)) + offset * draw((n, k))
            T = span(list(vectors.T)) if k else zero_space(n)
            got = contains(S, T)
            assert got == _contains_per_vector(S, T)
            seen.add((T.dim == 0, T.dim > S.dim, got))
        assert {(True, False, True), (False, True, False), (False, False, True)} <= seen
        assert (False, False, False) in seen

    def test_distance_of_a_block_is_its_column_distances(self):
        S = span([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        V = np.array([[1.0, 2.0], [3.0, 0.0], [4.0, -1.0]])
        np.testing.assert_allclose(distance(S, V), [4.0, 1.0])
        np.testing.assert_allclose(project(S, V), [[1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
        assert distance(S, V[:, 0]) == pytest.approx(4.0)
        assert np.all(project(zero_space(3), V) == 0.0)
