import numpy as np
import pytest

from trusskit import geom
from trusskit.errors import (
    EmptySubsetError,
    NonFiniteError,
    NonPositiveLeafError,
    NonUnitDirectionError,
    NotSymmetricError,
    TooFewPointsError,
)
from helpers import brute_knn, covariance_loop, eigvals_via_roots


def random_cloud(rng, n, scale=5.0):
    return geom.LabeledCloud(rng.uniform(-scale, scale, size=(n, 3)))


class TestKnnTable:
    def test_singleton(self):
        assert geom.knn_table(np.array([[1.0, 2.0, 3.0]]), 5).tolist() == [[0]]

    def test_rows_match_brute_knn_random_clouds(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(5, 800))
            pts = rng.uniform(-3, 3, size=(n, 3))
            k = int(rng.integers(1, 31))
            table = geom.knn_table(pts, k)
            assert table.shape == (n, min(k, n))
            assert (table[:, 0] == np.arange(n)).all()
            for i in range(n):
                assert set(table[i].tolist()) == \
                    set(brute_knn(pts, pts[i], min(k, n)).tolist())


class TestCovariance:
    def test_coincident(self):
        c, C = geom.covariance([[1, 2, 3], [1, 2, 3]], [0, 1])
        assert np.allclose(c, [1, 2, 3])
        assert np.allclose(C, 0)

    def test_corner_symmetry(self):
        pts = np.array([[1, 2, 0], [1, -2, 0], [-1, 2, 0], [-1, -2, 0]], float)
        c, C = geom.covariance(pts, np.arange(4))
        assert np.allclose(c, 0)
        assert np.allclose(C, np.diag([1.0, 4.0, 0.0]))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 3)) * [2, 0.5, 0.1] + [4, -2, 1]
        _, C = geom.covariance(pts)
        c0, C0 = covariance_loop(pts)
        assert np.abs(C - C0).max() <= 1e-12 * max(1.0, np.abs(C0).max())

    def test_empty_subset(self):
        with pytest.raises(EmptySubsetError):
            geom.covariance(np.zeros((4, 3)), [])


class TestEigen:
    def test_identity(self):
        dec = geom.eigen_sym3(np.eye(3))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_diagonal(self):
        dec = geom.eigen_sym3(np.diag([1.0, 4.0, 0.0]))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 4.0])
        # eigenvector of the largest eigenvalue is the y axis (up to sign)
        assert abs(abs(dec.eigenvectors[1, 2]) - 1.0) < 1e-12

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            C = A @ A.T
            dec = geom.eigen_sym3(C)
            R = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.abs(R - C).max() <= 1e-7 * (1 + dec.eigenvalues[2])
            # eigenvalue sum equals the trace
            assert abs(dec.eigenvalues.sum() - np.trace(C)) <= \
                1e-9 * max(1.0, abs(np.trace(C)))

    def test_not_symmetric(self):
        M = np.eye(3)
        M[0, 1] = 1e-6
        with pytest.raises(NotSymmetricError):
            geom.eigen_sym3(M)


class TestNormals:
    def test_plane_exact(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(-1, 1, 200),
                               rng.uniform(-1, 1, 200),
                               np.zeros(200)])
        cloud = geom.LabeledCloud(pts)
        normals, curv = geom.estimate_normals(cloud, k=12, viewpoint=(0, 0, 10))
        assert np.allclose(normals, [0, 0, 1], atol=1e-9)
        assert curv.max() <= 1e-9

    def test_isotropic_ball_curvature_near_third(self):
        rng = np.random.default_rng(8)
        d = rng.normal(size=(1500, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = d * rng.random(1500)[:, None] ** (1 / 3)
        cloud = geom.LabeledCloud(pts)
        _, curv = geom.estimate_normals(cloud, k=len(pts))
        assert curv[0] > 0.32
        assert curv.max() <= 1 / 3 + 1e-12

    def test_noisy_plane_matches_pointwise_oracle(self):
        rng = np.random.default_rng(21)
        n = 400
        pts = np.column_stack([rng.uniform(-0.15, 0.15, n),
                               rng.uniform(-0.15, 0.15, n),
                               rng.normal(0, 0.008, n)])
        cloud = geom.LabeledCloud(pts)
        k = 30
        normals, curv = geom.estimate_normals(cloud, k=k, viewpoint=(0, 0, 5))
        for pi in rng.choice(n, size=10, replace=False):
            nb = brute_knn(pts, pts[pi], k)
            _, C = covariance_loop(pts[nb])
            lam = np.maximum(eigvals_via_roots(C), 0.0)
            expect = lam[0] / lam.sum() if lam.sum() > 0 else 0.0
            assert abs(curv[pi] - expect) <= 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(300, 3)) * [1.0, 0.6, 0.05]
        cloud = geom.LabeledCloud(pts)
        vp = np.array([0.0, 0.0, 4.0])
        n0, c0 = geom.estimate_normals(cloud, k=20, viewpoint=vp)
        q = geom.random_unit_quaternion(rng)
        R = geom.quat_to_matrix(q)
        n1, c1 = geom.estimate_normals(geom.LabeledCloud(pts @ R.T), k=20,
                                       viewpoint=R @ vp)
        assert np.abs(n1 - n0 @ R.T).max() <= 1e-6
        assert np.abs(c1 - c0).max() <= 1e-9

    def test_too_few_points(self):
        cloud = geom.LabeledCloud(np.random.default_rng(0).random((5, 3)))
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(cloud, k=6)
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(cloud, k=2)

    def test_empty_and_nonfinite(self):
        # the guards in front of the kNN query: no empty or NaN cloud reaches it
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(geom.LabeledCloud(np.zeros((0, 3))))
        with pytest.raises(NonFiniteError):
            geom.LabeledCloud([[0.0, np.nan, 0.0]])

    def test_curvature_range_random_clouds(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            cloud = random_cloud(rng, int(rng.integers(40, 300)))
            _, curv = geom.estimate_normals(cloud, k=15)
            assert curv.min() >= 0.0
            assert curv.max() <= 1 / 3 + 1e-12


class TestVoxel:
    def test_degenerate_voxel(self):
        pts = np.tile([[0.33, 0.71, -0.28]], (10, 1))
        out = geom.voxel_downsample(geom.LabeledCloud(pts), 0.1)
        assert len(out) == 1
        assert np.allclose(out.points[0], pts[0])

    def test_same_voxel_centroid(self):
        pts = np.array([[0.01, 0, 0], [0.09, 0, 0]])
        out = geom.voxel_downsample(geom.LabeledCloud(pts), 0.1)
        assert len(out) == 1
        assert np.allclose(out.points[0], [0.05, 0, 0])

    def test_count_matches_hash_set(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 10, size=(5000, 3))
        out = geom.voxel_downsample(geom.LabeledCloud(pts), 0.1)
        keys = {tuple(k) for k in np.floor(pts / 0.1).astype(int)}
        assert len(out) == len(keys)

    def test_nested_leaf_monotone(self):
        rng = np.random.default_rng(19)
        cloud = random_cloud(rng, 3000)
        for leaf in (0.05, 0.2, 0.7):
            a = geom.voxel_downsample(cloud, leaf)
            b = geom.voxel_downsample(cloud, 2 * leaf)
            assert len(b) <= len(a)

    def test_majority_label_tie_lowest(self):
        pts = np.zeros((4, 3))
        out = geom.voxel_downsample(
            geom.LabeledCloud(pts, [5, 5, 2, 2]), 1.0)
        assert out.face_label[0] == 2

    def test_bad_leaf(self):
        with pytest.raises(NonPositiveLeafError):
            geom.voxel_downsample(geom.LabeledCloud(np.zeros((1, 3))), 0.0)


class TestExtent:
    def test_single_point(self):
        assert geom.extent_along([[1, 1, 1]], [0], [1, 0, 0]) == 0.0

    def test_segment(self):
        pts = [[0, 0, 0], [2, 0, 0]]
        assert geom.extent_along(pts, [0, 1], [1, 0, 0]) == pytest.approx(2.0)

    def test_rectangle_largest_axis(self):
        pts = np.array([[1, 2, 0], [1, -2, 0], [-1, 2, 0], [-1, -2, 0]], float)
        dec = geom.pca_stats(pts)
        v2 = dec.eigenvectors[:, 2]
        assert geom.extent_along(pts, np.arange(4), v2) == pytest.approx(4.0)

    def test_errors(self):
        with pytest.raises(NonUnitDirectionError):
            geom.extent_along([[0, 0, 0]], [0], [1, 1, 0])
        with pytest.raises(EmptySubsetError):
            geom.extent_along([[0, 0, 0]], [], [1, 0, 0])
