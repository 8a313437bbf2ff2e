import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from trusskit import geom
from trusskit import io as tio
from trusskit import metrics, segment, synth
from trusskit.errors import (
    EmptySubsetError,
    InvalidSpecError,
    NonFiniteError,
    NonPositiveLeafError,
    NonUnitDirectionError,
    NotSymmetricError,
    TooFewPointsError,
    TrussKitError,
)
from trusskit.primitives import HeightFieldGround, Scene
from helpers import (
    brute_knn,
    covariance_loop,
    eigvals_via_roots,
    lattice,
    normals_eigh,
)


def random_points(rng, n, scale=5.0):
    return rng.uniform(-scale, scale, size=(n, 3))


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_is_the_table_plus_blocks(self, monkeypatch, workers):
        # the call holds the (n, k) index table and the kd-tree's index
        # array (the tree does not copy the cloud); each block's (b, k)
        # distances and indices live only while the block is kept, never
        # as an (n, k) float table
        monkeypatch.setattr(geom, "_query_workers", workers)
        pts = np.random.default_rng(3).uniform(0.0, 40.0, (60000, 3))
        k = 30
        tracemalloc.start()
        try:
            table = geom.knn_table(pts, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = workers * geom._QUERY_BLOCK * k * 16
        tree = np.dtype(np.intp).itemsize * len(pts)
        assert peak <= table.nbytes + tree + 2 * blocks
        assert table.nbytes + tree + 2 * blocks \
            < table.nbytes + len(pts) * k * 8


class TestQueryWorkers:
    def test_default_is_the_affinity_set(self):
        assert geom.query_workers() == len(os.sched_getaffinity(0))

    def test_threaded_knn_equals_single_thread_on_ties(self, monkeypatch):
        # one query block, and many blocks with a short tail
        pts = lattice(9, 0.5)
        monkeypatch.setattr(geom, "_query_workers", 2)
        for block in (geom._QUERY_BLOCK, 11):
            monkeypatch.setattr(geom, "_QUERY_BLOCK", block)
            for k in (7, 19, 30):
                _, expect = cKDTree(pts).query(pts, k=k, workers=1)
                assert np.array_equal(geom.knn_table(pts, k), expect)

    def test_single_threaded_queries(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", None)
        geom.single_threaded_queries()
        assert geom.query_workers() == 1


class TestMapJobs:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_same_list_in_order(self, jobs):
        # divmod pickles by name, so pool workers can run it
        assert geom.map_jobs(divmod, jobs, range(40, 0, -3), range(1, 15)) \
            == list(map(divmod, range(40, 0, -3), range(1, 15)))


_ROTATION = np.eye(3)
_SCENE = synth.SceneSpec()
_GROUND = Scene([], HeightFieldGround(0.1, 10.0))
_SENSOR = synth.SensorConfig(v_resolution=2, h_resolution=4)
_POINTS = np.random.default_rng(0).normal(size=(40, 3))
_NAN_POINTS = np.where(np.arange(40)[:, None] == 7, np.nan, _POINTS)
# no directory can be made here: a call that gets past its checks writes
# nothing
_NOWHERE = os.path.join(os.devnull, "scans")


def refused(call, error=InvalidSpecError):
    """A MISUSE row for a value that its own rule refuses: the error must
    be ``error``, by default an InvalidSpecError, not a later typed error
    (a degenerate fit) or a library's own ValueError."""
    def row():
        try:
            call()
        except error:
            raise
        except Exception as exc:
            pytest.fail(f"not refused by its rule: {exc!r}")
    return row


# library misuse: each call raises a TrussKitError that is also a
# ValueError
MISUSE = {
    "points_shape": lambda: geom.covariance(np.zeros((4, 2))),
    "pose_lengths": lambda: geom.Pose((0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    "pose_quaternion": lambda: geom.Pose((0.0, 0.0, 0.0), (2.0, 0, 0, 0)),
    "cloud_label_count": lambda: geom.LabeledCloud(np.zeros((3, 3)), [1]),
    "cloud_label_sign": lambda: geom.LabeledCloud(np.zeros((2, 3)), [0, -1]),
    "eigen_unsorted": lambda: geom.EigenDecomp([3.0, 2.0, 1.0], _ROTATION,
                                               np.zeros(3)),
    "eigen_negative": lambda: geom.EigenDecomp([-1.0, 2.0, 3.0], _ROTATION,
                                               np.zeros(3)),
    "eigen_vectors": lambda: geom.EigenDecomp([1.0, 2.0, 3.0],
                                              2.0 * _ROTATION, np.zeros(3)),
    "eigen_stack_shape": lambda: geom.eigen_sym3_stack(np.eye(3)),
    "eigen_matrix_shape": lambda: geom.eigen_sym3(np.eye(2)),
    "confusion_counts": lambda: metrics.ConfusionMatrix(-1, 0, 0, 0),
    "plane_normal": lambda: segment.Plane((0.0, 0.0, 2.0), 0.0),
    "pose_mode": lambda: synth.sample_sensor_pose("bogus", (0, 0, 0), 0),
    "dataset_seed_negative": refused(
        lambda: synth.generate_dataset(_SCENE, 1, -1, _NOWHERE)),
    "dataset_seed_fraction": refused(
        lambda: synth.generate_dataset(_SCENE, 1, 2.5, _NOWHERE)),
    "dataset_scans_fraction": refused(
        lambda: synth.generate_dataset(_SCENE, 1.5, 0, _NOWHERE)),
    "raycast_seed_fraction": refused(
        lambda: synth.raycast_scan(_GROUND, geom.Pose(), _SENSOR, seed=2.5)),
    "raycast_seed_bool": refused(
        lambda: synth.raycast_scan(_GROUND, geom.Pose(), _SENSOR, seed=True)),
    "pose_seed_negative": refused(lambda: synth.sample_sensor_pose(
        synth.FIXED_ORIENTATION_MODE, (0, 0, 0), -1)),
    "pose_seed_fraction": refused(lambda: synth.sample_sensor_pose(
        synth.FIXED_ORIENTATION_MODE, (0, 0, 0), 2.5)),
    "ransac_no_iterations": refused(
        lambda: segment.ransac_plane(_POINTS, 0.1, 0, 0)),
    "ransac_threshold_negative": refused(
        lambda: segment.ransac_plane(_POINTS, -1.0, 10, 0)),
    "ransac_seed_negative": refused(
        lambda: segment.ransac_plane(_POINTS, 0.1, 10, -1)),
    "normals_k_fraction": refused(
        lambda: geom.estimate_normals(_POINTS, k=4.5)),
    "cloud_empty_points_shape": refused(
        lambda: geom.LabeledCloud(np.zeros((0, 5)))),
    "ransac_nonfinite": refused(
        lambda: segment.ransac_plane(_NAN_POINTS, 0.5, 10, 0),
        NonFiniteError),
    "density_nonfinite": refused(
        lambda: segment.density_filter(_NAN_POINTS, np.ones(40, dtype=bool),
                                       segment.PipelineConfig()),
        NonFiniteError),
}


@pytest.mark.parametrize("call", MISUSE.values(), ids=list(MISUSE))
def test_misuse_raises_typed_error(call):
    with pytest.raises(TrussKitError) as info:
        call()
    assert isinstance(info.value, ValueError)


class TestRunRowBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n,block", [(0, 4), (1, 4), (4, 4), (10, 3),
                                         (100, 7)])
    def test_each_row_once_in_disjoint_blocks(self, monkeypatch, workers, n,
                                              block):
        monkeypatch.setattr(geom, "_query_workers", workers)
        seen = np.zeros(n, dtype=np.intp)
        sizes = []

        def job(rows):
            seen[rows] += 1
            sizes.append(rows.stop - rows.start)

        geom.run_row_blocks(n, block, job)
        assert (seen == 1).all()
        assert sorted(sizes, reverse=True) == \
            [block] * (n // block) + ([n % block] if n % block else [])

    def test_one_worker_runs_inline_in_order(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", 1)
        calls = []
        geom.run_row_blocks(10, 4, lambda rows: calls.append(
            (rows.start, rows.stop, threading.current_thread())))
        main = threading.current_thread()
        assert calls == [(0, 4, main), (4, 8, main), (8, 10, main)]

    def test_threads_end_with_the_call(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", 2)
        before = set(threading.enumerate())
        threads = set()
        geom.run_row_blocks(64, 8, lambda rows: threads.add(
            threading.current_thread()))
        # the calling thread and at most one helper ran blocks
        assert len(threads - {threading.current_thread()}) <= 1
        assert set(threading.enumerate()) == before

    def test_job_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", 2)

        def job(rows):
            if rows.start == 8:
                raise NonFiniteError("block 8")

        with pytest.raises(NonFiniteError, match="block 8"):
            geom.run_row_blocks(32, 4, job)


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

    @staticmethod
    def _rotated(rng, m, diag):
        """m covariances R diag(d) R^T, one random rotation and d each."""
        out = np.empty((m, 3, 3))
        for i in range(m):
            R = geom.quat_to_matrix(geom.random_unit_quaternion(rng))
            out[i] = R @ np.diag(diag(rng)) @ R.T
        return (out + out.transpose(0, 2, 1)) / 2.0

    @staticmethod
    def _offset_neighbourhoods(rng, m):
        """Covariances of 30-point anisotropic clusters ~30 m from the origin."""
        out = np.empty((m, 3, 3))
        for i in range(m):
            pts = rng.normal(size=(30, 3)) * rng.uniform(0.001, 0.3, 3) \
                + rng.uniform(-30.0, 30.0, 3)
            out[i] = covariance_loop(pts)[1]
        return out

    # name: (covariance stack, lambda0 well separated?, root multiplicity)
    CASES = {
        "random_spd": (lambda rng: (lambda A: A @ A.transpose(0, 2, 1))(
            rng.normal(size=(200, 3, 3))), True, 1),
        "isotropic": (lambda rng: rng.uniform(0.01, 10.0, 20)[:, None, None]
                      * np.eye(3), False, 3),
        "all_zero": (lambda rng: np.zeros((3, 3, 3)), False, 3),
        "rank1": (lambda rng: (lambda u: u[:, :, None] * u[:, None, :])(
            rng.normal(size=(50, 3))), False, 2),
        "rank2": (lambda rng: TestEigen._rotated(
            rng, 50, lambda r: [0.0, *r.uniform(0.1, 1.0, 2)]), True, 1),
        "near_l0_l1": (lambda rng: TestEigen._rotated(
            rng, 50, lambda r: np.array([1.0, 1.0 + 1e-9, 3.0])
            * r.uniform(0.1, 10.0)), False, 2),
        "near_l1_l2": (lambda rng: TestEigen._rotated(
            rng, 50, lambda r: np.array([0.1, 1.0, 1.0 + 1e-9])
            * r.uniform(0.1, 10.0)), True, 2),
        "offset_30m": (lambda rng: TestEigen._offset_neighbourhoods(rng, 50),
                       True, 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_closed_form_matches_eigh_and_roots(self, case):
        make, separated, multiplicity = self.CASES[case]
        cov = make(np.random.default_rng(sorted(self.CASES).index(case)))
        lam, v0 = geom.eigh3_smallest(cov)
        L, V = np.linalg.eigh(cov)
        scale = np.maximum(np.trace(cov, axis1=1, axis2=2), 1e-300)[:, None]
        # near a double eigenvalue the trigonometric form is only
        # sqrt(eps)-accurate in lambda1 and lambda2; lambda0 stays at eps
        assert (np.abs(lam - L) <= 1e-8 * scale).all()
        roots = np.array([eigvals_via_roots(c) for c in cov])
        # the characteristic-cubic oracle itself is eps^(1/m)-accurate at a
        # root of multiplicity m
        root_tol = {1: 1e-12, 2: 1e-7, 3: 1e-5}[multiplicity]
        assert (np.abs(lam - roots) <= root_tol * scale).all()
        assert np.allclose(np.linalg.norm(v0, axis=1), 1.0, atol=1e-12)

        gap = (L[:, 1] - L[:, 0]) / scale[:, 0]
        assert (gap > 2e-4).all() if separated else (gap < 5e-5).all()
        if separated:
            assert (np.abs(lam[:, 0] - L[:, 0]) <= 1e-13 * scale[:, 0]).all()
            cos = np.abs(np.einsum("ni,ni->n", v0, V[:, :, 0]))
            assert (cos >= 1.0 - 1e-9).all()
        else:
            # ill-separated rows are eigh's answer, bit for bit
            assert np.array_equal(lam, L)
            assert np.array_equal(v0, V[:, :, 0])

    def test_not_symmetric(self):
        M = np.eye(3)
        M[0, 1] = 1e-6
        with pytest.raises(NotSymmetricError):
            geom.eigen_sym3(M)

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(17)
        stack = np.concatenate(
            [make(rng) for make, _, _ in self.CASES.values()])
        # round-off asymmetry below the 1e-9 check, symmetrised the same way
        stack[::7, 0, 1] += 1e-12
        lam, V = geom.eigen_sym3_stack(stack)
        for C, lam_i, V_i in zip(stack, lam, V):
            dec = geom.eigen_sym3(C)
            assert np.array_equal(lam_i, dec.eigenvalues)
            assert np.array_equal(V_i, dec.eigenvectors)

    def test_stack_with_one_asymmetric_matrix_raises(self):
        stack = np.tile(np.eye(3), (5, 1, 1))
        stack[3, 2, 0] = 1e-6
        with pytest.raises(NotSymmetricError):
            geom.eigen_sym3_stack(stack)
        assert geom.eigen_sym3_stack(np.zeros((0, 3, 3)))[0].shape == (0, 3)

    def test_stack_clamps_only_round_off_negatives(self):
        lam_in = [[-5e-10, 1.0, 2.0], [-1e-9, 1.0, 2.0], [-2e-9, 1.0, 2.0],
                  [0.0, 1.0, 2.0]]
        stack = np.array([np.diag(d) for d in lam_in])
        lam, _ = geom.eigen_sym3_stack(stack)
        assert lam[:, 0].tolist() == [0.0, 0.0, -2e-9, 0.0]
        assert geom.eigen_sym3(stack[0]).eigenvalues[0] == 0.0
        with pytest.raises(ValueError):         # below the clamp window
            geom.eigen_sym3(stack[2])


class TestNormals:
    def test_plane_exact(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(-1, 1, 200),
                               rng.uniform(-1, 1, 200),
                               np.zeros(200)])
        normals, curv = geom.estimate_normals(pts, k=12, viewpoint=(0, 0, 10))
        assert np.allclose(normals, [0, 0, 1], atol=1e-9)
        assert curv.max() <= 1e-9

    def test_isotropic_ball_curvature_near_third(self):
        rng = np.random.default_rng(8)
        d = rng.normal(size=(1500, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = d * rng.random(1500)[:, None] ** (1 / 3)
        _, curv = geom.estimate_normals(pts, k=len(pts))
        assert curv[0] > 0.32
        assert curv.max() <= 1 / 3 + 1e-12

    def test_noisy_plane_matches_pointwise_oracle(self):
        rng = np.random.default_rng(21)
        n = 400
        pts = np.column_stack([rng.uniform(-0.15, 0.15, n),
                               rng.uniform(-0.15, 0.15, n),
                               rng.normal(0, 0.008, n)])
        k = 30
        normals, curv = geom.estimate_normals(pts, k=k, viewpoint=(0, 0, 5))
        for pi in rng.choice(n, size=10, replace=False):
            nb = brute_knn(pts, pts[pi], k)
            _, C = covariance_loop(pts[nb])
            lam = np.maximum(eigvals_via_roots(C), 0.0)
            expect = lam[0] / lam.sum() if lam.sum() > 0 else 0.0
            assert abs(curv[pi] - expect) <= 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(300, 3)) * [1.0, 0.6, 0.05]
        vp = np.array([0.0, 0.0, 4.0])
        n0, c0 = geom.estimate_normals(pts, k=20, viewpoint=vp)
        q = geom.random_unit_quaternion(rng)
        R = geom.quat_to_matrix(q)
        n1, c1 = geom.estimate_normals(pts @ R.T, k=20, viewpoint=R @ vp)
        assert np.abs(n1 - n0 @ R.T).max() <= 1e-6
        assert np.abs(c1 - c0).max() <= 1e-9

    def test_too_few_points(self):
        pts = np.random.default_rng(0).random((5, 3))
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(pts, k=6)
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(pts, k=2)

    def test_empty_and_nonfinite(self):
        # the guards in front of the kNN query: no empty or NaN cloud reaches it
        with pytest.raises(TooFewPointsError):
            geom.estimate_normals(np.zeros((0, 3)))
        for bad in (np.nan, np.inf):
            pts = np.random.default_rng(0).random((40, 3))
            pts[7, 1] = bad
            with pytest.raises(NonFiniteError):
                geom.estimate_normals(pts)
            with pytest.raises(NonFiniteError):
                geom.LabeledCloud(pts)

    def test_all_duplicate_neighbourhood_is_eigh_form(self):
        for point in ([2.5, -1.25, 0.75], [30.1, -2.7, 1.3]):
            pts = np.repeat([point], 12, axis=0)
            idx = np.tile(np.arange(12), (12, 1))
            normals, curv = geom.normals_from_neighbors(pts, idx, (0, 0, 0))
            expect_n, expect_c = normals_eigh(pts, idx, (0, 0, 0))
            assert np.array_equal(normals, expect_n)
            assert np.array_equal(curv, expect_c)
            assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
            assert curv.max() <= 1e-12
        # a duplicate whose mean is exact has an all-zero covariance
        pts = np.repeat([[2.5, -1.25, 0.75]], 12, axis=0)
        _, curv = geom.normals_from_neighbors(pts, idx, (0, 0, 0))
        assert (curv == 0.0).all()

    def test_collinear_neighbourhood_is_eigh_form(self):
        t = np.arange(16.0)
        for direction, origin in (([1.0, 2.0, 2.0], [2.0, -1.0, 0.5]),
                                  ([0.3, -0.7, 0.2], [28.0, 4.1, -1.7])):
            pts = np.asarray(origin) + t[:, None] * np.asarray(direction)
            idx = geom.knn_table(pts, 8)
            normals, curv = geom.normals_from_neighbors(pts, idx, (0, 0, 0))
            expect_n, expect_c = normals_eigh(pts, idx, (0, 0, 0))
            assert np.array_equal(normals, expect_n)
            assert np.array_equal(curv, expect_c)
            # the normal is perpendicular to the line
            d = np.asarray(direction) / np.linalg.norm(direction)
            assert np.abs(normals @ d).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(base=st.lists(st.tuples(*[st.floats(-100.0, 100.0)] * 3),
                         min_size=1, max_size=25),
           copies=st.lists(st.integers(1, 4), min_size=25, max_size=25),
           k=st.integers(3, 20))
    def test_clouds_with_duplicates(self, base, copies, k):
        pts = np.repeat(np.array(base), copies[:len(base)], axis=0)
        k = min(k, len(pts))
        if k < 3:
            return
        normals, curv = geom.estimate_normals(pts, k=k)
        assert np.isfinite(normals).all()
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-6
        assert curv.min() >= 0.0
        assert curv.max() <= 1 / 3

    def test_curvature_range_random_clouds(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            pts = random_points(rng, int(rng.integers(40, 300)))
            _, curv = geom.estimate_normals(pts, k=15)
            assert curv.min() >= 0.0
            assert curv.max() <= 1 / 3 + 1e-12


def kernel_covariances(points, neighbor_idx):
    """The covariance stack ``normals_from_neighbors`` hands its
    eigensolver, block by block."""
    blocks = []
    inner = geom._oriented_normals

    def record(cov, *args):
        blocks.append(cov.copy())
        return inner(cov, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_oriented_normals", record)
        geom.normals_from_neighbors(points, neighbor_idx, (0.0, 0.0, 0.0))
    return np.concatenate(blocks)


def assert_covariances_match_oracle(points, neighbor_idx):
    """Each kernel covariance equals ``geom.covariance`` of its
    neighbourhood to 1e-12 of its trace. An all-duplicate neighbourhood has
    a covariance of rounding noise only: there the floor is the square of a
    few ulps of its coordinates."""
    got = kernel_covariances(points, neighbor_idx)
    assert got.shape == (len(neighbor_idx), 3, 3)
    eps = np.finfo(np.float64).eps
    for i, row in enumerate(neighbor_idx):
        _, want = geom.covariance(points, row)
        floor = (8 * eps * np.abs(points[row]).max()) ** 2
        assert np.abs(got[i] - want).max() \
            <= 1e-12 * np.trace(want) + floor, i
        assert np.array_equal(got[i], got[i].T)


@pytest.fixture(scope="module")
def shipped_scan(tmp_path_factory):
    """Points of one training scan (seed 1), moved ~30 m from the origin."""
    from trusskit import cli
    out = tmp_path_factory.mktemp("training")
    assert cli.main(["generate", "--config", "configs/training.cfg",
                     "--out", str(out), "--n", "1", "--seed", "1"]) == 0
    cloud = tio.read_pcd(out / "clouds" / "scan_00000.pcd")
    return cloud.points + [24.0, -18.0, 0.5]


class TestNeighbourhoodCovariances:
    """The kernel's covariances against the per-neighbourhood oracle
    ``geom.covariance`` (centroid, then ``X.T @ X``)."""

    def test_shipped_scan_far_from_the_origin(self, shipped_scan):
        assert np.linalg.norm(shipped_scan, axis=1).min() > 20.0
        assert_covariances_match_oracle(shipped_scan,
                                        geom.knn_table(shipped_scan, 30))

    @settings(max_examples=60, deadline=None)
    @given(base=st.lists(st.tuples(*[st.floats(-100.0, 100.0)] * 3),
                         min_size=1, max_size=25),
           copies=st.lists(st.integers(1, 4), min_size=25, max_size=25),
           k=st.integers(3, 20),
           offset=st.sampled_from([0.0, 30.0]))
    def test_clouds_with_duplicates(self, base, copies, k, offset):
        pts = np.repeat(np.array(base), copies[:len(base)], axis=0) + offset
        k = min(k, len(pts))
        if k < 3:
            return
        assert_covariances_match_oracle(pts, geom.knn_table(pts, k))


class TestNormalsMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_bounded_by_the_block(self, monkeypatch, workers):
        # the outputs, the (n, 3, 3) covariances and the cloud's x, y and z
        # columns (4 + 9 + 3 floats a point), three (b, k) coordinate
        # columns per thread, and one block of per-row temporaries (the
        # means and sums, the eigensolver's 3x3 candidates: under 64
        # floats a row); one whole-cloud (n, k) column alone would exceed
        # the bound
        monkeypatch.setattr(geom, "_query_workers", workers)
        rng = np.random.default_rng(0)
        n, k, b = 80_000, 30, geom._NORMALS_BLOCK
        pts = np.column_stack([rng.uniform(-28, 28, (n, 2)),
                               rng.normal(0, 0.01, n)])
        idx = geom.knn_table(pts, k)
        bound = n * (4 + 9 + 3) * 8 + workers * 3 * b * k * 8 + b * 64 * 8
        assert bound < n * k * 8
        tracemalloc.start()
        try:
            geom.normals_from_neighbors(pts, idx, (0.0, 0.0, 10.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestVoxel:
    def test_degenerate_voxel(self):
        pts = np.tile([[0.33, 0.71, -0.28]], (10, 1))
        out = geom.voxel_downsample(pts, 0.1)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], pts[0])

    def test_same_voxel_centroid(self):
        pts = np.array([[0.01, 0, 0], [0.09, 0, 0]])
        out = geom.voxel_downsample(pts, 0.1)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], [0.05, 0, 0])

    def test_count_matches_hash_set(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 10, size=(5000, 3))
        out = geom.voxel_downsample(pts, 0.1)
        keys = {tuple(k) for k in np.floor(pts / 0.1).astype(int)}
        assert len(out) == len(keys)

    def test_nested_leaf_monotone(self):
        rng = np.random.default_rng(19)
        pts = random_points(rng, 3000)
        for leaf in (0.05, 0.2, 0.7):
            a = geom.voxel_downsample(pts, leaf)
            b = geom.voxel_downsample(pts, 2 * leaf)
            assert len(b) <= len(a)

    def test_bad_leaf(self):
        with pytest.raises(NonPositiveLeafError):
            geom.voxel_downsample(np.zeros((1, 3)), 0.0)

    def test_empty_and_nonfinite(self):
        assert geom.voxel_downsample(np.zeros((0, 3)), 0.1).shape == (0, 3)
        with pytest.raises(NonFiniteError):
            geom.voxel_downsample([[0.0, np.inf, 0.0]], 0.1)

    def test_fine_leaf_keeps_far_voxels_apart(self):
        # packed as (k0 * span1 + k1) * span2 + k2, these keys pass 2**64;
        # the wrapped key merged the first two points, 4.3 m apart
        leaf = 1e-9
        pts = np.array([[0.0, 0.0, 0.0], [(2**32 + 0.5) * leaf, 0.0, 0.0],
                        [0.5 * leaf, 65535.5 * leaf, 65535.5 * leaf]])
        out = geom.voxel_downsample(pts, leaf)
        # in key order: (0, 0, 0), (0, 65535, 65535), (2**32, 0, 0)
        assert np.array_equal(out, pts[[0, 2, 1]])


class TestGridCells:
    @pytest.mark.parametrize("edge, offset", [
        (0.1, 0.0),          # packed int64 keys
        (1e-9, 0.0),         # spans past int64: whole-row keys
        (0.5, 1e17),         # keys past 2**52: whole-row keys
    ])
    def test_lexicographic_numbering(self, edge, offset):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, (400, 3)) + offset
        pts = np.vstack([pts, pts[:50]])          # shared cells
        keys = [tuple(k) for k in np.floor(pts / edge)]
        number = {k: i for i, k in enumerate(sorted(set(keys)))}
        cell, n_cells = geom.grid_cells(pts, edge)
        assert n_cells == len(number)
        assert cell.tolist() == [number[k] for k in keys]

    def test_negative_zero_is_cell_zero(self):
        pts = np.array([[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [1.5, 0.5, 0.5]])
        for edge in (1.0, 1e-300):
            cell, n_cells = geom.grid_cells(pts, edge)
            assert cell[0] == cell[1] != cell[2]


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
