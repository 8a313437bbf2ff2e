import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit import cli, geom, segment, synth
from trusskit import io as tio
from trusskit.errors import DegenerateCloudError, InvalidSpecError
from trusskit.geom import LabeledCloud, Pose
from trusskit.primitives import HeightFieldGround, Scene
from helpers import (
    brute_knn,
    brute_radius,
    covariance_loop,
    eigvals_via_roots,
    lattice,
    normals_one_pass,
    ransac_plane_reference,
    ransac_triples_loop,
    region_grow_sequential,
    region_grow_waves,
)
from test_acceptance import _reduced_scan

CFG = segment.PipelineConfig()


def truss_scene_cloud(seed=0, nodes=(3, 3, 3), trees=2):
    spec = synth.SceneSpec(structure=synth.TrussSpec(nodes), tree_count=trees,
                           seed=seed)
    scene = synth.build_scene(spec)
    lo, hi = synth.structure_bounding_box(spec.structure)
    pose = synth.sample_sensor_pose(
        synth.WITHIN_STRUCTURE_MODE,
        (lo + [0.5, 0.5, 0.8], hi - [0.5, 0.5, 0.5]), seed + 1)
    sensor = synth.SensorConfig(v_resolution=32, h_resolution=128)
    return synth.raycast_scan(scene, pose, sensor, seed=seed)


class TestRansac:
    def test_exact_plane_dominates(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([
            np.column_stack([rng.uniform(-5, 5, (100, 2)), np.zeros(100)]),
            np.column_stack([rng.uniform(-5, 5, (5, 2)), np.full(5, 10.0)]),
        ])
        plane, inliers = segment.ransac_plane(pts, 0.5, 200, seed=3)
        assert len(inliers) == 100
        assert set(inliers.tolist()) == set(range(100))
        assert abs(abs(plane.normal[2]) - 1.0) <= 1e-9

    def test_three_points_unique_plane(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1]], float)
        plane, inliers = segment.ransac_plane(pts, 0.1, 50, seed=0)
        assert len(inliers) == 3
        assert plane.distance(pts).max() <= 1e-12

    def test_degenerate(self):
        pts = np.tile([[1.0, 2.0, 3.0]], (10, 1))
        with pytest.raises(DegenerateCloudError):
            segment.ransac_plane(pts, 0.1, 20, seed=0)

    def test_curved_ground_with_truss_inliers_cover_ground(self):
        # no trees: every label-0 point lies on the terrain itself. The fit
        # runs on the voxelized copy; on the raw scan the 1/r^2 density bias
        # lets a nearby lattice plane out-vote the ground.
        cloud = truss_scene_cloud(seed=5, trees=0)
        voxel = geom.voxel_downsample(cloud.points, 0.1)
        plane, _ = segment.ransac_plane(voxel, 0.5, 500, seed=2)
        ground_idx = np.flatnonzero(~cloud.truss_mask)
        # oracle: every true ground point must satisfy the distance test
        dist = plane.distance(cloud.points[ground_idx])
        assert dist.max() <= 0.5
        cs = segment.coarse_split(cloud.points, CFG)
        assert set(ground_idx.tolist()) <= set(cs.ground.tolist())

    def test_distance_alone_as_in_a_batch(self):
        # the coarse split compares these distances with the threshold, so
        # a point's side must not depend on the batch it is in (a one-row
        # mat-vec took another BLAS path, and 740 of these rows differed)
        rng = np.random.default_rng(12)
        normal = rng.normal(size=3)
        plane = segment.Plane(normal / np.linalg.norm(normal), rng.normal())
        pts = rng.normal(0.0, 20.0, (4000, 3))
        whole = plane.distance(pts)
        for i in range(len(pts)):
            assert plane.distance(pts[i:i + 1]).tobytes() \
                == whole[i:i + 1].tobytes(), i
        for size in (2, 3, 5, 8, 17, 64):
            for a in range(0, 300, size):
                assert plane.distance(pts[a:a + size]).tobytes() \
                    == whole[a:a + size].tobytes()

    def test_inliers_satisfy_threshold(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(300, 3))
        plane, inliers = segment.ransac_plane(pts, 0.3, 100, seed=1)
        assert (plane.distance(pts[inliers]) <= 0.3).all()
        outside = np.setdiff1d(np.arange(300), inliers)
        assert (plane.distance(pts[outside]) > 0.3).all()


def ransac_with_counts(monkeypatch, points, threshold, iterations, seed):
    """``segment.ransac_plane`` plus the per-hypothesis counts it scored
    (-1 for a collinear sample)."""
    seen = []
    score = segment._inlier_counts

    def recording(*args):
        seen.append(score(*args))
        return seen[-1]

    monkeypatch.setattr(segment, "_inlier_counts", recording)
    plane, inliers = segment.ransac_plane(points, threshold, iterations, seed)
    [counts] = seen
    return plane, inliers, counts


def assert_same_ransac(monkeypatch, points, threshold, iterations, seed):
    """Block scoring against ``helpers.ransac_plane_reference``: equal
    counts, winner, plane and inliers. Returns the reference counts."""
    want_plane, want_inliers, want_counts, want_best = ransac_plane_reference(
        points, threshold, iterations, seed)
    plane, inliers, counts = ransac_with_counts(monkeypatch, points,
                                                threshold, iterations, seed)
    assert np.array_equal(counts, want_counts)
    assert int(np.argmax(counts)) == want_best
    assert plane.normal.tobytes() == want_plane.normal.tobytes()
    assert plane.d == want_plane.d
    assert np.array_equal(inliers, want_inliers)
    return want_counts


class TestRansacBlockScoring:
    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_voxelized_shipped_scans(self, monkeypatch, shipped_cloud, scan):
        voxel = geom.voxel_downsample(shipped_cloud(scan).points,
                                      CFG.voxel_leaf)
        assert len(voxel) > 4 * segment._SCORE_POINTS
        assert_same_ransac(monkeypatch, voxel, CFG.ransac_threshold,
                           CFG.ransac_iterations, CFG.ransac_seed)

    @pytest.mark.parametrize("iterations", [1, 256, 257, 600])
    @pytest.mark.parametrize("n", [3, 1023, 1024, 1025, 5000])
    def test_random_clouds(self, monkeypatch, n, iterations):
        rng = np.random.default_rng(n + iterations)
        pts = rng.normal(0, 2, (n, 3)) * [4, 4, 1]
        counts = assert_same_ransac(monkeypatch, pts, 0.5, iterations,
                                    seed=n)
        assert (counts >= 3).all()      # each sample's own three points

    def test_distances_on_the_threshold_count(self, monkeypatch):
        # z = 0 and z = 0.5 rows: a plane through three z = 0 points has
        # normal (0, 0, 1) and d = 0 exactly, so the z = 0.5 rows lie at
        # exactly the threshold, inliers by the <= test
        grid = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)),
                        axis=-1).reshape(-1, 2)
        pts = np.vstack([np.column_stack([grid[:64], np.zeros(64)]),
                         np.column_stack([grid[:40], np.full(40, 0.5)]),
                         np.column_stack([grid[:10], np.full(10, 5.0)])])
        counts = assert_same_ransac(monkeypatch, pts, 0.5, 200, seed=1)
        assert counts.max() == 104

    def test_one_point(self):
        pts = np.zeros((1, 3))
        for fit in (segment.ransac_plane, ransac_plane_reference):
            with pytest.raises(DegenerateCloudError):
                fit(pts, 0.5, 10, 0)

    @pytest.mark.parametrize("n", [1, 3, 1023, 1024, 1025, 5000])
    def test_block_counts_equal_one_product(self, n):
        # blocks of points and hypotheses against one float32 product over
        # every point, with ragged last blocks on both axes
        rng = np.random.default_rng(n)
        pts32 = rng.normal(0, 3, (n, 3)).astype(np.float32)
        nrm = rng.normal(size=(300, 3))
        n32 = (nrm / np.linalg.norm(nrm, axis=1, keepdims=True)).astype(
            np.float32)
        d32 = rng.normal(0, 1, 300).astype(np.float32)
        thr32 = np.float32(0.7)
        want = (np.abs(pts32 @ n32.T + d32) <= thr32).sum(axis=0)
        assert np.array_equal(
            segment._inlier_counts(pts32, n32, d32, thr32), want)

    def test_collinear_samples(self, monkeypatch):
        # most points lie on one line: many sampled triples are collinear
        rng = np.random.default_rng(12)
        line = np.outer(rng.uniform(-5, 5, 40), [1.0, 2.0, 0.5])
        pts = np.vstack([line, rng.uniform(-5, 5, (4, 3))])
        counts = assert_same_ransac(monkeypatch, pts, 0.2, 300, seed=3)
        assert (counts == -1).any() and (counts >= 0).any()


class TestRansacTriples:
    """The one-call sampler against the ``rng.choice`` loop it replaced."""

    @pytest.mark.parametrize("n", [3, 4, 5, 100, 23_000, 40_001, 10**6])
    def test_equals_the_choice_loop(self, n):
        draws = 1000 * (4 if n == 3 else 5)     # n = 3: no draw in [0, 0]
        rejections = []
        for seed in range(48):
            want, taken = ransac_triples_loop(n, 1000, seed, uint32s=True)
            got = segment._ransac_triples(n, 1000, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), seed
            rejections.append(taken - draws)
        assert min(rejections) == 0
        if n == 10**6:      # Lemire rejections: one and more in one call
            assert max(rejections) >= 2

    @pytest.mark.parametrize("n", [2**32, 2**32 + 5, 2**40])
    def test_equals_the_choice_loop_past_uint32(self, n):
        # bounds past 2**32 - 1 take 64-bit draws
        for seed in range(8):
            assert np.array_equal(segment._ransac_triples(n, 7, seed),
                                  ransac_triples_loop(n, 7, seed))

    @pytest.mark.parametrize("iterations", [1, 2, 7])
    def test_few_iterations(self, iterations):
        # odd draw counts leave half of the last raw word unused
        for n in (3, 4, 10**6):
            for seed in range(8):
                assert np.array_equal(
                    segment._ransac_triples(n, iterations, seed),
                    ransac_triples_loop(n, iterations, seed))


class TestCoarseSplit:
    def test_ground_only_scan(self):
        scene = Scene([], HeightFieldGround(0.1, 10.0))
        cloud = synth.raycast_scan(
            scene, Pose((0, 0, 2)),
            synth.SensorConfig(v_resolution=32, h_resolution=64), seed=1)
        cs = segment.coarse_split(cloud.points, CFG)
        assert len(cs.ground) == len(cloud)
        assert len(cs.structure) == 0

    def test_partition(self):
        cloud = truss_scene_cloud(seed=2)
        cs = segment.coarse_split(cloud.points, CFG)
        union = np.union1d(cs.ground, cs.structure)
        assert np.array_equal(union, np.arange(len(cloud)))
        assert len(np.intersect1d(cs.ground, cs.structure)) == 0

    def test_low_bars_in_coarse_ground(self):
        cloud = truss_scene_cloud(seed=4)
        cs = segment.coarse_split(cloud.points, CFG)
        R = cloud.sensor_pose.rotation_matrix()
        z_world = (cloud.points @ R.T)[:, 2] + cloud.sensor_pose.translation[2]
        truss = cloud.truss_mask
        high = truss & (z_world > 0.5 + 0.25)     # above threshold + terrain
        low = truss & (z_world < 0.5 - 0.25)
        assert high.any() and low.any()
        in_structure = np.zeros(len(cloud), bool)
        in_structure[cs.structure] = True
        assert in_structure[high].all()
        assert not in_structure[low].any()

    def test_ground_not_found_fails_open(self):
        rng = np.random.default_rng(6)
        cloud = LabeledCloud(rng.uniform(-50, 50, size=(3000, 3)))
        cs = segment.coarse_split(cloud.points, CFG)
        assert cs.warning is not None and "GroundNotFound" in cs.warning
        assert len(cs.structure) == len(cloud)
        assert len(cs.ground) == 0


def make_two_patches():
    """Two perpendicular planar grids meeting near a fold."""
    u = np.linspace(0, 1, 20)
    g = np.stack(np.meshgrid(u, u), -1).reshape(-1, 2)
    flat = np.column_stack([g[:, 0], g[:, 1], np.zeros(len(g))])
    wall = np.column_stack([np.zeros(len(g)) - 0.08, g[:, 1], g[:, 0] + 0.05])
    pts = np.vstack([flat, wall])
    normals = np.vstack([np.tile([0.0, 0.0, 1.0], (len(flat), 1)),
                         np.tile([1.0, 0.0, 0.0], (len(wall), 1))])
    curv = np.zeros(len(pts))
    return pts, normals, curv, len(flat)


def components_oracle(points, normals, k, cos_thr, min_size):
    """Undirected connected components over the angle-gated k-NN graph."""
    n = len(points)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in brute_knn(points, points[i], k):
            if normals[i] @ normals[j] >= cos_thr:
                ra, rb = find(i), find(int(j))
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return {frozenset(g) for g in groups.values() if len(g) >= min_size}


class TestRegionGrow:
    def test_single_plane_single_cluster(self):
        pts, normals, curv, _ = make_two_patches()
        flat_only = np.arange(400)
        clusters = segment.region_grow(pts, flat_only, normals[:400],
                                       curv[:400], CFG,
                                       geom.knn_table(pts[:400], CFG.normal_k))
        assert len(clusters) == 1
        assert len(clusters[0].indices) == 400

    def test_two_patches_match_components_oracle(self):
        pts, normals, curv, n_flat = make_two_patches()
        subset = np.arange(len(pts))
        clusters = segment.region_grow(pts, subset, normals, curv, CFG,
                                       geom.knn_table(pts, CFG.normal_k))
        got = {frozenset(c.indices.tolist()) for c in clusters}
        k = min(CFG.normal_k, len(pts))
        cos_thr = np.cos(np.deg2rad(CFG.rg_angle_threshold_deg))
        want = components_oracle(pts, normals, k, cos_thr, CFG.rg_min_cluster)
        assert got == want
        assert len(got) == 2
        assert frozenset(range(n_flat)) in got

    def test_min_cluster_floor(self):
        pts = np.array([[0, 0, 0], [5, 0, 0], [0, 5, 0],
                        [0, 0, 5], [5, 5, 5]], float)
        normals = np.tile([0.0, 0.0, 1.0], (5, 1))
        clusters = segment.region_grow(pts, np.arange(5), normals,
                                       np.zeros(5), CFG,
                                       geom.knn_table(pts, CFG.normal_k))
        assert clusters == []

    def test_empty_subset(self):
        no_neighbours = np.zeros((0, CFG.normal_k), dtype=np.intp)
        assert segment.region_grow(np.zeros((3, 3)), np.array([], dtype=int),
                                   np.zeros((0, 3)), np.zeros(0), CFG,
                                   no_neighbours) == []

    # (scan seed, curvature threshold): 10-20 % of each scan's coarse ground
    # lies above the threshold, so growth stops at points inside a region
    @pytest.mark.parametrize("seed,threshold",
                             [(2, 0.005), (3, 0.0075), (8, 0.01)])
    def test_mixed_curvature_matches_sequential_oracle(self, seed, threshold):
        cloud = _reduced_scan(seed)
        cfg = segment.PipelineConfig(rg_curvature_threshold=threshold)
        ground = segment.coarse_split(cloud.points, cfg).ground
        normals, curv, knn_idx = segment._normals_for(cloud.points, ground,
                                                      cfg)[:3]
        assert 0.10 <= (curv > threshold).mean() <= 0.20
        got = segment.region_grow(cloud.points, ground, normals, curv, cfg,
                                  knn_idx)
        want = region_grow_sequential(
            normals, curv, knn_idx,
            np.cos(np.deg2rad(cfg.rg_angle_threshold_deg)), threshold,
            cfg.rg_min_cluster)
        assert len(got) >= 3
        assert [c.indices.tolist() for c in got] == \
            [ground[r].tolist() for r in want]


    @pytest.mark.parametrize("min_cluster", [1, 10])
    @pytest.mark.parametrize("seed", [2, 3, 8])
    def test_whole_cloud_matches_sequential_oracle(self, seed, min_cluster):
        # the whole-cloud subset of the WC modes: 20-40 % of its points lie
        # above the curvature threshold and most seeds grow alone
        cloud = _reduced_scan(seed)
        cfg = segment.PipelineConfig(rg_min_cluster=min_cluster)
        whole = np.arange(len(cloud))
        normals, curv, knn_idx = segment._normals_for(cloud.points, whole,
                                                      cfg)[:3]
        got = segment.region_grow(cloud.points, whole, normals, curv, cfg,
                                  knn_idx)
        want = region_grow_sequential(
            normals, curv, knn_idx,
            np.cos(np.deg2rad(cfg.rg_angle_threshold_deg)),
            cfg.rg_curvature_threshold, min_cluster)
        assert len(got) >= 10
        if min_cluster == 1:
            assert sum(len(r) == 1 for r in want) >= 100
        assert [c.indices.tolist() for c in got] == want

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           k=st.integers(1, 10), angle=st.floats(0.5, 89.5),
           curv_threshold=st.sampled_from([0.0, 0.01, 0.02, 0.03, 0.05]),
           min_cluster=st.integers(1, 12))
    def test_random_clouds_match_sequential_oracle(
            self, seed, n, k, angle, curv_threshold, min_cluster):
        rng = np.random.default_rng(seed)
        # the subset sits after some points it does not include
        offset = int(rng.integers(0, 5))
        points = rng.uniform(0.0, 2.0, (offset + n, 3))
        subset = np.arange(offset, offset + n)
        # normals near three directions, so some edges pass the angle test
        palette = rng.normal(size=(3, 3))
        normals = palette[rng.integers(0, 3, n)] + rng.normal(0, 0.05, (n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        # curvatures on a coarse grid tie often in the stable seed order
        curv = rng.integers(0, 5, n) * 0.01
        knn_idx = geom.knn_table(points[subset], k)
        cfg = segment.PipelineConfig(rg_angle_threshold_deg=angle,
                                     rg_curvature_threshold=curv_threshold,
                                     rg_min_cluster=min_cluster)
        got = segment.region_grow(points, subset, normals, curv, cfg, knn_idx)
        want = region_grow_sequential(
            normals, curv, knn_idx, np.cos(np.deg2rad(angle)),
            curv_threshold, min_cluster)
        assert [c.indices.tolist() for c in got] == \
            [subset[r].tolist() for r in want]

    @pytest.mark.parametrize("min_cluster", [1, 10])
    @pytest.mark.parametrize("subset", ["coarse", "whole"])
    @pytest.mark.parametrize("scan", ["ortho", "training"])
    def test_bit_identical_to_wave_grower(self, grow_inputs, scan, subset,
                                          min_cluster):
        points, idx, normals, curv, knn_idx = grow_inputs(scan, subset)
        cfg = replace(CFG, rg_min_cluster=min_cluster)
        got = segment.region_grow(points, idx, normals, curv, cfg, knn_idx)
        want = region_grow_waves(points, idx, normals, curv, cfg, knn_idx)
        assert len(got) == len(want) >= 2
        for a, b in zip(got, want):
            assert_same_cluster(a, b)


@pytest.fixture(scope="module")
def shipped_cloud(tmp_path_factory):
    """config name -> one full-size scan (seed 1) of that shipped config."""
    clouds = {}

    def get(scan):
        if scan not in clouds:
            out = tmp_path_factory.mktemp(scan)
            assert cli.main(["generate", "--config", f"configs/{scan}.cfg",
                             "--out", str(out), "--n", "1",
                             "--seed", "1"]) == 0
            clouds[scan] = tio.read_pcd(out / "clouds" / "scan_00000.pcd")
        return clouds[scan]
    return get


@pytest.fixture(scope="module")
def grow_inputs(shipped_cloud):
    """(scan, subset) -> region_grow inputs of one full-size scan per
    shipped workload config, the coarse ground or the whole cloud."""
    made = {}

    def get(scan, subset):
        if (scan, subset) not in made:
            cloud = shipped_cloud(scan)
            idx = (segment.coarse_split(cloud.points, CFG).ground
                   if subset == "coarse" else np.arange(len(cloud)))
            made[scan, subset] = (cloud.points, idx, *segment._normals_for(
                cloud.points, idx, CFG)[:3])
        return made[scan, subset]
    return get


def assert_same_cluster(a, b):
    """Every field of two clusters equal bit for bit; NaN ratios equal."""
    for f in fields(segment.Cluster):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "stats":
            for g in fields(geom.EigenDecomp):
                u, v = getattr(x, g.name), getattr(y, g.name)
                assert u.dtype == v.dtype and np.array_equal(u, v), g.name
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif isinstance(x, float) and np.isnan(x):
            assert np.isnan(y), f.name
        else:
            assert x == y, f.name


def sampled_rectangle_cluster(width=0.15, length=0.5, n=20000, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, width, n), rng.uniform(0, length, n),
                           np.zeros(n)])
    stats = geom.pca_stats(pts)
    lam = stats.eigenvalues
    return segment.Cluster(
        indices=np.arange(n), stats=stats, ratio=float(lam[1] / lam[2]),
        extent_along_v2=geom.extent_along(pts, np.arange(n),
                                          stats.eigenvectors[:, 2])), pts


class TestClassify:
    def test_rectangle_ratio_is_squared_aspect(self):
        cluster, pts = sampled_rectangle_cluster()
        # oracle route: double-loop covariance + characteristic-poly roots
        _, C = covariance_loop(pts[::40])
        lam = eigvals_via_roots(C)
        oracle_ratio = lam[1] / lam[2]
        assert abs(oracle_ratio - 0.09) <= 0.01
        assert abs(cluster.ratio - 0.09) <= 0.005
        r_cfg = segment.PipelineConfig(eigen_mode=segment.RATIO)
        assert segment.classify_cluster(cluster, r_cfg) == segment.STRUCTURE

    def test_magnitude_rejects_long_cluster(self):
        cluster, _ = sampled_rectangle_cluster(width=0.15, length=2.0)
        m_cfg = segment.PipelineConfig(eigen_mode=segment.MAGNITUDE)
        assert cluster.extent_along_v2 == pytest.approx(2.0, abs=0.01)
        assert segment.classify_cluster(cluster, m_cfg) == segment.GROUND

    def test_hybrid_is_logical_and(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.uniform(0.02, 1.0)
            l = rng.uniform(w, 3.0)
            cluster, _ = sampled_rectangle_cluster(w, l, n=500,
                                                   seed=rng.integers(1 << 30))
            r = segment.classify_cluster(
                cluster, segment.PipelineConfig(eigen_mode=segment.RATIO))
            m = segment.classify_cluster(
                cluster, segment.PipelineConfig(eigen_mode=segment.MAGNITUDE))
            h = segment.classify_cluster(
                cluster, segment.PipelineConfig(eigen_mode=segment.HYBRID))
            assert (h == segment.STRUCTURE) == \
                ((r == segment.STRUCTURE) and (m == segment.STRUCTURE))

    def test_degenerate_cluster_is_ground(self):
        pts = np.tile([[1.0, 1.0, 1.0]], (12, 1))
        stats = geom.pca_stats(pts)
        cluster = segment.Cluster(np.arange(12), stats, float("nan"), 0.0)
        assert segment.classify_cluster(cluster, CFG) == segment.GROUND

    def test_ratio_scale_invariance(self):
        rng = np.random.default_rng(14)
        r_cfg = segment.PipelineConfig(eigen_mode=segment.RATIO)
        for _ in range(10):
            cluster, pts = sampled_rectangle_cluster(
                rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0), n=400,
                seed=rng.integers(1 << 30))
            s = rng.uniform(0.1, 10.0)
            scaled = pts * s
            stats = geom.pca_stats(scaled)
            lam = stats.eigenvalues
            c2 = segment.Cluster(np.arange(len(pts)), stats,
                                 float(lam[1] / lam[2]),
                                 geom.extent_along(scaled, None,
                                                   stats.eigenvectors[:, 2]))
            assert segment.classify_cluster(cluster, r_cfg) == \
                segment.classify_cluster(c2, r_cfg)

    def test_magnitude_rotation_invariance(self):
        rng = np.random.default_rng(15)
        m_cfg = segment.PipelineConfig(eigen_mode=segment.MAGNITUDE)
        for _ in range(10):
            cluster, pts = sampled_rectangle_cluster(
                rng.uniform(0.05, 0.5), rng.uniform(0.3, 1.5), n=400,
                seed=rng.integers(1 << 30))
            R = geom.quat_to_matrix(geom.random_unit_quaternion(rng))
            rot = pts @ R.T
            stats = geom.pca_stats(rot)
            lam = stats.eigenvalues
            c2 = segment.Cluster(np.arange(len(pts)), stats,
                                 float(lam[1] / lam[2]),
                                 geom.extent_along(rot, None,
                                                   stats.eigenvectors[:, 2]))
            assert abs(c2.extent_along_v2 - cluster.extent_along_v2) <= 1e-6
            assert segment.classify_cluster(cluster, m_cfg) == \
                segment.classify_cluster(c2, m_cfg)


class TestDensityFilter:
    def test_isolated_point_demoted(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(0, 0.05, (50, 3)), [[5.0, 5.0, 5.0]]])
        mask = np.ones(51, bool)
        out = segment.density_filter(pts, mask, CFG)
        assert not out[50]

    def test_dense_patch_unchanged(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 0.05, (200, 3))
        mask = np.ones(200, bool)
        out = segment.density_filter(pts, mask, CFG)
        assert out.all()

    def test_matches_brute_radius_oracle(self):
        rng = np.random.default_rng(8)
        cases = []
        for _ in range(20):
            n = int(rng.integers(20, 600))
            pts = rng.uniform(-1, 1, (n, 3)) * rng.uniform(0.3, 2.0)
            mask = rng.random(n) < 0.5
            cfg = segment.PipelineConfig(
                density_radius=float(rng.uniform(0.1, 0.6)),
                density_min_points=int(rng.integers(0, 16)))
            cases.append((pts, mask, cfg))
        # clouds of 1 ... m + 1 points, each within the radius of every
        # other: up to m points, the query pads each row with inf
        for n in range(1, CFG.density_min_points + 2):
            cases.append((rng.uniform(0.0, 0.1, (n, 3)), np.ones(n, bool),
                          CFG))
        for pts, mask, cfg in cases:
            got = segment.density_filter(pts, mask, cfg)
            count = np.array([len(brute_radius(pts, p, cfg.density_radius)) - 1
                              for p in pts])
            assert np.array_equal(got, mask & (count >= cfg.density_min_points))
        assert got.all()                # the m + 1 points are dense

    def test_radius_boundary_inclusive(self):
        # point 0 has density_min_points - 1 close neighbours plus one at
        # exactly density_radius (0.25: the distance is exact in float64)
        r, m = CFG.density_radius, CFG.density_min_points
        close = np.column_stack([np.linspace(-0.01, 0.01, m - 1),
                                 np.full(m - 1, 0.02), np.zeros(m - 1)])
        for edge, kept in ((r, True), (np.nextafter(r, 1.0), False)):
            pts = np.vstack([[0.0, 0.0, 0.0], close, [edge, 0.0, 0.0]])
            mask = np.zeros(len(pts), bool)
            mask[0] = True
            assert len(brute_radius(pts, pts[0], r)) - 1 == (m if kept else m - 1)
            assert segment.density_filter(pts, mask, CFG)[0] == kept

    def test_threaded_verdict_equals_single_thread_on_ties(self, monkeypatch):
        # a 0.25 m lattice: the six face neighbours lie exactly on the radius
        pts = lattice(8, 0.25)
        mask = np.random.default_rng(2).random(len(pts)) < 0.7
        for m in (5, 6, 7, 18):
            cfg = replace(CFG, density_radius=0.25, density_min_points=m)
            got = {}
            for workers in (1, 2):
                monkeypatch.setattr(geom, "_query_workers", workers)
                got[workers] = segment.density_filter(pts, mask, cfg)
            assert np.array_equal(got[1], got[2])
            count = np.array([len(brute_radius(pts, p, 0.25)) - 1
                              for p in pts])
            assert np.array_equal(got[2], mask & (count >= m))

    def test_monotone_removal(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, (400, 3))
        mask = rng.random(400) < 0.6
        out = segment.density_filter(pts, mask, CFG)
        assert not (out & ~mask).any()

    @staticmethod
    def assert_brute(pts, mask, cfg):
        count = np.array([len(brute_radius(pts, p, cfg.density_radius)) - 1
                          for p in pts])
        got = segment.density_filter(pts, mask, cfg)
        assert np.array_equal(got, mask & (count >= cfg.density_min_points))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_cube_of_m_plus_one_points_decided_by_grid(self, extra):
        # m + 1 + extra points inside the cell at the origin, m at another
        # cell with one neighbour just across its face: the first group is
        # dense by its cell alone; the second falls to the query, dense
        # with the neighbour (within r) and sparse without it
        r, m = CFG.density_radius, CFG.density_min_points
        edge = r / np.sqrt(3.0) * (1 - 1e-6)
        rng = np.random.default_rng(extra)
        full = rng.uniform(0.01, 0.99, (m + 1 + extra, 3)) * edge
        short = (rng.uniform(0.01, 0.99, (m, 3)) + [14, 0, 0]) * edge
        for neighbour in ([[13.99 * edge, 0.5 * edge, 0.5 * edge]],
                          np.zeros((0, 3))):
            pts = np.vstack([full, short, neighbour])
            cell, _ = geom.grid_cells(pts, edge)
            assert len(set(cell[len(full):len(full) + m])) == 1
            dense = segment._dense_cells(pts, CFG)
            assert dense[:len(full)].all() and not dense[len(full):].any()
            self.assert_brute(pts, np.ones(len(pts), bool), CFG)
        assert not segment.density_filter(
            pts, np.ones(len(pts), bool), CFG)[len(full):].any()

    def test_pairs_just_beyond_radius_stay_sparse(self):
        # pairs of points a cube diagonal just over r apart, the pairs 10 m
        # apart: a cell wider than r / sqrt(3) would hold some pair whole
        # and call both points dense
        r = CFG.density_radius
        cfg = replace(CFG, density_min_points=1)
        base = lattice(12, 10.0)
        base += np.random.default_rng(11).uniform(0, 1, base.shape)
        pts = np.vstack([base, base + r / np.sqrt(3.0) * (1 + 1e-6)])
        assert (np.linalg.norm(pts[:len(base)] - pts[len(base):],
                               axis=1) > r).all()
        assert not segment.density_filter(pts, np.ones(len(pts), bool),
                                          cfg).any()

    @pytest.mark.parametrize("m", [1, 2, 5, 6, 7, 18])
    @pytest.mark.parametrize("factor", [1.0, 1 - 1e-6])
    def test_points_on_cell_faces(self, m, factor):
        # lattice points at spacing r / sqrt(3): the cube diagonal lies on
        # the radius and, at factor 1 - 1e-6, every point on a cell corner;
        # a second lattice offset by half a step puts two points per cell
        r = CFG.density_radius
        step = r / np.sqrt(3.0) * factor
        base = lattice(6, step)
        pts = np.vstack([base, base + 0.5 * step])
        mask = np.random.default_rng(m).random(len(pts)) < 0.7
        cfg = replace(CFG, density_min_points=m)
        if m == 1:
            assert segment._dense_cells(pts, cfg).any()
        self.assert_brute(pts, mask, cfg)

    @pytest.mark.parametrize("r", [1e-8, 1e-12])
    def test_tiny_radius(self, r):
        # at 1e-8 the cell keys span more than int64 holds; at 1e-12 they
        # pass 2**30, where the grid is not used. Duplicates: m + 1 copies
        # are dense, m copies sparse, whatever the grid does
        m = 4
        cfg = replace(CFG, density_radius=r, density_min_points=m)
        rng = np.random.default_rng(7)
        spread = rng.uniform(0, 1, (200, 3))
        pts = np.vstack([spread, np.repeat(spread[:2], [m, m - 1], axis=0)])
        edge = r / np.sqrt(3.0) * (1 - 1e-6)
        keys = np.floor(pts / edge)
        spans = [int(s) + 1 for s in keys.max(axis=0) - keys.min(axis=0)]
        assert spans[0] * spans[1] * spans[2] > np.iinfo(np.int64).max
        dense = segment._dense_cells(pts, cfg)
        grid_used = np.abs(pts).max() < segment._DENSE_CELL_MAX_INDEX * edge
        assert grid_used == (r == 1e-8)
        assert dense.sum() == (m + 1 if grid_used else 0)
        self.assert_brute(pts, np.ones(len(pts), bool), cfg)

    @pytest.mark.parametrize("scan", ["ortho", "training"])
    def test_shipped_scan_equals_query_of_every_point(self, shipped_cloud,
                                                      scan):
        from scipy.spatial import cKDTree
        pts = shipped_cloud(scan).points
        mask = np.random.default_rng(3).random(len(pts)) < 0.5
        dense = segment._dense_cells(pts, CFG)
        assert 0.2 < dense.mean() < 1.0
        count = cKDTree(pts).query_ball_point(
            pts, CFG.density_radius, return_length=True) - 1
        assert np.array_equal(segment.density_filter(pts, mask, CFG),
                              mask & (count >= CFG.density_min_points))

    def test_shared_verdicts_across_modes_equal_fresh_calls(self):
        # the verdicts of the whole-cloud normals serve every mode's mask
        cloud = _reduced_scan(2)
        verdict = whole_cloud(cloud).density
        kept = verdict.copy()
        for mode, (stage, eigen) in cli.MODES.items():
            cfg = replace(CFG, stage_mode=stage, eigen_mode=eigen)
            out = segment.run_pipeline(cloud, cfg)
            before = out.prediction.copy()
            before[out.density_removed] = True
            shared = segment.density_filter(cloud.points, before, cfg, verdict)
            fresh = segment.density_filter(cloud.points, before, cfg)
            assert np.array_equal(shared, out.prediction), mode
            assert np.array_equal(fresh, out.prediction), mode
        assert np.array_equal(verdict, kept)


class TestRunPipeline:
    def test_partition_and_determinism(self):
        cloud = truss_scene_cloud(seed=8)
        a = segment.run_pipeline(cloud, CFG)
        b = segment.run_pipeline(cloud, CFG)
        assert len(a.prediction) == len(cloud)
        assert np.array_equal(a.prediction, b.prediction)
        assert a.total_ms > 0

    def test_ground_only_scan_near_zero_structure(self):
        scene = Scene([], HeightFieldGround(0.2, 10.0))
        cloud = synth.raycast_scan(
            scene, Pose((0, 0, 2)),
            synth.SensorConfig(v_resolution=32, h_resolution=128), seed=2)
        out = segment.run_pipeline(cloud, CFG)
        assert out.prediction.sum() <= 0.01 * len(cloud)

    def test_hybrid_subset_of_ratio_and_magnitude(self):
        cloud = truss_scene_cloud(seed=9)
        preds = {}
        for mode in (segment.RATIO, segment.MAGNITUDE, segment.HYBRID):
            cfg = segment.PipelineConfig(eigen_mode=mode)
            preds[mode] = segment.run_pipeline(cloud, cfg).prediction
        assert not (preds[segment.HYBRID] & ~preds[segment.RATIO]).any()
        assert not (preds[segment.HYBRID] & ~preds[segment.MAGNITUDE]).any()

    def test_full_vs_without_fine_differ_only_in_coarse_ground(self):
        cloud = truss_scene_cloud(seed=10)
        full = segment.run_pipeline(cloud, CFG)
        wf = segment.run_pipeline(
            cloud, segment.PipelineConfig(stage_mode=segment.WITHOUT_FINE))
        in_ground = np.zeros(len(cloud), bool)
        in_ground[full.coarse_ground] = True
        differs = full.prediction != wf.prediction
        assert not (differs & ~in_ground).any()

    def test_fine_only_promotes_and_density_only_demotes(self):
        cloud = truss_scene_cloud(seed=11)
        out = segment.run_pipeline(cloud, CFG)
        coarse_structure = np.ones(len(cloud), bool)
        coarse_structure[out.coarse_ground] = False
        pre_density = out.prediction.copy()
        pre_density[out.density_removed] = True
        # fine stage only ever adds points on top of the coarse structure
        assert (pre_density | coarse_structure == pre_density).all()
        added = pre_density & ~coarse_structure
        assert not added.any() or in_any_cluster(out, added)
        # density stage only removed
        assert not (out.prediction & ~pre_density).any()

    def test_without_coarse_runs_fine_everywhere(self):
        cloud = truss_scene_cloud(seed=12)
        cfg = segment.PipelineConfig(stage_mode=segment.WITHOUT_COARSE)
        out = segment.run_pipeline(cloud, cfg)
        assert out.plane is None
        assert len(out.coarse_ground) == len(cloud)

    def test_ground_not_found_warning_propagates(self):
        rng = np.random.default_rng(13)
        cloud = LabeledCloud(rng.uniform(-50, 50, size=(2000, 3)))
        out = segment.run_pipeline(cloud, CFG)
        assert any("GroundNotFound" in w for w in out.warnings)
        assert len(out.prediction) == len(cloud)


def in_any_cluster(out, added_mask):
    member = np.zeros(len(added_mask), bool)
    for c in out.clusters:
        if c.verdict == segment.STRUCTURE:
            member[c.indices] = True
    return member[added_mask].all()


def tiny_coarse_ground_cloud():
    """Voxel centroids on the plane z = 0.5 but only two points within the
    1 mm RANSAC threshold of it: the coarse ground has < 3 points."""
    cfg = segment.PipelineConfig(voxel_leaf=1.0, ransac_threshold=1e-3)
    xy = np.array([(x + 0.5, y + 0.5) for x in range(5) for y in range(4)])
    pairs = [np.column_stack([xy, np.full(len(xy), z)]) for z in (0.49, 0.51)]
    on_plane = [[7.5, 0.5, 0.5], [8.5, 0.5, 0.5]]
    column = [[2.5, 9.5, z] for z in np.arange(1.5, 6.0, 0.5)]
    return LabeledCloud(np.vstack(pairs + [on_plane, column])), cfg


def output_digest(out):
    """Everything a run_pipeline output reports except its timings."""
    plane = None if out.plane is None else (out.plane.normal.tobytes(),
                                            out.plane.d)
    return {"prediction": out.prediction.tobytes(),
            "coarse_ground": out.coarse_ground.tobytes(),
            "density_removed": out.density_removed.tobytes(),
            "warnings": out.warnings, "plane": plane,
            "clusters": [(c.indices.tobytes(), c.verdict)
                         for c in out.clusters]}


SWEEP_SCANS = ["seed1", "seed2", "seed3", "ground_not_found", "tiny_ground"]


def sweep_scan(scan):
    """(cloud, base config) of one of ``SWEEP_SCANS``."""
    if scan == "ground_not_found":
        rng = np.random.default_rng(13)
        return LabeledCloud(rng.uniform(-50, 50, (2000, 3))), CFG
    if scan == "tiny_ground":
        return tiny_coarse_ground_cloud()
    return _reduced_scan(int(scan[-1])), CFG


def run_alone(cloud, cfg, stage, eigen):
    """One variant by its own ``run_pipeline`` call."""
    return segment.run_pipeline(
        cloud, replace(cfg, stage_mode=stage, eigen_mode=eigen))


class TestCoordinatesOnly:
    """Segmentation reads a scan's coordinates only: its truth labels and
    sensor pose change no output of any variant."""

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_labels_and_pose_change_no_output(self, shipped_cloud, scan):
        cloud = shipped_cloud(scan)
        modes = list(cli.MODES.values())
        shuffled = np.random.default_rng(29).permutation(cloud.face_label)
        assert (shuffled != cloud.face_label).any()
        altered = {
            "zeroed": replace(cloud, face_label=np.zeros(len(cloud), int)),
            "shuffled": replace(cloud, face_label=shuffled),
            "pose": replace(cloud, sensor_pose=Pose((4.0, -3.0, 2.5),
                                                    (0.5, 0.5, 0.5, 0.5))),
        }
        want = [output_digest(out)
                for out in segment.run_pipeline(cloud, CFG, modes)]
        for name, other in altered.items():
            got = [output_digest(out)
                   for out in segment.run_pipeline(other, CFG, modes)]
            assert got == want, name


class TestStagePlan:
    """The stages the variants of one ``run_pipeline`` call share run once
    and serve each variant as its own call would."""

    @pytest.mark.parametrize("scan", SWEEP_SCANS)
    def test_shared_sweep_equals_independent_runs(self, scan):
        cloud, base = sweep_scan(scan)
        shared = dict(zip(cli.MODES, segment.run_pipeline(
            cloud, base, list(cli.MODES.values()))))
        for mode, (stage, eigen) in cli.MODES.items():
            fresh = run_alone(cloud, base, stage, eigen)
            assert output_digest(shared[mode]) == output_digest(fresh), mode
        if scan == "ground_not_found":
            assert "GroundNotFound" in shared["H"].warnings[0]
        if scan == "tiny_ground":
            assert 0 < len(shared["H"].coarse_ground) < 3
        # each variant owns its Cluster objects; the grown ones keep no
        # verdict
        ids = {id(c) for c in shared["R"].clusters}
        assert not ids & {id(c) for c in shared["H"].clusters}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           k=st.integers(3, 12), m=st.integers(0, 15),
           radius=st.floats(0.1, 0.6),
           modes=st.lists(st.sampled_from(list(cli.MODES.values())),
                          max_size=9))
    def test_random_clouds_and_modes_equal_independent_runs(
            self, seed, n, k, m, radius, modes):
        # a noisy floor under scattered points, some of them duplicated:
        # clouds too small to split, whole clouds of at most k points,
        # tied rows, density settings past the (k+1)-nearest table,
        # repeated and reordered modes
        rng = np.random.default_rng(seed)
        floor = rng.uniform(0.0, 2.0, (n, 3)) * [1.0, 1.0, 0.01]
        above = rng.uniform(0.0, 2.0, (n // 2, 3))
        pts = np.vstack([floor, above])
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), n // 8)]])
        cloud = LabeledCloud(pts)
        cfg = replace(CFG, voxel_leaf=0.05, ransac_threshold=0.05,
                      ransac_iterations=30, normal_k=k, rg_min_cluster=3,
                      density_radius=radius, density_min_points=m)
        want = []
        for stage, eigen in modes:
            try:
                want.append(output_digest(run_alone(cloud, cfg, stage, eigen)))
            except DegenerateCloudError:
                with pytest.raises(DegenerateCloudError):
                    segment.run_pipeline(cloud, cfg, modes)
                return
        got = segment.run_pipeline(cloud, cfg, modes)
        assert [output_digest(o) for o in got] == want

    def test_no_modes_run_nothing(self, monkeypatch):
        monkeypatch.setattr(segment, "coarse_split", None)
        monkeypatch.setattr(segment, "density_filter", None)
        assert segment.run_pipeline(_reduced_scan(1), CFG, []) == []

    @pytest.mark.parametrize("pair", [("full", "bogus"), ("bogus", "hybrid"),
                                      ("hybrid", "full")])
    def test_unknown_mode_pair_is_refused(self, pair):
        with pytest.raises(InvalidSpecError):
            segment.run_pipeline(_reduced_scan(1), CFG,
                                 [cli.MODES["H"], pair])

    # modes -> calls of (coarse_split, _normals_for, region_grow,
    # density_filter, _whole_cloud_neighbours, _subset_from_whole,
    # _dense_cells, kd_tree, knn_table): with a WC mode, the whole-cloud
    # query serves the coarse ground's rows and judges every point's
    # density. A plan builds one kd_tree (the whole cloud's, for its query
    # or for density), and a knn_table tree where rows are queried directly
    # (the coarse ground of mode H) or redone (the seven's ground boundary)
    @pytest.mark.parametrize("modes,calls", [
        (list(cli.MODES), (1, 2, 2, 1, 1, 1, 0, 1, 1)),
        (["H"], (1, 1, 1, 1, 0, 0, 1, 1, 1)),
        (["WF", "WF"], (1, 0, 0, 1, 0, 0, 1, 1, 0)),
        (["WC_H", "WC_R"], (0, 1, 1, 1, 1, 0, 0, 1, 0)),
        (["M", "R"], (1, 1, 1, 1, 0, 0, 1, 1, 1))],
        ids=["seven", "H", "WF_twice", "WC_only", "M_R"])
    def test_each_stage_runs_once(self, monkeypatch, modes, calls):
        names = ("coarse_split", "_normals_for", "region_grow",
                 "density_filter", "_whole_cloud_neighbours",
                 "_subset_from_whole", "_dense_cells", "kd_tree",
                 "knn_table")
        counts = dict.fromkeys(names, 0)

        def counting(name, inner):
            def call(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(segment, name,
                                counting(name, getattr(segment, name)))
        segment.run_pipeline(_reduced_scan(1), CFG,
                             [cli.MODES[m] for m in modes])
        assert tuple(counts[name] for name in names) == calls


class TestDensityBeside:
    """A plan without a WC variant judges the coarse structure's density on
    one helper thread while the fine stage runs, or inline before it with
    one worker; outputs do not depend on which."""

    PLANS = [["H"], ["R"], ["M"], ["WF"], list(cli.MODES)]

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_one_and_two_workers_agree(self, monkeypatch, shipped_cloud,
                                       scan):
        cloud = shipped_cloud(scan)
        cfg = tio.load_config(f"configs/{scan}.cfg").pipeline
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(geom, "_query_workers", workers)
            got[workers] = [[output_digest(out) for out in segment.run_pipeline(
                cloud, cfg, [cli.MODES[m] for m in plan])]
                for plan in self.PLANS]
        assert got[1] == got[2]

    @pytest.mark.parametrize("n", [4, CFG.density_min_points,
                                   CFG.density_min_points + 1])
    def test_clouds_of_at_most_m_plus_one_points(self, monkeypatch, n):
        # points within the radius of each other, all but a RANSAC triple
        # off its plane: the coarse structure holds n - 3 points, sparse
        # unless the cloud has m + 1 points
        pts = np.random.default_rng(n).uniform(0.0, 0.1, (n, 3))
        cfg = replace(CFG, voxel_leaf=1e-4, ransac_threshold=1e-9)
        plans = [[cli.MODES[m] for m in plan] for plan in self.PLANS[:-1]]
        outs = {}
        for workers in (1, 2):
            monkeypatch.setattr(geom, "_query_workers", workers)
            outs[workers] = [
                out for plan in plans
                for out in segment.run_pipeline(LabeledCloud(pts), cfg, plan)]
        assert [output_digest(out) for out in outs[1]] == \
            [output_digest(out) for out in outs[2]]
        dense = n > CFG.density_min_points
        for out in outs[2]:
            assert len(out.coarse_ground) == 3
            assert out.prediction.sum() == (n - 3 if dense else 0)
            assert len(out.density_removed) == (0 if dense else n - 3)

    def test_one_worker_runs_inline_first(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", 1)

        def no_thread(thread):
            raise AssertionError(f"started {thread}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        calls = []

        def recording(name):
            inner = getattr(segment, name)

            def call(*args):
                calls.append((name, threading.current_thread()))
                return inner(*args)
            return call

        for name in ("_judge_open", "_normals_for"):
            monkeypatch.setattr(segment, name, recording(name))
        segment.run_pipeline(_reduced_scan(1), CFG)
        main = threading.current_thread()
        # the coarse structure before the fine stage, the promoted points
        # after it
        assert calls == [("_judge_open", main), ("_normals_for", main),
                         ("_judge_open", main)]

    def test_helper_is_joined_on_return_and_on_raise(self, monkeypatch):
        monkeypatch.setattr(geom, "_query_workers", 2)
        cloud = _reduced_scan(1)
        before = threading.active_count()
        segment.run_pipeline(cloud, CFG)
        assert threading.active_count() == before
        # the helper is still querying when region growing raises
        helping = threading.Event()
        inner = segment._judge_open

        def slow(*args):
            if threading.current_thread() is not threading.main_thread():
                helping.set()
                time.sleep(0.3)
            return inner(*args)

        def broken(*args):
            assert helping.wait(10)
            raise RuntimeError("region growing failed")

        monkeypatch.setattr(segment, "_judge_open", slow)
        monkeypatch.setattr(segment, "region_grow", broken)
        with pytest.raises(RuntimeError, match="region growing failed"):
            segment.run_pipeline(cloud, CFG)
        assert threading.active_count() == before

    def test_helper_exception_keeps_its_type(self, monkeypatch):
        class HelperFailure(Exception):
            pass

        monkeypatch.setattr(geom, "_query_workers", 2)
        threads = []

        def failing(*args):
            threads.append(threading.current_thread())
            raise HelperFailure

        monkeypatch.setattr(segment, "_judge_open", failing)
        with pytest.raises(HelperFailure):
            segment.run_pipeline(_reduced_scan(1), CFG)
        assert threads and threads[0] is not threading.main_thread()


WC = replace(CFG, stage_mode=segment.WITHOUT_COARSE)


def whole_cloud(cloud):
    """The whole-cloud ``_normals_for`` result of ``cloud``, as the
    without_coarse variants of a ``run_pipeline`` call make it."""
    return segment._normals_for(cloud.points, np.arange(len(cloud)), CFG)


def assert_same_normals(got, want):
    """The normals, curvature and neighbour table of two ``_normals_for``
    results equal element for element, dtypes too."""
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def normals_rows(monkeypatch):
    """Patch ``segment.normals_from_neighbors`` to record the rows of each
    call; returns the list of counts."""
    counts = []
    inner = segment.normals_from_neighbors

    def counting(points, neighbor_idx, viewpoint):
        counts.append(len(neighbor_idx))
        return inner(points, neighbor_idx, viewpoint)

    monkeypatch.setattr(segment, "normals_from_neighbors", counting)
    return counts


def strictly_increasing_rows(points, k):
    """Per point, whether its k + 1 nearest distances strictly increase."""
    from scipy.spatial import cKDTree
    dist, _ = cKDTree(points).query(points, k=k + 1)
    return (np.diff(dist, axis=1) > 0).all(axis=1)


class TestSharedNeighbourhoods:
    """The whole-cloud (k+1)-nearest query of a sweep gives the neighbour
    tables, normals and density verdicts of the direct queries, bit for
    bit."""

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_subsets_equal_direct_query(self, shipped_cloud, scan):
        cloud = shipped_cloud(scan)
        pts = cloud.points
        whole = whole_cloud(cloud)
        rng = np.random.default_rng(7)
        subsets = {
            "coarse": segment.coarse_split(pts, CFG).ground,
            "random": np.flatnonzero(rng.random(len(pts)) < 0.5),
            "half_space": np.flatnonzero(pts[:, 0] < np.median(pts[:, 0])),
            "normal_k": np.sort(rng.choice(len(pts), CFG.normal_k,
                                           replace=False)),
        }
        for name, subset in subsets.items():
            assert len(subset) >= CFG.normal_k, name
            assert_same_normals(
                segment._normals_for(pts, subset, CFG, whole),
                segment._normals_for(pts, subset, CFG))

    def test_whole_cloud_equals_direct_query(self, shipped_cloud):
        pts = shipped_cloud("ortho").points
        got = segment._normals_for(pts, np.arange(len(pts)), CFG)
        table = geom.knn_table(pts, CFG.normal_k)
        assert_same_normals(got, (*geom.normals_from_neighbors(
            pts, table, (0.0, 0.0, 0.0)), table))
        assert got.tie_free is not None and got.density is not None

    def test_shipped_ortho_reuses_most_ground_rows(self, monkeypatch,
                                                   shipped_cloud):
        # guards the fast path: the coarse ground's rows come from the
        # whole-cloud table, only the boundary is queried and made again
        cloud = shipped_cloud("ortho")
        whole = whole_cloud(cloud)
        ground = segment.coarse_split(cloud.points, CFG).ground
        counts = normals_rows(monkeypatch)
        segment._normals_for(cloud.points, ground, CFG, whole)
        assert len(counts) <= 1
        assert 1 - sum(counts) / len(ground) >= 0.85

    @pytest.mark.parametrize("cloud_kind", ["lattice", "duplicates"])
    def test_tied_rows_take_the_fallback(self, monkeypatch, cloud_kind):
        rng = np.random.default_rng(11)
        if cloud_kind == "lattice":
            pts = lattice(9, 0.25)
        else:
            pts = rng.uniform(0.0, 3.0, (1500, 3))
            pts = np.vstack([pts, pts[rng.choice(1500, 300, replace=False)]])
        k = CFG.normal_k
        tie_free_want = strictly_increasing_rows(pts, k)
        assert (~tie_free_want).mean() > 0.2
        table, tie_free, _ = segment._whole_cloud_neighbours(pts, CFG)
        assert np.array_equal(tie_free, tie_free_want)
        assert np.array_equal(table, geom.knn_table(pts, k))

        cloud = LabeledCloud(pts)
        whole = whole_cloud(cloud)
        subset = np.flatnonzero(pts[:, 2] <= np.median(pts[:, 2]))
        counts = normals_rows(monkeypatch)
        got = segment._normals_for(cloud.points, subset, CFG, whole)
        # every tied row of the subset is queried and made again
        assert sum(counts) >= (~tie_free_want[subset]).sum()
        assert_same_normals(got, segment._normals_for(cloud.points, subset,
                                                      CFG))

    def test_subset_smaller_than_normal_k(self):
        cloud = _reduced_scan(2)
        whole = whole_cloud(cloud)
        subset = np.arange(0, 10 * (CFG.normal_k - 5), 10)
        got = segment._normals_for(cloud.points, subset, CFG, whole)
        assert got[2].shape == (len(subset), len(subset))
        assert_same_normals(got, segment._normals_for(cloud.points, subset,
                                                      CFG))

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_density_verdicts_equal_the_query(self, monkeypatch,
                                              shipped_cloud, scan):
        from scipy.spatial import cKDTree
        cloud = shipped_cloud(scan)
        pts = cloud.points
        whole = whole_cloud(cloud)
        m, r = CFG.density_min_points, CFG.density_radius
        dist, _ = cKDTree(pts).query(
            pts, k=m + 1, distance_upper_bound=np.nextafter(r, np.inf))
        want = np.where(dist[:, -1] <= r, 1, 2)
        verdict = whole.density
        assert np.array_equal(verdict, want)
        # every point is judged: the filter makes no grid and no query
        monkeypatch.setattr(segment, "_dense_cells", None)
        mask = np.random.default_rng(5).random(len(pts)) < 0.5
        got = segment.density_filter(pts, mask, CFG, verdict)
        assert np.array_equal(got, mask & (want == 1))

    def test_density_settings_past_the_table_query_as_before(self):
        cloud = _reduced_scan(2)
        for m in (0, CFG.normal_k, CFG.normal_k + 1):
            cfg = replace(WC, density_min_points=m)
            _, _, verdict = segment._whole_cloud_neighbours(cloud.points, cfg)
            assert (verdict is None) == (m == 0 or m > CFG.normal_k), m
            mask = np.ones(len(cloud), dtype=bool)
            assert np.array_equal(
                segment.density_filter(cloud.points, mask, cfg, verdict),
                segment.density_filter(cloud.points, mask, cfg))

    def test_query_peak_is_the_table_plus_blocks(self):
        # the whole-cloud stage holds the (n, k) index table, small
        # per-point flags and the kd-tree's index array (the tree does not
        # copy the cloud); the (k+1)-nearest distances live one block at a
        # time, never as an (n, k + 1) float table
        import tracemalloc
        pts = np.random.default_rng(3).uniform(0.0, 40.0, (60000, 3))
        k = CFG.normal_k
        tracemalloc.start()
        try:
            table, _, _ = segment._whole_cloud_neighbours(pts, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = geom.query_workers() * geom._ROW_BLOCK * (k + 1) * 16
        flags = 2 * len(pts)
        tree = np.dtype(np.intp).itemsize * len(pts)
        assert peak <= table.nbytes + flags + tree + 2 * blocks
        assert table.nbytes + flags + tree + 2 * blocks \
            < table.nbytes + len(pts) * (k + 1) * 8


# block sizes of the row-block kernels: odd and small, so that every kernel
# runs many blocks and a short tail block
_SMALL_BLOCKS = {(geom, "_ROW_BLOCK"): 11,
                 (segment, "_SCORE_HYPOTHESES"): 7,
                 (segment, "_SCORE_POINTS"): 13}
_SHIPPED_BLOCKS = {site: getattr(*site) for site in _SMALL_BLOCKS}


_ALL_SETTINGS = ((1, False), (2, False), (1, True), (2, True))


def thread_settings(monkeypatch, settings=_ALL_SETTINGS):
    """Yield each (workers, small) of ``settings`` after forcing
    ``geom.query_workers()`` to ``workers`` and the kernels' block sizes to
    ``_SMALL_BLOCKS`` (small) or the shipped ones. Checks that one worker
    starts no thread pool and that two workers in small blocks do, so the
    threaded path runs on a one-CPU machine too."""
    pools = []

    class CountingPool(geom.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(geom, "ThreadPoolExecutor", CountingPool)
    for workers, small in settings:
        monkeypatch.setattr(geom, "_query_workers", workers)
        for site, size in _SMALL_BLOCKS.items():
            monkeypatch.setattr(*site,
                                size if small else _SHIPPED_BLOCKS[site])
        pools.clear()
        yield workers, small
        if workers == 1:
            assert not pools
        elif small:
            # the calling thread works too: one helper for two workers
            assert pools and all(args == (1,) for args in pools)


def edge_tables_one_pass(normals, knn_idx, cos_thr, pos):
    """``segment._edge_tables`` over the whole table at once."""
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    dot = nx[knn_idx] * nx[:, None] + ny[knn_idx] * ny[:, None] \
        + nz[knn_idx] * nz[:, None]
    ok = dot >= cos_thr
    return ok, (ok & (pos[knn_idx] > pos[:, None])).any(axis=1)


class TestThreadedBlocks:
    """The row-block kernels give the same bits on one thread and on two,
    in shipped and in small blocks, as the one-pass references."""

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_normals(self, monkeypatch, grow_inputs, scan):
        pts, _, _, _, knn_idx = grow_inputs(scan, "whole")
        want = normals_one_pass(pts, knn_idx, (0.0, 0.0, 0.0))
        for setting in thread_settings(monkeypatch):
            got = geom.normals_from_neighbors(pts, knn_idx, (0.0, 0.0, 0.0))
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), setting

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_edge_tables_and_region_grow(self, monkeypatch, grow_inputs,
                                         scan):
        points, idx, normals, curv, knn_idx = grow_inputs(scan, "coarse")
        cos_thr = np.cos(np.deg2rad(CFG.rg_angle_threshold_deg))
        pos = np.empty(len(idx), dtype=np.intp)
        pos[np.argsort(curv, kind="stable")] = np.arange(len(idx))
        want_tables = edge_tables_one_pass(normals, knn_idx, cos_thr, pos)
        want = region_grow_waves(points, idx, normals, curv, CFG, knn_idx)
        for setting in thread_settings(monkeypatch):
            got = segment._edge_tables(normals, knn_idx, cos_thr, pos)
            for a, b in zip(got, want_tables):
                assert np.array_equal(a, b), setting
            got = segment.region_grow(points, idx, normals, curv, CFG,
                                      knn_idx)
            assert len(got) == len(want) >= 2
            for a, b in zip(got, want):
                assert_same_cluster(a, b)

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_ransac(self, monkeypatch, shipped_cloud, scan):
        voxel = geom.voxel_downsample(shipped_cloud(scan).points,
                                      CFG.voxel_leaf)
        want = ransac_plane_reference(voxel, CFG.ransac_threshold,
                                      CFG.ransac_iterations, CFG.ransac_seed)
        for setting in thread_settings(monkeypatch):
            plane, inliers, counts = ransac_with_counts(
                monkeypatch, voxel, CFG.ransac_threshold,
                CFG.ransac_iterations, CFG.ransac_seed)
            assert np.array_equal(counts, want[2]), setting
            assert plane.normal.tobytes() == want[0].normal.tobytes()
            assert plane.d == want[0].d
            assert np.array_equal(inliers, want[1])

    @pytest.mark.parametrize("scan", ["ortho", "crossed", "training"])
    def test_seven_modes_through_one_plan(self, monkeypatch, shipped_cloud,
                                          scan):
        # serial small blocks are left to the kernel tests above
        cloud = shipped_cloud(scan)
        digests = {}
        for setting in thread_settings(monkeypatch,
                                       ((1, False), (2, False), (2, True))):
            digests[setting] = [output_digest(out) for out in
                                segment.run_pipeline(
                                    cloud, CFG, list(cli.MODES.values()))]
        want = digests.pop((1, False))
        for setting, got in digests.items():
            assert got == want, setting
