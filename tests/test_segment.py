import numpy as np
import pytest

from trusskit import geom, segment, synth
from trusskit.errors import DegenerateCloudError
from trusskit.geom import LabeledCloud, Pose
from trusskit.primitives import HeightFieldGround, Scene
from helpers import (
    brute_knn,
    brute_radius,
    covariance_loop,
    eigvals_via_roots,
    region_grow_sequential,
)
from test_acceptance import _reduced_scan

CFG = segment.PipelineConfig()


def truss_scene_cloud(seed=0, nodes=(3, 3, 3), trees=2, sensor=None):
    spec = synth.SceneSpec(structure=synth.TrussSpec(nodes), tree_count=trees,
                           seed=seed)
    scene = synth.build_scene(spec)
    lo, hi = synth.structure_bounding_box(spec.structure)
    pose = synth.sample_sensor_pose(
        synth.WITHIN_STRUCTURE_MODE,
        (lo + [0.5, 0.5, 0.8], hi - [0.5, 0.5, 0.5]), seed + 1)
    sensor = sensor or synth.SensorConfig(v_resolution=32, h_resolution=128,
                                          seed=seed)
    return synth.raycast_scan(scene, pose, sensor)


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
        voxel = geom.voxel_downsample(cloud, 0.1)
        plane, _ = segment.ransac_plane(voxel.points, 0.5, 500, seed=2)
        ground_idx = np.flatnonzero(~cloud.truss_mask)
        # oracle: every true ground point must satisfy the distance test
        dist = plane.distance(cloud.points[ground_idx])
        assert dist.max() <= 0.5
        cs = segment.coarse_split(cloud, CFG)
        assert set(ground_idx.tolist()) <= set(cs.ground.tolist())

    def test_inliers_satisfy_threshold(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(300, 3))
        plane, inliers = segment.ransac_plane(pts, 0.3, 100, seed=1)
        assert (plane.distance(pts[inliers]) <= 0.3).all()
        outside = np.setdiff1d(np.arange(300), inliers)
        assert (plane.distance(pts[outside]) > 0.3).all()


class TestCoarseSplit:
    def test_ground_only_scan(self):
        scene = Scene([], HeightFieldGround(0.1, 10.0))
        cloud = synth.raycast_scan(
            scene, Pose((0, 0, 2)),
            synth.SensorConfig(v_resolution=32, h_resolution=64, seed=1))
        cs = segment.coarse_split(cloud, CFG)
        assert len(cs.ground) == len(cloud)
        assert len(cs.structure) == 0

    def test_partition(self):
        cloud = truss_scene_cloud(seed=2)
        cs = segment.coarse_split(cloud, CFG)
        union = np.union1d(cs.ground, cs.structure)
        assert np.array_equal(union, np.arange(len(cloud)))
        assert len(np.intersect1d(cs.ground, cs.structure)) == 0

    def test_low_bars_in_coarse_ground(self):
        cloud = truss_scene_cloud(seed=4)
        cs = segment.coarse_split(cloud, CFG)
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
        cs = segment.coarse_split(cloud, CFG)
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
        ground = segment.coarse_split(cloud, cfg).ground
        normals, curv, knn_idx = segment._normals_for(cloud.points, ground,
                                                      cfg)
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
        for _ in range(20):
            n = int(rng.integers(20, 600))
            pts = rng.uniform(-1, 1, (n, 3)) * rng.uniform(0.3, 2.0)
            mask = rng.random(n) < 0.5
            cfg = segment.PipelineConfig(
                density_radius=float(rng.uniform(0.1, 0.6)),
                density_min_points=int(rng.integers(0, 16)))
            got = segment.density_filter(pts, mask, cfg)
            count = np.array([len(brute_radius(pts, p, cfg.density_radius)) - 1
                              for p in pts])
            assert np.array_equal(got, mask & (count >= cfg.density_min_points))

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

    def test_monotone_removal(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, (400, 3))
        mask = rng.random(400) < 0.6
        out = segment.density_filter(pts, mask, CFG)
        assert not (out & ~mask).any()


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
            synth.SensorConfig(v_resolution=32, h_resolution=128, seed=2))
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
