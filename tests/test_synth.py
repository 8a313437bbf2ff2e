import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trusskit import synth
from trusskit import io as tio
from trusskit.errors import (
    InvalidBoundsError,
    InvalidSpecError,
    NonFiniteError,
    TrussKitError,
)
from trusskit.geom import Pose, quat_to_matrix
from trusskit.primitives import (
    Ellipsoid,
    HeightFieldGround,
    OrientedBox,
    Scene,
    VerticalCylinder,
    intersect_solid,
    pack_boxes,
    ray_boxes,
    ray_ground,
)
from helpers import (
    build_truss_five_loops,
    exhaustive_scene_hit,
    ray_box_slab,
    ray_ground_stepwise,
    raycast_scan_per_solid,
    surface_residual,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_SENSOR = synth.SensorConfig(v_resolution=16, h_resolution=64,
                                  noise_sigma=0.0)


class TestBuildTruss:
    def test_minimal_grid_counts_and_labels(self):
        spec = synth.TrussSpec(node_counts=(2, 2, 2))
        boxes = synth.build_truss(spec)
        assert len(boxes) == 12          # 4 bars per axis
        labels = np.concatenate([b.face_labels for b in boxes])
        assert labels.min() == 1 and labels.max() == 72
        assert len(np.unique(labels)) == 72

    def test_per_bar_labels(self):
        boxes = synth.build_truss(synth.TrussSpec((2, 2, 2), label_mode="per_bar"))
        labels = sorted({int(b.face_labels[0]) for b in boxes})
        assert labels == list(range(1, 13))

    def test_invalid_counts(self):
        with pytest.raises(InvalidSpecError):
            synth.TrussSpec(node_counts=(2, 1, 2))

    def test_ortho_reference_dimensions(self):
        # 10 m x 8 m x 18 m at 2.0 m bars -> (6, 5, 10) nodes
        spec = synth.TrussSpec(node_counts=(6, 5, 10))
        assert spec.spans == (10.0, 8.0, 18.0)
        nx, ny, nz = spec.node_counts
        expected = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
        assert len(synth.build_truss(spec)) == expected

    def test_crossed_reference_dimensions(self):
        # 40 m x 8 m x 4 m -> (21, 5, 3) nodes
        spec = synth.TrussSpec(node_counts=(21, 5, 3), crossed=True)
        assert spec.spans == (40.0, 8.0, 4.0)
        boxes = synth.build_truss(spec)
        nx, ny, nz = spec.node_counts
        ortho = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
        diagonals = 2 * (nx - 1) * (nz - 1) + 2 * (ny - 1) * (nz - 1)
        assert len(boxes) == ortho + diagonals
        diag = boxes[ortho]
        assert diag.half_extents[0] == pytest.approx(np.sqrt(2.0))

    def test_bar_surfaces_lie_on_grid(self):
        boxes = synth.build_truss(synth.TrussSpec((3, 2, 2)))
        xs = sorted({round(float(b.center[0]), 6) for b in boxes})
        assert 0.0 in xs and 4.0 in xs

    @pytest.mark.parametrize("counts", [(2, 2, 2), (6, 5, 10), (21, 5, 3),
                                        (3, 4, 2), (2, 7, 5)])
    @pytest.mark.parametrize("crossed", [False, True])
    @pytest.mark.parametrize("label_mode", ["per_face", "per_bar"])
    @pytest.mark.parametrize("bar_length", [2.0, 1.3, 0.7])
    def test_bit_identical_to_five_loop_reference(self, counts, crossed,
                                                  label_mode, bar_length):
        spec = synth.TrussSpec(counts, bar_length=bar_length, crossed=crossed,
                               label_mode=label_mode)
        got = [(b.center, b.half_extents, b.rotation, b.face_labels)
               for b in synth.build_truss(spec)]
        want = build_truss_five_loops(spec)
        assert len(got) == len(want)
        for bar, (g, w) in enumerate(zip(got, want)):
            for part, a, b in zip(("center", "half", "rotation", "labels"),
                                  g, w):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    (bar, part)


class TestBuildScene:
    def test_ground_only(self):
        scene = synth.build_scene(synth.SceneSpec())
        assert scene.solids == []
        assert scene.ground is not None

    def test_deterministic(self):
        spec = synth.SceneSpec(tree_count=5, seed=99,
                               boxes=synth.BoxFieldSpec(count=7))
        a = synth.build_scene(spec)
        b = synth.build_scene(spec)
        assert len(a.solids) == len(b.solids)
        for sa, sb in zip(a.solids, b.solids):
            assert type(sa) is type(sb)
            assert np.allclose(sa.center, sb.center)

    def test_box_field_dimensions_in_bounds(self):
        field = synth.BoxFieldSpec(count=20, length_bounds=(0.5, 3.0),
                                   width_bounds=(0.05, 0.3))
        scene = synth.build_scene(synth.SceneSpec(boxes=field, seed=4))
        boxes = [s for s in scene.solids if isinstance(s, OrientedBox)]
        assert len(boxes) == 20
        for b in boxes:
            assert 0.25 <= b.half_extents[0] <= 1.5
            assert 0.025 <= b.half_extents[1] <= 0.15
            assert b.half_extents[1] == b.half_extents[2]
        labels = np.concatenate([b.face_labels for b in boxes])
        assert sorted(labels) == list(range(1, 121))

    def test_structure_labels_consecutive(self):
        spec = synth.SceneSpec(structure=synth.TrussSpec((2, 2, 2)),
                               tree_count=3, seed=1)
        scene = synth.build_scene(spec)
        labels = np.concatenate([s.labels() for s in scene.solids])
        structure = np.unique(labels[labels > 0])
        assert np.array_equal(structure, np.arange(1, len(structure) + 1))

    def test_truss_seated_at_bounding_box_corner(self):
        spec = synth.TrussSpec((3, 4, 2), bar_length=1.3, crossed=True)
        scene = synth.build_scene(synth.SceneSpec(structure=spec))
        lo, hi = synth.structure_bounding_box(spec)
        sx, sy, _ = spec.spans
        assert lo.tolist() == [-sx / 2.0, -sy / 2.0, 0.0]
        for seated, bar in zip(scene.solids, synth.build_truss(spec)):
            assert np.array_equal(seated.center, bar.center + lo)
        # the grid's outermost bar centres lie on the box's faces
        centers = np.array([s.center for s in scene.solids])
        assert np.array_equal(centers.min(axis=0), lo)
        assert np.allclose(centers.max(axis=0), hi)

    def test_per_bar_scene_builds(self):
        spec = synth.SceneSpec(
            structure=synth.TrussSpec((2, 2, 2), label_mode="per_bar"))
        scene = synth.build_scene(spec)
        labels = np.concatenate([s.labels() for s in scene.solids])
        assert np.array_equal(np.unique(labels[labels > 0]),
                              np.arange(1, 13))


class TestSpecValues:
    """Spec values have one form: float fields hold floats, tuple fields
    tuples of their annotated length and item type."""

    @pytest.mark.parametrize("field, loose, canonical", [
        ("sensor_position", (0, 0, 2), (0.0, 0.0, 2.0)),
        ("sensor_position", [0, 0, 2], (0.0, 0.0, 2.0)),
        ("tree_xy_min", np.array([-25, -25]), (-25.0, -25.0)),
        ("ground_amplitude", 0, 0.0),
    ])
    def test_equal_values_fingerprint_equal(self, field, loose, canonical):
        a = synth.SceneSpec(**{field: loose})
        b = synth.SceneSpec(**{field: canonical})
        assert a == b and hash(a) == hash(b)
        assert synth.spec_fingerprint(a, SMALL_SENSOR) == \
            synth.spec_fingerprint(b, SMALL_SENSOR)
        assert synth.spec_fingerprint(a, replace(SMALL_SENSOR, max_range=30)) \
            == synth.spec_fingerprint(a, SMALL_SENSOR)

    def test_item_types_follow_the_annotation(self):
        spec = synth.TrussSpec(node_counts=[2, 3.0, np.int64(4)], bar_length=2)
        assert spec.node_counts == (2, 3, 4)
        assert {type(c) for c in spec.node_counts} == {int}
        assert type(spec.bar_length) is float

    def test_list_field_generates(self, tmp_path):
        # a list once reached _scene_for's lru_cache as an unhashable key
        sensor = synth.SensorConfig(v_resolution=4, h_resolution=8)
        listed = synth.SceneSpec(sensor_position=[0, 0, 2])
        recs = synth.generate_dataset(listed, 1, 0, tmp_path, sensor=sensor)
        assert recs[0]["spec_hash"] == \
            synth.spec_fingerprint(synth.SceneSpec(), sensor)

    @pytest.mark.parametrize("cls, field, value, message", [
        (synth.SceneSpec, "sensor_position", (0, 0), "3 numbers"),
        (synth.SceneSpec, "tree_xy_min", (0,), "2 numbers"),
        (synth.SceneSpec, "tree_scale_bounds", (1, 2, 3), "2 numbers"),
        (synth.BoxFieldSpec, "position_min", (0, 0), "3 numbers"),
        (synth.TrussSpec, "node_counts", (2, 2), "3 numbers"),
        (synth.TrussSpec, "node_counts", 3, "3 numbers"),
        (synth.SensorConfig, "max_range", "far", "a number"),
    ])
    def test_wrong_shape_is_refused(self, cls, field, value, message):
        with pytest.raises(InvalidSpecError,
                           match=f"^{field} must be {message}, not "):
            cls(**{field: value})


class TestSamplePose:
    def test_fixed_mode_translation(self):
        for seed in range(5):
            pose = synth.sample_sensor_pose(synth.FIXED_ORIENTATION_MODE,
                                            (1.0, 2.0, 3.0), seed)
            assert pose.translation == (1.0, 2.0, 3.0)

    def test_within_structure_bounds(self):
        lo, hi = np.array([-5.0, -4.0, 0.5]), np.array([5.0, 4.0, 18.0])
        rng = np.random.default_rng(0)
        for _ in range(100):
            pose = synth.sample_sensor_pose(synth.WITHIN_STRUCTURE_MODE,
                                            (lo, hi), rng)
            assert (np.asarray(pose.translation) >= lo).all()
            assert (np.asarray(pose.translation) <= hi).all()

    def test_same_seed_same_pose(self):
        a = synth.sample_sensor_pose(synth.WITHIN_STRUCTURE_MODE,
                                     ([0, 0, 0], [1, 1, 1]), 123)
        b = synth.sample_sensor_pose(synth.WITHIN_STRUCTURE_MODE,
                                     ([0, 0, 0], [1, 1, 1]), 123)
        assert a == b

    def test_degenerate_bounds(self):
        with pytest.raises(InvalidBoundsError):
            synth.sample_sensor_pose(synth.WITHIN_STRUCTURE_MODE,
                                     ([0, 0, 0], [1, 0, 1]), 0)


class TestRaycast:
    def test_flat_ground_lowest_channel_range(self):
        scene = Scene([], HeightFieldGround(amplitude=0.0))
        cfg = synth.SensorConfig(v_resolution=128, h_resolution=32,
                                 noise_sigma=0.0)
        cloud = synth.raycast_scan(scene, Pose((0, 0, 2)), cfg)
        ranges = np.linalg.norm(cloud.points, axis=1)
        expected = 2.0 / np.sin(np.deg2rad(22.5))
        # the lowest channel produces the shortest ranges
        assert abs(ranges.min() - expected) <= 1e-6

    def test_empty_scene(self):
        cloud = synth.raycast_scan(Scene([]), Pose((0, 0, 1)), SMALL_SENSOR)
        assert len(cloud) == 0

    def test_max_point_count(self):
        cfg = synth.SensorConfig()
        assert cfg.v_resolution * cfg.h_resolution == 65536
        box = OrientedBox([0, 0, 2.0], [10, 10, 5], np.eye(3),
                          np.arange(1, 7))
        cloud = synth.raycast_scan(Scene([box]), Pose((0, 0, 2)),
                                   synth.SensorConfig(noise_sigma=0.0))
        assert len(cloud) == 65536

    def test_noiseless_points_on_surfaces(self):
        spec = synth.SceneSpec(structure=synth.TrussSpec((2, 2, 2)),
                               tree_count=2, seed=3)
        scene = synth.build_scene(spec)
        pose = synth.sample_sensor_pose(synth.WITHIN_STRUCTURE_MODE,
                                        ([-0.8, -0.8, 0.8], [0.8, 0.8, 1.6]), 5)
        cloud = synth.raycast_scan(scene, pose, SMALL_SENSOR)
        assert len(cloud) > 100
        R = quat_to_matrix(np.asarray(pose.quaternion))
        world = cloud.points @ R.T + np.asarray(pose.translation)
        for p in world[:: max(1, len(world) // 60)]:
            assert surface_residual(scene, p) <= 1e-9

    def test_canopy_hit_alone_as_in_a_batch(self):
        # a ray's hit parameter has the same bits alone as in the batch the
        # broad phase hands its canopy (a one-row mat-vec took another BLAS
        # path, and 613 of these rays differed)
        ell = Ellipsoid([3.0, -2.0, 4.0], [1.5, 1.2, 2.0])
        rng = np.random.default_rng(8)
        origin = np.array([0.3, 0.1, 1.7])
        dirs = ell.center - origin + rng.normal(0.0, 1.0, (4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        whole, _ = intersect_solid(origin, dirs, ell)
        assert np.isfinite(whole).sum() > 2000
        for i in range(len(dirs)):
            alone, _ = intersect_solid(origin, dirs[i:i + 1], ell)
            assert alone.tobytes() == whole[i:i + 1].tobytes(), i
        for size in (2, 3, 5, 8, 17, 64):
            for a in range(0, 300, size):
                batch, _ = intersect_solid(origin, dirs[a:a + size], ell)
                assert batch.tobytes() == whole[a:a + size].tobytes()

    def test_occlusion_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(5):
            solids = []
            labels = 1
            from trusskit.primitives import Ellipsoid, VerticalCylinder
            for _ in range(rng.integers(2, 5)):
                c = rng.uniform(-4, 4, 3) + [0, 0, 3]
                solids.append(OrientedBox(
                    c, rng.uniform(0.2, 1.2, 3),
                    quat_to_matrix(synth.random_unit_quaternion(rng)),
                    np.arange(labels, labels + 6)))
                labels += 6
            solids.append(VerticalCylinder(rng.uniform(-3, 3, 3) * [1, 1, 0],
                                           2.0, 0.3, label=0))
            solids.append(Ellipsoid(rng.uniform(-3, 3, 3) + [0, 0, 4],
                                    rng.uniform(0.3, 1.5, 3), label=0))
            scene = Scene(solids, HeightFieldGround(0.2, 8.0))
            pose = Pose((0, 0, 2.0), tuple(synth.random_unit_quaternion(rng)))
            cfg = synth.SensorConfig(v_resolution=8, h_resolution=24,
                                     noise_sigma=0.0, max_range=40.0)
            cloud = synth.raycast_scan(scene, pose, cfg)

            dirs_s, _, _ = synth.ray_grid(cfg)
            R = quat_to_matrix(np.asarray(pose.quaternion))
            origin = np.asarray(pose.translation)
            hits = {}
            for ri, d in enumerate(dirs_s @ R.T):
                t, label = exhaustive_scene_hit(scene, origin, d, cfg.max_range)
                if cfg.min_range <= t <= cfg.max_range:
                    hits[ri] = (t, label)
            assert len(cloud) == len(hits)
            got_ranges = np.linalg.norm(cloud.points, axis=1)
            want = np.array([hits[k][0] for k in sorted(hits)])
            want_labels = np.array([hits[k][1] for k in sorted(hits)])
            assert np.abs(got_ranges - want).max() <= 1e-7
            assert np.array_equal(cloud.face_label, want_labels)

    def test_noise_statistics(self):
        box = OrientedBox([0, 0, 2.0], [12, 12, 6], np.eye(3), np.arange(1, 7))
        scene = Scene([box])
        clean_cfg = synth.SensorConfig(v_resolution=1024, h_resolution=1024,
                                       noise_sigma=0.0)
        noisy_cfg = synth.SensorConfig(v_resolution=1024, h_resolution=1024,
                                       noise_sigma=0.008)
        pose = Pose((0, 0, 2))
        clean = synth.raycast_scan(scene, pose, clean_cfg, seed=9)
        noisy = synth.raycast_scan(scene, pose, noisy_cfg, seed=9)
        assert len(clean) == len(noisy) == 1024 * 1024
        delta = np.linalg.norm(noisy.points, axis=1) - \
            np.linalg.norm(clean.points, axis=1)
        assert abs(delta.std() / 0.008 - 1.0) <= 0.02
        assert np.array_equal(clean.face_label, noisy.face_label)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.008])
    def test_negative_seed_is_refused(self, noise_sigma):
        cfg = replace(SMALL_SENSOR, noise_sigma=noise_sigma)
        scene = Scene([], HeightFieldGround(0.1, 10.0))
        with pytest.raises(InvalidSpecError, match="seed must be >= 0"):
            synth.raycast_scan(scene, Pose((0, 0, 2)), cfg, seed=-1)


def _assert_same_scan(scene, pose, cfg, seed=0):
    got = synth.raycast_scan(scene, pose, cfg, seed=seed)
    want = raycast_scan_per_solid(scene, pose, cfg, seed)
    assert got.points.tobytes() == want.points.tobytes()
    assert np.array_equal(got.face_label, want.face_label)
    return got


def _box_ring(count=12, radius=6.0, seed=0):
    """Boxes of assorted sizes and rotations around the origin, at every
    azimuth, with a trunk and a canopy between them."""
    rng = np.random.default_rng(seed)
    solids = []
    for b in range(count):
        az = 2 * np.pi * b / count
        c = [radius * np.cos(az), radius * np.sin(az), rng.uniform(0.5, 3.5)]
        solids.append(OrientedBox(
            c, rng.uniform(0.03, 1.5, 3),
            quat_to_matrix(synth.random_unit_quaternion(rng)),
            np.arange(6 * b + 1, 6 * b + 7)))
    solids.insert(3, VerticalCylinder([2.0, -2.0, 0.0], 2.5, 0.2, label=0))
    solids.append(Ellipsoid([-2.0, 2.0, 3.0], [1.0, 0.8, 1.2], label=0))
    return Scene(solids, HeightFieldGround(0.2, 8.0))


def _dataset_scans(config, dataset_seed, tmp_path, monkeypatch):
    """(scene, pose, sensor, noise seed) of the two scans a dataset of a
    shipped config raycasts; the dataset is written under tmp_path."""
    cfg = tio.load_config(CONFIGS / f"{config}.cfg")
    calls = []

    def recording(scene, pose, sensor, seed):
        calls.append((scene, pose, sensor, seed))
        return raycast(scene, pose, sensor, seed=seed)

    raycast = synth.raycast_scan
    monkeypatch.setattr(synth, "raycast_scan", recording)
    synth.generate_dataset(cfg.scene, 2, dataset_seed, tmp_path,
                           sensor=cfg.sensor)
    monkeypatch.undo()
    assert len(calls) == 2
    return calls


class TestBatchedBoxes:
    """synth.raycast_scan against its earlier per-solid form, bit for bit."""

    @pytest.mark.parametrize("config", ["ortho", "crossed", "training"])
    def test_real_scans_bit_identical(self, config, tmp_path, monkeypatch):
        for scene, pose, sensor, seed in _dataset_scans(config, 5, tmp_path,
                                                        monkeypatch):
            cloud = _assert_same_scan(scene, pose, sensor, seed)
            assert (cloud.face_label > 0).sum() > 1000

    def test_sensor_inside_a_cover_sphere(self):
        # outside the bar but inside one of its cover spheres: that sphere
        # takes every ray
        bar = OrientedBox([0.0, 0.0, 2.0], [1.0, 0.075, 0.075], np.eye(3),
                          np.arange(1, 7))
        cover = Scene([bar]).cover
        p = np.array([0.1, 0.12, 2.0])
        assert (np.linalg.norm(cover.center - p, axis=1)
                <= cover.radius).any()
        scene = Scene([bar, OrientedBox([4.0, 0.0, 2.0], [0.5, 0.5, 0.5],
                                        np.eye(3), np.arange(7, 13))],
                      HeightFieldGround(0.2, 10.0))
        rng = np.random.default_rng(4)
        for _ in range(6):
            pose = Pose(tuple(p), tuple(synth.random_unit_quaternion(rng)))
            _assert_same_scan(scene, pose, SMALL_SENSOR)
        # and from inside the bar itself: every ray hits its exit face
        inside = synth.raycast_scan(Scene([bar]), Pose((0.5, 0.0, 2.0)),
                                    SMALL_SENSOR)
        assert len(inside) == 16 * 64
        _assert_same_scan(Scene([bar]), Pose((0.5, 0.0, 2.0)), SMALL_SENSOR)

    def test_cap_over_the_pole_takes_every_azimuth(self):
        # a cube right above the sensor: the cap of its cover sphere holds
        # the zenith, so rays at every azimuth can meet it
        cube = OrientedBox([0.0, 0.0, 0.9], [0.5, 0.5, 0.5], np.eye(3),
                           np.arange(1, 7))
        cfg = synth.SensorConfig(v_resolution=16, h_resolution=36,
                                 v_fov_deg=150.0, noise_sigma=0.0)
        cloud = _assert_same_scan(Scene([cube]), Pose((0.0, 0.0, 0.0)), cfg)
        assert len(cloud) >= 4 * 36

    @pytest.mark.parametrize("h_fov", [360.0, 270.0, 90.0])
    def test_partial_azimuth_fov(self, h_fov):
        scene = _box_ring()
        rng = np.random.default_rng(int(h_fov))
        cfg = synth.SensorConfig(v_resolution=32, h_resolution=200,
                                 h_fov_deg=h_fov)
        for _ in range(4):
            pose = Pose((0.0, 0.0, 2.0), tuple(synth.random_unit_quaternion(rng)))
            _assert_same_scan(scene, pose, cfg, seed=2)

    def test_single_channel(self):
        scene = _box_ring(seed=1)
        cfg = synth.SensorConfig(v_resolution=1, h_resolution=720)
        for az in (0.0, 0.3, -2.0):
            q = (np.cos(az / 2), 0.0, 0.0, np.sin(az / 2))
            cloud = _assert_same_scan(scene, Pose((0.0, 0.0, 2.0), q), cfg,
                                      seed=3)
            assert (cloud.face_label > 0).any()

    def test_scene_without_boxes(self):
        scene = synth.build_scene(synth.SceneSpec(tree_count=8, seed=2,
                                                  tree_xy_min=(-6, -6),
                                                  tree_xy_max=(6, 6)))
        assert len(scene.boxes) == 0
        rng = np.random.default_rng(8)
        pose = Pose((0.0, 0.0, 2.0), tuple(synth.random_unit_quaternion(rng)))
        cloud = _assert_same_scan(scene, pose, SMALL_SENSOR)
        assert len(cloud) > 0

    def test_every_box_beyond_max_range(self):
        # the range cull keeps no cover sphere: the scan holds the ground
        # and the trunk only
        far = [OrientedBox([50.0, 0.0, 2.0], [0.5, 0.5, 0.5], np.eye(3),
                           np.arange(1, 7)),
               OrientedBox([0.0, -40.0, 1.0], [2.0, 0.1, 0.1], np.eye(3),
                           np.arange(7, 13))]
        trunk = VerticalCylinder([3.0, 1.0, 0.0], 3.0, 0.3, label=0)
        rng = np.random.default_rng(21)
        for solids in (far, far + [trunk]):
            scene = Scene(solids, HeightFieldGround(0.2, 10.0))
            for cfg in (SMALL_SENSOR, replace(SMALL_SENSOR, max_range=8.0)):
                pose = Pose((0.0, 0.0, 2.0),
                            tuple(synth.random_unit_quaternion(rng)))
                cloud = _assert_same_scan(scene, pose, cfg)
                assert len(cloud) > 0 and (cloud.face_label == 0).all()

    def test_ray_parallel_to_box_faces(self):
        # the level channel's azimuth-0 ray runs along +x, parallel to the
        # y and z slabs: it grazes the +y face plane of the first box and
        # enters it through its -x face, and misses the second, whose y
        # slab it runs beside
        grazed = OrientedBox([5.0, -0.5, 2.0], [0.5, 0.5, 0.5], np.eye(3),
                             np.arange(1, 7))
        beside = OrientedBox([5.0, 0.6, 2.0], [4.0, 0.05, 0.5], np.eye(3),
                             np.arange(7, 13))
        cfg = synth.SensorConfig(v_resolution=3, h_resolution=8, v_fov_deg=10.0,
                                 noise_sigma=0.0)
        dirs, _, _ = synth.ray_grid(cfg)
        origin = np.array([0.0, 0.0, 2.0])
        assert np.array_equal(dirs[8], [1.0, 0.0, 0.0])
        hit, t, face = ray_boxes(origin, dirs, pack_boxes([grazed, beside]),
                                 np.array([8, 8]), np.array([0, 1]))
        assert hit.tolist() == [0] and t[0] == 4.5 and face[0] == 0
        for scene in (Scene([grazed, beside]), Scene([beside, grazed])):
            cloud = _assert_same_scan(scene, Pose(tuple(origin)), cfg)
            along_x = np.flatnonzero((cloud.points[:, 1] == 0.0)
                                     & (cloud.points[:, 2] == 0.0))
            assert len(along_x) == 1
            assert cloud.face_label[along_x[0]] == 1

    def test_ray_box_matches_slab_reference(self):
        rng = np.random.default_rng(21)
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for trial in range(20):
            box = OrientedBox(rng.uniform(-2, 2, 3), rng.uniform(0.05, 1.5, 3),
                              quat_to_matrix(synth.random_unit_quaternion(rng)))
            origin = rng.uniform(-3, 3, 3)
            hit, t, face = ray_boxes(origin, dirs, pack_boxes([box]),
                                     np.arange(len(dirs)),
                                     np.zeros(len(dirs), dtype=np.intp))
            want_t, want_face = ray_box_slab(origin, dirs, box)
            assert np.array_equal(hit, np.flatnonzero(np.isfinite(want_t)))
            assert len(hit)
            assert np.array_equal(t.view(np.int64), want_t[hit].view(np.int64))
            assert np.array_equal(face, want_face[hit])

    @pytest.mark.parametrize("h_fov", [360.0, 200.0])
    def test_box_pairs_hold_every_hit(self, h_fov):
        # the broad phase may keep rays that miss, never a (ray, solid) pair
        # that hits: checked against every ray of every solid, with boxes,
        # trunks and canopies all around the sensor, one bar next to it and
        # one canopy whose bounding sphere holds it
        rng = np.random.default_rng(int(h_fov))
        cfg = synth.SensorConfig(v_resolution=24, h_resolution=90,
                                 h_fov_deg=h_fov, max_range=12.0)
        dirs_s, els, azs = synth.ray_grid(cfg)
        hits = {OrientedBox: 0, VerticalCylinder: 0, Ellipsoid: 0}
        for trial in range(6):
            pose = Pose(tuple(rng.uniform(-0.3, 0.3, 3)),
                        tuple(synth.random_unit_quaternion(rng)))
            origin = np.asarray(pose.translation)
            solids = []
            for _ in range(30):
                kind = rng.integers(3)
                c = rng.uniform(-6, 6, 3)
                if kind == 0:
                    solids.append(OrientedBox(
                        c, rng.uniform(0.03, 2.0, 3),
                        quat_to_matrix(synth.random_unit_quaternion(rng))))
                elif kind == 1:
                    solids.append(VerticalCylinder(c, rng.uniform(0.5, 4.0),
                                                   rng.uniform(0.05, 0.5)))
                else:
                    solids.append(Ellipsoid(c, rng.uniform(0.2, 2.0, 3)))
            solids.insert(trial, OrientedBox(
                [0.0, 0.0, 0.0], [2.0, 0.1, 0.1],
                quat_to_matrix(synth.random_unit_quaternion(rng))))
            # the sensor lies inside this canopy's bounding sphere, outside
            # the canopy itself
            canopy = Ellipsoid(origin + [0.6, 0.0, 0.0], [0.4, 0.4, 1.0])
            assert np.linalg.norm(origin - canopy.center) <= \
                canopy.bounding_radius
            solids.insert(2 * trial, canopy)
            scene = Scene(solids)
            R = pose.rotation_matrix()
            dirs_w = dirs_s @ R.T
            ray, solid = synth._solid_pairs(scene, R, origin, els, azs,
                                            cfg.max_range)
            assert (np.diff(solid) >= 0).all()
            kept = set(zip(solid.tolist(), ray.tolist()))
            for j, s in enumerate(solids):
                if isinstance(s, OrientedBox):
                    t, _ = ray_box_slab(origin, dirs_w, s)
                else:
                    t, _ = intersect_solid(origin, dirs_w, s)
                for r in np.flatnonzero(t <= cfg.max_range + 1.0):
                    assert (j, r) in kept, (trial, j, r)
                    hits[type(s)] += 1
        assert min(hits.values()) > 100, hits

    def test_cover_contains_its_box(self):
        # every surface sample of a random box, corners included, lies in
        # one of the box's cover spheres
        rng = np.random.default_rng(13)
        boxes = [OrientedBox(rng.uniform(-10, 10, 3),
                             np.exp(rng.uniform(np.log(0.025), np.log(2.0), 3)),
                             quat_to_matrix(synth.random_unit_quaternion(rng)))
                 for _ in range(200)]
        cover = Scene(boxes).cover
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)], dtype=float)
        for b, box in enumerate(boxes):
            local = rng.uniform(-1, 1, (400, 3))
            face_axis = rng.integers(0, 3, len(local))
            local[np.arange(len(local)), face_axis] = \
                rng.choice([-1.0, 1.0], len(local))
            local = np.vstack([local, signs]) * box.half_extents
            world = local @ box.rotation.T + box.center
            own = cover.solid == b
            dist = np.linalg.norm(world[:, None, :]
                                  - cover.center[own][None], axis=2)
            assert (dist <= cover.radius[own][None]).any(axis=1).all()


def _assert_stored_scan(scene, pose, cfg, seed=0, pcd=None):
    """The PCD of a scan (``pcd``, by default the bytes write_pcd makes of
    it) holds its float64 points rounded to float32, bit for bit, and its
    labels; the float64 scan is its per-solid reference's, bit for bit."""
    cloud = _assert_same_scan(scene, pose, cfg, seed)
    stored = tio.read_pcd(tio.write_pcd(cloud) if pcd is None else pcd)
    assert (stored.points.astype(np.float32).tobytes()
            == cloud.points.astype(np.float32).tobytes())
    assert np.array_equal(stored.face_label, cloud.face_label)
    return cloud


def _assert_bisection_bytes(scene, pose, cfg, seed=0):
    """The scan rounded to float32 is, bit for bit, the scan whose ground
    root is the bisection of ``ray_ground_stepwise``, rounded: the points
    generate writes do not depend on which sign change of f the root loop
    lands on."""
    got = synth.raycast_scan(scene, pose, cfg, seed=seed)
    want = raycast_scan_per_solid(scene, pose, cfg, seed,
                                  ground_root=ray_ground_stepwise)
    assert (got.points.astype(np.float32).tobytes()
            == want.points.astype(np.float32).tobytes())
    assert np.array_equal(got.face_label, want.face_label)
    return got


class TestFloat32Scan:
    """The points a PCD stores: the float64 scan rounded, and the scan of
    the bisection root rounded."""

    SENSOR = synth.SensorConfig(v_resolution=8, h_resolution=32,
                                v_fov_deg=60.0, noise_sigma=0.008)
    GROUND = HeightFieldGround(0.2, 10.0)
    POSE = Pose((0.3, -0.2, 2.0))

    @pytest.mark.parametrize("config", ["ortho", "crossed", "training"])
    def test_real_scans(self, config, tmp_path, monkeypatch):
        # the PCDs generate wrote
        scans = _dataset_scans(config, 6, tmp_path, monkeypatch)
        for i, (scene, pose, sensor, seed) in enumerate(scans):
            pcd = tmp_path / "clouds" / f"scan_{i:05d}.pcd"
            cloud = _assert_stored_scan(scene, pose, sensor, seed, pcd)
            assert (cloud.face_label == 0).sum() > 1000

    @settings(max_examples=40, deadline=None)
    @given(scene_seed=st.integers(0, 2 ** 16),
           pose_seed=st.integers(0, 2 ** 16),
           amplitude=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
           wavelength=st.floats(2.0, 20.0),
           noise_sigma=st.sampled_from([0.0, 0.008, 0.05]),
           min_range=st.floats(0.05, 3.0),
           max_range=st.floats(4.0, 30.0),
           height=st.floats(0.25, 4.0))
    def test_random_scenes(self, scene_seed, pose_seed, amplitude, wavelength,
                           noise_sigma, min_range, max_range, height):
        scene = Scene(_box_ring(seed=scene_seed).solids,
                      HeightFieldGround(amplitude, wavelength))
        rng = np.random.default_rng(pose_seed)
        pose = Pose((*rng.uniform(-1.0, 1.0, 2), height),
                    tuple(synth.random_unit_quaternion(rng)))
        cfg = synth.SensorConfig(v_resolution=16, h_resolution=64,
                                 min_range=min_range, max_range=max_range,
                                 noise_sigma=noise_sigma)
        _assert_stored_scan(scene, pose, cfg, seed=pose_seed)

    @pytest.mark.parametrize("config", ["ortho", "crossed", "training"])
    def test_bytes_of_the_bisection_root(self, config, tmp_path, monkeypatch):
        [(scene, pose, sensor, seed), _] = _dataset_scans(config, 8, tmp_path,
                                                          monkeypatch)
        cloud = _assert_bisection_bytes(scene, pose, sensor, seed)
        assert (cloud.face_label == 0).sum() > 1000

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(0.05, 0.5),
           wavelength=st.floats(1.0, 12.0),
           height=st.floats(0.5, 1.6),
           level=st.booleans(),
           noise_sigma=st.sampled_from([0.0, 0.008]),
           pose_seed=st.integers(0, 2 ** 16))
    def test_grazing_rays(self, amplitude, wavelength, height, level,
                          noise_sigma, pose_seed):
        # a sensor at 0.5-1.6 amplitudes over the ground: most rays meet it
        # at a grazing angle, where the computed f is flattest and the root
        # loop leans on its fallbacks
        ground = HeightFieldGround(amplitude, wavelength)
        rng = np.random.default_rng(pose_seed)
        quaternion = ((1.0, 0.0, 0.0, 0.0) if level
                      else tuple(synth.random_unit_quaternion(rng)))
        pose = Pose((*rng.uniform(-10.0, 10.0, 2), height * amplitude),
                    quaternion)
        cfg = synth.SensorConfig(v_resolution=32, h_resolution=128,
                                 noise_sigma=noise_sigma)
        _assert_bisection_bytes(Scene([], ground), pose, cfg, seed=pose_seed)
        # every float64 root closed its bracket: none was left at the cap
        dirs_s, _, _ = synth.ray_grid(cfg)
        dirs = dirs_s @ pose.rotation_matrix().T
        origin = np.asarray(pose.translation)
        t_upper = np.full(len(dirs), cfg.max_range + 1.0)
        t = ray_ground(origin, dirs, ground, t_upper)
        assert np.isfinite(t).sum() > 100
        _assert_closed(origin, dirs, ground, t)

    def _roots(self):
        """Rays of SENSOR at POSE and their float64 ground roots below
        max_range + 1, the t_upper of a ray that meets no solid."""
        dirs_s, _, _ = synth.ray_grid(self.SENSOR)
        dirs = dirs_s @ self.POSE.rotation_matrix().T
        origin = np.asarray(self.POSE.translation)
        t_upper = np.full(len(dirs), self.SENSOR.max_range + 1.0)
        return origin, dirs, ray_ground(origin, dirs, self.GROUND, t_upper)

    @pytest.mark.parametrize("bound", ["min_range", "max_range"])
    def test_crossing_on_a_range_bound(self, bound):
        # the bound one float below, at and one float above a ray's root:
        # that ray's bracket straddles the bound while it halves (max_range
        # moves t_upper to the bound + 1, which leaves the root where it is)
        _, _, root = self._roots()
        rays = np.flatnonzero(root < 25.0)
        assert len(rays) > 50
        scene = Scene([], self.GROUND)
        for r in rays[::len(rays) // 12]:
            for b in (np.nextafter(root[r], 0.0), root[r],
                      np.nextafter(root[r], np.inf)):
                cfg = replace(self.SENSOR, **{bound: b})
                _assert_stored_scan(scene, self.POSE, cfg, seed=int(r))

    def test_crossing_ties_a_solid(self):
        # a wall whose -x face runs, to within two floats, through a ray's
        # ground point: the ray's march bracket ends at t_upper == t_best,
        # its wall hit, and the ground root and the wall tie or part by a
        # float or two
        origin, dirs, root = self._roots()
        outcomes = set()
        for r in np.flatnonzero((root < 25.0) & (dirs[:, 0] > 0.3))[::3]:
            x, y = origin[:2] + root[r] * dirs[r, :2]
            for ulps in range(-2, 3):
                face = x + ulps * np.spacing(x)
                wall = OrientedBox([face + 0.05, y, 0.0], [0.05, 1.0, 1.0],
                                   np.eye(3), np.arange(1, 7))
                _, [t_wall], _ = ray_boxes(origin, dirs, pack_boxes([wall]),
                                           np.array([r]), np.array([0]))
                [tg] = ray_ground(origin, dirs[r:r + 1], self.GROUND,
                                  np.array([t_wall]))
                outcomes.add("ground" if tg < t_wall else
                             "tie" if tg == t_wall else "wall")
                _assert_stored_scan(Scene([wall], self.GROUND), self.POSE,
                                    self.SENSOR, seed=int(r))
        assert {"ground", "tie"} <= outcomes, outcomes


def _ground_f(origin, dirs, ground, t):
    """Signed height above the ground at t, in ray_ground's float operations."""
    ox, oy, oz = origin
    return (oz + t * dirs[:, 2]) - ground.height(ox + t * dirs[:, 0],
                                                  oy + t * dirs[:, 1])


def _assert_same_march(origin, dirs, ground, t_upper, t):
    """t has the hits and misses of ``ray_ground_stepwise``, its immediate
    contacts, and each root inside the reference root's march step."""
    want, step_lo, step_hi = ray_ground_stepwise(origin, dirs, ground,
                                                 t_upper, brackets=True)
    assert np.array_equal(np.isfinite(t), np.isfinite(want))
    stepped = ~np.isnan(step_lo)
    assert np.array_equal(t[~stepped], want[~stepped])
    assert ((step_lo <= t) & (t <= step_hi))[stepped].all()


def _assert_closed(origin, dirs, ground, t, where=""):
    """Each hit after the start sits on a sign change of f between two
    adjacent floats, which an early exit before its bracket closes, or a
    ray left open at the step cap, would not give."""
    ok = np.isfinite(t) & (t > 0.0)
    d, th = dirs[ok], t[ok]
    f_t = _ground_f(origin, d, ground, th)
    f_prev = _ground_f(origin, d, ground, np.nextafter(th, -np.inf))
    f_next = _ground_f(origin, d, ground, np.nextafter(th, np.inf))
    closed = ((f_t <= 0.0) & (f_prev > 0.0)) | ((f_t > 0.0) & (f_next <= 0.0))
    assert closed.all(), f"{where}: {np.flatnonzero(~closed)}"


@dataclass
class _CountingGround(HeightFieldGround):
    """A ground that counts the rows its surface is evaluated at."""

    rows: int = 0

    def height_in_place(self, x, y):
        self.rows += x.size
        return super().height_in_place(x, y)


class TestRayGround:
    GROUND = HeightFieldGround(amplitude=0.2, wavelength=10.0)

    def _call(self, origin, dirs, t_upper, ground=GROUND):
        origin = np.asarray(origin, dtype=np.float64)
        dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
        t_upper = np.full(len(dirs), float(t_upper))
        return ray_ground(origin, dirs, ground, t_upper)

    @pytest.mark.parametrize("config", ["training", "ortho"])
    def test_same_march_as_stepwise_reference(self, config, tmp_path,
                                              monkeypatch):
        # every ray of one real scan, with the t_upper raycast_scan passes:
        # a box field around the fixed sensor, and a pose inside the truss
        cfg = tio.load_config(CONFIGS / f"{config}.cfg")
        calls = []

        def recording(origin, dirs, ground, t_upper):
            calls.append((origin, dirs, ground, t_upper))
            return ray_ground(origin, dirs, ground, t_upper)

        monkeypatch.setattr(synth, "ray_ground", recording)
        synth.generate_dataset(cfg.scene, 1, 3, tmp_path, sensor=cfg.sensor)
        [(origin, dirs, ground, t_upper)] = calls
        assert len(dirs) == cfg.sensor.v_resolution * cfg.sensor.h_resolution
        got = ray_ground(origin, dirs, ground, t_upper)
        assert np.isfinite(got).sum() > 1000
        _assert_same_march(origin, dirs, ground, t_upper, got)
        _assert_closed(origin, dirs, ground, got)

    def test_origin_below_surface_is_immediate_contact(self):
        # height(2.5, 2.5) = 0.2: an origin at z = 0.1 is inside the band
        # and below the surface, so every ray touches at its start
        dirs = [(0, 0, -1), (0, 0, 1), (1, 0, 0), (0.6, 0, -0.8)]
        t = self._call((2.5, 2.5, 0.1), dirs, 10.0)
        assert np.array_equal(t, np.zeros(4))

    def test_level_ray_inside_band(self):
        # along y = 2.5 the surface is 0.2 sin(2 pi x / 10); z = 0.1 is
        # reached at x = 5/6
        for dz in (0.0, 1e-13):
            t = self._call((0.0, 2.5, 0.1), (1.0, 0.0, dz), 10.0)
            assert abs(t[0] - 5.0 / 6.0) <= 1e-12

    def test_level_ray_outside_band_misses(self):
        for z in (0.5, -0.5):
            t = self._call((0.0, 2.5, z), (1.0, 0.0, 0.0), 100.0)
            assert t[0] == np.inf

    def test_ray_never_entering_band_misses(self):
        # pointing up from above the band, and pointing down but capped
        # by t_upper before reaching it
        assert self._call((0, 0, 2.0), (0, 0.6, 0.8), 50.0)[0] == np.inf
        assert self._call((0, 0, 2.0), (0, 0, -1.0), 1.7)[0] == np.inf

    def test_crossing_in_last_partial_step(self):
        # march steps of 0.05 reach ~0.80; the crossing at 5/6 lies in the
        # partial step up to t_upper = 0.84, and beyond t_upper = 0.83
        origin, d = (0.0, 2.5, 0.1), (1.0, 0.0, 0.0)
        assert abs(self._call(origin, d, 0.84)[0] - 5.0 / 6.0) <= 1e-12
        assert self._call(origin, d, 0.83)[0] == np.inf

    def test_unbounded_level_march_raises(self):
        # a level ray inside the band whose surface never rises to it: with
        # an infinite t_upper the march would never end
        with pytest.raises(NonFiniteError):
            self._call((0.0, 0.0, 0.1), (1.0, 0.0, 0.0), np.inf)
        # rays that leave the band stay bounded by it
        t = self._call((0.0, 2.5, 2.0), (0.6, 0.0, -0.8), np.inf)
        assert np.isfinite(t[0])

    def test_march_that_cannot_step_raises(self):
        # from 2**47 on, a 0.05 step is within rounding of t: the grid
        # lo + j step stops advancing, and a march there would never end.
        # A band 2e300 deep with an infinite t_upper reaches that far
        with pytest.raises(NonFiniteError, match="cannot step"):
            ray_ground(np.array((0.0, 0.0, 1e300)),
                       np.array([(0.6, 0.0, -0.8)]),
                       HeightFieldGround(1e300, 10.0), np.array([np.inf]))
        # the bound itself: a level ray starting below the surface
        below = (0.0, 0.0, -0.05)
        assert self._call(below, (1.0, 0.0, 0.0), 2.0**47 - 1.0)[0] == 0.0
        with pytest.raises(NonFiniteError, match="cannot step"):
            self._call(below, (1.0, 0.0, 0.0), 2.0**47)

    def test_flat_ground_solved_exactly(self):
        flat = HeightFieldGround(amplitude=0.0)
        dirs = np.array([(0, 0, -1.0), (0.0, 0.28, -0.96), (0.6, 0.0, -0.8),
                         (0.6, 0.0, 0.8), (1.0, 0.0, 0.0)])
        t = self._call((0.3, -0.2, 2.0), dirs, 2.4, ground=flat)
        assert np.array_equal(t[:2], -2.0 / dirs[:2, 2])
        # beyond t_upper, pointing up, level
        assert np.array_equal(t[2:], np.full(3, np.inf))

    @pytest.mark.parametrize("z", [1e-310, 5e-324])
    def test_subnormal_start_height(self, z):
        # f(lo) starts subnormal, and halving it would reach 0 beside an
        # f(hi) of 0: the secant quotient would be 0/0, a RuntimeWarning
        # (an error under pytest) and a NaN step
        rng = np.random.default_rng(2)
        origin = np.array([0.0, 5.0, z])
        dirs = rng.normal(size=(2000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        t_upper = np.full(len(dirs), 30.0)
        t = ray_ground(origin, dirs, self.GROUND, t_upper)
        assert np.isfinite(t).sum() > 900
        _assert_same_march(origin, dirs, self.GROUND, t_upper, t)

    @pytest.mark.parametrize("wavelength", [10.0, 2.5])
    def test_random_rays_bracket_closed(self, wavelength):
        # the march steps, hits and misses of the stepwise reference, and
        # each non-immediate hit on a sign change of f between two adjacent
        # floats
        ground = HeightFieldGround(amplitude=0.2, wavelength=wavelength)
        rng = np.random.default_rng(11)
        for trial in range(8):
            # odd trials start inside the |z| <= 0.2 band, where level rays
            # can hit and origins below the surface touch at t = 0
            z = rng.uniform(-0.2, 0.2) if trial % 2 else rng.uniform(0.3, 3.0)
            origin = np.append(rng.uniform(-20, 20, 2), z)
            dirs = rng.normal(size=(500, 3))
            dirs[:, 2] = -np.abs(dirs[:, 2])
            dirs[:50, 2] = 0.0                      # level rays
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            t_upper = rng.uniform(1.0, 40.0, len(dirs))
            t = ray_ground(origin, dirs, ground, t_upper)
            _assert_same_march(origin, dirs, ground, t_upper, t)
            ok = np.isfinite(t) & (t > 0.0)
            assert (t[ok] < t_upper[ok]).all()
            _assert_closed(origin, dirs, ground, t, f"trial {trial}")

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e),
           wavelength=st.floats(2.0, 100.0),
           start=st.sampled_from(["inside", "above", "below"]),
           height=st.floats(0.0, 1.0),
           ray_seed=st.integers(0, 2 ** 32 - 1))
    def test_certified_march_on_random_grounds(self, amplitude, wavelength,
                                               start, height, ray_seed):
        # level, grazing and steep rays, up and down, from inside, above or
        # below the band: the march steps, hits and misses of the stepwise
        # reference, which evaluates every grid point
        ground = HeightFieldGround(amplitude, wavelength)
        z = {"inside": amplitude * (2.0 * height - 1.0),
             "above": amplitude + 3.0 * height,
             "below": -amplitude - 3.0 * height}[start]
        rng = np.random.default_rng(ray_seed)
        origin = np.append(rng.uniform(-50.0, 50.0, 2), z)
        n = 40
        sign = rng.choice([-1.0, 1.0], 3 * n)
        el = np.concatenate([np.zeros(n),                            # level
                             10.0 ** rng.uniform(-6.0, -1.3, n),     # grazing
                             rng.uniform(0.05, np.pi / 2, n)]) * sign
        az = rng.uniform(0.0, 2.0 * np.pi, 3 * n)
        dirs = np.column_stack([np.cos(el) * np.cos(az),
                                np.cos(el) * np.sin(az), np.sin(el)])
        t_upper = rng.uniform(0.5, 20.0, 3 * n)
        t = ray_ground(origin, dirs, ground, t_upper)
        _assert_same_march(origin, dirs, ground, t_upper, t)
        if start != "below":        # from below, every hit is at band entry
            _assert_closed(origin, dirs, ground, t)

    def test_crest_touched_at_one_grid_point(self):
        # a level ray along the crest line y = 2.5 from the trough x = -2.5,
        # at the height of the crest on grid point 100: f falls from 2A to
        # exactly 0 there and rises again. The march proves most of the way
        # positive and still stops at that one point; a bound without the
        # A k term (0 for a level ray) passes it
        ground = _CountingGround(0.2, 10.0)
        crest = min(0.0 + 100 * 0.05, 10.0)
        z = ground.height(np.array([-2.5 + crest]), np.array([2.5]))[0]
        origin = np.array([-2.5, 2.5, z])
        dirs = np.array([[1.0, 0.0, 0.0]])
        t_upper = np.array([10.0])
        ground.rows = 0
        t = ray_ground(origin, dirs, ground, t_upper)
        # f is evaluated at 13 of the 101 grid points up to the crest, and
        # at the root loop's 57 points inside the crossing step: 70 rows,
        # against 158 for a march that evaluates every grid point
        assert ground.rows <= 80
        assert crest - 0.05 < t[0] <= crest
        _assert_same_march(origin, dirs, ground, t_upper, t)

    def test_far_crossing_at_full_slope(self):
        # a level ray along the crest line y = w / 4, 1e13 from the origin,
        # falls through f = 0 where f = -A sin(kx) is as steep as the bound
        # L. There x carries ~1e-3 of rounding, the computed f strays from
        # the exact one by ~1e-6, more than the inflated L leaves over, and
        # a certificate without the margin passes the crossing grid point
        ground = HeightFieldGround(0.2, 1000.0)
        origin = np.array([1e13 - 2.05, 250.0, 0.0])
        dirs = np.array([[1.0, 0.0, 0.0]])
        t_upper = np.array([4.0])
        t = ray_ground(origin, dirs, ground, t_upper)
        assert 2.0 < t[0] < 2.05
        _assert_same_march(origin, dirs, ground, t_upper, t)


class TestSurfaceBits:
    """What the certified march's bit identity rests on: a row's surface
    value has the same bits alone, in a batch of any size and at any
    offset, as the march's rounds and compaction change both (numpy's SIMD
    ``np.sin`` loops must agree with their scalar tails)."""

    def test_row_alone_in_any_batch(self):
        ground = HeightFieldGround(0.2, 10.0)
        rng = np.random.default_rng(5)
        x = rng.uniform(-60.0, 60.0, 400)
        y = rng.uniform(-60.0, 60.0, 400)
        x[::7] *= 1e9                       # large arguments: range reduction
        whole = ground.height(x, y)
        for i in range(len(x)):
            assert ground.height(x[i:i + 1], y[i:i + 1]).tobytes() \
                == whole[i:i + 1].tobytes()
        for size in (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 127, 250):
            for offset in range(9):
                bx, by = np.empty(offset + size), np.empty(offset + size)
                bx[offset:], by[offset:] = x[offset:offset + size], \
                    y[offset:offset + size]
                got = ground.height_in_place(bx[offset:], by[offset:])
                assert got.tobytes() == whole[offset:offset + size].tobytes()


class TestDegenerateGrounds:
    """raycast_scan and ray_ground over valid but degenerate grounds: no
    RuntimeWarning escapes, and an error raised is a TrussKitError."""

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.sampled_from(["zero", "tiny", "over the sensor",
                                      "1e300", "1.7e308"]),
           wavelength=st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
           sensor_z=st.sampled_from(["top edge", "bottom edge", "above"]),
           v_resolution=st.sampled_from([1, 3, 9]),
           level=st.booleans(),
           max_range=st.floats(1.0, 40.0),
           noise_sigma=st.sampled_from([0.0, 0.008]),
           pose_seed=st.integers(0, 2 ** 16))
    # the band interval (-A - oz) / dz overflows, and on a band edge so does
    # f, where oz - A sin sin reaches 2A
    @example("1.7e308", 10.0, "above", 3, False, 20.0, 0.0, 0)
    @example("1.7e308", 10.0, "top edge", 3, False, 20.0, 0.0, 0)
    @example("1e300", 10.0, "bottom edge", 3, True, 20.0, 0.0, 0)
    def test_no_warning_and_typed_errors(self, amplitude, wavelength, sensor_z,
                                         v_resolution, level, max_range,
                                         noise_sigma, pose_seed):
        rng = np.random.default_rng(pose_seed)
        z = rng.uniform(0.5, 3.0)
        A = {"zero": 0.0, "tiny": 1e-300,
             "over the sensor": z * rng.uniform(1.0, 10.0),
             "1e300": 1e300, "1.7e308": 1.7e308}[amplitude]
        z = {"top edge": A, "bottom edge": -A, "above": z}[sensor_z]
        ground = HeightFieldGround(A, wavelength)
        quaternion = ((1.0, 0.0, 0.0, 0.0) if level
                      else tuple(synth.random_unit_quaternion(rng)))
        pose = Pose((*rng.uniform(-20.0, 20.0, 2), z), quaternion)
        cfg = synth.SensorConfig(v_resolution=v_resolution, h_resolution=24,
                                 max_range=max_range, noise_sigma=noise_sigma)
        dirs = synth.ray_grid(cfg)[0] @ pose.rotation_matrix().T
        origin = np.asarray(pose.translation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = synth.raycast_scan(Scene([], ground), pose, cfg,
                                       seed=pose_seed)
            assert np.isfinite(cloud.points).all()
            for t_upper in (max_range + 1.0, np.inf):
                try:
                    t = ray_ground(origin, dirs, ground,
                                   np.full(len(dirs), t_upper))
                except TrussKitError:
                    continue
                assert not np.isnan(t).any()


class TestGenerateDataset:
    def test_reproducible_bytes(self, tmp_path):
        spec = synth.SceneSpec(structure=synth.TrussSpec((2, 2, 3)),
                               tree_count=2, seed=6)
        a, b = tmp_path / "a", tmp_path / "b"
        synth.generate_dataset(spec, 3, 42, a, sensor=SMALL_SENSOR)
        synth.generate_dataset(spec, 3, 42, b, sensor=SMALL_SENSOR)
        files_a = sorted((a / "clouds").glob("*.pcd"))
        assert len(files_a) == 3
        for fa in files_a:
            fb = b / "clouds" / fa.name
            assert fa.read_bytes() == fb.read_bytes()
        assert (a / "manifest.json-lines").read_text() == \
            (b / "manifest.json-lines").read_text()

    def test_manifest_records(self, tmp_path):
        spec = synth.SceneSpec(seed=1)
        recs = synth.generate_dataset(spec, 2, 7, tmp_path,
                                      sensor=SMALL_SENSOR)
        lines = (tmp_path / "manifest.json-lines").read_text().splitlines()
        assert len(lines) == 2
        for line, rec in zip(lines, recs):
            loaded = json.loads(line)
            assert loaded == rec
            assert set(loaded) == {"file", "seed", "pose", "spec_hash"}
            assert (tmp_path / loaded["file"]).exists()

    def test_training_style_labels(self, tmp_path):
        from trusskit import io as tio
        spec = synth.SceneSpec(tree_count=3, seed=2,
                               sensor_position=(0, 0, 1.5),
                               boxes=synth.BoxFieldSpec(
                                   count=10,
                                   position_min=(-6, -6, 0),
                                   position_max=(6, 6, 3)))
        synth.generate_dataset(spec, 1, 11, tmp_path, sensor=SMALL_SENSOR)
        cloud = tio.read_pcd(tmp_path / "clouds" / "scan_00000.pcd")
        assert len(cloud) > 50
        assert (cloud.face_label >= 0).all()
        assert cloud.truss_mask.any()          # boxes labeled >= 1
        assert (~cloud.truss_mask).any()       # ground/trees labeled 0

    def test_structure_scene_built_once(self, tmp_path, monkeypatch):
        # an unchanged SceneSpec reuses its scene; a box field draws a new
        # world per scan and is built for each
        builds = []

        def counting(spec):
            builds.append(spec)
            return build(spec)

        build = synth.build_scene
        monkeypatch.setattr(synth, "build_scene", counting)
        synth._scene_for.cache_clear()
        spec = synth.SceneSpec(structure=synth.TrussSpec((2, 2, 3)),
                               tree_count=2, seed=6)
        synth.generate_dataset(spec, 3, 42, tmp_path / "a", sensor=SMALL_SENSOR)
        synth.generate_dataset(spec, 2, 43, tmp_path / "b", sensor=SMALL_SENSOR)
        assert builds == [spec]
        fresh = tmp_path / "fresh"
        synth._scene_for.cache_clear()
        synth.generate_dataset(spec, 3, 42, fresh, sensor=SMALL_SENSOR)
        for f in sorted((tmp_path / "a" / "clouds").glob("*.pcd")):
            assert f.read_bytes() == (fresh / "clouds" / f.name).read_bytes()

        builds.clear()
        boxes = replace(spec, structure=None, boxes=synth.BoxFieldSpec(count=4))
        synth.generate_dataset(boxes, 3, 42, tmp_path / "c", sensor=SMALL_SENSOR)
        assert len(builds) == 3 and len({b.seed for b in builds}) == 3

    def test_scene_seed_shapes_the_box_worlds(self, tmp_path, monkeypatch):
        # each scan's drawn world seed is XORed with [scene] seed: 0 keeps
        # it (the bytes of every seed-0 dataset made before), 7 changes it
        built = []

        def recording(spec):
            built.append(spec.seed)
            return build(spec)

        build = synth.build_scene
        monkeypatch.setattr(synth, "build_scene", recording)
        synth._scene_for.cache_clear()
        spec = synth.SceneSpec(tree_count=2, boxes=synth.BoxFieldSpec(count=6))
        for seed in (0, 7):
            synth.generate_dataset(replace(spec, seed=seed), 2, 42,
                                   tmp_path / str(seed), sensor=SMALL_SENSOR)
        drawn = [int(np.random.SeedSequence(42, spawn_key=(i,)).spawn(3)[0]
                     .generate_state(1, np.uint64)[0]) for i in range(2)]
        assert built == drawn + [d ^ 7 for d in drawn]
        for i in range(2):
            scan = f"clouds/scan_{i:05d}.pcd"
            assert (tmp_path / "0" / scan).read_bytes() != \
                (tmp_path / "7" / scan).read_bytes()

    @pytest.mark.parametrize("clear_at", [1, 4, None])
    def test_pose_is_the_first_clear_draw(self, tmp_path, monkeypatch,
                                          clear_at):
        # one draw per clearance test from the scan's pose stream; with no
        # clear draw in 201, the last one stands
        calls, checked = [], []
        draw = synth.sample_sensor_pose

        def recording(mode, bounds, rng):
            calls.append((mode, bounds, draw(mode, bounds, rng)))
            return calls[-1][2]

        def clearance(scene, position):
            checked.append(position)
            return len(checked) == clear_at

        monkeypatch.setattr(synth, "sample_sensor_pose", recording)
        monkeypatch.setattr(synth, "pose_has_clearance", clearance)
        spec = synth.SceneSpec(structure=synth.TrussSpec((2, 2, 3)))
        [rec] = synth.generate_dataset(spec, 1, 42, tmp_path,
                                       sensor=SMALL_SENSOR)
        assert len(calls) == len(checked) == (clear_at or 201)
        root = np.random.SeedSequence(entropy=42, spawn_key=(0,))
        stream = np.random.default_rng(root.spawn(3)[1])
        for mode, bounds, pose in calls:
            assert mode == synth.WITHIN_STRUCTURE_MODE
            assert draw(mode, bounds, stream) == pose
        assert rec["pose"] == {"translation": list(pose.translation),
                               "quaternion": list(pose.quaternion)}

    def test_clearance_matches_per_solid_test(self):
        spec = synth.SceneSpec(structure=synth.TrussSpec((3, 3, 3), crossed=True),
                               tree_count=4, tree_xy_min=(-5, -5),
                               tree_xy_max=(5, 5), seed=3)
        scene = synth.build_scene(spec)
        rng = np.random.default_rng(5)
        points = rng.uniform([-3, -3, 0], [3, 3, 4.5], (400, 3))
        verdicts = []
        for p in points:
            want = True
            for solid in scene.solids:
                if isinstance(solid, OrientedBox):
                    local = np.abs(solid.rotation.T @ (p - solid.center))
                    want &= not (local <= solid.half_extents + 0.2).all()
            if want:        # trunks and canopies are tested as before
                want = synth.pose_has_clearance(Scene(
                    [s for s in scene.solids if not isinstance(s, OrientedBox)]), p)
            assert synth.pose_has_clearance(scene, p) == want
            verdicts.append(want)
        assert 50 < sum(verdicts) < 350
