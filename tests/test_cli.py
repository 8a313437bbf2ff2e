import contextlib
import io
import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from trusskit import cli, geom, segment
from trusskit import io as tio
from trusskit import metrics as tmetrics
from trusskit.geom import LabeledCloud
from test_acceptance import _reduced_scan
from helpers import ascii_pcd
from test_io import MALFORMED_PCDS
from test_segment import thread_settings

TINY = ["--set", "sensor.v_resolution=8", "--set", "sensor.h_resolution=32"]


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def make_tiny_dataset(tmp_path, n=2, seed=5) -> Path:
    out = tmp_path / "data"
    rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                   "--set", "scene.tree_count=2",
                   "--out", str(out), "--n", str(n), "--seed", str(seed)])
    assert rc == 0
    return out


def segment_one_counting_threads(task):
    """``cli._segment_one`` in a pool worker, and the names of the threads
    the worker started meanwhile."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    threading.Thread.start = counting
    try:
        return cli._segment_one(task), started
    finally:
        threading.Thread.start = start


class TestGenerate:
    def test_deterministic_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                           "--out", str(out), "--n", "3", "--seed", "7"])
            assert rc == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, "1"), (b, "2")):
            rc = cli.main(["generate", "--config", "configs/training.cfg",
                           *TINY, "--set", "boxes.count=6",
                           "--out", str(out), "--n", "4", "--seed", "3",
                           "--jobs", jobs])
            assert rc == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_jobs_do_not_change_truss_bytes(self, tmp_path):
        # a crossed truss scene with trees, built once in each worker
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, "1"), (b, "2")):
            rc = cli.main(["generate", "--config", "configs/crossed.cfg",
                           *TINY, "--set", "truss.node_counts=4 3 3",
                           "--out", str(out), "--n", "3", "--seed", "3",
                           "--jobs", jobs])
            assert rc == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_scans_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--config", "configs/ortho.cfg",
                      "--out", "x", "--n", "0"])
        assert exc.value.code == 2

    def test_ortho_config_reproduces_footprint(self):
        cfg = tio.load_config("configs/ortho.cfg")
        assert cfg.scene.structure.spans == (10.0, 8.0, 18.0)
        cfg = tio.load_config("configs/crossed.cfg")
        assert cfg.scene.structure.spans == (40.0, 8.0, 4.0)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("TRUSSKIT_SEED", "7")
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--out", str(a), "--n", "1"])
        assert rc == 0
        monkeypatch.delenv("TRUSSKIT_SEED")
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--out", str(b), "--n", "1", "--seed", "7"])
        assert rc == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_env_seed_not_an_integer_is_error(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setenv("TRUSSKIT_SEED", "x")
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: TRUSSKIT_SEED='x'")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("value", ["abc", "-3", "0"])
    def test_env_jobs_not_a_positive_integer_is_error(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      value):
        monkeypatch.setenv("TRUSSKIT_JOBS", value)
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: TRUSSKIT_JOBS={value!r}")
        assert not (tmp_path / "a").exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                      "--out", str(tmp_path / "a"), "--n", "1",
                      "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_negative_env_seed_is_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRUSSKIT_SEED", "-1")
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: TRUSSKIT_SEED='-1': seed must be >= 0\n"
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("section", ["dataset", "scene"])
    def test_negative_config_seed_is_error(self, tmp_path, capsys, section):
        rc = cli.main(["generate", "--config", "configs/ortho.cfg", *TINY,
                       "--set", f"{section}.seed=-1",
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: [{section}] seed must be >= 0\n"
        assert not (tmp_path / "a").exists()

    def test_no_output_directory_is_error(self, capsys):
        rc = cli.main(["generate", *TINY, "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: no output directory (use --out or dataset.out_dir)\n"

    def test_spec_hash_covers_the_sensor_position(self, tmp_path):
        # the fixed sensor position of a box-field scene is a [scene] key,
        # so a dataset scanned from elsewhere carries another spec hash
        manifests, clouds = {}, {}
        for position in ("0 0 2", "0 0 3", None):
            out = tmp_path / str(position)
            where = ["--set", f"scene.sensor_position={position}"] \
                if position else []
            assert cli.main(["generate", "--config", "configs/training.cfg",
                             *TINY, "--set", "boxes.count=6", *where,
                             "--out", str(out), "--n", "2",
                             "--seed", "3"]) == 0
            lines = (out / "manifest.json-lines").read_text().splitlines()
            manifests[position] = [json.loads(line) for line in lines]
            clouds[position] = tree_bytes(out / "clouds")
        hashes = {position: {rec["spec_hash"] for rec in records}
                  for position, records in manifests.items()}
        assert all(len(h) == 1 for h in hashes.values())
        assert hashes["0 0 2"] != hashes["0 0 3"]
        assert clouds["0 0 2"] != clouds["0 0 3"]
        # training.cfg sets 0 0 2
        assert manifests[None] == manifests["0 0 2"]
        assert clouds[None] == clouds["0 0 2"]


class TestConfigOverrides:
    @pytest.mark.parametrize("override, message", [
        ("pipeline.ransac_iterations=0",
         "[pipeline] ransac_iterations must be >= 1"),
        ("pipeline.rg_angle_threshold_deg=90",
         "[pipeline] angle threshold must be in (0, 90) degrees"),
        ("pipeline.rg_curvature_threshold=-1",
         "[pipeline] curvature threshold must be >= 0"),
        ("pipeline.rg_min_cluster=0",
         "[pipeline] rg_min_cluster must be >= 1"),
        ("pipeline.density_min_points=-1",
         "[pipeline] density_min_points must be >= 0"),
        ("sensor.min_range=40", "[sensor] need 0 < min_range < max_range"),
        ("sensor.v_fov_deg=181", "[sensor] vertical FOV must be in (0, 180]"),
        ("sensor.h_fov_deg=0", "[sensor] horizontal FOV must be in (0, 360]"),
        ("sensor.noise_sigma=-1", "[sensor] noise sigma must be >= 0"),
        ("truss.bar_length=0", "[truss] bar dimensions must be positive"),
        ("truss.bar_width=3",
         "[truss] bar width must be smaller than bar length"),
        ("truss.label_mode=x", "[truss] unknown label mode 'x'"),
        ("boxes.count=-1", "[boxes] box count must be >= 0"),
        ("boxes.length_bounds=2 1",
         "[boxes] box dimension bounds must satisfy 0 < lo <= hi"),
        ("boxes.position_min=20 20 20",
         "[boxes] box placement bounds are ill-ordered"),
        ("scene.tree_count=-1", "[scene] tree count must be >= 0"),
        ("scene.tree_scale_bounds=2 1",
         "[scene] tree scale bounds must satisfy 0 < lo <= hi"),
        ("scene.tree_xy_min=30 30",
         "[scene] tree placement bounds are ill-ordered"),
        ("scene.ground_amplitude=-1", "[scene] ground amplitude must be >= 0"),
        ("scene.ground_wavelength=0",
         "[scene] ground wavelength must be positive"),
        ("dataset.n_scans=0", "[dataset] n_scans must be >= 1"),
    ])
    def test_range_error_is_refused(self, tmp_path, capsys, override,
                                    message):
        rc = cli.main(["generate", *TINY, "--set", override,
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "a").exists()

    # not config keys: the noise seed is raycast_scan's argument, the
    # worker count comes from --jobs, the sensor position is a [scene] key,
    # and the variant is chosen per command (segment --mode, sweep)
    @pytest.mark.parametrize("override", [
        "sensor.seed=3", "dataset.jobs=2", "dataset.sensor_position=0 0 3",
        "pipeline.eigen_mode=ratio", "pipeline.stage_mode=full"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, override):
        section, key = override.split("=")[0].split(".")
        rc = cli.main(["generate", *TINY, "--set", override,
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: [{section}] unknown key {key!r}\n"
        assert not (tmp_path / "a").exists()

    def test_set_without_equals_is_error(self, tmp_path, capsys):
        rc = cli.main(["generate", *TINY, "--set", "sensor.v_resolution",
                       "--out", str(tmp_path / "a"), "--n", "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: override 'sensor.v_resolution' must be " \
            "section.key=value\n"
        assert not (tmp_path / "a").exists()


class TestOneValueRule:
    """A [dataset] value is read and checked alike whether a flag, the
    environment, ``--set`` or the config file gives it."""

    BASE = [*TINY, "--set", "scene.tree_count=2"]
    FLAGS = {"seed": "--seed", "n_scans": "--n"}

    def given(self, tmp_path, monkeypatch, where, **values):
        """The argv that sets each ``[dataset]`` key of ``values`` from
        ``where``: ``flag``, ``env`` (the seed only), ``set`` or ``file``."""
        if where == "file":
            path = tmp_path / "run.cfg"
            path.write_text("[dataset]\n" + "".join(
                f"{key} = {text}\n" for key, text in values.items()))
            return ["--config", str(path)]
        argv = []
        for key, text in values.items():
            if where == "env":
                assert key == "seed"
                monkeypatch.setenv("TRUSSKIT_SEED", text)
            else:
                argv += [self.FLAGS[key], text] if where == "flag" \
                    else ["--set", f"dataset.{key}={text}"]
        return argv

    @pytest.mark.parametrize("where", ["flag", "env", "set", "file"])
    def test_integral_spellings_make_one_dataset(self, tmp_path, monkeypatch,
                                                where):
        want, other = tmp_path / "want", tmp_path / "other"
        for out, seed in ((want, "5"), (other, "6")):
            assert cli.main(["generate", *self.BASE, "--out", str(out),
                             "--n", "2", "--seed", seed]) == 0
        assert tree_bytes(other) != tree_bytes(want)
        for seed, n in [("5", "2"), ("5.0", "2.0"), ("5e0", "2e0"),
                        ("0.5e1", "20e-1")]:
            out = tmp_path / f"{where}-{seed}"
            # no variable sets n_scans, so the env case takes --n
            values = {"seed": seed} if where == "env" else \
                {"seed": seed, "n_scans": n}
            argv = self.given(tmp_path, monkeypatch, where, **values)
            if where == "env":
                argv += ["--n", n]
            assert cli.main(["generate", *argv, *self.BASE,
                             "--out", str(out)]) == 0
            assert tree_bytes(out) == tree_bytes(want), (seed, n)

    @pytest.mark.parametrize("where, key", [
        ("flag", "seed"), ("flag", "n_scans"), ("env", "seed"),
        ("set", "seed"), ("set", "n_scans"), ("file", "seed"),
        ("file", "n_scans")])
    @pytest.mark.parametrize("text, shown", [("5.5", "5.5"), ("true", "True"),
                                             ("x", "'x'")])
    def test_refused_value_names_its_source(self, tmp_path, monkeypatch,
                                            capsys, where, key, text, shown):
        out = tmp_path / "out"
        argv = ["generate", *self.given(tmp_path, monkeypatch, where,
                                        **{key: text}),
                *TINY, "--out", str(out)]
        reason = f"must be an integer, not {shown}"
        if where == "flag":
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"error: argument {self.FLAGS[key]}: {key} {reason}\n")
        else:
            assert cli.main(argv) == 1
            want = f"TRUSSKIT_SEED={text!r}: seed {reason}" \
                if where == "env" else f"[dataset] {key}: {reason}"
            assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_precedence(self, tmp_path, monkeypatch):
        # flag, then TRUSSKIT_SEED, then --set, then the file
        calls = []
        monkeypatch.setattr(cli, "generate_dataset",
                            lambda scene, n, seed, out, **kw:
                            calls.append((seed, n, out)) or [])
        path = tmp_path / "run.cfg"
        path.write_text("[dataset]\nseed = 1\nn_scans = 1\nout_dir = f\n")
        sources = [["--config", str(path)],
                   ["--set", "dataset.seed=2", "--set", "dataset.n_scans=2",
                    "--set", "dataset.out_dir=s"],
                   "3",
                   ["--seed", "4", "--n", "4", "--out", "o"]]
        want = [(1, 1, "f"), (2, 2, "s"), (3, 2, "s"), (4, 4, "o")]
        for used in range(1, 5):
            monkeypatch.delenv("TRUSSKIT_SEED", raising=False)
            argv = ["generate"]
            for source in sources[:used]:
                if isinstance(source, str):
                    monkeypatch.setenv("TRUSSKIT_SEED", source)
                else:
                    argv += source
            assert cli.main(argv) == 0
            assert calls[-1] == want[used - 1]

    @pytest.mark.parametrize("text", ["2", "2.0", "2e0", " 2 "])
    def test_jobs_take_integral_spellings(self, monkeypatch, text):
        args = cli.build_parser().parse_args(
            ["generate", "--jobs", text])
        assert type(args.jobs) is int and cli._jobs(args) == 2
        monkeypatch.setenv("TRUSSKIT_JOBS", text)
        args = cli.build_parser().parse_args(["generate"])
        assert args.jobs is None and cli._jobs(args) == 2

    @pytest.mark.parametrize("text, reason", [
        ("2.5", "must be an integer, not 2.5"),
        ("true", "must be an integer, not True"),
        ("x", "must be an integer, not 'x'"),
        ("0", "must be >= 1, not 0")])
    def test_refused_jobs_name_their_source(self, tmp_path, monkeypatch,
                                            capsys, text, reason):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--jobs", text])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --jobs: {reason}\n")
        monkeypatch.setenv("TRUSSKIT_JOBS", text)
        out = tmp_path / "out"
        assert cli.main(["generate", *TINY, "--out", str(out), "--n", "1"]) \
            == 1
        assert not out.exists()
        assert capsys.readouterr().err == \
            f"error: TRUSSKIT_JOBS={text!r}: {reason}\n"


class TestModeMap:
    def test_table_mode_names(self):
        assert cli.MODES["H"] == ("full", "hybrid")
        assert cli.MODES["R"] == ("full", "ratio")
        assert cli.MODES["M"] == ("full", "magnitude")
        assert cli.MODES["WF"][0] == "without_fine"
        assert cli.MODES["WC_M"] == ("without_coarse", "magnitude")
        assert cli.MODES["WC_R"] == ("without_coarse", "ratio")
        assert cli.MODES["WC_H"] == ("without_coarse", "hybrid")

    def test_unknown_mode_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["segment", "--in", str(tmp_path), "--out",
                      str(tmp_path / "o"), "--mode", "X"])
        assert exc.value.code == 2


class TestSegmentEvaluate:
    def test_segment_writes_predictions_and_latency(self, tmp_path):
        data = make_tiny_dataset(tmp_path)
        out = tmp_path / "pred"
        rc = cli.main(["segment", "--config", "configs/ortho.cfg",
                       "--in", str(data), "--out", str(out), "--mode", "H"])
        assert rc == 0
        preds = sorted(out.glob("*.pcd"))
        assert len(preds) == 2
        _, arrays = tio.read_pcd_arrays(preds[0])
        assert "pred" in arrays and "label" in arrays
        payload = json.loads(preds[0].with_suffix(".latency.json").read_text())
        assert payload["total_ms"] > 0

    def test_unreadable_scan_fails_only_itself(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path)
        (data / "clouds" / "bad.pcd").write_text("not a point cloud\n")
        out = tmp_path / "pred"
        capsys.readouterr()
        rc = cli.main(["segment", "--in", str(data), "--out", str(out),
                       "--mode", "H"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: bad.pcd: MalformedHeaderError: ")
        assert captured.err.count("\n") == 1
        assert captured.out.startswith("segmented 2/3 clouds (mode H)")
        assert sorted(p.name for p in out.glob("*.pcd")) == \
            ["scan_00000.pcd", "scan_00001.pcd"]

    def test_label_past_the_prediction_column_is_refused_by_name(
            self, tmp_path, capsys):
        # a U8 label column of 2**32 + face label: the prediction's U4
        # label column cannot hold it
        data = make_tiny_dataset(tmp_path, n=1)
        scan = data / "clouds" / "scan_00000.pcd"
        header, arrays = tio.read_pcd_arrays(scan)
        tio.write_pcd_fields(
            [*((axis, "F", 4, arrays[axis]) for axis in "xyz"),
             ("label", "U", 8, arrays["label"].astype(np.uint64) + 2**32)],
            header.viewpoint, scan)
        out = tmp_path / "pred"
        capsys.readouterr()
        rc = cli.main(["segment", "--config", "configs/ortho.cfg",
                       "--in", str(data), "--out", str(out), "--mode", "H"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: scan_00000.pcd: FieldRangeError: field 'label' holds a "
            "value that does not fit U4\n")
        assert not list(out.glob("*.pcd"))

    def test_huge_coordinates_are_refused_by_name(self, tmp_path, capsys):
        # float64 coordinates at 1e200 once overflowed the kd-tree's
        # squared distances, which ended in a raw IndexError
        pts = np.random.default_rng(2).uniform(-5.0, 5.0, (3000, 3)) * 1e200
        pts[:, 2] *= 1e-3
        head = ("VERSION .7\nFIELDS x y z\nSIZE 8 8 8\nTYPE F F F\n"
                f"COUNT 1 1 1\nWIDTH {len(pts)}\nHEIGHT 1\n"
                f"POINTS {len(pts)}\nDATA binary\n")
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "a.pcd").write_bytes(
            head.encode() + pts.astype("<f8").tobytes())
        capsys.readouterr()
        rc = cli.main(["segment", "--in", str(tmp_path / "in"),
                       "--out", str(tmp_path / "pred"), "--mode", "WC_H"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: a.pcd: CoordinateRangeError: cloud has a coordinate "
            f"beyond ±{geom.COORDINATE_BOUND:g}\n")

    def test_write_failure_fails_only_its_target(self, tmp_path):
        # a directory stands where one target's prediction goes
        data = make_tiny_dataset(tmp_path, n=1)
        path = data / "clouds" / "scan_00000.pcd"
        good, bad = tmp_path / "good", tmp_path / "bad"
        good.mkdir()
        (bad / path.name).mkdir(parents=True)
        pipeline = tio.load_config("configs/ortho.cfg").pipeline
        ok, failed = cli._segment_one(
            (str(path), pipeline, [(str(good), "H"), (str(bad), "WF")]))
        assert ok.error is None and ok.metrics is not None
        assert (good / path.name).is_file()
        assert failed.error.startswith("IsADirectoryError: ")
        assert failed.cm is None and failed.metrics is None

    def test_negative_ransac_seed_is_error(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path)
        capsys.readouterr()
        rc = cli.main(["segment", "--config", "configs/ortho.cfg",
                       "--set", "pipeline.ransac_seed=-1", "--in", str(data),
                       "--out", str(tmp_path / "pred"), "--mode", "H"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: [pipeline] ransac_seed must be >= 0\n"
        assert not (tmp_path / "pred").exists()

    def test_non_finite_config_value_is_error(self, tmp_path, capsys):
        # a NaN density radius passed the `<= 0` check and kept no
        # structure point
        data = make_tiny_dataset(tmp_path)
        capsys.readouterr()
        rc = cli.main(["segment", "--config", "configs/ortho.cfg",
                       "--set", "pipeline.density_radius=nan", "--in", str(data),
                       "--out", str(tmp_path / "pred"), "--mode", "H"])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: [pipeline] density_radius: must be a number, not nan\n"
        assert not (tmp_path / "pred").exists()

    def test_evaluate_perfect_predictions(self, tmp_path, capsys):
        truth_dir = tmp_path / "truth"
        pred_dir = tmp_path / "pred"
        truth_dir.mkdir(), pred_dir.mkdir()
        rng = np.random.default_rng(0)
        for name in ("a.pcd", "b.pcd"):
            cloud = LabeledCloud(rng.normal(size=(30, 3)),
                                 rng.integers(0, 2, 30))
            tio.write_pcd(cloud, truth_dir / name)
            tio.write_prediction_pcd(cloud, cloud.truss_mask, pred_dir / name)
        rc = cli.main(["evaluate", "--truth", str(truth_dir),
                       "--pred", str(pred_dir),
                       "--report", str(tmp_path / "rep")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.00%" in out
        assert (tmp_path / "rep.json").exists()
        assert (tmp_path / "rep.csv").exists()

    def test_evaluate_unmatched_file_fails(self, tmp_path, capsys):
        truth_dir = tmp_path / "truth"
        pred_dir = tmp_path / "pred"
        truth_dir.mkdir(), pred_dir.mkdir()
        cloud = LabeledCloud(np.eye(3), [1, 0, 1])
        tio.write_pcd(cloud, truth_dir / "only.pcd")
        rc = cli.main(["evaluate", "--truth", str(truth_dir),
                       "--pred", str(pred_dir),
                       "--report", str(tmp_path / "rep")])
        assert rc == 1
        assert "only.pcd" in capsys.readouterr().err

    def test_evaluate_names_every_failed_file(self, tmp_path, capsys):
        truth_dir = tmp_path / "truth"
        truth_dir.mkdir(), (tmp_path / "pred").mkdir()
        for name in ("b.pcd", "a.pcd"):
            tio.write_pcd(LabeledCloud(np.eye(3), [1, 0, 1]), truth_dir / name)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--truth", str(truth_dir),
                       "--pred", str(tmp_path / "pred"),
                       "--report", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == "".join(
            f"error: {name}: FileNotFoundError: no prediction for {name}\n"
            for name in ("a.pcd", "b.pcd"))

    @pytest.mark.parametrize("text, reason", [
        ('{"total_ms": "abc"}', "total_ms must be a finite number >= 0, "
                                "not 'abc'"),
        ('{"total_ms": true}', "total_ms must be a finite number >= 0, "
                               "not True"),
        ('{"total_ms": NaN}', "total_ms must be a finite number >= 0, "
                              "not nan"),
        ("[1, 2]", "not a JSON object")],
        ids=["string", "bool", "nan", "list"])
    def test_evaluate_malformed_latency_fails_only_its_scan(
            self, tmp_path, capsys, text, reason):
        truth_dir, pred_dir = tmp_path / "truth", tmp_path / "pred"
        truth_dir.mkdir(), pred_dir.mkdir()
        cloud = LabeledCloud(np.eye(3), [1, 0, 1])
        for name in ("a.pcd", "b.pcd"):
            tio.write_pcd(cloud, truth_dir / name)
            tio.write_prediction_pcd(cloud, [1, 1, 0], pred_dir / name)
        tio.write_latency(pred_dir / "a.pcd", {}, 10.0, [])
        (pred_dir / "b.latency.json").write_text(text)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--truth", str(truth_dir),
                       "--pred", str(pred_dir),
                       "--report", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: b.pcd: LatencySidecarError: b.latency.json: {reason}\n")

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        report = json.loads((tmp_path / "rep.json").read_text(),
                            parse_constant=refuse)
        assert report["latency_mean_ms"] == 10.0
        assert [(c["file"], c["tp"], c["latency_ms"])
                for c in report["clouds"]] == [("a.pcd", 1, 10.0),
                                               ("b.pcd", None, None)]


class TestSweep:
    def test_seven_mode_layout(self, tmp_path):
        data = make_tiny_dataset(tmp_path, n=2)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", "configs/ortho.cfg",
                       "--in", str(data), "--out", str(out)])
        assert rc == 0
        for mode in cli.MODES:
            assert (out / mode / "report.csv").exists()
            assert len(list((out / mode).glob("*.pcd"))) == 2
        rows = json.loads((out / "sweep_report.json").read_text())
        assert [r["mode"] for r in rows] == list(cli.MODES)
        csv_lines = (out / "sweep_report.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 8     # header + 7 modes

    def test_jobs_do_not_change_predictions(self, tmp_path):
        data = make_tiny_dataset(tmp_path, n=2)
        preds, miou = {}, {}
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{jobs}"
            rc = cli.main(["sweep", "--config", "configs/ortho.cfg",
                           "--in", str(data), "--out", str(out),
                           "--jobs", jobs])
            assert rc == 0
            preds[jobs] = {str(p.relative_to(out)): p.read_bytes()
                           for p in sorted(out.glob("*/*.pcd"))}
            rows = json.loads((out / "sweep_report.json").read_text())
            miou[jobs] = {r["mode"]: r["mean_iou"] for r in rows}
        assert len(preds["1"]) == 2 * len(cli.MODES)
        assert preds["1"] == preds["2"]
        assert miou["1"] == miou["2"]

    def test_segment_one_keeps_variant_order(self, tmp_path):
        # the stages run in plan order inside, but each record,
        # prediction and latency file is that of its own variant
        cloud = _reduced_scan(2)
        path = tmp_path / "scan.pcd"
        tio.write_pcd(cloud, path)
        cloud = tio.read_pcd(path)
        # in an order that is not cli.MODES's, one mode twice
        modes = ["WF", "H", "WC_M", "R", "WC_H", "M", "H", "WC_R"]
        targets = [(tmp_path / f"{i}{mode}", mode)
                   for i, mode in enumerate(modes)]
        for out_dir, _ in targets:
            out_dir.mkdir()
        records = cli._segment_one(
            (str(path), segment.PipelineConfig(),
             [(str(d), mode) for d, mode in targets]))
        assert len(records) == len(targets)
        for (out_dir, mode), rec in zip(targets, records):
            alone = segment.run_pipeline(
                cloud, cli._mode_config(segment.PipelineConfig(), mode))
            assert rec.error is None and rec.file == path.name
            assert rec.cm == tmetrics.confusion(alone.prediction,
                                                cloud.truss_mask)
            _, arrays = tio.read_pcd_arrays(out_dir / path.name)
            assert np.array_equal(arrays["pred"] > 0.5, alone.prediction)
            latency = json.loads(
                (out_dir / "scan.latency.json").read_text())
            assert sorted(latency) == ["stages_ms", "total_ms", "warnings"]
            assert sorted(latency["stages_ms"]) == sorted(alone.latency_ms)
            assert latency["warnings"] == alone.warnings

    def test_pool_workers_query_on_one_thread(self):
        # --jobs N workers share the cores: one kd-tree thread each
        with geom.worker_pool(2) as pool:
            assert [pool.submit(geom.query_workers).result()
                    for _ in range(2)] == [1, 1]
        assert geom.query_workers() == len(os.sched_getaffinity(0))

    def test_pool_forked_after_threaded_pipeline(self, tmp_path, monkeypatch):
        # the parent first runs the row-block kernels on two threads, in
        # small blocks so a tiny scan has many; its thread pools end with
        # each call, so the forked workers finish, and they run every block
        # inline
        data = make_tiny_dataset(tmp_path, n=2)
        files = cli._pcd_files(data)
        base = segment.PipelineConfig()
        cfg = cli._mode_config(base, "H")
        # the settings stay patched after the loop, in the forked workers too
        for _ in thread_settings(monkeypatch, ((2, True),)):
            want = [segment.run_pipeline(tio.read_pcd(f), cfg).prediction
                    for f in files]
        out = tmp_path / "pred"
        out.mkdir()
        pool = geom.worker_pool(2)
        try:
            results = list(pool.map(segment_one_counting_threads,
                                    [(str(f), base, [(str(out), "H")])
                                     for f in files], timeout=120))
        except TimeoutError:
            for child in multiprocessing.active_children():
                child.kill()
            raise
        finally:
            pool.shutdown(cancel_futures=True)
        for f, expect, (records, started) in zip(files, want, results):
            assert [r.error for r in records] == [None]
            assert started == []
            _, arrays = tio.read_pcd_arrays(out / f.name)
            assert np.array_equal(arrays["pred"] > 0.5, expect)

    def test_failed_scan_named_once_on_stderr(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path, n=1)
        (data / "clouds" / "bad.pcd").write_text("not a point cloud\n")
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", "configs/ortho.cfg",
                       "--in", str(data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        # the read failure shows once, not once per mode or per report
        assert err.count("bad.pcd") == 1
        assert err.startswith("error: bad.pcd: ")
        with pytest.raises(Exception) as exc:
            tio.read_pcd(data / "clouds" / "bad.pcd")
        read_error = f"{exc.type.__name__}: {exc.value}"
        assert err.splitlines()[0] == f"error: bad.pcd: {read_error}"
        # the good scan was still segmented in every mode, and each report
        # row of the bad scan carries its read error
        for mode in cli.MODES:
            assert (out / mode / "scan_00000.pcd").exists()
            report = json.loads((out / mode / "report.json").read_text())
            rows = {r["file"]: r for r in report["clouds"]}
            assert rows["bad.pcd"]["error"] == read_error
            assert rows["bad.pcd"]["tp"] is None
            assert rows["scan_00000.pcd"]["error"] is None

    def test_report_equals_evaluate_of_written_predictions(self, tmp_path):
        data = make_tiny_dataset(tmp_path, n=2)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", "configs/ortho.cfg",
                       "--in", str(data), "--out", str(out)])
        assert rc == 0
        cfg = tio.load_config("configs/ortho.cfg")
        for mode in cli.MODES:
            swept = json.loads((out / mode / "report.json").read_text())
            assert swept["config_fingerprint"] == geom.fingerprint(
                cli._mode_config(cfg.pipeline, mode))
            rep = tmp_path / "eval" / mode
            rc = cli.main(["evaluate", "--truth", str(data),
                           "--pred", str(out / mode), "--report", str(rep)])
            assert rc == 0
            evaluated = json.loads(rep.with_suffix(".json").read_text())
            assert evaluated.pop("config_fingerprint") == \
                "external-predictions"
            del swept["config_fingerprint"]
            # total_ms round-trips through latency.json, so latency is equal
            assert evaluated == swept
            assert (out / mode / "report.csv").read_text() == \
                rep.with_suffix(".csv").read_text()

    def test_noise_blob_rows_scored_and_undefined_excluded(self, tmp_path):
        # an unlabeled noise blob: empty truth and, in every mode, an empty
        # prediction, so each row is scored but its IoU is undefined
        rng = np.random.default_rng(11)
        cloud = LabeledCloud(rng.uniform(-4, 4, size=(600, 3)))
        (tmp_path / "in").mkdir()
        tio.write_pcd(cloud, tmp_path / "in" / "blob.pcd")
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--set", "pipeline.ransac_iterations=100",
                       "--in", str(tmp_path / "in"), "--out", str(out)])
        assert rc == 0
        for mode in cli.MODES:
            report = json.loads((out / mode / "report.json").read_text())
            [row] = report["clouds"]
            assert row["error"] is None
            assert row["tp"] + row["fp"] + row["tn"] + row["fn"] == 600
            assert row["latency_ms"] > 0
            assert row["iou"] is None
            assert report["undefined_excluded"] == 1
            assert report["mean_iou"] is None


    def test_variants_report_each_shared_stage_alike(self, tmp_path):
        # each variant's latency holds the measured time of every stage it
        # uses, however many variants share that stage
        data = make_tiny_dataset(tmp_path, n=1)
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", "configs/ortho.cfg",
                         "--in", str(data), "--out", str(out)]) == 0
        stages = {mode: json.loads((out / mode / "scan_00000.latency.json")
                                   .read_text())["stages_ms"]
                  for mode in cli.MODES}
        for stage, modes in (("coarse", ["R", "M", "H", "WF"]),
                             ("normals", ["R", "M", "H"]),
                             ("normals", ["WC_R", "WC_M", "WC_H"]),
                             ("density", list(cli.MODES))):
            values = {stages[mode][stage] for mode in modes}
            assert len(values) == 1 and values.pop() > 0, (stage, modes)
        # region growing adds each variant's own verdicts to the shared
        # growth; a stage a variant skips reads 0
        assert all(stages[mode]["region_growing"] > 0 for mode in cli.MODES
                   if mode != "WF")
        assert all(stages[mode]["coarse"] == 0.0
                   for mode in ("WC_R", "WC_M", "WC_H"))
        assert stages["WF"]["normals"] == stages["WF"]["region_growing"] == 0

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[float(i), 2.0 * i, 0.5 * i] for i in range(5)]],
        ids=["two_points", "collinear"])
    def test_degenerate_scan_fails_every_variant(self, tmp_path, capsys,
                                                 points):
        # the coarse split cannot fit a plane, so every variant that splits
        # fails; the WC variants make no coarse split and, as in their lone
        # runs, predict the whole scan background
        (tmp_path / "in").mkdir()
        tio.write_pcd(LabeledCloud(np.array(points)),
                      tmp_path / "in" / "thin.pcd")
        out = tmp_path / "sweep"
        capsys.readouterr()
        rc = cli.main(["sweep", "--in", str(tmp_path / "in"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        prefix = "error: thin.pcd: DegenerateCloudError: "
        assert err.count("thin.pcd") == 1 and err.startswith(prefix)
        error = err.splitlines()[0][len("error: thin.pcd: "):]
        for mode in cli.MODES:
            [row] = json.loads(
                (out / mode / "report.json").read_text())["clouds"]
            if mode.startswith("WC_"):
                assert row["error"] is None, mode
                assert row["tn"] == len(points), mode
                _, arrays = tio.read_pcd_arrays(out / mode / "thin.pcd")
                assert len(arrays["pred"]) == len(points)
                assert not (arrays["pred"] > 0.5).any(), mode
            else:
                assert row["error"] == error, mode
                assert not (out / mode / "thin.pcd").exists(), mode
        # WC_H alone makes the same all-background prediction
        assert cli.main(["segment", "--in", str(tmp_path / "in"),
                         "--out", str(tmp_path / "wc"),
                         "--mode", "WC_H"]) == 0
        assert ((tmp_path / "wc" / "thin.pcd").read_bytes()
                == (out / "WC_H" / "thin.pcd").read_bytes())

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["scattered", "collinear", "duplicates"]),
           n=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           modes=st.lists(st.sampled_from(list(cli.MODES)), min_size=1,
                          max_size=len(cli.MODES), unique=True))
    def test_variant_fails_as_its_lone_run(self, kind, n, seed, modes):
        # scans too small or too thin for the coarse split: a variant of a
        # sweep writes the prediction, or fails with the error, of its own
        # lone run
        rng = np.random.default_rng(seed)
        if kind == "collinear":
            pts = rng.normal(size=3) + np.outer(rng.uniform(-2.0, 2.0, n),
                                                rng.normal(size=3))
        elif kind == "duplicates":
            pts = rng.normal(size=(2, 3))[rng.integers(0, 2, n)]
        else:
            pts = rng.normal(size=(n, 3))
        cloud = LabeledCloud(pts.reshape(n, 3), rng.integers(0, 2, n))
        pipeline = segment.PipelineConfig()

        with tempfile.TemporaryDirectory() as tmp:
            scan = Path(tmp) / "thin.pcd"
            tio.write_pcd(cloud, scan)

            def run(root: Path, modes: list) -> list:
                """(prediction bytes or None, record) of each mode."""
                for mode in modes:
                    (root / mode).mkdir(parents=True)
                records = cli._segment_one(
                    (str(scan), pipeline, [(str(root / m), m) for m in modes]))
                preds = [root / m / scan.name for m in modes]
                return [(p.read_bytes() if p.exists() else None,
                         (r.error, r.cm, r.metrics))
                        for p, r in zip(preds, records)]

            swept = run(Path(tmp) / "sweep", modes)
            for mode, got in zip(modes, swept):
                assert got == run(Path(tmp) / "alone", [mode])[0], mode
                shutil.rmtree(Path(tmp) / "alone")
        event(f"{sum(pred is not None for pred, _ in swept)} of "
              f"{len(modes)} variants predicted")


def load_tracing():
    """``perfbench/tracing.py``, loaded from its file as it stands."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The benchmark tracer wraps trusskit functions by module attribute.
    Its span counts of one swept scan pin both the stage sharing of a
    sweep and the call sites the tracer patches."""

    # span name -> (calls with all seven variants, calls with mode H alone)
    SPANS = {"segment.coarse_split": (1, 1), "segment.knn": (2, 1),
             "segment.region_grow": (2, 1), "segment.density": (1, 1),
             "segment.run_pipeline": (1, 1)}

    def test_span_counts_of_one_scan(self, tmp_path):
        tracing = load_tracing()
        data = tmp_path / "data"
        assert cli.main(["generate", "--config", "configs/ortho.cfg",
                         "--set", "sensor.v_resolution=32",
                         "--set", "sensor.h_resolution=128",
                         "--out", str(data), "--n", "1",
                         "--seed", "5"]) == 0
        path = str(data / "clouds" / "scan_00000.pcd")
        pipeline = tio.load_config("configs/ortho.cfg").pipeline
        for column, modes in enumerate((list(cli.MODES), ["H"])):
            targets = [(str(tmp_path / f"{column}{mode}"), mode)
                       for mode in modes]
            for out_dir, _ in targets:
                Path(out_dir).mkdir()
            task = (path, pipeline, targets)
            untraced = cli._segment_one(task)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = cli._segment_one(task)
            calls = {}
            for span in tracer.spans:
                calls[span[0]] = calls.get(span[0], 0) + 1
            assert calls["cli.segment_one"] == 1
            for name, counts in self.SPANS.items():
                assert calls.get(name, 0) == counts[column], (name, modes)
            assert 1 <= calls.get("geom.pca", 0) <= (2, 1)[column]
            # tracing changes no record
            assert [(r.error, r.cm) for r in traced] == \
                [(r.error, r.cm) for r in untraced]
            assert all(r.error is None for r in traced)

    def test_evaluate_reads_two_arrays_per_scan(self, tmp_path):
        # io.read_pcd_ms and io.bytes_read count evaluate's reads only if
        # both go through io.read_pcd_arrays, path first
        tracing = load_tracing()
        data = make_tiny_dataset(tmp_path, n=3)
        pred = tmp_path / "pred"
        assert cli.main(["segment", "--in", str(data), "--out", str(pred),
                         "--mode", "WF"]) == 0
        tracer = tracing.Tracer()
        with tracer.installed():
            assert cli.main(["evaluate", "--truth", str(data), "--pred",
                             str(pred), "--report", str(tmp_path / "r")]) == 0
        names = [span[0] for span in tracer.spans]
        assert "io.read_pcd" not in names
        reads = sorted((span[4], span[5]["bytes"]) for span in tracer.spans
                       if span[0] == "io.read_pcd_arrays")
        files = [*(data / "clouds").glob("*.pcd"), *pred.glob("*.pcd")]
        assert reads == sorted((p.stem, p.stat().st_size) for p in files)
        assert len(reads) == 2 * 3

    def test_wrapped_functions_run_on_the_calling_thread(self, monkeypatch):
        # the tracer's span stack is not thread-safe: mode H's density
        # helper must call none of the functions it wraps
        tracing = load_tracing()
        threads = {}

        def recording(name, fn):
            def call(*args, **kwargs):
                threads.setdefault(name, set()).add(
                    threading.current_thread())
                return fn(*args, **kwargs)
            return call

        targets = [(name, sites) for name, sites, _, _ in
                   tracing.instrumentation()]
        targets.append(("helper", [(segment, "_judge_open")]))
        for name, sites in targets:
            fn = getattr(*sites[0])
            for module, attr in sites:
                monkeypatch.setattr(module, attr, recording(name, fn))
        monkeypatch.setattr(geom, "_query_workers", 2)
        segment.run_pipeline(_reduced_scan(1), segment.PipelineConfig())
        main = threading.current_thread()
        assert threads.pop("helper") != {main}
        assert "segment.density" in threads
        assert all(seen == {main} for seen in threads.values()), threads


class TestThreshold:
    def test_separable_scores(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("score,truth\n0.1,0\n0.2,0\n0.8,1\n0.9,1\n")
        rc = cli.main(["threshold", "--scores", str(path), "--method", "roc",
                       "--out", str(tmp_path / "curve.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold 0.5" in out
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0].startswith("threshold,")
        # 2 sentinels + 3 midpoints for 4 unique scores, plus the header
        assert len(curve) == 1 + 5

    def test_pr_same_file(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("score,truth\n0.1,0\n0.2,0\n0.8,1\n0.9,1\n")
        rc = cli.main(["threshold", "--scores", str(path), "--method", "pr"])
        assert rc == 0
        assert "threshold 0.5" in capsys.readouterr().out

    def test_huge_scores_separate(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("score,truth\n1e308,0\n1.7e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["threshold", "--scores", str(path)])
        assert rc == 0
        assert "(gmean 1.0000, 3 candidates)" in capsys.readouterr().out

    def test_single_class_exit_nonzero(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,truth\n0.5,1\n0.6,1\n")
        rc = cli.main(["threshold", "--scores", str(path)])
        assert rc == 1

    def test_non_utf8_file_is_error(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"score,truth\n" + bytes(range(128, 256)) + b"\n")
        rc = cli.main(["threshold", "--scores", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: not a CSV text file (")

    @pytest.mark.parametrize("bad_row", ["abc,0", "0.5", "0.1,0.7", "0.2,2",
                                         "nan,1", "inf,0", "-inf,1"])
    def test_malformed_row_names_file_and_line(self, tmp_path, capsys,
                                               bad_row):
        path = tmp_path / "scores.csv"
        path.write_text(f"score,truth\n0.1,0\n{bad_row}\n0.9,1\n")
        rc = cli.main(["threshold", "--scores", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3:")
        assert bad_row in err


class TestExport:
    def test_ply_vertex_count(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path)
        pred_dir = tmp_path / "pred"
        cli.main(["segment", "--config", "configs/ortho.cfg",
                  "--in", str(data), "--out", str(pred_dir), "--mode", "WF"])
        pred = sorted(pred_dir.glob("*.pcd"))[0]
        out = tmp_path / "view.ply"
        rc = cli.main(["export", "--cloud", str(pred), "--out", str(out)])
        assert rc == 0
        n = len(tio.read_pcd(pred))
        assert f"element vertex {n}" in out.read_text()

    def test_no_truth_two_colors(self, tmp_path):
        rng = np.random.default_rng(1)
        cloud = LabeledCloud(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        src = tmp_path / "c.pcd"
        tio.write_prediction_pcd(cloud, rng.random(20) < 0.5, src)
        out = tmp_path / "c.ply"
        rc = cli.main(["export", "--cloud", str(src), "--no-truth",
                       "--out", str(out)])
        assert rc == 0
        body = out.read_text().split("end_header\n")[1].strip().splitlines()
        colors = {tuple(line.split()[3:]) for line in body}
        assert colors <= {("0", "255", "0"), ("0", "0", "0")}

    def test_truth_from_another_file(self, tmp_path):
        # the cloud's own labels are all background; --truth colours by
        # the other file's
        points = np.random.default_rng(2).normal(size=(6, 3))
        src = tmp_path / "pred.pcd"
        tio.write_prediction_pcd(LabeledCloud(points), [1, 1, 1, 0, 0, 0], src)
        truth = tmp_path / "truth.pcd"
        tio.write_pcd(LabeledCloud(points, [1, 0, 1, 0, 1, 0]), truth)
        out = tmp_path / "c.ply"
        rc = cli.main(["export", "--cloud", str(src), "--truth", str(truth),
                       "--out", str(out)])
        assert rc == 0
        body = out.read_text().split("end_header\n")[1].splitlines()
        colors = [tuple(int(v) for v in line.split()[3:]) for line in body]
        tp, tn, fp, fn = (0, 255, 0), (0, 0, 0), (255, 0, 0), (255, 165, 0)
        assert colors == [tp, fp, tp, tn, fn, tn]
        # the bytes of a truth mask read from the whole truth cloud
        assert out.read_text() == tio.export_ply_colored(
            tio.read_pcd(src), [1, 1, 1, 0, 0, 0],
            tio.read_pcd(truth).truss_mask)

    @pytest.mark.parametrize("mode", ["binary", "ascii"])
    def test_truth_file_bytes_and_refusals(self, tmp_path, capsys, mode):
        # a truth file with intensity labels and its columns out of order
        # colours as its whole cloud's mask; a NaN coordinate in it is
        # refused as read_pcd refuses it
        rng = np.random.default_rng(3)
        n = 40
        cloud = LabeledCloud(rng.normal(size=(n, 3)))
        src = tmp_path / "pred.pcd"
        tio.write_prediction_pcd(cloud, rng.random(n) < 0.5, src)
        xyz = rng.normal(size=(n, 3))
        columns = [("intensity", "F", 4, rng.uniform(-1, 3, n)),
                   *(("zyx"[i], "F", 8, xyz[:, i]) for i in range(3))]
        blob = tio.write_pcd_fields(columns, (0, 0, 0, 1, 0, 0, 0))
        truth = tmp_path / "truth.pcd"
        truth.write_bytes(ascii_pcd(blob) if mode == "ascii" else blob)
        out = tmp_path / "c.ply"
        argv = ["export", "--cloud", str(src), "--truth", str(truth),
                "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_text() == tio.export_ply_colored(
            tio.read_pcd(src), tio.read_pcd_arrays(src)[1]["pred"],
            tio.read_pcd(truth).truss_mask)
        xyz[5, 1] = np.nan
        columns[2] = ("y", "F", 8, xyz[:, 1])
        truth.write_bytes(tio.write_pcd_fields(columns, (0, 0, 0, 1, 0, 0, 0)))
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == \
            "error: cloud contains NaN/inf coordinates\n"

    def test_label_past_int64_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "huge.pcd"
        src.write_bytes(b"VERSION .7\nFIELDS x y z label\nSIZE 4 4 4 4\n"
                        b"TYPE F F F F\nCOUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
                        b"POINTS 1\nDATA ascii\n1 2 3 1e30\n")
        rc = cli.main(["export", "--cloud", str(src),
                       "--out", str(tmp_path / "x.ply")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_pred_field_fails(self, tmp_path):
        cloud = LabeledCloud(np.eye(3), [0, 1, 0])
        src = tmp_path / "plain.pcd"
        tio.write_pcd(cloud, src)
        rc = cli.main(["export", "--cloud", str(src),
                       "--out", str(tmp_path / "x.ply")])
        assert rc == 1


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial is imported by the kd-tree users only, so commands that
    # build no kd-tree (generate, evaluate, threshold, export) skip it
    import subprocess
    import sys

    import trusskit

    src = str(Path(trusskit.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import trusskit, trusskit.cli; "
            "print('scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


# generate one full-resolution scan of each shipped config and sweep it
_KERNEL_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from trusskit import cli
configs, out = sys.argv[2], sys.argv[3]
for name in ("ortho", "crossed", "training"):
    cfg, data = f"{configs}/{name}.cfg", f"{out}/{name}/data"
    assert cli.main(["generate", "--config", cfg, "--out", data,
                     "--n", "1", "--seed", "26"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--in", data,
                     "--out", f"{out}/{name}/sweep"]) == 0
"""


def _kernel_switch_skip_reason():
    """Why OPENBLAS_CORETYPE cannot switch numpy's BLAS kernel here, or
    None if it can."""
    import platform
    if platform.machine() not in ("x86_64", "AMD64"):
        return f"OpenBLAS core types are x86-64 kernels, not " \
               f"{platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS"
    if "openblas" not in blas.get("name", "").lower():
        return f"numpy's BLAS is {blas.get('name')}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's OpenBLAS is built for one kernel (no DYNAMIC_ARCH)"
    return None


def test_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # clouds, manifests and predictions are made by the same arithmetic
    # whichever BLAS kernel numpy's OpenBLAS runs
    import subprocess
    import sys

    import trusskit

    reason = _kernel_switch_skip_reason()
    if reason:
        pytest.skip(reason)
    src = str(Path(trusskit.__file__).resolve().parent.parent)
    configs = str(Path(__file__).resolve().parents[1] / "configs")
    runs = {}
    for core in ("Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("TRUSSKIT_", "OPENBLAS_"))}
        env.update(OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        runs[core] = subprocess.Popen(
            [sys.executable, "-c", _KERNEL_RUN, src, configs,
             str(tmp_path / core)], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
    cores, trees = set(), []
    for core, proc in runs.items():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        cores |= {line for line in err.splitlines()
                  if line.startswith("Core: ")}
        trees.append({str(p.relative_to(tmp_path / core)): p.read_bytes()
                      for p in sorted((tmp_path / core).rglob("*"))
                      if p.suffix == ".pcd"
                      or p.name == "manifest.json-lines"})
    assert cores == {"Core: Haswell", "Core: Sandybridge"}
    # per config: one cloud, one manifest and seven predictions
    assert len(trees[0]) == 3 * 9
    assert trees[0] == trees[1]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Paths a CLI argument can name: a tiny dataset with its mode-H
    predictions, an empty directory, a garbage text file, a non-UTF-8 file,
    score files, PCD files whose labels do not fit or whose header or body
    is malformed, a regular file that outputs may overwrite and a missing
    path."""
    root = tmp_path_factory.mktemp("cli_inputs")
    data = make_tiny_dataset(root, n=1)
    assert cli.main(["segment", "--in", str(data), "--out",
                     str(root / "pred"), "--mode", "H"]) == 0
    (root / "empty").mkdir()
    (root / "garbage.txt").write_text("not a point cloud\n[x\n")
    (root / "existing.txt").write_text("")
    (root / "binary.bin").write_bytes(bytes(range(128, 256)) * 4)
    (root / "scores.csv").write_text("score,truth\n0.1,0\n0.9,1\n0.4,1\n")
    (root / "odd_scores.csv").write_text("nan,1\ninf,0\n-inf,1\n1e308,0\n")
    # ascii PCDs whose labels do not fit (300 in U 1, 1e30 past int64,
    # inf), and the malformed ones of test_io
    (root / "odd_clouds").mkdir()
    for name, (t, s, value) in {"wrapped": ("U", 1, "300"),
                                "huge": ("F", 4, "1e30"),
                                "infinite": ("F", 4, "inf")}.items():
        (root / "odd_clouds" / f"{name}.pcd").write_text(
            f"VERSION .7\nFIELDS x y z label\nSIZE 4 4 4 {s}\n"
            f"TYPE F F F {t}\nCOUNT 1 1 1 1\nWIDTH 1\nHEIGHT 1\n"
            f"POINTS 1\nDATA ascii\n1 2 3 {value}\n")
    for name, (blob, _) in MALFORMED_PCDS.items():
        (root / "odd_clouds" / f"{name}.pcd").write_bytes(blob)
    return {"data": data, "clouds": data / "clouds",
            "cloud": data / "clouds" / "scan_00000.pcd",
            "pred": root / "pred",
            "pred_cloud": root / "pred" / "scan_00000.pcd",
            "empty": root / "empty", "garbage": root / "garbage.txt",
            "existing": root / "existing.txt",
            "binary": root / "binary.bin", "scores": root / "scores.csv",
            "odd_scores": root / "odd_scores.csv",
            "odd_clouds": root / "odd_clouds",
            "wrapped": root / "odd_clouds" / "wrapped.pcd",
            "huge": root / "odd_clouds" / "huge.pcd",
            "infinite": root / "odd_clouds" / "infinite.pcd",
            **{name: root / "odd_clouds" / f"{name}.pcd"
               for name in MALFORMED_PCDS},
            "config": Path("configs/ortho.cfg"), "missing": root / "missing",
            "root": root}


# argument values; every integer is small, so no input starts many workers
# or a large scan
_INTS = ["1", "2", "1", "2", "-1", "0", "x", "", "1.5", " 2"]
_SETS = ["nokey", "=", "x=1", "pipeline=3", "pipeline.nope=1",
         "nosection.key=1", "pipeline.normal_k=abc", "pipeline.normal_k=2",
         "pipeline.normal_k=200", "pipeline.voxel_leaf=nan",
         "pipeline.voxel_leaf=-1", "pipeline.eigen_mode=bogus",
         "pipeline.ransac_iterations=0", "pipeline.density_min_points=0",
         "pipeline.rg_min_cluster=1", "dataset.seed=-1", "scene.seed=-1",
         "sensor.seed=-1", "sensor.max_range=0", "sensor.v_fov_deg=inf",
         "sensor.noise_sigma=-1", "truss.node_counts=1 2",
         "truss.node_counts=1 1 1", "truss.crossed=maybe",
         "scene.tree_count=-1", "scene.tree_scale_bounds=2 1",
         "boxes.count=-1", "boxes.length_bounds=0 0",
         "dataset.out_dir=a\tb", "dataset.n_scans=0", "dataset.jobs=0",
         "pipeline.normal_k=12", "sensor.seed=3", "pipeline.eigen_mode=ratio"]
_ENV = ["", "x", "-1", "0", "1", "2", "1.5"]


@st.composite
def _cli_argv(draw, paths):
    """(argv, env) of one command line: a subcommand, flags each present
    or not, with good, bad or missing values."""
    def path(*names):
        return str(paths[draw(st.sampled_from(names))])

    def out():
        kind = draw(st.sampled_from(["new", "file", "under_file"]))
        if kind == "file":
            return str(paths["existing"])
        if kind == "under_file":
            return str(paths["existing"] / "out")
        return tempfile.mkdtemp(dir=paths["root"]) + "/out"

    def flag(name, value, required=False):
        # a required flag is left out one time in ten, an optional one in two
        present = draw(st.sampled_from([True] * 9 + [False])) if required \
            else draw(st.booleans())
        return [name, value()] if present else []

    def common():
        # a tiny sensor and one scan first: a drawn --set comes later and
        # wins
        argv = flag("--config", lambda: path(
            "config", "config", "config", "missing", "garbage", "binary",
            "empty"))
        argv += TINY + ["--set", "scene.tree_count=1",
                        "--set", "dataset.n_scans=1"]
        for item in draw(st.lists(st.sampled_from(_SETS), max_size=2)):
            argv += ["--set", item]
        return argv + flag("--jobs", lambda: draw(st.sampled_from(_INTS)))

    dirs = ("data", "clouds", "pred", "empty", "missing", "garbage",
            "odd_clouds")
    command = draw(st.sampled_from(["generate", "segment", "evaluate",
                                    "sweep", "threshold", "export"]))
    if command == "generate":
        argv = common() + flag("--out", out, True) + flag(
            "--n", lambda: draw(st.sampled_from(_INTS))) + flag(
            "--seed", lambda: draw(st.sampled_from(_INTS + ["2" * 30])))
    elif command in ("segment", "sweep"):
        argv = common() + flag("--in", lambda: path(*dirs), True) + flag(
            "--out", out, True)
        if command == "segment":
            argv += flag("--mode", lambda: draw(st.sampled_from(
                [*cli.MODES, "h", "X", ""])), True)
    elif command == "evaluate":
        argv = flag("--truth", lambda: path(*dirs), True) + flag(
            "--pred", lambda: path(*dirs), True) + flag("--report", out, True)
    elif command == "threshold":
        argv = flag("--scores", lambda: path(
            "scores", "odd_scores", "garbage", "binary", "empty",
            "missing"), True) + flag("--method", lambda: draw(st.sampled_from(
                ["roc", "pr", "auc"]))) + flag("--out", out)
    else:
        files = ("pred_cloud", "cloud", "garbage", "binary", "missing",
                 "empty", "wrapped", "huge", "infinite", *MALFORMED_PCDS)
        argv = flag("--cloud", lambda: path(*files), True) + flag(
            "--pred-field", lambda: draw(st.sampled_from(
                ["pred", "label", "x", "nope"]))) + flag(
            "--truth", lambda: path(*files)) + flag("--out", out, True)
        if draw(st.booleans()):
            argv.append("--no-truth")
    env = {name: draw(st.sampled_from([None, *_ENV]))
           for name in ("TRUSSKIT_SEED", "TRUSSKIT_JOBS")}
    return [command, *argv], env


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_input_ends_in_a_traceback(cli_inputs, data):
    # exit 0 on success, 1 on a runtime failure, 2 on a usage error
    argv, env = data.draw(_cli_argv(cli_inputs), label="argv, env")
    saved = {name: os.environ.get(name) for name in env}
    try:
        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
