import json
from pathlib import Path

import numpy as np
import pytest

from trusskit import cli
from trusskit import io as tio
from trusskit.geom import LabeledCloud

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

    def test_single_class_exit_nonzero(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,truth\n0.5,1\n0.6,1\n")
        rc = cli.main(["threshold", "--scores", str(path)])
        assert rc == 1

    @pytest.mark.parametrize("bad_row", ["abc,0", "0.5"])
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

    def test_missing_pred_field_fails(self, tmp_path):
        cloud = LabeledCloud(np.eye(3), [0, 1, 0])
        src = tmp_path / "plain.pcd"
        tio.write_pcd(cloud, src)
        rc = cli.main(["export", "--cloud", str(src),
                       "--out", str(tmp_path / "x.ply")])
        assert rc == 1
