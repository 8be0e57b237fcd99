import copy
import json
import logging
from pathlib import Path

import pytest

from conftest import MICRO_CONFIG

from twosphere.cli import main, validate_config


def write_config(tmp_path, overrides=None, name="scene.json"):
    cfg = copy.deepcopy(MICRO_CONFIG)
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            keys = dotted.split(".")
            for k in keys[:-1]:
                node = node[int(k)] if isinstance(node, list) else node[k]
            last = keys[-1]
            node[int(last) if isinstance(node, list) else last] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# (noise field, value) pairs that validate_config must reject
BAD_NOISE = [
    ("contour_sigma_px", -1.0),
    ("contour_sigma_px", "wide"),
    ("intensity_sigma", -0.5),
    ("intensity_sigma", float("inf")),
    ("seed", -1),
    ("seed", 1.5),
]


@pytest.fixture(scope="module")
def micro_bundle_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundle")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def micro_calib(micro_bundle_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("calib") / "calib.json"
    assert main(["--quiet", "calibrate", str(micro_bundle_dir), "--out", str(out)]) == 0
    return out


def cut_fringe(root):
    path = root / "fringes" / "v_f064_s2.f32"
    path.write_bytes(path.read_bytes()[:1000])


def edit_manifest(edit):
    def apply(root):
        manifest = json.loads((root / "manifest.json").read_text())
        edit(manifest)
        (root / "manifest.json").write_text(json.dumps(manifest))
    return apply


# broken bundles that must exit 2: (break the bundle copy, text the logged error names)
BROKEN_BUNDLES = [
    pytest.param(cut_fringe, "sidecar says", id="fringe_cut_to_1000_bytes"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].pop("fx_px")),
                 "camera.fx_px: missing", id="manifest_without_fx"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].update(fx_px=-5)),
                 "camera.fx_px: must be positive", id="manifest_with_negative_fx"),
    pytest.param(edit_manifest(lambda m: m.update(image_format="pgm16")),
                 "image_format 'pgm16'", id="manifest_names_pgm16"),
]


class TestValidateConfig:
    def test_valid(self):
        assert validate_config(MICRO_CONFIG) == []

    def test_missing_field_diagnostic(self):
        cfg = copy.deepcopy(MICRO_CONFIG)
        del cfg["camera"]["fx_px"]
        problems = validate_config(cfg)
        assert any("camera.fx_px" in p for p in problems)

    def test_sphere_count(self):
        cfg = copy.deepcopy(MICRO_CONFIG)
        cfg["spheres"] = cfg["spheres"][:1]
        assert any("spheres" in p for p in validate_config(cfg))

    @pytest.mark.parametrize("field, value", BAD_NOISE)
    def test_bad_noise_diagnostic(self, field, value):
        cfg = copy.deepcopy(MICRO_CONFIG)
        cfg["noise"][field] = value
        assert any(f"noise.{field}" in p for p in validate_config(cfg))


class TestSimulate:
    def test_bundle_layout_and_manifest(self, micro_bundle_dir):
        manifest = json.loads((micro_bundle_dir / "manifest.json").read_text())
        assert manifest["truth"]["camera"]["fx_px"] == 300.0
        assert manifest["truth"]["noise"]["seed"] == 3
        assert (micro_bundle_dir / "contours" / "sphere0.csv").exists()
        assert (micro_bundle_dir / "contours" / "sphere1.csv").exists()
        assert (micro_bundle_dir / "oracle" / "sphere0.csv").exists()
        assert len(list((micro_bundle_dir / "fringes").glob("*.f32"))) == 24

    def test_preset_manifest_records_reference_camera(self, tmp_path):
        out = tmp_path / "p"
        code = main(["--quiet", "simulate", "--preset", "cppB", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truth"]["camera"]["fx_px"] == 1791.1
        assert manifest["truth"]["projector"]["fx_px"] == 1202.7

    def test_repeat_run_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--quiet", "simulate", "--config", str(cfg), "--seed", "42",
                         "--noise-contour", "0.5", "--noise-intensity", "0.01",
                         "--out", str(out)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_config_error_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"camera.fx_px": "fast"})
        assert main(["--quiet", "simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("field, value", BAD_NOISE)
    def test_bad_noise_config_exits_2(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {f"noise.{field}": value})
        assert main(["--quiet", "simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--noise-contour", "-1"],
            ["--noise-contour", "inf"],
            ["--noise-intensity", "-0.5"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_noise_flag_exits_2(self, tmp_path, flag):
        # the parser rejects the value before any work starts
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "simulate", "--preset", "cppB", "--out", str(tmp_path / "x"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_json_syntax_error_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"camera": }')
        assert main(["--quiet", "simulate", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

    def test_sphere_swallowing_camera_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"spheres.0.center_lu": [0.0, 0.0, 0.2],
                                      "spheres.0.radius_lu": 0.4})
        assert main(["--quiet", "simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 3

    def test_out_of_view_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"spheres.0.center_lu": [-2.4, -0.25, 4.0]})
        assert main(["--quiet", "simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 3


class TestCalibrate:
    def test_writes_calib_with_error_report(self, micro_bundle_dir):
        assert main(["--quiet", "calibrate", str(micro_bundle_dir)]) == 0
        payload = json.loads((micro_bundle_dir / "calib.json").read_text())
        assert payload["constraint_checked"] is True
        assert "error_report" in payload
        assert abs(payload["error_report"]["camera"]["fx"]) < 1.0
        assert payload["converged"] is True

    def test_mu_zero_flags_unchecked(self, micro_bundle_dir, tmp_path):
        out = tmp_path / "calib0.json"
        assert main(["--quiet", "calibrate", str(micro_bundle_dir), "--mu", "0",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["constraint_checked"] is False

    def test_max_iters_flag_caps_iterations(self, micro_bundle_dir, tmp_path):
        out = tmp_path / "calib1.json"
        assert main(["--quiet", "calibrate", str(micro_bundle_dir), "--max-iters", "1",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["iterations"] <= 1

    def test_stride_flag_thins_correspondences(self, micro_bundle_dir, tmp_path, caplog):
        def correspondences(extra):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="twosphere.pipeline"):
                assert main(["--quiet", "calibrate", str(micro_bundle_dir), "--mu", "0",
                             "--out", str(tmp_path / "c.json"), *extra]) == 0
            counts = [r.args[1] for r in caplog.records if "correspondence pixels" in r.message]
            assert len(counts) == 2
            return sum(counts)

        assert correspondences(["--stride", "6"]) < correspondences([])

    def test_single_sphere_bundle_exits_5(self, micro_bundle_dir, tmp_path):
        import shutil

        broken = tmp_path / "one_sphere"
        shutil.copytree(micro_bundle_dir, broken)
        (broken / "contours" / "sphere1.csv").unlink()
        (broken / "calib.json").unlink(missing_ok=True)
        assert main(["--quiet", "calibrate", str(broken)]) == 5

    def test_missing_bundle_exits_2(self, tmp_path):
        assert main(["--quiet", "calibrate", str(tmp_path / "nowhere")]) == 2

    def test_manifest_with_negative_noise_exits_2(self, micro_bundle_dir, tmp_path):
        import shutil

        broken = tmp_path / "negative_noise"
        shutil.copytree(micro_bundle_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["truth"]["noise"]["intensity_sigma"] = -0.5
        (broken / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "c.json"
        assert main(["--quiet", "calibrate", str(broken), "--out", str(out)]) == 2
        assert not out.exists()

    def test_fringe_frame_of_wrong_size_exits_2(self, micro_bundle_dir, tmp_path):
        import shutil

        import numpy as np

        from twosphere.imageio import write_float32

        broken = tmp_path / "small_frame"
        shutil.copytree(micro_bundle_dir, broken)
        write_float32(broken / "fringes" / "v_f064_s2.f32", np.zeros((120, 160), np.float32))
        out = ["--out-ply", str(tmp_path / "c.ply"), "--out-stats", str(tmp_path / "s.json")]
        assert main(["--quiet", "calibrate", str(broken), "--out", str(tmp_path / "c.json")]) == 2
        # the bundle is loaded first, so its error decides the exit code
        assert main(["--quiet", "reconstruct", str(broken), str(tmp_path / "c.json"), *out]) == 2
        assert not (tmp_path / "c.json").exists() and not (tmp_path / "c.ply").exists()

    @pytest.mark.parametrize("command", ["calibrate", "reconstruct"])
    @pytest.mark.parametrize("breaker, reason", BROKEN_BUNDLES)
    def test_broken_bundle_exits_2(self, micro_bundle_dir, micro_calib, tmp_path, caplog,
                                   command, breaker, reason):
        import shutil

        broken = tmp_path / "bundle"
        shutil.copytree(micro_bundle_dir, broken)
        (broken / "calib.json").unlink(missing_ok=True)
        breaker(broken)
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "calibrate": [str(broken), "--out", str(out / "c.json")],
            "reconstruct": [str(broken), str(micro_calib), "--out-ply", str(out / "c.ply"),
                            "--out-stats", str(out / "s.json")],
        }[command]
        assert main(["--quiet", command, *argv]) == 2
        assert not any(out.iterdir()) and not (broken / "calib.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and reason in errors[0]

    @pytest.mark.parametrize(
        "flag",
        [["--stride", "0"], ["--stride", "-2"], ["--mu", "-1"], ["--max-iters", "0"],
         ["--max-iters", "-3"]],
    )
    def test_bad_numeric_flag_exits_2(self, micro_bundle_dir, tmp_path, flag):
        # the parser rejects the value before any work starts
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "calibrate", str(micro_bundle_dir),
                  "--out", str(tmp_path / "c.json"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "c.json").exists()


class TestReconstructAndEvaluate:
    def test_reconstruct_writes_ply_and_stats(self, micro_bundle_dir, tmp_path):
        ply = tmp_path / "cloud.ply"
        stats_path = tmp_path / "stats.json"
        assert main(["--quiet", "reconstruct", str(micro_bundle_dir),
                     str(micro_bundle_dir / "calib.json"),
                     "--out-ply", str(ply), "--out-stats", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["points"] > 500
        mean_r = 0.475
        assert stats["surface_rmse"] < 0.02 * mean_r
        assert ply.read_text().startswith("ply")

    def test_reconstruct_missing_calib_exits_2(self, micro_bundle_dir, tmp_path):
        assert main(["--quiet", "reconstruct", str(micro_bundle_dir),
                     str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_reconstruct_bad_stride_exits_2(self, micro_bundle_dir, tmp_path, stride):
        ply = tmp_path / "cloud.ply"
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "reconstruct", str(micro_bundle_dir),
                  str(micro_bundle_dir / "calib.json"), "--out-ply", str(ply),
                  "--out-stats", str(tmp_path / "stats.json"), "--stride", stride])
        assert exc.value.code == 2
        assert not ply.exists()

    def test_evaluate_prints_table(self, micro_bundle_dir, capsys):
        assert main(["--quiet", "evaluate", str(micro_bundle_dir / "calib.json"),
                     str(micro_bundle_dir / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 12
        assert "camera.fx" in out and "translation" in out

    def test_evaluate_schema_mismatch_exits_2(self, micro_bundle_dir, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text(json.dumps({"truth": {"camera": {}}}))
        assert main(["--quiet", "evaluate", str(micro_bundle_dir / "calib.json"),
                     str(bad)]) == 2
