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

NAN, INF = float("nan"), float("inf")
YAW_POSE = {"yaw_deg": 15.0, "baseline_lu": 1.0}

# (config override, field the problem names) that validate_config must reject:
# every number finite and not a bool, frame sizes integers
BAD_NUMBERS = [
    pytest.param({"camera.skew_px": INF}, "camera.skew_px", id="skew_inf"),
    pytest.param({"camera.u0_px": INF}, "camera.u0_px", id="u0_inf"),
    pytest.param({"camera.fx_px": True}, "camera.fx_px", id="fx_true"),
    pytest.param({"projector.width_px": 320.5}, "projector.width_px", id="width_fraction"),
    pytest.param({"spheres.0.radius_lu": NAN}, "spheres[0].radius_lu", id="radius_nan"),
    pytest.param({"spheres.0.radius_lu": 10**400}, "spheres[0].radius_lu", id="radius_overflows"),
    pytest.param({"spheres.0.center_lu": [NAN, 0.0, 4.0]}, "spheres[0].center_lu",
                 id="center_nan"),
    pytest.param({"projector_pose.translation_lu": ["a", 0.0, 0.0]},
                 "projector_pose.translation_lu", id="translation_text"),
    pytest.param({"projector_pose.rotation.0.1": NAN}, "projector_pose.rotation",
                 id="rotation_nan"),
    pytest.param({"projector_pose": {**YAW_POSE, "yaw_deg": "x"}}, "projector_pose.yaw_deg",
                 id="yaw_text"),
    pytest.param({"projector_pose": {**YAW_POSE, "yaw_deg": NAN}}, "projector_pose.yaw_deg",
                 id="yaw_nan"),
    pytest.param({"noise.seed": True}, "noise.seed", id="seed_true"),
]


def error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]


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


def edit_json(name, edit):
    def apply(root):
        data = json.loads((root / name).read_text())
        edit(data)
        (root / name).write_text(json.dumps(data))
    return apply


def edit_manifest(edit):
    return edit_json("manifest.json", edit)


def append_line(name, line):
    def apply(root):
        with open(root / name, "a") as f:
            f.write(line + "\n")
    return apply


# broken bundles that must exit 2: (break the bundle copy, text the logged error names)
BROKEN_BUNDLES = [
    pytest.param(cut_fringe, "sidecar says", id="fringe_cut_to_1000_bytes"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].pop("fx_px")),
                 "camera.fx_px: missing", id="manifest_without_fx"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].update(fx_px=-5)),
                 "camera.fx_px: must be positive", id="manifest_with_negative_fx"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].update(skew_px=NAN)),
                 "camera.skew_px: missing or not a finite number", id="manifest_with_nan_skew"),
    pytest.param(edit_manifest(lambda m: m["truth"]["camera"].update(fx_px=True)),
                 "camera.fx_px: missing or not a finite number", id="manifest_with_true_fx"),
    pytest.param(edit_manifest(lambda m: m["truth"]["spheres"][0].update(center_lu=["a", 0, 4])),
                 "spheres[0].center_lu: must be a 3-vector", id="manifest_with_text_center"),
    pytest.param(edit_manifest(lambda m: m["truth"]["projector_pose"]["rotation"][0]
                               .__setitem__(1, NAN)),
                 "projector_pose.rotation: must be a 3x3 matrix", id="manifest_with_nan_rotation"),
    pytest.param(edit_manifest(lambda m: m.update(image_format="pgm16")),
                 "image_format 'pgm16'", id="manifest_names_pgm16"),
    pytest.param(lambda root: (root / "manifest.json").write_text("[1, 2]"),
                 "manifest.json is not a JSON object", id="manifest_is_a_list"),
    pytest.param(edit_json("fringes/v_f064_s2.f32.json", lambda m: m.pop("width")),
                 "v_f064_s2.f32.json: no integer width and height", id="sidecar_without_width"),
    pytest.param(append_line("contours/sphere0.csv", "a,b"),
                 "contours/sphere0.csv: not rows of 2 numbers", id="contour_text_line"),
    pytest.param(append_line("contours/sphere1.csv", "1,2,3"),
                 "contours/sphere1.csv: not rows of 2 numbers", id="contour_odd_count"),
    pytest.param(append_line("oracle/sphere0.csv", "1,2"),
                 "oracle/sphere0.csv: not rows of 7 numbers", id="oracle_short_line"),
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

    @pytest.mark.parametrize("overrides, field", BAD_NUMBERS)
    def test_bad_number_diagnostic(self, tmp_path, overrides, field):
        problems = validate_config(json.loads(write_config(tmp_path, overrides).read_text()))
        assert len(problems) == 1 and problems[0].startswith(field + ":")


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

    @pytest.mark.parametrize("overrides, field", BAD_NUMBERS)
    def test_bad_number_config_exits_2(self, tmp_path, caplog, overrides, field):
        cfg = write_config(tmp_path, overrides)
        assert main(["--quiet", "simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()
        errors = error_lines(caplog)
        assert len(errors) == 1 and errors[0].startswith(f"config {field}:")

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
        errors = error_lines(caplog)
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

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate"])
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda c: c["camera"].update(fx=-1), id="negative_fx"),
        pytest.param(lambda c: c["camera"].update(fx=NAN), id="nan_fx"),
        pytest.param(lambda c: c["camera"].update(fx="a"), id="text_fx"),
        pytest.param(lambda c: c.update(proj_matrix=c["proj_matrix"][:5]), id="five_entry_matrix"),
    ])
    def test_malformed_calib_exits_2(self, micro_bundle_dir, micro_calib, tmp_path, caplog,
                                     command, edit):
        calib = json.loads(micro_calib.read_text())
        edit(calib)
        bad = tmp_path / "calib.json"
        bad.write_text(json.dumps(calib))
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "reconstruct": [str(micro_bundle_dir), str(bad), "--out-ply", str(out / "c.ply"),
                            "--out-stats", str(out / "s.json")],
            "evaluate": [str(bad), str(micro_bundle_dir / "manifest.json")],
        }[command]
        assert main(["--quiet", command, *argv]) == 2
        assert not any(out.iterdir())
        errors = error_lines(caplog)
        assert len(errors) == 1 and errors[0].startswith("cannot load inputs")

    def test_evaluate_schema_mismatch_exits_2(self, micro_bundle_dir, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text(json.dumps({"truth": {"camera": {}}}))
        assert main(["--quiet", "evaluate", str(micro_bundle_dir / "calib.json"),
                     str(bad)]) == 2
