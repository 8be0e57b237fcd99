import copy
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from conftest import MICRO_CONFIG, make_micro_truth

from twosphere.cli import main
from twosphere.errors import BehindCamera, InvalidConfig
from twosphere.imageio import read_float32, write_float32
from twosphere.simulate import SceneTruth, render_scene


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


def validate_config(cfg) -> list[str]:
    """The problems ``SceneTruth.from_config`` finds in a scene config; none
    for a valid config, also of a scene that cannot be rendered."""
    try:
        SceneTruth.from_config(cfg)
    except InvalidConfig as exc:
        return list(exc.problems)
    except BehindCamera:
        pass
    return []


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

ROT = MICRO_CONFIG["projector_pose"]["rotation"]

# (config override, field the problem names) that break a scene rule: the fringe
# ladder starts at 1 cycle per frame, and the projector rotation is a proper rotation
BAD_SCENES = [
    pytest.param({"fringe.frequencies_cpf": []}, "fringe.frequencies_cpf", id="empty_ladder"),
    pytest.param({"fringe.frequencies_cpf": [2, 16]}, "fringe.frequencies_cpf", id="ladder_from_2"),
    pytest.param({"projector_pose.rotation": [[1.5 * v for v in row] for row in ROT]},
                 "projector_pose.rotation", id="rotation_scaled"),
    pytest.param({"projector_pose.rotation": [*ROT[:2], [-v for v in ROT[2]]]},
                 "projector_pose.rotation", id="rotation_reflected"),
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


@pytest.fixture(scope="module")
def empty_signal_dir(tmp_path_factory):
    """A micro bundle saved with an empty signal pixel list."""
    bundle = render_scene(make_micro_truth())
    bundle.pixels = bundle.pixels[:0]
    bundle.stacks = {key: [v[:0] for v in stack] for key, stack in bundle.stacks.items()}
    out = tmp_path_factory.mktemp("empty") / "bundle"
    bundle.save(out)
    return out


def cut_fringe(root):
    path = root / "fringes.f32"
    path.write_bytes(path.read_bytes()[:1000])


def edit_pixels(edit):
    """Rewrite ``pixels.i32`` as ``edit`` of its (n, 2) int32 list."""
    def apply(root):
        path = root / "pixels.i32"
        pixels = np.fromfile(path, dtype="<i4").reshape(-1, 2)
        np.asarray(edit(pixels), dtype="<i4").tofile(path)
    return apply


def edit_fringes(edit):
    """Rewrite ``fringes.f32`` (and its sidecar) as ``edit`` of its rows."""
    def apply(root):
        write_float32(root / "fringes.f32", edit(read_float32(root / "fringes.f32")))
    return apply


def set_fringe(image, value):
    """``edit_fringes`` setting one value of row ``image``, at the middle pixel
    of the list, inside a disc of the micro scene."""
    def edit(rows):
        rows[image, rows.shape[1] // 2] = value
        return rows
    return edit_fringes(edit)


def make_v1(root):
    """The bundle in the layout of format version 1: a manifest of that
    version, 24 full 320 x 240 fringe frames under ``fringes/`` and no pixel
    list."""
    edit_manifest(lambda m: m.update(format_version=1))(root)
    for name in ("pixels.i32", "fringes.f32", "fringes.f32.json"):
        (root / name).unlink()
    (root / "fringes").mkdir()
    for orientation in "vh":
        for freq in (1, 8, 64):
            for k in range(4):
                write_float32(root / "fringes" / f"{orientation}_f{freq:03d}_s{k}.f32",
                              np.zeros((240, 320), np.float32))


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


def add_column(name):
    def apply(root):
        path = root / name
        path.write_text("".join(f"{row},1\n" for row in path.read_text().splitlines()))
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
    pytest.param(edit_json("fringes.f32.json", lambda m: m.pop("width")),
                 "fringes.f32.json: no integer width and height", id="sidecar_without_width"),
    pytest.param(edit_json("fringes.f32.json", lambda m: m.update(width=320.7)),
                 "fringes.f32.json: no integer width and height", id="sidecar_fractional_width"),
    pytest.param(edit_json("fringes.f32.json", lambda m: m.update(width="320")),
                 "fringes.f32.json: no integer width and height", id="sidecar_text_width"),
    pytest.param(edit_json("fringes.f32.json", lambda m: m.update(height=True)),
                 "fringes.f32.json: no integer width and height", id="sidecar_true_height"),
    pytest.param(append_line("contours/sphere0.csv", "a,b"),
                 "contours/sphere0.csv: not rows of 2 numbers", id="contour_text_line"),
    pytest.param(append_line("contours/sphere1.csv", "1,2,3"),
                 "contours/sphere1.csv: not rows of 2 numbers", id="contour_odd_count"),
    pytest.param(add_column("contours/sphere0.csv"),
                 "contours/sphere0.csv: not rows of 2 numbers", id="contour_three_columns"),
    pytest.param(append_line("contours/sphere0.csv", "inf,inf"),
                 "contours/sphere0.csv: not rows of 2 finite numbers", id="contour_inf"),
    pytest.param(lambda root: (root / "contours" / "sphere0.csv").write_text(""),
                 "contours/sphere0.csv: no points", id="contour_empty"),
    pytest.param(edit_manifest(lambda m: m["truth"]["projector_pose"].update(
                     rotation=[[1.5 * v for v in row] for row in ROT])),
                 "manifest truth projector_pose.rotation: must be a rotation",
                 id="manifest_with_scaled_rotation"),
    pytest.param(edit_manifest(lambda m: m.update(format_version=99)),
                 "format_version 99: only 2 is read", id="manifest_version_99"),
    # the version as text, not the integer 2
    pytest.param(edit_manifest(lambda m: m.update(format_version="2")),
                 "format_version '2': only 2 is read", id="manifest_version_2"),
    pytest.param(make_v1, "format_version 1: only 2 is read", id="v1_bundle"),
    pytest.param(edit_json("fringes.f32.json", lambda m: m.pop("height")),
                 "fringes.f32.json: no integer width and height", id="sidecar_without_height"),
    pytest.param(edit_fringes(lambda rows: rows[:-1]),
                 "fringes.f32: 23 images of", id="fringes_one_image_short"),
    pytest.param(edit_fringes(lambda rows: rows[:, 1:]),
                 "fringes.f32: 24 images of", id="fringes_one_pixel_short"),
    # step 1 of a 4-step stack: an inf there decoded to phase pi/4 and modulation inf
    pytest.param(set_fringe(1, np.inf), "fringes.f32: a value that is not finite",
                 id="fringe_inf"),
    pytest.param(set_fringe(13, NAN), "fringes.f32: a value that is not finite",
                 id="fringe_nan"),
    pytest.param(lambda root: (root / "pixels.i32").unlink(), "pixels.i32",
                 id="pixels_missing"),
    pytest.param(edit_pixels(lambda px: np.append(px.ravel(), 7)),
                 "bytes, not whole (x, y) pairs", id="pixels_odd_size"),
    # a pixel after the last, then one before the first: still in row-major order
    pytest.param(edit_pixels(lambda px: np.vstack([px, [[320, px[-1, 1]]]])),
                 "pixels.i32: a pixel outside the 320x240 frame", id="pixels_past_the_width"),
    pytest.param(edit_pixels(lambda px: np.vstack([[[0, -1]], px])),
                 "pixels.i32: a pixel outside the 320x240 frame", id="pixels_negative_y"),
    pytest.param(edit_pixels(lambda px: np.vstack([px, [[0, 240]]])),
                 "pixels.i32: a pixel outside the 320x240 frame", id="pixels_past_the_height"),
    pytest.param(edit_pixels(lambda px: np.vstack([[[-1, px[0, 1]]], px])),
                 "pixels.i32: a pixel outside the 320x240 frame", id="pixels_negative_x"),
    pytest.param(edit_pixels(lambda px: px[[1, 0, *range(2, len(px))]]),
                 "pixels.i32: pixels not strictly in row-major order", id="pixels_swapped"),
    pytest.param(edit_pixels(lambda px: px[[0, 0, *range(2, len(px))]]),
                 "pixels.i32: pixels not strictly in row-major order", id="pixels_repeated"),
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

    @pytest.mark.parametrize("overrides, field", BAD_SCENES)
    def test_bad_scene_diagnostic(self, tmp_path, overrides, field):
        problems = validate_config(json.loads(write_config(tmp_path, overrides).read_text()))
        assert len(problems) == 1 and problems[0].startswith(field + ":")


class TestSimulate:
    def test_bundle_layout_and_manifest(self, micro_bundle_dir):
        manifest = json.loads((micro_bundle_dir / "manifest.json").read_text())
        assert manifest["truth"]["camera"]["fx_px"] == 300.0
        assert manifest["truth"]["noise"]["seed"] == 3
        assert (micro_bundle_dir / "contours" / "sphere0.csv").exists()
        assert (micro_bundle_dir / "contours" / "sphere1.csv").exists()
        assert manifest["format_version"] == 2
        assert sorted(p.name for p in micro_bundle_dir.iterdir()) == [
            "contours", "fringes.f32", "fringes.f32.json", "manifest.json", "pixels.i32"]
        n = (micro_bundle_dir / "pixels.i32").stat().st_size // 8
        assert (micro_bundle_dir / "fringes.f32").stat().st_size == 4 * 24 * n
        assert json.loads((micro_bundle_dir / "fringes.f32.json").read_text()) == {
            "dtype": "float32", "height": 24, "width": n}

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

    @pytest.mark.parametrize("overrides, field", BAD_SCENES)
    def test_bad_scene_config_exits_2(self, tmp_path, caplog, overrides, field):
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

    def test_empty_signal_list_exits_4(self, empty_signal_dir, caplog):
        assert main(["--quiet", "calibrate", str(empty_signal_dir)]) == 4
        errors = error_lines(caplog)
        assert len(errors) == 1 and "sphere 0 has 0 valid correspondences" in errors[0]
        assert not (empty_signal_dir / "calib.json").exists()

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

    @pytest.mark.parametrize("contours", [1, 3])
    def test_reconstruct_without_two_contours_exits_5(self, micro_bundle_dir, micro_calib,
                                                      tmp_path, caplog, contours):
        import shutil

        broken = tmp_path / "bundle"
        shutil.copytree(micro_bundle_dir, broken)
        if contours == 1:
            (broken / "contours" / "sphere1.csv").unlink()
        else:
            shutil.copy(broken / "contours" / "sphere0.csv", broken / "contours" / "sphere2.csv")
        ply, stats = tmp_path / "c.ply", tmp_path / "s.json"
        assert main(["--quiet", "reconstruct", str(broken), str(micro_calib),
                     "--out-ply", str(ply), "--out-stats", str(stats)]) == 5
        assert error_lines(caplog) == [
            f"two sphere observations required, found {contours}"
        ]
        assert not ply.exists() and not stats.exists()

    def test_stride_wider_than_the_discs_exits_4(self, micro_bundle_dir, tmp_path, caplog):
        out = tmp_path / "c.json"
        assert main(["--quiet", "calibrate", str(micro_bundle_dir), "--stride", "300",
                     "--out", str(out)]) == 4
        errors = error_lines(caplog)
        assert len(errors) == 1 and "valid correspondences, at least 10" in errors[0]
        assert not out.exists()

    def test_contour_off_an_ellipse_exits_5(self, micro_bundle_dir, tmp_path, caplog):
        import shutil

        import numpy as np

        broken = tmp_path / "hyperbola"
        shutil.copytree(micro_bundle_dir, broken)
        (broken / "calib.json").unlink(missing_ok=True)
        # one branch of a hyperbola in place of sphere 0's silhouette
        t = np.linspace(-1.5, 1.5, 256)
        branch = np.column_stack([100.0 + 30.0 * np.cosh(t), 120.0 + 20.0 * np.sinh(t)])
        np.savetxt(broken / "contours" / "sphere0.csv", branch, delimiter=",")
        out = tmp_path / "c.json"
        assert main(["--quiet", "calibrate", str(broken), "--out", str(out)]) == 5
        errors = error_lines(caplog)
        assert len(errors) == 1 and "sphere 0's contour does not fit a real ellipse" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("points, reason", [
        pytest.param([[100.0 + 10 * k, 120.0 + k] for k in range(5)],
                     "conic fit needs at least 6 points, got 5", id="five_points"),
        pytest.param([[100.0 + 10 * k, 120.0 + 5 * k] for k in range(8)],
                     "conic coefficients are not uniquely determined", id="eight_collinear"),
    ])
    def test_contour_that_fixes_no_conic_exits_5(self, micro_bundle_dir, tmp_path, caplog,
                                                 points, reason):
        import shutil

        broken = tmp_path / "unfit"
        shutil.copytree(micro_bundle_dir, broken)
        (broken / "contours" / "sphere1.csv").write_text(
            "".join(f"{x},{y}\n" for x, y in points))
        out = tmp_path / "c.json"
        assert main(["--quiet", "calibrate", str(broken), "--out", str(out)]) == 5
        assert error_lines(caplog) == [
            f"degenerate geometry: sphere 1's contour cannot be fitted: {reason}"
        ]
        assert not out.exists()

    def test_coincident_contours_exit_5(self, micro_bundle_dir, tmp_path, caplog):
        import shutil

        broken = tmp_path / "coincident"
        shutil.copytree(micro_bundle_dir, broken)
        (broken / "calib.json").unlink(missing_ok=True)
        shutil.copy(broken / "contours" / "sphere0.csv", broken / "contours" / "sphere1.csv")
        assert main(["--quiet", "calibrate", str(broken)]) == 5
        errors = error_lines(caplog)
        assert len(errors) == 1 and "share one conic" in errors[0]
        assert not (broken / "calib.json").exists()

    def test_calibration_does_not_read_the_answer(self, micro_bundle_dir, micro_calib, tmp_path):
        import shutil

        from twosphere.simulate import rotation_about_y

        other = tmp_path / "other_truth"
        shutil.copytree(micro_bundle_dir, other)
        (other / "calib.json").unlink(missing_ok=True)
        # other valid intrinsics, pose and sphere centres; the frame sizes,
        # fringe settings, radii and noise stay
        manifest = json.loads((other / "manifest.json").read_text())
        truth = manifest["truth"]
        truth["camera"].update(fx_px=350.0, fy_px=340.0, skew_px=2.0, u0_px=150.0, v0_px=125.0)
        truth["projector"].update(fx_px=1000.0, fy_px=1010.0, skew_px=0.0, u0_px=420.0,
                                  v0_px=240.0)
        truth["projector_pose"] = {"rotation": rotation_about_y(-10.0).tolist(),
                                   "translation_lu": [0.5, 0.1, -0.2]}
        for sphere, center in zip(truth["spheres"], ([0.3, 0.2, 5.0], [-0.4, -0.1, 7.0])):
            sphere["center_lu"] = center
        (other / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "c.json"
        assert main(["--quiet", "calibrate", str(other), "--out", str(out)]) == 0
        got, want = (json.loads(path.read_text()) for path in (out, micro_calib))
        # only the comparison with the truth may change
        assert got.pop("error_report") != want.pop("error_report")
        assert got == want

    def test_oracle_directory_is_ignored(self, micro_bundle_dir, micro_calib, tmp_path,
                                         capsys):
        import shutil

        # a bundle of an earlier version carried oracle/sphereN.csv; it is not read
        old = tmp_path / "with_oracle"
        shutil.copytree(micro_bundle_dir, old)
        (old / "oracle").mkdir()
        (old / "oracle" / "sphere0.csv").write_text("not,a,table\n1,nan\n")
        out = tmp_path / "c.json"
        capsys.readouterr()
        assert main(["--quiet", "calibrate", str(old), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_bytes() == micro_calib.read_bytes()
        # calibrate prints the table evaluate prints for its result and the bundle's truth
        assert main(["--quiet", "evaluate", str(out), str(old / "manifest.json")]) == 0
        assert printed == capsys.readouterr().out

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

        broken = tmp_path / "full_frames"
        shutil.copytree(micro_bundle_dir, broken)
        # 24 full 320 x 240 camera frames, not the images' values at the pixel list
        write_float32(broken / "fringes.f32", np.zeros((24, 320 * 240), np.float32))
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

    @pytest.mark.parametrize("flag", [["--stride", "0"], ["--stride", "-2"], ["--mu", "-1"]])
    def test_bad_numeric_flag_exits_2(self, micro_bundle_dir, tmp_path, flag):
        # the parser rejects the value before any work starts
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "calibrate", str(micro_bundle_dir),
                  "--out", str(tmp_path / "c.json"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "c.json").exists()


class TestReconstructAndEvaluate:
    def test_reconstruct_writes_ply_and_stats(self, micro_bundle_dir, micro_calib, tmp_path):
        ply = tmp_path / "cloud.ply"
        stats_path = tmp_path / "stats.json"
        assert main(["--quiet", "reconstruct", str(micro_bundle_dir), str(micro_calib),
                     "--out-ply", str(ply), "--out-stats", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["points"] > 500
        mean_r = 0.475
        assert stats["surface_rmse"] < 0.02 * mean_r
        assert ply.read_bytes().startswith(b"ply\nformat binary_little_endian 1.0\n")

    def test_reconstruct_ply_round_trip(self, micro_bundle_dir, micro_calib, tmp_path):
        import numpy as np

        from twosphere import CalibResult, SceneBundle, reconstruct_cloud

        ply, stats_path = tmp_path / "cloud.ply", tmp_path / "stats.json"
        assert main(["--quiet", "reconstruct", str(micro_bundle_dir), str(micro_calib),
                     "--out-ply", str(ply), "--out-stats", str(stats_path),
                     "--stride", "1"]) == 0
        header, body = ply.read_bytes().split(b"end_header\n")
        stats = json.loads(stats_path.read_text())
        assert header.decode("ascii").splitlines()[2] == f"element vertex {stats['points']}"
        calib = CalibResult.from_json_dict(json.loads(micro_calib.read_text()))
        points, errors, _ = reconstruct_cloud(
            SceneBundle.load(micro_bundle_dir), calib.camera, calib.proj_matrix, stride=1
        )
        rows = np.frombuffer(body, "<f4").reshape(-1, 4)
        assert len(rows) == stats["points"] == len(points) > 500
        assert rows[:, :3].tobytes() == points.astype(np.float32).tobytes()
        assert rows[:, 3].tobytes() == errors.astype(np.float32).tobytes()

    def test_reconstruct_of_an_empty_signal_list_has_no_points(self, empty_signal_dir,
                                                               micro_calib, tmp_path):
        ply, stats_path = tmp_path / "cloud.ply", tmp_path / "stats.json"
        assert main(["--quiet", "reconstruct", str(empty_signal_dir), str(micro_calib),
                     "--out-ply", str(ply), "--out-stats", str(stats_path)]) == 0
        header = ply.read_bytes().split(b"end_header\n")[0].decode("ascii")
        assert header.splitlines()[2] == "element vertex 0"
        stats = json.loads(stats_path.read_text())
        assert stats["points"] == 0
        assert [stats[f"surface_{k}"] for k in ("rmse", "mean", "max")] == [None] * 3

    def test_reconstruct_missing_calib_exits_2(self, micro_bundle_dir, tmp_path):
        assert main(["--quiet", "reconstruct", str(micro_bundle_dir),
                     str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_reconstruct_bad_stride_exits_2(self, micro_bundle_dir, micro_calib, tmp_path,
                                            stride):
        ply = tmp_path / "cloud.ply"
        with pytest.raises(SystemExit) as exc:
            main(["--quiet", "reconstruct", str(micro_bundle_dir), str(micro_calib),
                  "--out-ply", str(ply),
                  "--out-stats", str(tmp_path / "stats.json"), "--stride", stride])
        assert exc.value.code == 2
        assert not ply.exists()

    def test_evaluate_prints_table(self, micro_bundle_dir, micro_calib, capsys):
        assert main(["--quiet", "evaluate", str(micro_calib),
                     str(micro_bundle_dir / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 12
        assert "camera.fx" in out and "translation" in out

    # an edit changes the calibration in place, or returns the document that replaces it
    @pytest.mark.parametrize("command", ["reconstruct", "evaluate"])
    @pytest.mark.parametrize("edit, reason", [
        pytest.param(lambda c: c["camera"].update(fx=-1), "focal lengths must be positive",
                     id="negative_fx"),
        pytest.param(lambda c: c["camera"].update(fx=NAN), "camera.fx: must be a finite number",
                     id="nan_fx"),
        pytest.param(lambda c: c["camera"].update(fx="a"), "camera.fx: must be a finite number",
                     id="text_fx"),
        pytest.param(lambda c: c.update(proj_matrix=c["proj_matrix"][:5]),
                     "proj_matrix: must be 12 finite numbers", id="five_entry_matrix"),
        pytest.param(lambda c: c["camera"].update(fx=True), "camera.fx: must be a finite number",
                     id="true_fx"),
        pytest.param(lambda c: c["projector"].update(skew=True),
                     "projector.skew: must be a finite number", id="true_projector_skew"),
        pytest.param(lambda c: c["proj_matrix"].__setitem__(4, False),
                     "proj_matrix: must be 12 finite numbers", id="false_matrix_entry"),
        pytest.param(lambda c: c["rotation"][1].__setitem__(2, NAN),
                     "rotation: must be a 3x3 matrix of finite numbers", id="nan_rotation_entry"),
        pytest.param(lambda c: c.update(camera=[300.0, 301.0]), "camera: must be an object",
                     id="camera_is_a_list"),
        pytest.param(lambda c: [c], "calibration: must be an object", id="top_level_list"),
        pytest.param(lambda c: c["camera"].__delitem__("fy"), "camera.fy: missing",
                     id="camera_without_fy"),
        pytest.param(lambda c: c["projector"].update(fx=-1),
                     "projector.fx: must be positive (focal lengths must be positive)",
                     id="negative_projector_fx"),
    ])
    def test_malformed_calib_exits_2(self, micro_bundle_dir, micro_calib, tmp_path, caplog,
                                     command, edit, reason):
        calib = json.loads(micro_calib.read_text())
        replaced = edit(calib)
        bad = tmp_path / "calib.json"
        bad.write_text(json.dumps(calib if replaced is None else replaced))
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
        assert len(errors) == 1 and errors[0].startswith("cannot load inputs: ")
        assert reason in errors[0]

    @pytest.mark.parametrize("version", [1, 99, "2", None])
    def test_evaluate_manifest_of_another_version_exits_2(self, micro_bundle_dir, micro_calib,
                                                         tmp_path, caplog, capsys, version):
        # the manifest's version is checked as SceneBundle.load checks it
        manifest = json.loads((micro_bundle_dir / "manifest.json").read_text())
        manifest["format_version"] = version
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        assert main(["--quiet", "evaluate", str(micro_calib), str(bad)]) == 2
        assert capsys.readouterr().out == ""
        assert error_lines(caplog) == [
            f"cannot load inputs: format_version {version!r}: only 2 is read"]

    def test_evaluate_schema_mismatch_exits_2(self, micro_calib, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text(json.dumps({"truth": {"camera": {}}}))
        assert main(["--quiet", "evaluate", str(micro_calib), str(bad)]) == 2


class TestUnwritableOutput:
    @pytest.mark.parametrize("case", ["simulate", "calibrate", "reconstruct", "reconstruct_stats"])
    def test_unwritable_output_exits_2(self, micro_bundle_dir, micro_calib, tmp_path, caplog,
                                       monkeypatch, case):
        def no_search(*args, **kwargs):
            raise AssertionError("calibrate searched before it checked its output directory")

        monkeypatch.setattr("twosphere.cli.run_calibration", no_search)
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        missing = tmp_path / "missing_dir"
        command = case.split("_")[0]
        argv = {
            # the bundle directory would have to be made inside a regular file
            "simulate": ["--config", str(write_config(tmp_path)), "--out", str(blocker / "b")],
            "calibrate": [str(micro_bundle_dir), "--out", str(missing / "c.json")],
            "reconstruct": [str(micro_bundle_dir), str(micro_calib),
                            "--out-ply", str(missing / "c.ply"),
                            "--out-stats", str(tmp_path / "s.json")],
            # the PLY is written, then the stats fail: the PLY must not be left behind
            "reconstruct_stats": [str(micro_bundle_dir), str(micro_calib),
                                  "--out-ply", str(tmp_path / "c.ply"),
                                  "--out-stats", str(missing / "s.json")],
        }[case]
        assert main(["--quiet", command, *argv]) == 2
        errors = error_lines(caplog)
        assert len(errors) == 1 and errors[0].startswith("cannot write")
        assert not missing.exists()
        assert not (tmp_path / "c.ply").exists() and not (tmp_path / "s.json").exists()
