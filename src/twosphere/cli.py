"""Command-line interface: simulate, calibrate, reconstruct, evaluate.

Exit codes are a stable scripting contract:
0 success, 2 input/config error, 3 scene infeasibility, 4 calibration
failure, 5 degenerate geometry. Logs go to stderr, machine artifacts to
files; stdout carries only the final report.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from .calibrate import CalibResult, evaluate_against_truth, format_error_report
from .errors import CoincidentConics, DegenerateConic, InvalidConfig, TwosphereError
from .pipeline import run_calibration
from .reconstruct import reconstruct_cloud, write_ply
from .scene import SceneBundle, SceneTruth
from .simulate import PRESET_NAMES, preset, render_scene

log = logging.getLogger("twosphere")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCENE = 3
EXIT_CALIB = 4
EXIT_DEGENERATE = 5

# what a malformed bundle, calib.json or truth file raises while it is loaded
# (json.JSONDecodeError is a ValueError)
LOAD_ERRORS = (OSError, KeyError, TypeError, ValueError, TwosphereError)


def _load_truth(args) -> SceneTruth:
    """Resolve preset/config plus noise overrides into a SceneTruth, or exit 2."""
    if args.config is not None:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            log.error("cannot read config: %s", exc)
            raise SystemExit(EXIT_INPUT)
        except json.JSONDecodeError as exc:
            log.error("config line %d column %d: %s", exc.lineno, exc.colno, exc.msg)
            raise SystemExit(EXIT_INPUT)
        try:
            truth = SceneTruth.from_config(cfg)
        except InvalidConfig as exc:
            for problem in exc.problems:
                log.error("config %s", problem)
            raise SystemExit(EXIT_INPUT)
        except TwosphereError as exc:
            log.error("infeasible scene: %s", exc)
            raise SystemExit(EXIT_SCENE)
    else:
        truth = preset(args.preset)
    flags = {"contour_sigma": args.noise_contour, "intensity_sigma": args.noise_intensity,
             "seed": args.seed}  # a flag that is given replaces the config's value
    given = {name: value for name, value in flags.items() if value is not None}
    return truth.with_noise(replace(truth.noise, **given))


def _unwritable(path) -> str | None:
    """Why no file can be written at ``path``: a missing directory, or a
    directory in its place; None when the write can be tried."""
    path = Path(path)
    if not path.parent.is_dir():
        return f"no directory {path.parent}"
    return f"{path} is a directory" if path.is_dir() else None


def _has_two_spheres(bundle: SceneBundle) -> bool:
    """True when the bundle holds two sphere contours; else log the error."""
    if len(bundle.contours) == 2:
        return True
    log.error("two sphere observations required, found %d", len(bundle.contours))
    return False


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    truth = _load_truth(args)
    out = Path(args.out)  # save makes a missing directory, not one inside a file
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not existing.is_dir():  # found before the render, not after it
        log.error("cannot write bundle: %s is not a directory", existing)
        return EXIT_INPUT
    try:
        bundle = render_scene(truth)
    except TwosphereError as exc:
        log.error("scene infeasible: %s", exc)
        return EXIT_SCENE
    try:
        bundle.save(args.out)
    except OSError as exc:
        log.error("cannot write bundle: %s", exc)
        return EXIT_INPUT
    log.info("bundle written to %s (seed %d)", args.out, truth.noise.seed)
    print(json.dumps({"bundle": str(args.out), "seed": truth.noise.seed}))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    try:
        bundle = SceneBundle.load(args.bundle)
    except LOAD_ERRORS as exc:
        log.error("cannot load bundle: %s", exc)
        return EXIT_INPUT
    if not _has_two_spheres(bundle):
        return EXIT_DEGENERATE
    out_path = Path(args.out) if args.out else Path(args.bundle) / "calib.json"
    problem = _unwritable(out_path)
    if problem:  # found before the search, not after it
        log.error("cannot write calibration: %s", problem)
        return EXIT_INPUT

    try:
        result, _ = run_calibration(bundle, stride=args.stride, mu=args.mu)
    except (DegenerateConic, CoincidentConics) as exc:
        log.error("degenerate geometry: %s", exc)
        return EXIT_DEGENERATE
    except TwosphereError as exc:
        log.error("calibration failed: %s", exc)
        return EXIT_CALIB

    payload = result.to_json_dict()
    payload["constraint_checked"] = args.mu is None or args.mu > 0
    payload["error_report"] = evaluate_against_truth(result, bundle.truth)

    try:
        with open(out_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        log.error("cannot write calibration: %s", exc)
        return EXIT_INPUT
    log.info("calibration written to %s", out_path)

    print(format_error_report(payload["error_report"]))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    try:
        bundle = SceneBundle.load(args.bundle)
        calib = CalibResult.from_json_dict(json.loads(Path(args.calib).read_text()))
    except LOAD_ERRORS as exc:
        log.error("cannot load inputs: %s", exc)
        return EXIT_INPUT
    if not _has_two_spheres(bundle):
        return EXIT_DEGENERATE
    problem = _unwritable(args.out_ply) or _unwritable(args.out_stats)
    if problem:  # found before the cloud is triangulated, not after it
        log.error("cannot write outputs: %s", problem)
        return EXIT_INPUT
    points, errors, stats = reconstruct_cloud(
        bundle, calib.camera, calib.proj_matrix, stride=args.stride
    )
    try:
        write_ply(args.out_ply, points, errors)
        try:
            with open(args.out_stats, "w") as f:
                json.dump(stats, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError:
            Path(args.out_ply).unlink()  # no point cloud is left without its stats
            raise
    except OSError as exc:
        log.error("cannot write outputs: %s", exc)
        return EXIT_INPUT
    log.info("%d points written to %s", stats["points"], args.out_ply)
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    try:
        calib = CalibResult.from_json_dict(json.loads(Path(args.calib).read_text()))
        document = json.loads(Path(args.truth).read_text())
        if isinstance(document, dict) and "truth" in document:
            # a bundle manifest, version-checked as SceneBundle.load does
            document = SceneBundle.checked_manifest(document)["truth"]
        truth = SceneTruth.from_config(document)
    except InvalidConfig as exc:
        for problem in exc.problems:
            log.error("truth %s", problem)
        return EXIT_INPUT
    except LOAD_ERRORS as exc:
        log.error("cannot load inputs: %s", exc)
        return EXIT_INPUT
    print(format_error_report(evaluate_against_truth(calib, truth)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least(kind, low):
    """argparse type: ``kind(text)``, rejected (exit 2) unless finite and at least ``low``."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosphere",
        description="Camera-projector calibration from images of two spheres.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress info logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a synthetic scene bundle")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--config", help="scene config JSON path")
    p_sim.add_argument("--seed", type=_at_least(int, 0))
    p_sim.add_argument("--noise-contour", type=_at_least(float, 0.0), metavar="SIGMA_PX")
    p_sim.add_argument("--noise-intensity", type=_at_least(float, 0.0), metavar="SIGMA")
    p_sim.add_argument("--out", required=True, help="output bundle directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="calibrate from a bundle directory")
    p_cal.add_argument("bundle")
    p_cal.add_argument(
        "--mu", type=_at_least(float, 0.0), default=None, help="constraint weight (0 disables)"
    )
    p_cal.add_argument(
        "--stride", type=_at_least(int, 1), default=None, help="correspondence grid stride, px"
    )
    p_cal.add_argument("--out", default=None, help="calib JSON path (default: bundle/calib.json)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rec = sub.add_parser("reconstruct", help="triangulate a bundle with a calibration")
    p_rec.add_argument("bundle")
    p_rec.add_argument("calib")
    p_rec.add_argument("--out-ply", default="cloud.ply")
    p_rec.add_argument("--out-stats", default="stats.json")
    p_rec.add_argument("--stride", type=_at_least(int, 1), default=1)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_eval = sub.add_parser("evaluate", help="compare a calibration against scene truth")
    p_eval.add_argument("calib")
    p_eval.add_argument("truth", help="bundle manifest.json or scene config JSON")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
