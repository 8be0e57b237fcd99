"""Benchmark of twosphere: one workload per process, a closed loop of ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up (import, input generation, one untimed warm-up op) is done
several times and its median reported; then ops run one at a time until
``--seconds`` have passed. Every op's output is checked against the scene's
ground truth. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` every other op is traced and the per-layer metrics are printed,
with the tracing overhead. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; per-op records
(and, traced, the spans) are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("calibrate-cppB-noisy", "cli-cppB")

END_TO_END = {"op_s.p50": "s", "op_cpu_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
ACCURACY = {"cam_err_pct": "%", "proj_err_pct": "%", "recon_rel_rmse": "ratio"}
OVERHEAD = {"trace.overhead_s": "s"}


def import_program():
    """Import twosphere from the checkout's ``src/`` and the benchmark modules;
    returns the import time in seconds. Exits non-zero without a program to run."""
    if not (SRC / "twosphere" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'twosphere'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import twosphere

    if SRC.resolve() not in Path(twosphere.__file__).resolve().parents:
        sys.exit(f"perfbench: twosphere imported from {twosphere.__file__}, not from {SRC}")
    global tracing, workloads
    import tracing as tracing_module
    import workloads as workloads_module

    tracing, workloads = tracing_module, workloads_module
    return time.perf_counter() - T_START


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS library, by file name."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(p for p in libs if ".so" in p):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def env_stamp() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ISC_CALIB_THREADS": os.environ.get("ISC_CALIB_THREADS"),
        "machine": platform.machine(),
    }


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def run_op(wl, i: int, tracer=None) -> dict:
    """Time one op (wall and process CPU), then check its output."""
    error = None
    if tracer is not None:
        tracer.install()
        tracer.start_op(i)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.op(i)
    except Exception:  # a failing op is counted, and the loop goes on
        error = traceback.format_exc()
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.finish_op()
            tracer.uninstall()
    if error is None:
        try:
            outcome = wl.check(i, out)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"op {i} raised:\n{error}", file=sys.stderr)
        outcome = workloads.Outcome(problems=[error.strip().splitlines()[-1]])
    elif outcome.problems:
        print(f"op {i} failed its check: {'; '.join(outcome.problems)}", file=sys.stderr)
    return {"op": i, "traced": tracer is not None, "wall_s": t1 - t0, "cpu_s": c1 - c0,
            **dataclasses.asdict(outcome)}


def accuracy(records: list[dict]) -> dict:
    """Median over ops of each accuracy field (0 where no op reports it)."""
    return {name: median(r[name] for r in records if r[name] is not None) for name in ACCURACY}


def run(workload: str, seed: int, seconds: float, traced: bool, import_s: float = 0.0,
        **scene) -> dict:
    """One benchmark run; returns the result line plus the detail that goes to
    the result file. ``scene`` overrides the workload's scene and noise."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[workload](seed, work_dir=work, **scene)
        setups, problems = [], []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            warm = run_op(wl, workloads.WARMUP)
            setups.append(time.perf_counter() - t0)
            problems += [f"warm-up op: {p}" for p in warm["problems"]]

        tracer = tracing.Tracer() if traced else None
        records = []
        t_begin = time.perf_counter()
        # traced runs alternate traced and untraced ops, so the overhead is
        # measured on interleaved ops and both halves are never empty; the
        # parity flips every cycle of bundles so both halves see every bundle
        cycle = workloads.CALIB_BUNDLES
        min_ops = 2 if traced else 1
        while time.perf_counter() - t_begin < seconds or len(records) < min_ops:
            i = len(records)
            trace_op = traced and (i + i // cycle) % 2 == 0
            records.append(run_op(wl, i, tracer if trace_op else None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    plain = [r for r in records if not r["traced"]]
    detail = {"setup_repeats_s": setups, "import_s": import_s, "records": records,
              "warmup_problems": problems}
    if traced:
        if tracer.missing:
            print(f"not bound, reads 0: {', '.join(tracer.missing)}", file=sys.stderr)
        layers, shares = tracing.layer_summary(tracer)
        traced_p50 = median(r["wall_s"] for r in records if r["traced"])
        metrics = {**layers, **accuracy(records),
                   "trace.overhead_s": traced_p50 - median(r["wall_s"] for r in plain)}
        units = {**tracing.LAYER_METRICS, **ACCURACY, **OVERHEAD}
        detail.update(shares=shares, traced_op_s_p50=traced_p50, spans=tracing.span_dump(tracer))
    else:
        metrics = {
            "op_s.p50": median(r["wall_s"] for r in plain),
            "op_cpu_s.p50": median(r["cpu_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + median(setups),
        }
        units = END_TO_END
        detail["accuracy"] = accuracy(records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return {"result": result, "detail": detail}


def report(args, env: dict, out: dict) -> None:
    """Print the human-readable lines, then the result line last."""
    result, detail = out["result"], out["detail"]
    n = result["attempted"]
    n_metric = sum(r["traced"] for r in detail["records"]) if args.trace else n
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
          f"{n} ops, {result['failed']} failed, fail_rate {result['failed'] / n:.4g}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} (n={n_metric})")
    for name, value in detail.get("accuracy", {}).items():
        print(f"  {name:<28} {value:>14.6g} {ACCURACY[name]:<6} (n={n})")
    for name, value in sorted(detail.get("shares", {}).items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"  share {name:<22} {value:>14.4f} of op wall")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_s = import_program()
    WORK.mkdir(exist_ok=True)
    env = env_stamp()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    stem = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as f:
        json.dump({"env": env, "args": vars(args), **out}, f)
    report(args, env, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
