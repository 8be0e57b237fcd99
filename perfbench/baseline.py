"""Measure a baseline: the benchmark over several seeds per workload.

    python3 perfbench/baseline.py [--first-seed 0] [--out perfbench/baseline.json]

For each workload, runs ``run.py`` on ten seeds with tracing off and prints
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles over the median, from ``statistics.quantiles(n=4)``); then
runs it once more with tracing on and records the per-layer metrics, each
layer's share of op wall time and the tracing overhead. The run length is
BENCHMARK.json's ``run_seconds``. Writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    saved = json.loads(detail_path.read_text())
    saved["detail"].pop("spans", None)
    return {"seed": seed, "result": result, "env": saved["env"], "detail": saved["detail"]}


def spread_summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def summarize(runs: list[dict]) -> dict:
    metrics = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    return {
        "seeds": [r["seed"] for r in runs],
        "ops_per_run": [r["result"]["attempted"] for r in runs],
        "failed": sum(r["result"]["failed"] for r in runs),
        "end_to_end": {
            name: {"unit": m["unit"], **spread_summary(m["values"])} for name, m in metrics.items()
        },
        "accuracy": {
            name: statistics.median(r["detail"]["accuracy"][name] for r in runs)
            for name in runs[0]["detail"]["accuracy"]
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, args.first_seed + k, seconds, 0) for k in range(SEEDS)]
        entry = summarize(runs)
        summary["env"] = runs[-1]["env"]
        for name, m in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or m["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"{workload:<22} {name:<14} median {m['median']:.5g} {m['unit']:<3} "
                  f"q1 {m['q1']:.5g} q3 {m['q3']:.5g} spread {m['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        traced = run_once(workload, args.first_seed + SEEDS, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["result"]["metrics"].items()}
        entry["shares"] = traced["detail"]["shares"]
        entry["trace_overhead_s"] = entry["per_layer"]["trace.overhead_s"]
        top = sorted(entry["shares"].items(), key=lambda kv: -kv[1])[:4]
        print(f"{workload:<22} trace overhead {entry['trace_overhead_s']:.4g} s per op; "
              f"top shares " + ", ".join(f"{k} {v:.3f}" for k, v in top), flush=True)
        summary["workloads"][workload] = entry

    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
