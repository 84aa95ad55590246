"""Run every workload over several seeds and record a baseline file.

    python3 benchmarks/record.py --out benchmarks/results/BENCH_0.json

Each seed runs every workload once with tracing off (seeds outer, workloads
inner, so drift on the host spreads over all workloads), then a few traced
runs follow. For each end-to-end metric the file records the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. The
manifest records the host, the versions, the git commit, the seeds and the
exact argv of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)  # untraced runs
TRACE_SEEDS = range(1, 3)  # traced runs


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        if key in ("manifest", "detail"):
            result[key] = json.loads(value)
        elif key == "problem":
            result.setdefault("problems", []).append(value)
    result["run_wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = None, ""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_modified_since_commit": bool(dirty),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    chosen = [w for w in args.workloads.split(",") if w]

    runs = {w: [] for w in chosen}
    for seed in SEEDS:
        for w in chosen:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            r = runs[w][-1]
            summary = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
            print(f"{w} seed {seed}: correct={r['correct']} {summary}", flush=True)
    traced = {w: [run_once(w, s, args.seconds, 1) for s in TRACE_SEEDS] for w in chosen}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report = {
        "manifest": {
            **host(),
            "run_seconds": args.seconds,
            "seeds": list(SEEDS),
            "trace_seeds": list(TRACE_SEEDS),
            # Other seeds differ only in the value after --seed.
            "argv_for_seed_1": {
                w: [list(c.argv) for c in workloads.build(w, 1).commands] for w in chosen
            },
        },
        "workloads": {},
    }
    ok = True
    for w in chosen:
        entry = {
            "correct": all(r["correct"] for r in runs[w] + traced[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {},
            "details": [r.get("detail") for r in runs[w]],
            "per_layer": [
                {"seed": s, "detail": r.get("detail"),
                 "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for s, r in zip(TRACE_SEEDS, traced[w])
            ],  # fmt: skip
            "problems": sorted({p for r in runs[w] + traced[w] for p in r.get("problems", [])}),
        }
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs[w]])
            stats["bound"] = bound
            stats["within_bound"] = stats["spread"] <= bound
            stats["within_third_of_bound"] = stats["spread"] < bound / 3
            ok = ok and stats["within_third_of_bound"]
            entry["end_to_end"][name] = stats
            print(f"{w} {name}: median {stats['median']:.6g} spread {stats['spread']:.4f} (bound {bound})")
        counts = [
            {k: v for k, v in t["metrics"].items() if units[k] in ("count", "bytes")}
            for t in entry["per_layer"]
        ]
        entry["per_layer_counts_repeat"] = all(c == counts[0] for c in counts)
        ok = ok and entry["correct"] and entry["per_layer_counts_repeat"]
        report["workloads"][w] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("steady and correct" if ok else "NOT steady or NOT correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
