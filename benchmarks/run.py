"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload table-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the selhaz package is imported from
its ``src/`` directory, never from an installed copy. With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end
metric of BENCHMARK.json; with ``--trace 1``, every per-layer metric. The
lines before it give the manifest and details (tail percentile, sample
count, fail ratio, problems found).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed passed to every command")
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        parser.error("--seed must lie in [0, 2**63)")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "selhaz" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no selhaz source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import selhaz.cli

    if not Path(selhaz.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: selhaz imported from {selhaz.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.build(args.workload, args.seed)
    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "selhaz": selhaz.__version__,
        "argv": [list(cmd.argv) for cmd in workload.commands],
    }
    print("manifest: " + json.dumps(manifest))

    if args.trace:
        trace_file = HERE / "out" / f"spans-{workload.name}-{args.seed}.json"
        result = harness.traced_run(workload, selhaz.cli.main, args.seconds, trace_file)
        values = {k: (v, None) for k, v in result["metrics"].items()}
    else:
        result = harness.timed_run(workload, selhaz.cli.main, args.seconds, SRC)
        values = result["metrics"]
    runner = result["runner"]

    metrics = {}
    for entry in wanted:
        value, unit = values.pop(entry["name"])
        if unit is not None and unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    detail = dict(result["detail"])
    detail.update({name: v for name, (v, _) in values.items()})
    print("detail: " + json.dumps(detail))
    for problem in runner.problems:
        print("problem: " + problem)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
