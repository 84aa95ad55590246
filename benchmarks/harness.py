"""Timed and traced runs of one workload, driving selhaz.cli.main in-process.

A timed run (``--trace 0``) runs whole passes of the workload until the time
is up, with no tracing, and measures set-up in fresh interpreters started
between passes, spread evenly over the run. A traced
run (``--trace 1``) alternates untraced and traced passes, so that tracing
overhead is measured on the same seconds, then times worker counts on
command 0 and the largest ``_assemble`` input at 1 and 2 workers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import Workload, with_workers

# Set-up samples per timed run. They are spread over the run, so that a burst
# of contention on the host hits a few of them, not all.
SETUP_SAMPLES = 25

# Run in a fresh interpreter: import the CLI, then parse and validate every
# command line of the workload the way main() does before any work.
_SETUP_CODE = """
import json, sys
import selhaz.cli as cli
parser = cli._build_parser()
for argv in json.loads(sys.argv[1]):
    args = parser.parse_args(argv)
    if args.command in ("risk-table", "dominance", "plot-data"):
        cli.config_from_args(args)
    else:
        cli._merge(args)
print(cli.__file__)
"""


class Runner:
    """Invokes a workload's commands and counts attempts and failures.

    The first output of each command is its reference. The workload's check
    runs on the reference pass; every later output must equal the reference
    byte for byte. An invocation fails if main raises, returns non-zero, or
    its output fails either check.
    """

    def __init__(self, workload: Workload, main) -> None:
        self.workload = workload
        self.main = main
        self.reference: list[str | None] = [None] * len(workload.commands)
        self.bad_reference: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, index: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(self.workload.commands[index].argv)}: {problem}")

    def invoke(self, index: int, argv=None, main=None) -> tuple[float, bool]:
        """Run command index (or argv in its place); return (seconds, ok)."""
        argv = list(argv if argv is not None else self.workload.commands[index].argv)
        main = main or self.main
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a failed invocation, not a crash
                error = exc
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        if error is not None or code != 0:
            self._fail(index, f"exit {code}, {error!r}, stderr {err.getvalue().strip()!r}")
            return seconds, False
        if self.reference[index] is None:
            self.reference[index] = text
        elif text != self.reference[index]:
            self._fail(index, "output differs from the first output of this command")
            return seconds, False
        if index in self.bad_reference:
            self._fail(index, "output repeats a reference that failed its checks")
            return seconds, False
        return seconds, True

    def reference_pass(self) -> None:
        """Run every command once and check the outputs."""
        for i in range(len(self.workload.commands)):
            self.invoke(i)
        if any(r is None for r in self.reference):
            return
        try:
            found = self.workload.check(list(self.reference))
        except Exception as exc:  # a malformed output the check could not parse
            found = [(i, f"check raised {exc!r}") for i in range(len(self.reference))]
        for index, problem in found:
            if index not in self.bad_reference:
                self.bad_reference.add(index)
                self._fail(index, problem)
            elif len(self.problems) < 20:
                self.problems.append(problem)

    def run_pass(self, times: list[float], main=None) -> int:
        """One pass of every command; appends each time and returns work done."""
        work = 0
        for i, cmd in enumerate(self.workload.commands):
            seconds, ok = self.invoke(i, main=main)
            times.append(seconds)
            work += cmd.work if ok else 0
        return work


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, count): the sample with exactly ten samples above it.

    That is the highest percentile with at least ten samples beyond it. With
    ten samples or fewer, the maximum is returned as the 100th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbe:
    """Times fresh interpreters running _SETUP_CODE for one workload."""

    def __init__(self, workload: Workload, src: Path) -> None:
        self.src = src
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), self.env.get("PYTHONPATH")]))
        self.argvs = json.dumps([list(cmd.argv) for cmd in workload.commands])
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, self.argvs],
            env=self.env, cwd=self.src.parent, capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        self.samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"set-up imported selhaz from {proc.stdout.strip()}, not {self.src}")


def timed_run(workload: Workload, main, seconds: float, src: Path) -> dict:
    setup = SetupProbe(workload, src)
    runner = Runner(workload, main)
    runner.reference_pass()
    times: list[float] = []
    work = 0
    start = time.perf_counter()
    while True:
        work += runner.run_pass(times)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        # Set-up sample i is due at i / SETUP_SAMPLES of the run.
        while len(setup.samples) < SETUP_SAMPLES * elapsed / seconds:
            setup.sample()
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    if workload.rerun_workers is not None:
        # Worker counts must not change the bytes of the output.
        runner.invoke(0, argv=with_workers(workload.commands[0].argv, workload.rerun_workers))
    tail_s, tail_pct, count = tail(times)
    return {
        "runner": runner,
        "metrics": {
            "setup_s": (statistics.median(setup.samples), "s"),
            "cmd_s_p50": (statistics.median(times), "s"),
            "cmd_s_tail": (tail_s, "s"),
            "work_per_s": (work / math.fsum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {
            "cmd_s_tail_percentile": round(tail_pct, 2),
            "cmd_samples": count,
            "fail_ratio": runner.failed / runner.attempted,
            "work": work,
            "setup_samples": len(setup.samples),
        },
    }


def _alternate(fns, until: float, minimum: int = 3) -> list[list]:
    """Call each fn in turn, at least minimum times and until the deadline.

    Returns the results of each fn, in call order.
    """
    out = [[] for _ in fns]
    while len(out[0]) < minimum or time.perf_counter() < until:
        for fn, samples in zip(fns, out):
            samples.append(fn())
    return out


def traced_run(workload: Workload, main, seconds: float, trace_file: Path) -> dict:
    import numpy as np
    from selhaz import risk

    runner = Runner(workload, main)
    runner.reference_pass()
    tracer = tracing.Tracer()
    traced_main = tracer.traced(main, "cli.main")
    start = time.perf_counter()
    share = 0.6 if workload.rerun_workers is not None else 1.0

    untraced: list[float] = []
    traced: list[float] = []

    def traced_pass():
        tracer.pass_id += 1
        tracer.install()
        try:
            runner.run_pass(traced, main=traced_main)
        finally:
            tracer.uninstall()

    _alternate([lambda: runner.run_pass(untraced), traced_pass], start + share * seconds)
    metrics, counts_repeat = tracing.aggregate(tracer.spans, tracer.counters)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    w1 = w2 = speedup = 0.0
    blocks = metrics["scaling.blocks_per_call"]
    if workload.rerun_workers is not None:
        argv = workload.commands[0].argv
        one, two = _alternate(
            [
                lambda: runner.invoke(0, argv=with_workers(argv, 1))[0],
                lambda: runner.invoke(0, argv=with_workers(argv, 2))[0],
            ],
            start + 0.8 * seconds,
        )
        w1, w2 = statistics.median(one), statistics.median(two)
    if tracer.largest_assemble is not None and tracer.largest_assemble[0] > 1:
        _, worker_fn, reps = tracer.largest_assemble
        results = {}

        def assemble(workers):
            t0 = time.perf_counter()
            results[workers] = risk._assemble(worker_fn, reps, workers)
            return time.perf_counter() - t0

        one, two = _alternate([lambda: assemble(1), lambda: assemble(2)], start + seconds)
        speedup = statistics.median(one) / statistics.median(two)
        runner.attempted += 1
        if not np.array_equal(results[1], results[2]):
            runner.problems.append("_assemble output differs between 1 and 2 workers")
            runner.failed += 1
    metrics.update(
        {
            "risk.speedup_w2": speedup,
            "scaling.cmd_w1_s": w1,
            "scaling.cmd_w2_s": w2,
            # More workers than cores: counts only, no wall-clock scaling.
            "scaling.threads_w4": min(4, blocks),
            "scaling.threads_w8": min(8, blocks),
        }
    )
    _write_spans(tracer, trace_file)
    return {
        "runner": runner,
        "metrics": metrics,
        "detail": {
            "traced_passes": tracer.pass_id,
            "counts_repeat": counts_repeat,
            "cmd_s_p50_untraced": statistics.median(untraced),
            "cmd_s_p50_traced": statistics.median(traced),
            "fail_ratio": runner.failed / runner.attempted,
        },
    }


def _write_spans(tracer: tracing.Tracer, path: Path) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": list(tracing.Span._fields),
                    "spans": [list(s) for s in tracer.spans],
                    "counters": {str(p): dict(c) for p, c in tracer.counters.items()},
                },
                fh,
            )
    except OSError as exc:
        print(f"warning: could not write spans to {path}: {exc}", file=sys.stderr)
