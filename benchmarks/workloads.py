"""The benchmark's workloads: the selhaz commands each runs, their work, and
the checks their outputs must pass.

Every workload is a fixed list of command lines; the benchmark's seed reaches
the program only as ``--seed``. One pass runs the list once. The first pass
is the reference: it gets the semantic checks below, and every later output
of the same command must match it byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

# The default risk-table grid, row-major in scale_1 (k = 2).
GRID = tuple((s1, s2) for s1 in (0.3, 0.5, 0.7, 0.9, 1.0) for s2 in (0.2, 0.4, 0.6, 0.8, 1.0))

# Scale vectors for dominance-k5: equal scales, one small scale, spread
# scales, and two tied leaders, so the selected population varies.
DOMINANCE_SCALES = ((1, 1, 1, 1, 1), (0.5, 1, 1, 1, 1), (0.3, 0.5, 0.7, 0.9, 1), (0.2, 0.2, 1, 1, 1))

# A Monte Carlo cell or cross-check passes within this many standard errors
# of the exact quadrature risk.
Z_LIMIT = 5.0

TABLE_ESTIMATORS = ("N1", "N2", "N2I", "ML", "MLI")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    work: int  # estimator-replications, or exact-risk evaluations on exact-k2


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # check(outputs) -> [(command index, problem)] for the reference pass.
    check: Callable[[list[str]], list[tuple[int, str]]]
    # Worker count of a rerun of command 0 that must give the same bytes, or
    # None when the commands take no --workers.
    rerun_workers: int | None


def with_workers(argv, workers: int) -> tuple[str, ...]:
    """argv with --workers set to workers."""
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
    else:
        argv += ["--workers", str(workers)]
    return tuple(argv)


def _fmt(row) -> str:
    return ",".join(f"{s:g}" for s in row)


def _exact(c: float, scales, n: int) -> float:
    from selhaz.risk import exact_risk_scaleinv_k2

    return exact_risk_scaleinv_k2(c, tuple(1.0 / s for s in scales), n)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text}")
    return value


# -- table-default -------------------------------------------------------


def table_default(seed: int, reps: int | None = None) -> Workload:
    argv = ("risk-table", "--seed", str(seed))
    if reps is not None:
        argv += ("--reps", str(reps))
    n, r = 5, reps if reps is not None else 5000
    work = len(GRID) * len(TABLE_ESTIMATORS) * r

    def check(outputs):
        return [(0, p) for p in check_table(outputs[0], n)]

    return Workload(
        "table-default",
        (Command(argv, work),),
        check,
        rerun_workers=2,
    )


def check_table(text: str, n: int) -> list[str]:
    """Shape, finiteness, and N2 and ML cells within Z_LIMIT SE of exact."""
    header = ["scale_1", "scale_2"]
    for name in TABLE_ESTIMATORS:
        header += [f"R_{name}", f"SE_{name}"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [f"risk-table header {rows[:1]} != {header}"]
    if len(rows) != len(GRID) + 1:
        return [f"risk-table has {len(rows) - 1} rows, expected {len(GRID)}"]
    problems = []
    for scales, row in zip(GRID, rows[1:]):
        if row[:2] != _fmt(scales).split(","):
            problems.append(f"row scales {row[:2]} != {scales}")
            continue
        cells = dict(zip(header, row))
        try:
            for name in TABLE_ESTIMATORS:
                risk, se = _finite(cells[f"R_{name}"]), _finite(cells[f"SE_{name}"])
                if risk < 0 or se <= 0:
                    problems.append(f"{scales} {name}: risk {risk}, se {se}")
            for name, c in (("N2", n - 1), ("ML", n)):
                risk, se = float(cells[f"R_{name}"]), float(cells[f"SE_{name}"])
                exact = _exact(c, scales, n)
                if abs(risk - exact) > Z_LIMIT * se:
                    problems.append(
                        f"{scales} {name}: MC {risk} is {abs(risk - exact) / se:.2f} SE "
                        f"from exact {exact:.6f}"
                    )
        except ValueError as exc:
            problems.append(f"{scales}: {exc}")
    return problems


# -- dominance-k5 --------------------------------------------------------


def dominance_k5(seed: int, reps: int | None = None) -> Workload:
    r = reps if reps is not None else 100_000
    argv = (
        "dominance", "N2I", "N2", "--n", "3", "--k", "5", "--h-count", "3",
        "--workers", "2", "--reps", str(r),
        "--scales", ";".join(_fmt(row) for row in DOMINANCE_SCALES),
        "--seed", str(seed),
    )  # fmt: skip
    # A paired comparison scores two estimators on each replication.
    work = len(DOMINANCE_SCALES) * 2 * r

    def check(outputs):
        return [(0, p) for p in check_dominance(outputs[0], r)]

    return Workload(
        "dominance-k5",
        (Command(argv, work),),
        check,
        rerun_workers=1,
    )


def check_dominance(text: str, reps: int) -> list[str]:
    lines = text.splitlines()
    if len(lines) != len(DOMINANCE_SCALES) + 2:
        return [f"dominance printed {len(lines)} lines"]
    if not lines[-1].startswith("# verdict: "):
        return [f"dominance verdict line missing: {lines[-1]!r}"]
    problems = []
    for scales, line in zip(DOMINANCE_SCALES, lines[1:-1]):
        cells = line.split(",")
        if cells[:5] != _fmt(scales).split(","):
            problems.append(f"row scales {cells[:5]} != {scales}")
            continue
        try:
            _finite(cells[5])
            if _finite(cells[6]) <= 0 or int(cells[7]) != reps:
                problems.append(f"{scales}: bad se or replications in {line!r}")
        except ValueError as exc:
            problems.append(f"{scales}: {exc}")
    return problems


# -- exact-k2 ------------------------------------------------------------


def exact_k2(seed: int, reps: int | None = None) -> Workload:
    # Small reps keep the command quadrature-bound: the Monte Carlo cross-check
    # is one block of 500 replications.
    r = reps if reps is not None else 500
    commands = []
    for n in (5, 8):
        commands.append(Command(("bounds", "--n", str(n), "--format", "json"), 0))
        for c in (n - 1, n):
            for scales in GRID:
                argv = (
                    "exact", "--c", str(c), "--n", str(n), "--scales", _fmt(scales),
                    "--reps", str(r), "--seed", str(seed), "--format", "json",
                )  # fmt: skip
                commands.append(Command(argv, 1))
    return Workload(
        "exact-k2",
        tuple(commands),
        lambda outputs: check_exact(commands, outputs),
        rerun_workers=None,
    )


def check_exact(commands, outputs) -> list[tuple[int, str]]:
    """exact >= 0, MC within Z_LIMIT SE, exact at or below the sup bound.

    The sup bound is used only for c in {n-1, n}, the constants these
    commands run: for c = n-2 the printed bound is below the exact risk
    (an open defect of the bounds command, recorded in NOTES.md).
    """
    problems = []
    sup = {}
    for i, (cmd, text) in enumerate(zip(commands, outputs)):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            problems.append((i, f"not JSON: {exc}"))
            continue
        if cmd.argv[0] == "bounds":
            n = doc["meta"]["n"]
            bounds = {row["c_label"]: row["sup_risk_bound"] for row in doc["sup_risk_bounds"]}
            sup[n] = {n - 1: bounds["n-1"], n: bounds["n"]}
            if doc["c_lower"] != n - 1 or not doc["c_upper"] > doc["c_lower"]:
                problems.append((i, f"admissible interval {doc['c_lower']}, {doc['c_upper']}"))
            if abs(doc["minimax_value"] - bounds["n-1"]) > 1e-12:
                problems.append((i, "minimax value differs from the sup bound at c = n-1"))
            continue
        meta = doc["meta"]
        n, c = meta["n"], meta["c"]
        exact, mc, se = doc["exact_risk"], doc["mc_risk"], doc["mc_std_error"]
        label = f"n={n} c={c:g} scales={meta['scales']}"
        if not all(math.isfinite(v) for v in (exact, mc, se)) or se <= 0:
            problems.append((i, f"{label}: exact {exact}, mc {mc}, se {se}"))
        elif exact < 0:
            problems.append((i, f"{label}: negative exact risk {exact}"))
        elif abs(mc - exact) > Z_LIMIT * se:
            problems.append((i, f"{label}: MC {mc} is {abs(mc - exact) / se:.2f} SE from {exact}"))
        elif n not in sup:
            problems.append((i, f"{label}: no bounds output for n={n} precedes it"))
        elif exact > sup[n][int(c)] + 1e-9:
            problems.append((i, f"{label}: exact {exact} above sup bound {sup[n][int(c)]}"))
    return problems


WORKLOADS = {
    "table-default": table_default,
    "dominance-k5": dominance_k5,
    "exact-k2": exact_k2,
}


def build(name: str, seed: int, reps: int | None = None) -> Workload:
    """The named workload with program seed seed; reps overrides the size."""
    return WORKLOADS[name](seed, reps)
