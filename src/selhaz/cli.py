"""Command-line surface: risk tables, bounds, dominance checks, plot data.

Commands
--------
risk-table   Monte Carlo risk of each estimator on a grid of scale vectors.
bounds       Admissible interval, minimax value, sup-risk bounds, alpha bounds.
dominance    Paired risk differences for two estimators on the grid.
plot-data    Long-format (ratio, estimator, risk) series for external plotting.
exact        Quadrature risk for k = 2 against its Monte Carlo cross-check.

Populations are entered as scales (1/sigma_i), matching the table headers
users see; rates are derived internally. Each command takes only the flags
it reads. A flat key=value config file can hold any of the options; explicit
flags win over the file, and every command validates the merged config as a
whole. Every run is a pure function of (config, seed), so reruns and worker
counts never change the output bytes.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .estimators import (
    EstimatorKind,
    EstimatorSpec,
    admissible_range,
    alpha_upper_bound,
    ml,
    ml_improved,
    n1,
    n2,
    n2_improved,
    validate_improved,
)
from .model import PopulationSet, RngSpec
from .numerics import DomainError
from .risk import (
    exact_risk_scaleinv_k2,
    gb_component_risk,
    h_of_q,
    mc_dominance,
    mc_risk,
    mc_risks,
    sup_risk_scaleinv,
)


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


# Scale grid used when none is given (k = 2 only): the cross product below,
# row-major in scale_1.
_DEFAULT_SCALE_1 = (0.3, 0.5, 0.7, 0.9, 1.0)
_DEFAULT_SCALE_2 = (0.2, 0.4, 0.6, 0.8, 1.0)

_DEFAULTS = {
    "n": 5,
    "k": 2,
    "reps": 5000,
    "seed": 1729,
    "format": "csv",
    "workers": 1,
    "estimators": "N1,N2,N2I,ML,MLI",
    "scales": None,
    "alpha": None,
    "h_count": None,
}

_NAMED_ESTIMATORS = ("ML", "N1", "N2", "N2I", "MLI")
_FORMATS = ("csv", "json", "markdown")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; immutable once validated.

    scales_grid is None when no scales were given; a grid command then runs
    the default grid, which exists for k = 2 only.
    """

    n: int
    k: int
    scales_grid: tuple[tuple[float, ...], ...] | None
    estimators: tuple[str, ...]
    replications: int
    seed: int
    output_format: str = "csv"
    workers: int = 1
    alpha: float | None = None
    h_count: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError(f"n: need n >= 2, got {self.n}")
        if self.k < 2:
            raise ConfigError(f"k: need k >= 2, got {self.k}")
        if self.replications < 1:
            raise ConfigError(f"reps: must be >= 1, got {self.replications}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed: must fit in 64 unsigned bits, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if self.output_format not in _FORMATS:
            raise ConfigError(
                f"format: must be one of {', '.join(_FORMATS)}, got {self.output_format!r}"
            )
        if self.alpha is not None and not (0 < self.alpha < math.inf):
            raise ConfigError(f"alpha: must be positive and finite, got {self.alpha}")
        if self.h_count is not None and not (2 <= self.h_count <= self.k):
            raise ConfigError(f"h_count: must lie in [2, k={self.k}], got {self.h_count}")
        if self.scales_grid is not None and not self.scales_grid:
            raise ConfigError("scales: at least one scale vector is required")
        for row in self.scales_grid or ():
            if len(row) != self.k:
                raise ConfigError(
                    f"scales: vector {row} has {len(row)} entries, expected k={self.k}"
                )
            for s in row:
                # A tiny scale is finite, but its rate 1/s overflows.
                if not (0 < s < math.inf and 1.0 / s < math.inf):
                    raise ConfigError(
                        "scales: every scale and its rate 1/s must be positive and "
                        f"finite, got {s}"
                    )
        if not self.estimators:
            raise ConfigError("estimators: at least one estimator is required")


def _parse_scales(text: str) -> tuple[tuple[float, ...], ...]:
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append(tuple(float(v) for v in chunk.split(",")))
        except ValueError as exc:
            raise ConfigError(f"scales: cannot parse scale vector {chunk!r}") from exc
    return tuple(rows)


def _default_grid(k: int) -> tuple[tuple[float, ...], ...]:
    if k != 2:
        raise ConfigError("scales: no default grid exists for k != 2, pass --scales")
    return tuple((s1, s2) for s1 in _DEFAULT_SCALE_1 for s2 in _DEFAULT_SCALE_2)


def build_estimator(
    token: str, n: int, k: int, alpha: float | None, h_count: int | None
) -> EstimatorSpec:
    """Resolve one estimator token.

    Named: ML, N1, N2, N2I, MLI. Explicit scale-inverse: c<value>, for
    example c4.5. Explicit improved: i<c>:<alpha>:<h>, for example
    i4:0.25:2. The --alpha and --h-count overrides apply to the named
    improved estimators only.
    """
    upper = token.upper()
    try:
        if upper == "ML":
            return ml(n)
        if upper == "N1":
            return n1(n)
        if upper == "N2":
            return n2(n)
        if upper == "N2I":
            return n2_improved(n, k, alpha, h_count)
        if upper == "MLI":
            return ml_improved(n, k, alpha, h_count)
        if token[:1] in ("c", "C") and len(token) > 1:
            return EstimatorSpec(
                kind=EstimatorKind.SCALE_INVERSE, c=float(token[1:]), name=token
            )
        if token[:1] in ("i", "I") and ":" in token:
            c_text, alpha_text, h_text = token[1:].split(":")
            spec = EstimatorSpec(
                kind=EstimatorKind.IMPROVED,
                c=float(c_text),
                alpha=float(alpha_text),
                h_count=int(h_text),
                name=token,
            )
            validate_improved(spec, n, k).raise_if_invalid(token)
            return spec
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"estimators: bad token {token!r}: {exc}") from exc
    raise ConfigError(
        f"estimators: unknown estimator {token!r} "
        f"(named: {', '.join(_NAMED_ESTIMATORS)}; or c<value>, i<c>:<alpha>:<h>)"
    )


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: {path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(
                f"config: {path}:{lineno}: unknown key {key!r} "
                f"(known: {', '.join(sorted(_DEFAULTS))})"
            )
        values[key] = value.strip()
    return values


def serialize_config(cfg: ExperimentConfig) -> str:
    """Config as key=value text; parsing it back reproduces the run."""
    lines = [
        f"n = {cfg.n}",
        f"k = {cfg.k}",
        f"reps = {cfg.replications}",
        f"seed = {cfg.seed}",
        f"format = {cfg.output_format}",
        f"workers = {cfg.workers}",
        f"estimators = {','.join(cfg.estimators)}",
    ]
    if cfg.scales_grid is not None:
        lines.append(
            "scales = " + ";".join(",".join(f"{s:g}" for s in row) for row in cfg.scales_grid)
        )
    if cfg.alpha is not None:
        lines.append(f"alpha = {cfg.alpha:g}")
    if cfg.h_count is not None:
        lines.append(f"h_count = {cfg.h_count}")
    return "\n".join(lines) + "\n"


def _merge(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _number(merged: dict, key: str, kind=int):
    """merged[key] as an int or float, or None if unset; ConfigError names the key."""
    value = merged[key]
    if value is None:
        return None
    try:
        return kind(value)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {noun}, got {value!r}") from exc


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The one validated config every command runs from."""
    merged = _merge(args)
    scales = merged["scales"]
    return ExperimentConfig(
        n=_number(merged, "n"),
        k=_number(merged, "k"),
        scales_grid=None if scales is None else _parse_scales(scales),
        estimators=tuple(t.strip() for t in merged["estimators"].split(",") if t.strip()),
        replications=_number(merged, "reps"),
        seed=_number(merged, "seed"),
        output_format=str(merged["format"]),
        workers=_number(merged, "workers"),
        alpha=_number(merged, "alpha", float),
        h_count=_number(merged, "h_count"),
    )


def _specs(cfg: ExperimentConfig, tokens) -> list[EstimatorSpec]:
    return [build_estimator(tok, cfg.n, cfg.k, cfg.alpha, cfg.h_count) for tok in tokens]


def _grid(cfg: ExperimentConfig):
    """Yield (scales, populations, stream) per grid row; row i draws from stream i."""
    grid = _default_grid(cfg.k) if cfg.scales_grid is None else cfg.scales_grid
    for row_index, scales in enumerate(grid):
        pop = PopulationSet(n=cfg.n, rates=tuple(1.0 / s for s in scales))
        yield scales, pop, RngSpec(seed=cfg.seed, stream_id=row_index)


def _meta(cfg: ExperimentConfig, command: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "n": cfg.n,
        "k": cfg.k,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "estimators": list(cfg.estimators),
    }


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _render(cfg_format: str, header: list[str], rows: list[list[str]], meta: dict, extra=None) -> str:
    if cfg_format == "csv":
        text = _csv_table(header, rows)
        if extra:
            text += f"# {extra}\n"
        return text
    if cfg_format == "markdown":
        text = _markdown_table(header, rows)
        if extra:
            text += f"\n{extra}\n"
        return text
    payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
    if extra:
        payload["verdict"] = extra
    return json.dumps(payload, indent=2) + "\n"


def cmd_risk_table(cfg: ExperimentConfig) -> str:
    """One row per scale vector; R and SE columns per estimator."""
    specs = _specs(cfg, cfg.estimators)
    header = [f"scale_{i + 1}" for i in range(cfg.k)]
    for spec in specs:
        header += [f"R_{spec.label()}", f"SE_{spec.label()}"]
    rows = []
    for scales, pop, rng in _grid(cfg):
        cells = [f"{s:g}" for s in scales]
        for est in mc_risks(specs, pop, cfg.replications, rng, workers=cfg.workers):
            cells += [f"{est.mean:.6f}", f"{est.std_error:.6f}"]
        rows.append(cells)
    return _render(cfg.output_format, header, rows, _meta(cfg, "risk-table"))


def cmd_dominance(cfg: ExperimentConfig, name_a: str, name_b: str) -> str:
    """Paired comparison A - B per grid point plus a 3-sigma verdict."""
    spec_a, spec_b = _specs(cfg, (name_a, name_b))
    header = [f"scale_{i + 1}" for i in range(cfg.k)]
    header += ["mean_diff", "std_error_diff", "replications"]
    rows = []
    # Since se >= 0, a difference beyond 3 se is also beyond 0.
    neg_beyond = pos_beyond = False
    for scales, pop, rng in _grid(cfg):
        cmp = mc_dominance(spec_a, spec_b, pop, cfg.replications, rng, workers=cfg.workers)
        rows.append(
            [f"{s:g}" for s in scales]
            + [f"{cmp.mean_diff:.6f}", f"{cmp.std_error_diff:.6f}", str(cmp.replications)]
        )
        three_se = 3.0 * cmp.std_error_diff
        if cmp.mean_diff < -three_se:
            neg_beyond = True
        if cmp.mean_diff > three_se:
            pos_beyond = True
    label_a, label_b = spec_a.label(), spec_b.label()
    if pos_beyond and not neg_beyond:
        verdict = f"{label_b} dominates {label_a} at 3 std errors"
    elif neg_beyond and not pos_beyond:
        verdict = f"{label_a} dominates {label_b} at 3 std errors"
    else:
        verdict = "inconclusive at 3 std errors"
    return _render(
        cfg.output_format, header, rows, _meta(cfg, "dominance"), extra=f"verdict: {verdict}"
    )


def cmd_plot_data(cfg: ExperimentConfig) -> str:
    """Long-format series keyed by scale ratio; k = 2 only, CSV only."""
    if cfg.k != 2:
        raise ConfigError("plot-data: ratio plots need exactly k=2 populations")
    if cfg.output_format != "csv":
        raise ConfigError("plot-data: emits CSV only, drop the format override")
    specs = _specs(cfg, cfg.estimators)
    records = []
    for scales, pop, rng in _grid(cfg):
        ratio = scales[0] / scales[1]
        estimates = mc_risks(specs, pop, cfg.replications, rng, workers=cfg.workers)
        for spec, est in zip(specs, estimates):
            records.append((spec.label(), ratio, est.mean, est.std_error))
    records.sort(key=lambda rec: (rec[0], rec[1]))
    rows = [
        [f"{ratio:.6g}", label, f"{mean:.6f}", f"{se:.6f}"]
        for label, ratio, mean, se in records
    ]
    return _csv_table(["ratio", "estimator", "risk", "std_error"], rows)


def cmd_bounds(cfg: ExperimentConfig) -> str:
    """Admissibility interval, minimax value, sup-risk and alpha bounds."""
    n, k = cfg.n, cfg.k
    rng = admissible_range(n)
    minimax = gb_component_risk(n)
    sup_rows = []
    for c_label, c in (("n-2", n - 2), ("n-1", n - 1), ("n", n)):
        if c <= 0:
            continue
        sup_rows.append((c_label, float(c), sup_risk_scaleinv(float(c), n)))
    alpha_rows = [
        ("n-1", float(n - 1), alpha_upper_bound(n, k, float(n - 1))),
        ("n", float(n), alpha_upper_bound(n, k, float(n))),
    ]
    if cfg.output_format == "json":
        payload = {
            "meta": {"command": "bounds", "version": __version__, "n": n, "k": k},
            "c_lower": rng.c_lower,
            "c_upper": rng.c_upper,
            "minimax_value": minimax,
            "sup_risk_bounds": [
                {"c_label": lab, "c": c, "sup_risk_bound": v} for lab, c, v in sup_rows
            ],
            "alpha_upper_bounds": [
                {"c_label": lab, "c": c, "alpha_bound": v} for lab, c, v in alpha_rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"n = {n}, k = {k}",
        f"admissible c interval: [{rng.c_lower:.10g}, {rng.c_upper:.10g}]",
        f"minimax value: {minimax:.10g}",
        "sup-risk bounds (scale-inverse family):",
    ]
    for lab, c, v in sup_rows:
        lines.append(f"  c = {lab} = {c:g}: {v:.10g}")
    lines.append(f"alpha upper bounds (h = k = {k}):")
    for lab, c, v in alpha_rows:
        lines.append(f"  c = {lab} = {c:g}: {v:.10g}")
    return "\n".join(lines) + "\n"


def cmd_exact(cfg: ExperimentConfig, c: float) -> str:
    """Quadrature risk for k = 2 next to its Monte Carlo cross-check."""
    if cfg.scales_grid is None or len(cfg.scales_grid) != 1 or cfg.k != 2:
        raise ConfigError("scales: the exact command needs one scale pair, --scales s1,s2")
    spec = EstimatorSpec(kind=EstimatorKind.SCALE_INVERSE, c=c, name=f"c{c:g}")
    scales, pop, rng = next(_grid(cfg))
    n, replications = cfg.n, cfg.replications
    q = max(pop.rates) / min(pop.rates)
    h_val = h_of_q(q, n)
    exact = exact_risk_scaleinv_k2(c, pop.rates, n)
    est = mc_risk(spec, pop, replications, rng, workers=cfg.workers)
    if cfg.output_format == "json":
        payload = {
            "meta": {
                "command": "exact",
                "version": __version__,
                "n": n,
                "c": c,
                "scales": list(scales),
                "replications": replications,
                "seed": cfg.seed,
            },
            "q": q,
            "h_of_q": h_val,
            "exact_risk": exact,
            "mc_risk": est.mean,
            "mc_std_error": est.std_error,
        }
        return json.dumps(payload, indent=2) + "\n"
    return (
        f"n = {n}, c = {c:g}, scales = ({scales[0]:g}, {scales[1]:g})\n"
        f"q (rate ratio) = {q:.10g}\n"
        f"h(q) = {h_val:.10g}\n"
        f"exact risk = {exact:.10g}\n"
        f"mc risk = {est.mean:.6f} (se {est.std_error:.6f}, reps {est.replications})\n"
    )


# Option flags by name; each subcommand registers only the ones it reads.
_FLAGS = {
    "n": dict(type=int, help="sample size per population"),
    "k": dict(type=int, help="number of populations"),
    "reps": dict(type=int, help="Monte Carlo replications"),
    "seed": dict(type=int, help="base seed"),
    "format": dict(choices=_FORMATS, help="output format (default csv)"),
    "config": dict(help="key=value config file"),
    "out": dict(help="write the report to this path"),
    "workers": dict(type=int, help="parallel workers"),
    "scales": dict(
        help="scale grid: vectors split by ';', entries by ',' (e.g. '0.3,0.2;0.5,0.6')"
    ),
    "estimators": dict(help="comma list: ML,N1,N2,N2I,MLI, c<value>, or i<c>:<alpha>:<h>"),
    "alpha": dict(type=float, help="override alpha for N2I/MLI"),
    "h-count": dict(
        dest="h_count", type=int, help="override the geometric-mean order count for N2I/MLI"
    ),
}
_GRID_FLAGS = tuple(_FLAGS)


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument(f"--{name}", default=None, **_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selhaz",
        description="Estimation after selection for exponential hazard rates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("risk-table", help="Monte Carlo risk table on a scale grid")
    _add_flags(p_table, _GRID_FLAGS)

    p_bounds = sub.add_parser("bounds", help="admissibility and minimax constants")
    _add_flags(p_bounds, ("n", "k", "format", "config", "out"))

    p_dom = sub.add_parser("dominance", help="paired comparison of two estimators")
    p_dom.add_argument("estimator_a", help="first estimator token")
    p_dom.add_argument("estimator_b", help="second estimator token")
    _add_flags(p_dom, [f for f in _GRID_FLAGS if f != "estimators"])

    p_plot = sub.add_parser("plot-data", help="risk series keyed by scale ratio")
    _add_flags(p_plot, _GRID_FLAGS)

    p_exact = sub.add_parser("exact", help="quadrature risk for k = 2 plus MC check")
    p_exact.add_argument("--c", type=float, required=True, help="estimator constant")
    _add_flags(
        p_exact, ("n", "reps", "seed", "format", "config", "out", "workers", "scales")
    )

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "risk-table":
            text = cmd_risk_table(cfg)
        elif args.command == "dominance":
            text = cmd_dominance(cfg, args.estimator_a, args.estimator_b)
        elif args.command == "plot-data":
            text = cmd_plot_data(cfg)
        elif args.command == "bounds":
            text = cmd_bounds(cfg)
        else:
            text = cmd_exact(cfg, args.c)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
