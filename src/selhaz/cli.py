"""Command-line surface: risk tables, bounds, dominance checks, plot data.

Commands
--------
risk-table   Monte Carlo risk of each estimator on a grid of scale vectors.
bounds       Admissible interval, minimax value, sup-risk bounds, alpha bounds.
dominance    Paired risk differences for two estimators on the grid.
plot-data    Long-format (ratio, estimator, risk) series for external plotting.
exact        Quadrature risk for k = 2 against its Monte Carlo cross-check.

Populations are entered as scales (1/sigma_i), matching the table headers
users see; rates are derived internally. A flat key=value config file can
hold any of the options; explicit flags win over the file. Every run is a
pure function of (config, seed), so reruns and worker counts never change
the output bytes.
"""

from __future__ import annotations

import argparse
import io
import json
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
    """Everything a grid run needs; immutable once validated."""

    n: int
    k: int
    scales_grid: tuple[tuple[float, ...], ...]
    estimators: tuple[str, ...]
    replications: int
    seed: int
    output_format: str = "csv"
    workers: int = 1
    alpha: float | None = None
    h_count: int | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigError(f"reps: must be >= 1, got {self.replications}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if self.output_format not in _FORMATS:
            raise ConfigError(
                f"format: must be one of {', '.join(_FORMATS)}, got {self.output_format!r}"
            )
        if not self.scales_grid:
            raise ConfigError("scales: at least one scale vector is required")
        for row in self.scales_grid:
            if len(row) != self.k:
                raise ConfigError(
                    f"scales: vector {row} has {len(row)} entries, expected k={self.k}"
                )
            for s in row:
                if not (s > 0):
                    raise ConfigError(f"scales: every scale must be positive, got {s}")
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
        "scales = " + ";".join(",".join(f"{s:g}" for s in row) for row in cfg.scales_grid),
    ]
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


def _to_int(merged: dict, key: str) -> int:
    try:
        return int(str(merged[key]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected an integer, got {merged[key]!r}") from exc


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    merged = _merge(args)
    n = _to_int(merged, "n")
    k = _to_int(merged, "k")
    if merged["scales"] is None:
        grid = _default_grid(k)
    else:
        grid = _parse_scales(merged["scales"])
    estimators = tuple(t.strip() for t in merged["estimators"].split(",") if t.strip())
    alpha = merged["alpha"]
    h_count = merged["h_count"]
    try:
        cfg = ExperimentConfig(
            n=n,
            k=k,
            scales_grid=grid,
            estimators=estimators,
            replications=_to_int(merged, "reps"),
            seed=_to_int(merged, "seed"),
            output_format=str(merged["format"]),
            workers=_to_int(merged, "workers"),
            alpha=float(alpha) if alpha is not None else None,
            h_count=int(str(h_count)) if h_count is not None else None,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # Resolve every estimator token now so bad names fail before any work.
    _specs(cfg, cfg.estimators)
    return cfg


def _specs(cfg: ExperimentConfig, tokens) -> list[EstimatorSpec]:
    return [build_estimator(tok, cfg.n, cfg.k, cfg.alpha, cfg.h_count) for tok in tokens]


def _grid(cfg: ExperimentConfig):
    """Yield (scales, populations, stream) per grid row; row i draws from stream i."""
    for row_index, scales in enumerate(cfg.scales_grid):
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


def cmd_bounds(n: int, k: int, output_format: str) -> str:
    """Admissibility interval, minimax value, sup-risk and alpha bounds."""
    if n < 2:
        raise ConfigError(f"n: need n >= 2, got {n}")
    if k < 2:
        raise ConfigError(f"k: need k >= 2, got {k}")
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
    if output_format == "json":
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


def cmd_exact(
    n: int, c: float, scales: tuple[float, float], replications: int, seed: int,
    output_format: str,
) -> str:
    """Quadrature risk for k = 2 next to its Monte Carlo cross-check."""
    if len(scales) != 2:
        raise ConfigError(f"scales: exactly two scales required, got {len(scales)}")
    for s in scales:
        if not (s > 0):
            raise ConfigError(f"scales: every scale must be positive, got {s}")
    if not (c > 0):
        raise ConfigError(f"c: must be positive, got {c}")
    rates = tuple(1.0 / s for s in scales)
    q = max(rates) / min(rates)
    h_val = h_of_q(q, n)
    exact = exact_risk_scaleinv_k2(c, rates, n)
    spec = EstimatorSpec(kind=EstimatorKind.SCALE_INVERSE, c=float(c), name=f"c{c:g}")
    pop = PopulationSet(n=n, rates=rates)
    est = mc_risk(spec, pop, replications, RngSpec(seed=seed, stream_id=0))
    if output_format == "json":
        payload = {
            "meta": {
                "command": "exact",
                "version": __version__,
                "n": n,
                "c": c,
                "scales": list(scales),
                "replications": replications,
                "seed": seed,
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="sample size per population")
    parser.add_argument("--k", type=int, default=None, help="number of populations")
    parser.add_argument("--reps", type=int, default=None, help="Monte Carlo replications")
    parser.add_argument("--seed", type=int, default=None, help="base seed")
    parser.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format (default csv)"
    )
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--workers", type=int, default=None, help="parallel workers")
    parser.add_argument(
        "--scales",
        default=None,
        help="scale grid: vectors split by ';', entries by ',' (e.g. '0.3,0.2;0.5,0.6')",
    )
    parser.add_argument(
        "--estimators",
        default=None,
        help="comma list: ML,N1,N2,N2I,MLI, c<value>, or i<c>:<alpha>:<h>",
    )
    parser.add_argument(
        "--alpha", type=float, default=None, help="override alpha for N2I/MLI"
    )
    parser.add_argument(
        "--h-count", dest="h_count", type=int, default=None,
        help="override the geometric-mean order count for N2I/MLI",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selhaz",
        description="Estimation after selection for exponential hazard rates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("risk-table", help="Monte Carlo risk table on a scale grid")
    _add_common(p_table)

    p_bounds = sub.add_parser("bounds", help="admissibility and minimax constants")
    _add_common(p_bounds)

    p_dom = sub.add_parser("dominance", help="paired comparison of two estimators")
    p_dom.add_argument("estimator_a", help="first estimator token")
    p_dom.add_argument("estimator_b", help="second estimator token")
    _add_common(p_dom)

    p_plot = sub.add_parser("plot-data", help="risk series keyed by scale ratio")
    _add_common(p_plot)

    p_exact = sub.add_parser("exact", help="quadrature risk for k = 2 plus MC check")
    p_exact.add_argument("--c", type=float, required=True, help="estimator constant")
    _add_common(p_exact)

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
        if args.command == "risk-table":
            text = cmd_risk_table(config_from_args(args))
        elif args.command == "dominance":
            text = cmd_dominance(config_from_args(args), args.estimator_a, args.estimator_b)
        elif args.command == "plot-data":
            text = cmd_plot_data(config_from_args(args))
        elif args.command == "bounds":
            merged = _merge(args)
            text = cmd_bounds(
                _to_int(merged, "n"), _to_int(merged, "k"), str(merged["format"])
            )
        elif args.command == "exact":
            merged = _merge(args)
            if merged["scales"] is None:
                raise ConfigError("scales: the exact command needs --scales s1,s2")
            grid = _parse_scales(merged["scales"])
            if len(grid) != 1:
                raise ConfigError("scales: the exact command takes a single scale pair")
            text = cmd_exact(
                _to_int(merged, "n"),
                float(args.c),
                tuple(grid[0]),
                _to_int(merged, "reps"),
                _to_int(merged, "seed"),
                str(merged["format"]),
            )
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
