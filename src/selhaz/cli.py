"""Command-line surface: risk tables, bounds, dominance checks, plot data.

Populations are entered as scales (1/sigma_i), matching the table headers
users see; rates are derived internally. Each command takes only the flags
it reads. A flat key=value config file can hold any of the options; explicit
flags win over the file, and every command validates the merged config as a
whole. Every run is a pure function of (config, seed), so reruns never
change the output bytes. --workers is still accepted, checked and recorded,
but the engine runs every block on one thread whatever its value.

Each part of the surface is stated once: every option in _OPTIONS, every
subcommand and the formats it prints in _COMMANDS, the walk over the scale
grid in _run, exact's one row too, and the JSON or text report in _report.
"""

from __future__ import annotations

import argparse
import functools
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
from .model import RNG_LAYOUT, PopulationSet, RngSpec, _check_counter, _check_draws
from .numerics import DomainError
from .risk import (
    _check_exact_n,
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
        try:
            _check_counter(0, self.replications, self.k, self.n)
        except DomainError as exc:
            raise ConfigError(f"reps: {exc}") from exc
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


def _parse_tokens(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


# Every option once: key -> (ExperimentConfig field, default, parser, argparse
# settings). The key is the config-file key, and with '_' spelled '-' the flag.
# Options without a field are flags only, never config keys. An int or float
# parser is also the flag's argparse type. Rows follow the field order of
# ExperimentConfig, so a config with two bad values reports the first field.
_OPTIONS = {
    "n": ("n", 5, int, dict(help="sample size per population")),
    "k": ("k", 2, int, dict(help="number of populations")),
    "scales": ("scales_grid", None, _parse_scales, dict(
        help="scale grid: vectors split by ';', entries by ',' (e.g. '0.3,0.2;0.5,0.6')")),
    "estimators": ("estimators", "N1,N2,N2I,ML,MLI", _parse_tokens, dict(
        help="comma list: ML,N1,N2,N2I,MLI, c<value>, or i<c>:<alpha>:<h>")),
    "reps": ("replications", 5000, int, dict(help="Monte Carlo replications")),
    "seed": ("seed", 1729, int, dict(help="base seed")),
    "format": ("output_format", "csv", str, dict(
        choices=_FORMATS, help="output format (default csv)")),
    "workers": ("workers", 1, int, dict(
        help="accepted and recorded; no longer changes the schedule (always serial)")),
    "alpha": ("alpha", None, float, dict(help="override alpha for N2I/MLI")),
    "h_count": ("h_count", None, int, dict(
        help="override the geometric-mean order count for N2I/MLI")),
    "config": (None, None, None, dict(help="key=value config file")),
    "out": (None, None, None, dict(help="write the report to this path")),
}

_DEFAULTS = {key: default for key, (field, default, _, _) in _OPTIONS.items() if field}

_NAMED = {
    "ML": lambda n, k, alpha, h_count: ml(n),
    "N1": lambda n, k, alpha, h_count: n1(n),
    "N2": lambda n, k, alpha, h_count: n2(n),
    "N2I": n2_improved,
    "MLI": ml_improved,
}


def build_estimator(
    token: str, n: int, k: int, alpha: float | None, h_count: int | None
) -> EstimatorSpec:
    """Resolve one estimator token.

    Named: ML, N1, N2, N2I, MLI. Explicit scale-inverse: c<value>, for
    example c4.5. Explicit improved: i<c>:<alpha>:<h>, for example
    i4:0.25:2. The --alpha and --h-count overrides apply to the named
    improved estimators only.
    """
    try:
        named = _NAMED.get(token.upper())
        if named is not None:
            return named(n, k, alpha, h_count)
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
            validate_improved(spec, n, k)
            return spec
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"estimators: bad token {token!r}: {exc}") from exc
    raise ConfigError(
        f"estimators: unknown estimator {token!r} "
        f"(named: {', '.join(_NAMED)}; or c<value>, i<c>:<alpha>:<h>)"
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


def _config_text(value) -> str:
    """A field value as config text that parses back to the same value."""
    if isinstance(value, tuple):
        separator = ";" if isinstance(value[0], tuple) else ","
        return separator.join(_config_text(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Config as key=value text; parsing it back gives cfg exactly, since
    floats are written in shortest round-trip form."""
    lines = []
    for key in _DEFAULTS:
        value = getattr(cfg, _OPTIONS[key][0])
        if value is not None:
            lines.append(f"{key} = {_config_text(value)}")
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


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The one validated config every command runs from."""
    fields = {}
    for key, value in _merge(args).items():
        field, _, parse, _ = _OPTIONS[key]
        try:
            fields[field] = None if value is None else parse(value)
        except ConfigError:
            raise
        except ValueError as exc:
            noun = "an integer" if parse is int else "a number"
            raise ConfigError(f"{key}: expected {noun}, got {value!r}") from exc
    return ExperimentConfig(**fields)


def _specs(cfg: ExperimentConfig, tokens) -> list[EstimatorSpec]:
    return [build_estimator(tok, cfg.n, cfg.k, cfg.alpha, cfg.h_count) for tok in tokens]


def _labelled(cfg: ExperimentConfig) -> list[EstimatorSpec]:
    """cfg's estimators for a table or plot series; each label names a
    column or a series, so two specs may not share one."""
    specs = _specs(cfg, cfg.estimators)
    labels = [spec.label() for spec in specs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"estimators: duplicate estimator label {label!r}")
    return specs


def _run(cfg: ExperimentConfig, engine, *specs):
    """Yield (scales, engine(*specs, populations, reps, stream)) per grid row;
    row i draws from stream i. A replication too large for the sampler is an
    n: error before any row runs. A DomainError the engine raises, such as a
    risk beyond the float range, becomes a scales: error naming the row."""
    try:
        _check_draws(cfg.n, cfg.k)
    except DomainError as exc:
        raise ConfigError(f"n: {exc}") from exc
    grid = cfg.scales_grid
    if grid is None:
        if cfg.k != 2:
            raise ConfigError("scales: no default grid exists for k != 2, pass --scales")
        grid = [(s1, s2) for s1 in _DEFAULT_SCALE_1 for s2 in _DEFAULT_SCALE_2]
    for row_index, scales in enumerate(grid):
        pop = PopulationSet(n=cfg.n, rates=tuple(1.0 / s for s in scales))
        try:
            result = engine(*specs, pop, cfg.replications, RngSpec(cfg.seed, row_index))
        except DomainError as exc:
            raise ConfigError(f"scales: {','.join(f'{s:g}' for s in scales)}: {exc}") from exc
        yield scales, result


def _report(cfg: ExperimentConfig, command: str, meta: dict, body: dict, lines) -> str:
    """The one writer: JSON {"meta": {command, version, **meta}, **body} when
    cfg asks for JSON, else the text lines."""
    if cfg.output_format == "json":
        meta = {"command": command, "version": __version__, **meta}
        return json.dumps({"meta": meta, **body}, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _table(cfg: ExperimentConfig, command: str, tokens, header, rows, verdict=None) -> str:
    """A table as CSV, markdown, or JSON rows under meta that lists tokens.

    A verdict follows the rows: as a '# ' comment line in CSV, as a
    paragraph in markdown, and as the "verdict" key in JSON.
    """
    if cfg.output_format == "markdown":
        lines = ["| " + " | ".join(row) + " |" for row in (header, *rows)]
        lines.insert(1, "|" + "|".join(" --- " for _ in header) + "|")
        if verdict:
            lines.append(f"\n{verdict}")
    else:
        lines = [",".join(row) for row in (header, *rows)]
        if verdict:
            lines.append(f"# {verdict}")
    meta = dict(
        rng_layout=RNG_LAYOUT, n=cfg.n, k=cfg.k, replications=cfg.replications,
        seed=cfg.seed, workers=cfg.workers, estimators=list(tokens),
    )
    body = {"rows": [dict(zip(header, row)) for row in rows]}
    if verdict:
        body["verdict"] = verdict
    return _report(cfg, command, meta, body, lines)


def cmd_risk_table(cfg: ExperimentConfig) -> str:
    """One row per scale vector; R and SE columns per estimator."""
    specs = _labelled(cfg)
    header = [f"scale_{i + 1}" for i in range(cfg.k)]
    for spec in specs:
        header += [f"R_{spec.label()}", f"SE_{spec.label()}"]
    rows = []
    for scales, estimates in _run(cfg, mc_risks, specs):
        cells = [f"{s:g}" for s in scales]
        for est in estimates:
            cells += [f"{est.mean:.6f}", f"{est.std_error:.6f}"]
        rows.append(cells)
    return _table(cfg, "risk-table", cfg.estimators, header, rows)


def cmd_dominance(cfg: ExperimentConfig, name_a: str, name_b: str) -> str:
    """Paired comparison A - B per grid point plus a 3-sigma verdict."""
    if cfg.replications < 2:
        raise ConfigError(
            f"reps: dominance needs reps >= 2 for a standard error, got {cfg.replications}"
        )
    spec_a, spec_b = _specs(cfg, (name_a, name_b))
    header = [f"scale_{i + 1}" for i in range(cfg.k)]
    header += ["mean_diff", "std_error_diff", "replications"]
    rows = []
    # Since se >= 0, a difference beyond 3 se is also beyond 0.
    neg_beyond = pos_beyond = False
    for scales, cmp in _run(cfg, mc_dominance, spec_a, spec_b):
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
    return _table(cfg, "dominance", (name_a, name_b), header, rows, f"verdict: {verdict}")


def cmd_plot_data(cfg: ExperimentConfig) -> str:
    """Long-format series keyed by scale ratio; k = 2 only, CSV only.

    Rows sort by (label, ratio); the sort is stable, so rows of equal
    ratio keep their grid order.
    """
    if cfg.k != 2:
        raise ConfigError("plot-data: ratio plots need exactly k=2 populations")
    specs = _labelled(cfg)
    records = []
    for scales, estimates in _run(cfg, mc_risks, specs):
        ratio = scales[0] / scales[1]
        for spec, est in zip(specs, estimates):
            records.append((spec.label(), ratio, est.mean, est.std_error))
    records.sort(key=lambda rec: (rec[0], rec[1]))
    rows = [
        [f"{ratio:.6g}", label, f"{mean:.6f}", f"{se:.6f}"]
        for label, ratio, mean, se in records
    ]
    header = ["ratio", "estimator", "risk", "std_error"]
    return _table(cfg, "plot-data", cfg.estimators, header, rows)


def cmd_bounds(cfg: ExperimentConfig) -> str:
    """Admissibility interval, minimax value, sup-risk and alpha bounds.

    Every one is a k = 2 result, so any other k is rejected. The sup-risk
    rows are the q -> infinity limits at c = n-1 and c = n; for these two
    the limit is the supremum over q, checked numerically (see
    sup_risk_scaleinv).
    """
    n, k = cfg.n, cfg.k
    if k != 2:
        raise ConfigError(f"k: bounds prints k = 2 results only, got k={k}")
    rng = admissible_range(n)
    minimax = gb_component_risk(n)
    cs = (("n-1", float(n - 1)), ("n", float(n)))
    sup_rows = [(lab, c, sup_risk_scaleinv(c, n)) for lab, c in cs]
    alpha_rows = [(lab, c, alpha_upper_bound(n, k, c)) for lab, c in cs]
    body = {
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
    lines = [
        f"n = {n}, k = {k}",
        f"admissible c interval: [{rng.c_lower:.10g}, {rng.c_upper:.10g}]",
        f"minimax value: {minimax:.10g}",
        "sup-risk bounds (scale-inverse family):",
        *(f"  c = {lab} = {c:g}: {v:.10g}" for lab, c, v in sup_rows),
        f"alpha upper bounds (h = k = {k}):",
        *(f"  c = {lab} = {c:g}: {v:.10g}" for lab, c, v in alpha_rows),
    ]
    return _report(cfg, "bounds", {"n": n, "k": k}, body, lines)


def cmd_exact(cfg: ExperimentConfig, c: float) -> str:
    """Exact risk of c/Y_J for k = 2 next to its Monte Carlo cross-check, on
    the one row _run walks: q, h(q) and both risks come from its populations."""
    if cfg.scales_grid is None or len(cfg.scales_grid) != 1 or cfg.k != 2:
        raise ConfigError("scales: the exact command needs one scale pair, --scales s1,s2")
    try:
        _check_exact_n(cfg.n)
    except DomainError as exc:
        raise ConfigError(f"n: {exc}") from exc
    try:
        spec = EstimatorSpec(kind=EstimatorKind.SCALE_INVERSE, c=c, name=f"c{c:g}")
    except DomainError as exc:
        raise ConfigError(f"c: {exc}") from exc

    # Both engines are looked up here at call time, so wrappers set on this module see them.
    def engine(spec, pop, reps, rng):
        q = max(pop.rates) / min(pop.rates)
        return (q, h_of_q(q, pop.n), exact_risk_scaleinv_k2(c, pop.rates, pop.n),
                mc_risk(spec, pop, reps, rng))

    ((scales, (q, h_val, exact, est)),) = _run(cfg, engine, spec)
    meta = dict(
        rng_layout=RNG_LAYOUT, n=cfg.n, c=c, scales=list(scales),
        replications=cfg.replications, seed=cfg.seed,
    )
    body = dict(
        q=q, h_of_q=h_val, exact_risk=exact, mc_risk=est.mean, mc_std_error=est.std_error
    )
    lines = [
        f"n = {cfg.n}, c = {c:g}, scales = ({scales[0]:g}, {scales[1]:g})",
        f"q (rate ratio) = {q:.10g}",
        f"h(q) = {h_val:.10g}",
        f"exact risk = {exact:.10g}",
        f"mc risk = {est.mean:.6f} (se {est.std_error:.6f}, reps {est.replications})",
    ]
    return _report(cfg, "exact", meta, body, lines)


# name -> (handler, help, formats, own arguments, option keys in --help
# order). main rejects any other format. Own arguments are not config
# options; main passes their values to the handler after the config.
_COMMANDS = {
    "risk-table": (cmd_risk_table, "Monte Carlo risk table on a scale grid", _FORMATS, (),
                   "n k reps seed format config out workers scales estimators alpha h_count"),
    "bounds": (cmd_bounds, "admissibility and minimax constants for k = 2", ("csv", "json"),
               (), "n format config out"),
    "dominance": (cmd_dominance, "paired comparison of two estimators", _FORMATS, (
        ("estimator_a", dict(help="first estimator token")),
        ("estimator_b", dict(help="second estimator token")),
    ), "n k reps seed format config out workers scales alpha h_count"),
    "plot-data": (cmd_plot_data, "risk series keyed by scale ratio", ("csv",), (),
                  "n k reps seed format config out workers scales estimators alpha h_count"),
    "exact": (cmd_exact, "exact risk for k = 2 plus MC check", ("csv", "json"), (
        ("--c", dict(type=float, required=True, help="estimator constant")),
    ), "n reps seed format config out workers scales"),
}


# parse_args keeps no state between calls, and building the tree takes
# several times the work of an exact command, so main reuses one parser.
# Nothing else in this module is kept across calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="selhaz",
        description="Estimation after selection for exponential hazard rates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, own, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for arg, settings in own:
            command.add_argument(arg, **settings)
        for key in keys.split():
            _, _, parse, settings = _OPTIONS[key]
            kind = parse if parse in (int, float) else None
            command.add_argument("--" + key.replace("_", "-"), default=None, type=kind, **settings)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler, _, formats, own, _ = _COMMANDS[args.command]
    try:
        cfg = config_from_args(args)
        if cfg.output_format not in formats:
            raise ConfigError(
                f"format: {args.command} prints {' or '.join(f.upper() for f in formats)}, "
                f"not {cfg.output_format}"
            )
        text = handler(cfg, *(getattr(args, arg.lstrip("-")) for arg, _ in own))
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: out: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
