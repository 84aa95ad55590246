"""Spans and counters recorded around selhaz's layers from outside the package.

The tracer replaces module attributes with timing wrappers. Each function is
patched in every module that looks it up by name (``selhaz.risk`` imports
``_sum_blocks`` from ``selhaz.model``, so both names are patched), and every
patch is undone when the tracer is uninstalled. Nothing inside ``src/`` knows
it is being traced.

A span is (id, parent id, name, start, end, pass). Spans are kept in memory
while the benchmark runs and aggregated or written out only at the end. A
span's self time is its duration minus the part of its interval covered by
its children; children may run on other threads (the blocks of a
``_assemble`` call), and may then overlap each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    pass_id: int


# The Monte Carlo and exact engines the commands call; cli.self_s is the
# command span minus the cover of these children.
ENGINE_SPANS = ("risk.mc_risk", "risk.mc_dominance", "risk.exact")


class Tracer:
    """Holds spans and counters; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self.largest_assemble: tuple | None = None  # (blocks, worker_fn, replications)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent: int | None = None) -> tuple[int, int, float]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, name: str, sid: int, parent: int, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, t0, t1, self.pass_id))

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[self.pass_id][counter] += value

    def traced(self, fn, name: str, hook=None):
        """fn wrapped in a span called name; hook(args, kwargs) runs first."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid, parent, t0 = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, sid, parent, t0)

        return wrapper

    def counted(self, fn, counter: str):
        """fn wrapped so that each call adds 1 to counter; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(counter, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _assemble_wrapper(self, assemble, block_count):
        @functools.wraps(assemble)
        def wrapper(worker_fn, replications, workers):
            blocks = block_count(replications)
            with self._lock:
                counters = self.counters[self.pass_id]
                counters["risk.blocks_per_call_max"] = max(
                    counters["risk.blocks_per_call_max"], blocks
                )
                if self.largest_assemble is None or blocks > self.largest_assemble[0]:
                    self.largest_assemble = (blocks, worker_fn, replications)
            sid, parent, t0 = self.open()

            def traced_block(rep_start, count):
                bsid, _, bt0 = self.open(parent=sid)
                self.add("risk.block_wait_s", bt0 - t0)
                try:
                    return worker_fn(rep_start, count)
                finally:
                    self.close("risk.block", bsid, sid, bt0)

            try:
                return assemble(traced_block, replications, workers)
            finally:
                self.close("risk.assemble", sid, parent, t0)

        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced selhaz function at each module that looks it up."""
        from selhaz import cli, estimators, model, numerics, risk

        def draws(args, kwargs):
            n = _arg(args, kwargs, 0, "n")
            k = len(_arg(args, kwargs, 1, "rates"))
            count = _arg(args, kwargs, 4, "count")
            # Computed from array sizes: one uint64 counter and one float64
            # uniform per draw, one float64 sum per (replication, population).
            self.add("model.uniforms_drawn", count * k * n)
            self.add("model.bytes_computed", 8 * (2 * count * k * n + count * k))

        def rows(args, kwargs):
            self.add("risk.loss_rows", _arg(args, kwargs, 2, "sums").shape[0])

        config = self.traced(cli.config_from_args, "cli.config")
        merge = self.traced(cli._merge, "cli.config")
        self.patch(cli, "config_from_args", config)
        self.patch(cli, "_merge", merge)
        self.patch(cli, "build_estimator", self.traced(cli.build_estimator, "estimators.build"))
        self.patch(cli, "mc_risk", self.traced(cli.mc_risk, "risk.mc_risk"))
        self.patch(cli, "mc_dominance", self.traced(cli.mc_dominance, "risk.mc_dominance"))
        self.patch(
            cli, "exact_risk_scaleinv_k2", self.traced(cli.exact_risk_scaleinv_k2, "risk.exact")
        )

        validate = self.counted(estimators.validate_improved, "estimators.validate_calls")
        for module in (risk, estimators, cli):
            self.patch(module, "validate_improved", validate)

        sum_blocks = self.traced(model._sum_blocks, "model.sum_blocks", hook=draws)
        self.patch(risk, "_sum_blocks", sum_blocks)
        self.patch(model, "_sum_blocks", sum_blocks)
        self.patch(model, "_uniforms", self.traced(model._uniforms, "model.uniforms"))

        self.patch(risk, "_losses_for_sums", self.traced(risk._losses_for_sums, "risk.loss", hook=rows))
        self.patch(
            risk,
            "_assemble",
            self._assemble_wrapper(risk._assemble, lambda reps: len(risk._blocks(reps))),
        )

        # numerics.adaptive_quad calls itself for an infinite upper limit, so
        # the recursion is traced too; quad_s counts only outermost spans.
        quad = self.traced(numerics.adaptive_quad, "numerics.quad")
        self.patch(risk, "adaptive_quad", quad)
        self.patch(numerics, "adaptive_quad", quad)
        self.patch(numerics, "_gauss_kronrod", self.counted(numerics._gauss_kronrod, "numerics.gk_calls"))
        self.patch(risk, "gamma_cdf", self.counted(risk.gamma_cdf, "numerics.gamma_cdf_calls"))
        inc_beta = self.traced(numerics.reg_inc_beta, "numerics.reg_inc_beta")
        self.patch(risk, "reg_inc_beta", inc_beta)
        self.patch(estimators, "reg_inc_beta", inc_beta)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _arg(args, kwargs, position: int, name: str):
    """The argument at position, or passed by keyword as name."""
    return args[position] if position < len(args) else kwargs[name]


# -- arithmetic on spans -----------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the cover of that span's children."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered(children[s.sid], s.t0, s.t1) for s in spans}


def outermost(spans, name: str):
    """Spans called name that have no ancestor of the same name."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


LAYERS = ("cli", "estimators", "model", "risk", "numerics")


def pass_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced pass; the roots are cli.main spans."""
    selfs = self_times(spans)
    names = defaultdict(list)
    for s in spans:
        names[s.name].append(s)

    def inclusive(name):
        return sum(s.t1 - s.t0 for s in outermost(spans, name))

    def self_sum(name):
        return sum(selfs[s.sid] for s in names[name])

    engine_children = defaultdict(list)
    for s in spans:
        if s.name in ENGINE_SPANS:
            engine_children[s.parent].append((s.t0, s.t1))
    roots = names["cli.main"]
    pass_s = sum(s.t1 - s.t0 for s in roots)
    m = {
        "cli.config_s": inclusive("cli.config"),
        "cli.self_s": sum(
            (s.t1 - s.t0) - covered(engine_children[s.sid], s.t0, s.t1) for s in roots
        ),
        "cli.mc_calls": len(names["risk.mc_risk"]) + len(names["risk.mc_dominance"]),
        "estimators.build_s": inclusive("estimators.build"),
        "estimators.validate_calls": counters.get("estimators.validate_calls", 0),
        "model.sum_blocks_s": inclusive("model.sum_blocks"),
        "model.sum_blocks_calls": len(names["model.sum_blocks"]),
        "model.uniforms_s": inclusive("model.uniforms"),
        "model.sum_blocks_self_s": self_sum("model.sum_blocks"),
        "model.uniforms_drawn": counters.get("model.uniforms_drawn", 0),
        "model.bytes_computed": counters.get("model.bytes_computed", 0),
        "risk.loss_s": inclusive("risk.loss"),
        "risk.loss_calls": len(names["risk.loss"]),
        "risk.loss_rows": counters.get("risk.loss_rows", 0),
        "risk.assemble_self_s": self_sum("risk.assemble"),
        "risk.blocks": len(names["risk.block"]),
        "risk.block_wait_s": counters.get("risk.block_wait_s", 0.0),
        "risk.exact_s": inclusive("risk.exact"),
        "risk.exact_calls": len(names["risk.exact"]),
        "numerics.quad_s": inclusive("numerics.quad"),
        "numerics.quad_calls": len(names["numerics.quad"]),
        "numerics.gk_calls": counters.get("numerics.gk_calls", 0),
        "numerics.gamma_cdf_calls": counters.get("numerics.gamma_cdf_calls", 0),
        "numerics.reg_inc_beta_s": inclusive("numerics.reg_inc_beta"),
        "numerics.reg_inc_beta_calls": len(names["numerics.reg_inc_beta"]),
        "scaling.blocks_per_call": counters.get("risk.blocks_per_call_max", 0),
        "trace.pass_s": pass_s,
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[s.sid]
    for layer, value in layer_self.items():
        m[f"layer.{layer}_self_s"] = value
    # Zero for serial passes; with threads, the time blocks ran side by side.
    m["trace.parallel_s"] = sum(layer_self.values()) - pass_s
    return m


def aggregate(spans, counters) -> tuple[dict[str, float], bool]:
    """Mean of pass_metrics over all traced passes, and whether counts repeat.

    Means, unlike medians, keep the additive identity: the layer self times
    sum to trace.pass_s plus trace.parallel_s. A count comes out as an
    integer when every pass gives the same count.
    """
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s.pass_id].append(s)
    per_pass = [pass_metrics(by_pass[p], counters.get(p, {})) for p in sorted(by_pass)]
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        mean = math.fsum(values) / len(values)
        if not key.endswith("_s") and all(v == values[0] for v in values):
            mean = int(values[0]) if float(values[0]).is_integer() else values[0]
        out[key] = mean
    sampler_s = math.fsum(m["model.sum_blocks_s"] for m in per_pass)
    drawn = math.fsum(m["model.uniforms_drawn"] for m in per_pass)
    out["model.uniforms_per_s"] = drawn / sampler_s if sampler_s > 0 else 0.0
    repeat = all(
        m[key] == per_pass[0][key] for m in per_pass for key in m if not key.endswith("_s")
    )
    return out, repeat
