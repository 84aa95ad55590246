"""Span arithmetic and the tracer's patching of selhaz."""

from __future__ import annotations

import pytest

import tracing
from tracing import Span, covered, pass_metrics, self_times


def span(sid, parent, name, t0, t1):
    return Span(sid, parent, name, t0, t1, 1)


def test_covered_merges_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    # Parts outside the parent's interval do not count.
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2


def test_self_times_nested_spans_sum_to_root():
    spans = [
        span(1, 0, "cli.main", 0, 10),
        span(2, 1, "risk.mc_risk", 1, 4),
        span(3, 2, "model.sum_blocks", 2, 3),
        span(4, 1, "risk.exact", 5, 9),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3, 2: 2, 3: 1, 4: 4}
    assert sum(selfs.values()) == 10
    m = pass_metrics(spans, {})
    assert m["trace.pass_s"] == 10
    assert m["trace.parallel_s"] == 0
    assert m["layer.cli_self_s"] == 3
    assert m["layer.risk_self_s"] == 6
    assert m["layer.model_self_s"] == 1
    # cli.self_s subtracts only the engine children (both here).
    assert m["cli.self_s"] == 3
    assert m["cli.mc_calls"] == 1 and m["risk.exact_calls"] == 1


def test_self_times_threaded_blocks_overlap():
    # _assemble on the main thread, two blocks on pool threads that overlap
    # by 4 seconds.
    spans = [
        span(1, 0, "cli.main", 0, 12),
        span(2, 1, "risk.mc_dominance", 1, 11),
        span(3, 2, "risk.assemble", 1, 11),
        span(5, 3, "risk.block", 2, 7),
        span(6, 3, "risk.block", 3, 9),
        span(7, 5, "model.sum_blocks", 2, 5),
        span(8, 6, "risk.loss", 4, 9),
    ]
    selfs = self_times(spans)
    assert selfs[3] == 10 - 7  # assemble minus the union [2, 9] of its blocks
    assert selfs[5] == 5 - 3 and selfs[6] == 6 - 5
    m = pass_metrics(spans, {})
    assert m["risk.assemble_self_s"] == 3
    assert m["risk.blocks"] == 2
    # Layer self times add up to the wall time plus the overlap.
    layers = sum(m[f"layer.{layer}_self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(m["trace.pass_s"] + 4)
    assert m["trace.parallel_s"] == pytest.approx(4)
    assert m["cli.self_s"] == 12 - 10


def test_outermost_skips_recursion():
    spans = [
        span(1, 0, "cli.main", 0, 10),
        span(2, 1, "numerics.quad", 1, 9),
        span(3, 2, "numerics.quad", 2, 8),
        span(4, 1, "numerics.quad", 9, 10),
    ]
    assert [s.sid for s in tracing.outermost(spans, "numerics.quad")] == [2, 4]
    m = pass_metrics(spans, {})
    assert m["numerics.quad_s"] == 9
    assert m["numerics.quad_calls"] == 3


def _module_state():
    from selhaz import cli, estimators, model, numerics, risk

    return {m.__name__: dict(vars(m)) for m in (cli, estimators, model, numerics, risk)}


def test_install_then_uninstall_restores_every_attribute():
    before = _module_state()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from selhaz import model, numerics, risk

        assert risk._sum_blocks is not before["selhaz.risk"]["_sum_blocks"]
        assert model._uniforms is not before["selhaz.model"]["_uniforms"]
        assert numerics.adaptive_quad is not before["selhaz.numerics"]["adaptive_quad"]
    finally:
        tracer.uninstall()
    after = _module_state()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys()
        changed = [k for k, v in attrs.items() if after[name][k] is not v]
        assert changed == [], name


def _block_overlap(spans) -> float:
    """Time that blocks of the same _assemble call ran side by side.

    Computed from the block spans alone: the summed block durations minus
    the length of their union.
    """
    blocks = [s for s in spans if s.name == "risk.block"]
    total = 0.0
    for a in (s for s in spans if s.name == "risk.assemble"):
        mine = [(b.t0, b.t1) for b in blocks if b.parent == a.sid]
        total += sum(t1 - t0 for t0, t1 in mine) - covered(mine, a.t0, a.t1)
    return total


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_dominance_matches_untraced_and_adds_up(workers):
    from selhaz.estimators import n2, n2_improved
    from selhaz.model import PopulationSet, RngSpec
    from selhaz.risk import mc_dominance

    pop = PopulationSet(n=3, rates=(1.0, 2.0, 1.0, 0.5, 1.0))
    args = (n2_improved(3, 5, h_count=3), n2(3), pop, 3 * 4096 + 5, RngSpec(seed=7))
    plain = mc_dominance(*args, workers=workers)
    tracer = tracing.Tracer()
    tracer.pass_id = 1
    root = tracer.traced(mc_dominance, "cli.main")
    tracer.install()
    try:
        traced = root(*args, workers=workers)
    finally:
        tracer.uninstall()
    assert traced == plain
    m = pass_metrics(tracer.spans, tracer.counters[1])
    assert m["risk.blocks"] == 4 and m["model.sum_blocks_calls"] == 4
    assert m["risk.loss_calls"] == 8 and m["risk.loss_rows"] == 2 * (3 * 4096 + 5)
    assert m["model.uniforms_drawn"] == (3 * 4096 + 5) * 5 * 3
    blocks = [s for s in tracer.spans if s.name == "risk.block"]
    (assemble,) = [s for s in tracer.spans if s.name == "risk.assemble"]
    assert all(b.parent == assemble.sid for b in blocks)
    # Every span but the root has its parent among the spans, so no time
    # on a pool thread escapes the command's tree.
    ids = {s.sid for s in tracer.spans}
    assert all(s.parent in ids for s in tracer.spans if s.name != "cli.main")
    # trace.parallel_s is the overlap of the blocks, counted on its own.
    overlap = _block_overlap(tracer.spans)
    assert m["trace.parallel_s"] == pytest.approx(overlap, abs=1e-9)
    if workers == 1:
        assert overlap == pytest.approx(0.0, abs=1e-12)
    else:
        # Two threads overlap for at most the _assemble span.
        assert 0.0 <= m["trace.parallel_s"] <= (workers - 1) * (assemble.t1 - assemble.t0)
