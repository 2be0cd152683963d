"""Self-time arithmetic and span recording of the benchmark's tracer."""
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import tracing
from perfbench.tracing import Span, Target, Tracer


def span(i, name, start, end, parent=None, thread=1):
    return Span(i, name, start, end, parent, thread)


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)


def test_self_time_of_nested_spans():
    spans = [span(0, "pipeline.run_rolling", 0.0, 10.0),
             span(1, "mfdfa.fluctuation_function", 2.0, 5.0, parent=0),
             span(2, "mfdfa.segment_variances", 3.0, 4.0, parent=1),
             span(3, "scaling.fit_ansatz", 6.0, 8.0, parent=0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})
    table = tracing.module_table(spans, wall_s=10.0)
    assert table["pipeline"] == pytest.approx(
        {"self_s": 5.0, "calls": 1, "wall_s": 5.0, "share_of_wall": 0.5})
    assert table["mfdfa"]["self_s"] == pytest.approx(3.0)
    assert list(table) == ["pipeline", "mfdfa", "scaling"]


def test_self_time_counts_concurrent_children_once():
    # two pool threads work under one parent; their overlap [4, 6] counts once
    spans = [span(0, "pipeline.run_rolling", 0.0, 10.0, thread=1),
             span(1, "mfdfa.fluctuation_function", 1.0, 6.0, parent=0, thread=2),
             span(2, "mfdfa.fluctuation_function", 4.0, 9.0, parent=0, thread=3),
             span(3, "mfdfa.segment_variances", 5.0, 12.0, parent=2, thread=3)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)  # child clipped to its parent's end
    totals = tracing.totals_by_name(spans)
    assert totals["mfdfa.fluctuation_function"] == pytest.approx(
        {"total_s": 10.0, "self_s": 6.0, "calls": 2})


def test_wall_attribution_splits_concurrent_time_and_skips_waiting_parent():
    # the parent waits on two pool threads; [4, 6] is shared by both children
    spans = [span(0, "pipeline.run_rolling", 0.0, 10.0, thread=1),
             span(1, "mfdfa.fluctuation_function", 1.0, 6.0, parent=0, thread=2),
             span(2, "scaling.fit_ansatz", 4.0, 9.0, parent=0, thread=3),
             span(3, "mfdfa.segment_variances", 7.0, 8.0, parent=2, thread=3)]
    walls = tracing.wall_attribution(spans)
    assert walls == pytest.approx({0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0})
    assert sum(walls.values()) == pytest.approx(10.0)
    table = tracing.module_table(spans, wall_s=10.0)
    assert table["mfdfa"]["wall_s"] == pytest.approx(5.0)
    assert table["mfdfa"]["self_s"] == pytest.approx(6.0)  # thread overlap counted twice
    assert sum(row["share_of_wall"] for row in table.values()) == pytest.approx(1.0)


def test_tracer_parents_pool_spans_on_the_waiting_call():
    module = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.02)
        return x

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(module.leaf, range(n)))

    module.leaf, module.fan_out = leaf, fan_out
    tracer = Tracer()
    module.leaf = tracer.wrap(leaf, "mfdfa.leaf")
    module.fan_out = tracer.wrap(fan_out, "pipeline.fan_out")
    assert module.fan_out(4) == [0, 1, 2, 3]

    root = next(s for s in tracer.spans if s.name == "pipeline.fan_out")
    leaves = [s for s in tracer.spans if s.name == "mfdfa.leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id for s in leaves)
    assert all(s.thread != root.thread for s in leaves)
    assert len({s.thread for s in leaves}) <= 2
    covered = tracing.union_length((s.start, s.end) for s in leaves)
    assert tracing.self_times(tracer.spans)[root.id] == pytest.approx(root.duration - covered)
    # two threads sleeping side by side: the busy union is below the summed time
    assert covered < sum(s.duration for s in leaves)


def test_install_wraps_binding_counts_and_restores(monkeypatch):
    import perfbench.generators as target_module
    original = target_module.digest

    def count(counters, args, kwargs, result):
        counters.add("digests", len(args))

    with Tracer() as tracer:
        tracer.install([Target("perfbench.generators", "digest", "bench.digest", count)])
        assert target_module.digest is not original
        target_module.digest(b"a", b"b")
        with tracer.span("bench.block"):
            target_module.digest(b"c")
    assert target_module.digest is original
    assert tracer.counters.get("digests") == 3
    names = [s.name for s in tracer.spans]
    assert names == ["bench.digest", "bench.digest", "bench.block"]
    block = tracer.spans[2]
    assert tracer.spans[1].parent == block.id


def test_span_recorded_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "mfdfa.boom")()
    assert [s.name for s in tracer.spans] == ["mfdfa.boom"]
    assert tracer._stack() == []


def test_counters_are_thread_safe():
    counters = tracing.Counters()

    def bump():
        for _ in range(2000):
            counters.add("n")

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert counters.get("n") == 8000
