"""Span arithmetic and the tracer's bookkeeping."""

import pytest

from perfbench.tracing import Span, Tracer, layer_metrics, load, self_times, union_length


def test_union_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([(1, 1), (3, 2)]) == 0.0


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span("a", None, "sweep", 0.0, 10.0),
        Span("b", "a", "catalog", 1.0, 4.0),
        Span("c", "b", "engine.open", 1.5, 3.5),
        Span("d", "a", "catalog", 5.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs["a"] == pytest.approx(5.0)
    assert selfs["b"] == pytest.approx(1.0)
    assert selfs["c"] == pytest.approx(2.0)
    assert selfs["d"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("p", None, "cluster", 0.0, 10.0),
        Span("x", "p", "catalog", 2.0, 6.0),
        Span("y", "p", "catalog", 4.0, 8.0),   # overlaps x
        Span("z", "p", "catalog", 9.0, 12.0),  # runs past the parent
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_do_not_double_count_same_layer_nesting():
    spans = [
        Span("a", None, "frame", 0.0, 4.0),
        Span("b", "a", "frame", 1.0, 2.0),
        Span("c", None, "cache", 5.0, 6.0),
    ]
    out = layer_metrics(spans, ("frame", "cache", "core"))
    assert out["frame.calls"] == 2
    assert out["frame.busy_s"] == pytest.approx(4.0)
    assert out["frame.self_s"] == pytest.approx(4.0)
    assert out["cache.busy_s"] == pytest.approx(1.0)
    assert (out["core.calls"], out["core.busy_s"], out["core.self_s"]) == (0, 0.0, 0.0)


def test_wrapped_calls_record_parents_counters_and_drained_iterators(tmp_path):
    tracer = Tracer()

    def leaf(n):
        return iter(range(n))

    traced_leaf = tracer.wrap("frame", leaf, materialize=True,
                              counter=lambda a, k, r: {"frame.rows": a[0]})

    def outer():
        return list(traced_leaf(3)) + list(traced_leaf(2))

    assert tracer.wrap("sweep", outer)() == [0, 1, 2, 0, 1]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["sweep"]
    assert root.parent is None
    assert [s.parent for s in by_name["frame"]] == [root.id, root.id]
    assert tracer.counters["frame.rows"] == 5

    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    tracer.wrap("cache", lambda: None)()
    tracer.dump(path)
    spans, counters = load([path])
    assert sorted(s.name for s in spans) == ["cache", "frame", "frame", "sweep"]
    assert counters == {"frame.rows": 5.0}
    assert tracer.spans == []


def test_a_failing_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        tracer.wrap("catalog", boom)()
    assert [s.name for s in tracer.spans] == ["catalog"]
    assert tracer._stack() == []
