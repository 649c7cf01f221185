"""Tests of the benchmark's span arithmetic and checks.  Run: python3 -m pytest perfbench/tests"""

import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from spans import Span, Tracer, ratio, self_time, total_self_time, total_time  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 5.0),  # overlaps a: 1..5 covered once, not 3 + 2
        Span(3, 1, "grandchild", 1.5, 2.0),  # not a direct child of root
        Span(4, 0, "late", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_time(spans, spans[0]) == 10.0 - 4.0 - 1.0
    assert self_time(spans, spans[1]) == 3.0 - 0.5
    assert self_time(spans, spans[2]) == 2.0


def test_totals_sum_repeated_spans_and_read_zero_when_absent():
    spans = [
        Span(0, None, "tune", 0.0, 4.0),
        Span(1, 0, "count", 0.5, 1.5),
        Span(2, 0, "count", 2.0, 2.5),
    ]
    assert total_time(spans, "count") == 1.5
    assert total_self_time(spans, "tune") == 2.5
    assert total_time(spans, "lattice") == 0
    assert total_self_time(spans, "lattice") == 0


def test_ratio_guards_an_empty_base():
    assert ratio(3, 4) == 0.75
    assert ratio(5, 0) == 0.0


def test_wrap_records_nested_spans_and_restores_the_attribute():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer("run-1")
    tracer.wrap(mod, "inner", "layer.inner", lambda t, a, k, out: t.count("calls", 1))
    tracer.wrap(mod, "outer", "layer.outer")
    assert mod.outer(1) == 4
    names = {s.name: s for s in tracer.spans}
    assert names["layer.inner"].parent == names["layer.outer"].id
    assert names["bench.count"].parent == names["layer.outer"].id
    assert tracer.counts == {"calls": 1}
    tracer.restore()
    assert mod.inner is original
    assert tracer.to_json()["run_id"] == "run-1"


def test_benchmark_json_names_every_reported_metric():
    import json

    from layers import layer_metrics
    from run import GATED, ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    traced = list(layer_metrics([], {})) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == traced


def test_a_differing_output_hash_or_an_error_fails_the_operation():
    from run import judge

    wl = types.SimpleNamespace(check=lambda outcome: [])
    ops = [
        {"outcome": {"hash": "a"}, "threads": 1},
        {"outcome": {"hash": "b"}, "threads": 2},
        {"error": "Traceback (most recent call last):\nValueError: bad input\n", "threads": 1},
    ]
    judge(wl, ops)
    assert [op["failures"] for op in ops] == [[], ["output hash differs (2 threads)"], ["ValueError: bad input"]]


def test_mesh_topology_counts_open_edges_and_pieces():
    from workloads import mesh_topology

    # unit cube as six outward quads over corners i = 4x + 2y + z
    cube = np.array([[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]])
    assert mesh_topology(cube) == (0, 1)
    assert mesh_topology(cube[1:]) == (4, 1)
    assert mesh_topology(np.concatenate([cube, cube + 8])) == (0, 2)
