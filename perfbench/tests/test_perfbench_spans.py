"""Self-time arithmetic and the metric names the benchmark reports."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # op 0:  a [0, 10]
    #          b [1, 4]    c [3, 6] (overlaps b)    d [8, 9]
    #            e [2, 3] under b
    tree = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("e", 2.0, 3.0, 1, 0),
        Span("c", 3.0, 6.0, 0, 0),
        Span("d", 8.0, 9.0, 0, 0),
        Span("setup", 0.0, 5.0, None, spans.SETUP_OP),
    ]
    # a: children cover [1, 6] and [8, 9] -> 10 - 6 = 4; b: 3 - 1 = 2
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0, 5.0])
    totals = spans.layer_totals(tree)
    assert "setup" not in totals
    assert totals["a"] == {"calls": 1, "self_s": pytest.approx(4.0), "work": 0}
    assert spans.family_summary(tree, {0}) == {"largest_self_time": "a",
                                               "fock_apply_calls": 0}
    assert spans.layer_totals(tree, ops={1}) == {}


def test_sampler_ratio_counts_draws_under_sweeps_only():
    tree = [
        Span("majorization.sweep", 0.0, 4.0, None, 0),
        Span("fock.sample", 0.5, 1.0, 0, 0),
        Span("fock.sample", 1.0, 1.5, 0, 0),
        Span("fock.sample", 2.0, 2.5, 0, 0),
        Span("fock.sample", 2.5, 3.0, 0, 0),
        Span("husimi.check", 5.0, 6.0, None, 1),
        Span("fock.sample", 5.0, 5.5, 5, 1),
        Span("fock.kraus", 6.0, 6.25, None, spans.SETUP_OP, work=1),
        Span("fock.kraus", 7.0, 7.5, None, 1, work=0),
    ]
    layers = spans.layer_metrics(tree, ops=2, rejected=1)
    assert layers["majorization.sampler.accept_ratio"] == pytest.approx(3 / 4)
    assert layers["fock.sample.calls"] == pytest.approx(5 / 2)
    assert layers["fock.kraus.cold_s"] == pytest.approx(0.25)
    assert layers["fock.kraus.calls"] == pytest.approx(1 / 2)


def _outcome(seconds, traced, label="x", misses=()):
    return {"family": "majorize", "label": label, "seconds": seconds, "inputs": 2, "misses": list(misses),
            "traced": traced, "leakage": {"max": 1e-7, "rejected": 0}}


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    result = {
        "outcomes": [_outcome(0.1 * i, traced=i % 2 == 0) for i in range(1, 30)],
        "peak_rss_mb": 100.0, "import_s": 1.0,
        "families": {"majorize": {"largest_self_time": "fock.apply.1mode",
                                  "fock_apply_calls": 3}},
        "layers": spans.layer_metrics([Span("cli.run", 0.0, 1.0, None, 0)], 1, 0),
    }
    e2e, _ = run.end_to_end(result, [1.0, 2.0, 3.0])
    layer, _ = run.per_layer(result)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}


def test_tail_is_the_value_with_ten_beyond_it():
    values = [float(v) for v in range(1, 41)]  # 1..40
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:15]) == (8.0, 50.0)
