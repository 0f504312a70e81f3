"""`tools/bench_pairs.py` summarizes alternating pairs of benchmark runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def line(rate, p50):
    """A canned final JSON line of `perfbench/run.py`."""
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {"items_per_s": {"value": rate, "unit": "1/s"},
                        "call_p50_ms": {"value": p50, "unit": "ms"}}}


def test_the_summary_of_canned_result_lines():
    canned = {1: ((100, 2.0), (110, 1.8)), 2: ((104, 1.9), (103, 2.1)),
              3: ((96, 2.2), (120, 1.7)), 4: ((100, 2.0), (115, 1.9))}
    runs = [{"workload": "invert", "seed": 1, "pair": pair, "side": side, "result": line(*got)}
            for pair, sides in canned.items() for side, got in zip(("parent", "change"), sides)]
    lower = {"items_per_s": False, "call_p50_ms": True}
    (summary,) = bench_pairs.summarize(runs, lower)
    assert (summary["workload"], summary["seed"], summary["pairs"]) == ("invert", 1, 4)
    assert summary["all_correct"]
    rate, p50 = summary["metrics"]["items_per_s"], summary["metrics"]["call_p50_ms"]
    assert rate["parent_median"] == 100 and rate["change_median"] == 112.5
    assert rate["parent_quartiles"] == [99.0, 101.0] and rate["ratio"] == 1.125
    assert rate["change_better_in"] == 3 and p50["change_better_in"] == 3
    assert p50["parent_median"] == 2.0 and p50["change_median"] == 1.85


def test_lower_is_better_follows_the_benchmark_spec():
    lower = bench_pairs.better_lower()
    assert lower["items_per_s"] is False and lower["peak_rss_mb"] is True
