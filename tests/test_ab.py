"""`tools/ab.py` keeps, per workload and side, whether every run passed, and judges
each end-to-end metric by the rule of its `better` and `bound`."""
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab.py")


def _load():
    spec = importlib.util.spec_from_file_location("tools_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(correct, failed):
    return {"correct": correct, "failed": failed}


def test_a_side_passes_only_when_every_run_is_correct_with_no_failed_op():
    ab = _load()
    good = {"parent": _run(True, 0), "change": _run(True, 0)}
    assert ab._passed([good, good]) == {"change": True, "parent": True}
    one_failed_op = {"parent": _run(True, 0), "change": _run(True, 1)}
    assert ab._passed([good, one_failed_op]) == {"change": False, "parent": True}
    incorrect = {"parent": _run(False, 0), "change": _run(True, 0)}
    assert ab._passed([incorrect, good]) == {"change": True, "parent": False}


def _pairs(metric, parent, change):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_each_metric_is_judged_by_its_better_and_bound():
    ab = _load()
    rss = {"peak_rss_mb": ("lower", 0.1)}
    parent = [34.0, 33.9, 33.8, 34.1, 33.9, 34.0, 33.9, 34.2, 33.7, 33.9]
    won = ab._summary(_pairs("peak_rss_mb", parent, [21.0] * 9 + [34.5]), rss)["peak_rss_mb"]
    assert (won["wins"], won["verdict"], won["gain"]) == (9, "no worse", True)
    assert won["parent"]["median"] == 33.9 and won["change"]["median"] == 21.0
    assert abs(won["median_change"] - 12.9 / 33.9) < 1e-12   # positive: lower is better here
    assert won["parent_spread"] < 0.1
    eight = ab._summary(_pairs("peak_rss_mb", parent, [21.0] * 8 + [34.5] * 2), rss)
    assert eight["peak_rss_mb"]["gain"] is False            # 8 of 10 pairs is too few
    worse = ab._summary(_pairs("peak_rss_mb", parent, [40.0] * 10), rss)["peak_rss_mb"]
    assert (worse["wins"], worse["verdict"], worse["gain"]) == (0, "worse", False)
    assert worse["median_change"] < -0.1


def test_a_wide_parent_spread_is_unresolved_unless_the_sides_separate():
    ab = _load()
    ops = {"ops_per_s": ("higher", 0.25)}
    parent = [40.0, 80.0, 60.0, 100.0, 50.0, 70.0, 45.0, 90.0, 65.0, 55.0]   # spread > 0.25
    mixed = ab._summary(_pairs("ops_per_s", parent, [p * 1.1 for p in parent]), ops)["ops_per_s"]
    assert mixed["parent_spread"] > 0.25 and mixed["wins"] == 10
    assert mixed["verdict"] == "unresolved" and mixed["gain"] is False   # 10% < the quartile gap
    apart = ab._summary(_pairs("ops_per_s", parent, [101.0 + p for p in parent]), ops)
    assert (apart["ops_per_s"]["verdict"], apart["ops_per_s"]["gain"]) == ("no worse", True)
    ties = ab._summary(_pairs("pass_rate", [1.0] * 10, [1.0] * 10),
                       {"pass_rate": ("higher", 0.005)})["pass_rate"]
    assert (ties["wins"], ties["median_change"], ties["verdict"], ties["gain"]) == (
        0, 0.0, "no worse", False)


def test_the_metrics_are_read_from_the_benchmark_declaration():
    metrics = _load()._end_to_end()
    assert metrics["peak_rss_mb"] == ("lower", 0.1) and metrics["ops_per_s"][0] == "higher"
