"""`tools/ab.py` keeps, per workload and side, whether every run passed."""
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
