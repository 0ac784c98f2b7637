"""Every library name the benchmark in `perfbench/` reads still resolves.

`perfbench/tracing.py` wraps functions at the names their callers look up,
and `perfbench/micro.py` times functions it reads as attributes.  Renaming or
deleting one of them breaks `perfbench/run.py --trace 1` only when that runs;
these tests make it fail the suite instead.
"""
import importlib.util
import math
import os
import types

from quasitoric import (cli, construction, examples, field, intlattice, jsonio, polytope,
                        quasilattice, tilings)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
MODULES = types.SimpleNamespace(cli=cli, construction=construction, examples=examples,
                                field=field, intlattice=intlattice, jsonio=jsonio,
                                polytope=polytope, quasilattice=quasilattice, tilings=tilings)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_wraps():
    tracer = _load("tracing").Tracer(MODULES)   # raises when a name or an imported alias moved
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracer._swaps]
    tracer.install("pin")
    try:
        assert all(getattr(owner, attr) is wrapper for owner, attr, _, wrapper in tracer._swaps)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in originals)


def test_every_name_the_microkernels_call_resolves(monkeypatch):
    micro = _load("micro")
    monkeypatch.setattr(micro, "MIN_SECONDS", 0.0)   # one pass over each kernel's inputs
    metrics = micro.run(MODULES)
    assert metrics and all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
