"""One phase of a benchmark run, in a fresh interpreter (started by run.py).

    worker.py setup   --workload W --seed S --dir D --docs P
    worker.py prepare --dir D
    worker.py measure --workload W --seconds T --trace 0|1 --dir D
    worker.py check   --dir D

`setup` imports the package and writes the workload's inputs and manifest
under D, then prints the monotonic clock reading at which it was ready.
`prepare` runs the commands whose outputs the ops read: the patch documents
of penrose-read, written by `tile` of the code under test into P, unless an
earlier run has completed P already.
`measure` runs the ops in a closed loop (one client, no threads) through
`quasitoric.cli.main` and records times; with --trace 1 it traces every
flagged op and adds per-layer metrics.  `check` verifies every output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# The plan is fixed work, sized to take about --seconds at the commit that
# added the benchmark.  A far slower program stops issuing ops after this many
# times --seconds, and the run reports that it stopped early.
HARD_STOP_FACTOR = 3


def _modules():
    import types
    from quasitoric import (cli, construction, examples, field, intlattice, jsonio,
                            polytope, quasilattice, tilings)
    return types.SimpleNamespace(cli=cli, construction=construction, examples=examples,
                                 field=field, intlattice=intlattice, jsonio=jsonio,
                                 polytope=polytope, quasilattice=quasilattice,
                                 tilings=tilings)


def setup(args) -> None:
    import plans
    _modules()
    manifest = plans.build(args.workload, args.seed, args.dir, args.docs)
    manifest.update(workload=args.workload, seed=args.seed)
    with open(os.path.join(args.dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    print(json.dumps({"ready": time.monotonic()}))


def prepare(args) -> None:
    """Run the commands whose outputs the ops read (penrose-read's documents).

    They write into the manifest's `docdir`, which a `complete` marker shows
    to be whole; a directory without one is written again from scratch.
    """
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    docdir = manifest.get("docdir")
    if docdir is None or os.path.exists(os.path.join(docdir, "complete")):
        return
    q = _modules()
    shutil.rmtree(docdir, ignore_errors=True)
    os.makedirs(docdir)
    for ops in manifest["rounds"]:
        for op in ops:
            if "prepare" in op and q.cli.main(op["prepare"]) != 0:
                raise RuntimeError(f"prepare: {' '.join(op['prepare'])} failed")
    with open(os.path.join(docdir, "complete"), "w", encoding="utf-8"):
        pass


def _run(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as e:   # argparse exits; any bug is a failed op
        rc, exc = None, repr(e)
    end = time.perf_counter()
    return rc, exc, start, end, out.getvalue(), err.getvalue()


def measure(args) -> None:
    q = _modules()
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(q)
        traced_main = tracer.wrap("cli.main", q.cli.main)
    records = []
    stopped = False
    begin = time.perf_counter()
    for r, op in ((r, op) for r, ops in enumerate(manifest["rounds"]) for op in ops):
        if time.perf_counter() - begin > HARD_STOP_FACTOR * args.seconds:
            stopped = True
            break
        traced = bool(tracer) and op["traced"]
        if traced:
            tracer.counts.clear()
            tracer.install(op["id"])
        rc, exc, start, end, out, err = _run(traced_main if traced else q.cli.main, op["argv"])
        if traced:
            tracer.uninstall()
        size = os.path.getsize(op["out"]) if os.path.exists(op["out"]) else 0
        records.append({"id": op["id"], "round": r, "rc": rc, "exc": exc,
                        "start": start, "end": end, "traced": traced,
                        "bytes": size + len(out.encode()) + len(err.encode()),
                        "stderr": err[-2000:],
                        "counts": dict(tracer.counts) if traced else {}})
    result = {"records": records, "stopped": stopped,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        import layers
        import micro
        result["per_layer"] = layers.per_layer(tracer, manifest, records)
        result["per_layer"].update(micro.run(q))
        result["spans"] = layers.span_table(tracer)
        tracer.dump(args.trace_file)
    with open(os.path.join(args.dir, "measure.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def check(args) -> None:
    import checks
    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(args.dir, "measure.json"), encoding="utf-8") as fh:
        records = {r["id"]: r for r in json.load(fh)["records"]}
    verdicts = {}
    for ops in manifest["rounds"]:
        for op in ops:
            rec = records.get(op["id"])
            if rec is None:
                continue
            try:
                verdicts[op["id"]] = checks.check(op, rec["rc"], rec["exc"], rec["stderr"],
                                                  manifest.get("solids", {}))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                verdicts[op["id"]] = f"unreadable output: {exc!r}"
    with open(os.path.join(args.dir, "check.json"), "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "prepare", "measure", "check"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--docs")
    args = parser.parse_args()
    os.environ.pop("QTK_PRECISION", None)   # SVG digits stay at the default
    {"setup": setup, "prepare": prepare, "measure": measure, "check": check}[args.phase](args)


if __name__ == "__main__":
    main()
