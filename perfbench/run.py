"""Benchmark of the quasitoric CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload triples --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every command runs in process through
`quasitoric.cli.main(argv)`, in a closed loop with one client, one process and
no threads.  Each phase gets a fresh interpreter (see worker.py): set-up runs
SETUP_REPEATS times and setup_s is the median; one measuring process runs the
ops; one checking process verifies every output.  With --trace 1 the
measuring process traces the ops and the metrics printed are per layer.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines above it give every metric by name and unit, the
provenance (Python, commit, source digest, nproc, seed) and each failure.
Results and span traces are kept under .perfbench_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from layers import UNITS  # noqa: E402
from plans import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
TOTAL_LIMIT_S = 170          # the whole run, all phases

# The metrics BENCHMARK.json bounds, and so the ones the JSON line carries.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "items_per_s": "1/s", "peak_rss_mb": "MB",
              "output_kb_per_op": "kB", "pass_rate": "ratio"}
# Printed and kept in the results file, but too noisy on a shared 2-core host
# to bound: single ops of a few ms vary by half from one run to the next.
REPORTED = {"op_p50_ms": "ms", "op_tail_ms": "ms"}


class RunError(RuntimeError):
    pass


def _phase(args: list, deadline: float) -> str:
    """Run one worker phase in a fresh interpreter; returns its stdout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{args[0]} phase ran out of time") from None
    if proc.returncode != 0:
        raise RunError(f"{args[0]} phase exited {proc.returncode}:\n{err[-4000:]}")
    return out


def _tail(times: list) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(times)
    ranked = sorted(times)
    if n <= 10:
        return ranked[-1], 100
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))      # ceil(pct * n / 100)
    return ranked[rank - 1], pct


def _src_digest() -> str:
    """SHA-256 of the package sources: names the code under test."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".json", ".toml")):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _provenance(seed: int, src_sha256: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"python": platform.python_version(), "commit": commit,
            "src_sha256": src_sha256, "nproc": os.cpu_count(), "seed": seed}


def run(args) -> dict:
    deadline = time.monotonic() + TOTAL_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    src_sha256 = _src_digest()
    # Patch documents depend only on the code under test, so one checkout
    # writes them once (prepare phase) and later runs read them.
    docdir = os.path.join(WORK, "docs", src_sha256[:16])
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            d = os.path.join(workdir, f"setup{i}")
            os.makedirs(d)
            start = time.monotonic()
            out = _phase(["setup", "--workload", args.workload, "--seed", str(args.seed),
                          "--dir", d, "--docs", docdir], deadline)
            setups.append(json.loads(out.strip().splitlines()[-1])["ready"] - start)
            if i:
                shutil.rmtree(d)
        d = os.path.join(workdir, "setup0")
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_file = os.path.join(WORK, "traces", f"{tag}.jsonl")
        _phase(["prepare", "--dir", d], deadline)
        _phase(["measure", "--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--trace-file", trace_file, "--dir", d], deadline)
        _phase(["check", "--dir", d], deadline)
        with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(d, "measure.json"), encoding="utf-8") as fh:
            measured = json.load(fh)
        with open(os.path.join(d, "check.json"), encoding="utf-8") as fh:
            verdicts = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = {op["id"]: op for ops in manifest["rounds"] for op in ops}
    records = measured["records"]
    if not records:
        raise RunError("no op ran")
    failures = {r["id"]: verdicts[r["id"]] for r in records if verdicts.get(r["id"])}
    times = [r["end"] - r["start"] for r in records]
    window = records[-1]["end"] - records[0]["start"]
    tail, pct = _tail(times)
    classes: dict[str, list] = {}
    for r, t in zip(records, times):
        classes.setdefault(ops[r["id"]]["cls"], []).append(t)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / window,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": measured["peak_rss_kb"] / 1024,
        "pass_rate": 1 - len(failures) / len(records),
        "output_kb_per_op": sum(r["bytes"] for r in records) / len(records) / 1024,
        "items_per_s": sum(ops[r["id"]]["items"] for r in records) / window,
    }
    return {"workload": args.workload, "trace": args.trace, "provenance": _provenance(args.seed, src_sha256),
            "attempted": len(records), "failed": len(failures), "failures": failures,
            "rounds": 1 + max(r["round"] for r in records), "window_s": window,
            "stopped_early": measured["stopped"], "setup_runs_s": setups,
            "tail_percentile": pct, "tail_samples": len(times),
            "end_to_end": metrics, "per_layer": measured.get("per_layer", {}),
            "spans": measured.get("spans", {}),
            "class_ms": {c: [len(t), statistics.mean(t) * 1e3] for c, t in sorted(classes.items())},
            "op_ms": {r["id"]: t * 1e3 for r, t in zip(records, times)}}


def report(res: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, provenance, failures."""
    p = res["provenance"]
    e = res["end_to_end"]
    lines = [f"workload {res['workload']}  seed {p['seed']}  trace {res['trace']}",
             f"python {p['python']}  commit {p['commit'] or 'unknown'}  "
             f"src_sha256 {p['src_sha256'][:16]}  nproc {p['nproc']}",
             f"ops {res['attempted']}  failed {res['failed']}  rounds {res['rounds']}  "
             f"window {res['window_s']:.2f} s  set-up runs "
             + " ".join(f"{s:.3f}" for s in res["setup_runs_s"]) + " s"
             + ("  STOPPED EARLY" if res["stopped_early"] else "")]
    for name, unit in {**END_TO_END, **REPORTED}.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{res['tail_percentile']} of {res['tail_samples']} ops)"
        lines.append(f"  {name:<28} {e[name]:>14.6g} {unit}{note}")
    lines.append(f"  {'error_rate':<28} {1 - e['pass_rate']:>14.6g} ratio")
    if res["workload"] != "triples":
        lines.append(f"  {'leaves_per_s':<28} {e['items_per_s']:>14.6g} 1/s")
    for name, value in sorted(res["per_layer"].items()):
        lines.append(f"  {name:<34} {value:>14.6g} {UNITS[name]}")
    if res["spans"]:
        lines.append("  span                               calls         self_s    inclusive_s")
        for name, (calls, own, incl) in sorted(res["spans"].items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {name:<34} {calls:>6} {own:>14.6f} {incl:>14.6f}")
    for op_id, why in sorted(res["failures"].items())[:20]:
        lines.append(f"  FAILED {op_id}: {why}")
    if len(res["failures"]) > 20:
        lines.append(f"  ... {len(res['failures']) - 20} more failures")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "quasitoric")):
        print(f"benchmark failed: no src/quasitoric under {ROOT}", file=sys.stderr)
        return 1
    try:
        res = run(args)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{res['workload']}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    for line in report(res):
        print(line)
    metrics = ({k: {"value": v, "unit": UNITS[k]} for k, v in res["per_layer"].items()}
               if args.trace else
               {k: {"value": res["end_to_end"][k], "unit": unit} for k, unit in END_TO_END.items()})
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
