"""A/B benchmark of HEAD against the working tree; writes BENCH_<pr>.json.

    python3 tools/ab.py --pr N --workload penrose-write --seeds 101-110

Run from the repository root with the change uncommitted: the parent is HEAD,
exported with `git archive` into a temporary directory, which leaves the
repository's git metadata alone.  For each seed, `perfbench/run.py --workload W
--seed N --seconds 30 --trace 0` runs once in each checkout, the parent first on
even-indexed pairs and the change first on odd ones, so drift of the host
falls on both sides alike.  The output keeps every run, each side's median
and quartiles (inclusive method) of every end-to-end metric, and the pairs
the change wins on ops_per_s.  Workloads already in an output file for the
same parent are kept, so workloads can be run one at a time.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("items_per_s", "ops_per_s", "output_kb_per_op", "pass_rate", "peak_rss_mb",
           "setup_s")
SECONDS = 30   # perfbench's run length, the same on both sides


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _seeds(text: str) -> list[int]:
    """'101-110' or '5,7,9' (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark run; its end-to-end metrics plus correct and failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {k: last["metrics"][k]["value"] for k in METRICS}
    out.update(correct=last["correct"], failed=last["failed"])
    return out


def _summary(runs: list[dict]) -> dict:
    summary = {}
    for metric in METRICS:
        summary[metric] = {}
        for side in ("change", "parent"):
            values = [r[side][metric] for r in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            summary[metric][side] = {"median": median, "q1": q1, "q3": q3}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 101-110")
    args = parser.parse_args()

    parent = _git("rev-parse", "HEAD").decode().strip()
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    doc = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    if doc.get("parent") != parent:
        doc = {"workloads": {}}
    doc.update(
        host=f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        parent=parent, python=platform.python_version(),
        what=(f"A/B of the parent commit against this change: python3 perfbench/run.py "
              f"--workload W --seed N --seconds {SECONDS} --trace 0, each side from "
              f"its own checkout, pairs run alternately (parent first on even-indexed "
              f"pairs, change first on odd); written by tools/ab.py"))

    tmp = tempfile.mkdtemp(prefix="ab-parent-")
    try:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
            tar.extractall(tmp)
        sides = {"parent": tmp, "change": ROOT}
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed}
                for side in order:
                    run[side] = _run(sides[side], workload, seed)
                print(f"{workload} seed {seed}: ops_per_s parent "
                      f"{run['parent']['ops_per_s']:.2f}, change {run['change']['ops_per_s']:.2f}",
                      file=sys.stderr)
                runs.append(run)
            wins = sum(r["change"]["ops_per_s"] > r["parent"]["ops_per_s"] for r in runs)
            doc["workloads"][workload] = {"change_wins_ops_per_s": wins, "pairs": len(runs),
                                          "runs": runs, "summary": _summary(runs)}
            with open(path, "w", encoding="utf-8") as fh:   # after each workload
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
