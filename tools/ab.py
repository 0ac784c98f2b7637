"""A/B benchmark of HEAD against the working tree; writes BENCH_<pr>.json.

    python3 tools/ab.py --pr N --workload penrose-write --seeds 101-110

Run from the repository root with the change uncommitted: the parent is HEAD,
exported with `git archive` into a temporary directory, which leaves the
repository's git metadata alone, and the change is the working tree, exported
next to it: its tracked files and its untracked files that are not ignored, as
they are on disk.  So neither side reads bytecode or build output left by
earlier runs, which would spare it the compiling the other side pays for in
`setup_s`.  For each seed, `perfbench/run.py --workload W
--seed N --seconds 30 --trace 0` runs once in each checkout, the parent first on
even-indexed pairs and the change first on odd ones, so drift of the host
falls on both sides alike.  The output keeps every run, whether every run of
each side was `correct` with no failed op (`all_passed`), and each side's `src/`
line count (`src_lines`, ROADMAP aim 2's size metric).  For every end-to-end
metric of BENCHMARK.json it keeps each side's median and quartiles (inclusive
method) and judges the change by the metric's `better` and `bound`:
  - `wins`: the pairs the change wins (a tie counts for neither side)
  - `median_change`: the change of the median over the parent's, as a fraction
    of the parent's, positive when better
  - `parent_spread`: the parent's (q3 - q1) / median
  - `verdict`: `worse` when the median is worse by more than the bound;
    `unresolved` when the parent's spread is wider than the bound and not every
    change run beats every parent run; `no worse` otherwise
  - `gain`: at least 9 pairs in 10 won, and the medians apart in the better
    direction by more than the parent's quartile distance
The verdicts are also printed.  Workloads already in an output file for the
same parent are kept, so workloads can be run one at a time.  The exit status
is 1 when any run of the change was not correct or failed an op, so no median
it reports rests on failed ops.
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
SECONDS = 30   # perfbench's run length, the same on both sides


def _git(*args: str, root: str = ROOT) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def _export_worktree(dest: str, root: str = ROOT) -> None:
    """Copy root's tracked files and its untracked files that are not ignored,
    as they are on disk, into dest; a tracked file deleted on disk is left out."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in sorted(set(filter(None, names.decode().split("\0")))):
        source = os.path.join(root, name)
        if not os.path.lexists(source):
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


def _seeds(text: str) -> list[int]:
    """'101-110' or '5,7,9' (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _src_lines(checkout: str) -> int:
    """Lines of the Python files under src/, as `wc -l` counts them."""
    total = 0
    for folder, _dirs, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> (better, bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def _run(checkout: str, workload: str, seed: int, metrics) -> dict:
    """One benchmark run; its end-to-end `metrics` plus correct and failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {k: last["metrics"][k]["value"] for k in metrics}
    out.update(correct=last["correct"], failed=last["failed"])
    return out


def _passed(runs: list[dict]) -> dict:
    """Per side, whether every run was correct with no failed op."""
    return {side: all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs)
            for side in ("change", "parent")}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: dict) -> dict:
    """Per metric (name -> (better, bound)): both sides' quartiles and the verdict."""
    summary = {}
    for metric, (better, bound) in metrics.items():
        sign = 1 if better == "higher" else -1   # sign * value grows as it gets better
        change = [sign * r["change"][metric] for r in runs]
        parent = [sign * r["parent"][metric] for r in runs]
        sides = {"change": _quartiles([r["change"][metric] for r in runs]),
                 "parent": _quartiles([r["parent"][metric] for r in runs])}
        p = sides["parent"]
        scale = abs(p["median"]) or 1.0   # a parent median of 0 compares differences
        ahead = sign * sides["change"]["median"] - sign * p["median"]   # ties read +0.0
        spread = (p["q3"] - p["q1"]) / scale
        median_change = ahead / scale
        wins = sum(c > q for c, q in zip(change, parent))
        if median_change < -bound:
            verdict = "worse"
        elif spread > bound and not min(change) > max(parent):
            verdict = "unresolved"
        else:
            verdict = "no worse"
        summary[metric] = dict(sides, wins=wins, median_change=median_change,
                               parent_spread=spread, verdict=verdict,
                               gain=10 * wins >= 9 * len(runs) and ahead > p["q3"] - p["q1"])
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
              f"its own export (the parent's by git archive, the change's of the "
              f"working tree's tracked and unignored files), pairs run alternately "
              f"(parent first on even-indexed pairs, change first on odd); written by "
              f"tools/ab.py"))

    tmp = tempfile.mkdtemp(prefix="ab-")
    try:
        sides = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
            tar.extractall(sides["parent"])
        _export_worktree(sides["change"])
        doc["src_lines"] = {side: _src_lines(path) for side, path in sides.items()}
        metrics = _end_to_end()
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed}
                for side in order:
                    run[side] = _run(sides[side], workload, seed, metrics)
                print(f"{workload} seed {seed}: ops_per_s parent "
                      f"{run['parent']['ops_per_s']:.2f}, change {run['change']['ops_per_s']:.2f}",
                      file=sys.stderr)
                runs.append(run)
            summary = _summary(runs, metrics)
            for metric, m in summary.items():
                print(f"{workload} {metric}: median {m['parent']['median']:.4g} -> "
                      f"{m['change']['median']:.4g} ({m['median_change']:+.1%} better), "
                      f"{m['wins']}/{len(runs)} pairs won, parent spread "
                      f"{m['parent_spread']:.1%}: {m['verdict']}"
                      + (", gain" if m["gain"] else ""), file=sys.stderr)
            doc["workloads"][workload] = {"all_passed": _passed(runs), "pairs": len(runs),
                                          "runs": runs, "summary": summary}
            with open(path, "w", encoding="utf-8") as fh:   # after each workload
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [w for w in args.workload if not doc["workloads"][w]["all_passed"]["change"]]
    if failed:
        print(f"change runs not all correct with no failed op: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
