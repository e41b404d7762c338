#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: the working tree against a git revision.

    python3 tools/bench_pairs.py REV --out BENCH_NN.json --description TEXT
        [--claim WORKLOAD:METRIC]

REV (for example HEAD~) is checked out in a `git worktree` at
.bench_work/pairs/parent, and the working tree's files (tracked and
untracked, not ignored) are copied to .bench_work/pairs/change, so both
sides run from paths of the same length; both are removed afterwards.
Pair i of 10 runs `python3 bench/run.py --workload W --seed i --seconds S
--trace 0`, S the run_seconds of BENCHMARK.json, once on each side, for
every workload of BENCHMARK.json in turn, the parent first on odd seeds. Every run has
PYTHONDONTWRITEBYTECODE=1 and no OPENBLAS_NUM_THREADS in its environment,
and neither side has any bytecode; the result records this condition.
One traced run per side and workload (seed 11, 5 s) follows, and
their per-layer call counts are compared.
The result goes to --out in the format of the earlier BENCH_*.json files:
per workload and end-to-end metric of BENCHMARK.json, each side's runs,
median and quartiles, the pairs the change won, the change of the median,
and whether it stays inside the metric's bound. A --claim is met when the
change wins at least 9 of the 10 pairs and the medians differ by more than
the parent's interquartile range.
Exit code 0 when every run finished, 2 on a bad REV or a run that failed.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS_DIR = ROOT / ".bench_work" / "pairs"
SIDES = ("parent", "change")  # names of equal length
RUN_TIMEOUT_S = 900
TRACE_SECONDS = 5
PAIRS = 10
CLAIM_WINS = 9  # of the PAIRS pairs


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def prepare(rev: str) -> dict[str, Path]:
    """The two checkouts: REV's worktree and a copy of the working tree."""
    cleanup()
    dirs = {side: PAIRS_DIR / side for side in SIDES}
    added = git("worktree", "add", "--detach", str(dirs["parent"]), rev)
    if added.returncode:
        raise RuntimeError(added.stderr.strip())
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.stdout.split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dirs["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    for cache in PAIRS_DIR.rglob("__pycache__"):
        shutil.rmtree(cache)
    return dirs


def cleanup() -> None:
    if (PAIRS_DIR / "parent").exists():
        git("worktree", "remove", "--force", str(PAIRS_DIR / "parent"))
    git("worktree", "prune")
    shutil.rmtree(PAIRS_DIR, ignore_errors=True)


def bench_env() -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONUNBUFFERED": "1"}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one bench/run.py run on one side."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, env=bench_env(), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{side.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    print(f"{side.name:6} {lines[-2] if len(lines) > 1 else ''}", flush=True)
    return json.loads(lines[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(results: dict, seeds: list[int], metrics: list[dict]) -> dict:
    """One workload's pairs: counts per side and the statistics per metric."""
    out = {"pairs": len(seeds), "seeds": seeds}
    for side in SIDES:
        attempted = [r["attempted"] for r in results[side]]
        failed = [r["failed"] for r in results[side]]
        out[side] = {"correct_all": all(r["correct"] for r in results[side]),
                     "attempted": attempted, "failed": failed,
                     "failure_share": sum(failed) / max(1, sum(attempted))}
    out["metrics"] = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        stats = {side: quartiles(runs[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(runs["parent"], runs["change"]))
        delta = (change - parent) / parent if parent else 0.0
        out["metrics"][name] = {
            **stats, "change_won": won, "delta_pct": 100.0 * delta,
            "within_bound": (delta if lower else -delta) <= metric["bound"]}
    return out


def claim_result(workloads: dict, claim: str) -> str:
    workload, metric = claim.split(":")
    m = workloads[workload]["metrics"][metric]
    parent, change = m["parent"], m["change"]
    gap = abs(change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    met = m["change_won"] >= CLAIM_WINS and gap > iqr
    return (f"{'met' if met else 'not met'}: {workload} {metric} "
            f"{parent['median']:.4g} -> {change['median']:.4g} ({m['delta_pct']:+.1f}%), "
            f"change won {m['change_won']}/{PAIRS} pairs; the medians differ by "
            f"{gap:.4g}, the parent's interquartile range is {iqr:.4g}")


def no_regression(workloads: dict) -> str:
    outside = [f"{w} {name} {m['delta_pct']:+.1f}% ({m['change_won']}/{s['pairs']})"
               for w, s in workloads.items() for name, m in s["metrics"].items()
               if not m["within_bound"]]
    shares = {w: (s["parent"]["failure_share"], s["change"]["failure_share"])
              for w, s in workloads.items()}
    worse = [f"{w} failure share {p:.3g} -> {c:.3g}" for w, (p, c) in shares.items()
             if c > p]
    incorrect = [f"{w} {side}" for w, s in workloads.items() for side in SIDES
                 if not s[side]["correct_all"]]
    if not (outside or worse or incorrect):
        return ("every end-to-end metric on every workload stays inside its bound, "
                "no failure share grows, and every run of both sides was correct")
    return "; ".join(filter(None, (
        outside and "outside the bound: " + ", ".join(outside),
        worse and ", ".join(worse),
        incorrect and "runs not correct: " + ", ".join(incorrect))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--out", required=True, help="result file, e.g. BENCH_28.json")
    parser.add_argument("--description", required=True, help="what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parent_sha = git("rev-parse", args.rev).stdout.strip()
    if not parent_sha:
        sys.stderr.write(f"unknown revision {args.rev!r}\n")
        return 2
    seeds, seconds = list(range(1, PAIRS + 1)), spec["run_seconds"]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    traced = {}  # workload -> side -> result of its traced run
    try:
        dirs = prepare(args.rev)
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    results[workload][side].append(
                        bench(dirs[side], workload, seed, seconds, 0))
        for workload in workloads:
            traced[workload] = {side: bench(dirs[side], workload, PAIRS + 1,
                                            TRACE_SECONDS, 1) for side in SIDES}
    except (RuntimeError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    finally:
        cleanup()
    summary = {w: summarize(results[w], seeds, spec["end_to_end"]) for w in workloads}
    result = {
        "description": args.description,
        "parent": parent_sha,
        "gain_claimed": args.claim is not None,
        "claim": args.claim,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds} "
                   "--trace 0",
        "method": "tools/bench_pairs.py: each side from its own checkout (parent from "
                  "a git worktree, change copied from the working tree) in sibling "
                  "directories whose paths have the same length; pairs alternate "
                  "which side runs first (odd seed parent first); seed = pair "
                  "number, the workloads in turn within each seed",
        "bytecode": "none on either side: no __pycache__ in either checkout, none written",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "environment": {"PYTHONUNBUFFERED": "1", "PYTHONDONTWRITEBYTECODE": "1",
                        "OPENBLAS_NUM_THREADS": "unset"},
        "workloads": summary,
    }
    for workload, sides in traced.items():
        result[f"traced_{workload}"] = {
            side: {"correct": r["correct"], "attempted": r["attempted"],
                   "failed": r["failed"],
                   "layers": {k: v["value"] for k, v in r["metrics"].items()}}
            for side, r in sides.items()}
    result["traced_calls_equal"] = {
        w: all(v["value"] == sides["change"]["metrics"][k]["value"]
               for k, v in sides["parent"]["metrics"].items() if k.endswith(".calls"))
        for w, sides in traced.items()}
    if args.claim:
        result["claim_result"] = claim_result(summary, args.claim)
    result["no_regression"] = no_regression(summary)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(result.get("claim_result", ""), result["no_regression"], sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
