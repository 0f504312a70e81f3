#!/usr/bin/env python3
"""Alternating pairs of `perfbench/run.py` runs: a parent commit against the working tree.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 40 \\
        --workloads invert cli axiom-suite --seeds 1 3 --out BENCH_<n>.json

The parent commit is cloned into a scratch directory (`--work`, a new
temporary one by default).  For each workload and seed, pair p runs the
parent first when p is odd and the working tree first when it is even.
The output file holds every run's final JSON line, with its workload,
seed, pair, side and order in the pair, and per metric the medians and
quartiles of both sides and the number of pairs the change won.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def better_lower() -> dict[str, bool]:
    """Per end-to-end metric of BENCHMARK.json: whether lower is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict]:
    """One run's exit code and its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [q[0], q[2]]


def summarize(runs: list[dict], lower: dict[str, bool]) -> list[dict]:
    """Per workload and seed, per metric: both sides' median and quartiles,
    the change's median over the parent's, and the pairs the change won."""
    out = []
    for workload, seed in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        mine = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        sides = {side: {r["pair"]: r["result"]["metrics"] for r in mine
                        if r["side"] == side and "metrics" in r["result"]}
                 for side in ("parent", "change")}
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        metrics = {}
        for name in sorted(lower):
            if not all(name in sides[s][p] for s in sides for p in pairs) or not pairs:
                continue
            value = {side: [sides[side][p][name]["value"] for p in pairs] for side in sides}
            wins = sum((c < p) if lower[name] else (c > p)
                       for p, c in zip(value["parent"], value["change"]))
            metrics[name] = {
                "parent_median": statistics.median(value["parent"]),
                "parent_quartiles": quartiles(value["parent"]),
                "change_median": statistics.median(value["change"]),
                "change_quartiles": quartiles(value["change"]),
                "ratio": statistics.median(value["change"]) / statistics.median(value["parent"]),
                "change_better_in": wins,
            }
        out.append({"workload": workload, "seed": seed, "pairs": len(pairs),
                    "all_correct": all(r["result"].get("correct") for r in mine),
                    "metrics": metrics})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="the commit to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--workloads", nargs="+", default=["axiom-suite", "invert", "cli"])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--work", type=Path, help="where to clone the parent (default: a temp dir)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    clone = work / "parent"
    if not clone.exists():
        subprocess.run(["git", "clone", "-q", str(ROOT), str(clone)], check=True)
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    subprocess.run(["git", "checkout", "-q", rev], cwd=clone, check=True)
    checkouts = {"parent": clone, "change": ROOT}
    runs: list[dict] = []
    report = {
        "what": "perfbench end-to-end runs of the parent commit and of the working tree, "
                "in alternating pairs",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace 0",
        "parent": rev,
        "order": "odd pairs run the parent first, even pairs the change first",
    }
    for workload in args.workloads:
        for seed in args.seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for position, side in enumerate(order, 1):
                    code, result = run_once(checkouts[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "order_in_pair": position, "side": side, "exit": code,
                                 "result": result})
                    print(workload, seed, pair, side, code,
                          result.get("metrics", {}).get("items_per_s", {}).get("value"),
                          flush=True)
                report["summary"] = summarize(runs, better_lower())
                report["runs"] = runs
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
