#!/usr/bin/env python3
"""Benchmark of the cubeforge engine: four closed-loop workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload axiom-suite --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate invocation: it installs outside-in wrappers
(`tracer.py`) around the eight ``cubeforge`` modules and reports the
per-layer metrics.  Either way every output is checked, a few lines
describe the run, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.

The program is imported from ``src/`` of the checkout this file sits in;
nothing needs building.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("indices", "perms", "core", "adc", "nerve", "invert", "transfor", "cli")
SETUP_SLOTS = 12  # moments in an untraced run at which set-up is timed
SETUP_SLOT_S = 0.25  # a slot repeats set-up until this much time has passed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print its seconds and exit; "
                        "an untraced run repeats its set-up this way")
    return p.parse_args(argv)


def git_rev(root: Path) -> str | None:
    """The commit of the checkout, or None when it is not a git repository."""
    try:
        # the ceiling keeps git from reporting a repository the checkout sits in
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def use_sources() -> None:
    if not (SRC / "cubeforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cubeforge sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_program() -> SimpleNamespace:
    """Import the eight modules afresh, so that import time is measured."""
    for name in [m for m in sys.modules if m == "cubeforge" or m.startswith("cubeforge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"cubeforge.{m}") for m in MODULES})


def timed_setup(workload, seed: int):
    """Import the program and set the workload up; returns (state, seconds)."""
    gc.collect()  # garbage left by earlier work is not collected on the clock
    t0 = time.perf_counter()
    state = workload.setup(import_program(), seed)
    return state, time.perf_counter() - t0


def setup_in_child(name: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, as a one-shot invocation pays it.

    A fresh heap keeps the running workload's objects out of the garbage
    collector's way and its memory out of this process's peak.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; the caller prints the result."""
    use_sources()
    workload = workloads.WORKLOADS[name]
    state, first_setup = timed_setup(workload, seed)
    setup_times = [first_setup]
    try:
        if trace:
            passes, failures, metrics, lines = run_traced(workload, state, seconds)
        else:
            passes, failures, metrics, lines = run_untraced(
                workload, state, seconds, lambda: setup_times.append(setup_in_child(name, seed)))
        first = passes[0]
        try:
            failures.extend(workload.verify(state, first))
        except Exception as exc:
            failures.append(f"verification raised {type(exc).__name__}: {exc}")
    finally:
        workload.teardown(state)

    for p in passes:
        failures.extend(p.failures)
    attempted = sum(len(p.latencies) for p in passes)
    if not trace:
        metrics["setup_s"] = (min(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    stamp = {
        "workload": name,
        "seed": seed,
        "mode": "traced" if trace else "untraced",
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(ROOT),
        "passes": len(passes),
        "requests_per_pass": len(first.latencies),
        "setups": len(setup_times),
        "tracer_loaded": "tracer" in sys.modules,
    }
    return {"stamp": stamp, "lines": lines, "metrics": metrics, "failures": failures,
            "attempted": attempted, "failed": min(attempted, len(failures))}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            use_sources()
            workload = workloads.WORKLOADS[args.workload]
            state, seconds = timed_setup(workload, args.seed)
            workload.teardown(state)
            print(repr(seconds))
            return 0
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = out["attempted"], out["failed"]
    print(f"# {json.dumps(out['stamp'], sort_keys=True)}")
    for line in out["lines"]:
        print(line)
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} requests)")
    for name, (value, unit) in sorted(out["metrics"].items()):
        print(f"{name} = {value:.6g} {unit}")
    for text in out["failures"][:20]:
        print(f"FAILED: {text}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(out["metrics"].items())},
    }))
    return 0 if failed == 0 else 1


def timed_pass(workload, state, passes: list, failures: list):
    """Run one pass; keep the first pass whole and check later ones against it.

    Later passes keep only their timings and failures, so memory does not
    grow with the number of passes a run manages.
    """
    t0 = time.perf_counter()
    p = workload.run_pass(state)
    p.wall = time.perf_counter() - t0
    if passes:
        if p.record != passes[0].record:
            failures.append(f"pass {len(passes) + 1} answered differently from pass 1")
        p.record = p.outputs = None
    passes.append(p)
    return p


def run_untraced(workload, state, seconds: float, time_setup):
    """Closed loop of whole passes until `seconds` have elapsed.

    The program is deterministic and every pass sends the same requests,
    so a slower repeat of a request measures the host, not the program:
    a request's latency is its fastest repeat.  The rate divides the
    items of one pass by the sum of those latencies, and the percentiles
    are taken over the pass's fixed request list.

    Set-up is timed likewise, as its fastest repeat: once for `state`
    before the loop, then in SETUP_SLOTS - 1 slots spread over the run,
    between passes, each calling `time_setup` until SETUP_SLOT_S has
    passed.
    """
    def slot():
        t0 = time.perf_counter()
        time_setup()
        while time.perf_counter() - t0 < SETUP_SLOT_S:
            time_setup()

    passes, failures = [], []
    start = time.perf_counter()
    slots = 1  # the set-up before the loop
    while not passes or time.perf_counter() < start + seconds:
        timed_pass(workload, state, passes, failures)
        due = start + seconds * slots / SETUP_SLOTS
        if slots < SETUP_SLOTS and time.perf_counter() >= due:
            slot()
            slots += 1
    for _ in range(slots, SETUP_SLOTS):
        slot()
    per_request = [min(lat) for lat in zip(*(p.latencies for p in passes))]
    rate = passes[0].items / sum(per_request)
    metrics = {
        "items_per_s": (rate, "1/s"),
        "call_p50_ms": (statistics.median(per_request) * 1e3, "ms"),
        "call_p90_ms": (
            statistics.quantiles(per_request, n=10, method="inclusive")[-1] * 1e3, "ms"),
    }
    median_pass = statistics.median(p.items / p.wall for p in passes)
    lines = [
        f"{workload.rate_name} = {rate:.6g} {workload.item}/s "
        f"({passes[0].items} {workload.item} per pass; median pass "
        f"{median_pass:.6g} {workload.item}/s over {len(passes)} passes)",
        f"call latency over {len(per_request)} requests, each the fastest of "
        f"{len(passes)} repeats: p50 {metrics['call_p50_ms'][0]:.4g} ms, "
        f"p90 {metrics['call_p90_ms'][0]:.4g} ms",
    ]
    return passes, failures, metrics, lines


def run_traced(workload, state, seconds: float):
    """A warm-up pass, then untraced and traced passes in turn.

    Counts are reported from the first traced pass and must repeat on
    every later one; times are medians over the traced passes.
    """
    import tracer as tracing

    workload.run_pass(state)  # warm-up: lazy tables and caches fill
    tracer = tracing.Tracer()
    passes, plain, traced, per_pass, failures = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_pass(workload, state, passes, failures))
        tracer.reset()
        tracer.install()
        try:
            traced.append(timed_pass(workload, state, passes, failures))
        finally:
            tracer.uninstall()
        per_pass.append(tracing.layer_metrics(tracer, traced[-1].wall))
    leftover = tracing.installed_wrappers()
    if leftover:
        failures.append(f"wrappers left installed: {leftover[:5]}")
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "count":
            if any(m[name][0] != value for m in per_pass[1:]):
                failures.append(f"count {name} differs between traced passes")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit)
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = [f"traced {len(traced)} passes, median wall "
             f"{statistics.median(p.wall for p in traced):.4g} s against "
             f"{statistics.median(p.wall for p in plain):.4g} s untraced"]
    return passes, failures, metrics, lines


if __name__ == "__main__":
    sys.exit(main())
