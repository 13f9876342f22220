#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and compare them.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload cli_cold

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. The
benchmark command, its ``run_seconds`` and the end-to-end metrics
(``name``, ``better``, ``bound``) come from this repository's
BENCHMARK.json. Each of the ten pairs runs the command with seed 1 and
``--trace 0`` once inside each checkout. The parent runs first in
even-numbered pairs and the change first in odd-numbered ones, so drift
over time falls on both sides alike. The script stops with exit code 1
at the first run that fails, is not ``correct`` or has failed looks.

For each metric it prints both medians, the change relative to the
parent signed so that positive means worse, the parent's spread
(interquartile distance over median, perfbench/stats.py), the bound and
a verdict:

    worse       the change's median is worse than the parent's by more
                than the bound
    unresolved  not worse, but the parent's spread exceeds the bound and
                not every change run beats every parent run
    ok          otherwise
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from stats import median, spread  # noqa: E402

PAIRS = 10
SEED = 1


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change from ``parent`` to ``change``; positive means worse."""
    if parent == 0:
        delta = 0.0 if change == 0 else math.copysign(math.inf, change)
    else:
        delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``ok`` or ``unresolved`` for one metric's runs (see the module doc)."""
    if worse_by(median(parent), median(change), better) > bound:
        return "worse"
    if spread(parent) > bound:
        if better == "lower":
            beats = max(change) < min(parent)
        else:
            beats = min(change) > max(parent)
        return "ok" if beats else "unresolved"
    return "ok"


def run_once(bench: dict, checkout: Path, workload: str) -> dict:
    """One benchmark run in ``checkout``; its metric values by name."""
    # the same invocation as perfbench/spread.py's; keep the two in step
    argv = [*bench["command"], "--workload", workload, "--seed", str(SEED),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        raise RuntimeError(f"{checkout}: correct={result['correct']}, failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                values = run_once(bench, getattr(args, side), args.workload)
            except RuntimeError as exc:
                print(f"pair {pair} {side}: {exc}", file=sys.stderr)
                return 1
            runs[side].append(values)
            print(f"pair {pair} {side}: {json.dumps(values, sort_keys=True)}", file=sys.stderr)

    print(f"{args.workload}, {PAIRS} pairs, seed {SEED}, {bench['run_seconds']:g} s runs")
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'worse_by':>10}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for metric in bench["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        print(f"{name:<16}{median(parent):>12.6g}{median(change):>12.6g}"
              f"{worse_by(median(parent), median(change), better):>+10.1%}"
              f"{spread(parent):>9.1%}{bound:>7.0%}  {verdict(parent, change, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
