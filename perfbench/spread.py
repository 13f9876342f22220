#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload cli_cold --seeds 1-5

For every metric: the median over seeds and the interquartile distance as
a share of that median, with the bound from BENCHMARK.json beside it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from stats import median, spread  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
    for name, vals in values.items():
        bound = bounds.get(name)
        share = spread(vals) if len(vals) > 1 else 0.0
        print(f"{name:48s} median {median(vals):12.6g}  spread {share:7.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
