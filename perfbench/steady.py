"""Run the benchmark on several seeds and report each metric's run-to-run spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload campaign_served --seeds 1 2 3 4 5

For every end-to-end metric of ``BENCHMARK.json`` it prints the median over
the runs and the interquartile distance as a share of that median, next to
the metric's regression bound.  A benchmark is steady when every spread
(``setup_s`` excepted) stays well below its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import median, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        command = config["command"] + ["--workload", args.workload, "--seed", str(seed),
                                       "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        report = json.loads(last) if last.startswith("{") else {}
        if done.returncode != 0 or not report.get("correct"):
            print(f"seed {seed}: FAILED (exit {done.returncode})\n{done.stdout}{done.stderr}")
            return 1
        runs.append(report["metrics"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={entry['value']:.4g}" for name, entry in report["metrics"].items()),
            flush=True)

    print(f"\n{'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}  spread/bound")
    for entry in config["end_to_end"]:
        values = [run[entry["name"]]["value"] for run in runs]
        spread = quartile_spread(values) if len(values) >= 2 else float("nan")
        print(f"{entry['name']:<14} {median(values):>10.4g} {spread:>8.3f} "
              f"{entry['bound']:>6.2f}  {spread / entry['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
