"""Steadiness check: run the benchmark repeatedly on one commit and compare.

Usage, from the root of a source checkout:

    python3 perfbench/steady.py [--workload NAME ...] [--seeds 10] [--rounds 2]

Each round runs `perfbench/run.py --trace 0` once per seed on every chosen
workload, one process at a time.  For every end-to-end metric it prints the
spread of each round (distance between the first and third quartile over its
median) and how much worse the last round's median is than the first's, both
against the metric's bound in BENCHMARK.json.  The exit code is 1 when a
spread (other than `setup_s`) or a drift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worse_by(first: float, last: float, better: str) -> float:
    """Share by which `last` is worse than `first` (negative when better)."""
    change = (last - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        rounds = []
        for r in range(args.rounds):
            seeds = range(args.first_seed + r * args.seeds, args.first_seed + (r + 1) * args.seeds)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"# {workload} round {r + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr)
            rounds.append(runs)
        print(f"{workload}: {args.rounds} round(s) of {args.seeds} seeds")
        print(f"  {'metric':<16} {'bound':>6} {'median':>10} " + " ".join(
            f"{'spread' + str(r + 1):>8}" for r in range(args.rounds)) + f" {'drift':>7}")
        for m in spec["end_to_end"]:
            series = [[run[m["name"]] for run in runs] for runs in rounds]
            spreads = [spread(v) for v in series]
            medians = [statistics.median(v) for v in series]
            drift = worse_by(medians[0], medians[-1], m["better"])
            bad = drift > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"])
            tight = max(spreads) > m["bound"] / 3
            ok &= not bad
            flag = "FAIL" if bad else ("tight" if tight else "ok")
            print(f"  {m['name']:<16} {m['bound']:>6.3f} {medians[0]:>10.4g} "
                  + " ".join(f"{s:>8.4f}" for s in spreads) + f" {drift:>+7.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
