"""Run-to-run spread of the end-to-end metrics: two sets of runs, seeds 1 to 10.

Usage, from the repository root: python3 bench/spread.py

Runs ``bench/run.py --trace 0`` for run_seconds once per seed and workload,
one run at a time: every workload's first set, then every workload's second
set.  For each set and metric it records the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, and the second set's median over the first's.  The
result goes to ``bench/spread.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SETS = 2


def spread_of(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def run_set(workload: str, seconds: int) -> tuple[list, bool]:
    runs, ok = [], True
    for seed in SEEDS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
            ok = False
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              flush=True)
    return runs, ok


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    sets = {name: [] for name in names}
    ok = True
    for _ in range(SETS):
        for name in names:
            runs, passed = run_set(name, spec["run_seconds"])
            sets[name].append(runs)
            ok = ok and passed

    summary = {}
    for name, runs_per_set in sets.items():
        summary[name] = {}
        for metric, bound in bounds.items():
            stats = [spread_of([r[metric] for r in runs]) for runs in runs_per_set]
            entry = {"bound": bound,
                     "sets": [{"median": med, "iqr_share": round(s, 4)} for med, s in stats],
                     "second_over_first": round(stats[1][0] / stats[0][0], 4)}
            summary[name][metric] = entry
            print(f"  {name} {metric}: " + ", ".join(
                f"median {med:.4g} spread {s:.3f}" for med, s in stats)
                + f", second/first {entry['second_over_first']} (bound {bound})", flush=True)
    (BENCH / "spread.json").write_text(json.dumps(
        {"seeds": [SEEDS.start, SEEDS.stop - 1], "seconds": spec["run_seconds"],
         "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
