"""Run every workload over ten seeds and record the numbers.

    python3 bench/baseline.py

Each workload of BENCHMARK.json runs once per seed (1, 2, ... 10)
untraced for its run_seconds, then once traced at its default seed.
For every end-to-end metric the table gives the median over the seed
runs, the quartile spread (q3 - q1) / median as
statistics.quantiles(values, n=4) computes it, and the metric's bound;
child samples pooled over all runs give each timing's tail percentile.
The JSON written to bench/baseline.json also keeps every run's metrics
and the environment stamp.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import BENCH, END_TO_END, ROOT, SPEC, TIMINGS, environment, samples, tail
from workloads import WORKLOADS

BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; its result line and its samples file."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples_path = BENCH / "out" / workload / f"seed{seed}-trace{trace}" / "samples.json"
    return result, json.loads(samples_path.read_text())


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    report = {
        "environment": environment(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for name in (w["name"] for w in SPEC["workloads"]):
        runs, children = [], []
        for seed in SEEDS:
            result, written = run_once(name, seed, 0)
            runs.append({"seed": seed, **result})
            children += written["children"]
            print(f"{name} seed {seed}: correct {result['correct']}", file=sys.stderr)
        entry = {"runs": runs, "end_to_end": {}}
        for metric, unit in END_TO_END.items():
            row = spread([r["metrics"][metric]["value"] for r in runs])
            row.update(unit=unit, bound=BOUNDS[metric])
            if metric in TIMINGS:
                pooled = samples(children, metric)
                row.update(children=len(pooled), tail=tail(pooled))
            entry["end_to_end"][metric] = row
            print(
                f"{name:11s} {metric:15s} {row['median']:12.6g} {unit:8s} "
                f"spread {row['spread']:7.4f}  bound {row['bound']}"
            )
        default = WORKLOADS[name].default_seed
        result, _ = run_once(name, default, 1)
        entry["per_layer"] = {"seed": default, **result}
        entry["correct"] = all(r["correct"] for r in runs) and result["correct"]
        for metric, value in result["metrics"].items():
            print(f"{name:11s} {metric:35s} {value['value']:12.6g} {value['unit']}")
        report["workloads"][name] = entry
    (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
