"""Benchmark of kraussphere quasi-inverse learning, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The program is imported from the ``src`` of the checkout that holds
this file.  The loop is closed: one caller runs one learn to completion
in a fresh child process, checks the files it wrote, then starts the
next, until SECONDS have passed.  Every learn of a run has the same
inputs, made from --seed (default: the workload's own).  With --trace 1
the children alternate untraced and traced, so the tracing overhead is
measured on the same inputs; at least one of each runs.  Metrics are
medians over the children that ran to the end: one whose outputs fail a
check still counts in them, and makes the run incorrect.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics, end to end without tracing and per layer with it.  Raw
per-child samples and the environment stamp are written to
bench/out/<workload>/seed<seed>-trace<trace>/samples.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

# A run must end within 180 s: no child starts that could not finish by then.
DEADLINE_S = 170.0
# Set-up is short and noisy, so untraced runs first time it alone, up to
# this often, while less than a tenth of the run has passed.
SETUP_REPEATS = 5
TIMINGS = ("wall_s", "setup_s", "iter_ms", "cpu_s", "peak_rss_mb")
ENV_STAMP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "KRAUS_SPHERE_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: build.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "env": {name: os.environ.get(name) for name in ENV_STAMP_VARS},
    }


def run_child(workload, seed, mode, child_dir, timeout, env) -> dict:
    """One child process (see child.py for MODE), then the checks on its files."""
    child_dir.mkdir(parents=True)
    config_path = child_dir / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, str(child_dir))))
    run_id = f"{workload.name}-{seed}-{child_dir.name}"
    spawn = time.perf_counter()
    command = [sys.executable, str(CHILD), str(SRC), str(config_path), repr(spawn)]
    command += [mode, run_id]
    outcome = {"mode": mode, "failures": []}
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        outcome["failures"].append(f"child exceeded {timeout:.0f} s and was killed")
        return outcome
    if proc.returncode != 0:
        outcome["failures"].append(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
        return outcome
    outcome.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if mode == "setup":
        return outcome
    try:
        values, failures = check_run(workload, child_dir)
    except (OSError, KeyError, ValueError) as exc:
        values, failures = {}, [f"unreadable outputs: {exc!r}"]
    outcome.update(values)
    outcome["failures"].extend(failures)
    return outcome


def run_children(workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Set-up-only children first (untraced runs), then full learns until done."""
    env = dict(os.environ)
    env.pop("KRAUS_SPHERE_THREADS", None)  # serial gradients: one span stack
    cycle = ("plain", "traced") if trace else ("plain",)
    start = time.perf_counter()
    children, setups, longest = [], 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        full = len(children) - setups
        if full >= len(cycle) and elapsed >= seconds:
            break
        if elapsed + longest > DEADLINE_S:
            break
        setup_only = (
            not trace
            and full == 0
            and setups < SETUP_REPEATS
            and (setups == 0 or elapsed < seconds / 10)
        )
        mode = "setup" if setup_only else cycle[full % len(cycle)]
        began = time.perf_counter()
        child_dir = run_dir / f"child{len(children)}"
        children.append(run_child(workload, seed, mode, child_dir, DEADLINE_S - elapsed, env))
        if setup_only:
            setups += 1
        else:
            longest = max(longest, time.perf_counter() - began)
    return children


def tail(values) -> dict | None:
    """Highest percentile with at least ten samples above it, if any."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    return {
        "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
        "value": ordered[-11],
    }


def samples(children, name: str) -> list[float]:
    """Values of an end-to-end metric over the untraced children that have it."""
    return [c[name] for c in children if c["mode"] != "traced" and name in c]


def summarize(children, trace: bool) -> dict[str, float]:
    """Medians over the children that ran to the end, whatever their checks said.

    Raises statistics.StatisticsError when a metric has no sample.
    """
    if not trace:
        return {name: statistics.median(samples(children, name)) for name in END_TO_END}
    plain = [c for c in children if c["mode"] == "plain" and "wall_s" in c]
    traced = [c for c in children if c["mode"] == "traced" and "useful_iter_ratio" in c]
    metrics = {
        "optimizer.useful_iter_ratio": statistics.median(c["useful_iter_ratio"] for c in traced),
        "process.cpu_util": statistics.median(c["cpu_s"] / c["wall_s"] for c in plain),
        "trace.overhead_s": statistics.median(c["wall_s"] for c in traced)
        - statistics.median(c["wall_s"] for c in plain),
    }
    for name in PER_LAYER.keys() - metrics.keys():
        metrics[name] = statistics.median(c["layers"][name] for c in traced)
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="seed of the state ensemble")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kraussphere" / "__init__.py").is_file():
        print(f"no kraussphere package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        print(f"--seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    run_dir = OUT / workload.name / f"seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    children = run_children(workload, seed, args.seconds, trace, run_dir)
    failed = [c for c in children if c["failures"]]
    for child in failed:
        for failure in child["failures"]:
            print(f"FAILED {workload.name} seed {seed}: {failure}", file=sys.stderr)
    try:
        metrics = summarize(children, trace)
    except statistics.StatisticsError:
        print("too few child runs completed to report metrics", file=sys.stderr)
        return 1
    units = PER_LAYER if trace else END_TO_END
    timings = {name: samples(children, name) for name in TIMINGS}
    (run_dir / "samples.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": environment(),
                "config": workload.config(seed, "<child dir>"),
                "children": children,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
                "timings": {
                    n: {"median": statistics.median(v), "n": len(v), "tail": tail(v)}
                    for n, v in timings.items()
                },
            },
            indent=1,
        )
    )

    for child in children:
        if "fidelity_after" in child:
            print(
                f"{workload.name} seed {seed} {child['mode']}: "
                f"iterations {child['iterations']}, fidelity "
                f"{child['fidelity_before']:.6f} -> {child['fidelity_after']:.6f}, "
                f"wall {child['wall_s']:.3f} s"
            )
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
