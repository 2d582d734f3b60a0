"""Compare the CLI outputs of another checkout with this one's.

    python tools/compare_outputs.py PARENT_ROOT [WORKLOAD ...]

Runs ``kraussphere learn`` on the config of each named workload of
bench/workloads.py (every workload by default) at its default seed,
once with PARENT_ROOT/src and once with this checkout's src as the
package, each in a fresh process writing into a temporary directory.
For each workload it prints whether result.json and states.json are
byte-identical, whether the learned angles, the channel, every history
grad_norm and the stop (stop_reason, best_iteration) are equal, and the
largest |loss difference| over the history and of fidelity_after, so
changes that move losses by rounding alone can be told from ones that
move the descent.  Exits 0 if every learn ran, 1 otherwise.  Uses the
standard library only; bench/ is imported, never written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads() -> dict:
    """bench/workloads.py's WORKLOADS, imported without writing a cache."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    return WORKLOADS


def learn(root: Path, config: dict, out_dir: Path) -> subprocess.CompletedProcess:
    """``kraussphere learn`` on ``config`` in a fresh process that imports
    the package from ``root``/src, writing into ``out_dir``."""
    out_dir.mkdir(parents=True)
    config_path = out_dir.parent / f"{out_dir.name}.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(out_dir)}))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-B", "-m", "kraussphere.cli", "learn", "--quiet"]
    command += ["--config", str(config_path)]
    return subprocess.run(command, cwd=out_dir, env=env, capture_output=True, text=True)


def equal(flag: bool) -> str:
    return "equal" if flag else "DIFFER"


def compare(parent: Path, change: Path) -> list[str]:
    """The report lines for the output directories of one workload."""
    lines = []
    for name in ("result.json", "states.json"):
        same = (parent / name).read_bytes() == (change / name).read_bytes()
        lines.append(f"  {name:<15}{'identical' if same else 'DIFFER'}")
    old, new = (json.loads((p / "result.json").read_text()) for p in (parent, change))
    lines.append(f"  {'angles':<15}{equal(old['angles'] == new['angles'])}")
    lines.append(f"  {'channel':<15}{equal(old['channel'] == new['channel'])}")
    stop = ("stop_reason", "best_iteration")
    lines.append(f"  {'stop':<15}{equal(all(old[k] == new[k] for k in stop))}")
    old_history, new_history = old["history"], new["history"]
    norms = [[r["grad_norm"] for r in h] for h in (old_history, new_history)]
    counts = f"{len(old_history)} -> {len(new_history)} records"
    lines.append(f"  {'grad_norm':<15}{equal(norms[0] == norms[1])} ({counts})")
    deltas = [abs(a["loss"] - b["loss"]) for a, b in zip(old_history, new_history)]
    moved = sum(delta != 0.0 for delta in deltas)
    lines.append(
        f"  {'loss':<15}max |delta| {max(deltas, default=0.0):.3g} "
        f"({moved} of {len(deltas)} differ)"
    )
    after = abs(old["fidelity_after"] - new["fidelity_after"])
    lines.append(f"  {'fidelity_after':<15}|delta| {after:.3g}")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: compare_outputs.py PARENT_ROOT [WORKLOAD ...]", file=sys.stderr)
        return 2
    parent_root = Path(argv[0]).resolve()
    workloads = load_workloads()
    names = argv[1:] or list(workloads)
    unknown = [name for name in names if name not in workloads]
    if unknown:
        print(f"unknown workloads {unknown}; known: {list(workloads)}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            workload = workloads[name]
            config = workload.config(workload.default_seed, "")
            dirs, ran = {}, True
            print(name)
            for side, root in (("parent", parent_root), ("change", ROOT)):
                dirs[side] = Path(scratch) / name / side
                run = learn(root, config, dirs[side])
                if run.returncode != 0:
                    print(f"  {side} learn exited {run.returncode}: {run.stderr.strip()}")
                    ran, status = False, 1
            if ran:
                print("\n".join(compare(dirs["parent"], dirs["change"])))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
