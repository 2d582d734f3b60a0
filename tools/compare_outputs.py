"""Compare the CLI outputs of another checkout with this one's.

    python tools/compare_outputs.py PARENT_ROOT [WORKLOAD ...]

Runs ``kraussphere learn`` and ``kraussphere sample`` on the config of
each named workload of bench/workloads.py (every workload by default)
at its default seed, once with PARENT_ROOT/src and once with this
checkout's src as the package, each in a fresh process writing into a
temporary directory.  For each workload it prints whether the learns'
result.json and states.json are byte-identical, whether their
manifest.json files are equal once config.output_dir is dropped,
whether the samples' states.json are byte-identical, whether the
learned angles, the channel, every history grad_norm and the stop
(stop_reason, best_iteration) are equal, and the largest |loss
difference| over the history and of fidelity_after, so changes that
move losses by rounding alone can be told from ones that move the
descent.  Exits 0 if every command ran, 1 otherwise.  Uses the standard
library only; bench/ is imported, never written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_workloads() -> dict:
    """bench/workloads.py's WORKLOADS, imported without writing a cache."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    return WORKLOADS


def run(
    root: Path, command: str, config: dict, out_dir: Path
) -> subprocess.CompletedProcess:
    """``kraussphere <command>`` on ``config`` in a fresh process that
    imports the package from ``root``/src, writing into ``out_dir``."""
    out_dir.mkdir(parents=True)
    config_path = out_dir.parent / f"{out_dir.name}.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(out_dir)}))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    command = [sys.executable, "-B", "-m", "kraussphere.cli", command, "--quiet"]
    command += ["--config", str(config_path)]
    return subprocess.run(command, cwd=out_dir, env=env, capture_output=True, text=True)


def equal(flag: bool) -> str:
    return "equal" if flag else "DIFFER"


def identical(dirs: dict, command: str, name: str) -> str:
    """Whether both sides' ``command`` wrote the same bytes to ``name``."""
    old, new = ((dirs[side, command] / name).read_bytes() for side in SIDES)
    return "identical" if old == new else "DIFFER"


def manifest(out_dir: Path) -> dict:
    """A run's manifest.json without its config.output_dir."""
    data = json.loads((out_dir / "manifest.json").read_text())
    del data["config"]["output_dir"]
    return data


def compare(dirs: dict) -> list[str]:
    """The report lines for the output directories of one workload, keyed
    by (side, command)."""
    parent, change = dirs["parent", "learn"], dirs["change", "learn"]
    lines = [
        f"  {name:<15}{identical(dirs, 'learn', name)}"
        for name in ("result.json", "states.json")
    ]
    same = manifest(parent) == manifest(change)
    lines.append(f"  {'manifest.json':<15}{equal(same)} (output_dir dropped)")
    sampled = identical(dirs, "sample", "states.json")
    lines.append(f"  {'sample':<15}states.json {sampled}")
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
            for side, root in zip(SIDES, (parent_root, ROOT)):
                for command in ("learn", "sample"):
                    dirs[side, command] = Path(scratch, name, side, command)
                    done = run(root, command, config, dirs[side, command])
                    if done.returncode != 0:
                        error = done.stderr.strip()
                        print(f"  {side} {command} exited {done.returncode}: {error}")
                        ran, status = False, 1
            if ran:
                print("\n".join(compare(dirs)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
