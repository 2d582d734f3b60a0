"""tools/compare_outputs.py run with this checkout as its own parent."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_checkout_matches_itself_on_the_smoke_workload():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(ROOT), "smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "smoke",
        "  result.json    identical",
        "  states.json    identical",
        "  manifest.json  equal (output_dir dropped)",
        "  sample         states.json identical",
        "  angles         equal",
        "  channel        equal",
        "  stop           equal",
        "  grad_norm      equal (3 -> 3 records)",
        "  loss           max |delta| 0 (0 of 3 differ)",
        "  fidelity_after |delta| 0",
    ]

