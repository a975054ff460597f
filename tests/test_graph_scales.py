"""scripts/graph_scales.py, the timing probe of the graph commands at
growing store sizes, run on a small scale."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "graph_scales.py"


def test_one_tree_against_itself_prints_one_row_per_scale():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), src, src, "--scales", "0.05", "--reps", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.startswith("scale | triples | validate old → new ms")
    scale, triples, *cells = row.split(" | ")
    assert scale == "0.05" and int(triples) > 0
    assert len(cells) == 4 and all(" → " in cell for cell in cells)
