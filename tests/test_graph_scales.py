"""scripts/graph_scales.py, the timing probe of the commands at growing
input sizes, run on a small scale."""

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


def test_records_workload_prints_manifest_and_marks_times():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), src, src, "--workload", "records",
         "--scales", "0.05", "--reps", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == ("scale | rows | manifest old → new ms (new/old) | "
                      "export-vis marks old → new ms (new/old)")
    scale, rows, *cells = row.split(" | ")
    assert scale == "0.05" and int(rows) == 200
    assert len(cells) == 2 and all(" → " in cell for cell in cells)
