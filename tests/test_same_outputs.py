"""scripts/same_outputs.py, the byte-identity check between two source
trees, run on a small scale."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_outputs.py"
sys.path.insert(0, str(SCRIPT.parent))

from same_outputs import _differences  # noqa: E402


def test_one_tree_against_itself_is_all_equal():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-B", str(SCRIPT), src, src,
         "--seeds", "1", "--scales", "0.05", "--rounds", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "all equal\n"
    # every input set was run
    for label in ("fixtures and edge CSVs", "curation seed 1", "records seed 1", "gait seed 1"):
        assert label in proc.stderr


def test_differences_name_the_command_and_the_field():
    work = Path("/w")
    old = [[["manifest", "/w/s.ttl"], 0, "[1]\n", "", {}], [["validate"], 0, "", "", {}]]
    new = [[["manifest", "/w/s.ttl"], 0, "[2]\n", "", {}], [["validate"], 0, "", "", {}]]
    assert _differences("case", work, old, new) == ["case: manifest <work>/s.ttl: stdout differ"]
    assert _differences("case", work, old, old) == []
