#!/usr/bin/env python3
"""Time the commands of two kava source trees on bench inputs of growing
size: curation stores, or records CSVs.

    python3 scripts/graph_scales.py OLD_SRC NEW_SRC [--workload curation]
        [--scales 1 4 16 64] [--reps 3]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. For each
scale, ``bench/workloads.py`` writes the workload's input with OLD_SRC's
kava, at seed 1. Each of the workload's commands, built by its own
``argv``, then runs in a fresh interpreter per tree and repetition.

- ``curation`` (the default): ``generate_curation`` writes a store of about
  1,000 triples per unit of scale. The commands are ``validate`` of the
  Turtle store; ``convert`` of the JSON-LD store to Turtle, and of the
  Turtle store to JSON-LD; and ``annotate``, which adds one manifestation
  to a copy of the store.
- ``records``: ``generate_records`` writes a CSV of 4,000 rows per unit of
  scale and a store of 30 mappings. The commands are ``manifest`` of one
  concept and ``export-vis --pattern marks``.

Both trees run in one directory on one input, taking turns: the tree that
goes first alternates with each repetition. The time is that of
``kava.cli.main`` alone, without interpreter start and imports; a row shows
the best of the repetitions for each tree, in ms, and the new tree's time
as a share of the old one's. Prints one row per scale, with the size of
the input in triples or rows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# per workload: its input generator, the plan key that holds the input's
# size and that size's unit, and the ops to time, with the names rows show
WORKLOADS = {
    "curation": ("generate_curation", "triples", "triples",
                 {"read": "validate", "render": "convert ttl", "aux": "convert jsonld",
                  "write": "annotate"}),
    "records": ("generate_records", "size", "rows",
                {"read": "manifest", "render": "export-vis marks"}),
}

# Runs in a fresh interpreter: argv is [src, command argv as JSON]; prints
# the ms spent in kava.cli.main and exits with the command's exit code.
CHILD = r"""
import io, json, sys, time
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from kava.cli import main
with redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = main(json.loads(sys.argv[2]))
    ms = (time.perf_counter() - t0) * 1e3
print(ms)
sys.exit(code)
"""


def _time(src: Path, workload, op: str) -> float:
    argv = workload.argv(op, 0)  # annotate first restores the store it edits
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, str(src), json.dumps(argv)],
                          capture_output=True, text=True, cwd=workload.work)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} under {src} failed:\n{proc.stdout}{proc.stderr}")
    return float(proc.stdout)


def measure(old_src: Path, new_src: Path, scales, reps: int, name: str = "curation"):
    """Yield (scale, input size, {op: (old ms, new ms)}) for each scale."""
    sys.path[:0] = [str(old_src), str(BENCH)]  # the generator writes with OLD_SRC's kava
    sys.dont_write_bytecode = True  # leave no cache files in either tree or in bench/
    import workloads

    generator, size_key, unit, ops = WORKLOADS[name]
    for scale in scales:
        with tempfile.TemporaryDirectory(prefix="graph-scales-") as tmp:
            work = Path(tmp)
            plan = getattr(workloads, generator)(work, 1, scale)
            workload = workloads.WORKLOADS[name](work, plan)
            best = {(src, op): float("inf") for src in (old_src, new_src) for op in ops}
            for rep in range(reps):
                order = (old_src, new_src) if rep % 2 == 0 else (new_src, old_src)
                for op in ops:
                    for src in order:
                        best[src, op] = min(best[src, op], _time(src, workload, op))
            print(f"scale {scale}: {plan[size_key]} {unit}, {reps} reps", file=sys.stderr)
            yield scale, plan[size_key], {op: (best[old_src, op], best[new_src, op]) for op in ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", choices=list(WORKLOADS), default="curation")
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0, 4.0, 16.0, 64.0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in (args.old_src, args.new_src)]
    for src in srcs:
        if not (src / "kava" / "cli.py").is_file():
            parser.error(f"{src} holds no kava/cli.py")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    _, _, unit, ops = WORKLOADS[args.workload]
    print(f"scale | {unit} | " + " | ".join(f"{name} old → new ms (new/old)"
                                            for name in ops.values()))
    for scale, size, times in measure(*srcs, args.scales, args.reps, args.workload):
        cells = [f"{old:.1f} → {new:.1f} ({new / old:.2f})" for old, new in times.values()]
        print(f"{scale:g} | {size} | " + " | ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
