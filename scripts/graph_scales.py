#!/usr/bin/env python3
"""Time the graph commands of two kava source trees on curation stores of
growing size.

    python3 scripts/graph_scales.py OLD_SRC NEW_SRC [--scales 1 4 16 64]
        [--reps 3]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. For each
scale, ``bench/workloads.py``'s ``generate_curation`` writes a store (with
OLD_SRC's kava, at seed 1) of about 1,000 triples per unit of scale. Each
of the curation workload's four commands, built by its own ``argv``, then
runs in a fresh interpreter per tree and repetition:

- ``validate`` of the Turtle store;
- ``convert`` of the JSON-LD store to Turtle, and of the Turtle store to
  JSON-LD;
- ``annotate``, which adds one manifestation to a copy of the store.

Both trees run in one directory on one input, taking turns: the tree that
goes first alternates with each repetition. The time is that of
``kava.cli.main`` alone, without interpreter start and imports; a row shows
the best of the repetitions for each tree, in ms, and the new tree's time
as a share of the old one's. Prints one row per scale.
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

OPS = {"read": "validate", "render": "convert ttl", "aux": "convert jsonld", "write": "annotate"}

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


def measure(old_src: Path, new_src: Path, scales, reps: int):
    """Yield (scale, triples, {op: (old ms, new ms)}) for each scale."""
    sys.path[:0] = [str(old_src), str(BENCH)]  # the generator writes with OLD_SRC's kava
    sys.dont_write_bytecode = True  # leave no cache files in either tree or in bench/
    from workloads import WORKLOADS, generate_curation

    for scale in scales:
        with tempfile.TemporaryDirectory(prefix="graph-scales-") as tmp:
            work = Path(tmp)
            plan = generate_curation(work, 1, scale)
            workload = WORKLOADS["curation"](work, plan)
            best = {(src, op): float("inf") for src in (old_src, new_src) for op in OPS}
            for rep in range(reps):
                order = (old_src, new_src) if rep % 2 == 0 else (new_src, old_src)
                for op in OPS:
                    for src in order:
                        best[src, op] = min(best[src, op], _time(src, workload, op))
            print(f"scale {scale}: {plan['triples']} triples, {reps} reps", file=sys.stderr)
            yield scale, plan["triples"], {op: (best[old_src, op], best[new_src, op])
                                           for op in OPS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0, 4.0, 16.0, 64.0])
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in (args.old_src, args.new_src)]
    for src in srcs:
        if not (src / "kava" / "cli.py").is_file():
            parser.error(f"{src} holds no kava/cli.py")
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    print("scale | triples | " + " | ".join(f"{name} old → new ms (new/old)"
                                            for name in OPS.values()))
    for scale, triples, times in measure(*srcs, args.scales, args.reps):
        cells = [f"{old:.1f} → {new:.1f} ({new / old:.2f})" for old, new in times.values()]
        print(f"{scale:g} | {triples} | " + " | ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
