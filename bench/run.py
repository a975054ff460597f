"""kava command-level benchmark.

    python3 bench/run.py --workload curation|records|gait --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; kava is imported from ./src. The
run generates the workload's seeded inputs with kava's own writers (set-up),
starts a worker process that replays the workload's commands through
``kava.cli.main`` for S seconds and checks every output, times a fresh
interpreter running the read command on a small fixed input, and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run, and the spans are written to
.bench_out/. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # set-up is generated this many times; the median counts
COLD_REPEATS = 9
IMPORT_REPEATS = 3
COLD_SCALE = 0.05  # the small fixed input of the cold-start command
COLD_SEED = 0
LADDER_SCALES = (0.25, 0.5)  # plus the workload's own size, 1.0
COLD_CODE = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from kava.cli import main; sys.exit(main(sys.argv[1:]))"
)
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import kava.cli"
# Cold start is process creation, imports and native-extension loading, which
# the pure-Python reference does not track; a bare interpreter start does.
BARE_START = [sys.executable, "-c", "pass"]


def _generate(name, directory, seed, scale):
    from workloads import GENERATORS

    plan = GENERATORS[name](directory, seed, scale)
    (directory / "plan.json").write_text(json.dumps(plan))
    return plan


def _child_ms(cmd):
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    return (time.perf_counter_ns() - t0) / 1e6, proc


def _cold_start(name, directory, plan):
    """Fresh interpreters running the read command once, each flanked by a
    bare interpreter start. Returns ([{wall_ms, ref_ms}], errors)."""
    import steady
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[name](directory, plan)
    argv = wl.argv("read", 0)
    cmd = [sys.executable, "-c", COLD_CODE, str(SRC), *argv]
    walls, refs, errors = [], [], []
    for i in range(COLD_REPEATS + 1):
        if i:  # the first, untimed run may still compile bytecode
            refs.append(_child_ms(BARE_START)[0])
        wall, proc = _child_ms(cmd)
        if i:
            walls.append(wall)
            refs.append(_child_ms(BARE_START)[0])
        try:
            wl.check("read", 0, proc.returncode, proc.stdout, proc.stderr)
        except CheckFailed as exc:
            errors.append(f"cold start: {exc}")
        except Exception as exc:  # malformed output: a failed check, not a crash
            errors.append(f"cold start: {type(exc).__name__}: {exc}")
    samples = [{"wall_ms": w, "ref_ms": r} for w, r in zip(walls, steady.windowed_refs(refs))]
    return samples, errors


def _import_times():
    """Cumulative import time (ms) of kava.cli and of numpy and jsonschema
    within it, from `python -X importtime`, median of a few children."""
    import steady

    found = {"kava": [], "numpy": [], "jsonschema": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m:
                cumulative.setdefault(m.group(3), int(m.group(2)) / 1000)
        found["kava"].append(cumulative.get("kava", 0.0) + cumulative.get("kava.cli", 0.0))
        found["numpy"].append(cumulative.get("numpy", 0.0))
        found["jsonschema"].append(cumulative.get("jsonschema", 0.0))
    return {f"import.{k}_ms": steady.median(v) for k, v in found.items()}


def _summary(samples, nominal_ms):
    import steady

    norm = [s["wall_ms"] * nominal_ms / s["ref_ms"] for s in samples]
    return {
        "samples": len(samples),
        "normalized_ms": steady.median(norm),
        "raw_ms": steady.median([s["wall_ms"] for s in samples]),
        "ref_ms": steady.median([s["ref_ms"] for s in samples]),
        "tail": steady.tail(norm),
    }


def run(args, work):
    import steady

    gen_s = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _generate(args.workload, work / f"setup{i}", args.seed, 1.0)
        gen_s.append(time.perf_counter() - t0)
    main_dir = work / "setup0"
    cold_dir = work / "cold"
    cold_plan = _generate(args.workload, cold_dir, COLD_SEED, COLD_SCALE)
    ladder = []
    if args.trace:
        for scale in LADDER_SCALES:
            ladder.append(work / f"ladder{scale}")
            _generate(args.workload, ladder[-1], args.seed, scale)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(main_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans), "--ladder", *map(str, ladder)]
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + 110)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = list(worker["errors"])

    detail = {"workload": args.workload, "seed": args.seed, "rounds": worker["rounds"]}
    if args.trace:
        metrics = dict(worker["metrics"])
        metrics.update(_import_times())
        units = {k: ("count" if k.endswith((".calls", ".rows", ".records_scanned"))
                     else "ratio"
                     if k.endswith((".slope", ".scanned_per_hit", ".distinct_per_call"))
                     else "ms") for k in metrics}
        detail.update(self_ms_by_op=worker["self_ms_by_op"], ladder=worker["ladder"],
                      counts_repeat=worker["counts_repeat"], spans=str(spans.relative_to(ROOT)))
    else:
        cold, cold_errors = _cold_start(args.workload, cold_dir, cold_plan)
        errors += cold_errors
        per_op = {op: _summary(s, steady.REF_NOMINAL_MS) for op, s in worker["samples"].items()}
        per_op["cold_start"] = _summary(cold, steady.BARE_START_NOMINAL_MS)
        warm_up_s = worker["ready_at"] - spawned
        # set-up spans seconds, so it is scaled by the run's median reference
        setup_raw_s = steady.median(gen_s) + warm_up_s
        run_ref = steady.median([s["ref_ms"] for ss in worker["samples"].values() for s in ss])
        metrics = {
            "read_ms": per_op["read"]["normalized_ms"],
            "render_ms": per_op["render"]["normalized_ms"],
            "write_ms": per_op["write"]["normalized_ms"],
            "cold_start_ms": per_op["cold_start"]["normalized_ms"],
            "setup_s": setup_raw_s * steady.REF_NOMINAL_MS / run_ref,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = {"read_ms": "ms", "render_ms": "ms", "write_ms": "ms", "cold_start_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        detail.update(per_command=per_op, generate_s=gen_s, warm_up_s=warm_up_s,
                      setup_raw_s=setup_raw_s, run_ref_ms=run_ref,
                      ref_nominal_ms=steady.REF_NOMINAL_MS,
                      bare_start_nominal_ms=steady.BARE_START_NOMINAL_MS)
    detail["errors"] = errors
    print(json.dumps(detail))
    return {
        "correct": not errors,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curation", "records", "gait"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kava" / "__init__.py").is_file():
        print(f"error: no kava sources at {SRC}; run from a kava checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
