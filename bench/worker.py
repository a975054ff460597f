"""Benchmark worker: replays a workload's commands in one process through
``kava.cli.main(argv)`` and prints one JSON object with its samples.

Started by run.py once the inputs exist, so that its peak resident size
holds the commands' state and not the generator's. A closed loop with one
client: each command starts when the previous one (and its check) ends.

    python3 bench/worker.py --workload W --work DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kava import cli  # noqa: E402

import steady  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Layers whose per-command self time is reported, and the slope metrics.
SELF_LAYERS = (
    "rdf.match", "rdf.canonical_form", "turtle.parse", "turtle.serialize",
    "jsonld.parse", "jsonld.serialize", "skos.load_scheme", "skos.validate_scheme",
    "manifestation.load", "manifestation.evaluate", "predicate.parse",
    "dataset.load_csv", "dataset.load_series_csv", "utilization.spec",
    "utilization.validate_fragment", "gait.load_trials_dir", "gait.compute_params",
    "cli.graph_findings", "cli.infer_schema", "cli.write_atomic",
)
CALL_LAYERS = ("rdf.match", "manifestation.load", "predicate.parse", "gait.compute_params")
SLOPE_LAYERS = (
    "rdf.match", "manifestation.load", "turtle.serialize", "jsonld.serialize", "dataset.load_csv",
)
LADDER_REPEATS = 3


def run_main(argv, tracer=None, command_id=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.command(command_id, cli.main, argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Loop:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op, r, tracer=None, command_id=None, refs=None):
        """One command plus its check; returns its wall ms. When refs is a
        list, the reference computation runs just before and just after the
        command and both durations are appended to it."""
        argv = self.wl.argv(op, r)
        gc.collect()
        if refs is not None:
            refs.append(steady.timed_reference_ms())
        t0 = time.perf_counter_ns()
        code, out, err = run_main(argv, tracer, command_id)
        wall = (time.perf_counter_ns() - t0) / 1e6
        if refs is not None:
            refs.append(steady.timed_reference_ms())
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"{op} round {r}: exit {code}: {err.strip()[:300]}")
            return wall
        try:
            self.wl.check(op, r, code, out, err)
        except CheckFailed as exc:
            self.errors.append(f"{op} round {r}: {exc}")
        except Exception as exc:  # malformed output: a failed check, not a crash
            self.errors.append(f"{op} round {r}: {type(exc).__name__}: {exc}")
        return wall


def warm_up(loop, ops):
    """One untimed, checked pass over the ops, then validate the edited
    store once (annotate and add-prototype must leave a valid store)."""
    for op in ops:
        loop.run(op, 0)
    try:
        loop.wl.check_edited_store_validates(run_main)
    except Exception as exc:  # malformed output: a failed check, not a crash
        loop.errors.append(f"edited store: {type(exc).__name__}: {exc}")
    loop.attempted = loop.failed = 0


def timed_run(loop, seconds):
    order, walls, refs = [], [], []
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds:
        r += 1
        for op in loop.wl.ops:
            order.append(op)
            walls.append(loop.run(op, r, refs=refs))
    samples = {op: [] for op in loop.wl.ops}
    for op, wall, ref in zip(order, walls, steady.windowed_refs(refs)):
        samples[op].append({"wall_ms": wall, "ref_ms": ref})
    return {"rounds": r, "samples": samples}


def _median_layer(commands, layer, key):
    values = []
    for c in commands:
        entry = c.get(layer)
        if entry is None:
            values.append(0)
        elif key in ("self_ms", "calls"):
            values.append(entry[key])
        elif key == "distinct":
            values.append(len(entry["trials"]))
        else:
            values.append(entry["counters"][key])
    return steady.median(values)


def _layer_sum(by_op, layer, key):
    return sum(_median_layer(commands, layer, key) for commands in by_op.values())


def traced_run(loop, seconds, ladder):
    tracer = Tracer()
    ops = loop.wl.trace_ops
    size = loop.wl.plan["size"]
    order, walls, refs = [], [], []
    start = time.perf_counter()
    r = 0
    # Traced and untraced rounds alternate, so host drift falls on both.
    while r < 4 or time.perf_counter() - start < seconds:
        r += 1
        traced = r % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                order.append((traced, op))
                walls.append(loop.run(op, r, tracer if traced else None, f"{size}/{op}/{r}", refs))
        finally:
            tracer.uninstall()
    normalized = {(t, op): [] for t in (True, False) for op in ops}
    for key, w, ref in zip(order, walls, steady.windowed_refs(refs)):
        normalized[key].append(w * steady.REF_NOMINAL_MS / ref)
    tracer.install()
    try:
        for sub in ladder:
            for rep in range(LADDER_REPEATS):
                for op in ops:
                    sub.run(op, rep + 1, tracer, f"{sub.wl.plan['size']}/{op}/{rep}")
    finally:
        tracer.uninstall()

    per_command = tracer.per_command()
    by_size: dict = {}
    for command_id, layers in per_command.items():
        csize, op, _ = command_id.split("/")
        by_size.setdefault(int(csize), {}).setdefault(op, []).append(layers)
    at_size = by_size[size]
    metrics = {f"{layer}.self_ms": _layer_sum(at_size, layer, "self_ms") for layer in SELF_LAYERS}
    metrics.update({f"{layer}.calls": _layer_sum(at_size, layer, "calls") for layer in CALL_LAYERS})
    hits = _layer_sum(at_size, "rdf.match", "hits")
    scanned = _layer_sum(at_size, "rdf.match", "scanned")
    metrics["rdf.match.scanned_per_hit"] = scanned / hits if hits else 0.0
    metrics["manifestation.evaluate.records_scanned"] = _layer_sum(
        at_size, "manifestation.evaluate", "records_scanned"
    )
    metrics["dataset.load_csv.rows"] = _layer_sum(at_size, "dataset.load_csv", "rows")
    calls = metrics["gait.compute_params.calls"]
    metrics["gait.compute_params.distinct_per_call"] = (
        _layer_sum(at_size, "gait.compute_params", "distinct") / calls if calls else 0.0
    )
    metrics["cli.other_ms"] = _layer_sum(at_size, "cli.other", "self_ms")
    for layer in SLOPE_LAYERS:
        points = [(s, _layer_sum(cmds, layer, "self_ms")) for s, cmds in sorted(by_size.items())]
        metrics[f"{layer}.slope"] = steady.loglog_slope(points)
    metrics["trace.overhead_ms"] = sum(
        steady.median(normalized[True, op]) - steady.median(normalized[False, op]) for op in ops
    )
    repeat = {
        layer: all(
            len({c.get(layer, {}).get("calls", 0) for c in cmds}) == 1 for cmds in at_size.values()
        )
        for layer in CALL_LAYERS
    }
    breakdown = {
        op: {layer: round(_median_layer(cmds, layer, "self_ms"), 3)
             for layer in (*SELF_LAYERS, "cli.other") if _median_layer(cmds, layer, "calls")}
        for op, cmds in at_size.items()
    }
    return tracer, {
        "rounds": r,
        "metrics": metrics,
        "ladder": {s: {layer: _layer_sum(cmds, layer, "self_ms") for layer in SLOPE_LAYERS}
                   for s, cmds in sorted(by_size.items())},
        "counts_repeat": repeat,
        "self_ms_by_op": breakdown,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--ladder", nargs="*", default=[])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    def load(directory):
        path = Path(directory)
        return WORKLOADS[args.workload](path, json.loads((path / "plan.json").read_text()))

    loop = Loop(load(args.work))
    loops = [loop]
    if args.trace:
        loops += [Loop(load(d)) for d in args.ladder]
        for each in loops:
            warm_up(each, each.wl.trace_ops)
    else:
        warm_up(loop, loop.wl.ops)
    result = {"ready_at": time.time()}
    if args.trace:
        tracer, traced = traced_run(loop, args.seconds, loops[1:])
        result.update(traced)
        if args.spans:
            tracer.write(args.spans)
    else:
        result.update(timed_run(loop, args.seconds))
    result.update(
        attempted=sum(each.attempted for each in loops),
        failed=sum(each.failed for each in loops),
        errors=[e for each in loops for e in each.errors][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
