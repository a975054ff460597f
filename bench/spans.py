"""Per-layer spans recorded from outside the program.

Each public function of interest is wrapped where it is looked up: a
module that did ``from .dataset import load_csv`` holds its own reference,
so the wrapper replaces every reference to the original in every loaded
``kava`` module. ``Graph.match`` is patched on the class. Spans are kept in
memory as (name, start, end, parent, command id, counters) and written
out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from kava import (
    cli, dataset, gait, jsonld, manifestation, predicate, rdf, skos, turtle, utilization,
)

# span name -> (module, attribute) of each wrapped function
LAYERS = {
    "rdf.canonical_form": [(rdf, "canonical_form")],
    "turtle.parse": [(turtle, "parse_turtle")],
    "turtle.serialize": [(turtle, "serialize_turtle")],
    "jsonld.parse": [(jsonld, "parse_jsonld")],
    "jsonld.serialize": [(jsonld, "serialize_jsonld")],
    "skos.load_scheme": [(skos, "load_scheme")],
    "skos.validate_scheme": [(skos, "validate_scheme")],
    "manifestation.load": [(manifestation, "load_manifestations")],
    "manifestation.evaluate": [(manifestation, "evaluate_manifestation")],
    "predicate.parse": [(predicate, "parse_predicate")],
    "dataset.load_csv": [(dataset, "load_csv")],
    "dataset.load_series_csv": [(dataset, "load_series_csv")],
    "utilization.spec": [
        (utilization, "concept_tree_spec"),
        (utilization, "encoded_marks_spec"),
        (utilization, "aggregate_mark_spec"),
        (utilization, "threshold_region_spec"),
    ],
    "utilization.validate_fragment": [(utilization, "validate_fragment")],
    "gait.load_trials_dir": [(gait, "load_trials_dir")],
    "gait.compute_params": [(gait, "compute_params")],
    "cli.graph_findings": [(cli, "graph_findings")],
    "cli.infer_schema": [(cli, "_infer_schema")],
    "cli.write_atomic": [(cli, "write_atomic")],
}
COMMAND = "cli.command"


def _count_match(counters, args, result):
    counters["scanned"] = len(args[0])
    counters["hits"] = len(result)


def _count_evaluate(counters, args, result):
    counters["records_scanned"] = len(args[1].records)


def _count_load_csv(counters, args, result):
    counters["rows"] = len(result.records)


def _count_compute_params(counters, args, result):
    counters["trial"] = args[0].patient_id


COUNTERS = {
    "rdf.match": _count_match,
    "manifestation.evaluate": _count_evaluate,
    "dataset.load_csv": _count_load_csv,
    "gait.compute_params": _count_compute_params,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, command id, counters]
        self._stack = []
        self._command = None
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else None, self._command, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                record[5] = {}
                count(record[5], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        kava_modules = [
            m for n, m in list(sys.modules.items()) if n == "kava" or n.startswith("kava.")
        ]
        for name, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in kava_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, value))
                            setattr(mod, key, wrapper)
        original = rdf.Graph.match
        self._patched.append((rdf.Graph, "match", original))
        rdf.Graph.match = self._wrap("rdf.match", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def command(self, command_id, fn, *args):
        """Run fn(*args) as the root span of one command."""
        self._command = command_id
        try:
            return self._wrap(COMMAND, fn)(*args)
        finally:
            self._command = None

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, command, counters in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                     "command": command, "counters": counters}
                ) + "\n")

    def per_command(self):
        """command id -> per-layer {self_ms, calls, counters summed}. The
        root span's self time is reported as layer `cli.other`."""
        child_ns = Counter()
        for name, start, end, parent, command, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, command, counters) in enumerate(self.spans):
            layer = "cli.other" if name == COMMAND else name
            entry = out.setdefault(command, {}).setdefault(
                layer, {"self_ms": 0.0, "calls": 0, "counters": Counter(), "trials": set()}
            )
            entry["self_ms"] += (end - start - child_ns[i]) / 1e6
            entry["calls"] += 1
            for key, value in (counters or {}).items():
                if key == "trial":
                    entry["trials"].add(value)
                else:
                    entry["counters"][key] += value
        return out
