"""Command-line surface: validation, format conversion, knowledge editing,
manifestation evaluation, visualization export, and the gait pipeline.

Exit codes: 0 success, 1 validation findings, 2 input/parse error,
3 internal error; ``main`` alone maps exceptions to 2 and 3. JSON lines go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from . import jsonld, manifestation, skos, turtle, utilization
from .errors import (
    ForeignDialect,
    HeaderMismatch,
    KavaError,
    MalformedManifestation,
    UnknownVariable,
    read_text,
)
from .predicate import parse_predicate
from .rdf import DEFAULT_PREFIXES, Graph, Iri, expand
from .skos import Finding

if TYPE_CHECKING:
    from .dataset import Dataset, Schema

# The data and gait modules, and numpy with them, are imported by the
# commands that read data, so that graph-only commands start without them.

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _env_prefixes():
    prefixes = dict(DEFAULT_PREFIXES)
    path = os.environ.get("KAVA_PREFIXES")
    if path:
        for line in read_text(path).splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            label, ns = line.split("=", 1)
            prefixes[label.strip()] = ns.strip()
    return prefixes


def _emit(obj):
    print(json.dumps(obj, ensure_ascii=False))


def _diag(message):
    print(message, file=sys.stderr)


def read_graph(path: str) -> Graph:
    p = Path(path)
    text = read_text(p)
    if p.suffix == ".ttl":
        return turtle.parse_turtle(text, _env_prefixes())
    if p.suffix == ".jsonld":
        return jsonld.parse_jsonld(text, _env_prefixes())
    raise KavaError(f"unsupported knowledge file extension: {p.suffix!r}")


def serialize_graph(graph: Graph, suffix: str) -> str:
    if suffix == ".ttl":
        return turtle.serialize_turtle(graph)
    if suffix == ".jsonld":
        return jsonld.serialize_jsonld(graph)
    raise KavaError(f"unsupported output extension: {suffix!r}")


def write_atomic(path: str, text: str) -> None:
    """Write-temp-then-rename, as UTF-8; knowledge files are the system of
    record. A failure is an OSError naming ``path``, not the temporary file."""
    p = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(p.parent) or ".", prefix=p.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, str(p))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):  # left behind by a failure
            os.unlink(tmp)


def graph_findings(graph: Graph) -> list[Finding]:
    """Scheme and manifestation validation over one knowledge graph."""
    findings = []
    for scheme_id in skos.scheme_ids(graph):
        try:
            scheme = skos.load_scheme(graph, scheme_id)
        except KavaError as exc:
            findings.append(Finding("EmptyScheme", "warning", str(scheme_id), str(exc)))
            continue
        for f in skos.validate_scheme(scheme):
            # edges to concepts outside the document are normal for
            # pre-existing external vocabularies
            if f.kind == "DanglingEdge":
                f = Finding(f.kind, "warning", f.subject, f.detail)
            findings.append(f)
    for t in graph.match(p=turtle.RDF_TYPE, o=skos.SKOS_CONCEPT):
        if not graph.match(s=t.subject, p=skos.SKOS_IN_SCHEME):
            findings.append(
                Finding(
                    "NoScheme",
                    "warning",
                    str(t.subject),
                    "concept lacks skos:inScheme and is ignored by scheme loading",
                )
            )
    try:
        manifestation.load_manifestations(graph)
    except MalformedManifestation as exc:
        findings.append(
            Finding("MalformedManifestation", "error", str(exc.subject), exc.reason)
        )
    return findings


def _report(findings, path):
    worst = EXIT_OK
    for f in findings:
        _emit({"file": path, **f.as_dict()})
        if f.severity == "error":
            worst = EXIT_FINDINGS
    return worst


def cmd_validate(args) -> int:
    worst = EXIT_OK
    for path in args.paths:
        try:
            graph = read_graph(path)
        except (OSError, KavaError) as exc:
            _diag(f"{path}: {exc}")
            return EXIT_INPUT
        worst = max(worst, _report(graph_findings(graph), path))
    return worst


def cmd_convert(args) -> int:
    try:
        graph = read_graph(args.input)
    except (OSError, KavaError) as exc:
        _diag(f"{args.input}: {exc}")
        return EXIT_INPUT
    suffix = "." + args.to
    text = serialize_graph(graph, suffix)
    if args.output:
        write_atomic(args.output, text)
        _emit({"written": args.output, "triples": len(graph)})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _infer_schema(rows: list, id_var: str | None) -> Schema:
    """A NUMBER variable per column whose non-empty cells all pass
    ``float()``, tested once per distinct cell text, a STRING variable per
    other column; identified by ``id_var`` or the first column."""
    from .dataset import NUMBER, STRING, Schema

    if not rows:
        raise KavaError("empty CSV file")
    header = rows[0]
    if not header and not id_var:
        raise HeaderMismatch("the header row is blank")
    if len(set(header)) != len(header):
        raise HeaderMismatch(f"header {header} names a variable more than once")
    ident = id_var or header[0]
    if ident not in header:
        raise UnknownVariable(f"identifying variable {ident!r} is not in header {header}")

    def numeric(cells):
        texts = dict.fromkeys(cells)
        texts.pop("", None)
        texts.pop(None, None)  # a short row has no cell here
        if not texts:
            return False
        try:
            list(map(float, texts))
            return True
        except ValueError:
            return False

    columns = list(zip_longest(*rows[1:]))  # a short row has None for the cells it lacks
    variables = tuple(
        (name, NUMBER if pos < len(columns) and numeric(columns[pos]) else STRING)
        for pos, name in enumerate(header)
    )
    return Schema(variables=variables, identifying=(ident,))


def read_table(path: str, id_var: str | None) -> Dataset:
    """Load a data CSV, inferring its schema from the same parsed rows."""
    from .dataset import load_csv

    rows = list(csv.reader(io.StringIO(read_text(path))))
    return load_csv(rows, _infer_schema(rows, id_var))


def cmd_manifest(args) -> int:
    graph = read_graph(args.knowledge)
    dataset = read_table(args.data, args.id_var)
    concept = expand(args.concept, graph.prefixes)
    manifests = manifestation.load_manifestations(graph)
    matched = set()
    foreign = False
    for m in manifests:
        if m.concept != concept:
            continue
        try:
            matched |= manifestation.evaluate_manifestation(m, dataset)
        except ForeignDialect as exc:
            foreign = True
            _diag(f"warning: manifestation {m.anchor} uses foreign dialect "
                  f"{exc.dialect!r}; not evaluated")
    _emit(sorted(matched, key=lambda x: (str(type(x)), x)))
    return EXIT_FINDINGS if foreign else EXIT_OK


def _parse_bindings(pairs):
    bindings = []
    for pair in pairs:
        if "=" not in pair:
            raise KavaError(f"bad --prototype binding {pair!r}; expected var=value")
        var, raw = pair.split("=", 1)
        bindings.append((var, _number_or_text(raw)))
    return tuple(sorted(bindings))


def _number_or_text(raw):
    if raw.lstrip("-").isdigit():
        try:
            return int(raw)
        except ValueError:  # "--5" and "²" are digits to str.isdigit only
            pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _write_validated(graph, path) -> int:
    findings = graph_findings(graph)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        _report(errors, path)
        _diag("refusing to write an invalid knowledge store")
        return EXIT_FINDINGS
    write_atomic(path, serialize_graph(graph, Path(path).suffix))
    return EXIT_OK


def cmd_annotate(args) -> int:
    graph = read_graph(args.knowledge)
    concept = expand(args.concept, graph.prefixes)
    bindings = _parse_bindings(args.prototype)
    if not args.creator:
        _diag("warning: no --creator given; provenance omitted")
    m = manifestation.create_manifestation(
        concept,
        manifestation.DirectMapping(bindings=bindings),
        creator_name=args.creator,
        date=args.date,
    )
    existing = manifestation.load_manifestations(graph)
    for prior in existing:
        if (
            prior.concept == m.concept
            and prior.kind == m.kind
            and prior.provenance == m.provenance
        ):
            _emit({"written": args.knowledge, "changed": False})
            return EXIT_OK
    graph = manifestation.add_manifestation_to_graph(graph, m)
    code = _write_validated(graph, args.knowledge)
    if code == EXIT_OK:
        _emit({"written": args.knowledge, "changed": True})
    return code


def _single_scheme(graph, scheme_arg):
    if scheme_arg:
        return expand(scheme_arg, graph.prefixes)
    ids = skos.scheme_ids(graph)
    if len(ids) != 1:
        raise KavaError(
            f"expected exactly one concept scheme, found {len(ids)}; use --scheme"
        )
    return ids[0]


def cmd_export_vis(args) -> int:
    graph = read_graph(args.knowledge)
    manifests = manifestation.load_manifestations(graph)
    if args.pattern == "tree":
        scheme = skos.load_scheme(graph, _single_scheme(graph, args.scheme))
        doc = utilization.concept_tree_spec(scheme, None, prefixes=graph.prefixes)
    elif args.pattern == "threshold":
        selected = _select_manifestation(manifests, graph, args.concept, indirect_only=True)
        axis = args.axis_var
        if axis is None and isinstance(selected.kind, manifestation.IndirectVariableMapping):
            axis = selected.kind.variable_name()
        if axis is None:
            raise KavaError("--axis-var is required for query mappings")
        doc = utilization.threshold_region_spec(selected.kind, axis)
    else:
        if not args.data:
            raise KavaError(f"--pattern {args.pattern} requires a data CSV")
        dataset = read_table(args.data, args.id_var)
        if args.pattern == "marks":
            doc = utilization.encoded_marks_spec(
                dataset, manifests, channel=args.channel, prefixes=graph.prefixes
            )
        else:  # aggregate
            selected = _select_manifestation(manifests, graph, args.concept)
            doc = utilization.aggregate_mark_spec(
                dataset, selected, time_variable=args.time_var
            )
    text = utilization.fragment_text(doc) + "\n"
    if args.output:
        write_atomic(args.output, text)
        _emit({"written": args.output, "kind": doc["kind"]})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _select_manifestation(manifests, graph, concept_arg, indirect_only=False):
    pool = manifests
    if concept_arg:
        concept = expand(concept_arg, graph.prefixes)
        pool = [m for m in pool if m.concept == concept]
    if indirect_only:
        pool = [
            m
            for m in pool
            if not isinstance(m.kind, manifestation.DirectMapping)
        ]
    if not pool:
        raise KavaError("no matching manifestation found in the knowledge file")
    return pool[0]


def _gait_models(graph, trials, filter_text):
    from . import gait as gait_mod

    population_filter = parse_predicate(filter_text) if filter_text else None
    models = []
    for t in graph.match(p=turtle.RDF_TYPE, o=skos.SKOS_CONCEPT):
        concept = t.subject
        if not gait_mod.prototype_ids(graph, concept):
            continue
        models.append(
            gait_mod.category_model_from_graph(
                graph, concept, trials, population_filter
            )
        )
    models.sort(key=lambda m: str(m.concept))
    return models


def _patient_trials(args):
    """The trials directory, its metadata.csv read and ``--patient`` in it."""
    from . import gait as gait_mod

    trials = gait_mod.TrialSet.read(args.trials)
    if args.patient not in trials.metadata:
        raise KavaError(f"patient {args.patient!r} not found in trials dir")
    return trials


def _score_patient(args):
    """The query patient's parameters and the category models of
    ``gait analyze`` and ``gait table``. Force files are read only for the
    patient and for the prototypes that pass ``--filter``."""
    graph = read_graph(args.knowledge)
    trials = _patient_trials(args)
    params = trials.params(args.patient)
    return params, _gait_models(graph, trials, args.filter)


def cmd_gait_analyze(args) -> int:
    from . import gait as gait_mod

    params, models = _score_patient(args)
    for model in models:
        result = gait_mod.match_category(params, model)
        _emit(
            {
                "concept": str(model.concept),
                "score": result.score,
                "perParameter": result.per_parameter,
            }
        )
    return EXIT_OK


def cmd_gait_table(args) -> int:
    from . import gait as gait_mod

    params, models = _score_patient(args)
    for row in gait_mod.knowledge_table(models, params):
        _emit(row)
    return EXIT_OK


def cmd_gait_add_prototype(args) -> int:
    from . import gait as gait_mod

    graph = read_graph(args.knowledge)
    trial = _patient_trials(args).trial(args.patient)
    concept = expand(args.concept, graph.prefixes)
    graph = gait_mod.add_prototype(graph, concept, trial, creator=args.creator, date=args.date)
    code = _write_validated(graph, args.knowledge)
    if code == EXIT_OK:
        _emit({"written": args.knowledge, "prototype": args.patient})
    return code


def cmd_gait_set_range(args) -> int:
    from . import gait as gait_mod

    graph = read_graph(args.knowledge)
    concept = expand(args.concept, graph.prefixes)
    if args.param not in gait_mod.PARAMETER_NAMES:
        raise KavaError(f"unknown parameter {args.param!r}")
    if args.min > args.max:
        raise KavaError(f"inverted range: {args.min} > {args.max}")
    m = manifestation.create_manifestation(
        concept,
        manifestation.IndirectVariableMapping(
            variable=args.param, min_value=args.min, max_value=args.max
        ),
        creator_name=args.creator,
        date=args.date,
    )
    graph = manifestation.add_manifestation_to_graph(graph, m)
    code = _write_validated(graph, args.knowledge)
    if code == EXIT_OK:
        _emit({"written": args.knowledge, "param": args.param})
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kava",
        description="Explicit domain knowledge tooling: concepts, "
        "manifestations, and visualization fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate knowledge files")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between Turtle and JSON-LD")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["ttl", "jsonld"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("manifest", help="evaluate a concept's manifestations")
    p.add_argument("knowledge")
    p.add_argument("data")
    p.add_argument("--concept", required=True)
    p.add_argument("--id-var")
    p.set_defaults(func=cmd_manifest)

    p = sub.add_parser("annotate", help="record a direct-mapping prototype")
    p.add_argument("knowledge")
    p.add_argument("--concept", required=True)
    p.add_argument("--prototype", nargs="+", required=True, metavar="VAR=VALUE")
    p.add_argument("--creator")
    p.add_argument("--date")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("export-vis", help="emit a visualization spec fragment")
    p.add_argument("knowledge")
    p.add_argument("data", nargs="?")
    p.add_argument(
        "--pattern", required=True, choices=["tree", "marks", "aggregate", "threshold"]
    )
    p.add_argument("--scheme")
    p.add_argument("--concept")
    p.add_argument("--channel", default="color")
    p.add_argument("--time-var", default="t")
    p.add_argument("--axis-var")
    p.add_argument("--id-var")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_vis)

    p = sub.add_parser("gait", help="gait case-study pipeline")
    gsub = p.add_subparsers(dest="gait_command", required=True)
    for name, func in (("analyze", cmd_gait_analyze), ("table", cmd_gait_table)):
        g = gsub.add_parser(name)
        g.add_argument("--knowledge", required=True)
        g.add_argument("--trials", required=True)
        g.add_argument("--patient", required=True)
        g.add_argument("--filter")
        g.set_defaults(func=func)
    g = gsub.add_parser("add-prototype")
    g.add_argument("--knowledge", required=True)
    g.add_argument("--trials", required=True)
    g.add_argument("--patient", required=True)
    g.add_argument("--concept", required=True)
    g.add_argument("--creator")
    g.add_argument("--date")
    g.set_defaults(func=cmd_gait_add_prototype)
    g = gsub.add_parser("set-range")
    g.add_argument("--knowledge", required=True)
    g.add_argument("--concept", required=True)
    g.add_argument("--param", required=True)
    g.add_argument("--min", type=float, required=True)
    g.add_argument("--max", type=float, required=True)
    g.add_argument("--creator")
    g.add_argument("--date")
    g.set_defaults(func=cmd_gait_set_range)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KavaError) as exc:  # input the user can fix
        _diag(str(exc))
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        _diag(f"internal error: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
