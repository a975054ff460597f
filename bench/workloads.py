"""The three workloads: seeded input generators that write through kava's
own writers, the commands each round replays, and the checks that compare
every output with an oracle computed from the generator's own plan.

A plan is a JSON-serializable dict. The parent process makes it while it
writes the inputs; the worker process reads it back and checks against it,
so no check compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

from kava import gait as kgait
from kava.dataset import NUMBER, STRING, Dataset, Record, Schema, TimeSeries, write_csv
from kava.jsonld import parse_jsonld, serialize_jsonld
from kava.manifestation import (
    DirectMapping,
    IndirectQueryMapping,
    IndirectVariableMapping,
    create_manifestation,
    manifestations_to_graph,
)
from kava.rdf import DEFAULT_PREFIXES, BlankNode, Graph, Iri, Literal, Triple
from kava.turtle import parse_turtle, serialize_turtle

EX = "http://example.org/bench/"
EXTERNAL = "http://example.org/external/"
PREFIXES = {**DEFAULT_PREFIXES, "ex": EX}
RDF_TYPE = DEFAULT_PREFIXES["rdf"] + "type"
SKOS = DEFAULT_PREFIXES["skos"]
KAVA = DEFAULT_PREFIXES["kava"]
DCT = DEFAULT_PREFIXES["dct"]
FOAF = DEFAULT_PREFIXES["foaf"]


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Graph helpers, independent of kava's canonical_form and match


def _term(term):
    if isinstance(term, Iri):
        return ("I", term.value)
    if isinstance(term, BlankNode):
        return ("B", term.label)
    return ("L", term.lexical, term.datatype)


def plain_triples(graph):
    return [(_term(t.subject), t.predicate.value, _term(t.object)) for t in graph]


def tree_canon(triples) -> list[str]:
    """Label-free form of a graph whose blank nodes form trees: each blank
    node is replaced by the sorted list of its (predicate, child) pairs."""
    out_edges: dict = {}
    nested = set()
    for s, p, o in triples:
        out_edges.setdefault(s, []).append((p, o))
        if o[0] == "B":
            nested.add(o)

    def canon(term):
        if term[0] != "B":
            return repr(term)
        inner = sorted(f"{p} {canon(o)}" for p, o in out_edges.get(term, ()))
        return "[" + ", ".join(inner) + "]"

    return sorted(
        f"{canon(s)} {p} {canon(o)}" for s, p, o in triples if s not in nested
    )


def _index(triples):
    by_subject: dict = {}
    for s, p, o in triples:
        by_subject.setdefault(s, []).append((p, o))
    return by_subject


def _objects(index, subject, predicate):
    return [o for p, o in index.get(subject, ()) if p == predicate]


def _manifest_nodes(triples, concept_iri=None):
    return [
        o
        for s, p, o in triples
        if p == KAVA + "manifest" and (concept_iri is None or s == ("I", concept_iri))
    ]


def _direct_bindings(index, node):
    found = set()
    for proto in _objects(index, node, KAVA + "isPrototype"):
        var = _objects(index, proto, KAVA + "variable")
        val = _objects(index, proto, KAVA + "value")
        if len(var) == 1 and len(val) == 1:
            found.add((var[0][1], val[0][1]))
    return found


def _check_added_manifestation(path, before, concept_iri, bindings, creator, date):
    """The edited store holds exactly one more manifestation, and the
    concept now has one carrying exactly the new bindings and provenance.
    Returns the store's triples."""
    triples = plain_triples(parse_turtle(Path(path).read_text()))
    _require(
        len(_manifest_nodes(triples)) == before + 1,
        f"{path}: expected {before + 1} manifestations",
    )
    index = _index(triples)
    want = {(var, str(value)) for var, value in bindings}
    for node in _manifest_nodes(triples, concept_iri):
        if _direct_bindings(index, node) != want:
            continue
        people = _objects(index, node, DCT + "creator")
        names = [n[1] for person in people for n in _objects(index, person, FOAF + "name")]
        dates = [d[1] for d in _objects(index, node, DCT + "dateSubmitted")]
        if names == [creator] and dates == [date]:
            return triples
    raise CheckFailed(f"{path}: new manifestation {sorted(want)} not found on {concept_iri}")


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _scheme_triples(concepts, scheme, labels):
    triples = []
    for c in concepts:
        triples.append(Triple(c, Iri(RDF_TYPE), Iri(SKOS + "Concept")))
        triples.append(Triple(c, Iri(SKOS + "prefLabel"), Literal(labels[c])))
        triples.append(Triple(c, Iri(SKOS + "inScheme"), scheme))
    return triples


def _pname(iri: Iri) -> str:
    for label in ("ex", "gps"):
        ns = PREFIXES[label]
        if iri.value.startswith(ns):
            return f"{label}:{iri.value[len(ns):]}"
    raise ValueError(iri)


class Workload:
    """One round replays `ops` in order. Subclasses build argv for an op
    (doing any untimed preparation, such as restoring the store first) and
    check its outcome."""

    ops = ("read", "render", "write")
    trace_ops = ops

    def __init__(self, work: Path, plan: dict):
        self.work = work
        self.plan = plan

    def path(self, name):
        return str(self.work / name)

    def restore(self):
        shutil.copyfile(self.path(self.plan["store"]), self.path("edited.ttl"))

    def check_edited_store_validates(self, run_main):
        code, out, _ = run_main(["validate", self.path("edited.ttl")])
        _require(code == 0, f"validate of the edited store exited {code}")
        got = sorted(
            (f["kind"], f["severity"], f["subject"], f["detail"]) for f in _json_lines(out)
        )
        want = sorted(tuple(f) for f in self.plan.get("findings", []))
        _require(got == want, f"edited store: findings {got} != planted {want}")


# --------------------------------------------------------------------------
# curation: a SKOS scheme plus a few hundred manifestations


def _decimal_text(rng, lo, hi, places):
    """A decimal lexical in canonical form: no trailing zero after the point."""
    while True:
        text = f"{rng.uniform(lo, hi):.{places}f}"
        if not text.endswith("0"):
            return text


def generate_curation(root: Path, seed: int, scale: float) -> dict:
    m_count = max(8, round(100 * scale))
    rng = random.Random(f"curation/{seed}/{m_count}")
    n_concepts = max(6, m_count // 3)
    nums = sorted(rng.sample(range(10000), n_concepts))
    concepts = [Iri(EX + f"c{n:04d}") for n in nums]
    scheme = Iri(EX + "scheme")
    labels = {c: f"Concept {n}" for c, n in zip(concepts, nums)}
    triples = _scheme_triples(concepts, scheme, labels)

    # The shape (edge and mapping counts) is fixed for a size; the seed
    # picks endpoints and values, so every seed costs the same to process.
    edges = set()  # (subject, attribute, target)
    for i in range(1, n_concepts):
        if i % 5:
            edges.add((concepts[i], "broader", concepts[rng.randrange(i)]))
    related = set()
    while len(related) < 2 * (n_concepts // 5):
        a, b = rng.sample(concepts, 2)
        if (a, b) not in related:
            related |= {(a, b), (b, a)}
    planted = 3
    while planted:
        a, b = rng.sample(concepts, 2)
        if (a, b) not in related and (b, a) not in related:
            related.add((a, b))
            planted -= 1
    edges |= {(a, "related", b) for a, b in related}
    for k, attr in enumerate(("broader", "narrower", "related")):
        edges.add((rng.choice(concepts), attr, Iri(EXTERNAL + f"x{k}")))
    for a, attr, b in sorted(edges, key=str):
        triples.append(Triple(a, Iri(SKOS + attr), b))

    # Planted warnings: unreciprocated related edges and edges to concepts
    # outside the document. validate reports both as warnings, exit code 0.
    inside = set(concepts)
    findings = []
    for a, attr, b in edges:
        if b not in inside:
            findings.append(
                ["DanglingEdge", "warning", str(a), f"{attr} edge to unknown concept {b}"]
            )
        elif attr == "related" and (b, a) not in related:
            findings.append(
                ["RelatedAsymmetry", "warning", str(a), f"related edge to {b} is not reciprocated"]
            )

    lexicals = []

    def number(kind):
        if kind == "int":
            value = rng.randrange(0, 400)
            lexicals.append(str(value))
            return value
        places = rng.choice((1, 2, 2, 3, 9))
        text = _decimal_text(rng, 0.5, 900.0, places)
        lexicals.append(text)
        return float(text)

    manifests = []
    for i in range(m_count):
        concept = rng.choice(concepts)
        slot = i % 20  # 40% direct, 35% variable, 25% query mappings
        if slot < 8:
            bindings = [("patientId", 100000 + 13 * i), ("visit", number("int"))]
            lexicals.append(str(100000 + 13 * i))
            if slot % 2:
                bindings.append(("score", number("dec")))
            kind = DirectMapping(bindings=tuple(sorted(bindings)))
        elif slot < 15:
            lo = number(rng.choice(("int", "dec")))
            hi = None
            if slot < 13:
                hi = number("dec")
                lo, hi = min(lo, hi), max(lo, hi)
            variable = rng.choice(
                ("glucose", "bmi", "age", Iri(DEFAULT_PREFIXES["health"] + "bloodSugar"))
            )
            kind = IndirectVariableMapping(variable=variable, min_value=lo, max_value=hi)
        else:
            clauses = [
                f"[age] > {rng.randrange(20, 80)}",
                f"[bmi] >= {_decimal_text(rng, 18, 40, 1)}",
                f'[sex] = "{rng.choice("FM")}"',
            ]
            rng.shuffle(clauses)
            kind = IndirectQueryMapping(query_text=" AND ".join(clauses[:2]))
        manifests.append(
            create_manifestation(
                concept,
                kind,
                creator_name=f"Curator {rng.randrange(20):02d}",
                date=f"2019-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            )
        )
    graph = Graph(triples + list(manifestations_to_graph(manifests, PREFIXES)), PREFIXES)

    root.mkdir(parents=True, exist_ok=True)
    (root / "store.ttl").write_text(serialize_turtle(graph))
    (root / "store.jsonld").write_text(serialize_jsonld(graph))
    annotate = [
        {
            "concept": _pname(rng.choice(concepts)),
            "bindings": [["patientId", 900000 + r], ["visit", rng.randrange(1, 13)]],
            "date": f"2026-01-{1 + r % 28:02d}",
        }
        for r in range(32)
    ]
    return {
        "store": "store.ttl",
        "size": m_count,
        "triples": len(graph),
        "canon": tree_canon(plain_triples(graph)),
        "lexicals": sorted(set(lexicals)),
        "findings": findings,
        "manifests": m_count,
        "annotate": annotate,
    }


# A numeric token standing alone, as Turtle writes a bare numeric literal.
_BARE_NUMBER = re.compile(r"(?<![\w.:\"-])-?\d+(?:\.\d+)?(?![\w.:\"])")


class Curation(Workload):
    name = "curation"
    trace_ops = ("read", "render", "write", "aux")
    creator = "Bench Annotator"

    def argv(self, op, r):
        if op == "read":
            return ["validate", self.path("store.ttl")]
        if op == "render":
            return ["convert", self.path("store.jsonld"), "--to", "ttl", "-o", self.path("out.ttl")]
        if op == "aux":
            return ["convert", self.path("store.ttl"), "--to", "jsonld",
                    "-o", self.path("out.jsonld")]
        self.restore()
        a = self.plan["annotate"][r % len(self.plan["annotate"])]
        return [
            "annotate", self.path("edited.ttl"), "--concept", a["concept"],
            "--prototype", *(f"{var}={val}" for var, val in a["bindings"]),
            "--creator", self.creator, "--date", a["date"],
        ]

    def check(self, op, r, code, out, err):
        _require(code == 0, f"{op}: exit code {code}: {err.strip()[:300]}")
        plan = self.plan
        if op == "read":
            got = sorted(
                (f["kind"], f["severity"], f["subject"], f["detail"]) for f in _json_lines(out)
            )
            want = sorted(tuple(f) for f in plan["findings"])
            _require(got == want, f"validate reported {got}, planted {want}")
        elif op == "render":
            _require(
                _json_lines(out) == [{"written": self.path("out.ttl"), "triples": plan["triples"]}],
                f"convert: unexpected report {out.strip()[:200]}",
            )
            text = Path(self.path("out.ttl")).read_text()
            bare = set(_BARE_NUMBER.findall(text))
            missing = [lex for lex in plan["lexicals"] if lex not in bare]
            _require(not missing, f"convert: numeric lexicals not verbatim: {missing[:5]}")
            triples = plain_triples(parse_turtle(text))
            _require(len(triples) == plan["triples"], "convert: triple count differs")
            _require(tree_canon(triples) == plan["canon"], "convert: not isomorphic to the source")
        elif op == "aux":
            triples = plain_triples(parse_jsonld(Path(self.path("out.jsonld")).read_text()))
            _require(tree_canon(triples) == plan["canon"], "convert: JSON-LD not isomorphic")
        else:
            a = plan["annotate"][r % len(plan["annotate"])]
            _require(
                _json_lines(out) == [{"written": self.path("edited.ttl"), "changed": True}],
                f"annotate: unexpected report {out.strip()[:200]}",
            )
            concept = EX + a["concept"].split(":", 1)[1]
            _check_added_manifestation(
                self.path("edited.ttl"), plan["manifests"], concept,
                a["bindings"], self.creator, a["date"],
            )


# --------------------------------------------------------------------------
# records: a small store against a CSV of thousands of rows

RECORD_COLUMNS = ("id", "age", "sex", "glucose", "bmi")


def _matches(row, mapping):
    """Brute-force evaluation of one generated mapping on one CSV row."""
    rec = dict(zip(RECORD_COLUMNS, row))
    kind = mapping["kind"]
    if kind == "direct":
        return all(rec[var] == value for var, value in mapping["bindings"])
    if kind == "variable":
        v = rec[mapping["variable"]]
        if v is None or isinstance(v, str):
            return False
        lo, hi = mapping["min"], mapping["max"]
        return (lo is None or v >= lo) and (hi is None or v <= hi)
    for conjunction in mapping["dnf"]:
        ok = True
        for var, op, const in conjunction:
            v = rec[var]
            if v is None or isinstance(v, str) != isinstance(const, str):
                ok = False
            elif op == ">":
                ok = v > const
            elif op == ">=":
                ok = v >= const
            elif op == "<":
                ok = v < const
            elif op == "<=":
                ok = v <= const
            elif op == "=":
                ok = v == const
            else:
                ok = v != const
            if not ok:
                break
        if ok:
            return True
    return False


def _clause_text(var, op, const):
    return f'[{var}] {op} "{const}"' if isinstance(const, str) else f"[{var}] {op} {const}"


def generate_records(root: Path, seed: int, scale: float) -> dict:
    n_rows = max(20, round(4000 * scale))
    rng = random.Random(f"records/{seed}/{n_rows}")
    ids = rng.sample(range(100000, 100000 + 10 * n_rows), n_rows)
    rows = []
    for rid in ids:
        glucose = None if rng.random() < 0.03 else round(rng.uniform(60, 250), 1)
        bmi = None if rng.random() < 0.02 else round(rng.uniform(16, 45), 1)
        rows.append([rid, rng.randrange(18, 91), rng.choice("FM"), glucose, bmi])
    schema = Schema(
        variables=(
            ("id", NUMBER), ("age", NUMBER), ("sex", STRING), ("glucose", NUMBER), ("bmi", NUMBER),
        ),
        identifying=("id",),
    )
    dataset = Dataset(schema, [Record(tuple(zip(RECORD_COLUMNS, row))) for row in rows])

    nums = sorted(rng.sample(range(100), 10))
    concepts = [Iri(EX + f"k{n:02d}") for n in nums]
    mappings = []
    manifests = []

    def numeric(var):
        if var == "age":
            return rng.randrange(20, 85)
        lo, hi = (70, 240) if var == "glucose" else (17, 44)
        return round(rng.uniform(lo, hi), 1)

    for ci, concept in enumerate(concepts):
        # every concept gets one mapping of each kind and the mapping shapes
        # depend only on the concept's position, so every concept (and every
        # seed) costs the same to evaluate
        row = rng.choice(rows)
        bindings = [["id", row[0]]] + ([["sex", row[2]]] if ci % 2 else [])
        var = rng.choice(("age", "glucose", "bmi"))
        lo = numeric(var)
        hi = None
        if ci % 4 != 3:
            hi = lo + (rng.randrange(3, 12) if var == "age" else round(rng.uniform(3, 30), 1))
        hi = round(hi, 1) if isinstance(hi, float) else hi
        dnf = []
        for _ in range(1 + ci % 2):
            conj = []
            for _ in range(1 + (ci // 2) % 2):
                cvar = rng.choice(("age", "glucose", "bmi", "sex"))
                if cvar == "sex":
                    conj.append([cvar, rng.choice(("=", "!=")), rng.choice("FM")])
                else:
                    conj.append([cvar, rng.choice((">", ">=", "<", "<=")), numeric(cvar)])
            dnf.append(conj)
        text = " OR ".join(" AND ".join(_clause_text(*c) for c in conj) for conj in dnf)
        pname = _pname(concept)
        kinds = [
            ({"kind": "direct", "bindings": bindings},
             DirectMapping(bindings=tuple(sorted(tuple(b) for b in bindings)))),
            ({"kind": "variable", "variable": var, "min": lo, "max": hi},
             IndirectVariableMapping(variable=var, min_value=lo, max_value=hi)),
            ({"kind": "query", "dnf": dnf}, IndirectQueryMapping(query_text=text)),
        ]
        for spec, kind in kinds:
            mappings.append({"concept": pname, **spec})
            manifests.append(
                create_manifestation(
                    concept, kind, creator_name=f"Curator {rng.randrange(20):02d}",
                    date=f"2019-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
                )
            )
    labels = {c: f"Kind {n}" for c, n in zip(concepts, nums)}
    graph = Graph(
        _scheme_triples(concepts, Iri(EX + "scheme"), labels)
        + list(manifestations_to_graph(manifests, PREFIXES)),
        PREFIXES,
    )
    root.mkdir(parents=True, exist_ok=True)
    (root / "store.ttl").write_text(serialize_turtle(graph))
    (root / "data.csv").write_text(write_csv(dataset))
    annotate = []
    for r in range(32):
        row = rng.choice(rows)
        annotate.append({"concept": _pname(rng.choice(concepts)), "id": row[0], "sex": row[2]})
    return {
        "store": "store.ttl",
        "size": n_rows,
        "rows": rows,
        "concepts": [_pname(c) for c in concepts],
        "mappings": mappings,
        "manifests": len(manifests),
        "annotate": annotate,
        "read_order": [_pname(c) for c in rng.sample(concepts, len(concepts))],
    }


class Records(Workload):
    name = "records"
    creator = "Bench Annotator"

    def __init__(self, work, plan):
        super().__init__(work, plan)
        self.matched = {c: set() for c in plan["concepts"]}  # concept -> ids
        for row in plan["rows"]:
            for m in plan["mappings"]:
                if _matches(row, m):
                    self.matched[m["concept"]].add(row[0])

    def argv(self, op, r):
        if op == "read":
            concept = self.plan["read_order"][r % len(self.plan["read_order"])]
            return ["manifest", self.path("store.ttl"), self.path("data.csv"), "--concept", concept]
        if op == "render":
            return ["export-vis", self.path("store.ttl"), self.path("data.csv"),
                    "--pattern", "marks", "-o", self.path("marks.json")]
        self.restore()
        a = self.plan["annotate"][r % len(self.plan["annotate"])]
        return ["annotate", self.path("edited.ttl"), "--concept", a["concept"],
                "--prototype", f"id={a['id']}", f"sex={a['sex']}",
                "--creator", self.creator, "--date", "2026-02-03"]

    def check(self, op, r, code, out, err):
        _require(code == 0, f"{op}: exit code {code}: {err.strip()[:300]}")
        if op == "read":
            concept = self.plan["read_order"][r % len(self.plan["read_order"])]
            got = _json_lines(out)
            _require(got == [sorted(self.matched[concept])], f"manifest {concept}: wrong records")
        elif op == "render":
            doc = json.loads(Path(self.path("marks.json")).read_text())
            values = doc["data"]["values"]
            _require(len(values) == len(self.plan["rows"]), "marks: row count differs")
            multi = set()
            listed = {d["record"]: set(d["concepts"]) for d in doc["diagnostics"]}
            for row, value in zip(self.plan["rows"], values):
                _require(value["id"] == row[0], f"marks: record order differs at {row[0]}")
                hits = {c for c, ids in self.matched.items() if row[0] in ids}
                if hits:
                    _require(value["concept"] in hits, f"marks: {row[0]} got {value['concept']}")
                else:
                    _require(value["concept"] == "none", f"marks: {row[0]} should be none")
                if len(hits) > 1:
                    multi.add(str(row[0]))
                    _require(listed.get(str(row[0])) == hits, f"marks: diagnostics miss {row[0]}")
            _require(set(listed) == multi and len(listed) == len(doc["diagnostics"]),
                     "marks: extra diagnostics")
        else:
            a = self.plan["annotate"][r % len(self.plan["annotate"])]
            _require(
                _json_lines(out) == [{"written": self.path("edited.ttl"), "changed": True}],
                f"annotate: unexpected report {out.strip()[:200]}",
            )
            _check_added_manifestation(
                self.path("edited.ttl"), self.plan["manifests"], EX + a["concept"].split(":", 1)[1],
                [("id", a["id"]), ("sex", a["sex"])], self.creator, "2026-02-03",
            )


# --------------------------------------------------------------------------
# gait: square-wave force recordings, C concepts x P prototypes

DT = 0.01  # s per sample; every generated time is a whole number of samples
PROTOTYPES = 6
STRIDES = 8


def gait_primaries(k: int, j: int) -> dict:
    """Analytic trial shape, in samples (forces in N), of lattice category
    k with jitter j in {-1, 0, 1}. Every derived parameter is monotone in j,
    so a category's range is spanned by its j=-1 and j=+1 prototypes, and
    the lattice keeps each category's centre (j=0) clear of every other
    category's range bounds (checked by gait_expectations)."""
    return {
        "stance_l": 56 + 10 * k + j,
        "stance_r": 67 + 12 * k + 2 * j,
        "stride": 96 + 20 * k + 6 * j,  # even, so right onsets fall on samples
        "to_peak": 10 + 5 * k + j,
        "peak_l": 880 + 60 * k + 10 * j,
        "peak_r": 900 + 60 * k + 10 * j,
    }


def gait_params(shape: dict) -> dict:
    """The 16 parameters kava.gait should compute for a shape, derived by
    hand from the square wave (body mass unknown, so peaks stay in N)."""
    sl, sr, t = shape["stance_l"] * DT, shape["stance_r"] * DT, shape["stride"] * DT
    half = t / 2
    return {
        "step_time_left": half,
        "step_time_right": half,
        "stance_time_left": sl,
        "stance_time_right": sr,
        "swing_time_left": t - sl,
        "swing_time_right": t - sr,
        "stride_time_left": t,
        "stride_time_right": t,
        "double_support_left": sr - half,
        "double_support_right": sl - half,
        "peak_force_left": float(shape["peak_l"]),
        "peak_force_right": float(shape["peak_r"]),
        "time_to_peak_left": shape["to_peak"] * DT,
        "time_to_peak_right": shape["to_peak"] * DT,
        "cadence": 60.0 / half,
        "support_asymmetry": abs(sl - sr) / ((sl + sr) / 2),
    }


def _series(onsets, stance, to_peak, peak, total, label):
    level = [0.0] * total
    for on in onsets:
        for i in range(on, on + stance):
            level[i] = 600.0
        level[on + to_peak] = float(peak)
    return TimeSeries(tuple((round(i * DT, 2), level[i]) for i in range(total)), label)


def square_trial(pid: str, shape: dict, age: float) -> kgait.GaitTrial:
    t, half = shape["stride"], shape["stride"] // 2
    total = STRIDES * t + half + shape["stance_r"] + 10
    left = [k * t for k in range(STRIDES)]
    right = [k * t + half for k in range(STRIDES)]
    return kgait.GaitTrial(
        patient_id=pid,
        fv_left=_series(
            left, shape["stance_l"], shape["to_peak"], shape["peak_l"], total, "Fv left"
        ),
        fv_right=_series(
            right, shape["stance_r"], shape["to_peak"], shape["peak_r"], total, "Fv right"
        ),
        age=age,
    )


def gait_expectations(plan: dict) -> dict:
    """Per query patient: per concept, the expected score and statuses from
    the analytic parameters. Raises if a value sits within a quarter of a
    range's half-width of one of its bounds, where the sampling step could
    flip it."""
    names = kgait.PARAMETER_NAMES
    ranges = {}
    for concept, protos in plan["prototypes"].items():
        values = [gait_params(gait_primaries(k, j)) for _, k, j in protos]
        ranges[concept] = {n: (min(v[n] for v in values), max(v[n] for v in values)) for n in names}
    out = {}
    for pid, k in plan["queries"].items():
        params = gait_params(gait_primaries(k, 0))
        per_concept = {}
        for concept, rng_ in ranges.items():
            statuses = {}
            for n in names:
                lo, hi = rng_[n]
                margin = max(1e-9, (hi - lo) / 8)
                v = params[n]
                if min(abs(v - lo), abs(v - hi)) < margin:
                    raise RuntimeError(f"gait lattice too tight: {pid} {concept} {n}")
                statuses[n] = "below" if v < lo else "above" if v > hi else "inside"
            inside = sum(s == "inside" for s in statuses.values())
            per_concept[concept] = {"score": inside / len(names), "statuses": statuses}
        out[pid] = {"params": params, "concepts": per_concept}
    return {"ranges": ranges, "queries": out}


def generate_gait(root: Path, seed: int, scale: float) -> dict:
    n_concepts = max(1, round(4 * scale))
    rng = random.Random(f"gait/{seed}/{n_concepts}")
    lattice = rng.sample(range(n_concepts), n_concepts)
    nums = rng.sample(range(100), n_concepts)
    concepts = [Iri(DEFAULT_PREFIXES["gps"] + f"category{n:02d}") for n in nums]
    pids = iter(rng.sample(range(1000, 9999), n_concepts * (PROTOTYPES + 1)))
    trials, manifests = [], []
    prototypes, queries, add = {}, {}, []
    for concept, k in zip(concepts, lattice):
        jitters = [-1, 1] + [rng.choice((-1, 0, 1)) for _ in range(PROTOTYPES - 2)]
        rng.shuffle(jitters)
        protos = []
        for j in jitters:
            pid = str(next(pids))
            trials.append(square_trial(pid, gait_primaries(k, j), rng.randrange(20, 80)))
            protos.append([pid, k, j])
            manifests.append(
                create_manifestation(
                    concept, DirectMapping(bindings=(("patientId", int(pid)),)),
                    creator_name="Gait Lab", date=f"2019-03-{rng.randrange(1, 29):02d}",
                )
            )
        prototypes[str(concept)] = protos
        qid = str(next(pids))
        trials.append(square_trial(qid, gait_primaries(k, 0), rng.randrange(20, 80)))
        queries[qid] = k
        add.append({"patient": qid, "concept": _pname(concept), "iri": concept.value})
    graph = Graph(
        _scheme_triples(concepts, Iri(DEFAULT_PREFIXES["gps"] + "benchScheme"),
                        {c: f"category {n}" for c, n in zip(concepts, nums)})
        + list(manifestations_to_graph(manifests, PREFIXES)),
        PREFIXES,
    )
    root.mkdir(parents=True, exist_ok=True)
    (root / "store.ttl").write_text(serialize_turtle(graph))
    kgait.write_trials_dir(root / "trials", trials)
    plan = {
        "store": "store.ttl",
        "size": n_concepts,
        "prototypes": prototypes,
        "queries": queries,
        "query_order": [a["patient"] for a in add],
        "add": add,
        "manifests": len(manifests),
    }
    gait_expectations(plan)  # fail at generation if the lattice is too tight
    return plan


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class Gait(Workload):
    name = "gait"

    def __init__(self, work, plan):
        super().__init__(work, plan)
        self.expect = gait_expectations(plan)

    def _query(self, r):
        return self.plan["query_order"][r % len(self.plan["query_order"])]

    def argv(self, op, r):
        base = ["--knowledge", self.path("store.ttl"), "--trials", self.path("trials")]
        if op == "read":
            return ["gait", "analyze", *base, "--patient", self._query(r)]
        if op == "render":
            return ["gait", "table", *base, "--patient", self._query(r)]
        self.restore()
        a = self.plan["add"][r % len(self.plan["add"])]
        return ["gait", "add-prototype", "--knowledge", self.path("edited.ttl"),
                "--trials", self.path("trials"), "--patient", a["patient"],
                "--concept", a["concept"], "--creator", "Bench Gait", "--date", "2026-03-04"]

    def check(self, op, r, code, out, err):
        _require(code == 0, f"{op}: exit code {code}: {err.strip()[:300]}")
        if op == "write":
            a = self.plan["add"][r % len(self.plan["add"])]
            _require(
                _json_lines(out)
                == [{"written": self.path("edited.ttl"), "prototype": a["patient"]}],
                f"add-prototype: unexpected report {out.strip()[:200]}",
            )
            triples = _check_added_manifestation(
                self.path("edited.ttl"), self.plan["manifests"], a["iri"],
                [("patientId", a["patient"])], "Bench Gait", "2026-03-04",
            )
            protos = _manifest_nodes(triples, a["iri"])
            _require(len(protos) == PROTOTYPES + 1, "add-prototype: prototype count")
            return
        want = self.expect["queries"][self._query(r)]
        rows = _json_lines(out)
        _require(
            [row["concept"] for row in rows] == sorted(want["concepts"]),
            f"gait {op}: concepts {[row['concept'] for row in rows]}",
        )
        for row in rows:
            exp = want["concepts"][row["concept"]]
            _require(
                row["score"] == exp["score"],
                f"gait {op}: {row['concept']} score {row['score']} != {exp['score']}",
            )
            if op == "read":
                _require(
                    row["perParameter"] == exp["statuses"],
                    f"gait analyze: statuses of {row['concept']}",
                )
                continue
            ranges = self.expect["ranges"][row["concept"]]
            for name, cell in row["parameters"].items():
                lo, hi = ranges[name]
                _require(cell["status"] == exp["statuses"][name], f"gait table: {name} status")
                _require(
                    _close(cell["range"][0], lo) and _close(cell["range"][1], hi),
                    f"gait table: {name} range",
                )
                _require(_close(cell["value"], want["params"][name]), f"gait table: {name} value")
                _require(cell["overridden"] is False, f"gait table: {name} overridden")
            _require(
                sorted(row["prototypes"])
                == sorted(p for p, _, _ in self.plan["prototypes"][row["concept"]]),
                f"gait table: prototypes of {row['concept']}",
            )


GENERATORS = {"curation": generate_curation, "records": generate_records, "gait": generate_gait}
WORKLOADS = {"curation": Curation, "records": Records, "gait": Gait}
