#!/usr/bin/env python3
"""Check that two kava source trees give byte-identical command outputs.

    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [--seeds 1 2 3]
        [--scales 1 16] [--rounds 3] [--workloads curation records gait]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts. The inputs
are:

- the benchmark's stores, made by ``bench/workloads.py``'s generators (with
  OLD_SRC's kava) for every workload, seed and scale;
- the test fixtures;
- a set of edge-case CSVs (NaN, infinities, -0.0, duplicate, missing and
  NaN identifiers, a header-only file, and the kind inference's edges:
  cells such as `` 7 ``, ``1e3`` and ``2_50`` that ``float()`` reads, a
  ``²`` cell, an all-empty column, short rows and a blank line; and
  values around 2**53, where float64 stops holding every integer:
  2**53 - 1, 2**53, 2**53 + 1, ``9007199254740993.0``, ``-0.0``, ``1e308``
  and ``inf``; a data column named ``concept``; and string identifiers
  and cells with quotes, backslashes, a quoted newline and U+2028; and
  number columns on each side of the one-map conversions: identifiers
  ``7`` and ``007``, negative ints, decimals with missing cells, ``70``
  with ``70.5``, ``1.``, ``.5``, `` 5.5`` and ``25_0.5``, an int of 4,301
  digits and Arabic-Indic digits);
- a store without manifestations;
- a store in which one concept has several overlapping manifestations, one
  of each mapping kind, a copy of it with one more in a foreign dialect,
  and a store whose query mapping ORs 600 comparisons, one of them under
  300 NOTs and one under 100 parentheses; each meets every edge-case CSV
  through ``manifest``, ``--pattern marks`` and ``--pattern aggregate``;
- a store with one concept per threshold case: a range with only a
  minimum, only a maximum, both bounds and equal bounds (a degenerate
  band), a range over an IRI ``kava:variable``, a query for each operator,
  a compound query, a string constant, a foreign dialect and a concept
  with only a direct mapping; each runs through ``--pattern threshold``
  with no ``--axis-var``, the matching one and a mismatching one;
- a set of edge-case Turtle stores: one per error the Turtle reader
  reports, and one well-formed store with escapes, comments, an empty
  ``[]``, a trailing ``;``, a statement without predicates and ``[ … ]``
  nested 300 deep, one with ``rdf:type`` objects that are not IRIs, one
  whose sibling blank nodes are labelled in the opposite order to their
  content, one with ``[ … ]`` nested 1,200 deep, and one with what the
  JSON-LD writer puts in arrays and rows (several ``@type``s, numbers past
  2**64 and long decimals, sibling blank nodes with equal and with
  different predicates, objects that mix IRIs, literals and blank nodes),
  and one whose terms' texts meet (a ``kava:variable`` given as the string
  ``"<http://example.org/x>"`` and as that IRI, a string ``5"^^integer``,
  and IRIs and literals that differ only past a long shared prefix);
  each runs through ``validate``, ``convert --to jsonld`` and ``convert
  --to ttl``, and its JSON-LD file through ``convert --to ttl``;
- a set of edge-case JSON-LD documents: numbers where a name or a
  namespace belongs, an integer of 5,000 digits, well-formed integers
  and decimals, and node objects nested one level past the reader's
  limit; each runs through ``validate`` and ``convert --to ttl``;
- a gait store and trials directory that the benchmark does not make: a
  concept with one prototype, ``gait set-range`` overrides of which one
  replaces an earlier one, and ``gait analyze`` and ``gait table`` with no
  ``--filter``, one that keeps some prototypes, one that keeps none and a
  300-term OR chain;
  among its force files, some that numpy's C reader takes (``-0.0``,
  17-digit values, ``nan``, a blank line mid-file, spaces around cells)
  and some that go row by row (a third column, ``1_0``-style stamps).

On each input, every benchmark command (``rounds`` rounds of the workload's
ops, built by the workload's own ``argv``) and ``export-vis`` with each
``--pattern`` run through each tree's ``kava.cli.main``, in one fresh
interpreter per tree and input, in the same working directory. Compared per
command: exit code, stdout, stderr and the bytes of every file it changed.
Prints "all equal" and exits 0, or names each command that differs and
exits 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
FIXTURES = ROOT / "tests" / "fixtures"

# Runs in a fresh interpreter: reads a job from stdin, writes one JSON list
# of [argv, exit code, stdout, stderr, {changed file: sha256}] to stdout.
RUNNER = r"""
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

job = json.load(sys.stdin)
sys.path[:0] = [job["src"], job["bench"]]
from kava import cli

work = Path(job["work"])
if job["workload"]:
    from workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]](work, job["plan"])

def digests():
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*")) if p.is_file()}

results = []
for step in job["steps"]:
    # a benchmark op's argv may first restore the store it edits
    argv = workload.argv(step[1], step[2]) if step[0] == "bench" else step[1]
    before = digests()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    after = digests()
    changed = {k: after.get(k) for k in sorted(before.keys() | after.keys())
               if before.get(k) != after.get(k)}
    results.append([argv, code, out.getvalue(), err.getvalue(), changed])
json.dump(results, sys.__stdout__)
"""

EDGE_CSVS = {
    "edge_values.csv": "id,glucose,t\n1,nan,1\n2,inf,2\n3,-inf,3\n-0.0,-0.0,4\n"
                       "5,250,nan\n6,,6\n1.5,201,-0.0\n7,201,inf\n",
    "nan_ids.csv": "id,glucose,t\nnan,250,1\nnan,260,2\n4,210,3\n",
    "duplicate_ids.csv": "id,glucose,t\n1,250,1\n1.0,150,2\n",
    "missing_id.csv": "id,glucose,t\n1,250,1\n,150,2\n",
    "header_only.csv": "id,glucose,t\n",
    # kind inference: float() reads every glucose cell here, a number column
    "float_texts.csv": "id,glucose,t\n1, 7 ,1\n2,1e3,2\n3,2_50,3\n4,infinity,4\n5,1e3,5\n",
    # "²" is a digit to str.isdigit() but no number: a string column
    "superscript.csv": "id,glucose,t\n1,250,1\n2,\u00b2,2\n3,250,3\n",
    "empty_glucose.csv": "id,glucose,t\n1,,1\n2,,2\n",
    "ragged.csv": "id,glucose,t\n1,250\n\n2,150,2\n3\n4,260,4\n",
    # around 2**53, past which float64 skips integers: glucose holds 2**53 + 1
    # as an int, so it is compared value by value; t is compared in float64
    "float64_edges.csv": "id,glucose,t\n1,9007199254740991,9007199254740991\n"
                         "2,9007199254740992,9007199254740992\n"
                         "3,9007199254740993,9007199254740993.0\n4,9007199254740993.0,-0.0\n"
                         "5,-0.0,1e308\n6,1e308,inf\n7,inf,1\n",
    # a data column named concept: the marks row's concept field takes its place
    "concept_column.csv": 'id,concept,glucose,t\n1,a,250,1\n2,,150,2\n3,none,210,3\n'
                          '4,"b,c",260,4\n',
    # string identifiers and cells that JSON escapes, or that str.splitlines()
    # splits although JSON leaves them raw (U+2028)
    "escapes.csv": 'id,glucose,t,note\n"a""1",250,1,"say ""hi"""\nb\\2,150,2,back\\slash\n'
                   '"c\n3",210,3,"two\nlines"\nd\u2028,260,4,sep\u2028arator\n'
                   '\u00e9\t5,201,5,tab\tbed\n',
    # the one-pass splitter's edges: rows it must leave to csv.reader, and
    # plain text with cells that are neither comma nor newline
    "comma_row.csv": "id,glucose,t\n1,250,1\n,,\n2,150,2\n",
    "nul_and_separator.csv": "id,glucose,t,note\n1,250,1,a\x00b\n2,150,2,c\u2028d\n",
    "long_field.csv": f"id,glucose,t\n1,250,{'1' * (csv.field_size_limit() + 1)}\n",
    "no_final_newline.csv": "id,glucose,t\n1,250,1\n2,150,2",
    "short_row.csv": "id,glucose,t\n1,250,1\n2,150\n3,210,3\n",
    "long_row.csv": "id,glucose,t\n1,250,1\n2,150,2,9\n3,210,3\n",
    "header_only_no_newline.csv": "id,glucose,t",
    # each side of the one-map conversions: all digits ("007" is 7 again, and
    # Arabic-Indic digits are ints), a "." in every text, and neither
    "leading_zero_ids.csv": "id,glucose,t\n7,250,1\n007,150,2\n",
    "negative_ints.csv": "id,glucose,t\n1,-250,1\n2,-150,-2\n3,210,-3\n",
    "decimal_gaps.csv": "id,glucose,t\n1,250.5,1.5\n2,,2.5\n3,201.25,\n4,,4.0\n",
    "int_and_decimal.csv": "id,glucose,t\n1,70,1\n2,70.5,2\n3,201,3\n4,250.0,4\n",
    "dot_texts.csv": "id,glucose,t\n1,201.,1.\n2,.5,.5\n3, 250.5,2\n4,25_0.5,3\n",
    "long_int.csv": f"id,glucose,t\n1,250,1\n2,{'9' * 4301},2\n3,150,3\n",
    "arabic_digits.csv": "id,glucose,t\n\u0661,250,\u0661\n\u0662,\u0662\u0660\u0661,\u0662\n",
    # more than 256 distinct values per column, with NaN, -0.0, missing cells
    # and ints past 2**53: codes of two bytes, ranked in byte planes
    "wide_columns.csv": "id,glucose,t\n" + "".join(
        f"{i},{['nan', '', '-0.0', '9007199254740993'][i % 4] if i % 37 == 0 else 60 + i / 2},"
        f"{2**53 + i if i % 3 else i}\n" for i in range(1, 401)),
}

# Overlapping manifestations: most records of edge_values.csv match two or more.
MULTI_STORES = {
    "multi.ttl": (
        "icd10:R73 kava:manifest\n"
        '  [ kava:matchQuery "[glucose] > 200 OR [t] < 3" ],\n'
        '  [ kava:matchVariable [ kava:variable "glucose"; kava:minValue 200 ] ],\n'
        '  [ kava:isPrototype [ kava:variable "id"; kava:value 1 ] ] .\n'
        'icd10:R74 kava:manifest [ kava:matchQuery "[t] >= 2" ] .\n'
    ),
}
MULTI_STORES["multi_foreign.ttl"] = MULTI_STORES["multi.ttl"] + (
    'icd10:R73 kava:manifest [ kava:matchQuery "SELECT * FROM t"; kava:queryDialect "sql" ] .\n'
)
# A long query mapping: 600 comparisons ORed, the last two under 300 NOTs and
# under 100 parentheses. They sit at the top of the left-deep chain, so the
# tree stays shallow enough for a parser and walkers that recurse.
_LONG_QUERY = " OR ".join(
    [f"[glucose] = {k}" for k in range(0, 1196, 2)]
    + ["NOT " * 300 + "[glucose] = 201", "(" * 100 + "[glucose] = 9007199254740993" + ")" * 100]
)
MULTI_STORES["long_query.ttl"] = f'icd10:R73 kava:manifest [ kava:matchQuery "{_LONG_QUERY}" ] .\n'

_EX = "@prefix ex: <http://example.org/edge#> .\n"
# One concept per threshold case (see the docstring)
_RANGES = {"min": "kava:minValue 2", "max": "kava:maxValue -0.0",
           "both": "kava:minValue 1 ; kava:maxValue 3.5",
           "equal": "kava:minValue 4 ; kava:maxValue 4"}
_QUERIES = {"gt": "[v] > 7", "ge": "[v] >= 7.5", "lt": "[v] < -1", "le": "[v] <= 0",
            "eq": "[v] = 7", "ne": "[v] != 7", "compound": "[v] > 1 AND [v] < 3",
            "string": '[v] = \\"a\\"'}
THRESHOLD_CONCEPTS = [*_RANGES, "iri", *_QUERIES, "foreign", "direct"]
THRESHOLD_STORE = _EX + "".join(
    [f'ex:{name} kava:manifest [ kava:matchVariable [ kava:variable "v" ; {bounds} ] ] .\n'
     for name, bounds in _RANGES.items()]
    + ["ex:iri kava:manifest [ kava:matchVariable [ kava:variable ex:v ; kava:minValue 1 ] ] .\n"]
    + [f'ex:{name} kava:manifest [ kava:matchQuery "{text}" ] .\n'
       for name, text in _QUERIES.items()]
    + ['ex:foreign kava:manifest [ kava:matchQuery "v > 1" ; kava:queryDialect "sql" ] .\n',
       'ex:direct kava:manifest [ kava:isPrototype [ kava:variable "v" ; kava:value 1 ] ] .\n']
)
_DEPTH = 300
_LONG = "a" * 40  # a long shared prefix
EDGE_TTLS = {
    # errors the scanner reports
    "collection.ttl": _EX + "ex:a ex:b ( ex:c ) .\n",
    "directive.ttl": "@base <http://example.org/> .\n",
    "language_tag.ttl": _EX + 'ex:a ex:b "x"@en .\n',
    "unterminated_iri.ttl": "<http://example.org/a\n> <http://example.org/b> 1 .\n",
    "triple_quote.ttl": _EX + 'ex:a ex:b """long""" .\n',
    "bad_escape.ttl": _EX + 'ex:a ex:b "tab\\x" .\n',
    "unterminated_string.ttl": _EX + 'ex:a ex:b "open\n" .\n',
    "bare_word.ttl": _EX + "ex:a ex:b true .\n",
    "unexpected_character.ttl": _EX + "ex:a ex:b ex:c !\n",
    "numeral_label.ttl": "\u00bdx:a <http://example.org/b> 1 .\n",
    # errors the parser reports
    "eof_after_comment.ttl": _EX + "ex:a ex:b ex:c # no final newline",
    "missing_dot.ttl": _EX + "ex:a ex:b ex:c\nex:d ex:e ex:f .\n",
    "missing_bracket.ttl": _EX + "ex:a ex:b [ ex:c 1 .\n",
    "prefix_label.ttl": "@prefix ex:a <http://example.org/> .\n",
    "prefix_iri.ttl": "@prefix ex: ex:b .\n",
    "undeclared_prefix.ttl": "nope:a nope:b 1 .\n",
    "unexpected_token.ttl": _EX + "ex:a ex:b ; ex:c .\n",
    "literal_predicate.ttl": _EX + 'ex:a "p" ex:c .\n',
    "invalid_iri.ttl": "<http://example.org/a b> <http://example.org/p> 1 .\n",
    "bad_numeral.ttl": _EX + "ex:a ex:b \u00b2 .\n",
    # well-formed
    "edge_ok.ttl": (
        "# a store with every construct the reader takes\n" + _EX
        + 'ex:a ex:s "q\\" \\\\ \\n \\r \\t" , "", -0.0, 007 ; # comment\n'
        + "    ex:e [] ;\n    ex:n [ ex:m ex:o ; ] ;\n    .\n"
        + "ex:alone .\n[ ex:p 1 ] ex:q 2.50 .\r\n"
        + "ex:deep " + "ex:d [ " * _DEPTH + "ex:v 1" + " ]" * _DEPTH + " .\n"
    ),
    "non_iri_type.ttl": _EX + 'ex:a a "lit", ex:C .\nex:b a [ ex:p 1 ] .\n',
    # the reader labels blank nodes b1, b2, … in the order of their '[', so
    # these siblings' labels run opposite to their content, and b10 < b2
    "sibling_order.ttl": _EX + "ex:a ex:p "
    + ", ".join(f"[ ex:v {n} ]" for n in range(12, 0, -1)) + " .\n"
    + "[ ex:v 2 ] .\n[ ex:v 1 ] .\n",
    "deep_1200.ttl": _EX + "ex:deep " + "ex:d [ " * 1200 + "ex:v 1" + " ]" * 1200 + " .\n",
    # what the JSON-LD writer puts in arrays and rows
    "jsonld_shapes.ttl": _EX
    + "ex:a a ex:T3, ex:T1, ex:T2 ;\n"
    + "    ex:n 2.5, 18446744073709551617, -0.0, 7, 0.12345678901234567890123 ;\n"
    + "    ex:same [ ex:v 1 ], [ ex:v 2, 3 ], [ ex:v ex:o ] ;\n"
    + '    ex:lists [ ex:s "a", "b" ], [ ex:s "c", "d\\n" ] ;\n'
    + '    ex:other [ ex:v 1 ], [ ex:w "x" ], [ ex:v 1 ; ex:w "x" ], [] ;\n'
    + '    ex:mixed ex:o, "s", 3, [ ex:v 3.14159265358979323846264338327950288 ] .\n'
    + '[ a ex:T1 ; ex:same [ ex:v -0.0 ], [ ex:v 1.0 ] ] .\n',
    # terms whose texts meet: a kava:variable given as a string that reads as
    # an IRI and as that IRI, strings that read as typed literals, and IRIs
    # and literals that differ only past a long shared prefix
    "term_texts.ttl": _EX
    + 'ex:c a skos:Concept ; skos:prefLabel "c" ; skos:inScheme ex:s ;\n'
    + '    kava:manifest [ kava:isPrototype [ kava:variable "<http://example.org/x>" ;'
    + ' kava:value 1 ], [ kava:variable <http://example.org/x> ; kava:value 2 ] ],\n'
    + '        [ kava:matchVariable [ kava:variable <http://example.org/x> ; kava:minValue 1 ] ],\n'
    + '        [ kava:matchVariable [ kava:variable "<http://example.org/x>" ;'
    + ' kava:minValue 1 ] ] .\n'
    + 'ex:d ex:v "5", 5, "5\\"^^integer", 5.0, "5.0", "\\"5\\"^^integer", "5\\\\" ;\n'
    + f'    ex:p ex:{_LONG}1, ex:{_LONG}2, ex:{_LONG}, "{_LONG}1", "{_LONG}2", "{_LONG}",\n'
    + f'        1.{"0" * 30}1, 1.{"0" * 30}2, {"9" * 40}1, {"9" * 40}2,\n'
    + f'        [ ex:v ex:{_LONG}1 ], [ ex:v ex:{_LONG}2 ], [ ex:v "{_LONG}2" ] .\n',
}

_ID = '"@id": "http://example.org/edge#a"'
EDGE_JSONLDS = {
    "integer_id.jsonld": '{"@id": 7, "http://example.org/edge#p": 1}\n',
    "decimal_id.jsonld": '{"@id": 7.5, "http://example.org/edge#p": 1}\n',
    "integer_type.jsonld": "{" + _ID + ', "@type": 7}\n',
    "decimal_context.jsonld": '{"@context": {"ex": 1.5}, "@id": "ex:a", "ex:p": 1}\n',
    "long_integer.jsonld": "{" + _ID + ', "http://example.org/edge#p": ' + "9" * 5000 + "}\n",
    "numbers.jsonld": "{" + _ID + ', "http://example.org/edge#p": [7, -0, 1.50, 1e3, -2.5E-3]}\n',
    # node objects nested one level past the reader's limit of 200
    "deep_201.jsonld": "{" + _ID + ", " + '"http://example.org/edge#d": {' * 201
    + '"http://example.org/edge#v": 1' + "}" * 201 + "}\n",
}


def _bench_case(name, seed, scale, rounds):
    """(label, a function that writes the inputs into ``base`` and returns
    (workload, plan, steps) for a run in ``work``, a copy of ``base``)."""

    def make(base: Path, work: Path):
        from workloads import GENERATORS, WORKLOADS

        plan = GENERATORS[name](base, seed, scale)
        ops = WORKLOADS[name].trace_ops
        steps = [["bench", op, r] for r in range(rounds) for op in ops]
        store = str(work / plan["store"])
        steps.append(["argv", ["export-vis", store, "--pattern", "tree"]])
        if name == "records":
            data = str(work / "data.csv")
            for concept in plan["concepts"][:2]:
                steps += [
                    ["argv", ["export-vis", store, "--pattern", "threshold",
                              "--concept", concept]],
                    ["argv", ["export-vis", store, "--pattern", "threshold",
                              "--concept", concept, "--axis-var", "glucose"]],
                    ["argv", ["export-vis", store, data, "--pattern", "aggregate",
                              "--concept", concept, "--time-var", "glucose"]],
                ]
            steps += [
                ["argv", ["export-vis", store, data, "--pattern", "marks"]],
                ["argv", ["export-vis", store, data, "--pattern", "marks",
                          "--channel", "size"]],
                # no manifestations
                ["argv", ["export-vis", str(work / "no_manifestations.ttl"), data,
                          "--pattern", "marks"]],
            ]
            shutil.copyfile(FIXTURES / "gps_scheme.ttl", base / "no_manifestations.ttl")
        return name, plan, steps

    return f"{name} seed {seed} scale {scale}", make


def _fixture_case(base: Path, work: Path):
    shutil.copytree(FIXTURES, base / "fixtures")
    for text_name, text in {**EDGE_CSVS, **EDGE_TTLS, **EDGE_JSONLDS, **MULTI_STORES,
                            "threshold.ttl": THRESHOLD_STORE}.items():
        (base / text_name).write_text(text)
    fixtures = work / "fixtures"
    steps = []
    for path in sorted(fixtures / p.name for p in (base / "fixtures").iterdir()):
        other = "jsonld" if path.suffix == ".ttl" else "ttl"
        steps += [
            ["argv", ["validate", str(path)]],
            ["argv", ["convert", str(path), "--to", other]],
            ["argv", ["convert", str(path), "--to", other, "-o", str(work / f"out.{other}")]],
            ["argv", ["export-vis", str(path), "--pattern", "tree"]],
        ]
    empty = str(fixtures / "gps_scheme.ttl")  # no manifestations
    for path, axis in (("listing4.ttl", []), ("listing5.ttl", ["--axis-var", "glucose"])):
        steps.append(["argv", ["export-vis", str(fixtures / path), "--pattern", "threshold",
                               "--concept", "icd10:R73", *axis]])
    threshold = str(work / "threshold.ttl")
    for concept in THRESHOLD_CONCEPTS:
        for axis in ([], ["--axis-var", "v"], ["--axis-var", "w"]):
            steps.append(["argv", ["export-vis", threshold, "--pattern", "threshold",
                                   "--concept", f"ex:{concept}", *axis]])
    for text_name in EDGE_CSVS:
        data = str(work / text_name)
        stores = [str(fixtures / "listing5.ttl"), *(str(work / name) for name in MULTI_STORES)]
        for store in stores:
            steps += [
                ["argv", ["manifest", store, data, "--concept", "icd10:R73"]],
                ["argv", ["export-vis", store, data, "--pattern", "marks"]],
                ["argv", ["export-vis", store, data, "--pattern", "aggregate",
                          "--concept", "icd10:R73", "--time-var", "t"]],
                ["argv", ["export-vis", store, data, "--pattern", "aggregate",
                          "--concept", "icd10:R73", "--time-var", "glucose"]],
            ]
        multi = str(work / "multi.ttl")
        steps += [
            ["argv", ["manifest", multi, data, "--concept", "icd10:R74"]],
            ["argv", ["export-vis", multi, data, "--pattern", "aggregate",
                      "--concept", "icd10:R74", "--time-var", "t"]],
            ["argv", ["export-vis", empty, data, "--pattern", "marks"]],
        ]
    for text_name in EDGE_TTLS:
        path, written = str(work / text_name), str(work / (text_name + ".jsonld"))
        steps += [
            ["argv", ["validate", path]],
            ["argv", ["convert", path, "--to", "jsonld"]],
            ["argv", ["convert", path, "--to", "ttl"]],
            ["argv", ["convert", path, "--to", "jsonld", "-o", written]],
            ["argv", ["convert", written, "--to", "ttl"]],
        ]
    for text_name in EDGE_JSONLDS:
        path = str(work / text_name)
        steps += [
            ["argv", ["validate", path]],
            ["argv", ["convert", path, "--to", "ttl"]],
        ]
    return None, None, steps


# Force-file rows (t, v) rewritten as other texts of (nearly) the same series.
FORCE_FORMS = {
    ("8", "left"): lambda i, t, v: f"{float(t):.17g},{-0.0 if v == '0.0' else float(v) / 3:.17g}",
    ("8", "right"): lambda i, t, v: f" {t} ,\t{v} " + ("\n" if i == 40 else ""),
    ("9", "left"): lambda i, t, v: f"{t},{'nan' if i == 40 else v}",
    ("10", "left"): lambda i, t, v: f"{t},{v},{i}",
    ("10", "right"): lambda i, t, v: f"{t.replace('.0', '.0_', 1).rstrip('_')},{v}",
}


# A 300-term population filter: the prototypes of even age.
EVEN_AGES = " OR ".join(f"[age] = {k}" for k in range(0, 600, 2))


def _gait_case(base: Path, work: Path):
    from kava.gait import square_wave_trial, write_trials_dir

    shutil.copyfile(FIXTURES / "gait_categories.ttl", base / "gait.ttl")
    write_trials_dir(base / "trials", [
        square_wave_trial(str(i), stance=0.5 + 0.03 * i, stride=0.9 + 0.04 * i,
                          age=30 + 7 * i, body_mass=None if i % 3 else 60.0 + i)
        for i in range(1, 11)
    ])
    for (pid, side), form in FORCE_FORMS.items():
        path = base / "trials" / f"{pid}_{side}.csv"
        header, *rows = path.read_text().splitlines()
        lines = [form(i, *row.split(",")) for i, row in enumerate(rows)]
        path.write_text("\n".join([header, *lines]) + "\n")
    store, trials = str(work / "gait.ttl"), str(work / "trials")
    steps = []
    for concept, pids in (("affectedKnee", ["1", "2", "3", "4"]), ("affectedHip", ["2", "6", "10"]),
                          ("normData", ["5", "8", "9"])):
        steps += [["argv", ["gait", "add-prototype", "--knowledge", store, "--trials", trials,
                            "--patient", pid, "--concept", f"gps:{concept}"]] for pid in pids]
    for concept, param, lo, hi in (
        ("affectedKnee", "cadence", "100", "130"),
        ("affectedKnee", "stance_time_left", "0.5", "0.6"),
        ("affectedKnee", "cadence", "90", "140"),  # replaces the first
        ("affectedHip", "support_asymmetry", "0", "0.1"),
    ):
        steps.append(["argv", ["gait", "set-range", "--knowledge", store, "--concept",
                               f"gps:{concept}", "--param", param, "--min", lo, "--max", hi]])
    for command in ("analyze", "table"):
        for patient in ("1", "7", "8", "9", "10"):
            for population in ([], ["--filter", "[age] > 50"], ["--filter", "[age] > 1000"],
                               ["--filter", EVEN_AGES]):
                steps.append(["argv", ["gait", command, "--knowledge", store, "--trials", trials,
                                       "--patient", patient, *population]])
    return None, None, steps


def _run(src: Path, work: Path, workload, plan, steps):
    job = {"src": str(src), "bench": str(BENCH), "work": str(work),
           "workload": workload, "plan": plan, "steps": steps}
    proc = subprocess.run([sys.executable, "-B", "-c", RUNNER], input=json.dumps(job),
                          capture_output=True, text=True, cwd=work)
    if proc.returncode != 0:
        raise SystemExit(f"runner failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _differences(label, work, old, new):
    out = []
    for (argv, *a), (_, *b) in zip(old, new):
        if a != b:
            fields = [n for n, x, y in zip(("exit code", "stdout", "stderr", "files"), a, b)
                      if x != y]
            shown = " ".join(argv).replace(str(work), "<work>")
            out.append(f"{label}: {shown}: {', '.join(fields)} differ")
    if len(old) != len(new):
        out.append(f"{label}: {len(old)} against {len(new)} commands")
    return out


def compare(old_src, new_src, seeds, scales, rounds, workloads) -> list[str]:
    """Descriptions of the commands whose outputs differ; empty when all
    are equal."""
    sys.path[:0] = [str(old_src), str(BENCH)]  # the generators write with OLD_SRC's kava
    sys.dont_write_bytecode = True  # leave no cache files in either tree or in bench/
    cases = [("fixtures and edge CSVs, edge Turtle and JSON-LD stores", _fixture_case),
             ("gait overrides, filters and a one-prototype concept", _gait_case)]
    cases += [_bench_case(name, seed, scale, rounds)
              for seed in seeds for scale in scales for name in workloads]
    differences = []
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        base, work = Path(tmp, "base"), Path(tmp, "work")
        for label, make in cases:
            base.mkdir()
            workload, plan, steps = make(base, work)
            results = []
            for src in (old_src, new_src):
                shutil.copytree(base, work)  # both trees run at one path
                results.append(_run(src, work, workload, plan, steps))
                shutil.rmtree(work)
            shutil.rmtree(base)
            differences += _differences(label, work, *results)
            print(f"{label}: {len(steps)} commands compared", file=sys.stderr)
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--scales", type=float, nargs="+", default=[1.0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", default=["curation", "records", "gait"],
                        choices=["curation", "records", "gait"])
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in (args.old_src, args.new_src)]
    for src in srcs:
        if not (src / "kava" / "cli.py").is_file():
            parser.error(f"{src} holds no kava/cli.py")
    differences = compare(*srcs, args.seeds, args.scales, args.rounds, args.workloads)
    for line in differences:
        print(line)
    if differences:
        return 1
    print("all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
