import csv
import importlib.util
import inspect
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_text, random_tree_graph
from kava import cli, manifestation, utilization
from kava.cli import main, read_graph, read_table
from kava.errors import CsvSyntaxError, CsvTypeError, ForeignDialect, KavaError
from kava.gait import (
    load_trials_dir,
    prototype_ids,
    range_overrides_from_graph,
    square_wave_trial,
    write_trials_dir,
)
from kava.jsonld import MAX_DEPTH, parse_jsonld, serialize_jsonld
from kava.manifestation import (
    DirectMapping,
    IndirectVariableMapping,
    evaluate_manifestation,
    load_manifestations,
)
from kava.rdf import DEFAULT_PREFIXES, isomorphic_trees
from kava.skos import load_scheme
from kava.turtle import parse_turtle, serialize_turtle
from kava.utilization import (
    aggregate_mark_spec,
    concept_tree_spec,
    encoded_marks_spec,
    threshold_region_spec,
    validate_fragment,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(l) for l in out.out.splitlines() if l.strip()]
    return code, lines, out.err


def _copy_fixture(tmp_path, name):
    dst = tmp_path / name
    shutil.copy(FIXTURES / name, dst)
    return str(dst)


# --- validate -------------------------------------------------------------


def test_validate_clean_document(capsys):
    code, lines, _ = run(capsys, "validate", str(FIXTURES / "listing1.ttl"))
    assert code == 0
    assert all(l["severity"] == "warning" for l in lines)


def test_validate_self_cycle_fails(capsys):
    code, lines, _ = run(capsys, "validate", str(FIXTURES / "listing2.jsonld"))
    assert code == 1
    assert any(l["kind"] == "BroaderCycle" and l["severity"] == "error" for l in lines)


def test_validate_corrected_document(capsys):
    code, lines, _ = run(capsys, "validate", str(FIXTURES / "listing2_corrected.jsonld"))
    assert code == 0
    assert not any(l["severity"] == "error" for l in lines)


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.ttl")
    assert code == 2
    assert err


def test_validate_unknown_extension(capsys, tmp_path):
    bad = tmp_path / "graph.xml"
    bad.write_text("<x/>")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2


def test_validate_syntax_error(capsys, tmp_path):
    broken = tmp_path / "broken.ttl"
    broken.write_text("gps:a gps:b 5 .\nbroken here")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "broken.ttl" in err


def test_env_prefixes(capsys, tmp_path, monkeypatch):
    prefixes = tmp_path / "prefixes.txt"
    prefixes.write_text("ex = http://custom.example/ns#\n")
    monkeypatch.setenv("KAVA_PREFIXES", str(prefixes))
    doc = tmp_path / "doc.ttl"
    doc.write_text('ex:a rdf:type skos:Concept; skos:prefLabel "a"; '
                   "skos:inScheme ex:s .")
    code, _, _ = run(capsys, "validate", str(doc))
    assert code == 0


@pytest.mark.parametrize("command", ["validate", "convert", "manifest", "gait-analyze"])
def test_undecodable_input_is_input_error(capsys, gait_workspace, tmp_path, command):
    knowledge, trials = gait_workspace
    store, data, metadata = tmp_path / "bad.ttl", tmp_path / "bad.csv", Path(trials, "metadata.csv")
    store.write_bytes(b"\xffgps:a gps:b 5 .\n")
    data.write_bytes(b"\xffpatientId,bloodSugar\n1,150\n")
    metadata.write_bytes(b"\xff" + metadata.read_bytes())
    argv, bad = {
        "validate": (["validate", str(store)], store),
        "convert": (["convert", str(store), "--to", "jsonld"], store),
        "manifest": (["manifest", str(FIXTURES / "listing4.ttl"), str(data),
                      "--concept", "icd10:R73"], data),
        "gait-analyze": (["gait", "analyze", "--knowledge", knowledge, "--trials", trials,
                          "--patient", "1"], metadata),
    }[command]
    code, lines, err = run(capsys, *argv)
    assert code == 2 and lines == []
    assert "internal error" not in err
    assert f"{str(bad)!r} is not UTF-8 text" in err


@pytest.mark.parametrize("reader", ["turtle", "jsonld", "data-csv", "gait"])
def test_a_leading_byte_order_mark_is_read_past(capsys, tmp_path, reader):
    """Each reader gives the same output for a copy of its input that starts
    with the UTF-8 byte order mark that Windows editors and Excel write."""
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    plain.mkdir()
    shutil.copy(FIXTURES / "listing5.ttl", plain)
    shutil.copy(FIXTURES / "listing2_corrected.jsonld", plain)
    (plain / "store.ttl").write_text(
        'icd10:R73 kava:manifest [ kava:isPrototype [ kava:variable "id"; kava:value 1 ] ] .\n'
    )
    (plain / "data.csv").write_text("id,glucose\n1,250\n2,150\n")
    shutil.copy(FIXTURES / "gait_categories.ttl", plain / "gait.ttl")
    write_trials_dir(plain / "trials", [square_wave_trial("1", stance=0.55, age=30),
                                        square_wave_trial("2", stance=0.6, body_mass=80.0)])
    assert main(["gait", "add-prototype", "--knowledge", str(plain / "gait.ttl"),
                 "--trials", str(plain / "trials"), "--patient", "2",
                 "--concept", "gps:affectedKnee"]) == 0
    shutil.copytree(plain, bom)
    argv, marked = {
        "turtle": (["convert", "{d}/listing5.ttl", "--to", "jsonld"], ["listing5.ttl"]),
        "jsonld": (["convert", "{d}/listing2_corrected.jsonld", "--to", "ttl"],
                   ["listing2_corrected.jsonld"]),
        "data-csv": (["manifest", "{d}/store.ttl", "{d}/data.csv", "--concept", "icd10:R73"],
                     ["data.csv"]),
        "gait": (["gait", "analyze", "--knowledge", "{d}/gait.ttl", "--trials", "{d}/trials",
                  "--patient", "1"], ["trials/metadata.csv", "trials/1_left.csv"]),
    }[reader]
    for name in marked:
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (bom / name).read_bytes())
    capsys.readouterr()
    outputs = []
    for d in (plain, bom):
        code = main([a.replace("{d}", str(d)) for a in argv])
        out = capsys.readouterr()
        outputs.append((code, out.out.replace(str(d), "{d}"), out.err.replace(str(d), "{d}")))
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle-at-bottom"])
def test_deep_broader_chain_is_walked(capsys, tmp_path, cycle):
    depth = 3000
    store = tmp_path / "chain.ttl"
    store.write_text("".join(
        f'gps:c{i} rdf:type skos:Concept; skos:prefLabel "c{i}"; skos:inScheme gps:s'
        + (f"; skos:broader gps:c{i + 1}" if i + 1 < depth else "")
        + (f"; skos:broader gps:c{i - 1}" if cycle and i + 1 == depth else "")
        + " .\n"
        for i in range(depth)
    ))
    code, lines, err = run(capsys, "validate", str(store))
    cycles = [l for l in lines if l["kind"] == "BroaderCycle"]
    before_last, last = (f"<{DEFAULT_PREFIXES['gps']}c{i}>" for i in (depth - 2, depth - 1))
    if cycle:  # the walk from c0 reaches c2999 last, and its edge back to c2998
        assert (code, err) == (1, "")
        assert [(l["subject"], l["detail"]) for l in cycles] == [
            (last, f"{before_last} -> {last} -> {before_last}")
        ]
    else:
        assert (code, err, cycles) == (0, "", [])
    out = tmp_path / "tree.json"
    code, _, err = run(capsys, "export-vis", str(store), "--pattern", "tree", "-o", str(out))
    if cycle:
        assert code == 2 and "internal error" not in err and not out.exists()
    else:
        assert (code, err) == (0, "")
        assert len(json.loads(out.read_text())["data"]["values"]) == depth


def test_deeply_nested_store_validates(capsys, tmp_path):
    depth = 5000
    store = tmp_path / "deep.ttl"
    store.write_text(
        "gps:a rdf:type skos:Concept; skos:prefLabel \"a\"; skos:inScheme gps:s;\n"
        + "    dct:source [ " * depth + 'dct:title "bottom"' + " ]" * depth + " .\n"
    )
    code, _, err = run(capsys, "validate", str(store))
    assert (code, err) == (0, "")


def _chain(depth, sibling=""):
    """A store whose one IRI subject holds ``depth`` nested blank nodes, each
    written after ``sibling``."""
    return (
        "@prefix ex: <http://example.org/> .\nex:s "
        + f"ex:p {sibling}[ " * depth + 'ex:p "x"' + " ]" * depth + " .\n"
    )


# Beside each nested blank node: nothing (a plain chain), or a leaf blank node
# with the same predicates or with another one, in Turtle and in JSON-LD. The
# writer puts each pair in one array: rows that share their one key, or
# objects of two shapes.
_SIBLINGS = {
    "chain": ("", ""),
    "same": ('[ ex:p "y" ], ', '{"http://example.org/p": "y"}, '),
    "different": ('[ ex:q "y" ], ', '{"http://example.org/q": "y"}, '),
}


@pytest.mark.parametrize("depth", [10, 100, 1200])
def test_deep_store_converts_to_turtle_and_reads_back(capsys, tmp_path, depth):
    store, out = tmp_path / "deep.ttl", tmp_path / "out.ttl"
    store.write_text(_chain(depth))
    code, _, err = run(capsys, "convert", str(store), "--to", "ttl", "-o", str(out))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "validate", str(out))
    assert (code, err) == (0, "")
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(store)))


@pytest.mark.parametrize("shape", _SIBLINGS)
def test_jsonld_is_written_to_its_depth_limit(capsys, tmp_path, shape):
    sibling = _SIBLINGS[shape][0]
    store, out = tmp_path / "deep.ttl", tmp_path / "out.jsonld"
    store.write_text(_chain(MAX_DEPTH, sibling))
    code, _, err = run(capsys, "convert", str(store), "--to", "jsonld", "-o", str(out))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "validate", str(out))
    assert (code, err) == (0, "")
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(store)))
    # one level past the limit: refused before anything is written
    out.unlink()
    store.write_text(_chain(MAX_DEPTH + 1, sibling))
    code, _, err = run(capsys, "convert", str(store), "--to", "jsonld", "-o", str(out))
    assert code == 2
    assert f"cannot write JSON-LD: blank nodes nest deeper than {MAX_DEPTH} levels" in err
    assert not out.exists()


@pytest.mark.parametrize("shape", ["same", "different"])
def test_jsonld_writer_at_its_depth_limit_needs_few_frames(shape):
    """At MAX_DEPTH only _node_json recurses, three frames a level; the JSON
    text writer adds none per level."""
    graph = parse_turtle(_chain(MAX_DEPTH, _SIBLINGS[shape][0]))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 700)
    try:
        text = serialize_jsonld(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert isomorphic_trees(parse_jsonld(text), graph)


def _root_chain_jsonld(depth, sibling=""):
    """A document whose top-level blank node object holds ``depth`` nested
    node objects, each in an array after ``sibling`` when there is one; the
    deepest the reader takes at MAX_DEPTH."""
    opening, closing = ("[" + sibling, "]") if sibling else ("", "")
    p = '"http://example.org/p": '
    return "{" + (p + opening + "{") * depth + p + '"x"' + ("}" + closing) * depth + "}\n"


@pytest.mark.parametrize("shape", _SIBLINGS)
def test_jsonld_root_blank_node_is_written_to_the_readers_limit(capsys, tmp_path, shape):
    turtle_sibling, jsonld_sibling = _SIBLINGS[shape]
    store, out = tmp_path / "deep.jsonld", tmp_path / "out.jsonld"
    store.write_text(_root_chain_jsonld(MAX_DEPTH, jsonld_sibling))
    code, _, err = run(capsys, "validate", str(store))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "convert", str(store), "--to", "jsonld", "-o", str(out))
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "validate", str(out))
    assert (code, err) == (0, "")
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(store)))
    # one level deeper, as the reader counts: the writer refuses it too
    store = tmp_path / "deeper.ttl"
    store.write_text("@prefix ex: <http://example.org/> .\n[ "
                     + f"ex:p {turtle_sibling}[ " * (MAX_DEPTH + 1)
                     + 'ex:p "x"' + " ]" * (MAX_DEPTH + 2) + " .\n")
    out.unlink()
    code, _, err = run(capsys, "convert", str(store), "--to", "jsonld", "-o", str(out))
    assert code == 2
    assert f"cannot write JSON-LD: blank nodes nest deeper than {MAX_DEPTH} levels" in err
    assert not out.exists()


@pytest.mark.parametrize("depth", [600, 1200])
def test_deep_jsonld_is_input_error(capsys, tmp_path, depth):
    doc = tmp_path / "deep.jsonld"
    doc.write_text(
        '{"@id": "http://example.org/s", '
        + '"http://example.org/p": {' * depth
        + '"http://example.org/p": "x"'
        + "}" * depth
        + "}\n"
    )
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert f"node objects nest deeper than {MAX_DEPTH} levels" in err


# --- convert --------------------------------------------------------------


def test_convert_roundtrip(capsys, tmp_path):
    src = str(FIXTURES / "listing3.ttl")
    mid = tmp_path / "out.jsonld"
    back = tmp_path / "back.ttl"
    code, lines, _ = run(capsys, "convert", src, "--to", "jsonld", "-o", str(mid))
    assert code == 0 and lines[0]["triples"] == 7
    code, _, _ = run(capsys, "convert", str(mid), "--to", "ttl", "-o", str(back))
    assert code == 0
    assert isomorphic_trees(
        parse_turtle(back.read_text()), parse_turtle(fixture_text("listing3.ttl"))
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_convert_round_trips_random_stores(seed):
    """convert --to jsonld and --to ttl each write a store that validates
    as the input does and reads back isomorphic to it; the Turtle written
    back is the input's bytes."""
    text = serialize_turtle(random_tree_graph(random.Random(seed)))
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp, "store.ttl")
        store.write_text(text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            want = main(["validate", str(store)])
            for to in ("jsonld", "ttl"):
                out = Path(tmp, f"out.{to}")
                assert main(["convert", str(store), "--to", to, "-o", str(out)]) == 0
                assert main(["validate", str(out)]) == want
                assert isomorphic_trees(read_graph(str(out)), read_graph(str(store)))
        assert Path(tmp, "out.ttl").read_text() == text


def test_convert_newline_label_to_turtle_validates(capsys, tmp_path):
    doc = json.loads(fixture_text("listing2_corrected.jsonld"))
    doc["skos:prefLabel"] = "abnormal mid stance\nphase of knee"
    src = tmp_path / "label.jsonld"
    src.write_text(json.dumps(doc))
    out = tmp_path / "label.ttl"
    code, _, _ = run(capsys, "convert", str(src), "--to", "ttl", "-o", str(out))
    assert code == 0
    code, _, _ = run(capsys, "validate", str(out))
    assert code == 0


@pytest.mark.parametrize(
    "name, text",
    [
        ("space.ttl", "<http://example.org/a b> skos:prefLabel \"x\" .\n"),
        ("space.jsonld", '{"@id": "http://example.org/a b", "skos:prefLabel": "x"}'),
        ("angle.jsonld", '{"@id": "http://example.org/a>b", "skos:prefLabel": "x"}'),
        ("number.jsonld", '{"@id": "gps:a", "skos:broader": {"@id": 7}}'),
        ("decimal.jsonld", '{"@id": "gps:a", "skos:broader": {"@id": 7.5}}'),
        ("number_type.jsonld", '{"@id": "gps:a", "@type": 7}'),
    ],
    ids=[
        "turtle-space", "jsonld-space", "jsonld-angle", "jsonld-number", "jsonld-decimal",
        "jsonld-number-type",
    ],
)
def test_invalid_iri_is_input_error(capsys, tmp_path, name, text):
    src = tmp_path / name
    src.write_text(text)
    for argv in (["validate", str(src)], ["convert", str(src), "--to", "ttl"]):
        code, lines, err = run(capsys, *argv)
        assert code == 2
        assert lines == []
        assert "invalid IRI" in err and "internal error" not in err
    if name.endswith(".ttl"):
        assert "line 1, column 1: invalid IRI" in err


def test_convert_unreadable_prefixed_names_to_turtle_validates(capsys, tmp_path):
    doc = {
        "@context": {"my prefix": "http://example.org/mine#"},
        "@id": "icd10:A/B",
        "skos:related": [{"@id": "icd10:A."}, {"@id": "my prefix:c"}],
        "kava:variable": {"@id": "icd10:A-1.b"},
    }
    src = tmp_path / "names.jsonld"
    src.write_text(json.dumps(doc))
    out = tmp_path / "names.ttl"
    code, _, _ = run(capsys, "convert", str(src), "--to", "ttl", "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert "<http://example.org/kava/icd10#A/B>" in text
    assert "icd10:A-1.b" in text
    assert "my prefix" not in text
    code, _, _ = run(capsys, "validate", str(out))
    assert code == 0
    assert isomorphic_trees(parse_turtle(text), read_graph(str(src)))


def test_convert_numeral_prefix_label_to_turtle_validates(capsys, tmp_path, monkeypatch):
    # '½' is a word character that no Turtle name may start with
    prefixes = tmp_path / "prefixes.txt"
    prefixes.write_text("\u00bd=http://example.org/half#\n")
    monkeypatch.setenv("KAVA_PREFIXES", str(prefixes))
    src = tmp_path / "g.ttl"
    src.write_text("@prefix ex: <http://example.org/half#> .\nex:a ex:b ex:c .\n")
    out = tmp_path / "out.ttl"
    code, _, _ = run(capsys, "convert", str(src), "--to", "ttl", "-o", str(out))
    assert code == 0
    text = out.read_text()
    assert "\u00bd" not in text
    assert text == "@prefix ex: <http://example.org/half#> .\n\nex:a ex:b ex:c .\n"
    code, _, err = run(capsys, "validate", str(out))
    assert (code, err) == (0, "")
    assert isomorphic_trees(parse_turtle(text), read_graph(str(src)))


def test_convert_to_jsonld_uses_another_label_that_reads_back(capsys, tmp_path, monkeypatch):
    # the reader takes "urn:a" as a full IRI, so "urn" cannot name the namespace
    prefixes = tmp_path / "prefixes.txt"
    prefixes.write_text("urn=http://example.org/half#\n")
    monkeypatch.setenv("KAVA_PREFIXES", str(prefixes))
    src = tmp_path / "g.ttl"
    src.write_text("@prefix ex: <http://example.org/half#> .\nex:a ex:b ex:c .\n")
    out = tmp_path / "out.jsonld"
    code, _, _ = run(capsys, "convert", str(src), "--to", "jsonld", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc == [{"@context": {"ex": "http://example.org/half#"}, "@id": "ex:a",
                    "ex:b": {"@id": "ex:c"}}]
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(src)))


def test_convert_non_iri_type_to_jsonld_reads_back(capsys, tmp_path):
    src = tmp_path / "types.ttl"
    src.write_text(
        "@prefix ex: <http://example.org/e#> .\n"
        'ex:a a "lit", ex:C .\nex:b a [ ex:p 1 ] .\n'
    )
    out = tmp_path / "types.jsonld"
    code, _, err = run(capsys, "convert", str(src), "--to", "jsonld", "-o", str(out))
    assert (code, err) == (0, "")
    doc = json.loads(out.read_text())
    assert doc[0]["@type"] == "ex:C" and doc[0]["rdf:type"] == "lit"
    assert doc[1]["rdf:type"] == {"ex:p": 1}
    code, _, err = run(capsys, "validate", str(out))
    assert (code, err) == (0, "")
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(src)))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"@id": "gps:a", "kava:n": ' + "9" * 5000 + "}", "not a valid integer literal"),
        ('{"@context": {"ex": 1.5}, "@id": "ex:a", "kava:n": 1}', "@context entry 'ex'"),
    ],
    ids=["long-integer", "decimal-context"],
)
def test_json_number_refused_like_turtle(capsys, tmp_path, text, message):
    src = tmp_path / "numbers.jsonld"
    src.write_text(text)
    for argv in (["validate", str(src)], ["convert", str(src), "--to", "ttl"]):
        code, lines, err = run(capsys, *argv)
        assert (code, lines) == (2, [])
        assert message in err and "internal error" not in err


def test_roundtrip_script_on_every_fixture():
    root = Path(__file__).parent.parent
    fixtures = sorted(str(p) for p in FIXTURES.iterdir())
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "roundtrip_check.py"), *fixtures],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": OK (") == len(fixtures)


def test_commands_without_fragments_do_not_import_jsonschema(tmp_path):
    data = tmp_path / "patients.csv"
    data.write_text("patientId,bloodSugar\n1,150\n2,250\n")
    script = (
        "import sys\n"
        "from kava.cli import main\n"
        "listing4, data = sys.argv[1:]\n"
        "assert main(['validate', listing4]) == 0\n"
        "assert main(['manifest', listing4, data, '--concept', 'icd10:R73']) == 0\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "listing4.ttl"), str(data)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _fragment_exports(tmp_path, out):
    """export-vis argument lists, one per pattern, each writing to out."""
    data = tmp_path / "obs.csv"
    data.write_text("patientId,glucose,t\n1,150,1\n2,250,2\n3,260,3\n4,100,4\n")
    return [
        ["export-vis", str(FIXTURES / "gps_scheme.ttl"), "--pattern", "tree", "-o", out],
        ["export-vis", str(FIXTURES / "listing4.ttl"), "--pattern", "threshold", "-o", out],
        ["export-vis", str(FIXTURES / "listing5.ttl"), str(data), "--pattern", "marks",
         "-o", out],
        ["export-vis", str(FIXTURES / "listing5.ttl"), str(data), "--pattern", "aggregate",
         "--concept", "icd10:R73", "-o", out],
    ]


# A tree whose names are numbers: its first edge's source fails the schema.
_BAD_TREE = "internal error: fragment fails its schema at '/edges/0/source' (type): 1\n"


def test_valid_fragments_are_checked_once_without_jsonschema(tmp_path):
    exports = _fragment_exports(tmp_path, str(tmp_path / "fragment.json"))
    # Each fragment goes through the compiled check once, and passes it;
    # then a tree whose names are numbers fails it, and jsonschema is still
    # not loaded.
    script = (
        "import json, sys\n"
        "from kava import utilization\n"
        "from kava.cli import main\n"
        "check, verdicts = utilization._check(), []\n"
        "utilization._check = lambda: lambda doc: verdicts.append(check(doc)) or verdicts[-1]\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert verdicts == [None] * (i + 1), (argv, verdicts)\n"
        "    assert 'jsonschema' not in sys.modules, ('jsonschema imported', argv)\n"
        "utilization._concept_name = lambda iri, prefixes: 1\n"
        "assert main(json.loads(sys.argv[1])[0]) == 3\n"
        "assert verdicts[4:] == [(('edges', 0, 'source'), 'type', 1)], verdicts\n"
        "assert 'jsonschema' not in sys.modules\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(exports)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == _BAD_TREE


def test_export_vis_runs_with_jsonschema_blocked(tmp_path, capsys):
    # Every pattern writes the same bytes in an interpreter that cannot
    # import jsonschema as in this one, where it is importable; a bad tree
    # exits 3.
    assert importlib.util.find_spec("jsonschema") is not None
    blocked = _fragment_exports(tmp_path, str(tmp_path / "blocked.json"))
    script = (
        "import json, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from kava import utilization\n"
        "from kava.cli import main\n"
        "written = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    written.append(open(argv[-1], 'rb').read().hex())\n"
        "utilization._concept_name = lambda iri, prefixes: 1\n"
        "assert main(json.loads(sys.argv[1])[0]) == 3\n"
        "print(json.dumps(written))\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(blocked)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == _BAD_TREE
    out = tmp_path / "fragment.json"
    expected = []
    for argv in _fragment_exports(tmp_path, str(out)):
        assert main(argv) == 0
        expected.append(out.read_bytes().hex())
    assert json.loads(proc.stdout.splitlines()[-1]) == expected


def test_graph_only_commands_do_not_import_numpy(tmp_path):
    data = tmp_path / "patients.csv"
    data.write_text("patientId,bloodSugar\n1,150\n2,250\n")
    script = (
        "import sys\n"
        "from kava.cli import main\n"
        "listing4, data, out = sys.argv[1:]\n"
        "assert main(['validate', listing4]) == 0\n"
        "assert main(['convert', listing4, '--to', 'jsonld', '-o', out + '.jsonld']) == 0\n"
        "assert main(['convert', out + '.jsonld', '--to', 'ttl', '-o', out + '.ttl']) == 0\n"
        "assert main(['annotate', out + '.ttl', '--concept', 'icd10:R73',\n"
        "             '--prototype', 'patientId=1', '--creator', 'A']) == 0\n"
        "assert main(['export-vis', listing4, '--pattern', 'threshold',\n"
        "             '-o', out + '.json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert main(['manifest', listing4, data, '--concept', 'icd10:R73']) == 0\n"
        "assert 'numpy' not in sys.modules, 'manifest imported numpy'\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "listing4.ttl"), str(data),
         str(tmp_path / "store")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _modules_after(*argvs) -> set:
    """The modules a fresh interpreter has loaded once ``main`` has run
    each argv, each exiting 0."""
    script = (
        "import json, sys\n"
        "from kava.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


GRAPH_COMMANDS = {
    "validate": lambda store, tmp: ["validate", store],
    "annotate": lambda store, tmp: ["annotate", store, "--concept", "icd10:R73",
                                    "--prototype", "patientId=1", "--creator", "A"],
    "convert --to ttl": lambda store, tmp: ["convert", store, "--to", "ttl",
                                            "-o", str(tmp / "out.ttl")],
}
DATA_MODULES = {"kava.jsonld", "kava.jsontext", "kava.utilization", "kava.dataset", "kava.gait",
                "numpy"}


@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_graph_commands_on_turtle_load_no_data_or_json_module(tmp_path, command):
    store = tmp_path / "store.ttl"
    shutil.copyfile(FIXTURES / "listing4.ttl", store)
    loaded = _modules_after(GRAPH_COMMANDS[command](str(store), tmp_path))
    assert "kava.turtle" in loaded
    assert not loaded & DATA_MODULES, sorted(loaded & DATA_MODULES)


def test_manifest_loads_no_skos_or_jsonld_module(tmp_path):
    loaded = _modules_after(
        ["manifest", str(FIXTURES / "listing4.ttl"), _sugar_csv(tmp_path), "--concept", "icd10:R73"]
    )
    assert "kava.dataset" in loaded
    assert not loaded & {"kava.skos", "kava.jsonld"}, sorted(loaded & {"kava.skos", "kava.jsonld"})


def _bare_modules() -> set:
    """The modules a bare interpreter, ``python -c pass``, has loaded."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True)
    return set(proc.stdout.split())


def test_graph_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    store = tmp_path / "store.ttl"
    shutil.copyfile(FIXTURES / "listing4.ttl", store)
    argvs = [argv(str(store), tmp_path) for argv in GRAPH_COMMANDS.values()]
    loaded = _modules_after(*argvs) - _bare_modules()
    assert "kava.turtle" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})


def test_manifest_loads_no_dataclasses(tmp_path):
    loaded = _modules_after(
        ["manifest", str(FIXTURES / "listing4.ttl"), _sugar_csv(tmp_path), "--concept", "icd10:R73"]
    ) - _bare_modules()
    assert "kava.dataset" in loaded
    assert "dataclasses" not in loaded


RECORDS_COMMANDS = {
    "manifest": ["manifest", "{fixtures}/listing5.ttl", "{data}", "--concept", "icd10:R73"],
    "export-vis tree": ["export-vis", "{fixtures}/gps_scheme.ttl", "--pattern", "tree"],
    "export-vis threshold": ["export-vis", "{fixtures}/listing4.ttl", "--pattern", "threshold"],
    "export-vis marks": ["export-vis", "{fixtures}/listing5.ttl", "{data}", "--pattern", "marks"],
    "export-vis aggregate": ["export-vis", "{fixtures}/listing5.ttl", "{data}",
                             "--pattern", "aggregate", "--concept", "icd10:R73"],
}


@pytest.mark.parametrize("command", RECORDS_COMMANDS)
def test_records_commands_start_without_numpy(tmp_path, command):
    """The records path (CSV columns, masks, fragments) is pure Python: a
    fresh interpreter that runs one of these commands never imports numpy."""
    data = tmp_path / "obs.csv"
    data.write_text("patientId,glucose,t\n1,150,1\n2,250,2\n3,260,\n4,100,4\n")
    argv = [a.format(fixtures=FIXTURES, data=data) for a in RECORDS_COMMANDS[command]]
    loaded = _modules_after(argv)
    assert "kava.utilization" in loaded or "kava.dataset" in loaded
    assert "numpy" not in loaded


def test_gait_analyze_still_loads_numpy(gait_workspace):
    knowledge, trials = gait_workspace
    assert main(["gait", "add-prototype", "--knowledge", knowledge, "--trials", trials,
                 "--patient", "2", "--concept", "gps:affectedKnee"]) == 0
    loaded = _modules_after(
        ["gait", "analyze", "--knowledge", knowledge, "--trials", trials, "--patient", "1"]
    )
    assert {"kava.gait", "numpy"} <= loaded


def test_star_import_resolves_every_public_name():
    import kava

    names = {}
    exec("from kava import *", names)
    assert set(kava.__all__) <= set(names)
    assert names["parse_jsonld"] is parse_jsonld
    assert names["serialize_jsonld"] is serialize_jsonld
    with pytest.raises(AttributeError):
        kava.no_such_name


IDENTIFIERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf")]),
    st.builds(float, st.just("nan")),  # a new NaN object per draw
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sets(st.integers()),
        st.sets(st.floats() | IDENTIFIERS.filter(lambda x: type(x) is float)),
        st.sets(st.text(max_size=3)),
        st.sets(IDENTIFIERS),
    )
)
@example({3, 1, 2})
@example({1.5, -0.0, float("inf"), float("-inf")})
@example({float("nan"), 1.0, float("nan")})
@example({1, 1.5, "a", float("nan")})
def test_manifest_sort_matches_keyed_sort(ids):
    keyed = sorted(ids, key=lambda x: (str(type(x)), x != x, x))
    assert list(map(id, cli.sorted_identifiers(ids))) == list(map(id, keyed))


def test_parser_built_once_answers_like_a_fresh_one(capsys, tmp_path):
    data = _sugar_csv(tmp_path)
    listing4 = str(FIXTURES / "listing4.ttl")
    commands = [
        ["validate", listing4],
        ["manifest", listing4, data, "--concept", "icd10:R73"],
        ["manifest", listing4, data],  # argparse: --concept is required
        ["convert", listing4, "--to", "jsonld"],
        ["export-vis", listing4, data, "--pattern", "marks"],
        ["gait", "analyze", "--knowledge", listing4],  # argparse: missing options
        ["export-vis", listing4, "--pattern", "threshold"],
        ["manifest", listing4, data, "--concept", "icd10:R73", "--id-var", "bloodSugar"],
    ]

    def answers(fresh):
        out = []
        for argv in commands:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    reused = answers(fresh=False)
    assert [a[0] for a in reused] == [0, 0, ("exit", 2), 0, 0, ("exit", 2), 0, 0]
    assert reused == answers(fresh=True)


def test_gait_demo_script_writes_its_outputs(tmp_path):
    root = Path(__file__).parent.parent
    out = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "gait_demo.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    patients = ["a0", "a1", "a2", "n0", "n1", "n2"]
    assert written == {
        "knowledge.ttl",
        "knowledge_table.json",
        "concept_tree.json",
        "cadence_region.json",
        "trials/metadata.csv",
        *(f"trials/{p}_{side}.csv" for p in patients for side in ("left", "right")),
    }
    assert len(load_manifestations(parse_turtle((out / "knowledge.ttl").read_text()))) == 7
    table = json.loads((out / "knowledge_table.json").read_text())
    assert [row["prototypes"] for row in table] == [patients[:3], patients[3:]]
    for name in ("concept_tree.json", "cadence_region.json"):
        validate_fragment(json.loads((out / name).read_text()))


def test_convert_to_stdout(capsys):
    code = main(["convert", str(FIXTURES / "listing1.ttl"), "--to", "jsonld"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)[0]["@id"] == "gps:midKnee"


def test_convert_empty_graph(capsys, tmp_path):
    empty = tmp_path / "empty.ttl"
    empty.write_text("")
    code = main(["convert", str(empty), "--to", "jsonld"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_convert_missing_input(capsys):
    code, _, err = run(capsys, "convert", "/nope.ttl", "--to", "jsonld")
    assert code == 2


@pytest.mark.parametrize(
    "iri",
    ["urn:example:a", "https://example.org/a", "http://example.org/kava/vocab#a:b"],
    ids=["urn", "https", "colon-in-local-part"],
)
def test_convert_to_jsonld_names_every_iri_readably(capsys, tmp_path, iri):
    src = tmp_path / "names.ttl"
    src.write_text(f'<{iri}> skos:related <{iri}> ;\n    skos:prefLabel "x" .\n')
    out = tmp_path / "names.jsonld"
    code, _, err = run(capsys, "convert", str(src), "--to", "jsonld", "-o", str(out))
    assert (code, err) == (0, "")
    doc = json.loads(out.read_text())
    assert doc[0]["@id"] == iri
    assert doc[0]["@context"] == {"skos": "http://www.w3.org/2004/02/skos/core#"}
    code, lines, _ = run(capsys, "validate", str(out))
    assert code == 0 and lines == []
    assert isomorphic_trees(read_graph(str(out)), read_graph(str(src)))


def test_convert_to_jsonld_rejects_an_iri_it_cannot_name(capsys, tmp_path):
    src = tmp_path / "mail.ttl"
    src.write_text('<mailto:a@example.org> skos:prefLabel "x" .\n')
    out = tmp_path / "mail.jsonld"
    code, lines, err = run(capsys, "convert", str(src), "--to", "jsonld", "-o", str(out))
    assert code == 2 and lines == []
    assert "<mailto:a@example.org>" in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", str(FIXTURES / "listing1.ttl"), "--to", "jsonld"],
        ["export-vis", str(FIXTURES / "gps_scheme.ttl"), "--pattern", "tree"],
    ],
    ids=["convert", "export-vis"],
)
def test_output_into_missing_directory_is_input_error(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "out.json"
    code, lines, err = run(capsys, *argv, "-o", str(out))
    assert code == 2 and lines == []
    assert "No such file or directory" in err and "internal error" not in err
    assert str(out) in err and ".tmp" not in err  # the path given, not the temporary file
    assert list(tmp_path.rglob("*")) == []


def test_export_vis_tree_reads_no_manifestations(capsys, tmp_path):
    scheme = fixture_text("gps_scheme.ttl")
    store = tmp_path / "store.ttl"
    store.write_text(scheme + '\ngps:x kava:manifest [ kava:matchQuery "[a] > 1";\n'
                     '  kava:isPrototype [ kava:variable "a"; kava:value 1 ] ] .\n')
    code, lines, _ = run(capsys, "validate", str(store))
    assert code == 1 and "MalformedManifestation" in [line["kind"] for line in lines]
    code = main(["export-vis", str(store), "--pattern", "tree"])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert main(["export-vis", str(FIXTURES / "gps_scheme.ttl"), "--pattern", "tree"]) == 0
    assert capsys.readouterr().out == out.out
    code, _, err = run(capsys, "export-vis", str(store), "--pattern", "threshold")
    assert code == 2 and "expected exactly one mapping kind, found 2" in err


# --- manifest -------------------------------------------------------------


def _sugar_csv(tmp_path):
    data = tmp_path / "patients.csv"
    data.write_text("patientId,bloodSugar\n1,150\n2,200\n3,250\n")
    return str(data)


def test_manifest_inclusive_range(capsys, tmp_path):
    code, lines, _ = run(
        capsys,
        "manifest",
        str(FIXTURES / "listing4.ttl"),
        _sugar_csv(tmp_path),
        "--concept",
        "icd10:R73",
    )
    assert code == 0
    assert lines[0] == [2, 3]


def test_nan_cell_is_outside_every_range(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    store.write_text(
        'icd10:R73 kava:manifest [ kava:matchVariable [ kava:variable "glucose"; '
        "kava:minValue 100; kava:maxValue 300 ] ] .\n"
        'icd10:R74 kava:manifest [ kava:matchQuery "[glucose] >= 100 AND [glucose] <= 300" ] .\n'
    )
    data = tmp_path / "data.csv"
    data.write_text("id,glucose\n1,5.0\n2,nan\n3,200\n")
    for concept in ("icd10:R73", "icd10:R74"):
        code, lines, _ = run(capsys, "manifest", str(store), str(data), "--concept", concept)
        assert (code, lines) == (0, [[3]])


@pytest.mark.parametrize(
    "header, id_var",
    [("patientId,bloodSugar,bloodSugar", None), ("patientId,bloodSugar", "glucose"), ("", None)],
)
@pytest.mark.parametrize("command", ["manifest", "export-vis"])
def test_bad_data_header_or_id_var_is_input_error(capsys, tmp_path, header, id_var, command):
    data = tmp_path / "patients.csv"
    data.write_text(header + "\n" + "\n".join(f"{i},1,2" for i in range(3)) + "\n")
    argv = [command, str(FIXTURES / "listing4.ttl"), str(data)]
    argv += ["--concept", "icd10:R73"] if command == "manifest" else ["--pattern", "marks"]
    argv += ["--id-var", id_var] if id_var else []
    code, lines, err = run(capsys, *argv)
    assert code == 2
    assert lines == []
    assert "internal error" not in err
    want = {"": "the header row is blank", "patientId,bloodSugar": "'glucose' is not in header"}
    assert want.get(header, "more than once") in err


def test_manifest_strict_query(capsys, tmp_path):
    data = tmp_path / "patients.csv"
    data.write_text("patientId,glucose\n1,150\n2,200\n3,250\n")
    code, lines, _ = run(
        capsys,
        "manifest",
        str(FIXTURES / "listing5.ttl"),
        str(data),
        "--concept",
        "icd10:R73",
    )
    assert code == 0
    assert lines[0] == [3]


def test_manifest_foreign_dialect_warns(capsys, tmp_path):
    knowledge = tmp_path / "foreign.ttl"
    knowledge.write_text(
        "icd10:R73 kava:manifest [\n"
        '  kava:matchQuery "SELECT * FROM t";\n'
        '  kava:queryDialect "sql"\n'
        "] ."
    )
    code, lines, err = run(
        capsys,
        "manifest",
        str(knowledge),
        _sugar_csv(tmp_path),
        "--concept",
        "icd10:R73",
    )
    assert code == 1
    assert lines[0] == []
    assert "foreign dialect" in err


_UNION_STORE = (
    "icd10:R73 kava:manifest\n"
    '  [ kava:matchQuery "[glucose] > 240" ],\n'
    '  [ kava:matchQuery "[glucose] < 160" ],\n'
    '  [ kava:matchVariable [ kava:variable "glucose"; kava:minValue 140; kava:maxValue 155 ] ],\n'
    '  [ kava:matchQuery "SELECT * FROM t"; kava:queryDialect "sql" ] .\n'
    'icd10:R74 kava:manifest [ kava:matchQuery "[glucose] > 0" ] .\n'
)


def test_manifest_prints_the_union_and_warns_on_a_foreign_dialect(capsys, tmp_path):
    knowledge = tmp_path / "union.ttl"
    knowledge.write_text(_UNION_STORE)
    data = tmp_path / "patients.csv"
    data.write_text("patientId,glucose\n1,150\n2,200\n3,250\n4,155\n5,170\n")
    code, lines, err = run(capsys, "manifest", str(knowledge), str(data), "--concept", "icd10:R73")
    # 1 and 4 match two manifestations each; R74, which matches all five, is not asked for
    assert (code, lines) == (1, [[1, 3, 4]])
    assert err == "warning: manifestation m0 uses foreign dialect 'sql'; not evaluated\n"


def test_marks_skips_a_foreign_dialect_as_manifest_does(capsys, tmp_path):
    data = tmp_path / "patients.csv"
    data.write_text("patientId,glucose\n1,150\n2,200\n3,250\n4,155\n5,170\n")
    foreign_line = '  [ kava:matchQuery "SELECT * FROM t"; kava:queryDialect "sql" ] .\n'
    native = _UNION_STORE.replace(",\n" + foreign_line, " .\n")
    assert native != _UNION_STORE
    fragments = {}
    for name, store_text in (("union.ttl", _UNION_STORE), ("native.ttl", native)):
        store = tmp_path / name
        store.write_text(store_text)
        out = tmp_path / f"{name}.json"
        code, _, err = run(capsys, "export-vis", str(store), str(data), "--pattern", "marks",
                           "-o", str(out))
        fragments[name] = (code, err, out.read_text())
    _, _, warning = run(capsys, "manifest", str(tmp_path / "union.ttl"), str(data),
                        "--concept", "icd10:R73")
    assert fragments["union.ttl"][:2] == (1, warning)
    assert warning.startswith("warning: ") and warning.count("\n") == 1
    assert fragments["native.ttl"][:2] == (0, "")
    assert fragments["union.ttl"][2] == fragments["native.ttl"][2]
    # aggregate over a foreign manifestation it selected is still an input error
    foreign = tmp_path / "foreign.ttl"
    foreign.write_text("icd10:R73 kava:manifest\n" + foreign_line)
    code, _, err = run(capsys, "export-vis", str(foreign), str(data), "--pattern", "aggregate",
                       "--concept", "icd10:R73", "--time-var", "glucose")
    assert (code, err) == (2, "query dialect 'sql' is not evaluable locally\n")


_ID_TEXTS = ["1", "2", "3", "1.0", "-0.0", "0", "0.5", "1.5", "2.5", "nan", "NaN", "inf",
             "a", "007"]
_GLUCOSE_TEXTS = ["", "100", "150", "200", "250", "nan", "x", "-0.0"]
_MAPPINGS = [
    '[ kava:matchQuery "[glucose] > 180" ]',
    '[ kava:matchQuery "[glucose] < 160 OR [id] = 3" ]',
    '[ kava:matchVariable [ kava:variable "glucose"; kava:minValue 150 ] ]',
    '[ kava:isPrototype [ kava:variable "id"; kava:value 2 ] ]',
    '[ kava:matchQuery "SELECT 1"; kava:queryDialect "sql" ]',
]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(_ID_TEXTS), unique=True, max_size=8).flatmap(
        lambda ids: st.lists(st.sampled_from(_GLUCOSE_TEXTS), min_size=len(ids),
                             max_size=len(ids)).map(lambda gs: list(zip(ids, gs)))
    ),
    st.lists(st.sampled_from(_MAPPINGS), unique=True, max_size=4),
)
# NaN among other float identifiers: sorted with NaN last, not where the set put it
@example([("5.0", "200"), ("nan", "200"), ("6.0", "200"), ("7.0", "200")], [_MAPPINGS[0]])
def test_manifest_prints_the_sorted_union_of_evaluate_manifestation(rows, mappings):
    with tempfile.TemporaryDirectory() as tmp:
        data, knowledge = Path(tmp, "data.csv"), Path(tmp, "store.ttl")
        data.write_text("id,glucose\n" + "".join(f"{i},{g}\n" for i, g in rows))
        knowledge.write_text(
            "".join(f"icd10:R73 kava:manifest {m} .\n" for m in mappings)
            + 'icd10:R74 kava:manifest [ kava:matchQuery "[glucose] > 0" ] .\n'
        )
        try:
            dataset = read_table(str(data), None)
        except KavaError:  # equal identifiers, such as 1 and 1.0
            assume(False)
        graph = read_graph(str(knowledge))
        union, foreign = set(), False
        for m in load_manifestations(graph):
            if m.concept != graph.expand("icd10:R73"):
                continue
            try:
                union |= evaluate_manifestation(m, dataset)
            except ForeignDialect:
                foreign = True
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["manifest", str(knowledge), str(data), "--concept", "icd10:R73"])
    assert code == (1 if foreign else 0)
    want = sorted(union, key=lambda x: (str(type(x)), x != x, x))
    assert out.getvalue() == json.dumps(want) + "\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "{store}"], 1),
        (["manifest", "{store}", "{data}", "--concept", "icd10:R73"], 2),
        (["export-vis", "{store}", "{data}", "--pattern", "marks"], 2),
        (["export-vis", "{store}", "--pattern", "threshold"], 2),
    ],
    ids=["validate", "manifest", "marks", "threshold"],
)
def test_a_bound_that_is_not_a_number_is_malformed(capsys, tmp_path, argv, code):
    store = tmp_path / "store.ttl"
    store.write_text('icd10:R73 kava:manifest [ kava:matchVariable\n'
                     '  [ kava:variable "glucose"; kava:minValue "abc" ] ] .\n')
    data = tmp_path / "data.csv"
    data.write_text("id,glucose\n1,250\n")
    got, lines, err = run(capsys, *(a.format(store=store, data=data) for a in argv))
    assert got == code
    reason = f"<{DEFAULT_PREFIXES['icd10']}R73>: kava:minValue must be a number"
    if code == 1:
        assert [(line["kind"], line["detail"]) for line in lines] == [
            ("MalformedManifestation", "kava:minValue must be a number")
        ]
    else:
        assert (lines, err) == ([], reason + "\n")


# --- annotate -------------------------------------------------------------


def test_annotate_reproduces_known_document(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    store.write_text("")
    code, lines, _ = run(
        capsys,
        "annotate",
        str(store),
        "--concept",
        "icd10:R73",
        "--prototype",
        "patientId=12345",
        "--creator",
        "Doctor Dreamy",
        "--date",
        "2019-02-04",
    )
    assert code == 0 and lines[0]["changed"] is True
    assert isomorphic_trees(
        parse_turtle(store.read_text()), parse_turtle(fixture_text("listing3.ttl"))
    )


def test_annotate_idempotent(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    shutil.copy(FIXTURES / "listing3.ttl", store)
    args = [
        "annotate", str(store),
        "--concept", "icd10:R73",
        "--prototype", "patientId=12345",
        "--creator", "Doctor Dreamy",
        "--date", "2019-02-04",
    ]
    before = store.read_text()
    code, lines, _ = run(capsys, *args)
    assert code == 0 and lines[0]["changed"] is False
    assert store.read_text() == before


def test_annotate_appends_second_prototype(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    shutil.copy(FIXTURES / "listing3.ttl", store)
    code, lines, _ = run(
        capsys,
        "annotate",
        str(store),
        "--concept",
        "icd10:R73",
        "--prototype",
        "patientId=777",
        "--creator",
        "Doctor Dreamy",
    )
    assert code == 0 and lines[0]["changed"] is True
    assert len(load_manifestations(parse_turtle(store.read_text()))) == 2


def test_written_files_keep_their_permission_bits(tmp_path):
    """Under umask 022 a new output file is 0644, and an edited store keeps
    its mode, although the temporary file renamed into place is 0600."""
    stores = {}
    for mode in (0o664, 0o600):
        stores[mode] = tmp_path / f"store_{mode:o}.ttl"
        shutil.copy(FIXTURES / "listing3.ttl", stores[mode])
        stores[mode].chmod(mode)
    outputs = [tmp_path / "out.jsonld", tmp_path / "tree.json"]
    argvs = [
        ["convert", str(FIXTURES / "listing1.ttl"), "--to", "jsonld", "-o", str(outputs[0])],
        ["export-vis", str(FIXTURES / "gps_scheme.ttl"), "--pattern", "tree",
         "-o", str(outputs[1])],
        *(["annotate", str(store), "--concept", "icd10:R73", "--prototype", "patientId=777",
           "--creator", "Doctor Dreamy"] for store in stores.values()),
    ]
    script = (
        "import json, sys\n"
        "from kava.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        umask=0o022,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0]
    assert [out.stat().st_mode & 0o777 for out in outputs] == [0o644, 0o644]
    assert {mode: store.stat().st_mode & 0o777 for mode, store in stores.items()} == {
        0o664: 0o664, 0o600: 0o600,
    }
    assert all("patientId" in store.read_text() for store in stores.values())


def test_annotate_without_creator_warns(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    store.write_text("")
    code, _, err = run(
        capsys,
        "annotate",
        str(store),
        "--concept",
        "icd10:R73",
        "--prototype",
        "patientId=1",
    )
    assert code == 0
    assert "creator" in err


def test_annotate_bad_binding(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    store.write_text("")
    code, _, _ = run(
        capsys, "annotate", str(store), "--concept", "icd10:R73",
        "--prototype", "noequalsign",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["annotate", "{store}", "--concept", "icd10:R73", "--prototype", "patientId=nan"],
        ["annotate", "{store}", "--concept", "icd10:R73", "--prototype", "patientId=inf"],
        ["annotate", "{store}", "--concept", "icd10:R73", "--prototype", "a=1", "b=1e999"],
        ["gait", "set-range", "--knowledge", "{store}", "--concept", "gps:affectedKnee",
         "--param", "cadence", "--min=nan", "--max", "1"],
        ["gait", "set-range", "--knowledge", "{store}", "--concept", "gps:affectedKnee",
         "--param", "cadence", "--min", "0", "--max=inf"],
    ],
)
def test_editing_commands_reject_non_finite_numbers(capsys, tmp_path, argv):
    store = tmp_path / "store.ttl"
    shutil.copy(FIXTURES / "gait_categories.ttl", store)
    before = store.read_text()
    code, lines, err = run(capsys, *(a.replace("{store}", str(store)) for a in argv))
    assert code == 2 and lines == []
    assert "not a valid decimal literal: " in err
    assert store.read_text() == before


@pytest.mark.parametrize("raw", ["--5", "²", "-²"])
def test_annotate_keeps_digit_like_text_as_string(capsys, tmp_path, raw):
    store = tmp_path / "store.ttl"
    store.write_text("")
    code, lines, _ = run(
        capsys, "annotate", str(store), "--concept", "icd10:R73",
        "--prototype", f"patientId={raw}", "--creator", "analyst",
    )
    assert code == 0 and lines[0]["changed"] is True
    [m] = load_manifestations(parse_turtle(store.read_text()))
    assert m.kind == DirectMapping(bindings=(("patientId", raw),))


@pytest.mark.parametrize("values", [("1", "x"), ("1", "2")])
def test_annotate_variable_bound_twice_is_input_error(capsys, tmp_path, values):
    store = tmp_path / "store.ttl"
    shutil.copy(FIXTURES / "listing3.ttl", store)
    before = store.read_bytes()
    code, lines, err = run(
        capsys, "annotate", str(store), "--concept", "icd10:R73", "--creator", "analyst",
        "--prototype", *(f"a={v}" for v in values),
    )
    assert code == 2 and lines == []
    assert err == "--prototype binds variable 'a' more than once\n"
    assert store.read_bytes() == before


# --- export-vis -----------------------------------------------------------


def test_export_tree(capsys, tmp_path):
    out = tmp_path / "tree.json"
    code, lines, _ = run(
        capsys,
        "export-vis",
        str(FIXTURES / "gps_scheme.ttl"),
        "--pattern",
        "tree",
        "-o",
        str(out),
    )
    assert code == 0 and lines[0]["kind"] == "conceptTree"
    doc = json.loads(out.read_text())
    validate_fragment(doc)
    assert len(doc["data"]["values"]) == 6


def test_export_threshold_infers_axis(capsys):
    code = main(
        ["export-vis", str(FIXTURES / "listing4.ttl"), "--pattern", "threshold"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["region"] == {"lower": {"value": 200, "inclusive": True}}
    assert doc["axis"]["variable"] == "bloodSugar"


def test_export_threshold_query_needs_axis(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "export-vis",
        str(FIXTURES / "listing5.ttl"),
        "--pattern",
        "threshold",
    )
    assert code == 2
    assert "--axis-var" in err
    data = tmp_path / "d.csv"
    code = main(
        [
            "export-vis", str(FIXTURES / "listing5.ttl"),
            "--pattern", "threshold",
            "--axis-var", "glucose",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["region"] == {"lower": {"value": 200, "inclusive": False}}


@pytest.mark.parametrize("query", ["[glucose] > 125", "SELECT * FROM t WHERE glucose > 125"])
def test_threshold_refuses_a_foreign_dialect(capsys, tmp_path, query):
    """A query in another dialect is not parsed as kava's, even when it
    would parse: threshold reports it as aggregate does."""
    store = tmp_path / "foreign.ttl"
    store.write_text(
        f'icd10:R73 kava:manifest [ kava:matchQuery "{query}"; kava:queryDialect "sql" ] .\n'
    )
    code, lines, err = run(capsys, "export-vis", str(store), "--pattern", "threshold",
                           "--concept", "icd10:R73", "--axis-var", "glucose")
    assert (code, lines, err) == (2, [], "query dialect 'sql' is not evaluable locally\n")


def test_export_marks_and_aggregate(capsys, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("patientId,glucose,t\n1,150,1\n2,250,2\n3,260,3\n4,100,4\n")
    code = main(
        [
            "export-vis", str(FIXTURES / "listing5.ttl"), str(data),
            "--pattern", "marks",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    concepts = [row["concept"] for row in doc["data"]["values"]]
    assert concepts == ["none", "icd10:R73", "icd10:R73", "none"]

    code = main(
        [
            "export-vis", str(FIXTURES / "listing5.ttl"), str(data),
            "--pattern", "aggregate", "--concept", "icd10:R73",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    enc = doc["layer"][0]["encoding"]
    assert (enc["x"]["datum"], enc["x2"]["datum"]) == (2, 3)


def test_export_aggregate_skips_records_without_time(capsys, tmp_path):
    # records 3 and 4 match but have no time value: they start no run and
    # are listed last
    data = tmp_path / "obs.csv"
    data.write_text("patientId,glucose,t\n1,150,1\n2,250,2\n3,260,\n4,270,\n5,300,5\n")
    code = main(
        [
            "export-vis", str(FIXTURES / "listing5.ttl"), str(data),
            "--pattern", "aggregate", "--concept", "icd10:R73",
        ]
    )
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    doc = json.loads(out.out)
    spans = [(l["encoding"]["x"]["datum"], l["encoding"]["x2"]["datum"]) for l in doc["layer"]]
    assert spans == [(2, 5)]
    assert [(row["id"], row["t"], row["matched"]) for row in doc["data"]["values"]] == [
        ("1", 1, "no"), ("2", 2, "yes"), ("5", 5, "yes"), ("3", None, "yes"), ("4", None, "yes"),
    ]


def test_export_marks_requires_data(capsys):
    code, _, err = run(
        capsys, "export-vis", str(FIXTURES / "listing5.ttl"), "--pattern", "marks"
    )
    assert code == 2


def test_export_marks_rejects_channel_outside_schema(capsys, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("patientId,glucose\n1,150\n")
    code, lines, err = run(
        capsys, "export-vis", str(FIXTURES / "listing5.ttl"), str(data),
        "--pattern", "marks", "--channel", "shape",
    )
    assert code == 2 and lines == []
    assert err == "unsupported channel 'shape'; expected one of: x, x2, y, y2, color, size\n"


# Cells that JSON must escape, or that look like the row layout.
_ODD_CELLS = ["Gänge", "},\n        {", '{"a": [1]} \\ "q" ]', "\x01\t\x1f\x7f", "plain"]


def _export_cases(tmp_path):
    """argv and the library's document for each export-vis pattern."""
    scheme = tmp_path / "scheme.ttl"
    scheme.write_text(
        fixture_text("gps_scheme.ttl")
        + "\ngps:odd rdf:type skos:Concept;\n"
        '  skos:prefLabel "Gänge },\\n        { \\"q\\" \\\\ [x]\\t";\n'
        "  skos:broader gps:mid;\n"
        "  skos:inScheme gps:gaitPatternSchema.\n"
    )
    store = tmp_path / "store.ttl"
    store.write_text(
        'icd10:R73 kava:manifest [ kava:matchQuery "[glucose] > 200" ].\n'
        'icd10:E11 kava:manifest [ kava:matchQuery "[glucose] > 100" ].\n'
    )
    data = tmp_path / "obs.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patientId", "glucose", "note", "score", "t"])
        scores = ["nan", "inf", "-inf", "-0.0", "1e308"]
        times = ["1", "2", "inf", "-0.0", "5"]
        for i, row in enumerate(zip([150, 250, 260, 100, 300], _ODD_CELLS, scores, times)):
            writer.writerow([i + 1, *row])
    empty = tmp_path / "empty.csv"
    empty.write_text("patientId,glucose\n")

    tree_graph = read_graph(str(scheme))
    graph = read_graph(str(store))
    manifests = load_manifestations(graph)
    listing4 = str(FIXTURES / "listing4.ttl")
    return {
        "tree": (
            ["export-vis", str(scheme), "--pattern", "tree"],
            concept_tree_spec(
                load_scheme(tree_graph, tree_graph.expand("gps:gaitPatternSchema")),
                prefixes=tree_graph.prefixes,
            ),
        ),
        "threshold": (
            ["export-vis", listing4, "--pattern", "threshold"],
            threshold_region_spec(load_manifestations(read_graph(listing4))[0].kind, "bloodSugar"),
        ),
        "marks": (
            ["export-vis", str(store), str(data), "--pattern", "marks", "--channel", "size"],
            encoded_marks_spec(read_table(str(data), None), manifests, "size", graph.prefixes),
        ),
        "marks-header-only": (
            ["export-vis", str(store), str(empty), "--pattern", "marks"],
            encoded_marks_spec(read_table(str(empty), None), manifests, "color", graph.prefixes),
        ),
        "aggregate": (
            ["export-vis", str(store), str(data), "--pattern", "aggregate",
             "--concept", "icd10:R73"],
            aggregate_mark_spec(
                read_table(str(data), None),
                next(m for m in manifests if m.concept == graph.expand("icd10:R73")),
                "t",
            ),
        ),
    }


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize(
    "case", ["tree", "threshold", "marks", "marks-header-only", "aggregate"]
)
def test_export_vis_writes_indented_dumps_of_the_document(capsys, tmp_path, case, to_file):
    argv, doc = _export_cases(tmp_path)[case]
    expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if to_file:
        out = tmp_path / "fragment.json"
        code = main([*argv, "-o", str(out)])
        assert json.loads(capsys.readouterr().out) == {"written": str(out), "kind": doc["kind"]}
        assert out.read_text(encoding="utf-8") == expected
    else:
        code = main(argv)
        assert capsys.readouterr().out == expected
    assert code == 0


@pytest.mark.parametrize("where", ["data header", "data row", "force file"])
def test_csv_the_reader_refuses_is_input_error(capsys, gait_workspace, tmp_path, where):
    knowledge, trials = gait_workspace
    big = "x" * (csv.field_size_limit() + 1)  # a field longer than csv.reader takes
    data = tmp_path / "big.csv"
    manifest = ["manifest", str(FIXTURES / "listing5.ttl"), str(data), "--concept", "icd10:R73"]
    gait = ["gait", "analyze", "--knowledge", knowledge, "--trials", trials, "--patient", "2"]
    path, text, line, argv = {
        "data header": (data, f"patientId,{big}\n1,5\n", 1, manifest),
        "data row": (data, f"patientId,glucose\n1,5\n2,{big}\n", 3, manifest),
        "force file": (Path(trials, "2_left.csv"), f"t,v\n0.0,{big}\n", 2, gait),
    }[where]
    path.write_text(text)
    code, lines, err = run(capsys, *argv)
    assert (code, lines) == (2, [])
    named = f"{str(path)!r}: " if argv is gait else ""  # a force file is named
    assert err.startswith(f"{named}line {line}: field larger than field limit"), err


# --- gait -----------------------------------------------------------------


@pytest.fixture
def gait_workspace(tmp_path):
    knowledge = tmp_path / "categories.ttl"
    shutil.copy(FIXTURES / "gait_categories.ttl", knowledge)
    trials_dir = tmp_path / "trials"
    write_trials_dir(
        trials_dir,
        [
            square_wave_trial("1", stance=0.55, age=30, body_mass=70.0),
            square_wave_trial("2", stance=0.60, age=45, body_mass=80.0),
            square_wave_trial("3", stance=0.65, age=60, body_mass=90.0),
        ],
    )
    return str(knowledge), str(trials_dir)


def test_gait_pipeline_end_to_end(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    for pid in ("1", "3"):
        code, lines, _ = run(
            capsys,
            "gait", "add-prototype",
            "--knowledge", knowledge,
            "--trials", trials,
            "--patient", pid,
            "--concept", "gps:affectedKnee",
            "--creator", "analyst",
        )
        assert code == 0 and lines[0]["prototype"] == pid

    code, lines, _ = run(
        capsys,
        "gait", "analyze",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "2",
    )
    assert code == 0 and len(lines) == 1
    row = lines[0]
    assert "affectedKnee" in row["concept"]
    assert 0.0 <= row["score"] <= 1.0
    # patient 2's stance lies strictly between the two prototypes
    assert row["perParameter"]["stance_time_left"] == "inside"

    code, lines, _ = run(
        capsys,
        "gait", "set-range",
        "--knowledge", knowledge,
        "--concept", "gps:affectedKnee",
        "--param", "cadence",
        "--min", "0", "--max", "1",
    )
    assert code == 0 and lines[0]["param"] == "cadence"

    code, lines, _ = run(
        capsys,
        "gait", "analyze",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "2",
    )
    assert code == 0
    assert lines[0]["perParameter"]["cadence"] == "above"

    code, lines, _ = run(
        capsys,
        "gait", "table",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "2",
    )
    assert code == 0
    cell = lines[0]["parameters"]["cadence"]
    assert cell["overridden"] is True and cell["range"] == [0.0, 1.0]


def test_gait_duplicate_prototype(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    args = [
        "gait", "add-prototype",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "1",
        "--concept", "gps:affectedKnee",
    ]
    assert main(args) == 0
    capsys.readouterr()
    code, _, err = run(capsys, *args)
    assert code == 2


def test_gait_population_filter(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    for pid in ("1", "2", "3"):
        assert main(
            [
                "gait", "add-prototype",
                "--knowledge", knowledge,
                "--trials", trials,
                "--patient", pid,
                "--concept", "gps:affectedKnee",
            ]
        ) == 0
    capsys.readouterr()
    code, lines, _ = run(
        capsys,
        "gait", "analyze",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "1",
        "--filter", "[age] > 40",
    )
    assert code == 0
    # the narrower population (patients 2 and 3) excludes patient 1's stance
    assert lines[0]["perParameter"]["stance_time_left"] == "below"


def test_gait_missing_patient(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    code, _, err = run(
        capsys,
        "gait", "analyze",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "99",
    )
    assert code == 2
    assert "99" in err


def test_gait_add_prototype_reads_only_its_patient(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    Path(trials, "2_left.csv").write_text("t,v\n0.0,1\nnot a time,2\n")
    args = [
        "gait", "add-prototype",
        "--knowledge", knowledge,
        "--trials", trials,
        "--concept", "gps:affectedKnee",
    ]
    code, lines, _ = run(capsys, *args, "--patient", "1")
    assert code == 0
    assert lines == [{"written": knowledge, "prototype": "1"}]
    # the patient's own malformed force file still stops the command
    code, _, err = run(capsys, *args, "--patient", "2")
    assert code == 2
    assert "row 3" in err
    code, _, err = run(capsys, *args, "--patient", "99")
    assert code == 2
    assert "patient '99' not found in trials dir" in err


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("t,v\n0.0,1\nnot a time,2\n", CsvTypeError,
         "row 3, column 't/v': bad sample row: ['not a time', '2']"),
        ("t,v\n0.0," + "9" * (csv.field_size_limit() + 1) + "\n", CsvSyntaxError,
         f"line 2: field larger than field limit ({csv.field_size_limit()})"),
    ],
    ids=["bad row", "field past the limit"],
)
def test_gait_names_the_bad_force_file(capsys, gait_workspace, text, error, message):
    knowledge, trials = gait_workspace
    path = Path(trials, "2_left.csv")
    path.write_text(text)
    code, lines, err = run(capsys, "gait", "analyze", "--knowledge", knowledge,
                           "--trials", trials, "--patient", "2")
    assert (code, lines) == (2, [])
    assert err == f"{str(path)!r}: {message}\n"
    with pytest.raises(error) as exc:  # the class is kept
        load_trials_dir(trials)
    assert type(exc.value) is error and str(exc.value) == f"{str(path)!r}: {message}"


def _add_prototypes(knowledge, trials, *pids):
    for pid in pids:
        assert main(
            [
                "gait", "add-prototype",
                "--knowledge", knowledge,
                "--trials", trials,
                "--patient", pid,
                "--concept", "gps:affectedKnee",
            ]
        ) == 0


def _set_range(knowledge, concept, param, lo, hi):
    argv = ["gait", "set-range", "--knowledge", knowledge, "--concept", concept,
            "--param", param, "--min", lo, "--max", hi]
    assert main(argv) == 0


def test_gait_set_range_replaces_the_parameters_earlier_override(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1", "3")
    _set_range(knowledge, "gps:affectedHip", "cadence", "1", "2")
    _set_range(knowledge, "gps:affectedKnee", "stance_time_left", "0.5", "0.7")
    for lo, hi in (("100", "125"), ("95", "130"), ("110", "120")):
        _set_range(knowledge, "gps:affectedKnee", "cadence", lo, hi)
    capsys.readouterr()
    code, lines, _ = run(
        capsys, "gait", "table", "--knowledge", knowledge, "--trials", trials, "--patient", "2"
    )
    assert code == 0
    assert lines[0]["parameters"]["cadence"]["range"] == [110.0, 120.0]
    graph = read_graph(knowledge)
    knee, hip = (graph.expand(f"gps:affected{c}") for c in ("Knee", "Hip"))
    overrides = [
        (m.concept, m.kind.variable_name())
        for m in load_manifestations(graph)
        if isinstance(m.kind, IndirectVariableMapping)
    ]
    assert sorted(overrides, key=str) == sorted(
        [(knee, "cadence"), (knee, "stance_time_left"), (hip, "cadence")], key=str
    )
    assert range_overrides_from_graph(graph, hip) == {"cadence": (1, 2)}
    assert prototype_ids(graph, knee) == [1, 3]


def test_gait_set_range_on_an_unknown_concept_is_input_error(capsys, tmp_path):
    store = tmp_path / "store.ttl"
    shutil.copy(FIXTURES / "gait_categories.ttl", store)
    before = store.read_bytes()
    code, lines, err = run(
        capsys, "gait", "set-range", "--knowledge", str(store),
        "--concept", "gps:noSuchCategory", "--param", "cadence", "--min", "1", "--max", "2",
    )
    assert (code, lines) == (2, [])
    assert "noSuchCategory" in err and "internal error" not in err
    assert store.read_bytes() == before


@pytest.mark.parametrize(
    "argv",
    [
        ["annotate", "{store}", "--concept", "gps:affectedKnee", "--prototype", "patientId=2"],
        ["gait", "add-prototype", "--knowledge", "{store}", "--trials", "{trials}",
         "--patient", "2", "--concept", "gps:affectedKnee"],
        ["gait", "set-range", "--knowledge", "{store}", "--concept", "gps:affectedKnee",
         "--param", "cadence", "--min", "0", "--max", "1"],
    ],
    ids=["annotate", "add-prototype", "set-range"],
)
def test_editing_commands_load_manifestations_once(capsys, gait_workspace, monkeypatch, argv):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1")
    _set_range(knowledge, "gps:affectedKnee", "cadence", "50", "60")
    load, loads = manifestation._load, []
    monkeypatch.setattr(manifestation, "_load", lambda graph: loads.append(graph) or load(graph))
    fill = {"{store}": knowledge, "{trials}": trials}
    capsys.readouterr()
    code, lines, _ = run(capsys, *(fill.get(a, a) for a in argv))
    assert code == 0 and len(lines) == 1
    assert len(loads) == 1


# A predicate constant of more digits than int() reads is read as a float.
LONG_NINES = "9" * 5000


def test_validate_store_with_long_predicate_constant(capsys, tmp_path):
    store = tmp_path / "long.ttl"
    store.write_text(fixture_text("listing5.ttl").replace("> 200", "> " + LONG_NINES))
    code, _, err = run(capsys, "validate", str(store))
    assert code in (0, 1, 2)
    assert "internal error" not in err


def test_gait_filter_with_long_predicate_constant(capsys, gait_workspace):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1", "3")
    args = ["gait", "analyze", "--knowledge", knowledge, "--trials", trials, "--patient", "2"]
    capsys.readouterr()
    unfiltered = run(capsys, *args)
    code, lines, err = run(capsys, *args, "--filter", f"[age] < {LONG_NINES}")
    assert code in (0, 1, 2)
    assert "internal error" not in err
    assert (code, lines, err) == unfiltered  # every prototype is younger than that


# Predicates of any length and nesting parse and evaluate within the
# default recursion limit. A recursive parser made `validate` exit 3 under
# 327 parentheses or 981 NOTs, and recursive walkers made `manifest` exit 3
# on a chain of 989 terms.
def _query_store(tmp_path, name, query):
    store = tmp_path / name
    store.write_text(f'icd10:R73 kava:manifest [ kava:matchQuery "{query}" ] .\n')
    return str(store)


def test_a_query_that_ors_1200_codes_is_evaluated(capsys, tmp_path, default_recursion_limit):
    codes = range(1, 1201)
    store = _query_store(tmp_path, "codes.ttl", " OR ".join(f"[code] = {k}" for k in codes))
    rng = random.Random(7)
    rows = [(i, rng.randrange(-100, 1400)) for i in range(300)]
    data = tmp_path / "codes.csv"
    data.write_text("id,code\n" + "".join(f"{i},{value}\n" for i, value in rows))
    matched = [i for i, value in rows if value in codes]  # brute force, row by row
    assert run(capsys, "validate", store)[0] == 0
    assert run(capsys, "manifest", store, str(data), "--concept", "icd10:R73") == (0, [matched], "")
    exit_code = main(["export-vis", store, str(data), "--pattern", "marks"])
    out = capsys.readouterr()
    assert (exit_code, out.err) == (0, "")
    concepts = [row["concept"] for row in json.loads(out.out)["data"]["values"]]
    assert concepts == ["icd10:R73" if value in codes else "none" for _, value in rows]


@pytest.mark.parametrize("wrap", [
    lambda query: "(" * 1000 + query + ")" * 1000,
    lambda query: "NOT " * 1000 + query,
], ids=["1000-parentheses", "1000-nots"])
def test_a_deeply_nested_comparison_reads_as_the_bare_one(
    capsys, tmp_path, default_recursion_limit, wrap
):
    bare = _query_store(tmp_path, "bare.ttl", "[glucose] > 200")
    nested = _query_store(tmp_path, "nested.ttl", wrap("[glucose] > 200"))
    data = str(tmp_path / "glucose.csv")
    Path(data).write_text("id,glucose\n1,150\n2,201\n3,250\n4,\n")
    for argv in (["validate", "{}"], ["manifest", "{}", data, "--concept", "icd10:R73"]):
        want = run(capsys, *(a.format(bare) for a in argv))
        assert want[0] == 0
        assert run(capsys, *(a.format(nested) for a in argv)) == want


def test_gait_filter_with_a_1200_term_or_chain(capsys, gait_workspace, default_recursion_limit):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1", "3")
    args = ["gait", "analyze", "--knowledge", knowledge, "--trials", trials, "--patient", "2"]
    capsys.readouterr()
    everyone = run(capsys, *args, "--filter", "[age] >= 0")
    assert everyone[0] == 0
    chain = " OR ".join(f"[age] = {k}" for k in range(1200))  # every age from 0 to 1199
    assert run(capsys, *args, "--filter", chain) == everyone


@pytest.mark.parametrize("command", ["analyze", "table"])
def test_gait_scoring_reads_only_scored_trials(capsys, gait_workspace, command):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1", "3")
    capsys.readouterr()
    args = ["gait", command, "--knowledge", knowledge, "--trials", trials]
    # patient 2 is neither scored nor a prototype
    Path(trials, "2_left.csv").write_text("t,v\n0.0,1\nnot a time,2\n")
    code, lines, err = run(capsys, *args, "--patient", "1")
    assert code == 0 and len(lines) == 1 and err == ""
    # prototype 3 is outside the population, so its file is never read
    Path(trials, "3_right.csv").write_text("t,v\n0.0,1\n0.0,2\n")
    code, lines, err = run(capsys, *args, "--patient", "1", "--filter", "[age] < 40")
    assert code == 0 and len(lines) == 1 and err == ""
    # a scored prototype's malformed file still stops the command, and is named
    code, lines, err = run(capsys, *args, "--patient", "1")
    assert code == 2 and lines == []
    named = repr(str(Path(trials, "3_right.csv")))
    assert err.startswith(f"{named}: row 3, column 't': not a strictly increasing time stamp")
    # and so does the patient's own
    code, lines, err = run(capsys, *args, "--patient", "2", "--filter", "[age] < 40")
    assert code == 2 and lines == []
    named = repr(str(Path(trials, "2_left.csv")))
    assert err.startswith(f"{named}: row 3, column 't/v': bad sample row")
    code, _, err = run(capsys, *args, "--patient", "99")
    assert code == 2
    assert err == "patient '99' not found in trials dir\n"


def test_gait_zero_padded_patient_id(capsys, tmp_path):
    knowledge = tmp_path / "categories.ttl"
    shutil.copy(FIXTURES / "gait_categories.ttl", knowledge)
    trials = tmp_path / "trials"
    write_trials_dir(trials, [square_wave_trial("007", age=30), square_wave_trial("7", age=40)])
    args = [
        "gait", "add-prototype", "--knowledge", str(knowledge), "--trials", str(trials),
        "--concept", "gps:affectedKnee", "--patient",
    ]
    code, lines, _ = run(capsys, *args, "007")
    assert code == 0 and lines[0]["prototype"] == "007"
    code, _, err = run(capsys, *args, "007")
    assert code == 2 and "007" in err
    [m] = load_manifestations(parse_turtle(knowledge.read_text()))
    assert m.kind == DirectMapping(bindings=(("patientId", "007"),))
    code, lines, _ = run(
        capsys, "gait", "table", "--knowledge", str(knowledge), "--trials", str(trials),
        "--patient", "7",
    )
    assert code == 0 and lines[0]["prototypes"] == ["007"]


@pytest.mark.parametrize("command", ["analyze", "table"])
def test_gait_non_finite_parameters_are_input_errors(capsys, gait_workspace, command):
    knowledge, trials = gait_workspace
    _add_prototypes(knowledge, trials, "1", "3")
    metadata = Path(trials, "metadata.csv")
    # a NaN body mass makes both peak forces NaN
    metadata.write_text(metadata.read_text().replace("1,30,70.0", "1,30,nan"))
    capsys.readouterr()
    args = ["gait", command, "--knowledge", knowledge, "--trials", trials, "--patient"]
    for patient in ("1", "2"):  # the scored patient, then a scored prototype
        code, lines, err = run(capsys, *args, patient)
        assert (code, lines, err) == (2, [], "patient 1: peak_force_left is nan\n")
    # a prototype that --filter leaves out is not scored
    code, lines, err = run(capsys, *args, "2", "--filter", "[age] > 40")
    assert code == 0 and len(lines) == 1 and err == ""


@pytest.mark.parametrize("case", ["nan body mass", "one step"])
def test_gait_add_prototype_refuses_a_trial_it_cannot_score(capsys, gait_workspace, case):
    knowledge, trials = gait_workspace
    if case == "nan body mass":
        metadata = Path(trials, "metadata.csv")
        metadata.write_text(metadata.read_text().replace("2,45,80.0", "2,45,nan"))
        message = "patient 2: peak_force_left is nan\n"  # as gait analyze words it
    else:
        Path(trials, "2_left.csv").write_text("t,v\n0.0,0\n0.1,800\n0.2,800\n0.3,0\n")
        message = "left: fewer than two detected steps\n"
    before = Path(knowledge).read_bytes()
    code, lines, err = run(
        capsys, "gait", "add-prototype", "--knowledge", knowledge, "--trials", trials,
        "--patient", "2", "--concept", "gps:affectedKnee",
    )
    assert (code, lines, err) == (2, [], message)
    assert Path(knowledge).read_bytes() == before
    args = ["gait", "analyze", "--knowledge", knowledge, "--trials", trials, "--patient"]
    assert run(capsys, *args, "2")[::2] == (2, message)


@pytest.mark.parametrize(
    "stamps, row", [("0.0,1\n0.01,2\n0.01,3\n", 4), ("0.0,1\nnan,2\n0.0,3\n", 3)]
)
def test_gait_non_increasing_stamps_are_input_errors(capsys, gait_workspace, stamps, row):
    knowledge, trials = gait_workspace
    Path(trials, "1_right.csv").write_text("t,v\n" + stamps)
    code, _, err = run(
        capsys,
        "gait", "analyze",
        "--knowledge", knowledge,
        "--trials", trials,
        "--patient", "1",
    )
    assert code == 2
    named = repr(str(Path(trials, "1_right.csv")))
    assert err.startswith(f"{named}: row {row}, column 't': not a strictly increasing time stamp")


@pytest.mark.parametrize("name", ["R73", "icd10:a b"], ids=["unprefixed", "invalid-iri"])
@pytest.mark.parametrize(
    "argv",
    [
        ["manifest", "{store}", "{data}", "--concept", "{name}"],
        ["annotate", "{store}", "--concept", "{name}", "--prototype", "a=1"],
        ["export-vis", "{store}", "--pattern", "threshold", "--concept", "{name}"],
        ["export-vis", "{store}", "--pattern", "tree", "--scheme", "{name}"],
        ["gait", "add-prototype", "--knowledge", "{store}", "--trials", "{trials}",
         "--patient", "1", "--concept", "{name}"],
        ["gait", "set-range", "--knowledge", "{store}", "--concept", "{name}",
         "--param", "cadence", "--min", "0", "--max", "1"],
    ],
    ids=["manifest", "annotate", "threshold", "tree", "add-prototype", "set-range"],
)
def test_bad_concept_or_scheme_name_is_input_error(capsys, gait_workspace, tmp_path, argv, name):
    knowledge, trials = gait_workspace
    before = Path(knowledge).read_bytes()
    fill = {"{store}": knowledge, "{data}": _sugar_csv(tmp_path), "{trials}": trials,
            "{name}": name}
    code, lines, err = run(capsys, *(fill.get(a, a) for a in argv))
    assert code == 2 and lines == []
    assert "internal error" not in err
    assert ("not a prefixed name" in err) if name == "R73" else ("invalid IRI" in err)
    assert Path(knowledge).read_bytes() == before
