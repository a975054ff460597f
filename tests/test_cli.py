import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_text
from kava import cli
from kava.cli import main, read_graph, read_table
from kava.gait import square_wave_trial, write_trials_dir
from kava.manifestation import DirectMapping, load_manifestations
from kava.rdf import DEFAULT_PREFIXES, isomorphic_trees
from kava.skos import load_scheme
from kava.turtle import parse_turtle
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
    ],
    ids=["turtle-space", "jsonld-space", "jsonld-angle", "jsonld-number"],
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
        "listing4, data, out = sys.argv[1:]\n"
        "assert main(['validate', listing4]) == 0\n"
        "assert main(['manifest', listing4, data, '--concept', 'icd10:R73']) == 0\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
        "assert main(['export-vis', listing4, '--pattern', 'threshold', '-o', out]) == 0\n"
        "assert 'jsonschema' in sys.modules, 'fragment not validated'\n"
    )
    root = Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / "listing4.ttl"), str(data),
         str(tmp_path / "region.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
        "assert 'numpy' in sys.modules, 'data read without numpy'\n"
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
    # a scored prototype's malformed file still stops the command
    code, lines, err = run(capsys, *args, "--patient", "1")
    assert code == 2 and lines == []
    assert err.startswith("row 3, column 't': not a strictly increasing time stamp")
    # and so does the patient's own
    code, lines, err = run(capsys, *args, "--patient", "2", "--filter", "[age] < 40")
    assert code == 2 and lines == []
    assert err.startswith("row 3, column 't/v': bad sample row")
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
    assert err.startswith(f"row {row}, column 't': not a strictly increasing time stamp")


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
