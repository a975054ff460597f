"""The README's library example, run as written."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_example() -> str:
    """The fenced Python block under the README's "Library example" heading."""
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_each_concepts_matched_records(tmp_path, monkeypatch, capsys):
    shutil.copyfile(ROOT / "tests" / "fixtures" / "listing5.ttl", tmp_path / "knowledge.ttl")
    (tmp_path / "patients.csv").write_text("patientId,glucose\n1,250\n2,150\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "<http://example.org/kava/icd10#R73> {1}\n"
