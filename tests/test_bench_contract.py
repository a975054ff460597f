"""The benchmark's by-name contract with the program.

``bench/spans.py`` wraps kava's functions by (module, attribute) name, so a
rename in ``src/`` would break ``bench/run.py --trace 1`` only when that
run starts. This test reads ``bench/spans.py`` and writes nothing there.
"""

import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spans = runpy.run_path(str(SPANS))  # compiled in memory: no bytecode file is written
    targets = [(name, module, attr) for name, pairs in spans["LAYERS"].items()
               for module, attr in pairs]
    targets.append(("rdf.match", spans["rdf"].Graph, "match"))
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
    assert set(spans["COUNTERS"]) <= {name for name, _, _ in targets}
