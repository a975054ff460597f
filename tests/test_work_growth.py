"""Work that grows linearly with the store: the graph-side commands' Python
call counts on the benchmark's curation stores at scales 1 and 4.

Call counts are deterministic where wall times on a shared host are not.
Each command runs in process once as a warm-up, so that imports and
first-use caches are not counted, and once under cProfile. A command whose
count grows more than 4.4 times for the 4 times larger store does Python
work that grows faster than the store.
"""

import cProfile
import gc
import io
import pstats
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kava import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
OPS = {"read": "validate", "aux": "convert --to jsonld", "render": "convert --to ttl",
       "write": "annotate"}
SCALES = (1, 4)  # 998 and 3,983 triples at seed 1
MAX_GROWTH = 4.4


def _calls(workload, op):
    """cProfile's total call count of the op's command, run once before."""
    def run():
        argv = workload.argv(op, 0)  # an annotate op restores its store first
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
    run()
    gc.collect()  # no graph of the warm-up is left for a cache to find
    profiler = cProfile.Profile()
    profiler.runcall(run)
    return pstats.Stats(profiler).total_calls


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """{op: [call count at each scale]} and the stores' triple counts."""
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
    try:
        from workloads import GENERATORS, WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    counts, triples = {op: [] for op in OPS}, []
    for scale in SCALES:
        root = tmp_path_factory.mktemp(f"curation{scale}")
        plan = GENERATORS["curation"](root, 1, scale)
        triples.append(plan["triples"])
        workload = WORKLOADS["curation"](root, plan)
        for op in OPS:
            counts[op].append(_calls(workload, op))
    return counts, triples


def test_the_larger_store_is_four_times_the_smaller(ladder):
    assert ladder[1] == [998, 3983]


@pytest.mark.parametrize("op", OPS, ids=OPS.values())
def test_call_count_grows_linearly_with_the_store(ladder, op):
    small, large = ladder[0][op]
    assert large <= MAX_GROWTH * small, f"{OPS[op]}: {small} -> {large} calls"
