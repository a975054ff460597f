"""Work that grows linearly with the input: the commands' Python call
counts on the benchmark's stores at scales 1 and 4, for the graph-side
commands of the curation workload and the data-side commands of the
records and gait workloads.

Call counts are deterministic where wall times on a shared host are not.
Each command runs in process once as a warm-up, so that imports and
first-use caches are not counted, and once under cProfile. A command whose
count grows more than 4.4 times for the 4 times larger input does Python
work that grows faster than the input.
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
DATA_OPS = {("records", "read"): "manifest", ("records", "render"): "export-vis --pattern marks",
            ("records", "aggregate"): "export-vis --pattern aggregate",
            ("gait", "read"): "gait analyze"}
SCALES = (1, 4)  # at seed 1: 998 and 3,983 triples, 4,000 and 16,000 rows, 4 and 16 concepts
MAX_GROWTH = 4.4
# predicate._compare runs once per distinct value that float64 cannot
# compare exactly (the sex column's "F" and "M"), never once per record
MAX_COMPARES_PER_RECORD = 0.05
# predicate.parse_number reads the constants of the records plan's ten
# query mappings, whatever the row count, and the sex column's first text,
# which makes it a string column; never the CSV's number cell texts
MAX_NUMBER_PARSES = 100


def _aggregate_argv(workload) -> list:
    """``export-vis --pattern aggregate`` of the records plan's first
    concept over ``age``: an export that no benchmark op runs."""
    return ["export-vis", workload.path("store.ttl"), workload.path("data.csv"),
            "--pattern", "aggregate", "--concept", workload.plan["concepts"][0],
            "--time-var", "age", "-o", workload.path("aggregate.json")]


def _profile(workload, op) -> pstats.Stats:
    """cProfile's statistics of the op's command, run once before."""
    def run():
        # an annotate op restores its store first
        argv = _aggregate_argv(workload) if op == "aggregate" else workload.argv(op, 0)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
    run()
    gc.collect()  # no graph of the warm-up is left for a cache to find
    profiler = cProfile.Profile()
    profiler.runcall(run)
    return pstats.Stats(profiler)


def _calls(stats, module, function) -> int:
    """How often cProfile saw ``function`` of the module ``module`` run."""
    return sum(
        calls for (path, _, name), (_, calls, *_) in stats.stats.items()
        if name == function and path.endswith(f"{module}.py")
    )


def _bench_modules():
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
    try:
        from workloads import GENERATORS, WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return GENERATORS, WORKLOADS


def _climb(tmp_path_factory, name, ops):
    """{op: [cProfile statistics at each scale]} and the plans' sizes."""
    generators, workloads = _bench_modules()
    stats, sizes = {op: [] for op in ops}, []
    for scale in SCALES:
        root = tmp_path_factory.mktemp(f"{name}{scale}")
        plan = generators[name](root, 1, scale)
        sizes.append(plan.get("triples", plan["size"]))
        workload = workloads[name](root, plan)
        for op in ops:
            stats[op].append(_profile(workload, op))
    return stats, sizes


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """{op: [call count at each scale]} and the stores' triple counts."""
    stats, triples = _climb(tmp_path_factory, "curation", OPS)
    return {op: [s.total_calls for s in stats[op]] for op in OPS}, triples


@pytest.fixture(scope="module")
def data_ladder(tmp_path_factory):
    """{(workload, op): [cProfile statistics at each scale]} and, per
    workload, the plans' sizes: record rows and gait concepts."""
    stats, sizes = {}, {}
    for name in ("records", "gait"):
        ops = [op for workload, op in DATA_OPS if workload == name]
        climbed, sizes[name] = _climb(tmp_path_factory, name, ops)
        stats.update({(name, op): climbed[op] for op in ops})
    return stats, sizes


def test_the_larger_store_is_four_times_the_smaller(ladder):
    assert ladder[1] == [998, 3983]


@pytest.mark.parametrize("op", OPS, ids=OPS.values())
def test_call_count_grows_linearly_with_the_store(ladder, op):
    small, large = ladder[0][op]
    assert large <= MAX_GROWTH * small, f"{OPS[op]}: {small} -> {large} calls"


def test_the_larger_data_is_four_times_the_smaller(data_ladder):
    assert data_ladder[1] == {"records": [4000, 16000], "gait": [4, 16]}


@pytest.mark.parametrize("case", DATA_OPS, ids=DATA_OPS.values())
def test_call_count_grows_linearly_with_the_data(data_ladder, case):
    small, large = (stats.total_calls for stats in data_ladder[0][case])
    assert large <= MAX_GROWTH * small, f"{DATA_OPS[case]}: {small} -> {large} calls"


def test_marks_export_compares_per_distinct_value_not_per_record(data_ladder):
    rows = data_ladder[1]["records"]
    stats = data_ladder[0][("records", "render")]
    compares = [_calls(s, "predicate", "_compare") for s in stats]
    for records, calls in zip(rows, compares):
        assert calls <= MAX_COMPARES_PER_RECORD * records, f"{calls} _compare calls"


def test_gait_reads_every_force_file_without_the_row_reader(data_ladder):
    # the bench's force files are plain: numpy's C reader takes each whole
    for stats in data_ladder[0][("gait", "read")]:
        files = _calls(stats, "dataset", "load_series_csv")
        assert files >= 2 and _calls(stats, "dataset", "_load_series_rows") == 0, files


@pytest.mark.parametrize("op", ["read", "render"], ids=["manifest", "export-vis marks"])
def test_records_parse_numbers_of_predicate_constants_only(data_ladder, op):
    # each number column of the data CSV is converted by one int() or float() map
    for stats in data_ladder[0][("records", op)]:
        calls = _calls(stats, "predicate", "parse_number")
        assert calls <= MAX_NUMBER_PARSES, f"{calls} parse_number calls"


@pytest.mark.parametrize("op", ["read", "render"], ids=["manifest", "export-vis marks"])
def test_records_parse_each_query_at_most_twice(data_ladder, op):
    # the load checks each native query, and evaluation reads it once more
    for stats in data_ladder[0][("records", op)]:
        queries = _calls(stats, "manifestation", "_load_indirect_query")
        parses = _calls(stats, "predicate", "parse_predicate")
        assert queries == 10 and parses <= 2 * queries, f"{parses} parses of {queries} queries"
