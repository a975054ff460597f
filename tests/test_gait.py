import math
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from kava.dataset import TimeSeries
from kava.errors import (
    DuplicatePrototype,
    EmptyPopulation,
    InsufficientSteps,
    InvertedRange,
    MalformedManifestation,
    NoDefinedRanges,
    NonFiniteParameter,
    NonPositivePhase,
    UnknownConcept,
    UnknownParameter,
)
from kava import gait
from kava.gait import (
    CONTACT_THRESHOLD_FRACTION,
    DEBOUNCE_SECONDS,
    GRAVITY,
    PARAMETER_NAMES,
    CategoryModel,
    GaitTrial,
    SpatioTemporalParams,
    add_prototype,
    box_plot_stats,
    build_category_model,
    category_model_from_graph,
    compute_params,
    knowledge_table,
    load_trials_dir,
    match_category,
    prototype_ids,
    range_manifestation,
    range_overrides_from_graph,
    set_range,
    square_wave_trial,
    write_trials_dir,
)
from kava.manifestation import (
    DirectMapping,
    IndirectVariableMapping,
    add_manifestation_to_graph,
    create_manifestation,
    load_manifestations,
)
from kava.predicate import And, Comparison, Not, Or, compile_predicate, parse_predicate
from kava.rdf import Iri
from kava.turtle import parse_turtle

TOL = 1e-6


def _categories_graph():
    return parse_turtle(fixture_text("gait_categories.ttl"))


def _affected(graph):
    return graph.expand("gps:affectedKnee")


def test_square_wave_analytic_values():
    params = compute_params(square_wave_trial("p1"))
    expected = {
        "stance_time_left": 0.6,
        "stance_time_right": 0.6,
        "stride_time_left": 1.0,
        "stride_time_right": 1.0,
        "swing_time_left": 0.4,
        "swing_time_right": 0.4,
        "step_time_left": 0.5,
        "step_time_right": 0.5,
        "double_support_left": 0.1,
        "double_support_right": 0.1,
        "cadence": 120.0,
        "support_asymmetry": 0.0,
        "time_to_peak_left": 0.0,
        "time_to_peak_right": 0.0,
        "peak_force_left": 800.0,
        "peak_force_right": 800.0,
    }
    for name, want in expected.items():
        assert params[name] == pytest.approx(want, abs=TOL), name


def test_left_right_symmetry():
    params = compute_params(square_wave_trial("p1"))
    for left, right in [
        ("step_time_left", "step_time_right"),
        ("stance_time_left", "stance_time_right"),
        ("swing_time_left", "swing_time_right"),
        ("stride_time_left", "stride_time_right"),
        ("double_support_left", "double_support_right"),
        ("peak_force_left", "peak_force_right"),
    ]:
        assert abs(params[left] - params[right]) < 1e-9


def test_peak_normalized_by_body_weight():
    params = compute_params(square_wave_trial("p1", body_mass=80.0))
    assert params["peak_force_left"] == pytest.approx(800.0 / (80.0 * GRAVITY))


def test_all_zero_force_insufficient():
    n = 200
    flat = TimeSeries(tuple((i * 0.01, 0.0) for i in range(n)), "Fv")
    with pytest.raises(InsufficientSteps):
        compute_params(GaitTrial("p1", fv_left=flat, fv_right=flat))


def test_single_contact_insufficient():
    with pytest.raises(InsufficientSteps):
        compute_params(square_wave_trial("p1", strides=1))


@pytest.mark.parametrize("body_mass, value", [(math.nan, "nan"), (1e-320, "inf")])
def test_non_finite_parameters_are_refused(body_mass, value):
    # a NaN body mass is truthy, so it normalizes both peaks to NaN; a
    # subnormal one overflows them
    with pytest.raises(NonFiniteParameter) as info:
        compute_params(square_wave_trial("p7", body_mass=body_mass))
    assert str(info.value) == f"patient p7: peak_force_left is {value}"
    # the earlier checks keep their order: a foot without steps comes first
    flat = TimeSeries(tuple((i * 0.01, 0.0) for i in range(200)), "Fv")
    wave = square_wave_trial("p7", body_mass=body_mass)
    trial = GaitTrial(wave.patient_id, wave.fv_left, flat, wave.body_mass, wave.age)
    with pytest.raises(InsufficientSteps, match="^right: fewer than two detected steps$"):
        compute_params(trial)


def test_time_dilation_scales_consistently():
    s = 1.5
    base = compute_params(square_wave_trial("p1"))
    dilated = compute_params(
        square_wave_trial("p1", stance=0.6 * s, stride=1.0 * s, dt=0.01 * s)
    )
    for name in PARAMETER_NAMES:
        if name.endswith(("_time_left", "_time_right")) or name.startswith(
            ("double_support", "time_to_peak")
        ):
            assert abs(dilated[name] - s * base[name]) < 1e-9, name
    assert abs(dilated["cadence"] - base["cadence"] / s) < 1e-9
    assert abs(dilated["support_asymmetry"] - base["support_asymmetry"]) < 1e-9


def _population(n, seed=7):
    rng = random.Random(seed)
    trials = []
    for i in range(n):
        stance = 0.5 + 0.02 * rng.randrange(10)
        trials.append(
            square_wave_trial(
                f"p{i}", stance=stance, age=40 + 5 * i, body_mass=60.0 + i
            )
        )
    return trials


def test_ranges_match_bruteforce_minmax():
    trials = _population(8)
    concept = _affected(_categories_graph())
    model = build_category_model(concept, trials)
    expected_vectors = [compute_params(t).as_dict() for t in trials]
    ranges = model.effective_ranges()
    for name in PARAMETER_NAMES:
        vals = [v[name] for v in expected_vectors]
        assert abs(ranges[name][0] - min(vals)) < 1e-12, name
        assert abs(ranges[name][1] - max(vals)) < 1e-12, name


def test_single_prototype_degenerate_ranges():
    model = build_category_model(
        _affected(_categories_graph()), [square_wave_trial("p1")]
    )
    for lo, hi in model.effective_ranges().values():
        assert lo == hi
    stats = box_plot_stats(model)
    for s in stats.values():
        assert s["min"] == s["q1"] == s["median"] == s["q3"] == s["max"]


def test_population_filter_consistency():
    trials = _population(8)
    concept = _affected(_categories_graph())
    pred = parse_predicate("[age] > 50")
    filtered_model = build_category_model(concept, trials, pred)
    manual = build_category_model(concept, [t for t in trials if t.age > 50])
    assert filtered_model.effective_ranges() == manual.effective_ranges()


_FILTER_TRIAL = square_wave_trial("p")
# metadata a population filter meets: NaN and infinite ages, missing values
_AGES = st.sampled_from([None, 30, 40, 40.0, 55.5, math.nan, math.inf])
_MASSES = st.sampled_from([None, 60, 80.5, 95.0])
_FILTER_LEAF = st.builds(
    Comparison,
    st.sampled_from(["age", "bodyMass", "patientId", "height"]),  # no trial has a height
    st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
    st.sampled_from([40, 40.0, 80.5, -0.0, "p1", ""]),
)
_FILTERS = st.recursive(
    _FILTER_LEAF,
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_AGES, _MASSES), min_size=1, max_size=6), _FILTERS)
@example(
    [(math.nan, 70.0), (45, None), (50, 60.0), (None, 80.0)],
    parse_predicate("[age] > 40 AND [bodyMass] < 80.5 OR NOT [height] = 1"),
)
def test_population_filter_matches_per_record_predicate(metadata, pred):
    trials = [
        GaitTrial(f"p{i}", _FILTER_TRIAL.fv_left, _FILTER_TRIAL.fv_right, body_mass=mass, age=age)
        for i, (age, mass) in enumerate(metadata)
    ]
    test = compile_predicate(pred)
    want = [t.patient_id for t in trials if test(t.metadata())]
    try:
        model = build_category_model(_affected(_categories_graph()), trials, pred)
    except EmptyPopulation:
        assert want == []
    else:
        assert [pid for pid, _ in model.prototypes] == want


def test_empty_population():
    with pytest.raises(EmptyPopulation):
        build_category_model(
            _affected(_categories_graph()),
            _population(3),
            parse_predicate("[age] > 1000"),
        )


def test_override_takes_precedence():
    model = build_category_model(
        _affected(_categories_graph()), _population(4)
    )
    before = model.effective_ranges()
    after_model = CategoryModel(
        model.concept, model.prototypes, {**model.overrides, "cadence": (100.0, 130.0)},
        model.population_filter,
    )
    m = range_manifestation(model.concept, "cadence", 100.0, 130.0, "analyst")
    after = after_model.effective_ranges()
    assert after["cadence"] == (100.0, 130.0)
    assert model.effective_ranges() == before  # original untouched
    for name in PARAMETER_NAMES:
        if name != "cadence":
            assert after[name] == before[name]
    assert isinstance(m.kind, IndirectVariableMapping)
    assert m.kind.variable_name() == "cadence"


def test_override_rejects_bad_input():
    model = build_category_model(
        _affected(_categories_graph()), [square_wave_trial("p1")]
    )
    with pytest.raises(UnknownParameter):
        range_manifestation(model.concept, "sprint_speed", 0, 1)
    with pytest.raises(InvertedRange):
        range_manifestation(model.concept, "cadence", 130.0, 100.0)


def test_override_roundtrip_through_graph():
    g = _categories_graph()
    concept = _affected(g)
    g2 = set_range(g, concept, "stance_time_left", 0.55, 0.72, "analyst", "2020-06-01")
    assert range_overrides_from_graph(g2, concept) == {
        "stance_time_left": (0.55, 0.72)
    }


def test_match_perfect_score():
    trial = square_wave_trial("p1")
    model = build_category_model(_affected(_categories_graph()), [trial])
    result = match_category(compute_params(trial), model)
    assert result.score == 1.0
    assert set(result.per_parameter.values()) == {"inside"}


def test_match_twelve_of_sixteen():
    trial = square_wave_trial("p1")
    model = build_category_model(_affected(_categories_graph()), [trial])
    # push 4 parameters out of range: 2 above, 2 below
    model = CategoryModel(model.concept, model.prototypes, {
        **model.overrides,
        "cadence": (0.0, 1.0),
        "stance_time_left": (0.0, 0.1),
        "support_asymmetry": (1.0, 2.0),
        "peak_force_right": (5000.0, 6000.0),
    }, model.population_filter)
    result = match_category(compute_params(trial), model)
    assert result.score == pytest.approx(0.75)
    assert result.per_parameter["cadence"] == "above"
    assert result.per_parameter["support_asymmetry"] == "below"


def test_no_defined_ranges():
    model = CategoryModel(
        concept=_affected(_categories_graph()), prototypes=[]
    )
    with pytest.raises(NoDefinedRanges):
        match_category(compute_params(square_wave_trial("p1")), model)


def test_add_prototype_and_duplicates():
    g = _categories_graph()
    concept = _affected(g)
    g2 = add_prototype(g, concept, square_wave_trial("101"), "analyst")
    assert prototype_ids(g2, concept) == [101]
    with pytest.raises(DuplicatePrototype):
        add_prototype(g2, concept, square_wave_trial("101"))
    with pytest.raises(UnknownConcept):
        add_prototype(g, g.expand("gps:noSuchCategory"), square_wave_trial("102"))


def test_add_prototype_keeps_zero_padded_ids_as_text():
    g = _categories_graph()
    concept = _affected(g)
    g = add_prototype(g, concept, square_wave_trial("007"))
    assert prototype_ids(g, concept) == ["007"]
    with pytest.raises(DuplicatePrototype):
        add_prototype(g, concept, square_wave_trial("007"))
    g = add_prototype(g, concept, square_wave_trial("7"))
    assert set(prototype_ids(g, concept)) == {"007", 7}
    for text in ("-0", "+7", " 7", "1_0", "\u0663"):
        assert gait._coerce_id(text) == text
    assert gait._coerce_id("-12") == -12


def test_add_prototype_widens_ranges_monotonically():
    g = _categories_graph()
    concept = _affected(g)
    trials = {str(i): square_wave_trial(str(i), stance=0.5 + 0.05 * i) for i in (1, 2, 3)}
    g = add_prototype(g, concept, trials["1"])
    one = category_model_from_graph(g, concept, trials).effective_ranges()
    g = add_prototype(g, concept, trials["2"])
    g = add_prototype(g, concept, trials["3"])
    three = category_model_from_graph(g, concept, trials).effective_ranges()
    for name in PARAMETER_NAMES:
        assert three[name][0] <= one[name][0] <= one[name][1] <= three[name][1]


def test_knowledge_table_cross_checks():
    trials = _population(5)
    g = _categories_graph()
    models = [
        build_category_model(_affected(g), trials[:3]),
        build_category_model(g.expand("gps:normData"), trials[2:]),
    ]
    params = compute_params(trials[0])
    rows = knowledge_table(models, params)
    assert len(rows) == 2
    for row, model in zip(rows, models):
        expected = match_category(params, model)
        assert row["score"] == expected.score
        assert row["prototypes"] == [pid for pid, _ in model.prototypes]
        for name in PARAMETER_NAMES:
            cell = row["parameters"][name]
            assert cell["status"] == expected.per_parameter[name]
            assert cell["value"] == params[name]
            assert cell["range"] == list(model.effective_ranges()[name])


def test_box_plot_stats_equal_per_quantile_calls():
    model = build_category_model(_affected(_categories_graph()), _population(7))
    stats = box_plot_stats(model)
    for i, name in enumerate(PARAMETER_NAMES):
        arr = np.asarray(sorted(p.values[i] for _, p in model.prototypes), dtype=float)
        assert stats[name] == {
            "min": float(arr.min()),
            "q1": float(np.quantile(arr, 0.25)),
            "median": float(np.quantile(arr, 0.5)),
            "q3": float(np.quantile(arr, 0.75)),
            "max": float(arr.max()),
        }
    empty = CategoryModel(concept=model.concept, prototypes=[])
    assert box_plot_stats(empty) == {name: None for name in PARAMETER_NAMES}


# --- the prototypes table against the per-parameter loops ----------------


def ref_effective_ranges(model):
    """Reference: effective_ranges as one Python min/max per parameter."""
    ranges = {}
    for i, name in enumerate(PARAMETER_NAMES):
        if name in model.overrides:
            ranges[name] = tuple(model.overrides[name])
            continue
        vals = [p.values[i] for _, p in model.prototypes]
        if vals:
            ranges[name] = (min(vals), max(vals))
        else:
            ranges[name] = None
    return ranges


def ref_box_plot_stats(model):
    """Reference: box_plot_stats as one sorted column and one quantile call
    per parameter."""
    stats = {}
    for i, name in enumerate(PARAMETER_NAMES):
        vals = sorted(p.values[i] for _, p in model.prototypes)
        if not vals:
            stats[name] = None
            continue
        arr = np.asarray(vals, dtype=float)
        q1, median, q3 = np.quantile(arr, [0.25, 0.5, 0.75]).tolist()
        stats[name] = {
            "min": float(arr.min()),
            "q1": q1,
            "median": median,
            "q3": q3,
            "max": float(arr.max()),
        }
    return stats


@lru_cache(maxsize=None)
def _square_wave_params(stance, stride, body_mass):
    return compute_params(square_wave_trial("p", stance=stance, stride=stride, body_mass=body_mass))


SQUARE_WAVE_PARAMS = st.builds(
    _square_wave_params,
    st.sampled_from([0.5, 0.55, 0.6, 0.65]),
    st.sampled_from([0.9, 1.0, 1.2]),
    st.sampled_from([None, 70.0]),
)
CONCEPT = Iri("http://example.org/c")
# a column draws all its cells from one of these pools
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
CELL_POOLS = [
    SIGNED_ZEROS,
    SIGNED_ZEROS | st.sampled_from([1.0, -1.0, 0.5]),
    st.floats(allow_nan=False),
]


@st.composite
def hand_built_params(draw, n):
    """n parameter vectors whose every column is drawn from one pool."""
    columns = [draw(st.lists(draw(st.sampled_from(CELL_POOLS)), min_size=n, max_size=n))
               for _ in PARAMETER_NAMES]
    return [SpatioTemporalParams(values=row) for row in zip(*columns)]


@st.composite
def category_models(draw):
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 17]))
    if draw(st.booleans()):
        params = draw(st.lists(SQUARE_WAVE_PARAMS, min_size=n, max_size=n))
    else:
        params = draw(hand_built_params(n))
    bound = st.floats(allow_nan=False)
    overrides = draw(st.dictionaries(st.sampled_from(PARAMETER_NAMES), st.tuples(bound, bound)))
    prototypes = [(f"p{i}", p) for i, p in enumerate(params)]
    return CategoryModel(concept=CONCEPT, prototypes=prototypes, overrides=overrides)


def _alternating_zeros(n):
    """n rows whose columns hold 0.0 and -0.0 in sixteen different orders."""
    rows = [[(-0.0 if (i * (j + 1)) % (j + 2) % 2 else 0.0) for j in range(16)]
            for i in range(n)]
    return [(f"p{i}", SpatioTemporalParams(values=tuple(row))) for i, row in enumerate(rows)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(category_models())
@example(CategoryModel(concept=CONCEPT, prototypes=_alternating_zeros(2)))
@example(CategoryModel(concept=CONCEPT, prototypes=_alternating_zeros(17)))
def test_table_statistics_match_per_parameter_references(model):
    with np.errstate(invalid="ignore"):  # inf - inf between infinite quartile neighbours
        # repr tells -0.0 from 0.0
        assert repr(model.effective_ranges()) == repr(ref_effective_ranges(model))
        assert repr(box_plot_stats(model)) == repr(ref_box_plot_stats(model))


@pytest.mark.parametrize("n", [2, 17])
def test_signed_zero_examples_tell_python_and_numpy_minimums_apart(n):
    """The pinned examples above pass only where Python's min/max is kept
    for ranges and numpy's for box-plot extremes."""
    model = CategoryModel(CONCEPT, _alternating_zeros(n))
    columns = np.array([p.values for _, p in model.prototypes]).T
    numpy_ranges = list(zip(columns.min(axis=1).tolist(), columns.max(axis=1).tolist()))
    assert repr(numpy_ranges) != repr(list(ref_effective_ranges(model).values()))
    python_minimums = [min(sorted(column)) for column in columns.tolist()]
    reference = [s["min"] for s in ref_box_plot_stats(model).values()]
    assert repr(python_minimums) != repr(reference)


def test_contact_threshold_ignores_noise_floor():
    trial = square_wave_trial("p1")
    noise = CONTACT_THRESHOLD_FRACTION * 800.0 * 0.5  # well below threshold
    noisy_left = TimeSeries(
        tuple((t, v if v else noise) for t, v in trial.fv_left.samples), "Fv"
    )
    params = compute_params(
        GaitTrial("p1", fv_left=noisy_left, fv_right=trial.fv_right)
    )
    assert params["stance_time_left"] == pytest.approx(0.6, abs=TOL)


def test_trials_dir_roundtrip(tmp_path):
    trials = _population(3)
    write_trials_dir(tmp_path, trials)
    loaded = load_trials_dir(tmp_path)
    assert set(loaded) == {t.patient_id for t in trials}
    for t in trials:
        back = loaded[t.patient_id]
        assert back.age == t.age
        assert back.body_mass == t.body_mass
        assert back.fv_left.samples == t.fv_left.samples
        assert back.fv_right.samples == t.fv_right.samples


def test_trials_dir_roundtrip_quotes_ids(tmp_path):
    """An id with a comma or a quote is written quoted and read back."""
    trials = [square_wave_trial("a,b", age=40.0, body_mass=70.0),
              square_wave_trial('x"y', age=41.0)]
    write_trials_dir(tmp_path, trials)
    assert (tmp_path / "metadata.csv").read_text() == (
        'patientId,age,bodyMass\n"a,b",40.0,70.0\n"x""y",41.0,\n'
    )
    loaded = load_trials_dir(tmp_path)
    assert list(loaded) == ["a,b", 'x"y']
    for t in trials:
        back = loaded[t.patient_id]
        assert (back.age, back.body_mass) == (t.age, t.body_mass)
        assert back.fv_left.samples == t.fv_left.samples


def test_trial_set_reads_and_scores_each_scored_trial_once(tmp_path):
    trials = _population(4)  # ages 40, 45, 50, 55
    write_trials_dir(tmp_path, trials)
    g = _categories_graph()
    affected, norm = _affected(g), g.expand("gps:normData")
    for t in trials[:3]:
        g = add_prototype(g, affected, t)
    for t in trials[1:]:
        g = add_prototype(g, norm, t)
    older = parse_predicate("[age] > 40")
    trial_set = gait.TrialSet.read(tmp_path)
    with mock.patch.object(
        gait, "load_series_csv", wraps=gait.load_series_csv
    ) as read, mock.patch.object(gait, "compute_params", wraps=compute_params) as scored:
        trial_set.params("p1")
        models = [category_model_from_graph(g, c, trial_set, older) for c in (affected, norm)]
    # p0 is outside the population; p1, p2 and p3 are read and scored once
    assert read.call_count == 6 and scored.call_count == 3
    everything = load_trials_dir(tmp_path)
    for model, c in zip(models, (affected, norm)):
        assert model == category_model_from_graph(g, c, everything, older)
    assert [pid for pid, _ in models[0].prototypes] == ["p1", "p2"]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_population_scores_bounded(n, seed):
    trials = _population(n, seed)
    model = build_category_model(_affected(_categories_graph()), trials)
    for t in trials:
        result = match_category(compute_params(t), model)
        assert 0.0 <= result.score <= 1.0
        # every prototype lies inside its own population's min/max ranges
        assert result.score == 1.0


# --- vectorized contact detection against the per-sample loop ------------


def _contacts_per_sample(series):
    """Reference contact detector: one pass over the samples."""
    t, v = series.t, series.v
    peak = float(v.max()) if len(v) else 0.0
    if peak <= 0:
        return []
    above = v > CONTACT_THRESHOLD_FRACTION * peak
    intervals = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = t[i]
        elif not flag and start is not None:
            intervals.append([start, t[i]])
            start = None
    if start is not None:
        intervals.append([start, None])
    merged = []
    for iv in intervals:
        if (
            merged
            and merged[-1][1] is not None
            and iv[0] - merged[-1][1] < DEBOUNCE_SECONDS
        ):
            merged[-1][1] = iv[1]
        else:
            merged.append(iv)
    return [iv for iv in merged if iv[1] is None or iv[1] - iv[0] >= DEBOUNCE_SECONDS]


def _noisy_wave(runs, dt=0.01, amplitude=800.0, seed=0):
    """Series built from (in contact, length in samples) runs: contact
    samples at 50-100 % of the amplitude, the others under 4 %."""
    rng = random.Random(seed)
    levels = [flag for flag, length in runs for _ in range(length)]
    v = [amplitude * (rng.uniform(0.5, 1.0) if on else rng.uniform(0.0, 0.04)) for on in levels]
    return TimeSeries(tuple((i * dt, x) for i, x in enumerate(v)), "Fv")


@st.composite
def noisy_waves(draw):
    on = draw(st.booleans())
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        # at dt = 0.01 s, runs of 1-4 samples are shorter than the debounce
        runs.append((on, draw(st.one_of(st.integers(1, 4), st.integers(5, 70)))))
        on = not on
    return _noisy_wave(
        runs,
        dt=draw(st.sampled_from([0.01, 0.005, 0.02])),
        amplitude=draw(st.sampled_from([0.0, 1.0, 800.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def _params_or_error(trial):
    try:
        return compute_params(trial).values
    except (InsufficientSteps, NonPositivePhase) as exc:
        return type(exc)


_STEPS = [(True, 60), (False, 40)] * 4
_EDGE_CASES = {
    "all zero": _noisy_wave([(False, 300)], amplitude=0.0),
    "first sample in contact, trailing contact": _noisy_wave(_STEPS + [(True, 30)]),
    "gap under 50 ms merges": _noisy_wave(
        [(False, 5), (True, 30), (False, 3), (True, 30), (False, 40)] + _STEPS
    ),
    "contact under 50 ms dropped": _noisy_wave([(False, 5), (True, 2), (False, 20)] + _STEPS),
}


@settings(max_examples=200, deadline=None)
@given(noisy_waves(), noisy_waves())
@example(_EDGE_CASES["all zero"], _EDGE_CASES["all zero"])
@example(
    _EDGE_CASES["first sample in contact, trailing contact"],
    _EDGE_CASES["gap under 50 ms merges"],
)
@example(_EDGE_CASES["contact under 50 ms dropped"], _noisy_wave([(False, 50)] + _STEPS))
def test_contacts_match_per_sample_loop(left, right):
    for series in (left, right):
        assert gait._contacts(series) == _contacts_per_sample(series)
    trial = GaitTrial("p", fv_left=left, fv_right=right)
    fast = _params_or_error(trial)
    with mock.patch.object(gait, "_contacts", _contacts_per_sample):
        assert _params_or_error(trial) == fast


def test_contact_edge_cases_are_distinct():
    """The pinned examples above exercise what their names say."""
    assert _contacts_per_sample(_EDGE_CASES["all zero"]) == []
    first = _contacts_per_sample(_EDGE_CASES["first sample in contact, trailing contact"])
    assert first[0][0] == 0.0 and first[-1][1] is None
    merged = _contacts_per_sample(_EDGE_CASES["gap under 50 ms merges"])
    assert merged[0] == pytest.approx([0.05, 0.68])
    dropped = _contacts_per_sample(_EDGE_CASES["contact under 50 ms dropped"])
    assert dropped[0][0] == pytest.approx(0.27)


def test_series_arrays_are_read_only():
    series = square_wave_trial("p1").fv_left
    assert series.t.dtype == np.float64 and series.v.dtype == np.float64
    with pytest.raises(ValueError):
        series.v[0] = 1.0


def _peak_stats_by_mask(series, intervals, body_mass):
    """Reference: each contact's samples found by a full-length mask."""
    t, v = series.t, series.v
    peaks, to_peak = [], []
    for onset, offset in intervals:
        mask = (t >= onset) & (t <= offset)
        if not mask.any():
            continue
        seg_t, seg_v = t[mask], v[mask]
        k = int(np.argmax(seg_v))
        peaks.append(float(seg_v[k]))
        to_peak.append(float(seg_t[k] - onset))
    if not peaks:
        raise InsufficientSteps("no complete contacts with force samples")
    peak = sum(peaks) / len(peaks)
    if body_mass:
        peak /= body_mass * GRAVITY
    return peak, sum(to_peak) / len(to_peak)


def _step_times_by_scan(own_onsets, other_onsets):
    """Reference: the earlier contralateral onsets listed per own onset."""
    steps = []
    for onset in own_onsets:
        prev = [o for o in other_onsets if o < onset]
        if prev:
            steps.append(onset - prev[-1])
    return steps


def _repr_or_error(fn, *args):
    try:
        return repr(fn(*args))  # repr tells NaN and -0.0 apart
    except InsufficientSteps as exc:
        return ("error", str(exc))


STAMPS = st.lists(st.floats(-1e3, 1e3) | st.sampled_from([-math.inf, math.inf]), unique=True)


@st.composite
def contacts_of_series(draw):
    t = sorted(draw(STAMPS))
    v = draw(st.lists(st.floats(-1e3, 1e3) | st.just(math.nan), min_size=len(t), max_size=len(t)))
    bound = st.sampled_from(t) | st.floats(-2e3, 2e3) if t else st.floats(-2e3, 2e3)
    intervals = draw(st.lists(st.tuples(bound, bound).map(list), max_size=6))
    return TimeSeries.from_arrays(t, v, "Fv"), intervals


@settings(max_examples=300, deadline=None)
@given(contacts_of_series(), st.sampled_from([None, 0.0, 70.0]))
def test_peak_stats_match_mask_reference(series_and_intervals, body_mass):
    series, intervals = series_and_intervals
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite stamp
        got = _repr_or_error(gait._peak_stats, series, intervals, body_mass)
        assert got == _repr_or_error(_peak_stats_by_mask, series, intervals, body_mass)


@settings(max_examples=300, deadline=None)
@given(STAMPS.map(sorted), STAMPS.map(sorted))
def test_step_times_match_scan_reference(own, other):
    assert repr(gait._step_times(own, other)) == repr(_step_times_by_scan(own, other))


# --- one manifestation load per graph ------------------------------------


def test_load_manifestations_returns_independent_lists():
    g = _categories_graph()
    g = add_prototype(g, _affected(g), square_wave_trial("7"))
    first = load_manifestations(g)
    first.clear()
    second = load_manifestations(g)
    assert len(second) == 1 and second is not first
    assert load_manifestations(g) == second


def test_malformed_graph_raises_on_every_call():
    g = parse_turtle('icd10:R73 kava:manifest [ dct:dateSubmitted "2019-01-01" ] .')
    for _ in range(3):
        with pytest.raises(MalformedManifestation):
            load_manifestations(g)


def test_added_manifestation_is_loaded():
    g = _categories_graph()
    concept = _affected(g)
    assert load_manifestations(g) == []
    m = create_manifestation(concept, DirectMapping(bindings=(("patientId", 5),)))
    g2 = add_manifestation_to_graph(g, m)
    assert [x.kind for x in load_manifestations(g2)] == [m.kind]
    assert load_manifestations(g) == []
