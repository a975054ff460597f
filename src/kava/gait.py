"""Clinical gait case study: spatio-temporal parameters from vertical
ground-reaction-force trials, prototype-driven category models, and
category matching."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .dataset import (
    NUMBER,
    STRING,
    Schema,
    TimeSeries,
    _encode,
    load_csv,
    load_series_csv,
    write_series_csv,
)
from .errors import (
    DuplicatePrototype,
    EmptyPopulation,
    InsufficientSteps,
    InvertedRange,
    KavaError,
    NoDefinedRanges,
    NonFiniteParameter,
    NonPositivePhase,
    UnknownConcept,
    UnknownParameter,
    read_text,
)
from .manifestation import (
    DirectMapping,
    IndirectVariableMapping,
    Manifestation,
    add_manifestation_to_graph,
    concept_manifestations,
    create_manifestation,
    without_manifestations,
)
from .predicate import Predicate, compile_mask, variables
from .rdf import Graph, Iri, Value
from .skos import SKOS_CONCEPT
from .turtle import RDF_TYPE

GRAVITY = 9.81

# Artifact-defined roster; the underlying tool names only a few examples
# (step time, stance time, cadence), so the exact list is fixed here.
PARAMETER_UNITS = {
    "step_time_left": "s",
    "step_time_right": "s",
    "stance_time_left": "s",
    "stance_time_right": "s",
    "swing_time_left": "s",
    "swing_time_right": "s",
    "stride_time_left": "s",
    "stride_time_right": "s",
    "double_support_left": "s",
    "double_support_right": "s",
    "peak_force_left": "N or body weights",
    "peak_force_right": "N or body weights",
    "time_to_peak_left": "s",
    "time_to_peak_right": "s",
    "cadence": "steps/min",
    "support_asymmetry": "ratio",
}
PARAMETER_NAMES = tuple(PARAMETER_UNITS)
_PARAMETER_INDEX = {name: i for i, name in enumerate(PARAMETER_NAMES)}

CONTACT_THRESHOLD_FRACTION = 0.05
DEBOUNCE_SECONDS = 0.05
QUARTILES = (0.25, 0.5, 0.75)


class GaitTrial(Value):
    __slots__ = ()
    patient_id: str
    fv_left: TimeSeries
    fv_right: TimeSeries
    body_mass: float | None = None  # kg
    age: float | None = None  # years

    def metadata(self):
        return {
            "patientId": self.patient_id,
            "age": self.age,
            "bodyMass": self.body_mass,
        }


class SpatioTemporalParams(Value):
    __slots__ = ()
    values: tuple  # 16 floats, ordered per PARAMETER_NAMES

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.values) != len(PARAMETER_NAMES):
            raise ValueError(f"expected {len(PARAMETER_NAMES)} parameters")
        return self

    def as_dict(self):
        return dict(zip(PARAMETER_NAMES, self.values))

    def __getitem__(self, name):  # a parameter by name; an int or a slice reads the tuple
        if type(name) is str:
            return tuple.__getitem__(self, 1)[_PARAMETER_INDEX[name]]
        return tuple.__getitem__(self, name)


class CategoryModel(Value):
    __slots__ = ()
    concept: Iri
    prototypes: list  # of (patient_id, SpatioTemporalParams)
    overrides: dict = MappingProxyType({})  # name -> (min, max)
    population_filter: Predicate | None = None

    def effective_ranges(self) -> dict:
        """Per parameter: override if present, else min/max over prototypes."""
        return {
            name: tuple(self.overrides[name]) if name in self.overrides
            else (min(column), max(column)) if column else None
            for name, column in zip(PARAMETER_NAMES, self._table().T.tolist())
        }

    def _table(self):
        """The prototypes x parameters array, one row per prototype."""
        rows = [p.values for _, p in self.prototypes]
        return np.array(rows, dtype=float).reshape(len(rows), len(PARAMETER_NAMES))


class MatchResult(Value):
    __slots__ = ()
    concept: Iri
    score: float
    per_parameter: dict  # name -> "inside" | "below" | "above" | "undefined"


def _contacts(series: TimeSeries):
    """Contact intervals [(onset, offset)], detected by threshold crossing
    at 5% of the trial's peak force, with a 50 ms debounce."""
    t, v = series.t, series.v
    peak = float(v.max()) if len(v) else 0.0
    if peak <= 0:
        return []
    # Padding with False at both ends makes every contact one rising and one
    # falling edge; a falling edge past the last sample has no offset.
    above = np.concatenate(([False], v > CONTACT_THRESHOLD_FRACTION * peak, [False]))
    edges = np.flatnonzero(above[1:] != above[:-1])
    stamps = t[edges[edges < len(t)]].tolist() + [None]
    intervals = [[on, off] for on, off in zip(stamps[::2], stamps[1::2])]
    # debounce: merge short gaps, then drop short contacts
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
    kept = [
        iv
        for iv in merged
        if iv[1] is None or iv[1] - iv[0] >= DEBOUNCE_SECONDS
    ]
    return kept


def _complete(intervals):
    return [iv for iv in intervals if iv[1] is not None]


def _mean(xs):
    return sum(xs) / len(xs)


def _peak_stats(series: TimeSeries, intervals, body_mass):
    t, v = series.t, series.v
    peaks = []
    to_peak = []
    onsets = [onset for onset, _ in intervals]
    # t[lo:hi] holds the samples onset <= t <= offset; t is strictly increasing
    los = t.searchsorted(onsets, "left").tolist()
    his = t.searchsorted([offset for _, offset in intervals], "right").tolist()
    for onset, lo, hi in zip(onsets, los, his):
        if lo >= hi:
            continue
        k = lo + int(v[lo:hi].argmax())
        peaks.append(float(v[k]))
        to_peak.append(float(t[k] - onset))
    if not peaks:
        raise InsufficientSteps("no complete contacts with force samples")
    peak = _mean(peaks)
    if body_mass:
        peak /= body_mass * GRAVITY
    return peak, _mean(to_peak)


def _step_times(own_onsets, other_onsets):
    """Time from the most recent contralateral onset to each own onset;
    both onset lists are increasing."""
    steps = []
    for onset in own_onsets:
        k = bisect_left(other_onsets, onset)  # other onsets before this one
        if k:
            steps.append(onset - other_onsets[k - 1])
    return steps


def _initial_double_support(own_intervals, other_intervals):
    """Overlap with the contralateral stance at each own contact onset."""
    overlaps = []
    for onset, _ in own_intervals:
        for o_start, o_end in other_intervals:
            if o_end is None:
                continue
            if o_start <= onset < o_end:
                overlaps.append(o_end - onset)
                break
    return overlaps


def compute_params(trial: GaitTrial) -> SpatioTemporalParams:
    """Deterministic 16-parameter vector for one trial.

    Raises InsufficientSteps with fewer than two detected contacts per
    foot, NonPositivePhase when a derived phase is not positive, and
    NonFiniteParameter when a parameter is NaN or infinite.
    """
    values = {}
    contacts = {}
    for side, series in (("left", trial.fv_left), ("right", trial.fv_right)):
        intervals = contacts[side] = _contacts(series)
        complete = _complete(intervals)
        onsets = [iv[0] for iv in intervals]
        if len(onsets) < 2 or not complete:
            raise InsufficientSteps(f"{side}: fewer than two detected steps")
        stance = _mean([b - a for a, b in complete])
        stride = _mean([b - a for a, b in zip(onsets, onsets[1:])])
        swing = stride - stance
        if stance <= 0 or stride <= 0 or swing <= 0:
            raise NonPositivePhase(f"{side}: degenerate gait phases")
        values[f"stance_time_{side}"] = stance
        values[f"swing_time_{side}"] = swing
        values[f"stride_time_{side}"] = stride
        values[f"peak_force_{side}"], values[f"time_to_peak_{side}"] = _peak_stats(
            series, complete, trial.body_mass
        )

    for side, other in (("left", "right"), ("right", "left")):
        own, opposite = contacts[side], contacts[other]
        st = _step_times([iv[0] for iv in own], [iv[0] for iv in opposite])
        if not st:
            raise InsufficientSteps(f"{side}: no alternating steps detected")
        if min(st) <= 0:
            raise NonPositivePhase(f"{side}: non-positive step time")
        values[f"step_time_{side}"] = _mean(st)
        overlaps = _initial_double_support(own, opposite)
        values[f"double_support_{side}"] = _mean(overlaps) if overlaps else 0.0

    values["cadence"] = 60.0 / _mean([values["step_time_left"], values["step_time_right"]])
    stance_l, stance_r = values["stance_time_left"], values["stance_time_right"]
    values["support_asymmetry"] = abs(stance_l - stance_r) / ((stance_l + stance_r) / 2.0)
    for name in PARAMETER_NAMES:
        if not math.isfinite(values[name]):
            raise NonFiniteParameter(f"patient {trial.patient_id}: {name} is {values[name]}")
    return SpatioTemporalParams(tuple(values[name] for name in PARAMETER_NAMES))


def build_category_model(
    concept: Iri, trials, population_filter: Predicate | None = None
) -> CategoryModel:
    """Dynamic [min, max] ranges from the filtered prototype population."""
    by_position = TrialSet.of(dict(enumerate(trials)))
    return _category_model(concept, by_position, by_position.metadata, population_filter, {})


def _category_model(concept, trials, ids, population_filter, overrides) -> CategoryModel:
    """The model over those ``ids`` of the TrialSet whose metadata passes
    the filter; only those trials are read and scored."""
    kept = [pid for pid in ids if pid in trials.metadata]
    if population_filter is not None:  # one mask over the candidates' metadata columns
        rows = [trials.metadata[pid] for pid in kept]
        columns = {v: _encode([row.get(v) for row in rows]) for v in variables(population_filter)}
        mask = compile_mask(population_filter)(columns).to_bytes(len(kept), "little")
        kept = [pid for pid, passes in zip(kept, mask) if passes]
    if not kept:
        raise EmptyPopulation(str(concept))
    prototypes = [(trials.metadata[pid]["patientId"], trials.params(pid)) for pid in kept]
    return CategoryModel(concept, prototypes, overrides, population_filter)


def range_manifestation(
    concept: Iri,
    parameter: str,
    min_value: float,
    max_value: float,
    creator: str | None = None,
    date: str | None = None,
) -> Manifestation:
    """A manual [min, max] override of one roster parameter, as an indirect
    variable mapping. Raises UnknownParameter and InvertedRange."""
    if parameter not in PARAMETER_NAMES:
        raise UnknownParameter(f"unknown parameter {parameter!r}")
    if min_value > max_value:
        raise InvertedRange(f"inverted range: {min_value} > {max_value}")
    return create_manifestation(
        concept,
        IndirectVariableMapping(variable=parameter, min_value=min_value, max_value=max_value),
        creator_name=creator,
        date=date,
    )


def set_range(
    graph: Graph,
    concept: Iri,
    parameter: str,
    min_value: float,
    max_value: float,
    creator: str | None = None,
    date: str | None = None,
) -> Graph:
    """Record a manual range override, replacing any earlier override of
    the same parameter on the concept, which must be typed skos:Concept."""
    _require_concept(graph, concept)
    m = range_manifestation(concept, parameter, min_value, max_value, creator, date)

    def earlier(kind):
        return isinstance(kind, IndirectVariableMapping) and kind.variable_name() == parameter

    return add_manifestation_to_graph(without_manifestations(graph, concept, earlier), m)


def match_category(params: SpatioTemporalParams, model: CategoryModel) -> MatchResult:
    """Classify every parameter against the effective (inclusive) ranges;
    score = inside / defined."""
    return _match(params, model.concept, model.effective_ranges())


def _match(params, concept, ranges) -> MatchResult:
    """match_category against the ranges that effective_ranges gave."""
    per_parameter = {}
    inside = 0
    defined = 0
    for name, v in zip(PARAMETER_NAMES, params.values):
        r = ranges[name]
        if r is None:
            per_parameter[name] = "undefined"
            continue
        defined += 1
        if v < r[0]:
            per_parameter[name] = "below"
        elif v > r[1]:
            per_parameter[name] = "above"
        else:
            per_parameter[name] = "inside"
            inside += 1
    if defined == 0:
        raise NoDefinedRanges(str(concept))
    return MatchResult(concept, inside / defined, per_parameter)


def prototype_ids(graph: Graph, concept: Iri) -> list:
    """patientId bindings of the concept's direct mappings, in load order."""
    ids = []
    for m in concept_manifestations(graph, concept):
        if not isinstance(m.kind, DirectMapping):
            continue
        for var, value in m.kind.bindings:
            if var == "patientId":
                ids.append(value)
    return ids


def _require_concept(graph: Graph, concept: Iri) -> None:
    """Raise UnknownConcept unless the graph types the concept skos:Concept."""
    if not graph.match(s=concept, p=RDF_TYPE, o=SKOS_CONCEPT):
        raise UnknownConcept(str(concept))


def add_prototype(
    graph: Graph,
    concept: Iri,
    trial: GaitTrial,
    creator: str | None = None,
    date: str | None = None,
) -> Graph:
    """Append a direct-mapping prototype for the trial's patient.

    The concept must be typed skos:Concept in the graph, and the trial
    is scored first, so a trial that compute_params cannot score raises
    its error and records nothing. Re-adding the same patient raises
    DuplicatePrototype. The check reads the edited graph, so validating
    that graph loads no manifestations again.
    """
    _require_concept(graph, concept)
    compute_params(trial)
    m = create_manifestation(
        concept,
        DirectMapping(bindings=(("patientId", _coerce_id(trial.patient_id)),)),
        creator_name=creator,
        date=date,
    )
    edited = add_manifestation_to_graph(graph, m)
    pid = str(trial.patient_id)
    if sum(str(i) == pid for i in prototype_ids(edited, concept)) > 1:
        raise DuplicatePrototype(f"{concept}: {trial.patient_id}")
    return edited


def _coerce_id(patient_id):
    """An id that an int prints back exactly, such as "42", as that int;
    any other id, such as "007", as its text."""
    s = str(patient_id)
    try:
        n = int(s)
    except ValueError:
        return s
    return n if str(n) == s else s


def range_overrides_from_graph(graph: Graph, concept: Iri) -> dict:
    """Manual [min, max] overrides stored as indirect variable mappings on
    roster parameter names."""
    overrides = {}
    for m in concept_manifestations(graph, concept):
        if not isinstance(m.kind, IndirectVariableMapping):
            continue
        name = m.kind.variable_name()
        if name in PARAMETER_NAMES:
            lo = m.kind.min_value if m.kind.min_value is not None else -math.inf
            hi = m.kind.max_value if m.kind.max_value is not None else math.inf
            overrides[name] = (lo, hi)
    return overrides


def category_model_from_graph(
    graph: Graph,
    concept: Iri,
    trials_by_id: dict,
    population_filter: Predicate | None = None,
) -> CategoryModel:
    """Build a category from the graph's prototypes plus stored overrides.

    ``trials_by_id`` is a dict of trials by patient id, or a TrialSet; a
    prototype is read and scored only when it passes the filter.
    """
    trials = trials_by_id if isinstance(trials_by_id, TrialSet) else TrialSet.of(trials_by_id)
    ids = map(str, prototype_ids(graph, concept))
    overrides = range_overrides_from_graph(graph, concept)
    return _category_model(concept, trials, ids, population_filter, overrides)


def box_plot_stats(model: CategoryModel) -> dict:
    """Per parameter: min, quartiles, median, max over the prototypes."""
    if not model.prototypes:
        return dict.fromkeys(PARAMETER_NAMES)
    # one contiguous row per parameter, so each row is reduced and sorted
    # (stably: -0.0 and 0.0 keep their order) as one 1-D column would be
    columns = np.ascontiguousarray(model._table().T)
    columns.sort(axis=1, kind="stable")
    quartiles = np.quantile(columns, QUARTILES, axis=1).T.tolist()
    return {
        name: {"min": lo, "q1": q1, "median": median, "q3": q3, "max": hi}
        for name, lo, (q1, median, q3), hi in zip(
            PARAMETER_NAMES, columns.min(axis=1).tolist(), quartiles,
            columns.max(axis=1).tolist(),
        )
    }


def knowledge_table(models, params: SpatioTemporalParams) -> list[dict]:
    """One row per category: match score, effective ranges, box-plot stats."""
    rows = []
    for model in models:
        ranges = model.effective_ranges()
        result = _match(params, model.concept, ranges)
        rows.append(
            {
                "concept": str(model.concept),
                "score": result.score,
                "parameters": {
                    name: {
                        "range": list(ranges[name]) if ranges[name] else None,
                        "overridden": name in model.overrides,
                        "status": result.per_parameter[name],
                        "value": params[name],
                    }
                    for name in PARAMETER_NAMES
                },
                "stats": box_plot_stats(model),
                "prototypes": [pid for pid, _ in model.prototypes],
            }
        )
    return rows


_METADATA_SCHEMA = Schema(
    variables=(("patientId", STRING), ("age", NUMBER), ("bodyMass", NUMBER)),
    identifying=("patientId",),
)


def _load_trial(root: Path, metadata: dict) -> GaitTrial:
    pid = metadata["patientId"]
    return GaitTrial(
        patient_id=pid,
        fv_left=_load_force(root / f"{pid}_left.csv", "Fv left"),
        fv_right=_load_force(root / f"{pid}_right.csv", "Fv right"),
        body_mass=metadata["bodyMass"],
        age=metadata["age"],
    )


def _load_force(path: Path, label: str) -> TimeSeries:
    """The force file at ``path``; an error in its text names the file and
    keeps its class (and a CsvTypeError its row and column)."""
    text = read_text(path)
    try:
        return load_series_csv(text, label)
    except KavaError as exc:
        exc.args = (f"{str(path)!r}: {exc}",)
        raise


class TrialSet:
    """Trials by patient id, each read and scored at most once, on first use.

    ``metadata`` maps each patient id to the dict ``GaitTrial.metadata()``
    gives, so a population filter runs before any force file is read;
    ``load(pid)`` reads one patient's trial.
    """

    def __init__(self, metadata: dict, load):
        self.metadata = metadata
        self._load = load
        self._trials = {}
        self._params = {}

    @classmethod
    def of(cls, trials_by_id: dict) -> TrialSet:
        """A set over trials already in memory."""
        metadata = {pid: trial.metadata() for pid, trial in trials_by_id.items()}
        return cls(metadata, trials_by_id.__getitem__)

    @classmethod
    def read(cls, path) -> TrialSet:
        """A set over a trials directory (see load_trials_dir): metadata.csv
        is read now, a patient's two force files on first use."""
        root = Path(path)
        meta = load_csv(read_text(root / "metadata.csv"), _METADATA_SCHEMA)
        columns = [meta.columns[name].decode() for name in _METADATA_SCHEMA.names()]
        metadata = {  # patientId is a STRING identifier, so never missing
            pid: {"patientId": pid, "age": age, "bodyMass": mass}
            for pid, age, mass in zip(*columns)
        }
        return cls(metadata, lambda pid: _load_trial(root, metadata[pid]))

    def trial(self, pid: str) -> GaitTrial:
        if pid not in self._trials:
            self._trials[pid] = self._load(pid)
        return self._trials[pid]

    def params(self, pid: str) -> SpatioTemporalParams:
        if pid not in self._params:
            self._params[pid] = compute_params(self.trial(pid))
        return self._params[pid]


def load_trials_dir(path) -> dict:
    """Load a trials directory: metadata.csv (patientId, age, bodyMass)
    plus <patientId>_left.csv / <patientId>_right.csv force files."""
    trials = TrialSet.read(path)
    return {pid: trials.trial(pid) for pid in trials.metadata}


def write_trials_dir(path, trials) -> None:
    """Inverse of load_trials_dir, for fixtures and demos."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    metadata = io.StringIO()
    rows = csv.writer(metadata, lineterminator="\n")  # quotes an id such as a,b
    rows.writerow(["patientId", "age", "bodyMass"])
    for trial in trials:
        age = "" if trial.age is None else trial.age
        mass = "" if trial.body_mass is None else trial.body_mass
        rows.writerow([trial.patient_id, f"{age}", f"{mass}"])  # csv.writer reprs a float
        (root / f"{trial.patient_id}_left.csv").write_text(
            write_series_csv(trial.fv_left)
        )
        (root / f"{trial.patient_id}_right.csv").write_text(
            write_series_csv(trial.fv_right)
        )
    (root / "metadata.csv").write_text(metadata.getvalue())


def square_wave_trial(
    patient_id: str,
    stance: float = 0.6,
    stride: float = 1.0,
    strides: int = 10,
    amplitude: float = 800.0,
    dt: float = 0.01,
    body_mass: float | None = None,
    age: float | None = None,
    offset: float | None = None,
) -> GaitTrial:
    """Synthetic alternating square-wave trial with analytically known
    contact timing (left onsets at k*stride, right offset by stride/2)."""
    if offset is None:
        offset = stride / 2.0
    total = strides * stride + stance + offset
    n = int(round(total / dt)) + 1
    t = np.arange(n) * dt

    def force(onsets):
        v = np.zeros(n)
        for onset in onsets:
            v[(t >= onset - dt / 2) & (t < onset + stance - dt / 2)] = amplitude
        return v

    left_onsets = [k * stride for k in range(strides)]
    right_onsets = [k * stride + offset for k in range(strides)]
    left = TimeSeries.from_arrays(t, force(left_onsets), "Fv left")
    right = TimeSeries.from_arrays(t, force(right_onsets), "Fv right")
    return GaitTrial(patient_id, left, right, body_mass, age)
