import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import predicate_reference
from kava.errors import PredicateSyntaxError
from kava.gait import CategoryModel
from kava.predicate import (
    And,
    Comparison,
    Not,
    Or,
    compile_predicate,
    parse_predicate,
    to_text,
    variables,
)
from kava.rdf import Iri


def oracle_eval(pred, record):
    """Independent structural evaluator used as the reference."""
    if isinstance(pred, Comparison):
        v = record.get(pred.variable)
        if v is None or isinstance(v, str) != isinstance(pred.constant, str):
            return False
        return {
            ">": v > pred.constant,
            ">=": v >= pred.constant,
            "<": v < pred.constant,
            "<=": v <= pred.constant,
            "=": v == pred.constant,
            "!=": v != pred.constant,
        }[pred.op]
    if isinstance(pred, Not):
        return not oracle_eval(pred.operand, record)
    if isinstance(pred, And):
        return oracle_eval(pred.left, record) and oracle_eval(pred.right, record)
    return oracle_eval(pred.left, record) or oracle_eval(pred.right, record)


def test_parse_simple_comparison():
    assert parse_predicate("[glucose] > 200") == Comparison("glucose", ">", 200)


def test_not_negates():
    pred = parse_predicate("NOT ([a] = 1)")
    assert not compile_predicate(pred)({"a": 1})
    assert compile_predicate(pred)({"a": 2})


def test_precedence_shape():
    pred = parse_predicate("[a] > 1 AND [b] < 2 OR [c] = 3")
    assert isinstance(pred, Or)
    assert isinstance(pred.left, And)
    assert isinstance(pred.right, Comparison)


def test_precedence_truth_table():
    pred = parse_predicate("[a] > 1 AND [b] < 2 OR [c] = 3")
    for a, b, c in itertools.product([0, 2], [1, 3], [3, 4]):
        record = {"a": a, "b": b, "c": c}
        expected = (a > 1 and b < 2) or c == 3
        assert compile_predicate(pred)(record) == expected


def test_string_constants():
    pred = parse_predicate('[name] = "Doctor Dreamy"')
    assert compile_predicate(pred)({"name": "Doctor Dreamy"})
    assert not compile_predicate(pred)({"name": "someone"})
    assert not compile_predicate(pred)({"name": 5})


def test_missing_values_never_match():
    test = compile_predicate(parse_predicate("[a] != 1"))
    assert not test({})
    assert not test({"a": None})


def test_case_insensitive_keywords():
    pred = parse_predicate("[a] > 1 and not ([b] = 2)")
    assert isinstance(pred, And)
    assert isinstance(pred.right, Not)


def test_syntax_errors_carry_position():
    for text in ["[a] >", "[a] 5", "(", "[a] > 1 AND", "hello", "[a] ~ 1"]:
        with pytest.raises(PredicateSyntaxError):
            parse_predicate(text)


def test_variables_collected():
    assert variables(parse_predicate("[a] > 1 OR NOT ([b] = 2)")) == {"a", "b"}


def test_to_text_roundtrip():
    texts = [
        "[glucose] > 200",
        "NOT ([a] = 1)",
        '[name] = "say \\"hi\\""',
        "[a] > 1 AND [b] < 2 OR [c] = 3",
        "[a] > 100000000000000000000.5",
        "[a] > 0.00001",
        "[a] > " + "9" * 5000,
        "[a] < -" + "9" * 5000,
    ]
    for text in texts:
        pred = parse_predicate(text)
        again = parse_predicate(to_text(pred))
        assert again == pred


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_to_text_roundtrips_every_float(x):
    """Floats of any exponent, and the infinities, read back as the same
    float, sign of zero included."""
    pred = Comparison("a", ">", x)
    again = parse_predicate(to_text(pred))
    assert again == pred
    assert type(again.constant) is float
    assert math.copysign(1, again.constant) == math.copysign(1, x)


def _random_predicate(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        var = rng.choice("abcde")
        op = rng.choice([">", ">=", "<", "<=", "=", "!="])
        return Comparison(var, op, rng.randrange(-5, 6))
    pick = rng.random()
    if pick < 0.2:
        return Not(_random_predicate(rng, depth - 1))
    cls = And if pick < 0.6 else Or
    return cls(_random_predicate(rng, depth - 1), _random_predicate(rng, depth - 1))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_compiled_matches_oracle(seed):
    rng = random.Random(seed)
    pred = _random_predicate(rng, 4)
    reparsed = parse_predicate(to_text(pred))
    test = compile_predicate(reparsed)
    for _ in range(20):
        record = {
            v: rng.choice([None, rng.randrange(-6, 7)]) for v in "abcde"
        }
        assert test(record) == oracle_eval(pred, record)


# Tokens of every kind the tokenizer reads, keywords in any case, stray
# characters and whitespace; and, for each, the ones that may follow it in
# a well-formed predicate.
_VARIABLES = ["[a]", "[b c]"]
_OPERATORS = [">", ">=", "<", "<=", "=", "!="]
_CONSTANTS = ["7", "-2", "0.5", "-12.25", '"x"', '"say \\"hi\\""', '"back\\\\slash"']
_OPERAND = [*_VARIABLES, "NOT", "Not", "not", "("]
_JOINS = ["AND", "and", "or", "OR", ")"]
_ANY = [*_OPERAND, *_OPERATORS, *_CONSTANTS, *_JOINS, "~", "]", "#", "", " ", "\t\n"]
_FOLLOWS = {
    **dict.fromkeys(_VARIABLES, _OPERATORS),
    **dict.fromkeys(_OPERATORS, _CONSTANTS),
    **dict.fromkeys([*_CONSTANTS, ")"], _JOINS),
}


@st.composite
def _token_texts(draw):
    """Texts of up to 20 tokens, each drawn 15 times in 16 from those that
    may follow the token before it, else from every kind. A text may end
    wherever a predicate may: most parse far, and many parse whole."""
    tokens = []
    while len(tokens) < 20:
        follows = _FOLLOWS.get(tokens[-1], _OPERAND) if tokens else _OPERAND
        if follows is _JOINS and draw(st.integers(0, 3)) == 3:
            break
        tokens.append(draw(st.sampled_from(follows if draw(st.integers(0, 15)) < 15 else _ANY)))
    return " ".join(tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except PredicateSyntaxError as exc:
        return exc.position, exc.message


@settings(max_examples=1000, deadline=None)
@example("[a]")  # a variable at the end of the input
@example("( [a] > 2.5 ( [b] = 1")  # an operand followed by '(' inside parentheses
@given(_token_texts())
def test_parser_matches_the_recursive_reference(text):
    """The same tree, or the same first error at the same position."""
    assert _outcome(parse_predicate, text) == _outcome(predicate_reference.parse_predicate, text)


def test_predicates_of_any_depth_need_no_recursion(default_recursion_limit):
    leaf = "[a] = 1"
    texts = [
        " AND ".join([leaf] * 3000),
        " OR ".join(f"[v{k}] > {k}" for k in range(3000)),
        "(" * 3000 + leaf + ")" * 3000,
        "NOT " * 3001 + leaf,
        "(" * 1500 + leaf + "".join(f" OR [b] = {k})" for k in range(1500)),
        "".join(f"[a] = {k} AND (" for k in range(1500)) + leaf + ")" * 1500,
    ]
    results = []
    for text in texts:
        pred = parse_predicate(text)
        rendered = to_text(pred)
        assert parse_predicate(rendered) == pred
        test = compile_predicate(pred)
        results.append((len(variables(pred)), test({"a": 1}), test({"a": 2, "b": 7})))
    assert results == [
        (1, True, False), (3000, False, False), (1, True, False), (1, False, True),
        (2, True, True), (1, False, False),
    ]


def _plain(pred):
    """The predicate as nested plain tuples: what tuple equality compares."""
    if isinstance(pred, (Comparison, And, Or, Not)):
        return tuple(map(_plain, pred))
    return pred


def _recursive_repr(pred):
    """``_Tuple.__repr__`` applied at every level of the tree."""
    if isinstance(pred, (Comparison, And, Or, Not)):
        fields = ", ".join(f"{f}={_recursive_repr(v)}" for f, v in zip(pred._fields, pred[1:]))
        return f"{type(pred).__name__}({fields})"
    return repr(pred)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_equality_and_repr_match_the_tuple_ones(seed):
    rng = random.Random(seed)
    a, b = _random_predicate(rng, 3), _random_predicate(rng, 3)
    twin = parse_predicate(to_text(a))  # a equal tree of other objects
    for x, y in [(a, b), (a, twin), (b, a), (a, Comparison("a", "=", 1)), (a, _plain(a))]:
        assert (x == y) is (_plain(x) == _plain(y))
        assert (x != y) is (_plain(x) != _plain(y))
    assert hash(a) == hash(twin) and a == twin
    assert repr(a) == str(a) == _recursive_repr(a)
    assert (a == "text", a != None) == (False, True)  # noqa: E711


def test_one_equals_one_point_zero_in_a_comparison():
    assert Not(Comparison("a", "=", 1)) == Not(Comparison("a", "=", 1.0))
    assert And(Comparison("a", "=", 1), Comparison("b", "=", 2)) != Or(
        Comparison("a", "=", 1), Comparison("b", "=", 2)
    )


def test_deep_predicates_compare_and_print_without_recursion(default_recursion_limit):
    leaf = "Comparison(variable='a', op='=', constant=1)"
    nested_text = "(" * 1500 + "[a] = 1" + "".join(f" OR [b] = {k})" for k in range(1500))
    cases = [
        ("NOT " * 3000 + "[a] = {}", "Not(operand=" * 3000 + leaf + ")" * 3000),
        (nested_text.replace("[a] = 1", "[a] = {}"), "Or(left=" * 1500 + leaf + "".join(
            f", right=Comparison(variable='b', op='=', constant={k}))" for k in range(1500))),
    ]
    for text, printed in cases:
        pred = parse_predicate(text.format(1))
        assert pred == parse_predicate(text.format(1)) == parse_predicate(text.format("1.0"))
        assert pred != parse_predicate(text.format(2))
        assert not pred != parse_predicate(text.format(1))
        assert hash(pred) == hash(parse_predicate(text.format(1)))
        assert repr(pred) == str(pred) == printed
        concept = Iri("http://example.org/c")
        model = CategoryModel(concept, [], population_filter=pred)
        assert model == CategoryModel(concept, [], population_filter=parse_predicate(text.format(1)))
        assert model != CategoryModel(concept, [], population_filter=parse_predicate(text.format(2)))
        assert repr(model) == (f"CategoryModel(concept={concept!r}, prototypes=[], "
                               f"overrides=mappingproxy({{}}), population_filter={printed})")
