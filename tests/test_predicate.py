import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kava.errors import PredicateSyntaxError
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
