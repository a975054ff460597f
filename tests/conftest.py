import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from kava.rdf import DEFAULT_PREFIXES, BlankNode, Graph, Iri, Literal, Triple

FIXTURES = Path(__file__).parent / "fixtures"

# The test suite draws the same examples on every run, so a rare failure does
# not surface in an unrelated change; `--hypothesis-profile default` searches
# at random again.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def fixtures():
    return FIXTURES


def fixture_text(name):
    return (FIXTURES / name).read_text()


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit for the test, whatever the runner
    set: code that must not recurse per nesting level is run at it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


_PREDICATE_POOL = [
    Iri(DEFAULT_PREFIXES["skos"] + "prefLabel"),
    Iri(DEFAULT_PREFIXES["skos"] + "broader"),
    Iri(DEFAULT_PREFIXES["kava"] + "manifest"),
    Iri(DEFAULT_PREFIXES["kava"] + "value"),
    Iri(DEFAULT_PREFIXES["dct"] + "creator"),
    Iri("http://example.org/unregistered/p"),
]


# Suffixes of string literals that the codecs must escape or may write raw:
# quotes, backslashes, escapes' letters and control characters.
_AWKWARD = ("", '"', "\\", '\\"', "\t\n\r", "\x00\x1b\x7f", 'a "b" \\n', "\u2028")


def _random_literal(rng):
    pick = rng.randrange(3)
    if pick == 0:
        n = rng.randrange(1000)
        return Literal(f"v{n}{_AWKWARD[n % len(_AWKWARD)]}")
    if pick == 1:
        return Literal(str(rng.randrange(-500, 500)), "integer")
    whole, fraction = rng.randrange(0, 100), rng.randrange(1, 100)
    # every third decimal has more digits than a float holds
    digits = "123456789" * 3 if whole % 3 == 0 else ""
    return Literal(f"{whole}.{fraction}{digits}", "decimal")


def random_tree_graph(rng: random.Random, max_triples: int = 50) -> Graph:
    """Graph whose blank nodes form trees hanging off IRI subjects."""
    triples = []
    budget = rng.randrange(1, max_triples + 1)
    counter = [0]

    def fresh_bnode():
        counter[0] += 1
        return BlankNode(f"g{counter[0]}")

    def grow(subject, depth):
        nonlocal budget
        while budget > 0 and rng.random() < 0.7:
            budget -= 1
            pred = rng.choice(_PREDICATE_POOL)
            roll = rng.random()
            if roll < 0.25 and depth < 3 and budget > 0:
                child = fresh_bnode()
                triples.append(Triple(subject, pred, child))
                grow(child, depth + 1)
            elif roll < 0.5:
                triples.append(
                    Triple(subject, pred, Iri(f"http://example.org/o{rng.randrange(40)}"))
                )
            else:
                triples.append(Triple(subject, pred, _random_literal(rng)))

    while budget > 0:
        subject = Iri(f"http://example.org/s{rng.randrange(20)}")
        before = budget
        grow(subject, 0)
        if budget == before:
            budget -= 1
            triples.append(
                Triple(subject, rng.choice(_PREDICATE_POOL), _random_literal(rng))
            )
    return Graph(triples)
