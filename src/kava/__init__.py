"""Structured explicit domain knowledge for visual analytics: SKOS
concepts, their manifestation in datasets, and declarative utilization
fragments, plus a clinical gait case study."""

from .rdf import (
    DEFAULT_PREFIXES,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    expand,
    insert,
    isomorphic_trees,
    shrink,
)
from .turtle import parse_turtle, serialize_turtle

__all__ = [
    "DEFAULT_PREFIXES",
    "BlankNode",
    "Graph",
    "Iri",
    "Literal",
    "Triple",
    "expand",
    "insert",
    "isomorphic_trees",
    "shrink",
    "parse_turtle",
    "serialize_turtle",
    "parse_jsonld",
    "serialize_jsonld",
]

__version__ = "0.1.0"


def __getattr__(name):
    """The JSON-LD reader and writer, imported on their first use."""
    if name in ("parse_jsonld", "serialize_jsonld"):
        from . import jsonld

        return getattr(jsonld, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
