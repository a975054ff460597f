"""Turtle subset codec: @prefix directives, predicate/object lists,
anonymous blank-node property lists, and plain literals."""

from __future__ import annotations

import re
from itertools import chain, groupby
from operator import attrgetter

from .errors import InvalidTerm, TurtleSyntaxError, UnknownPrefix
from .rdf import (
    DECIMAL,
    DEFAULT_PREFIXES,
    INTEGER,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    _tree,
    expand,
    prefixed_names,
)

RDF_TYPE = Iri(DEFAULT_PREFIXES["rdf"] + "type")

# String escapes (Turtle ECHAR) this codec reads and writes.
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = str.maketrans({v: "\\" + k for k, v in _UNESCAPE.items()})

# The characters str.isdigit accepts beyond \d (str.isdecimal): superscript,
# subscript and circled digits and the like, as of Unicode 14.
# tests/test_turtle.py checks this class against str.isdigit.
_OTHER_DIGITS = (
    r"\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a"
)
_LOCAL = r"(?:[\w.-]*[\w-])?"  # trailing dots end the statement
_STRING_BODY = r'(?:[^"\\\n]|\\["\\nrt])*'

# One token per match, after any whitespace and '#' comments; the name of
# the group that matched is the token's kind. \s is str.isspace and \w is
# str.isalnum plus '_'. A name that starts outside ASCII matches as "uname":
# \w also holds numerals such as '½', so its first character is then checked
# with str.isalpha. "error" matches where no token starts.
_TOKEN = re.compile(
    rf'''
    \s* (?: (?P<comment> \# [^\n]* ) \s* )*
    (?: (?P<pname> (?: [A-Za-z_][\w-]* )? : {_LOCAL} )
      | (?P<punct> [.;,\[\]] )
      | (?!""") " (?P<string> {_STRING_BODY} ) "
      | (?P<decimal> -? [\d{_OTHER_DIGITS}]+ \. [\d{_OTHER_DIGITS}]+ )
      | (?P<integer> -? [\d{_OTHER_DIGITS}]+ )
      | (?P<a> a ) (?! [\w-] )
      | < (?P<iri> [^>\n]* ) >
      | (?P<prefix> @prefix )
      | (?P<uname> [^\W\d\x00-\x7f] [\w-]* : {_LOCAL} )
      | (?P<eof> \Z )
      | (?P<error> )
    )''',
    re.VERBOSE,
)
_ECHAR = re.compile(r"\\(.)")


def _error(text, offset, message):
    """A TurtleSyntaxError at the line and column of ``offset``."""
    column = offset - text.rfind("\n", 0, offset)
    return TurtleSyntaxError(text.count("\n", 0, offset) + 1, column, message)


def _scan_error(text, at):
    """The error for text at ``at``, where no token starts."""
    c = text[at]
    if c == "(":
        message = "unsupported Turtle feature: collections"
    elif c == "@":
        message = "unsupported Turtle feature: @-directive or language tag"
    elif c == "<":
        message = "unterminated IRI"
    elif text.startswith('"""', at):
        message = "unsupported Turtle feature: triple-quoted string"
    elif c == '"':
        end = re.compile(_STRING_BODY).match(text, at + 1).end()
        message = "bad escape in string" if text.startswith("\\", end) else "unterminated string"
    elif c.isalpha() or c == "_":
        word = re.compile(r"[\w-]*").match(text, at)[0]
        message = f"unexpected bare word {word!r}"
    else:
        message = f"unexpected character {c!r}"
    return _error(text, at, message)


def _scan(text):
    """The tokens of the text, as (kind, value, offset) tuples, the last
    one of kind "eof". A pname's value is its text, such as "ex:a"."""
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        value = m[kind]
        at = m.start(kind)
        pos = m.end()
        if kind == "pname" or kind == "integer" or kind == "decimal" or kind == "a":
            append((kind, value, at))
        elif kind == "punct":
            append((value, value, at))
        elif kind == "string":
            if "\\" in value:
                value = _ECHAR.sub(lambda e: _UNESCAPE[e[1]], value)
            append((kind, value, at - 1))
        elif kind == "iri":
            append((kind, value, at - 1))
        elif kind == "prefix":
            append(("@prefix", value, at))
        elif kind == "uname":
            if not value[0].isalpha():
                raise _error(text, at, f"unexpected character {value[0]!r}")
            append(("pname", value, at))
        elif kind == "eof":
            # the column of eof after a last comment is that of its '#'
            if m.end("comment") == pos:
                at = m.start("comment")
            append((kind, None, at))
            return tokens
        else:
            raise _scan_error(text, at)


def _term(token, terms, namespaces, text):
    """The term of an IRI, prefixed-name or literal token, remembered in
    ``terms`` so that each distinct token is built once."""
    kind, value, at = token
    if kind == "string":
        term = Literal(value)
    elif kind == INTEGER or kind == DECIMAL:
        # the kind is the datatype; a bad lexical escapes as InvalidTerm
        term = Literal(value, kind)
    elif kind == "iri" or kind == "pname":
        try:
            term = Iri(value) if kind == "iri" else expand(value, namespaces)
        except UnknownPrefix as exc:
            raise _error(text, at, f"undeclared prefix {exc.label!r}") from None
        except InvalidTerm as exc:
            raise _error(text, at, str(exc)) from None
    else:
        raise _error(text, at, f"unexpected token {kind!r}")
    terms[kind, value] = term
    return term


def _expected(text, token, kind):
    return _error(text, token[2], f"expected {kind!r}, found {token[0]!r}")


def parse_turtle(text: str, prefixes=None) -> Graph:
    """Parse the supported Turtle subset into a Graph.

    Directives in the document are merged over the default prefix map
    (or the given one). Blank nodes are labelled b1, b2, … in the order of
    their '['.
    """
    tokens = _scan(text)
    namespaces = dict(DEFAULT_PREFIXES)
    if prefixes:
        namespaces.update(prefixes)
    terms = {}  # (kind, value) -> term, under the prefixes declared so far
    triples = []
    parents = []  # (subject, predicate, closing) around each open '[ … ]' object
    blanks = 0
    subject = None  # None between statements
    i = 0
    while True:
        if subject is None:
            token = tokens[i]
            i += 1
            kind = token[0]
            if kind == "eof":
                return Graph(triples, namespaces)
            if kind == "@prefix":
                i = _prefix(tokens, i, namespaces, text)
                terms.clear()
                continue
            if kind == "[":
                blanks += 1
                subject, closing = BlankNode(f"b{blanks}"), "]"
            elif kind == "pname" or kind == "iri":
                subject = terms.get(token[:2]) or _term(token, terms, namespaces, text)
                closing = "."
            else:
                raise _error(text, token[2], f"unexpected token {kind!r}")
            predicate = None  # None at the start of each verb and its objects
        if predicate is None and tokens[i][0] != closing:
            token = tokens[i]
            i += 1
            kind = token[0]
            if kind == "a":
                predicate = RDF_TYPE
            elif kind == "pname" or kind == "iri":
                predicate = terms.get(token[:2]) or _term(token, terms, namespaces, text)
            else:
                raise _error(text, token[2], f"unexpected token {kind!r}")
        if predicate is not None:
            token = tokens[i]
            i += 1
            if token[0] == "[":
                blanks += 1
                node = BlankNode(f"b{blanks}")
                triples.append(Triple(subject, predicate, node))
                parents.append((subject, predicate, closing))
                subject, predicate, closing = node, None, "]"
                continue
            obj = terms.get(token[:2]) or _term(token, terms, namespaces, text)
            triples.append(Triple(subject, predicate, obj))
        # After an object, or at the end of a list: ',' reads one more
        # object, ';' a new verb; any other token must close the list. A
        # closed '[ … ]' object is the last object its parent list read.
        while True:
            token = tokens[i]
            kind = token[0]
            if kind == ",":
                i += 1
                break
            if kind == ";":
                i += 1
                predicate = None
                break
            if kind != closing:
                raise _expected(text, token, closing)
            i += 1
            if closing == ".":
                subject = None
                break
            if parents:
                subject, predicate, closing = parents.pop()
                continue
            # a '[ … ]' subject: a list of its own may follow before the '.'
            closing, predicate = ".", None
            break


def _prefix(tokens, i, namespaces, text):
    """Read the '@prefix' directive whose label is tokens[i] into
    ``namespaces``; the index after it."""
    label = tokens[i]
    if label[0] != "pname":
        raise _expected(text, label, "pname")
    name, _, local = label[1].partition(":")
    if local:
        raise _error(text, label[2], "prefix label must end with ':'")
    iri = tokens[i + 1]
    if iri[0] != "iri":
        raise _expected(text, iri, "iri")
    if tokens[i + 2][0] != ".":
        raise _expected(text, tokens[i + 2], ".")
    namespaces[name] = iri[1]
    return i + 3


def _render_iri(iri, prefixes):
    """The IRI as the first of its prefixed names, longest namespace first,
    that ``_scan`` reads back as one whole pname token, else as ``<IRI>``."""
    for pname in prefixed_names(iri, prefixes):
        m = _TOKEN.match(pname)
        if m and m.span(m.lastgroup) == (0, len(pname)) and (
            m.lastgroup == "pname" or m.lastgroup == "uname" and pname[0].isalpha()
        ):
            return pname
    return f"<{iri.value}>"


def _iri_names(graph):
    """Every IRI of the graph, rendered once."""
    terms = set(chain.from_iterable(graph))
    return {term: _render_iri(term, graph.prefixes) for term in terms if isinstance(term, Iri)}


def _body(subject, graph, names, key, separator, indent):
    """The pieces of the subject's predicate-object list: strings, and
    (blank node, ``indent``) pairs still to be written. Predicates come in
    ``str`` order and each one's objects in key order."""
    pieces = []
    for predicate, group in groupby(graph.match(s=subject), attrgetter("predicate")):
        if pieces:
            pieces.append(separator)
        pieces.append("a " if predicate == RDF_TYPE else names[predicate] + " ")
        for n, term in enumerate(sorted((t.object for t in group), key=key)):
            if n:
                pieces.append(", ")
            if isinstance(term, Iri):
                pieces.append(names[term])
            elif isinstance(term, BlankNode):
                pieces.append((term, indent))
            elif term.datatype == "string":
                pieces.append(f'"{term.lexical.translate(_ESCAPE)}"')
            else:
                pieces.append(term.lexical)
    return pieces


def serialize_turtle(graph: Graph) -> str:
    """Serialize a Graph with tree blank nodes to canonical Turtle.

    Blank nodes are written inline as ``[ … ]``, nested to any depth, in
    one pre-order pass over an explicit stack. Raises NonTreeBlankNodes
    when a blank node is shared or cyclic.
    """
    iri_subjects, root_bnodes, key, _ = _tree(graph)
    names = _iri_names(graph)
    used = {name.split(":")[0] for name in names.values() if not name.startswith("<")}
    if graph.prefixes.get("rdf") == DEFAULT_PREFIXES["rdf"] and graph.match(p=RDF_TYPE):
        used.add("rdf")
    out = [f"@prefix {label}: <{graph.prefixes[label]}> .\n" for label in sorted(used)]
    if out:
        out.append("\n")
    stack = []  # the pieces still to be written, the next one last
    for subject in reversed(root_bnodes):
        body = _body(subject, graph, names, key, ";\n    ", 0)
        stack += [" ] .\n", *reversed(body), "[ "]
    for subject in reversed(iri_subjects):
        body = _body(subject, graph, names, key, ";\n    ", 0)
        stack += [" .\n", *reversed(body), names[subject] + " "]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        node, indent = piece
        pad = "    " * (indent + 1)
        body = _body(node, graph, names, key, ";\n" + pad, indent + 1)
        if body:
            stack += ["\n" + "    " * indent + "]", *reversed(body), "[\n" + pad]
        else:
            out.append("[]")
    return "".join(out)
