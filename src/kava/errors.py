"""Exception hierarchy shared by all kava modules, and the UTF-8 file reader.
Every exception here is a KavaError (exit 2) but FragmentError (exit 3)."""


class KavaError(Exception):
    """Base class for all errors raised by this package."""


class UndecodableText(KavaError):
    """A file that is not UTF-8 text."""


def read_text(path) -> str:
    """The text of the file at ``path``, read as UTF-8 without the byte
    order mark that some editors write at its start."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UndecodableText(f"{str(path)!r} is not UTF-8 text: {exc}") from None


class UnknownPrefix(KavaError):
    def __init__(self, label):
        super().__init__(f"unknown prefix {label!r}")
        self.label = label


class InvalidTerm(KavaError, ValueError):
    """An IRI or numeric literal that RDF cannot hold, or a name that is not
    a prefixed name."""


class NonTreeBlankNodes(KavaError):
    """Blank nodes do not form trees (shared or cyclic blank nodes)."""


class TurtleSyntaxError(KavaError):
    def __init__(self, line, column, message):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class JsonLdSyntaxError(KavaError):
    pass


class UnsupportedKeyword(KavaError):
    def __init__(self, keyword):
        super().__init__(f"unsupported JSON-LD keyword {keyword!r}")
        self.keyword = keyword


class EmptyScheme(KavaError):
    pass


class UnknownConcept(KavaError):
    pass


class CyclicScheme(KavaError):
    pass


class HeaderMismatch(KavaError):
    pass


class CsvTypeError(KavaError, ValueError):
    def __init__(self, row, column, message):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class CsvSyntaxError(KavaError):
    """CSV text that ``csv.reader`` refuses, such as a field past its limit."""


class DuplicateIdentifier(KavaError):
    pass


class UnknownVariable(KavaError):
    pass


class PredicateSyntaxError(KavaError):
    def __init__(self, position, message):
        super().__init__(f"position {position}: {message}")
        self.position = position
        self.message = message


class MalformedManifestation(KavaError):
    def __init__(self, subject, reason):
        super().__init__(f"{subject}: {reason}")
        self.subject = subject
        self.reason = reason


class ForeignDialect(KavaError):
    """Query must be delegated to an external engine; not evaluable here."""

    def __init__(self, dialect):
        super().__init__(f"query dialect {dialect!r} is not evaluable locally")
        self.dialect = dialect


class InvalidKind(KavaError):
    pass


class UnsupportedPredicateShape(KavaError):
    pass


class UnsupportedChannel(KavaError):
    pass


class InsufficientSteps(KavaError):
    pass


class NonPositivePhase(KavaError):
    pass


class NonFiniteParameter(KavaError):
    """A gait parameter that is NaN or infinite, such as a peak force
    normalized by a NaN body mass."""


class EmptyPopulation(KavaError):
    pass


class UnknownParameter(KavaError):
    pass


class InvertedRange(KavaError):
    pass


class NoDefinedRanges(KavaError):
    pass


class DuplicatePrototype(KavaError):
    pass


class FragmentError(ValueError):
    """A fragment that fails its schema: kava built it wrong, so this is no
    KavaError, and the command exits 3. path leads from the fragment to the
    value that fails keyword; the message names it as an RFC 6901 pointer."""

    def __init__(self, path, keyword, value):
        pointer = "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in path)
        text = repr(value)
        super().__init__(f"fragment fails its schema at {pointer!r} ({keyword}): "
                         + (text if len(text) <= 60 else text[:57] + "..."))
        self.path, self.keyword, self.value = path, keyword, value
