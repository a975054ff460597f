"""Exception hierarchy shared by all kava modules, and the UTF-8 file reader."""


class KavaError(Exception):
    """Base class for all errors raised by this package."""


class UndecodableText(KavaError):
    """A file that is not UTF-8 text."""


def read_text(path) -> str:
    """The text of the file at ``path``, read as UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
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
