"""Parser for a Turtle-star subset: one token stream, one grammar.

Supported: ``@prefix``, absolute IRIs, prefixed names, ``a``, predicate
lists (``;``), object lists (``,``), plain/typed/language-tagged string
literals, integer and decimal literals, ``#`` comments, and quoted triples
(``<< .. >>``) in subject or object position, nested up to
``MAX_QT_DEPTH`` levels.

Rejected with positioned diagnostics: blank nodes, collections, ``@base``,
annotation syntax (``{| |}``), quoted triples nested deeper than
``MAX_QT_DEPTH``, and anything else outside the subset.

One compiled alternation tokenizes the text lazily (``finditer``); the
statement grammar runs once over that stream and hands each term to a
*sink* as it closes.  The sink decides what a term becomes:
``parse_document`` and ``parse_term`` build :mod:`qtwalk.terms` objects,
while ``parse_into`` feeds any other sink, such as ``graph.Interner``,
which keys terms by value and never builds a Term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .terms import (
    Iri,
    Literal,
    QuotedTriple,
    RDF_TYPE,
    Term,
    Triple,
    XSD_DECIMAL,
    XSD_INTEGER,
)


class ErrorKind(Enum):
    SYNTAX = "Syntax"
    UNDEFINED_PREFIX = "UndefinedPrefix"
    UNBALANCED_QUOTE = "UnbalancedQuote"
    BAD_LITERAL = "BadLiteral"


@dataclass(frozen=True)
class ParseDiagnostics:
    line: int
    column: int
    message: str
    kind: ErrorKind


class ParseError(ValueError):
    def __init__(self, diagnostics: ParseDiagnostics):
        super().__init__(
            f"{diagnostics.line}:{diagnostics.column}: "
            f"{diagnostics.kind.value}: {diagnostics.message}"
        )
        self.diagnostics = diagnostics


# Deepest quoted-triple nesting accepted.  Parsing and serialization
# recurse once per level (interning does not), so this keeps a document
# well inside Python's default recursion limit; deeper input is a
# positioned ParseError.
MAX_QT_DEPTH = 400

# A string or IRI token's body, and what one failed to close over (for a
# string, its text up to the newline, end of input or bad escape).
_STRING_BODY_RE = re.compile(r'[^"\\\n]*(?:\\.[^"\\\n]*)*')
_IRI_BODY_RE = re.compile(r'[^\x00-\x20<>"{}|^`\\]*')

# One token per match, after any whitespace and comments.  A token's
# position is the start of its group (``lastgroup``).  Every position
# matches something (ERR takes any other character), so the matches tile
# the text and END closes it.  PNAME comes before NAME, which is a
# prefixed name's prefix without the ':' ("a", or a misplaced word); a
# '.' before a digit starts a decimal; a string token carries its
# language tag ("" if malformed) or its '^^'.  IRI and STRING take the
# body patterns above: neither holds the whitespace or '#' that VERBOSE
# drops, and the f-string inserts the IRI class's '{}' as text.
_TOKEN_RE = re.compile(rf"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (?: (?P<PNAME>(?:[A-Za-z_][A-Za-z0-9_\-]*)?:
                  (?:[A-Za-z0-9_\-.%]*[A-Za-z0-9_\-%])?)
      | (?P<DOT>\.(?![0-9]))
      | (?P<QOPEN><<)
      | (?P<QCLOSE>>>)
      | (?P<IRI><{_IRI_BODY_RE.pattern}>)
      | (?P<STRING>"(?P<lexical>{_STRING_BODY_RE.pattern})"
                   (?:@(?P<lang>[A-Za-z]+(?:-[A-Za-z0-9]+)*|)
                     |(?P<datatype>\^\^))?)
      | (?P<SEMI>;)
      | (?P<COMMA>,)
      | (?P<NUMBER>[+-]?(?:[0-9]*\.[0-9]+|[0-9]+))
      | (?P<NAME>[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<AT>@(?:prefix)?)
      | (?P<END>\Z)
      | (?P<ERR>.)
    )""", re.VERBOSE)
# One escape in a string body: \u and 4 hex digits, \U and 8, or a
# backslash and any one character (a 'u' or 'U' here lacks its digits).
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))",
                        re.DOTALL)

_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


class _TermSink:
    """Builds :mod:`qtwalk.terms` objects; collects the asserted triples."""

    iri = Iri
    literal = Literal
    quoted = QuotedTriple

    def __init__(self):
        self.triples: list[Triple] = []

    def triple(self, s, p, o) -> None:
        self.triples.append(Triple(s, p, o))


class _Parser:
    """The statement grammar over one token stream, feeding ``sink``.

    The grammar reads one token at a time; each rule is handed its first
    token and reads the rest itself.  Line and column are derived from a
    token's offset when a diagnostic is built.
    """

    def __init__(self, text: str, sink):
        self.text = text
        self.tokens = _TOKEN_RE.finditer(text)
        self.sink = sink
        self.prefixes: dict[str, str] = {}
        self.qt_depth = 0
        # IRI or prefixed name as written -> the sink's value for it, under
        # the current prefixes.  Names with a '_' prefix stay out, so a
        # subject or object still rejects them as blank nodes.
        self.names: dict = {}

    def _error(self, kind: ErrorKind, message: str, at: int) -> ParseError:
        """A diagnostic positioned at offset ``at``."""
        line_start = self.text.rfind("\n", 0, at) + 1
        return ParseError(ParseDiagnostics(
            line=self.text.count("\n", 0, at) + 1,
            column=at - line_start + 1, message=message, kind=kind))

    # -- statements ----------------------------------------------------------

    def document(self) -> None:
        tokens, triple = self.tokens, self.sink.triple
        subject, predicate, obj = self._subject, self._predicate, self._object
        m = next(tokens)
        while True:
            kind = m.lastgroup
            if kind == "END":
                return
            if kind == "AT":
                self._prefix_decl(m)
                m = next(tokens)
                continue
            s = subject(m)
            m = next(tokens)
            while True:
                p = predicate(m)
                while True:
                    triple(s, p, obj(next(tokens)))
                    m = next(tokens)
                    kind = m.lastgroup
                    if kind != "COMMA":
                        break
                if kind != "SEMI":
                    break
                m = next(tokens)
                kind = m.lastgroup
                # Turtle allows trailing ';' before '.'
                if kind == "DOT" or kind == "NUMBER" and m[kind][0] == ".":
                    break
            self._expect_dot(m)
            m = next(tokens)

    def _expect_dot(self, m) -> None:
        kind = m.lastgroup
        if kind == "DOT":
            return
        start = m.start(kind)
        if kind == "NUMBER" and m[kind][0] == ".":
            # the '.' ends the statement; the next one opens with a digit
            raise self._error(ErrorKind.SYNTAX, "expected a term, found "
                              f"{self.text[start + 1]!r}", start + 1)
        raise self._error(ErrorKind.SYNTAX, "expected '.'", start)

    def _prefix_decl(self, m) -> None:
        text, start = self.text, m.start("AT")
        if m["AT"] != "@prefix":
            raise self._error(ErrorKind.SYNTAX, "unknown directive "
                              f"{text[start:start + 7]!r}", start)
        m = next(self.tokens)
        kind = m.lastgroup
        if kind != "PNAME":
            raise self._error(ErrorKind.SYNTAX, "expected ':' in prefix name",
                              m.end() if kind == "NAME" else m.start(kind))
        name, _, local = m[kind].partition(":")
        if local:
            raise self._error(ErrorKind.SYNTAX, "expected IRI after @prefix",
                              m.start(kind) + len(name) + 1)
        m = next(self.tokens)
        kind = m.lastgroup
        at = m.start(kind)
        if kind != "IRI":
            if text.startswith("<", at):
                raise self._iri_error(at)
            raise self._error(ErrorKind.SYNTAX, "expected IRI after @prefix",
                              at)
        self._expect_dot(next(self.tokens))
        self.prefixes[name] = m[kind][1:-1]
        self.names.clear()

    # -- terms ----------------------------------------------------------------

    def _subject(self, m):
        kind = m.lastgroup
        if kind == "PNAME" or kind == "IRI":
            value = self.names.get(m[kind])
            return self._name(m, kind) if value is None else value
        if kind == "QOPEN":
            return self._quoted(m)
        raise self._term_error(m, "subject")

    def _predicate(self, m):
        kind = m.lastgroup
        if kind == "PNAME" or kind == "IRI":
            value = self.names.get(m[kind])
            return (self._name(m, kind, predicate=True) if value is None
                    else value)
        if kind == "NAME" and m[kind] == "a":
            return self.sink.iri(RDF_TYPE)
        raise self._term_error(m, "predicate")

    def _object(self, m):
        kind = m.lastgroup
        if kind == "PNAME" or kind == "IRI":
            value = self.names.get(m[kind])
            return self._name(m, kind) if value is None else value
        if kind == "QOPEN":
            return self._quoted(m)
        if kind == "STRING":
            return self._string_literal(m)
        if kind == "NUMBER":
            return self._numeric_literal(m)
        raise self._term_error(m, "object")

    def _quoted(self, m):
        start = m.start("QOPEN")
        if self.qt_depth == MAX_QT_DEPTH:
            raise self._error(ErrorKind.SYNTAX, "quoted triples nested "
                              f"deeper than {MAX_QT_DEPTH} levels", start)
        self.qt_depth += 1
        tokens = self.tokens
        # A nested QT recurses here directly: one stack frame per level.
        m = next(tokens)
        kind = m.lastgroup
        if kind == "END":
            raise self._error(ErrorKind.UNBALANCED_QUOTE,
                              "'<<' without matching '>>'", start)
        s = self._quoted(m) if kind == "QOPEN" else self._subject(m)
        p = self._predicate(next(tokens))
        m = next(tokens)
        o = self._quoted(m) if m.lastgroup == "QOPEN" else self._object(m)
        if next(tokens).lastgroup != "QCLOSE":
            raise self._error(ErrorKind.UNBALANCED_QUOTE,
                              "'<<' without matching '>>'", start)
        self.qt_depth -= 1
        return self.sink.quoted(s, p, o)

    def _name(self, m, kind: str, predicate: bool = False):
        """The sink's value for an IRI or prefixed-name token, memoized."""
        token = m[kind]
        if token[0] == "_" and not predicate:
            raise self._blank_node_error(m.start(kind))
        result = self.sink.iri(self._iri_value(m, kind))
        if token[0] != "_":
            self.names[token] = result
        return result

    def _iri_value(self, m, kind: str) -> str:
        """The IRI that an IRI or prefixed-name token names."""
        token = m[kind]
        if kind == "IRI":
            return token[1:-1]
        name, _, local = token.partition(":")
        if name not in self.prefixes:
            raise self._error(ErrorKind.UNDEFINED_PREFIX,
                              f"prefix {name + ':'!r} is not declared",
                              m.start(kind))
        return self.prefixes[name] + local

    def _string_literal(self, m):
        lexical, language, datatype = m.group("lexical", "lang", "datatype")
        if "\\" in lexical:
            lexical = self._unescape(lexical, m.start("STRING"))
        if language is not None:
            if not language:
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "malformed language tag", m.end())
            return self.sink.literal(lexical, None, language.lower())
        if datatype is None:
            return self.sink.literal(lexical, None, None)
        m = next(self.tokens)
        kind = m.lastgroup
        if kind != "IRI" and kind != "PNAME":
            raise self._term_error(m, "datatype")
        return self.sink.literal(lexical, self._iri_value(m, kind), None)

    def _unescape(self, body: str, start: int) -> str:
        """``body`` with its escapes replaced; the first bad one raises,
        positioned at the literal's opening quote, ``start``."""
        def decode(m) -> str:
            digits = m[1] or m[2]
            if digits:
                code = int(digits, 16)
                # beyond Unicode, or a surrogate, which UTF-8 cannot encode
                if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                    return chr(code)
            elif m[3] in _STRING_ESCAPES:
                return _STRING_ESCAPES[m[3]]
            elif m[3] not in "uU":
                raise self._error(ErrorKind.BAD_LITERAL,
                                  f"unknown escape '\\{m[3]}'", start)
            raise self._error(ErrorKind.BAD_LITERAL,
                              "malformed unicode escape", start)

        return _ESCAPE_RE.sub(decode, body)

    def _numeric_literal(self, m):
        lexical = m["NUMBER"]
        if "." in lexical:
            return self.sink.literal(lexical, XSD_DECIMAL, None)
        # "1." followed by whitespace or the end is INTEGER + statement
        # dot; "1.x" is malformed
        text, end = self.text, m.end()
        if text.startswith(".", end) and (
                text[end + 1:end + 2] not in " \t\r\n"):
            raise self._error(ErrorKind.BAD_LITERAL, "malformed number",
                              m.start("NUMBER"))
        return self.sink.literal(lexical, XSD_INTEGER, None)

    # -- diagnostics ----------------------------------------------------------

    def _term_error(self, m, role: str) -> ParseError:
        """Why token ``m`` cannot start the ``role`` term due here: a
        subject, predicate, object, or a literal's datatype."""
        kind = m.lastgroup
        text, start = self.text, m.start(kind)
        ch = text[start:start + 1]
        if not ch:
            return self._error(ErrorKind.SYNTAX, "unexpected end of input",
                               start)
        if kind == "QOPEN" and role == "predicate":
            return self._error(ErrorKind.SYNTAX,
                               "quoted triple not allowed as predicate", start)
        if kind == "ERR" and ch == "<":
            return self._iri_error(start)
        if role == "object":
            if ch == '"':
                return self._open_string_error(start)
            if ch == "'":
                return self._error(ErrorKind.BAD_LITERAL,
                                   "single-quoted strings are not supported",
                                   start)
            if ch.isdigit() or ch in "+-" or (
                    ch == "." and text[start + 1:start + 2].isdigit()):
                return self._error(ErrorKind.BAD_LITERAL, "malformed number",
                                   start)
            if ch == "{":
                return self._error(ErrorKind.SYNTAX, "annotation syntax "
                                   "'{| |}' is not supported", start)
        if role in ("subject", "object") and ch in "_[(":
            return self._blank_node_error(start)
        found = m[kind] if kind == "NAME" else ch
        return self._error(ErrorKind.SYNTAX,
                           f"expected a term, found {found!r}", start)

    def _blank_node_error(self, start: int) -> ParseError:
        return self._error(ErrorKind.SYNTAX,
                           "blank nodes and collections are not supported",
                           start)

    def _iri_error(self, start: int) -> ParseError:
        """Why no IRI token closes at ``start``, a '<'."""
        end = _IRI_BODY_RE.match(self.text, start + 1).end()
        if end == len(self.text):
            return self._error(ErrorKind.SYNTAX, "unterminated IRI", start)
        return self._error(ErrorKind.SYNTAX,
                           f"illegal character {self.text[end]!r} in IRI",
                           start)

    def _open_string_error(self, start: int) -> ParseError:
        """Why no string token closes at ``start``, a '"': the first bad
        escape, else what stopped the body."""
        text = self.text
        body = _STRING_BODY_RE.match(text, start + 1)
        self._unescape(body.group(), start)
        end = body.end()
        stop = text[end:end + 2]
        if stop == "\\":
            message = "unterminated escape"
        elif stop[:1] == "\\":
            message = f"unknown escape '{stop}'"
        elif stop[:1] == "\n":
            message = "newline in string literal"
        else:
            message = "unterminated string literal"
        return self._error(ErrorKind.BAD_LITERAL, message, start)


def parse_into(source: str, sink) -> None:
    """Parse a Turtle-star document, handing each term to ``sink``.

    As each term closes, the parser calls ``sink.iri(value)``,
    ``sink.literal(lexical, datatype, language)`` or ``sink.quoted(s, p,
    o)`` with the sink's own values for the parts, and ``sink.triple(s, p,
    o)`` for each asserted triple, in document order with predicate and
    object lists expanded.  Raises :class:`ParseError` with positioned
    diagnostics on any input outside the supported subset.
    """
    _Parser(source, sink).document()


def parse_document(source: str) -> list[Triple]:
    """Parse a Turtle-star document into its asserted triples.

    Triples are returned in document order with predicate and object lists
    expanded.  Raises :class:`ParseError` with positioned diagnostics on
    any input outside the supported subset.
    """
    sink = _TermSink()
    parse_into(source, sink)
    return sink.triples


def parse_term(source: str) -> Term:
    """Parse a single term (IRI, literal, or quoted triple)."""
    p = _Parser(source, _TermSink())
    term = p._object(next(p.tokens))
    m = next(p.tokens)
    if m.lastgroup != "END":
        raise p._error(ErrorKind.SYNTAX, "trailing input after term",
                       m.start(m.lastgroup))
    return term
