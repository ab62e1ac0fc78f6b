"""Recursive-descent parser for a Turtle-star subset.

Supported: ``@prefix``, absolute IRIs, prefixed names, ``a``, predicate
lists (``;``), object lists (``,``), plain/typed/language-tagged string
literals, integer and decimal literals, ``#`` comments, and quoted triples
(``<< .. >>``) in subject or object position, nested up to
``MAX_QT_DEPTH`` levels.

Rejected with positioned diagnostics: blank nodes, collections, ``@base``,
annotation syntax (``{| |}``), quoted triples nested deeper than
``MAX_QT_DEPTH``, and anything else outside the subset.
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


# Deepest quoted-triple nesting accepted.  Parsing, interning and
# serialization recurse once per level, so this keeps a document well
# inside Python's default recursion limit; deeper input is a positioned
# ParseError.
MAX_QT_DEPTH = 400

_WS_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_IRIREF_RE = re.compile(r'<([^ <>"{}|^`\\\n]*)>')
_IRI_BODY_RE = re.compile(r'[^ <>"{}|^`\\\n]*')
_PNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
# A prefixed name; the local part never ends in '.', which belongs to the
# statement instead.
_PREFIXED_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_\-]*)?:((?:[A-Za-z0-9_\-.%]*[A-Za-z0-9_\-%])?)")
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+")
_LANGTAG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")

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


class _Scanner:
    """Character scanner over one string; tracks only the offset.

    Line and column are derived from an offset when a diagnostic is built.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        taken = self.text[self.pos : self.pos + count]
        self.pos += count
        return taken

    def skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def line_col(self, pos: int) -> tuple[int, int]:
        """1-based line and column of an offset."""
        line_start = self.text.rfind("\n", 0, pos) + 1
        return self.text.count("\n", 0, pos) + 1, pos - line_start + 1

    def error(self, kind: ErrorKind, message: str,
              at: int | None = None) -> ParseError:
        """A diagnostic positioned at offset ``at`` (default: here)."""
        line, column = self.line_col(self.pos if at is None else at)
        return ParseError(ParseDiagnostics(line=line, column=column,
                                           message=message, kind=kind))


class _Parser:
    def __init__(self, source: str):
        self.sc = _Scanner(source)
        self.prefixes: dict[str, str] = {}
        self.qt_depth = 0
        self.iris: dict[str, Iri] = {}

    def _iri(self, value: str) -> Iri:
        """One shared ``Iri`` per distinct value in a document."""
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = Iri(value)
        return iri

    # -- entry -------------------------------------------------------------

    def parse_document(self) -> list[Triple]:
        triples: list[Triple] = []
        sc = self.sc
        sc.skip_ws()
        while not sc.eof():
            if sc.peek() == "@":
                self._parse_prefix_decl()
            else:
                triples.extend(self._parse_statement())
            sc.skip_ws()
        return triples

    # -- directives ---------------------------------------------------------

    def _parse_prefix_decl(self) -> None:
        sc = self.sc
        start = sc.pos
        word = sc.advance(7)
        if word != "@prefix":
            raise sc.error(ErrorKind.SYNTAX, f"unknown directive {word!r}",
                           start)
        sc.skip_ws()
        name = self._parse_prefix_name()
        sc.skip_ws()
        if sc.peek() != "<":
            raise sc.error(ErrorKind.SYNTAX, "expected IRI after @prefix")
        iri = self._parse_iriref()
        sc.skip_ws()
        self._expect_dot()
        self.prefixes[name] = iri.value

    def _parse_prefix_name(self) -> str:
        sc = self.sc
        m = _PNAME_RE.match(sc.text, sc.pos)
        name = ""
        if m:
            name = m.group(0)
            sc.advance(len(name))
        if sc.peek() != ":":
            raise sc.error(ErrorKind.SYNTAX, "expected ':' in prefix name")
        sc.advance()
        return name

    # -- statements ----------------------------------------------------------

    def _parse_statement(self) -> list[Triple]:
        sc = self.sc
        subject = self._parse_subject()
        triples: list[Triple] = []
        while True:
            sc.skip_ws()
            predicate = self._parse_predicate()
            while True:
                sc.skip_ws()
                obj = self._parse_object()
                triples.append(Triple(subject, predicate, obj))
                sc.skip_ws()
                if sc.peek() == ",":
                    sc.advance()
                    continue
                break
            if sc.peek() == ";":
                sc.advance()
                sc.skip_ws()
                # Turtle allows trailing ';' before '.'
                if sc.peek() == ".":
                    break
                continue
            break
        self._expect_dot()
        return triples

    def _expect_dot(self) -> None:
        sc = self.sc
        if sc.peek() != ".":
            raise sc.error(ErrorKind.SYNTAX, "expected '.'")
        sc.advance()

    # -- terms ----------------------------------------------------------------

    def _parse_subject(self) -> Iri | QuotedTriple:
        sc = self.sc
        ch = sc.peek()
        if ch == "<" and sc.peek(1) == "<":
            return self._parse_quoted_triple()
        if ch == "<":
            return self._parse_iriref()
        if ch in "_[(":
            raise sc.error(ErrorKind.SYNTAX,
                           "blank nodes and collections are not supported")
        return self._parse_prefixed_name(allow_a=False)

    def _parse_predicate(self) -> Iri:
        sc = self.sc
        ch = sc.peek()
        if ch == "<":
            if sc.peek(1) == "<":
                raise sc.error(ErrorKind.SYNTAX,
                               "quoted triple not allowed as predicate")
            return self._parse_iriref()
        return self._parse_prefixed_name(allow_a=True)

    def _parse_object(self) -> Term:
        sc = self.sc
        ch = sc.peek()
        if ch == "<" and sc.peek(1) == "<":
            return self._parse_quoted_triple()
        if ch == "<":
            return self._parse_iriref()
        if ch == '"':
            return self._parse_string_literal()
        if ch == "'":
            raise sc.error(ErrorKind.BAD_LITERAL,
                           "single-quoted strings are not supported")
        if ch.isdigit() or ch in "+-" or (ch == "." and sc.peek(1).isdigit()):
            return self._parse_numeric_literal()
        if ch == "{":
            raise sc.error(ErrorKind.SYNTAX,
                           "annotation syntax '{| |}' is not supported")
        if ch in "_[(":
            raise sc.error(ErrorKind.SYNTAX,
                           "blank nodes and collections are not supported")
        return self._parse_prefixed_name(allow_a=False)

    def _parse_quoted_triple(self) -> QuotedTriple:
        sc = self.sc
        start = sc.pos
        if self.qt_depth == MAX_QT_DEPTH:
            raise sc.error(ErrorKind.SYNTAX, "quoted triples nested deeper "
                           f"than {MAX_QT_DEPTH} levels", start)
        self.qt_depth += 1
        sc.advance(2)  # '<<'
        sc.skip_ws()
        if sc.eof():
            raise sc.error(ErrorKind.UNBALANCED_QUOTE,
                           "'<<' without matching '>>'", start)
        # A nested QT recurses here directly: one stack frame per level.
        nested = sc.text.startswith
        subject = (self._parse_quoted_triple() if nested("<<", sc.pos)
                   else self._parse_subject())
        sc.skip_ws()
        predicate = self._parse_predicate()
        sc.skip_ws()
        obj = (self._parse_quoted_triple() if nested("<<", sc.pos)
               else self._parse_object())
        sc.skip_ws()
        if sc.peek() == ">" and sc.peek(1) == ">":
            sc.advance(2)
            self.qt_depth -= 1
            return QuotedTriple(subject, predicate, obj)
        raise sc.error(ErrorKind.UNBALANCED_QUOTE,
                       "'<<' without matching '>>'", start)

    def _parse_iriref(self) -> Iri:
        sc = self.sc
        start = sc.pos
        m = _IRIREF_RE.match(sc.text, start)
        if m:
            sc.pos = m.end()
            return self._iri(m.group(1))
        end = _IRI_BODY_RE.match(sc.text, start + 1).end()
        if end == len(sc.text):
            raise sc.error(ErrorKind.SYNTAX, "unterminated IRI", start)
        raise sc.error(ErrorKind.SYNTAX,
                       f"illegal character {sc.text[end]!r} in IRI", start)

    def _parse_prefixed_name(self, allow_a: bool) -> Iri:
        sc = self.sc
        start = sc.pos
        m = _PREFIXED_RE.match(sc.text, start)
        if m is None:
            m = _PNAME_RE.match(sc.text, start)
            name = m.group(0) if m else ""
            if name == "a" and allow_a:
                sc.advance(1)
                return self._iri(RDF_TYPE)
            raise sc.error(ErrorKind.SYNTAX,
                           f"expected a term, found {name or sc.peek()!r}",
                           start)
        sc.pos = m.end()
        name, local = m.group(1) or "", m.group(2)
        if name not in self.prefixes:
            raise sc.error(ErrorKind.UNDEFINED_PREFIX,
                           f"prefix {name + ':'!r} is not declared", start)
        return self._iri(self.prefixes[name] + local)

    def _parse_string_literal(self) -> Literal:
        sc = self.sc
        start = sc.pos
        sc.advance()  # opening quote
        chars: list[str] = []
        while True:
            run = _STRING_RUN_RE.match(sc.text, sc.pos).group(0)
            chars.append(run)
            sc.pos += len(run)
            if sc.eof():
                raise sc.error(ErrorKind.BAD_LITERAL,
                               "unterminated string literal", start)
            ch = sc.advance()
            if ch == '"':
                break
            if ch == "\n":
                raise sc.error(ErrorKind.BAD_LITERAL,
                               "newline in string literal", start)
            chars.append(self._parse_escape(start))
        lexical = "".join(chars)
        if sc.peek() == "@":
            sc.advance()
            m = _LANGTAG_RE.match(sc.text, sc.pos)
            if not m:
                raise sc.error(ErrorKind.BAD_LITERAL, "malformed language tag")
            tag = m.group(0)
            sc.advance(len(tag))
            return Literal(lexical, language=tag.lower())
        if sc.peek() == "^" and sc.peek(1) == "^":
            sc.advance(2)
            sc.skip_ws()
            if sc.peek() == "<" and sc.peek(1) != "<":
                dt = self._parse_iriref()
            else:
                dt = self._parse_prefixed_name(allow_a=False)
            return Literal(lexical, datatype=dt.value)
        return Literal(lexical)

    def _parse_escape(self, start: int) -> str:
        sc = self.sc
        if sc.eof():
            raise sc.error(ErrorKind.BAD_LITERAL, "unterminated escape",
                           start)
        ch = sc.advance()
        if ch in _STRING_ESCAPES:
            return _STRING_ESCAPES[ch]
        if ch in "uU":
            width = 4 if ch == "u" else 8
            digits = sc.advance(width)
            if len(digits) != width or any(
                c not in "0123456789abcdefABCDEF" for c in digits
            ):
                raise sc.error(ErrorKind.BAD_LITERAL,
                               "malformed unicode escape", start)
            return chr(int(digits, 16))
        raise sc.error(ErrorKind.BAD_LITERAL, f"unknown escape '\\{ch}'",
                       start)

    def _parse_numeric_literal(self) -> Literal:
        sc = self.sc
        start = sc.pos
        m = _DECIMAL_RE.match(sc.text, sc.pos)
        if m:
            text = m.group(0)
            sc.advance(len(text))
            return Literal(text, datatype=XSD_DECIMAL)
        m = _INTEGER_RE.match(sc.text, sc.pos)
        if m:
            text = m.group(0)
            end = sc.pos + len(text)
            # "1." followed by whitespace is INTEGER + statement dot;
            # "1.x" is malformed
            if end < len(sc.text) and sc.text[end] == "." and (
                end + 1 < len(sc.text) and sc.text[end + 1] not in " \t\r\n"
            ):
                raise sc.error(ErrorKind.BAD_LITERAL, "malformed number",
                               start)
            sc.advance(len(text))
            return Literal(text, datatype=XSD_INTEGER)
        raise sc.error(ErrorKind.BAD_LITERAL, "malformed number", start)


def parse_document(source: str) -> list[Triple]:
    """Parse a Turtle-star document into its asserted triples.

    Triples are returned in document order with predicate and object lists
    expanded.  Raises :class:`ParseError` with positioned diagnostics on
    any input outside the supported subset.
    """
    return _Parser(source).parse_document()


def parse_term(source: str) -> Term:
    """Parse a single term (IRI, literal, or quoted triple)."""
    p = _Parser(source)
    p.sc.skip_ws()
    term = p._parse_object()
    p.sc.skip_ws()
    if not p.sc.eof():
        raise p.sc.error(ErrorKind.SYNTAX, "trailing input after term")
    return term
