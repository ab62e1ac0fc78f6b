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
# IRIREF: no control character or space (U+0000-U+0020) and none of <>"{}|^`\
_IRIREF_RE = re.compile(r'<([^\x00-\x20<>"{}|^`\\]*)>')
_IRI_BODY_RE = re.compile(r'[^\x00-\x20<>"{}|^`\\]*')
# A prefix name, possibly empty.
_PNAME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?")
# A prefixed name; the local part never ends in '.', which belongs to the
# statement instead.
_PREFIXED_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_\-]*)?:((?:[A-Za-z0-9_\-.%]*[A-Za-z0-9_\-%])?)")
_STRING_RUN_RE = re.compile(r'[^"\\\n]*')
# DECIMAL or INTEGER; the lexical form holds a '.' exactly when decimal.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]*\.[0-9]+|[0-9]+)")
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


class _Parser:
    """Recursive descent over one string; ``pos`` is the only cursor.

    Line and column are derived from an offset when a diagnostic is built.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.qt_depth = 0
        # Prefixed name as written -> its Iri, under the current prefixes.
        self.pnames: dict[str, Iri] = {}

    def _skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def _error(self, kind: ErrorKind, message: str,
               at: int | None = None) -> ParseError:
        """A diagnostic positioned at offset ``at`` (default: here)."""
        pos = self.pos if at is None else at
        line_start = self.text.rfind("\n", 0, pos) + 1
        return ParseError(ParseDiagnostics(
            line=self.text.count("\n", 0, pos) + 1,
            column=pos - line_start + 1, message=message, kind=kind))

    # -- entry -------------------------------------------------------------

    def parse_document(self) -> list[Triple]:
        triples: list[Triple] = []
        text = self.text
        self._skip_ws()
        while self.pos < len(text):
            if text.startswith("@", self.pos):
                self._parse_prefix_decl()
            else:
                triples.extend(self._parse_statement())
            self._skip_ws()
        return triples

    # -- directives ---------------------------------------------------------

    def _parse_prefix_decl(self) -> None:
        text, start = self.text, self.pos
        word = text[start:start + 7]
        if word != "@prefix":
            raise self._error(ErrorKind.SYNTAX,
                              f"unknown directive {word!r}", start)
        self.pos += 7
        self._skip_ws()
        name = _PNAME_RE.match(text, self.pos)
        self.pos = name.end()
        if not text.startswith(":", self.pos):
            raise self._error(ErrorKind.SYNTAX, "expected ':' in prefix name")
        self.pos += 1
        self._skip_ws()
        if not text.startswith("<", self.pos):
            raise self._error(ErrorKind.SYNTAX, "expected IRI after @prefix")
        iri = self._parse_iriref()
        self._skip_ws()
        self._expect_dot()
        self.prefixes[name.group()] = iri.value
        self.pnames.clear()

    # -- statements ----------------------------------------------------------

    def _parse_statement(self) -> list[Triple]:
        text, ws = self.text, _WS_RE.match
        subject = self._parse_subject()
        triples: list[Triple] = []
        while True:
            self.pos = ws(text, self.pos).end()
            predicate = self._parse_predicate()
            while True:
                self.pos = ws(text, self.pos).end()
                triples.append(Triple(subject, predicate,
                                      self._parse_object()))
                self.pos = ws(text, self.pos).end()
                if not text.startswith(",", self.pos):
                    break
                self.pos += 1
            if not text.startswith(";", self.pos):
                break
            self.pos += 1
            self.pos = ws(text, self.pos).end()
            # Turtle allows trailing ';' before '.'
            if text.startswith(".", self.pos):
                break
        self._expect_dot()
        return triples

    def _expect_dot(self) -> None:
        if not self.text.startswith(".", self.pos):
            raise self._error(ErrorKind.SYNTAX, "expected '.'")
        self.pos += 1

    # -- terms ----------------------------------------------------------------

    def _parse_subject(self) -> Iri | QuotedTriple:
        text, pos = self.text, self.pos
        if text.startswith("<<", pos):
            return self._parse_quoted_triple()
        if text.startswith("<", pos):
            return self._parse_iriref()
        if text.startswith(("_", "[", "("), pos):
            raise self._error(ErrorKind.SYNTAX,
                              "blank nodes and collections are not supported")
        return self._parse_prefixed_name(allow_a=False)

    def _parse_predicate(self) -> Iri:
        text, pos = self.text, self.pos
        if text.startswith("<<", pos):
            raise self._error(ErrorKind.SYNTAX,
                              "quoted triple not allowed as predicate")
        if text.startswith("<", pos):
            return self._parse_iriref()
        return self._parse_prefixed_name(allow_a=True)

    def _parse_object(self) -> Term:
        text, pos = self.text, self.pos
        ch = text[pos:pos + 1]
        if not ch:  # before the ``in`` test below: "" is in every string
            raise self._error(ErrorKind.SYNTAX, "unexpected end of input")
        if ch == "<":
            if text.startswith("<<", pos):
                return self._parse_quoted_triple()
            return self._parse_iriref()
        if ch == '"':
            return self._parse_string_literal()
        if ch == "'":
            raise self._error(ErrorKind.BAD_LITERAL,
                              "single-quoted strings are not supported")
        if ch.isdigit() or ch in "+-" or (
                ch == "." and text[pos + 1:pos + 2].isdigit()):
            return self._parse_numeric_literal()
        if ch == "{":
            raise self._error(ErrorKind.SYNTAX,
                              "annotation syntax '{| |}' is not supported")
        if text.startswith(("_", "[", "("), pos):
            raise self._error(ErrorKind.SYNTAX,
                              "blank nodes and collections are not supported")
        return self._parse_prefixed_name(allow_a=False)

    def _parse_quoted_triple(self) -> QuotedTriple:
        text, start, ws = self.text, self.pos, _WS_RE.match
        if self.qt_depth == MAX_QT_DEPTH:
            raise self._error(ErrorKind.SYNTAX, "quoted triples nested "
                              f"deeper than {MAX_QT_DEPTH} levels", start)
        self.qt_depth += 1
        self.pos = ws(text, start + 2).end()  # past '<<'
        if self.pos >= len(text):
            raise self._error(ErrorKind.UNBALANCED_QUOTE,
                              "'<<' without matching '>>'", start)
        # A nested QT recurses here directly: one stack frame per level.
        nested = text.startswith
        subject = (self._parse_quoted_triple() if nested("<<", self.pos)
                   else self._parse_subject())
        self.pos = ws(text, self.pos).end()
        predicate = self._parse_predicate()
        self.pos = ws(text, self.pos).end()
        obj = (self._parse_quoted_triple() if nested("<<", self.pos)
               else self._parse_object())
        self.pos = ws(text, self.pos).end()
        if not nested(">>", self.pos):
            raise self._error(ErrorKind.UNBALANCED_QUOTE,
                              "'<<' without matching '>>'", start)
        self.pos += 2
        self.qt_depth -= 1
        return QuotedTriple(subject, predicate, obj)

    def _parse_iriref(self) -> Iri:
        text, start = self.text, self.pos
        m = _IRIREF_RE.match(text, start)
        if m:
            self.pos = m.end()
            return Iri(m.group(1))
        end = _IRI_BODY_RE.match(text, start + 1).end()
        if end == len(text):
            raise self._error(ErrorKind.SYNTAX, "unterminated IRI", start)
        raise self._error(ErrorKind.SYNTAX,
                          f"illegal character {text[end]!r} in IRI", start)

    def _parse_prefixed_name(self, allow_a: bool) -> Iri:
        text, start = self.text, self.pos
        m = _PREFIXED_RE.match(text, start)
        if m is None:
            name = _PNAME_RE.match(text, start).group()
            if name == "a" and allow_a:
                self.pos += 1
                return Iri(RDF_TYPE)
            found = name or text[start:start + 1]
            message = (f"expected a term, found {found!r}" if found
                       else "unexpected end of input")
            raise self._error(ErrorKind.SYNTAX, message, start)
        self.pos = m.end()
        pname = m.group()
        iri = self.pnames.get(pname)
        if iri is None:
            name, local = m.group(1) or "", m.group(2)
            if name not in self.prefixes:
                raise self._error(ErrorKind.UNDEFINED_PREFIX,
                                  f"prefix {name + ':'!r} is not declared",
                                  start)
            iri = self.pnames[pname] = Iri(self.prefixes[name] + local)
        return iri

    def _parse_string_literal(self) -> Literal:
        text, start = self.text, self.pos
        self.pos += 1  # opening quote
        chars: list[str] = []
        while True:
            run = _STRING_RUN_RE.match(text, self.pos)
            chars.append(run.group())
            self.pos = run.end()
            ch = text[self.pos:self.pos + 1]
            if not ch:
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "unterminated string literal", start)
            self.pos += 1
            if ch == '"':
                break
            if ch == "\n":
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "newline in string literal", start)
            chars.append(self._parse_escape(start))
        lexical = "".join(chars)
        if text.startswith("@", self.pos):
            self.pos += 1
            m = _LANGTAG_RE.match(text, self.pos)
            if not m:
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "malformed language tag")
            self.pos = m.end()
            return Literal(lexical, language=m.group().lower())
        if text.startswith("^^", self.pos):
            self.pos += 2
            self._skip_ws()
            if text.startswith("<", self.pos) and not text.startswith(
                    "<<", self.pos):
                dt = self._parse_iriref()
            else:
                dt = self._parse_prefixed_name(allow_a=False)
            return Literal(lexical, datatype=dt.value)
        return Literal(lexical)

    def _parse_escape(self, start: int) -> str:
        text, pos = self.text, self.pos
        ch = text[pos:pos + 1]
        if not ch:
            raise self._error(ErrorKind.BAD_LITERAL, "unterminated escape",
                              start)
        self.pos += 1
        if ch in _STRING_ESCAPES:
            return _STRING_ESCAPES[ch]
        if ch in "uU":
            width = 4 if ch == "u" else 8
            digits = text[pos + 1:pos + 1 + width]
            self.pos += width
            if len(digits) != width or any(
                c not in "0123456789abcdefABCDEF" for c in digits
            ):
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "malformed unicode escape", start)
            code = int(digits, 16)
            # beyond Unicode, or a surrogate, which UTF-8 cannot encode
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise self._error(ErrorKind.BAD_LITERAL,
                                  "malformed unicode escape", start)
            return chr(code)
        raise self._error(ErrorKind.BAD_LITERAL,
                          f"unknown escape '\\{ch}'", start)

    def _parse_numeric_literal(self) -> Literal:
        text, start = self.text, self.pos
        m = _NUMBER_RE.match(text, start)
        if m is None:
            raise self._error(ErrorKind.BAD_LITERAL, "malformed number")
        lexical, end = m.group(), m.end()
        if "." in lexical:
            self.pos = end
            return Literal(lexical, datatype=XSD_DECIMAL)
        # "1." followed by whitespace or the end is INTEGER + statement
        # dot; "1.x" is malformed
        if text.startswith(".", end) and (
                text[end + 1:end + 2] not in " \t\r\n"):
            raise self._error(ErrorKind.BAD_LITERAL, "malformed number")
        self.pos = end
        return Literal(lexical, datatype=XSD_INTEGER)


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
    p._skip_ws()
    term = p._parse_object()
    p._skip_ws()
    if p.pos < len(source):
        raise p._error(ErrorKind.SYNTAX, "trailing input after term")
    return term
