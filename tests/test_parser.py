import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qtwalk.fixtures import random_graph
from qtwalk.parser import ErrorKind, ParseError, parse_document, parse_term
from qtwalk.terms import (
    Iri,
    Literal,
    QuotedTriple,
    RDF_TYPE,
    Triple,
    XSD_DECIMAL,
    XSD_INTEGER,
    literal_text,
    serialize_term,
    serialize_triple,
)

from conftest import random_term

KGC = "http://kgc.knowledge-graph.jp/ontology/kgc.owl#"
KD = "http://kgc.knowledge-graph.jp/data/SpeckledBand/"
KP = "http://kgc.knowledge-graph.jp/data/predicate/"

SCENE_DOC = f"""\
@prefix kgc: <{KGC}> .
@prefix kdsb: <{KD}> .
@prefix kdp: <{KP}> .

<< kdsb:Julia kdp:meet kdsb:lieutenant_commander >>
    a kgc:Situation ;
    kgc:where kdsb:Harrow .
"""


def test_prefixed_document_with_quoted_subject():
    triples = parse_document(SCENE_DOC)
    qt = QuotedTriple(
        Iri(KD + "Julia"), Iri(KP + "meet"), Iri(KD + "lieutenant_commander")
    )
    assert triples == [
        Triple(qt, Iri(RDF_TYPE), Iri(KGC + "Situation")),
        Triple(qt, Iri(KGC + "where"), Iri(KD + "Harrow")),
    ]


def test_empty_and_comment_only_documents():
    assert parse_document("") == []
    assert parse_document("# nothing here\n   \n# still nothing") == []


def test_predicate_and_object_lists_expand():
    doc = """
    @prefix : <urn:x:> .
    :a :p :b , :c ; :q :d .
    """
    triples = parse_document(doc)
    assert triples == [
        Triple(Iri("urn:x:a"), Iri("urn:x:p"), Iri("urn:x:b")),
        Triple(Iri("urn:x:a"), Iri("urn:x:p"), Iri("urn:x:c")),
        Triple(Iri("urn:x:a"), Iri("urn:x:q"), Iri("urn:x:d")),
    ]


def test_literal_forms():
    doc = r"""
    @prefix : <urn:x:> .
    :a :p "plain" .
    :a :p "tabbed\tand\nnewlined" .
    :a :p "hello"@en-GB .
    :a :p "1.5"^^<http://www.w3.org/2001/XMLSchema#double> .
    :a :p 42 .
    :a :p -3.25 .
    """
    objects = [t.object for t in parse_document(doc)]
    assert objects == [
        Literal("plain"),
        Literal("tabbed\tand\nnewlined"),
        Literal("hello", language="en-gb"),
        Literal("1.5", datatype="http://www.w3.org/2001/XMLSchema#double"),
        Literal("42", datatype=XSD_INTEGER),
        Literal("-3.25", datatype=XSD_DECIMAL),
    ]


_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def escape_lexical(s: str) -> str:
    """A literal's escaped lexical form, one character at a time."""
    out = []
    for ch in s:
        if ch in _LITERAL_ESCAPES:
            out.append(_LITERAL_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def test_literal_text_escapes_as_the_character_loop():
    chars = [chr(i) for i in range(0x80)] + ["\x85", "\xa0", "\u00e9",
                                             "\u2028", "\U0001F600"]
    for ch in chars:
        assert literal_text(ch, None, None) == f'"{escape_lexical(ch)}"'
    everything = "".join(chars)
    assert literal_text(everything, None, "en") == (
        f'"{escape_lexical(everything)}"@en')


_STRING_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}


def unescape_lexical(body: str) -> str:
    """A string body with its escapes replaced, one escape at a time; the
    first bad escape raises ``ValueError`` with the parser's message."""
    chars = []
    pos = 0
    while True:
        escape = body.find("\\", pos)
        if escape < 0:
            chars.append(body[pos:])
            return "".join(chars)
        chars.append(body[pos:escape])
        ch = body[escape + 1:escape + 2]
        pos = escape + 2
        if ch in _STRING_ESCAPES:
            chars.append(_STRING_ESCAPES[ch])
            continue
        if not ch:
            raise ValueError("unterminated escape")
        if ch not in "uU":
            raise ValueError(f"unknown escape '\\{ch}'")
        width = 4 if ch == "u" else 8
        digits = body[pos:pos + width]
        pos += width
        if len(digits) != width or any(
            c not in "0123456789abcdefABCDEF" for c in digits
        ):
            raise ValueError("malformed unicode escape")
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValueError("malformed unicode escape")
        chars.append(chr(code))


# A body is pieces: a character, a backslash and the character it escapes
# (so no body ends in a lone backslash), or a whole unicode escape, which
# may be a surrogate or lie beyond U+10FFFF.
_BODY_CHARS = "uU0123456789abcdefABCDEFtnrx'q\u00e9\u2028\U0001F600"
_body_pieces = st.lists(st.one_of(
    st.sampled_from(_BODY_CHARS),
    st.sampled_from(_BODY_CHARS + '"\\').map(lambda ch: "\\" + ch),
    st.integers(0, 0xFFFF).map(lambda code: f"\\u{code:04x}"),
    st.integers(0, 0x11FFFF).map(lambda code: f"\\U{code:08X}"),
), max_size=12)


@given(_body_pieces)
@example(["\\u", "1", "2"])
@example(["\\U", "0", "0", "0", "0", "0", "0", "4", "1", "\\q"])
@settings(max_examples=500, deadline=None)
def test_string_escapes_decode_as_the_reference_loop(pieces):
    body = "".join(pieces)
    try:
        expected = Literal(unescape_lexical(body))
    except ValueError as exc:
        expected = (ErrorKind.BAD_LITERAL, 1, 1, str(exc))
    try:
        got = parse_term(f'"{body}"')
    except ParseError as exc:
        d = exc.diagnostics
        got = (d.kind, d.line, d.column, d.message)
    assert got == expected


def test_unicode_escapes():
    doc = '@prefix : <urn:x:> . :a :p "\\u00e9\\U0001F600" .'
    (t,) = parse_document(doc)
    assert t.object == Literal("é\U0001F600")
    # the code points next to the surrogates and the last one
    doc = '<urn:a> <urn:p> "\\uD7FF\\uE000\\U0010FFFF" .'
    (t,) = parse_document(doc)
    assert t.object == Literal("\uD7FF\uE000\U0010FFFF")


def test_nested_quoted_triple_both_positions():
    doc = """
    @prefix : <urn:x:> .
    << << :e2 :r2 :e3 >> :r3 :e4 >> :r6 :e7 .
    :e1 :r1 << :e8 :r4 << :e9 :r5 :e10 >> >> .
    """
    t1, t2 = parse_document(doc)
    assert t1.subject == QuotedTriple(
        QuotedTriple(Iri("urn:x:e2"), Iri("urn:x:r2"), Iri("urn:x:e3")),
        Iri("urn:x:r3"),
        Iri("urn:x:e4"),
    )
    assert t2.object == QuotedTriple(
        Iri("urn:x:e8"),
        Iri("urn:x:r4"),
        QuotedTriple(Iri("urn:x:e9"), Iri("urn:x:r5"), Iri("urn:x:e10")),
    )


_iris = st.builds(
    Iri, st.from_regex(r"urn:h:[A-Za-z0-9._~%-]{1,12}", fullmatch=True)
)
_literals = st.one_of(
    st.builds(Literal, st.text(max_size=12)),
    st.builds(Literal, st.text(max_size=8),
              st.just(None), st.sampled_from(["en", "ja", "de-at"])),
    st.builds(Literal, st.text(max_size=8), st.just(XSD_INTEGER)),
)
# quoted-triple subjects may not be literals, objects may be anything
_subjects = st.recursive(
    _iris,
    lambda subj: st.builds(
        QuotedTriple, subj, _iris, st.one_of(subj, _literals)
    ),
    max_leaves=5,
)
_terms = st.one_of(
    _literals,
    _subjects,
    st.builds(QuotedTriple, _subjects, _iris, st.one_of(_subjects, _literals)),
)


@given(_terms)
@settings(max_examples=300, deadline=None)
def test_any_term_round_trips(term):
    assert parse_term(serialize_term(term)) == term


def test_parse_term_round_trips_random_terms():
    rng = random.Random(7)
    for _ in range(1000):
        term = random_term(rng)
        assert parse_term(serialize_term(term)) == term


def test_parse_document_round_trips_random_graphs():
    for seed in range(20):
        triples = random_graph(seed, triples=40)
        doc = "\n".join(serialize_triple(t) for t in triples)
        assert parse_document(doc) == triples


# -- diagnostics ---------------------------------------------------------------

def _diag(source: str):
    with pytest.raises(ParseError) as exc_info:
        parse_document(source)
    return exc_info.value.diagnostics


def test_undefined_prefix_is_positioned():
    d = _diag("@prefix : <urn:x:> .\n:a nope:p :b .")
    assert d.kind is ErrorKind.UNDEFINED_PREFIX
    assert d.line == 2
    assert d.column >= 4
    assert "nope" in d.message


def test_redeclared_prefix_resolves_names_anew():
    source = ("@prefix ex: <urn:old:> .\n"
              "ex:a ex:p ex:a .\n"
              "@prefix ex: <urn:new:> .\n"
              "ex:a ex:p ex:a .\n")
    old, new = Iri("urn:old:a"), Iri("urn:new:a")
    assert parse_document(source) == [
        Triple(old, Iri("urn:old:p"), old),
        Triple(new, Iri("urn:new:p"), new),
    ]
    d = _diag(source + "ex:a ex:p nope:a .\n")
    assert d.kind is ErrorKind.UNDEFINED_PREFIX
    assert (d.line, d.column) == (5, 11)
    assert d.message == "prefix 'nope:' is not declared"


def test_unterminated_string_is_positioned():
    d = _diag('@prefix : <urn:x:> .\n:a :p "oops .\n')
    assert d.kind is ErrorKind.BAD_LITERAL
    assert d.line == 2


def test_unclosed_quoted_triple():
    d = _diag("@prefix : <urn:x:> .\n<< :a :p :b :c :d .")
    assert d.kind is ErrorKind.UNBALANCED_QUOTE
    assert d.line == 2


def test_bad_escape_in_literal():
    d = _diag('@prefix : <urn:x:> .\n:a :p "bad\\q" .')
    assert d.kind is ErrorKind.BAD_LITERAL
    assert d.line == 2


def test_missing_final_dot():
    d = _diag("@prefix : <urn:x:> .\n:a :p :b")
    assert d.kind is ErrorKind.SYNTAX


def test_blank_nodes_are_rejected():
    d = _diag("_:b <urn:p> <urn:o> .")
    assert d.kind is ErrorKind.SYNTAX
    assert d.line == 1


def test_literal_subject_is_rejected():
    d = _diag('"x" <urn:p> <urn:o> .')
    assert d.kind is ErrorKind.SYNTAX


_P = "@prefix x: <urn:x:> .\n"
SYNTAX, BAD_LITERAL = ErrorKind.SYNTAX, ErrorKind.BAD_LITERAL


def _outcome(source: str):
    """The serialized triples of ``source``, or its diagnostic."""
    try:
        return [serialize_triple(t) for t in parse_document(source)]
    except ParseError as exc:
        d = exc.diagnostics
        return d.kind, d.line, d.column, d.message


@pytest.mark.parametrize("source,expected", [
    ("@base <urn:x:> .\n", (SYNTAX, 1, 1, "unknown directive '@base <'")),
    ("@prefix x: urn:x: .", (SYNTAX, 1, 12, "expected IRI after @prefix")),
    (_P + "x:s << x:a x:b x:c >> x:o .",
     (SYNTAX, 2, 5, "quoted triple not allowed as predicate")),
    (_P + "x:s x:p 'o' .",
     (BAD_LITERAL, 2, 9, "single-quoted strings are not supported")),
    (_P + "x:s x:p {| x:q x:r |} .",
     (SYNTAX, 2, 9, "annotation syntax '{| |}' is not supported")),
    (_P + "x:s x:p\n  _:b .",
     (SYNTAX, 3, 3, "blank nodes and collections are not supported")),
    (_P + "x:s x:p << ",
     (ErrorKind.UNBALANCED_QUOTE, 2, 9, "'<<' without matching '>>'")),
    (_P + 'x:s x:p "o"@1 .', (BAD_LITERAL, 2, 13, "malformed language tag")),
    (_P + 'x:s x:p "o\\', (BAD_LITERAL, 2, 9, "unterminated escape")),
    (_P + 'x:s x:p "\\u00G9" .',
     (BAD_LITERAL, 2, 9, "malformed unicode escape")),
    (_P + "x:s x:p +x .", (BAD_LITERAL, 2, 9, "malformed number")),
    (_P + "x:s x:p 1.x .", (BAD_LITERAL, 2, 9, "malformed number")),
    (_P + "x:s x:p x:o ; .", ["<urn:x:s> <urn:x:p> <urn:x:o> ."]),
    (_P + 'x:s x:p "1"^^x:t .', ['<urn:x:s> <urn:x:p> "1"^^<urn:x:t> .']),
    # a term is due at the end of the input
    ("<urn:a> <urn:p>", (SYNTAX, 1, 16, "unexpected end of input")),
    ("<< <urn:a> ", (SYNTAX, 1, 12, "unexpected end of input")),
    ("<s> <p> <o> ;", (SYNTAX, 1, 14, "unexpected end of input")),
    ("<s> <p> <o> ,\n", (SYNTAX, 2, 1, "unexpected end of input")),
    ('<s> <p> "x"^^', (SYNTAX, 1, 14, "unexpected end of input")),
    # code points beyond Unicode, and surrogates, which UTF-8 cannot encode
    (_P + 'x:s x:p "x\\UFFFFFFFF" .',
     (BAD_LITERAL, 2, 9, "malformed unicode escape")),
    (_P + 'x:s x:p\n "x\\U00110000" .',
     (BAD_LITERAL, 3, 2, "malformed unicode escape")),
    (_P + 'x:s x:p "\\uD800" .',
     (BAD_LITERAL, 2, 9, "malformed unicode escape")),
    (_P + 'x:s x:p "ab\\uDFFF" .',
     (BAD_LITERAL, 2, 9, "malformed unicode escape")),
    # IRIREF excludes U+0000-U+0020; a TAB would split a walk token
    ("<urn:s> <urn:p>\n  <urn:a\tb> .",
     (SYNTAX, 2, 3, "illegal character '\\t' in IRI")),
    ("<urn:a\x01b> <urn:p> <urn:o> .",
     (SYNTAX, 1, 1, "illegal character '\\x01' in IRI")),
    ("<urn:s> <urn:p> <urn:a\x1fb> .",
     (SYNTAX, 1, 17, "illegal character '\\x1f' in IRI")),
    # a '.' before a digit: a decimal where an object is due, else the
    # statement's end, and the next statement cannot open with a digit
    (_P + "x:s x:p .5 , 7.", ['<urn:x:s> <urn:x:p> ".5"^^<%s> .' % XSD_DECIMAL,
                              '<urn:x:s> <urn:x:p> "7"^^<%s> .' % XSD_INTEGER]),
    (_P + "x:s x:p x:o .5 .", (SYNTAX, 2, 14, "expected a term, found '5'")),
    (_P + "x:s x:p x:o ;.5", (SYNTAX, 2, 15, "expected a term, found '5'")),
    ("@prefix x: <urn:x:> .5", (SYNTAX, 1, 22, "expected a term, found '5'")),
    # a declared '_' prefix names a predicate, never a subject or object
    ("@prefix _: <urn:b:> .\n<urn:s> _:p <urn:o> .\n_:p <urn:p> <urn:o> .",
     (SYNTAX, 3, 1, "blank nodes and collections are not supported")),
    ("@prefix _: <urn:b:> .\n<urn:s> _:p <urn:o> .\n<urn:s> <urn:p> _:p .",
     (SYNTAX, 3, 17, "blank nodes and collections are not supported")),
])
def test_rarely_reached_paths(source, expected):
    assert _outcome(source) == expected


@pytest.mark.parametrize("source,line,column", [("", 1, 1), (" \n ", 2, 2)])
def test_parse_term_reports_end_of_input(source, line, column):
    with pytest.raises(ParseError) as exc_info:
        parse_term(source)
    d = exc_info.value.diagnostics
    assert (d.kind, d.line, d.column, d.message) == (
        SYNTAX, line, column, "unexpected end of input")


def test_error_str_mentions_position():
    try:
        parse_document("@prefix : <urn:x:> .\n:a nope:p :b .")
    except ParseError as exc:
        assert "2" in str(exc)
    else:
        pytest.fail("expected a parse error")
