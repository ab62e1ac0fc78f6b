"""RDF-star term model: IRIs, literals, and recursively quoted triples.

Terms are immutable value objects. Two terms are equal iff their canonical
serializations are byte-equal, which the frozen dataclasses guarantee as
long as serialization is injective (see ``serialize_term``).
"""

from __future__ import annotations

from dataclasses import dataclass

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
KGC_NS = "http://kgc.knowledge-graph.jp/ontology/kgc.owl#"

RDF_TYPE = f"{RDF_NS}type"
XSD_INTEGER = f"{XSD_NS}integer"
XSD_DECIMAL = f"{XSD_NS}decimal"
OWL_NOTHING = f"{OWL_NS}Nothing"

# Reserved predicate used to wrap duplicate quoted triples with a unique id.
ID_PREDICATE = f"{KGC_NS}sid"


@dataclass(frozen=True)
class Iri:
    value: str


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str | None = None
    language: str | None = None


@dataclass(frozen=True)
class QuotedTriple:
    subject: "Term"
    predicate: Iri
    object: "Term"


Term = Iri | Literal | QuotedTriple


@dataclass(frozen=True)
class Triple:
    """An asserted triple.  Subject is never a literal."""

    subject: Iri | QuotedTriple
    predicate: Iri
    object: Term


# What a literal's lexical form escapes: backslash, the double quote and
# the C0 controls, the common three by name.
_LITERAL_ESCAPES = {i: f"\\u{i:04X}" for i in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"',
    ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t",
}


def serialize_term(t: Term) -> str:
    """Canonical text form of a term.

    IRIs as ``<iri>``, literals as ``"lexical"`` with an optional ``^^<dt>``
    or ``@lang`` suffix, quoted triples as ``<< S P O >>`` with single
    spaces, recursively.  Parsing the result yields an equal term.
    """
    if isinstance(t, Iri):
        return f"<{t.value}>"
    if isinstance(t, Literal):
        return literal_text(t.lexical, t.datatype, t.language)
    if isinstance(t, QuotedTriple):
        return quoted_text(serialize_term(t.subject),
                           serialize_term(t.predicate),
                           serialize_term(t.object))
    raise TypeError(f"not a Term: {t!r}")


def literal_text(lexical: str, datatype: str | None,
                 language: str | None) -> str:
    """Canonical text form of the literal with these fields."""
    base = f'"{lexical.translate(_LITERAL_ESCAPES)}"'
    if language is not None:
        return f"{base}@{language}"
    if datatype is not None:
        return f"{base}^^<{datatype}>"
    return base


def quoted_text(s: str, p: str, o: str) -> str:
    """Canonical text form of the quoted triple whose parts have the
    canonical texts ``s``, ``p`` and ``o``."""
    return f"<< {s} {p} {o} >>"


def triple_text(s: str, p: str, o: str) -> str:
    """An asserted triple's line, without its newline, from its parts'
    canonical texts."""
    return f"{s} {p} {o} ."


def serialize_triple(t: Triple) -> str:
    return triple_text(serialize_term(t.subject), serialize_term(t.predicate),
                       serialize_term(t.object))
