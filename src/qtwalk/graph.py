"""Immutable indexed store for RDF-star graphs.

``Interner`` interns every distinct term once and numbers the terms
0..N-1 in canonical-string order.  The parser feeds it as each term
closes, from a document (``parse_graph``) or from Term objects written
out as one (``build_graph``).  The indexes are plain per-id tuples over
those ints: outgoing ``(p, o)`` and incoming ``(s, p)`` pairs of the
asserted triples, and every quoted triple occurring anywhere in the
graph (any nesting level) by its subject and object ids, which is what
the QT-aware walks need.  ``Graph.id_of`` maps a term to its id.
Because id order is text order, a candidate list sorted by ids is
sorted by the candidates' canonical text (``<< s p o >>`` for a
triple), so candidate order, and with it every random draw of a walk,
does not depend on the order of the input triples.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .parser import parse_into, parse_term
from .terms import (
    ID_PREDICATE,
    Iri,
    QuotedTriple,
    RDF_TYPE,
    Term,
    Triple,
    literal_text,
    quoted_text,
    serialize_term,
    serialize_triple,
    triple_text,
)

_DEPTH_NAMES = {1: "Single", 2: "Double", 3: "Triple", 4: "Quadruple"}

Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Graph:
    """Interned terms and their per-id indexes.

    ``texts[i]`` is term ``i``'s canonical string; ``texts`` is strictly
    increasing, so ``id_of`` finds a text by bisection.  ``qt_lookup``
    maps a QT's ``(s, p, o)`` to its id, in ascending id order, so its
    values are the sorted ids of all quoted triples.

    Per id: ``out_edges`` holds the sorted ``(p, o)`` pairs of the
    asserted triples with that subject, ``in_edges`` the sorted ``(s, p)``
    pairs of those with that object (each asserted triple is held by
    these two indexes only, so ``out_edges`` in id order lists them all
    sorted), ``qts_by_subject``/``qts_by_object``
    the sorted ids of the quoted triples with that subject/object,
    ``qt_parts`` the ``(s, p, o)`` of a quoted triple (``None`` for other
    terms).  ``roots`` are the sorted ids of the IRIs and quoted triples in
    a subject or object position, at any nesting level.

    Term objects (``terms``, ``triples``, ``node_set``, ``qt_set``) are
    built from the texts and ``qt_parts`` on first use only.
    """

    texts: tuple[str, ...] = field(repr=False)
    out_edges: tuple[Pairs, ...] = field(repr=False)
    in_edges: tuple[Pairs, ...] = field(repr=False)
    qts_by_subject: tuple[tuple[int, ...], ...] = field(repr=False)
    qts_by_object: tuple[tuple[int, ...], ...] = field(repr=False)
    qt_parts: tuple[tuple[int, int, int] | None, ...] = field(repr=False)
    qt_lookup: dict[tuple[int, int, int], int] = field(repr=False)
    roots: tuple[int, ...] = field(repr=False)

    def id_of(self, t: Term) -> int | None:
        """Id of a term, or None if it does not occur in the graph."""
        text = serialize_term(t)
        i = bisect_left(self.texts, text)
        return i if i < len(self.texts) and self.texts[i] == text else None

    def qts_parts_first(self) -> list[int]:
        """The QT ids, each after the QTs among its parts: a QT's text is
        longer than either part's."""
        texts = self.texts
        return sorted(self.qt_lookup.values(), key=lambda q: len(texts[q]))

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """Term ``i`` for every id ``i``: IRIs and literals parsed from
        their texts, each QT built from its parts' Term objects."""
        terms: list = [None if parts is not None else parse_term(text)
                       for text, parts in zip(self.texts, self.qt_parts)]
        for q in self.qts_parts_first():
            s, p, o = self.qt_parts[q]
            terms[q] = QuotedTriple(terms[s], terms[p], terms[o])
        return tuple(terms)

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        """The asserted triples, duplicates dropped, in id order."""
        terms = self.terms
        return tuple(Triple(terms[s], terms[p], terms[o])
                     for s, edges in enumerate(self.out_edges)
                     for p, o in edges)

    @cached_property
    def node_set(self) -> frozenset[Term]:
        """Every term, at any nesting level and in any position."""
        return frozenset(self.terms)

    @cached_property
    def qt_set(self) -> frozenset[QuotedTriple]:
        """Every quoted triple, at any nesting level."""
        return frozenset(self.terms[q] for q in self.qt_lookup.values())

    def fingerprint(self) -> str:
        """sha256 over the sorted canonical triple serializations.

        The lines are hashed one at a time in id order, as ``out_edges``
        lists them, which is their text order: ids are numbered in text
        order, and the only term text that is a prefix of another is a
        literal's before its ``@lang`` or ``^^`` suffix, whose next
        character sorts above the space that follows a term in a line."""
        texts = self.texts
        digest = hashlib.sha256()
        for s, edges in enumerate(self.out_edges):
            for p, o in edges:
                digest.update(
                    (triple_text(texts[s], texts[p], texts[o]) + "\n"
                     ).encode())
        return digest.hexdigest()


class Interner:
    """The one term interner, and a sink for ``parser.parse_into``.

    Each distinct term is interned once, by value, bottom-up: an IRI is
    keyed by its value, a literal by its fields and a quoted triple by the
    ids of its parts, so a part always has a lower id than its QT.  A
    quoted triple's canonical string is built from its parts' strings.
    Asserted triples are kept in a set, so a duplicate is dropped as it
    arrives.  ``graph`` renumbers the ids in canonical-string order.
    """

    def __init__(self):
        self._ids: dict = {}
        self._texts: list[str] = []
        self._parts: list[tuple[int, int, int] | None] = []
        self._asserted: set[tuple[int, int, int]] = set()

    def _add(self, key, text: str, parts) -> int:
        i = self._ids[key] = len(self._texts)
        self._texts.append(text)
        self._parts.append(parts)
        return i

    def iri(self, value: str) -> int:
        i = self._ids.get(value)
        if i is None:
            i = self._add(value, f"<{value}>", None)
        return i

    def literal(self, lexical: str, datatype: str | None,
                language: str | None) -> int:
        key = (lexical, datatype, language)
        i = self._ids.get(key)
        if i is None:
            i = self._add(key, literal_text(*key), None)
        return i

    def quoted(self, s: int, p: int, o: int) -> int:
        key = (s, p, o)
        i = self._ids.get(key)
        if i is None:
            texts = self._texts
            i = self._add(key, quoted_text(texts[s], texts[p], texts[o]),
                          key)
        return i

    def triple(self, s: int, p: int, o: int) -> None:
        """Assert a triple; a duplicate is dropped."""
        self._asserted.add((s, p, o))

    def graph(self, exclude_predicates) -> Graph:
        """The indexed graph of the asserted triples, less those whose
        predicate IRI is in ``exclude_predicates``.  A term that occurs
        only in excluded triples is not in the graph.

        The interner is spent afterwards: each of its tables is let go as
        soon as its renumbered copy exists, so the graph is built without
        holding both copies of every table.  Every id is one int object,
        shared by every index that holds it."""
        asserted = self._asserted
        del self._asserted
        excluded = {self._ids.get(value) for value in exclude_predicates}
        del self._ids
        texts, parts = self._texts, self._parts
        n = len(texts)
        kept = range(n)
        if exclude_predicates:
            asserted = [spo for spo in asserted if spo[1] not in excluded]
            referenced = bytearray(n)
            for s, p, o in asserted:
                referenced[s] = referenced[p] = referenced[o] = 1
            for i in range(n - 1, -1, -1):  # a QT before its parts
                if referenced[i] and parts[i] is not None:
                    s, p, o = parts[i]
                    referenced[s] = referenced[p] = referenced[o] = 1
            kept = [i for i in range(n) if referenced[i]]

        order = sorted(kept, key=texts.__getitem__)
        ids = list(range(len(order)))
        rank = [0] * n
        for new, old in zip(ids, order):
            rank[old] = new

        def renumbered(spo):
            return None if spo is None else (rank[spo[0]], rank[spo[1]],
                                             rank[spo[2]])

        # sorted, so that every group below comes out sorted
        rows = sorted(map(renumbered, asserted))
        del asserted
        qt_parts = tuple(renumbered(parts[old]) for old in order)
        del self._parts, parts
        sorted_texts = tuple(texts[old] for old in order)
        del self._texts, texts, order, rank
        n = len(sorted_texts)

        out_edges = _grouped(n, rows, itemgetter(0), itemgetter(1, 2))
        in_edges = _grouped(n, rows, itemgetter(2), itemgetter(0, 1))
        del rows
        qt_ids = tuple(q for q in ids if qt_parts[q] is not None)
        qts_by_subject = _grouped(n, qt_ids, lambda q: qt_parts[q][0])
        qts_by_object = _grouped(n, qt_ids, lambda q: qt_parts[q][2])

        return Graph(
            texts=sorted_texts,
            out_edges=out_edges,
            in_edges=in_edges,
            qts_by_subject=qts_by_subject,
            qts_by_object=qts_by_object,
            qt_parts=qt_parts,
            qt_lookup={qt_parts[q]: q for q in qt_ids},
            # a literal's text, and only a literal's, starts with '"'
            roots=tuple(i for i in ids if sorted_texts[i][0] != '"' and (
                out_edges[i] or in_edges[i] or qts_by_subject[i]
                or qts_by_object[i])),
        )


def _grouped(n: int, rows, key, value=None) -> tuple:
    """Per id ``0..n-1``, the tuple of ``value(row)`` (the row itself if
    ``value`` is None) for the ``rows`` whose ``key`` is that id, in the
    order of ``rows``: a stable sort by ``key`` groups them."""
    index = [()] * n
    for k, group in groupby(sorted(rows, key=key), key):
        index[k] = tuple(group if value is None else map(value, group))
    return tuple(index)


def parse_graph(text: str, exclude_predicates=()) -> Graph:
    """The graph of a Turtle-star document, parsed straight to ids: no Term
    object is built.  Triples whose predicate IRI is in
    ``exclude_predicates`` are left out (see ``Interner.graph``).  The
    text is let go before the graph is indexed: from CPython 3.11, a
    caller that passes it as a temporary (``cli.load_graph``) never holds
    the text and the index together."""
    interner = Interner()
    parse_into(text, interner)
    del text
    return interner.graph(exclude_predicates)


def build_graph(triples) -> Graph:
    """Index a collection of Triple objects, written out as a document and
    parsed back: duplicate asserted triples are dropped, and what a graph
    file cannot hold, such as a literal subject, raises ``ParseError``."""
    return parse_graph("".join(serialize_triple(t) + "\n" for t in triples))


def compute_stats(g: Graph, include_id_nesting: bool = False
                  ) -> list[tuple[str, int]]:
    """The ``(metric, count)`` rows of the ``stats`` table: ``Class``,
    ``Instance``, ``Property``, ``Standard triple``, one ``<name>-nested
    QT`` row per nesting depth present, in depth order, then ``Total``.

    Classes are distinct rdf:type objects, instances distinct rdf:type
    subjects, properties distinct predicates at any nesting level.  QTs
    are counted once each (at every nesting level) by their own depth;
    QTs whose predicate is the reserved duplicate-disambiguation id
    property are excluded unless ``include_id_nesting`` is set.
    """
    rdf_type = g.id_of(Iri(RDF_TYPE))
    id_pred = g.id_of(Iri(ID_PREDICATE))
    parts = g.qt_parts
    classes: set[int] = set()
    instances: set[int] = set()
    properties: set[int] = set()
    standard = 0

    for s, edges in enumerate(g.out_edges):
        for p, o in edges:
            properties.add(p)
            if p == rdf_type:
                classes.add(o)
                instances.add(s)
            if parts[s] is None and parts[o] is None:
                standard += 1

    depth = [0] * len(parts)
    by_depth: dict[int, int] = {}
    for q in g.qts_parts_first():
        s, p, o = parts[q]
        d = depth[q] = 1 + max(depth[s], depth[o])
        if not include_id_nesting and p == id_pred:
            continue
        properties.add(p)
        by_depth[d] = by_depth.get(d, 0) + 1

    return [
        ("Class", len(classes)),
        ("Instance", len(instances)),
        ("Property", len(properties)),
        ("Standard triple", standard),
        *((f"{_DEPTH_NAMES.get(d, f'{d}-fold')}-nested QT", by_depth[d])
          for d in sorted(by_depth)),
        ("Total", standard + sum(by_depth.values())),
    ]
