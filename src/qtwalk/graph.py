"""Immutable indexed store for RDF-star graphs.

``build_graph`` interns every distinct term once and numbers the terms
0..N-1 in canonical-string order.  The indexes are plain per-id tuples
over those ints: outgoing ``(p, o)`` and incoming ``(s, p)`` pairs of the
asserted triples, and every quoted triple occurring anywhere in the graph
(any nesting level) by its subject and object ids, which is what the
QT-aware walks need.  ``Graph.id_of`` maps a term to its id.  Because
id order is text order, a candidate list sorted by ids is sorted by the
candidates' canonical text (``<< s p o >>`` for a triple), so candidate
order, and with it every random draw of a walk, does not depend on the
order of the input triples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .terms import (
    ID_PREDICATE,
    Iri,
    Literal,
    QuotedTriple,
    RDF_TYPE,
    Term,
    Triple,
    qt_depth,
    serialize_term,
)

_DEPTH_NAMES = {1: "Single", 2: "Double", 3: "Triple", 4: "Quadruple"}

Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Graph:
    """Interned terms and their per-id indexes.

    ``terms[i]`` is term ``i`` and ``texts[i]`` its canonical string;
    ``texts`` is sorted and ``ids`` inverts it.  ``triple_ids`` are the
    asserted ``triples`` as ids, ``qt_ids`` the sorted ids of all quoted
    triples and ``qt_lookup`` maps a QT's ``(s, p, o)`` to its id.

    Per id: ``out_edges`` holds the sorted ``(p, o)`` pairs of the
    asserted triples with that subject, ``in_edges`` the sorted ``(s, p)``
    pairs of those with that object, ``qts_by_subject``/``qts_by_object``
    the sorted ids of the quoted triples with that subject/object,
    ``qt_parts`` the ``(s, p, o)`` of a quoted triple (``None`` for other
    terms).  ``roots`` are the sorted ids of the IRIs and quoted triples in
    a subject or object position, at any nesting level.
    """

    triples: tuple[Triple, ...]
    triple_ids: tuple[tuple[int, int, int], ...] = field(repr=False)
    terms: tuple[Term, ...] = field(repr=False)
    texts: tuple[str, ...] = field(repr=False)
    ids: dict[str, int] = field(repr=False)
    out_edges: tuple[Pairs, ...] = field(repr=False)
    in_edges: tuple[Pairs, ...] = field(repr=False)
    qts_by_subject: tuple[tuple[int, ...], ...] = field(repr=False)
    qts_by_object: tuple[tuple[int, ...], ...] = field(repr=False)
    qt_parts: tuple[tuple[int, int, int] | None, ...] = field(repr=False)
    qt_lookup: dict[tuple[int, int, int], int] = field(repr=False)
    qt_ids: tuple[int, ...] = field(repr=False)
    roots: tuple[int, ...] = field(repr=False)

    def id_of(self, t: Term) -> int | None:
        """Id of a term, or None if it does not occur in the graph."""
        return self.ids.get(serialize_term(t))

    @cached_property
    def node_set(self) -> frozenset[Term]:
        """Every term, at any nesting level and in any position."""
        return frozenset(self.terms)

    @cached_property
    def qt_set(self) -> frozenset[QuotedTriple]:
        """Every quoted triple, at any nesting level."""
        return frozenset(self.terms[q] for q in self.qt_ids)

    def fingerprint(self) -> str:
        """sha256 over the sorted canonical triple serializations."""
        texts = self.texts
        digest = hashlib.sha256()
        for line in sorted(f"{texts[s]} {texts[p]} {texts[o]} ."
                           for s, p, o in self.triple_ids):
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


def build_graph(triples) -> Graph:
    """Index a triple collection.  Duplicate asserted triples are dropped.

    Each distinct term is interned once, by value, bottom-up: an IRI is
    keyed by its value, a literal by its fields and a quoted triple by the
    ids of its parts.  A quoted triple's canonical string is built from its
    parts' strings.  The ids are then renumbered in canonical-string order.
    """
    keys: dict = {}
    texts: list[str] = []
    terms: list[Term] = []
    parts: list[tuple[int, int, int] | None] = []

    def intern(t: Term) -> int:
        if isinstance(t, QuotedTriple):
            key = (intern(t.subject), intern(t.predicate), intern(t.object))
        elif isinstance(t, Iri):
            key = t.value
        elif isinstance(t, Literal):
            key = (t.lexical, t.datatype, t.language)
        else:
            raise TypeError(f"not a Term: {t!r}")
        i = keys.get(key)
        if i is None:
            i = keys[key] = len(texts)
            terms.append(t)
            if isinstance(t, QuotedTriple):
                s, p, o = key
                texts.append(f"<< {texts[s]} {texts[p]} {texts[o]} >>")
                parts.append(key)
            else:
                texts.append(serialize_term(t))
                parts.append(None)
        return i

    asserted: dict[tuple[int, int, int], Triple] = {}
    for t in triples:
        key = (intern(t.subject), intern(t.predicate), intern(t.object))
        if key not in asserted:
            asserted[key] = t
    # intern's closure cell holds intern itself: empty it, so the interning
    # tables are freed now rather than by a full garbage collection
    del intern

    order = sorted(range(len(texts)), key=texts.__getitem__)
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new

    def renumbered(spo):
        return None if spo is None else (rank[spo[0]], rank[spo[1]],
                                         rank[spo[2]])

    n = len(order)
    qt_parts = tuple(renumbered(parts[old]) for old in order)
    triple_ids = tuple(renumbered(spo) for spo in asserted)

    out_edges: list[list] = [[] for _ in range(n)]
    in_edges: list[list] = [[] for _ in range(n)]
    is_node = bytearray(n)
    for s, p, o in triple_ids:
        out_edges[s].append((p, o))
        in_edges[o].append((s, p))
        is_node[s] = is_node[o] = 1

    qt_ids = tuple(q for q in range(n) if qt_parts[q] is not None)
    by_subject: list[list] = [[] for _ in range(n)]
    by_object: list[list] = [[] for _ in range(n)]
    for q in qt_ids:  # ascending, so every list comes out sorted
        s, _, o = qt_parts[q]
        by_subject[s].append(q)
        by_object[o].append(q)
        is_node[s] = is_node[o] = 1

    sorted_terms = tuple(terms[old] for old in order)
    sorted_texts = tuple(texts[old] for old in order)
    return Graph(
        triples=tuple(asserted.values()),
        triple_ids=triple_ids,
        terms=sorted_terms,
        texts=sorted_texts,
        ids={text: i for i, text in enumerate(sorted_texts)},
        out_edges=tuple(tuple(sorted(e)) for e in out_edges),
        in_edges=tuple(tuple(sorted(e)) for e in in_edges),
        qts_by_subject=tuple(map(tuple, by_subject)),
        qts_by_object=tuple(map(tuple, by_object)),
        qt_parts=qt_parts,
        qt_lookup={qt_parts[q]: q for q in qt_ids},
        qt_ids=qt_ids,
        roots=tuple(i for i in range(n) if is_node[i]
                    and not isinstance(sorted_terms[i], Literal)),
    )


@dataclass(frozen=True)
class GraphStats:
    class_count: int
    instance_count: int
    property_count: int
    standard_triple_count: int
    qt_count_by_depth: dict[int, int]

    @property
    def total(self) -> int:
        return self.standard_triple_count + sum(self.qt_count_by_depth.values())


def compute_stats(g: Graph, include_id_nesting: bool = False) -> GraphStats:
    """Structural statistics of the graph.

    Classes are distinct rdf:type objects, instances distinct rdf:type
    subjects, properties distinct predicates at any nesting level.  QTs
    are counted once each
    (at every nesting level) by their own depth; QTs whose predicate is
    the reserved duplicate-disambiguation id property are excluded unless
    ``include_id_nesting`` is set.
    """
    rdf_type = g.id_of(Iri(RDF_TYPE))
    id_pred = g.id_of(Iri(ID_PREDICATE))
    parts = g.qt_parts
    classes: set[int] = set()
    instances: set[int] = set()
    properties: set[int] = set()
    standard = 0

    for s, p, o in g.triple_ids:
        properties.add(p)
        if p == rdf_type:
            classes.add(o)
            instances.add(s)
        if parts[s] is None and parts[o] is None:
            standard += 1

    by_depth: dict[int, int] = {}
    for q in g.qt_ids:
        p = parts[q][1]
        if not include_id_nesting and p == id_pred:
            continue
        properties.add(p)
        d = qt_depth(g.terms[q])
        by_depth[d] = by_depth.get(d, 0) + 1

    return GraphStats(
        class_count=len(classes),
        instance_count=len(instances),
        property_count=len(properties),
        standard_triple_count=standard,
        qt_count_by_depth=dict(sorted(by_depth.items())),
    )


def stats_rows(stats: GraphStats) -> list[tuple[str, int]]:
    """Stats as (metric, value) rows, one per summary-table line."""
    rows = [
        ("Class", stats.class_count),
        ("Instance", stats.instance_count),
        ("Property", stats.property_count),
        ("Standard triple", stats.standard_triple_count),
    ]
    for depth, count in stats.qt_count_by_depth.items():
        name = _DEPTH_NAMES.get(depth, f"{depth}-fold")
        rows.append((f"{name}-nested QT", count))
    rows.append(("Total", stats.total))
    return rows


def stats_tsv(stats: GraphStats) -> str:
    return "".join(f"{k}\t{v}\n" for k, v in stats_rows(stats))
