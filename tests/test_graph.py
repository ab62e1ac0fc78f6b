import gc
import hashlib
import random
import sys
import tracemalloc

import pytest

from qtwalk.cli import _tsv
from qtwalk.fixtures import random_graph
from qtwalk.graph import build_graph, compute_stats, parse_graph
from qtwalk.parser import MAX_QT_DEPTH, ParseError, parse_document
from qtwalk.terms import (
    ID_PREDICATE,
    Iri,
    Literal,
    QuotedTriple,
    Term,
    Triple,
    serialize_term,
    serialize_triple,
)

from conftest import iri, nested_qt_document
from test_golden import parser_cases


def out_triples(g, i):
    """The asserted triples with subject id ``i``, from ``out_edges``."""
    terms = g.terms
    return tuple(Triple(terms[i], terms[p], terms[o])
                 for p, o in g.out_edges[i])


def in_triples(g, i):
    """The asserted triples with object id ``i``, from ``in_edges``."""
    terms = g.terms
    return tuple(Triple(terms[s], terms[p], terms[i])
                 for s, p in g.in_edges[i])


def qts(g, index, i):
    return tuple(g.terms[q] for q in index[i])


def iter_subterms(t: Term):
    """Yield ``t`` and every component term reachable by decomposition."""
    yield t
    if isinstance(t, QuotedTriple):
        yield from iter_subterms(t.subject)
        yield t.predicate
        yield from iter_subterms(t.object)


def test_nested_example_indexes(nested_example):
    g = nested_example["graph"]
    inner, outer = nested_example["inner"], nested_example["outer"]
    ids = {name: g.id_of(term) for name, term in nested_example.items()
           if name not in ("graph", "triples")}
    assert qts(g, g.qts_by_subject, ids["e2"]) == (inner,)
    assert qts(g, g.qts_by_object, ids["e3"]) == (inner,)
    assert qts(g, g.qts_by_subject, ids["inner"]) == (outer,)
    assert qts(g, g.qts_by_object, ids["e4"]) == (outer,)
    assert out_triples(g, ids["e1"]) == (
        Triple(nested_example["e1"], nested_example["r1"], outer),
    )
    assert in_triples(g, ids["e7"]) == (
        Triple(outer, nested_example["r6"], nested_example["e7"]),
    )
    assert g.id_of(iri("unknown")) is None
    assert g.terms[g.qt_lookup[(ids["e2"], ids["r2"], ids["e3"])]] == inner
    assert (ids["e2"], ids["r2"], ids["e4"]) not in g.qt_lookup


def test_build_graph_deduplicates():
    t = Triple(iri("a"), iri("p"), iri("b"))
    g = build_graph([t, t, t])
    assert len(g.triples) == 1


def nested_qt(depth: int) -> QuotedTriple:
    qt = QuotedTriple(iri("s"), iri("p"), iri("o"))
    for _ in range(depth - 1):
        qt = QuotedTriple(iri("s"), iri("p"), qt)
    return qt


# build_graph reads its triples through the parser, so it accepts exactly
# what a graph file can hold
@pytest.mark.parametrize("triple, message", [
    (Triple(Iri("urn:a\tb"), iri("p"), iri("o")), "illegal character"),
    (Triple(iri("s"), iri("p"), nested_qt(MAX_QT_DEPTH + 1)),
     "nested deeper than"),
    (Triple(Literal("x"), iri("p"), iri("o")), "expected a term"),
], ids=["tab-in-iri", "too-deep", "literal-subject"])
def test_build_graph_rejects_what_a_file_cannot_hold(triple, message):
    with pytest.raises(ParseError, match=message):
        build_graph([triple])


def test_build_graph_lower_cases_language_tags():
    g = build_graph([Triple(iri("s"), iri("p"), Literal("x", language="EN"))])
    assert Literal("x", language="en") in g.terms
    assert Literal("x", language="EN") not in g.terms


def test_node_set_covers_nested_components(nested_example):
    g = nested_example["graph"]
    for name in ("e1", "e2", "e3", "e4", "e7"):
        assert nested_example[name] in g.node_set
    assert nested_example["inner"] in g.node_set
    assert nested_example["outer"] in g.node_set
    assert nested_example["r2"] in g.node_set


def test_empty_graph():
    g = build_graph([])
    assert g.triples == ()
    assert compute_stats(g) == [("Class", 0), ("Instance", 0),
                                ("Property", 0), ("Standard triple", 0),
                                ("Total", 0)]


def test_fingerprint_is_order_independent():
    triples = random_graph(3, triples=30)
    a = build_graph(triples)
    b = build_graph(list(reversed(triples)))
    assert a.fingerprint() == b.fingerprint()
    c = build_graph(triples[:-1])
    assert a.fingerprint() != c.fingerprint()


# "x" is a prefix of "x"@en and "x"^^<...>, the one way a term text can
# be a prefix of another; with a non-ASCII literal and a nested QT
PREFIX_LITERALS = parse_document("""\
<urn:t:s> <urn:t:p> "x" , "x"@en , "x"^^<urn:t:dt> , "xy" , "\u00e9t\u00e9"@fr .
<urn:t:s> <urn:t:p> << <urn:t:s> <urn:t:p> << <urn:t:a> <urn:t:q> "x"@en >> >> .
<< <urn:t:a> <urn:t:q> "x" >> <urn:t:p> "x" , "\u00e9" .
""")


def sorted_lines_fingerprint(triples) -> str:
    """The fingerprint by its definition, from the input ``triples``:
    sha256 over their distinct canonical lines, sorted."""
    digest = hashlib.sha256()
    for line in sorted({serialize_triple(t) for t in triples}):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def asserted_ids(g, triples) -> list[tuple[int, int, int]]:
    """The input ``triples`` as ids of ``g``, distinct, in id order: what
    ``g`` must index, read through ``id_of`` alone."""
    return sorted({(g.id_of(t.subject), g.id_of(t.predicate),
                    g.id_of(t.object)) for t in triples})


def test_indexes_agree_with_linear_scan():
    """Every index answer must equal a brute-force scan of the triples."""
    graphs = [random_graph(seed, triples=60, qt_probability=0.4)
              for seed in range(8)]
    for triples in graphs + [PREFIX_LITERALS]:
        g = build_graph(triples)
        assert g.fingerprint() == sorted_lines_fingerprint(triples)
        text = document(triples)
        assert id_path(text) == term_path(text)
        dedup = list(dict.fromkeys(triples))
        asserted = asserted_ids(g, triples)

        all_qts = set()
        for t in dedup:
            for part in (t.subject, t.object):
                for sub in iter_subterms(part):
                    if isinstance(sub, QuotedTriple):
                        all_qts.add(sub)
        assert set(g.qt_set) == all_qts

        assert {q: g.terms[i] for q, i in g.qt_lookup.items()} == {
            tuple(g.id_of(part) for part in (q.subject, q.predicate,
                                             q.object)): q
            for q in all_qts
        }
        # the QT ids, in ascending order
        assert list(g.qt_lookup.values()) == [
            i for i, parts in enumerate(g.qt_parts) if parts is not None]

        # id_of bisects texts, so they must be strictly increasing
        assert all(a < b for a, b in zip(g.texts, g.texts[1:]))
        # a long run of spaces sorts below every literal, and a literal
        # below every IRI and QT
        below, above = Literal(" " * 100), Iri("\U0010FFFF")
        assert serialize_term(below) < g.texts[0]
        assert serialize_term(above) > g.texts[-1]
        between = [t for t in (Iri(f"{node.value}~") for node in g.terms
                               if isinstance(node, Iri))
                   if g.texts[0] < serialize_term(t) < g.texts[-1]
                   and serialize_term(t) not in g.texts]
        assert between
        for t in [below, above, *between]:
            assert g.id_of(t) is None
        for i, node in enumerate(g.terms):
            assert set(out_triples(g, i)) == {
                t for t in dedup if t.subject == node
            }
            assert set(in_triples(g, i)) == {
                t for t in dedup if t.object == node
            }
            assert set(qts(g, g.qts_by_subject, i)) == {
                q for q in all_qts if q.subject == node
            }
            assert set(qts(g, g.qts_by_object, i)) == {
                q for q in all_qts if q.object == node
            }
            assert list(g.out_edges[i]) == sorted(
                (p, o) for s, p, o in asserted if s == i)
            assert list(g.in_edges[i]) == sorted(
                (s, p) for s, p, o in asserted if o == i)
            assert list(g.qts_by_subject[i]) == [
                q for q in g.qt_lookup.values() if g.qt_parts[q][0] == i]
            assert list(g.qts_by_object[i]) == [
                q for q in g.qt_lookup.values() if g.qt_parts[q][2] == i]


def test_index_tuples_are_deterministically_ordered():
    triples = random_graph(11, triples=60)
    g1 = build_graph(triples)
    rng = random.Random(0)
    shuffled = list(triples)
    rng.shuffle(shuffled)
    g2 = build_graph(shuffled)
    assert g1.texts == g2.texts
    for i in range(len(g1.terms)):
        assert out_triples(g1, i) == out_triples(g2, i)
        assert qts(g1, g1.qts_by_object, i) == qts(g2, g2.qts_by_object, i)


# -- statistics ----------------------------------------------------------------

FIVE_TRIPLE_DOC = """
@prefix : <urn:x:> .
:a a :C .
:b a :C .
:a :p :b .
:b :q "v" .
<< << :a :p :b >> :r :c >> :s :d .
"""


def qt_rows(rows) -> dict[str, int]:
    """The ``<name>-nested QT`` rows of a stats table, by metric."""
    return {metric: count for metric, count in rows
            if metric.endswith("-nested QT")}


def test_stats_counts_every_nesting_level_once():
    g = build_graph(parse_document(FIVE_TRIPLE_DOC))
    assert compute_stats(g) == [
        ("Class", 1),
        ("Instance", 2),
        ("Property", 5),  # rdf:type, p, q, r (quoted), s
        ("Standard triple", 4),
        ("Single-nested QT", 1),
        ("Double-nested QT", 1),
        ("Total", 6),
    ]


def test_stats_shared_qt_counted_once():
    doc = """
    @prefix : <urn:x:> .
    << :a :p :b >> :m :x .
    << :a :p :b >> :m2 :y .
    """
    g = build_graph(parse_document(doc))
    assert qt_rows(compute_stats(g)) == {"Single-nested QT": 1}


def test_stats_exclude_id_wrapper_by_default():
    inner = QuotedTriple(iri("a"), iri("p"), iri("b"))
    wrapper = QuotedTriple(
        inner, Iri(ID_PREDICATE),
        Iri("urn:never-a-literal-but-fine-for-depth")
    )
    g = build_graph([Triple(wrapper, iri("m"), iri("x"))])
    assert qt_rows(compute_stats(g)) == {"Single-nested QT": 1}
    assert qt_rows(compute_stats(g, include_id_nesting=True)) == {
        "Single-nested QT": 1, "Double-nested QT": 1
    }


def test_stats_additive_over_disjoint_graphs():
    a = random_graph(21, triples=25, entity_pool=10)
    b = [
        Triple(Iri(t.subject.value + "-b") if isinstance(t.subject, Iri) else t.subject,
               Iri(t.predicate.value + "-b"),
               Iri(t.object.value + "-b") if isinstance(t.object, Iri) else t.object)
        for t in random_graph(22, triples=25, entity_pool=10, qt_probability=0.0)
    ]
    sa = dict(compute_stats(build_graph(a)))
    sb = dict(compute_stats(build_graph(b)))
    sab = dict(compute_stats(build_graph(a + b)))
    assert sab["Standard triple"] == (
        sa["Standard triple"] + sb["Standard triple"]
    )
    assert sab["Total"] == sa["Total"] + sb["Total"]


def test_stats_rows_and_tsv_layout():
    g = build_graph(parse_document(FIVE_TRIPLE_DOC))
    rows = compute_stats(g)
    names = [name for name, _ in rows]
    assert names == [
        "Class", "Instance", "Property", "Standard triple",
        "Single-nested QT", "Double-nested QT", "Total",
    ]
    text = _tsv(rows)
    assert "Standard triple\t4\n" in text
    assert text.endswith("Total\t6\n")


def test_graph_index_holds_each_fact_once():
    """The bytes an indexed graph retains beyond its term texts.

    Each asserted triple is held by ``out_edges`` and ``in_edges`` alone,
    and each id is one int object, shared by every index that holds it:
    on this fixture that retains 313 bytes per term (Python 3.11).  With a
    third copy of every asserted triple (``Graph.triple_ids``) and int
    objects of their own for ``qt_ids`` and ``roots``, it retained 393.
    """
    text = document(random_graph(1, triples=2000, qt_probability=0.5,
                                 max_depth=5))
    gc.collect()
    tracemalloc.start()
    try:
        g = parse_graph(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(g, "triple_ids")
    index = (retained - sum(map(sys.getsizeof, g.texts))
             - sys.getsizeof(g.texts))
    assert index / len(g.texts) < 350, index / len(g.texts)


def test_build_graph_leaves_no_garbage_cycles():
    triples = random_graph(5, triples=200, qt_probability=0.5, max_depth=4)
    gc.collect()
    gc.disable()
    try:
        build_graph(triples)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the parser's two sinks: the interner against Term objects ----------------
#
# ``parse_graph`` feeds the interner straight from a document; the Term
# sink (``parse_document``) builds Term objects, which ``build_graph``
# serializes and feeds back to the interner.  The two must give the same
# graph, or the same error.

def graph_fields(g, triples) -> tuple:
    """Every index of ``g``, its fingerprint and the rows of both stats
    tables, with the asserted ``triples`` of its input as ids
    (``asserted_ids``), which ``out_edges`` must list in the same order."""
    asserted = asserted_ids(g, triples)
    assert [(s, p, o) for s, edges in enumerate(g.out_edges)
            for p, o in edges] == asserted
    return (g.texts, asserted, g.qt_parts, g.qt_lookup,
            tuple(g.qt_lookup.values()), g.out_edges, g.in_edges,
            g.qts_by_subject, g.qts_by_object, g.roots, g.fingerprint(),
            compute_stats(g), compute_stats(g, include_id_nesting=True))


def kept_triples(text: str, exclude=()) -> list[Triple]:
    """The Term sink's triples of ``text``, less those with an excluded
    predicate."""
    return [t for t in parse_document(text)
            if t.predicate.value not in exclude]


def term_path(text: str, exclude=()):
    """The Term sink's triples, less those with an excluded predicate,
    serialized and read back by ``build_graph``, or the parse error's
    text."""
    try:
        triples = kept_triples(text, exclude)
    except ParseError as exc:
        return f"error {exc}"
    return graph_fields(build_graph(triples), triples)


def id_path(text: str, exclude=()):
    """The interner fed straight from ``text``, or the parse error's
    text."""
    try:
        g = parse_graph(text, exclude)
    except ParseError as exc:
        return f"error {exc}"
    return graph_fields(g, kept_triples(text, exclude))


def document(triples) -> str:
    return "".join(serialize_triple(t) + "\n" for t in triples)


def test_id_path_equals_term_path_on_mutated_documents():
    outcomes = [id_path(text) == term_path(text)
                for _, _, text in parser_cases()]
    assert len(outcomes) == 8001
    assert all(outcomes)


# Objects under urn:only:p, and the QT's parts, occur nowhere else.
ONLY_UNDER_EXCLUDED = """\
<urn:fixture:e1> <urn:only:p> <urn:only:o> .
<urn:only:s> <urn:only:p> << <urn:only:a> <urn:only:q> "only" >> .
<urn:only:s> <urn:only:p> "only"@en , 17 .
"""


@pytest.mark.parametrize("exclude", [
    (), ("urn:fixture:r0",), ("urn:only:p", "urn:fixture:r3"),
    ("urn:only:p", "urn:absent:p")])
@pytest.mark.parametrize("seed", range(4))
def test_id_path_equals_term_path_on_deep_graphs(seed, exclude):
    triples = random_graph(seed, triples=80, qt_probability=0.6, max_depth=5)
    text = document(triples) + ONLY_UNDER_EXCLUDED
    assert id_path(text, exclude) == term_path(text, exclude)
    g = parse_graph(text, exclude)
    if "urn:only:p" in exclude:
        assert not [t for t in g.texts if "urn:only:" in t]
    parsed = kept_triples(text, exclude)
    assert g.fingerprint() == sorted_lines_fingerprint(parsed)
    # the lazily built Term objects match build_graph's and the Term sink's,
    # the triples in id order, which is the order of their terms' texts
    expected = build_graph(parsed)
    assert g.terms == expected.terms
    assert g.triples == expected.triples == tuple(sorted(
        set(parsed), key=lambda t: tuple(map(serialize_term, (
            t.subject, t.predicate, t.object)))))


def test_id_path_equals_term_path_at_the_depth_limit():
    text = nested_qt_document(MAX_QT_DEPTH)
    assert id_path(text) == term_path(text)
    assert qt_rows(compute_stats(parse_graph(text))) == {
        "Single-nested QT": 1, "Double-nested QT": 1, "Triple-nested QT": 1,
        "Quadruple-nested QT": 1,
        **{f"{d}-fold-nested QT": 1 for d in range(5, MAX_QT_DEPTH + 1)}}
    deeper = nested_qt_document(MAX_QT_DEPTH + 1)
    assert id_path(deeper) == term_path(deeper)
    assert id_path(deeper).startswith("error ")
