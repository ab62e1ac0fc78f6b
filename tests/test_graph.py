import gc
import random

from qtwalk.fixtures import random_graph
from qtwalk.graph import build_graph, compute_stats, stats_rows, stats_tsv
from qtwalk.parser import parse_document
from qtwalk.terms import (
    ID_PREDICATE,
    Iri,
    QuotedTriple,
    Triple,
    iter_subterms,
)

from conftest import iri


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
    assert compute_stats(g).total == 0


def test_fingerprint_is_order_independent():
    triples = random_graph(3, triples=30)
    a = build_graph(triples)
    b = build_graph(list(reversed(triples)))
    assert a.fingerprint() == b.fingerprint()
    c = build_graph(triples[:-1])
    assert a.fingerprint() != c.fingerprint()


def test_indexes_agree_with_linear_scan():
    """Every index answer must equal a brute-force scan of the triples."""
    for seed in range(8):
        triples = random_graph(seed, triples=60, qt_probability=0.4)
        g = build_graph(triples)
        dedup = list(dict.fromkeys(triples))

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

        for i, node in enumerate(g.terms):
            assert g.ids[g.texts[i]] == i
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


def test_stats_counts_every_nesting_level_once():
    g = build_graph(parse_document(FIVE_TRIPLE_DOC))
    stats = compute_stats(g)
    assert stats.standard_triple_count == 4
    assert stats.qt_count_by_depth == {1: 1, 2: 1}
    assert stats.total == 6
    assert stats.class_count == 1
    assert stats.instance_count == 2
    assert stats.property_count == 5  # rdf:type, p, q, r (quoted), s


def test_stats_shared_qt_counted_once():
    doc = """
    @prefix : <urn:x:> .
    << :a :p :b >> :m :x .
    << :a :p :b >> :m2 :y .
    """
    g = build_graph(parse_document(doc))
    assert compute_stats(g).qt_count_by_depth == {1: 1}


def test_stats_exclude_id_wrapper_by_default():
    inner = QuotedTriple(iri("a"), iri("p"), iri("b"))
    wrapper = QuotedTriple(
        inner, Iri(ID_PREDICATE),
        Iri("urn:never-a-literal-but-fine-for-depth")
    )
    g = build_graph([Triple(wrapper, iri("m"), iri("x"))])
    assert compute_stats(g).qt_count_by_depth == {1: 1}
    assert compute_stats(g, include_id_nesting=True).qt_count_by_depth == {
        1: 1, 2: 1
    }


def test_stats_additive_over_disjoint_graphs():
    a = random_graph(21, triples=25, entity_pool=10)
    b = [
        Triple(Iri(t.subject.value + "-b") if isinstance(t.subject, Iri) else t.subject,
               Iri(t.predicate.value + "-b"),
               Iri(t.object.value + "-b") if isinstance(t.object, Iri) else t.object)
        for t in random_graph(22, triples=25, entity_pool=10, qt_probability=0.0)
    ]
    sa = compute_stats(build_graph(a))
    sb = compute_stats(build_graph(b))
    sab = compute_stats(build_graph(a + b))
    assert sab.standard_triple_count == (
        sa.standard_triple_count + sb.standard_triple_count
    )
    assert sab.total == sa.total + sb.total


def test_stats_rows_and_tsv_layout():
    g = build_graph(parse_document(FIVE_TRIPLE_DOC))
    rows = stats_rows(compute_stats(g))
    names = [name for name, _ in rows]
    assert names == [
        "Class", "Instance", "Property", "Standard triple",
        "Single-nested QT", "Double-nested QT", "Total",
    ]
    text = stats_tsv(compute_stats(g))
    assert "Standard triple\t4\n" in text
    assert text.endswith("Total\t6\n")


def test_build_graph_leaves_no_garbage_cycles():
    triples = random_graph(5, triples=200, qt_probability=0.5, max_depth=4)
    gc.collect()
    gc.disable()
    try:
        build_graph(triples)
        assert gc.collect() == 0
    finally:
        gc.enable()
