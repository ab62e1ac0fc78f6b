import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qtwalk.walks as walks_module
from qtwalk.fixtures import random_graph
from qtwalk.graph import build_graph
from qtwalk.terms import Iri, QuotedTriple, Term, Triple
from qtwalk.walks import (
    Strategy,
    Walk,
    WalkParams,
    _below,
    corpus_roots,
    corpus_header,
    generate_corpus,
    mid_walks,
    random_walks,
    read_corpus_lines,
    write_corpus,
)

from conftest import count_forks, iri


def chain_graph(length: int) -> list[Triple]:
    """A simple node chain: c0 -next-> c1 -next-> ... c<length>."""
    rel = Iri("urn:fixture:next")
    return [
        Triple(Iri(f"urn:fixture:c{i}"), rel, Iri(f"urn:fixture:c{i + 1}"))
        for i in range(length)
    ]


def walks_of(walker, g, root: int, p: WalkParams) -> list[Walk]:
    """The walker's term-id lists for ``root``, as ``Walk`` objects."""
    return [Walk(tuple(ids), g) for ids in walker(g, root, p)]


def params(**kw) -> WalkParams:
    base = dict(strategy=Strategy.RANDOM_WALK, n=100, d=8,
                alpha=0.5, beta=0.5, seed=0)
    base.update(kw)
    return WalkParams(**base)


# -- walk legality ---------------------------------------------------------------

def legal_walk(tokens: tuple[Term, ...], g) -> bool:
    """Can the token sequence be produced by some sequence of edge steps
    (asserted or quoted), quoted-triple decompositions, and
    object-to-QT hops?"""
    asserted = {(t.subject, t.predicate, t.object) for t in g.triples}
    n = len(tokens)

    failed: set[int] = set()

    def ok(i: int) -> bool:
        # tokens[i] is a node position; the rest of the walk must follow
        if i == n - 1:
            return True
        if i in failed:
            return False
        t = tokens[i]
        # step over an asserted or quoted edge
        if i + 2 < n and (
            (t, tokens[i + 1], tokens[i + 2]) in asserted
            or QuotedTriple(t, tokens[i + 1], tokens[i + 2]) in g.qt_set
        ):
            if ok(i + 2):
                return True
        # decomposition of the QT node itself
        if (
            isinstance(t, QuotedTriple)
            and i + 3 < n
            and tokens[i + 1 : i + 4] == (t.subject, t.predicate, t.object)
            and ok(i + 3)
        ):
            return True
        # hop from an object-role entity to the QT token
        nxt = tokens[i + 1] if i + 1 < n else None
        if (
            isinstance(nxt, QuotedTriple)
            and nxt.object == t
            and nxt in g.qt_set
            and ok(i + 1)
        ):
            return True
        failed.add(i)
        return False

    return ok(0)


def test_legality_checker_rejects_garbage(nested_example):
    g = nested_example["graph"]
    bad = (nested_example["e1"], nested_example["e7"])
    assert not legal_walk(bad, g)
    good = (nested_example["e1"], nested_example["r1"],
            nested_example["outer"])
    assert legal_walk(good, g)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
def test_random_walks_are_legal(alpha, beta):
    for seed in range(4):
        g = build_graph(random_graph(seed, triples=40, qt_probability=0.4))
        p = params(alpha=alpha, beta=beta, n=30, d=6, seed=seed)
        for root in g.roots[:20]:
            for walk in walks_of(random_walks, g, root, p):
                assert legal_walk(walk.tokens, g), walk.texts()


def test_mid_walks_are_legal_forward_and_backward():
    for seed in range(4):
        g = build_graph(random_graph(seed, triples=40, qt_probability=0.4))
        p = params(strategy=Strategy.MID_WALK, alpha=0.5, beta=0.5,
                   n=10, d=5, seed=seed)
        for root in g.roots[:10]:
            for walk in walks_of(mid_walks, g, root, p):
                assert legal_walk(walk.tokens, g), walk.texts()


@settings(max_examples=60, deadline=None)
@given(
    graph_seed=st.integers(0, 10_000),
    triples=st.integers(1, 40),
    qt_probability=st.floats(0.0, 0.8),
    max_depth=st.integers(1, 4),
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    n=st.integers(1, 6),
    d=st.integers(1, 6),
)
def test_walk_properties_on_random_graphs(graph_seed, triples, qt_probability,
                                          max_depth, alpha, beta, n, d):
    """For both strategies: every walk is legal, mid walks come n per root,
    random walks at most n per root, and a fixed seed fixes the corpus."""
    triples = random_graph(graph_seed, triples=triples,
                           qt_probability=qt_probability, max_depth=max_depth)
    g = build_graph(triples)
    roots = g.roots
    for strategy in Strategy:
        p = WalkParams(strategy=strategy, n=n, d=d, alpha=alpha, beta=beta,
                       seed=graph_seed)
        corpus = generate_corpus(g, p)
        for walk in corpus.walks:
            assert legal_walk(walk.tokens, g), walk.texts()
        for root in roots:
            if strategy is Strategy.MID_WALK:
                assert len(mid_walks(g, root, p)) == n
            else:
                assert 1 <= len(random_walks(g, root, p)) <= n
        if strategy is Strategy.MID_WALK:
            assert len(corpus.walks) == n * len(roots)
        again = generate_corpus(build_graph(list(reversed(triples))), p)
        assert [w.texts() for w in again.walks] == [
            w.texts() for w in corpus.walks]


# -- structure around quoted triples -----------------------------------------------

def test_plain_mode_keeps_qts_opaque(nested_example):
    g = nested_example["graph"]
    p = params(alpha=0.0, beta=0.0, n=50, d=6)
    walks = walks_of(random_walks, g, g.id_of(nested_example["e1"]), p)
    expected = (
        nested_example["e1"], nested_example["r1"], nested_example["outer"],
        nested_example["r6"], nested_example["e7"],
    )
    assert [w.tokens for w in walks] == [expected]
    # no token of any walk is a component pulled out of a QT
    for w in walks:
        assert nested_example["e2"] not in w.tokens
        assert nested_example["inner"] not in w.tokens


def test_decomposition_exposes_qt_components(nested_example):
    g = nested_example["graph"]
    p = params(alpha=1.0, beta=0.0, n=400, d=6)
    walks = walks_of(random_walks, g, g.id_of(nested_example["e1"]), p)
    flat = [w.tokens for w in walks]
    outer, inner = nested_example["outer"], nested_example["inner"]
    # the outer QT decomposes into (inner, r3, e4) right after it
    assert any(
        w[i] == outer and w[i + 1 : i + 4] == (inner, nested_example["r3"],
                                               nested_example["e4"])
        for w in flat for i in range(len(w) - 3)
    )


def test_object_to_qt_hop_from_root(nested_example):
    g = nested_example["graph"]
    p = params(alpha=0.0, beta=1.0, n=50, d=4)
    walks = walks_of(random_walks, g, g.id_of(nested_example["e4"]), p)
    # e4 sits in the object role of the outer QT, so every walk hops there
    for w in walks:
        assert w.tokens[:2] == (nested_example["e4"], nested_example["outer"])


def test_hop_has_priority_over_decomposition():
    # e is simultaneously in the object role of one QT and the subject
    # role of another; with alpha = beta = 1 the hop must always win
    e = iri("e")
    q_obj = QuotedTriple(iri("s"), iri("p"), e)
    q_subj = QuotedTriple(e, iri("q"), iri("o"))
    g = build_graph([
        Triple(q_obj, iri("m1"), iri("x")),
        Triple(q_subj, iri("m2"), iri("y")),
    ])
    # the premise: both an oq-step and a qs-step are open at e
    assert g.qts_by_object[g.id_of(e)] == (g.id_of(q_obj),)
    assert g.qts_by_subject[g.id_of(e)] == (g.id_of(q_subj),)
    walks = walks_of(random_walks, g, g.id_of(e),
                     params(alpha=1.0, beta=1.0, n=20, d=1))
    assert all(w.tokens[:2] == (e, q_obj) for w in walks)


def test_one_qt_step_emits_per_strategy():
    # on << a p b >> m x, one step with both step probabilities at 1: a
    # random walk writes the QT token, a mid walk only the QT's parts
    a, p, b = iri("a"), iri("p"), iri("b")
    qt = QuotedTriple(a, p, b)
    g = build_graph([Triple(qt, iri("m"), iri("x"))])

    def shapes(walker, root):
        return {w.tokens for w in walks_of(walker, g, g.id_of(root), params(
            alpha=1.0, beta=1.0, n=20, d=1))}

    assert shapes(random_walks, b) == {(b, qt)}
    assert shapes(random_walks, a) == {(qt, a, p, b)}
    # the coin picks the direction: b has no successor, a no predecessor
    assert shapes(mid_walks, b) == {(b,), (a, p, b)}
    assert shapes(mid_walks, a) == {(a,), (a, p, b)}


def test_qs_step_past_the_root_writes_the_entity_once():
    # on z q a . << a p b >> m x, the walk z q a ends in the QT's subject,
    # so a qs-step appends only its predicate and object, in either strategy
    z, q, a, p, b = (iri(name) for name in "zqapb")
    g = build_graph([Triple(z, q, a),
                     Triple(QuotedTriple(a, p, b), iri("m"), iri("x"))])

    def shapes(walker):
        return {w.tokens for w in walks_of(walker, g, g.id_of(z), params(
            alpha=1.0, beta=0.0, n=20, d=2))}

    assert shapes(random_walks) == {(z, q, a), (z, q, a, p, b)}
    assert shapes(mid_walks) == {(z,), (z, q, a), (z, q, a, p, b)}


# -- bounds, determinism, roots -----------------------------------------------------

_DRAW_SIZES = [1, 2, 3, 5, 7, 8, 9, 100, 255, 256, 257, 1023, 1024, 1025,
               2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
               3 * 2**40 + 7]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_draw_function_matches_randrange_and_choice(seed):
    sizes = _DRAW_SIZES * 20
    below = _below(random.Random(seed))
    reference = random.Random(seed)
    assert ([below(n) for n in sizes]
            == [reference.randrange(n) for n in sizes])
    seqs = [range(n) for n in sizes]
    below = _below(random.Random(seed))
    reference = random.Random(seed)
    assert ([seq[below(len(seq))] for seq in seqs]
            == [reference.choice(seq) for seq in seqs])


def test_walk_count_never_exceeds_n():
    g = build_graph(random_graph(5, triples=80, qt_probability=0.4))
    p = params(n=7, d=6, alpha=0.7, beta=0.7)
    for root in g.roots[:25]:
        assert len(random_walks(g, root, p)) <= 7


def test_isolated_root_walks_to_itself():
    lone = iri("lone")
    g = build_graph([Triple(iri("a"), iri("p"), lone)])
    walks = walks_of(random_walks, g, g.id_of(lone),
                     params(alpha=0.0, beta=0.0, n=5, d=4))
    assert [w.tokens for w in walks] == [(lone,)]
    mids = walks_of(mid_walks, g, g.id_of(lone), params(
        strategy=Strategy.MID_WALK, alpha=0.0, beta=0.0, n=3, d=4))
    # backward extension is still possible via the incoming triple
    for w in mids:
        assert w.tokens[-1] == lone


def test_same_seed_same_corpus_different_seed_differs():
    g = build_graph(random_graph(9, triples=50, qt_probability=0.3))
    p = params(strategy=Strategy.MID_WALK, n=10, d=6, seed=123)
    a = generate_corpus(g, p)
    b = generate_corpus(g, p)
    assert a.walks == b.walks
    c = generate_corpus(g, WalkParams(strategy=Strategy.MID_WALK, n=10, d=6,
                                      alpha=0.5, beta=0.5, seed=124))
    assert a.walks != c.walks


def test_mid_walk_count_is_exactly_n():
    g = build_graph(chain_graph(10))
    p = params(strategy=Strategy.MID_WALK, n=13, d=4)
    assert len(mid_walks(g, g.id_of(Iri("urn:fixture:c5")), p)) == 13


def test_corpus_roots_exclude_literals_and_predicates():
    doc_triples = [
        Triple(iri("a"), iri("p"), iri("b")),
        Triple(iri("b"), iri("q"), __import__("qtwalk.terms",
                                              fromlist=["Literal"]).Literal("v")),
        Triple(QuotedTriple(iri("c"), iri("r"), iri("d")), iri("s"), iri("a")),
    ]
    g = build_graph(doc_triples)
    roots = corpus_roots(g)
    names = set(roots)
    assert iri("a") in names and iri("b") in names
    assert iri("c") in names and iri("d") in names  # nested components count
    assert QuotedTriple(iri("c"), iri("r"), iri("d")) in names
    assert iri("p") not in names
    assert all(not hasattr(r, "lexical") for r in roots)
    # deterministic order
    assert roots == corpus_roots(build_graph(list(reversed(doc_triples))))


def test_params_validation():
    with pytest.raises(ValueError):
        WalkParams(n=0)
    with pytest.raises(ValueError):
        WalkParams(alpha=1.5)
    with pytest.raises(ValueError):
        WalkParams(d=-1)


# -- corpus files ----------------------------------------------------------------

def test_corpus_file_round_trip(tmp_path):
    g = build_graph(random_graph(2, triples=30, qt_probability=0.3))
    p = params(strategy=Strategy.MID_WALK, n=4, d=4, seed=7)
    path = tmp_path / "walks.tsv"
    write_corpus(g, p, path)
    header, rows = read_corpus_lines(path)
    assert header == corpus_header(p)
    assert header.startswith("#qtwalk-corpus v1 seed=7 ")
    assert rows == [w.texts() for w in generate_corpus(g, p).walks]
    # one str per distinct token: the rows share it, not copies of it
    first = {}
    for token in (t for row in rows for t in row):
        assert first.setdefault(token, token) is token
    assert len(first) < sum(map(len, rows))


def test_read_corpus_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.tsv"
    path.write_text("not a corpus\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_corpus_lines(path)


def serial_corpus(g, p: WalkParams) -> bytes:
    """The corpus file of one serial pass over ``generate_corpus``."""
    return "".join([corpus_header(p) + "\n"] + [
        "\t".join(w.texts()) + "\n" for w in generate_corpus(g, p).walks
    ]).encode("utf-8")


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sharded_corpus_equals_the_serial_one(tmp_path, monkeypatch,
                                              strategy, seed, cpus):
    g = build_graph(random_graph(seed, triples=30, qt_probability=0.4,
                                 max_depth=5))
    p = params(strategy=strategy, n=5, d=6, seed=seed)
    monkeypatch.setattr(walks_module, "_usable_cpus", lambda: cpus)
    forked = count_forks(monkeypatch)
    path = tmp_path / "walks.tsv"
    write_corpus(g, p, path)
    assert path.read_bytes() == serial_corpus(g, p)
    assert len(forked) == cpus - 1
    assert os.listdir(tmp_path) == ["walks.tsv"]  # no part file left


@pytest.mark.parametrize("strategy", list(Strategy))
def test_more_cpus_than_roots_gives_a_shard_per_root(tmp_path, monkeypatch,
                                                     strategy):
    # a small graph: one child per root but the first
    g = build_graph(random_graph(4, triples=3, qt_probability=0.5,
                                 max_depth=5))
    p = params(strategy=strategy, n=3, d=5, seed=4)
    monkeypatch.setattr(walks_module, "_usable_cpus",
                        lambda: len(g.roots) + 5)
    forked = count_forks(monkeypatch)
    path = tmp_path / "walks.tsv"
    write_corpus(g, p, path)
    assert path.read_bytes() == serial_corpus(g, p)
    assert len(forked) == len(g.roots) - 1
    assert os.listdir(tmp_path) == ["walks.tsv"]


def test_empty_graph_writes_the_header_without_forking(tmp_path,
                                                       monkeypatch):
    g = build_graph([])
    p = params()
    monkeypatch.setattr(walks_module, "_usable_cpus", lambda: 4)
    forked = count_forks(monkeypatch)
    path = tmp_path / "walks.tsv"
    write_corpus(g, p, path)
    assert path.read_bytes() == f"{corpus_header(p)}\n".encode("utf-8")
    assert forked == []



# Starts OpenBLAS's thread pool with a matrix product, then runs a product
# in each of 2 children forked by ``run_in_shards`` and prints whether every
# shard's product was right and every child was reaped.
BLAS_IN_FORKED_CHILDREN = """
import io, os
import numpy as np
from qtwalk import walks

a = np.random.default_rng(0).random((512, 512))
product = a @ a

def write(fh, shard):
    for _ in shard:
        fh.write(b"1" if np.allclose(a @ a, product) else b"0")

walks._usable_cpus = lambda: 3
out = io.BytesIO()
walks.run_in_shards(range(3), write, out)
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(out.getvalue().decode(), reaped)
"""


def test_forked_child_runs_blas_after_the_parent_did():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    with subprocess.Popen(
            [sys.executable, "-c", BLAS_IN_FORKED_CHILDREN],
            env=dict(os.environ, PYTHONPATH=src), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a child deadlocked in BLAS hangs its parent
    assert proc.returncode == 0, err
    assert out == "111 True\n"
