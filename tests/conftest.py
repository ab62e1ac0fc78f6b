import random

import pytest

from qtwalk import walks
from qtwalk.fixtures import random_iri, random_literal, random_quoted
from qtwalk.graph import build_graph
from qtwalk.skipgram import load_embeddings
from qtwalk.terms import Iri, QuotedTriple, Term, Triple


def iri(name: str) -> Iri:
    return Iri(f"urn:t:{name}")


def random_term(rng: random.Random, max_depth: int = 3) -> Term:
    """An IRI, a literal or a QT up to ``max_depth`` deep, drawn from
    ``rng``; its draws feed pinned parser digests, so keep their order."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_iri(rng)
    if kind == 1:
        return random_literal(rng)
    return random_quoted(rng, rng.randint(1, max_depth))


def nested_qt_document(depth: int) -> str:
    """One asserted triple whose subject is a QT nested ``depth`` deep,
    alternating between the subject and the object side."""
    term = "<urn:x:a>"
    for level in range(depth):
        term = (f"<< {term} <urn:x:p> <urn:x:b> >>" if level % 2 == 0
                else f"<< <urn:x:b> <urn:x:p> {term} >>")
    return f"{term} <urn:x:q> <urn:x:c> .\n"


def count_forks(monkeypatch) -> list[int]:
    """Record the pid of each shard child ``walks.run_in_shards`` forks."""
    forked: list[int] = []
    fork_shard = walks._fork_shard

    def counted(*args):
        forked.append(fork_shard(*args))
        return forked[-1]

    monkeypatch.setattr(walks, "_fork_shard", counted)
    return forked


@pytest.fixture
def nested_example():
    """Two-level nesting: an asserted graph around an outer QT whose
    subject is itself a QT.

    inner = << e2 r2 e3 >>, outer = << inner r3 e4 >>,
    asserted: (e1, r1, outer), (outer, r6, e7).
    """
    e1, e2, e3, e4, e7 = (iri(n) for n in ("e1", "e2", "e3", "e4", "e7"))
    r1, r2, r3, r6 = (iri(n) for n in ("r1", "r2", "r3", "r6"))
    inner = QuotedTriple(e2, r2, e3)
    outer = QuotedTriple(inner, r3, e4)
    triples = [Triple(e1, r1, outer), Triple(outer, r6, e7)]
    graph = build_graph(triples)
    return {
        "graph": graph,
        "triples": triples,
        "inner": inner,
        "outer": outer,
        "e1": e1, "e2": e2, "e3": e3, "e4": e4, "e7": e7,
        "r1": r1, "r2": r2, "r3": r3, "r6": r6,
    }


@pytest.fixture
def rng():
    return random.Random(20240817)


def write_gold(tmp_path, emb_path):
    """Gold files for all four tasks in ``tmp_path/gold``, cut from the
    tokens of the embedding file ``emb_path``."""
    emb = load_embeddings(emb_path)
    tokens = [t for t in emb.tokens if t.startswith("<")][:33]
    gold_dir = tmp_path / "gold"
    gold_dir.mkdir()
    labeled = "".join(
        f"{tok}\t{'abc'[i % 3]}\n" for i, tok in enumerate(tokens[:30])
    )
    (gold_dir / "classification.tsv").write_text(labeled, encoding="utf-8")
    (gold_dir / "clustering.tsv").write_text(labeled, encoding="utf-8")
    rel = tokens[0] + "\n" + "".join(f"\t{t}\n" for t in tokens[1:11])
    (gold_dir / "relatedness.tsv").write_text(rel, encoding="utf-8")
    qt_tokens = [t for t in emb.tokens if t.startswith("<<")]
    pairs = list(zip(qt_tokens, qt_tokens[1:]))[:6]
    sim = "".join(
        f"{a}\t{b}\t{round(0.1 * i, 2)}\n" for i, (a, b) in enumerate(pairs)
    )
    (gold_dir / "qt_similarity.tsv").write_text(sim, encoding="utf-8")
    return gold_dir
