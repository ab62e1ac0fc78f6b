"""Byte-identity guard: pinned sha256 digests of walk corpora, graph
fingerprints, stats tables, one trained embedding file, the parameters of
every trainer configuration, the walk and train manifests, the tables the
commands write and the parser's outcome on thousands of mutated inputs.

Candidate order, RNG draws and token text all feed these bytes, so a
change to how the graph is indexed or walked that alters any of them
changes a digest.  The digests must only change together with a
deliberate, documented change of output.
"""

import hashlib
import random
from pathlib import Path

import pytest

from qtwalk.cli import _tsv, main
from qtwalk.fixtures import random_graph
from qtwalk.graph import build_graph, compute_stats
from qtwalk.parser import ParseError, parse_document, parse_term
from qtwalk.skipgram import (Mode, SoftmaxMode, TrainConfig,
                             build_vocabulary, train)
from qtwalk.terms import RDF_TYPE, serialize_term, serialize_triple
from qtwalk import walks
from qtwalk.walks import (Strategy, WalkParams, read_corpus_lines,
                          write_corpus)

from conftest import random_term, write_gold

SEEDS = (0, 1, 2)
ALPHA_BETA = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_graph(seed: int):
    return build_graph(random_graph(seed, triples=60, qt_probability=0.4,
                                    max_depth=3))


CORPUS_SHA256 = {
    (0, "random", 0.0, 0.0):
        "d65b1ebed9291ca42d1220ed3d6e3d3be281a53eaf97456ebb8ee840b471b4d2",
    (0, "random", 0.5, 0.5):
        "f8a6379c2dfa0a9a27ff05a792d32a792da58e390d93a70f9211881d9b96dde1",
    (0, "random", 1.0, 1.0):
        "e654bafb5631d9fd07a5847d01e86d8cc48824b131ecea480d4c10c813376aa6",
    (0, "mid", 0.0, 0.0):
        "8d14a10c670688cd5da3dcd57b36eed9ff988bae165494e0da249e762324e0e9",
    (0, "mid", 0.5, 0.5):
        "3df78034ed025b5b0ac3d180c07f920a0982fb22f39e0d5e35128d272688f6b2",
    (0, "mid", 1.0, 1.0):
        "aa6b3044f54ae784a893f4584d65a76e4d503abffa70a30cc7cdc8738e8a4611",
    (1, "random", 0.0, 0.0):
        "d75d2408d41b7cb243a9b30aa8662fd8d1eb3781c960599c51b5317e8f9fe963",
    (1, "random", 0.5, 0.5):
        "04df288d534995256226caafa0c9fc45dfe8a03f6b32d5cb2db6a6edb660352c",
    (1, "random", 1.0, 1.0):
        "3320e7508ba9a25f401c4945b076cea0dacfecd7ff0c43329411a981cf04d6b8",
    (1, "mid", 0.0, 0.0):
        "3ffe4cd9d4f7ba98f95f5ccf6ea23ab7d2647ea6339f3f29b71cdf0b7ef8da43",
    (1, "mid", 0.5, 0.5):
        "8fab4a3c4d8e3b772fe8d6687d5ce4a9929a494b411280f216f99c3f66ebc087",
    (1, "mid", 1.0, 1.0):
        "4ee9fc73e0e9fe14889e84afbe9e5240a8c2d27393a7ed246e977bacedc5b7ea",
    (2, "random", 0.0, 0.0):
        "8de2f6e85d4ef74faf6915ecb34e247d6c49458bee6891232cdace9d58b6b5a2",
    (2, "random", 0.5, 0.5):
        "98aaa27783d8c05f3c5f92e389dd0e5a8c23c6ec2c3cf5378a89000486aa1131",
    (2, "random", 1.0, 1.0):
        "6ff7b47ce3a74e12b6cc942249cb00c0f65270f70cfaca14a0d05c5ad5d83cd6",
    (2, "mid", 0.0, 0.0):
        "571d379ae0b5895328604fa5e1271724d14ba453a4b756285cea44bf0899ee1f",
    (2, "mid", 0.5, 0.5):
        "d0467281fb79e0efb3f5507b985bb4feb3106f49ef59cde802cb878b787e004d",
    (2, "mid", 1.0, 1.0):
        "08c9472d12f5ebad51a569a9aaeff80fc0e4722b583fa91409d6414aeb74ea10",
}

FINGERPRINT = {
    0: "23baf9b28c11cc2b7b7ef7d3df5a83c9affccb8e19710f3078d3fe2dd76cdb2f",
    1: "16ed6ffa63b7004273c7311f1a9c8ed77b45b539608fe9a3386c5ac191999218",
    2: "34d1c8b7d9b05ea01fef46ae94ed00ee10843d1e04289fd26f89081616587f86",
}

STATS_SHA256 = {
    0: "135c12f8e58e81883bd6ddb05aa2396eb906eeaeaa6c2a83c7062c0781a2a2c9",
    1: "f4718d068f04e5105ccb0a9b6184d183a287f5deb779086f153daf2609897bdb",
    2: "adc4b583524beeda0f0a2a23fef1f712e86126af99c4919657c0eef2e25f6644",
}

EMBEDDING_SHA256 = (
    "e84cd1c7929dc1e1eb1cb44303026c0be4e99f4fef3a0511b9d8892d260d823f")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["random", "mid"])
@pytest.mark.parametrize("alpha,beta", ALPHA_BETA)
def test_corpus_bytes_are_pinned(tmp_path, monkeypatch, seed, strategy,
                                 alpha, beta):
    # written in 3 root shards, 2 of them by forked children
    monkeypatch.setattr(walks, "_usable_cpus", lambda: 3)
    params = WalkParams(strategy=Strategy(strategy), n=6, d=6, alpha=alpha,
                        beta=beta, seed=seed)
    path = tmp_path / "walks.tsv"
    write_corpus(golden_graph(seed), params, path)
    assert sha256(path.read_bytes()) == CORPUS_SHA256[
        (seed, strategy, alpha, beta)]


@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprint_and_stats_are_pinned(seed):
    g = golden_graph(seed)
    assert g.fingerprint() == FINGERPRINT[seed]
    text = _tsv(compute_stats(g)) + _tsv(
        compute_stats(g, include_id_nesting=True))
    assert sha256(text.encode("utf-8")) == STATS_SHA256[seed]


# input_vectors then output_matrices bytes, per (mode, softmax mode)
MODEL_SHA256 = {
    (Mode.CLASSIC, SoftmaxMode.NEGATIVE_SAMPLING):
        "fe88a56bb1c9393254fdfaa888cf6382437a3a498fa51fd38dd295026b036c96",
    (Mode.CLASSIC, SoftmaxMode.FULL_SOFTMAX):
        "809eb5a8872daaeed81a5e9eb85950cbfb0a8d278536892a2986476e1a71a7dc",
    (Mode.STRUCTURED, SoftmaxMode.NEGATIVE_SAMPLING):
        "e73d834d12ca50c122fde29b4f537e015bb2e3b19439b365f7cd600d5ebe68a8",
    (Mode.STRUCTURED, SoftmaxMode.FULL_SOFTMAX):
        "172dda68c8fae0786ee7cc086c996dd470c5a06875c65a6af5467d14f6c861da",
}


@pytest.fixture(scope="module")
def walk_corpus(tmp_path_factory):
    """A walk corpus written by the CLI from a seeded fixture graph."""
    tmp = tmp_path_factory.mktemp("walk")
    graph, corpus = tmp / "graph.ttls", tmp / "walks.tsv"
    assert main(["gen-fixture", str(graph), "--seed", "4", "--triples", "80",
                 "--qt-probability", "0.4"]) == 0
    assert main(["walk", str(graph), str(corpus), "--walks", "4",
                 "--depth", "6", "--seed", "1"]) == 0
    return corpus


@pytest.fixture(scope="module")
def walk_train_embedding(tmp_path_factory, walk_corpus):
    emb = tmp_path_factory.mktemp("train") / "emb.txt"
    assert main(["train", str(walk_corpus), str(emb), "--dim", "8",
                 "--epochs", "2", "--seed", "1"]) == 0
    return emb


def test_walk_train_embedding_bytes_are_pinned(walk_train_embedding):
    assert sha256(walk_train_embedding.read_bytes()) == EMBEDDING_SHA256


@pytest.mark.parametrize("mode,softmax_mode", list(MODEL_SHA256))
def test_trained_model_bytes_are_pinned(walk_corpus, mode, softmax_mode):
    _, rows = read_corpus_lines(walk_corpus)
    cfg = TrainConfig(dim=8, epochs=2, seed=1, mode=mode,
                      softmax_mode=softmax_mode)
    model = train(rows, build_vocabulary(rows), cfg)
    digest = hashlib.sha256(model.input_vectors.tobytes())
    digest.update(model.output_matrices.tobytes())
    assert digest.hexdigest() == MODEL_SHA256[(mode, softmax_mode)]


# -- manifests ------------------------------------------------------------------

# The full text of each manifest, per command line; the train manifests
# carry the entries of the mid corpus walked with the exclusion.
MANIFEST_SHA256 = {
    ("walk", "mid"):
        "b86f92a6d0f4122667ce1a561b0772a81abdea83798eb714dcb621ec392c96b5",
    ("walk", "mid", "excluded"):
        "84797f6afb31756ea5679c99318e872b90efc38f9f3c0ab98de0337a9afbd316",
    ("walk", "random"):
        "53f06a188ef8f2ffaa1e564df38140b6ac20b682189b89c5257d2a473fa273ce",
    ("walk", "random", "excluded"):
        "f814991f0ccfed3b348633e2fb278ddbab0dfa4f7e875cdb78ab19deae06c3f4",
    ("train", "classic"):
        "ca79ae74a1ba08e0ecde954243e71c7d41a822590c54a4224400768a0fa8b268",
    ("train", "structured", "full-softmax"):
        "7b2fa6733be91d7df4161bd8a0397a54272dcce0b12d5d0f150e8160759a1b34",
}
WALK_FLAGS = ["--walks", "4", "--depth", "5", "--alpha", "0.25",
              "--beta", "0.75", "--seed", "2"]


@pytest.fixture(scope="module")
def fixture_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.ttls"
    assert main(["gen-fixture", str(path), "--seed", "3",
                 "--triples", "40"]) == 0
    return path


def walk_manifest(fixture_graph, corpus, strategy, excluded) -> bytes:
    argv = ["walk", str(fixture_graph), str(corpus), "--strategy", strategy,
            *WALK_FLAGS]
    if excluded:
        argv += ["--exclude-predicate", RDF_TYPE]
    assert main(argv) == 0
    return Path(f"{corpus}.manifest").read_bytes()


@pytest.mark.parametrize("strategy", ["mid", "random"])
@pytest.mark.parametrize("excluded", [False, True])
def test_walk_manifest_bytes_are_pinned(tmp_path, fixture_graph, strategy,
                                        excluded):
    text = walk_manifest(fixture_graph, tmp_path / "walks.tsv", strategy,
                         excluded)
    key = ("walk", strategy, "excluded") if excluded else ("walk", strategy)
    assert sha256(text) == MANIFEST_SHA256[key]


@pytest.mark.parametrize("key, flags", [
    (("train", "classic"), []),
    (("train", "structured", "full-softmax"),
     ["--mode", "structured", "--full-softmax", "--learning-rate", "0.05"]),
], ids=["classic", "structured-full-softmax"])
def test_train_manifest_bytes_are_pinned(tmp_path, fixture_graph, key, flags):
    corpus, emb = tmp_path / "walks.tsv", tmp_path / "emb.tsv"
    walk_manifest(fixture_graph, corpus, "mid", excluded=True)
    assert main(["train", str(corpus), str(emb), "--dim", "8", "--epochs",
                 "2", "--window", "3", "--seed", "1", *flags]) == 0
    assert sha256(Path(f"{emb}.manifest").read_bytes()) == MANIFEST_SHA256[key]


# -- tables ---------------------------------------------------------------------

# The full text of each table a command writes, per command line.
TABLE_SHA256 = {
    "convert":
        "dccf09aa00ceff48718a97a1305ed404ea634a32d0bcfd9e62c42422020a0f82",
    "stats":
        "d09ac70eaddb0a1837ff51a69d2d26e6e67d58952abfddd655d0cdfd05893da0",
    "stats-id-nesting":
        "633edf855ce389dded5d3f1096bc6d0765c0635a6275dbb9cba24c278a68f0a2",
    "eval":
        "8fb218bf72c2bbc2606ca9453f0c2eed308d4a3d7c2c770fc749b11ffe9df686",
    "sweep":
        "9f754f17fe432d62c86a6aeaf2084a91ee1460b85f5b5578e7847e4c6419fb6a",
}

# Two scenes with one (s, p, o), linked; a scene without subject or object;
# one with a literal subject and no metadata, dropped; one whose predicate is
# no IRI, dropped; and a triple outside any scene.
SCENES_DOC = """\
@prefix kgc: <http://kgc.knowledge-graph.jp/ontology/kgc.owl#> .
@prefix ex: <urn:ex:> .
ex:s1 kgc:hasPredicate ex:take ; kgc:subject ex:alice ;
    kgc:what ex:key ; kgc:then ex:s2 .
ex:s2 kgc:hasPredicate ex:take ; kgc:subject ex:alice ;
    kgc:what ex:key ; kgc:when "night" .
ex:s3 kgc:hasPredicate ex:sleep ; kgc:when ex:noon .
ex:s4 kgc:hasPredicate ex:run ; kgc:subject "Bob" ; kgc:where ex:park .
ex:s5 kgc:hasPredicate "hide" ; kgc:subject ex:bob .
ex:alice a ex:Person .
"""


@pytest.fixture(scope="module")
def scene_graph(tmp_path_factory):
    """The converted ``SCENES_DOC``, and its report's bytes, the report
    written to its default path and to ``--report`` alike."""
    tmp = tmp_path_factory.mktemp("scenes")
    doc = tmp / "scenes.ttl"
    doc.write_text(SCENES_DOC, encoding="utf-8")
    graph, other, report = tmp / "a.ttls", tmp / "b.ttls", tmp / "report.tsv"
    assert main(["convert", str(doc), str(graph)]) == 0
    assert main(["convert", str(doc), str(other), "--report",
                 str(report)]) == 0
    assert graph.read_bytes() == other.read_bytes()
    text = Path(f"{graph}.report.tsv").read_bytes()
    assert text == report.read_bytes()
    return graph, text


def table(capsys, argv, output) -> bytes:
    """The table ``argv`` writes to stdout, checked equal to the one it
    writes to ``--output``."""
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert main([*argv, "--output", str(output)]) == 0
    assert output.read_bytes() == printed
    return printed


def test_convert_report_bytes_are_pinned(scene_graph):
    assert sha256(scene_graph[1]) == TABLE_SHA256["convert"]


@pytest.mark.parametrize("key, flags", [
    ("stats", []), ("stats-id-nesting", ["--include-id-nesting"])],
    ids=["plain", "id-nesting"])
def test_stats_table_bytes_are_pinned(tmp_path, capsys, fixture_graph,
                                      scene_graph, key, flags):
    text = b"".join(table(capsys, ["stats", str(graph), *flags],
                          tmp_path / "stats.tsv")
                    for graph in (fixture_graph, scene_graph[0]))
    assert sha256(text) == TABLE_SHA256[key]


def test_eval_report_bytes_are_pinned(tmp_path, capsys,
                                      walk_train_embedding):
    gold_dir = write_gold(tmp_path, walk_train_embedding)
    text = table(capsys, ["eval", str(walk_train_embedding), "--gold-dir",
                          str(gold_dir), "--allow-leak", "--seed", "1"],
                 tmp_path / "report.tsv")
    assert {line.split(b"\t")[0] for line in text.splitlines()} == {
        b"classification", b"clustering", b"entity_relatedness",
        b"qt_similarity"}
    assert sha256(text) == TABLE_SHA256["eval"]


def test_sweep_table_bytes_are_pinned(tmp_path, capsys, fixture_graph,
                                      walk_train_embedding):
    gold_dir = write_gold(tmp_path, walk_train_embedding)
    text = table(capsys, ["sweep", str(fixture_graph), "--gold-dir",
                          str(gold_dir), "--walks", "4", "--depth", "4",
                          "--dim", "8", "--epochs", "1", "--seed", "1",
                          "--grid-alpha", "0.0,0.5", "--grid-beta",
                          "0.0,0.5"],
                 tmp_path / "sweep.tsv")
    assert len(text.splitlines()) == 5
    assert sha256(text) == TABLE_SHA256["sweep"]


# -- parser outcomes -----------------------------------------------------------

# What a mutation inserts or substitutes: Turtle punctuation, letters,
# digits and whitespace.
MUTATION_ALPHABET = "<>\"'@^:;,.#_[](){}|\\+-aeExzU09 \t\n"

PREFIXED_DOC = r"""@prefix ex: <urn:ex:> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a a ex:Thing ;
    ex:name "caf\u00e9"@en-GB , "x\U0001F600y"^^xsd:string ;
    ex:count 42 , -7 , 3.25 , .5 .
<< ex:a ex:p << ex:b ex:q "z" >> >> ex:r ex:c .
"""

PARSER_OUTCOMES_SHA256 = (
    "ed8a2bb8927412b372ef62e49fb48b180157f134ff149a689ec4fabec990d07b")


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one or two single-character inserts, deletes or
    replacements."""
    for _ in range(rng.randint(1, 2)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(3) if pos < len(text) else 0
        if op == 0:
            text = text[:pos] + rng.choice(MUTATION_ALPHABET) + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(MUTATION_ALPHABET) + text[pos + 1:]
    return text


def serialize_document(triples) -> str:
    return "".join(serialize_triple(t) + "\n" for t in triples)


def parser_cases():
    """(parse, serialize, text): mutated documents and terms, seeded."""
    rng = random.Random(20231)
    for i in range(200):
        doc = serialize_document(
            random_graph(i, triples=4, qt_probability=0.4))
        for _ in range(20):
            yield parse_document, serialize_document, mutate(rng, doc)
    for _ in range(200):
        text = serialize_term(random_term(rng))
        for _ in range(19):
            yield parse_term, serialize_term, mutate(rng, text)
    yield parse_document, serialize_document, PREFIXED_DOC
    for _ in range(200):
        yield parse_document, serialize_document, mutate(rng, PREFIXED_DOC)


def parser_outcome(parse, serialize, text: str) -> str:
    """The serialized parse of ``text``, or its diagnostic."""
    try:
        return "ok " + serialize(parse(text))
    except ParseError as exc:
        return f"error {exc}"


def test_parser_outcomes_are_pinned():
    digest = hashlib.sha256()
    for case in parser_cases():
        digest.update(parser_outcome(*case).encode("utf-8") + b"\0")
    assert digest.hexdigest() == PARSER_OUTCOMES_SHA256
