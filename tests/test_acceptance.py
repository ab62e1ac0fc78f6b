"""Acceptance gate: one test per criterion, in order.

Criteria 1, 3, 4, and 5 evaluate against the KGRC scene-graph dataset and
its gold standards, which must be fetched separately (no network access is
assumed).  Point QTWALK_KGRC_STAR at the RDF-star Turtle file (or a
directory of them) and QTWALK_KGRC_GOLD at the gold-standard directory;
without them those tests skip with the reason recorded.
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from qtwalk.cli import main, run_pipeline
from qtwalk.evaluate import (
    clustering_accuracy,
    eval_classification,
    eval_relatedness,
    kendall_tau_b,
    load_labeled_tsv,
    load_relatedness,
    pearson,
    spearman,
)
from qtwalk.fixtures import random_graph
from qtwalk.graph import build_graph, compute_stats
from qtwalk.parser import ParseError, parse_document
from qtwalk.skipgram import (
    Mode,
    SoftmaxMode,
    TrainConfig,
    load_embeddings,
    mean_objective,
)
from qtwalk.terms import QuotedTriple, RDF_TYPE, serialize_term, serialize_triple
from qtwalk.walks import Strategy, Walk, WalkParams, random_walks

from test_cli import run_walk_train, write_gold
from test_evaluate import (
    clustering_accuracy_def,
    pearson_def,
    spearman_def,
    tau_b_def,
)


def _kgrc_graph():
    root = os.environ.get("QTWALK_KGRC_STAR")
    if not root:
        pytest.skip(
            "KGRC RDF-star dataset not available offline; set "
            "QTWALK_KGRC_STAR to run"
        )
    path = Path(root)
    files = sorted(path.glob("*.ttl*")) if path.is_dir() else [path]
    triples = []
    for f in files:
        triples.extend(parse_document(f.read_text(encoding="utf-8")))
    return build_graph(triples)


def _kgrc_gold():
    root = os.environ.get("QTWALK_KGRC_GOLD")
    if not root:
        pytest.skip(
            "KGRC gold standards not available offline; set "
            "QTWALK_KGRC_GOLD to run"
        )
    return Path(root)


def _passed(n: int, name: str) -> None:
    print(f"acceptance criterion {n} ({name}): PASS")


def test_criterion_1_dataset_statistics_exact():
    started = time.monotonic()
    g = _kgrc_graph()
    rows = compute_stats(g)
    elapsed = time.monotonic() - started
    assert rows[3:] == [
        ("Standard triple", 14180),
        ("Single-nested QT", 9765),
        ("Double-nested QT", 6409),
        ("Triple-nested QT", 695),
        ("Quadruple-nested QT", 43),
        ("Total", 31092),
    ]
    assert elapsed < 30.0
    _passed(1, "dataset statistics exact")


def test_criterion_2_plain_mode_equals_independent_walker():
    triples = list(dict.fromkeys(random_graph(0, triples=20,
                                              qt_probability=0.3)))
    g = build_graph(triples)
    asserted = {(t.subject, t.predicate, t.object) for t in triples}
    roots = g.roots
    depth = 4
    samples = 10_000

    ours: dict[str, int] = {}
    for i in range(samples):
        root = roots[i % len(roots)]
        params = WalkParams(strategy=Strategy.RANDOM_WALK, n=1, d=depth,
                            alpha=0.0, beta=0.0, seed=i)
        (ids,) = random_walks(g, root, params)
        walk = Walk(tuple(ids), g)
        # every step must be a plain asserted-triple move: QTs stay opaque
        tokens = walk.tokens
        for j in range(0, len(tokens) - 2, 2):
            assert (tokens[j], tokens[j + 1], tokens[j + 2]) in asserted
            assert not (
                isinstance(tokens[j], QuotedTriple)
                and tokens[j + 1 : j + 4]
                == (tokens[j].subject, tokens[j].predicate, tokens[j].object)
            )
        for token in walk.texts():
            ours[token] = ours.get(token, 0) + 1

    # the independent walker reads only the input triples, no index
    by_subject: dict = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
    theirs: dict[str, int] = {}
    rng = random.Random(987654321)
    for i in range(samples):
        cur = g.terms[roots[i % len(roots)]]
        walk = [cur]
        for _ in range(depth):
            outgoing = by_subject.get(cur)
            if not outgoing:
                break
            t = outgoing[rng.randrange(len(outgoing))]
            walk.extend((t.predicate, t.object))
            cur = t.object
        for token in walk:
            key = serialize_term(token)
            theirs[key] = theirs.get(key, 0) + 1

    tokens = sorted(set(ours) | set(theirs))
    assert set(ours) == set(theirs)
    table = np.array([
        [ours[t] for t in tokens],
        [theirs[t] for t in tokens],
    ])
    result = chi2_contingency(table)
    assert result.pvalue > 0.01, result
    _passed(2, "plain mode equals independent walker")


def _pipeline_tau(g, alpha, beta, seed, gold):
    params = WalkParams(strategy=Strategy.MID_WALK, n=100, d=8,
                        alpha=alpha, beta=beta, seed=seed)
    cfg = TrainConfig(dim=100, window=5, epochs=5, seed=seed)
    model = run_pipeline(g, params, cfg)
    report = eval_relatedness(model, gold)
    return report.metrics["kendall_tau"]


def test_criterion_3_walk_bias_beats_plain_baseline_on_relatedness():
    g = _kgrc_graph()
    gold = load_relatedness(_kgrc_gold() / "relatedness.tsv")
    wins = 0
    for seed in range(5):
        biased = _pipeline_tau(g, 0.5, 0.5, seed, gold)
        baseline = _pipeline_tau(g, 0.0, 0.0, seed, gold)
        wins += biased > baseline
    assert wins >= 3
    _passed(3, "walk bias beats plain baseline on relatedness")


def _classification_accuracy(g, gold_file, seed=0):
    params = WalkParams(strategy=Strategy.MID_WALK, n=100, d=8,
                        alpha=0.5, beta=0.5, seed=seed)
    cfg = TrainConfig(dim=100, window=5, epochs=5, seed=seed,
                      mode=Mode.STRUCTURED)
    model = run_pipeline(g, params, cfg)
    report = eval_classification(
        model, load_labeled_tsv(gold_file), seed=seed
    )
    return report.metrics["accuracy"]


def test_criterion_4_classification_thresholds():
    g = _kgrc_graph()
    gold_dir = _kgrc_gold()
    assert _classification_accuracy(
        g, gold_dir / "person_object_place.tsv"
    ) >= 0.70
    assert _classification_accuracy(g, gold_dir / "qt900.tsv") >= 0.90
    _passed(4, "classification thresholds")


def test_criterion_5_sweep_shape():
    g = _kgrc_graph()
    gold_dir = _kgrc_gold()
    gold_file = gold_dir / "person_object_place.tsv"

    def mean_accuracy(alpha, beta, depth):
        accs = []
        for seed in range(3):
            params = WalkParams(strategy=Strategy.MID_WALK, n=100, d=depth,
                                alpha=alpha, beta=beta, seed=seed)
            cfg = TrainConfig(dim=100, window=5, epochs=5, seed=seed,
                              mode=Mode.STRUCTURED)
            model = run_pipeline(g, params, cfg)
            accs.append(eval_classification(
                model, load_labeled_tsv(gold_file), seed=seed
            ).metrics["accuracy"])
        return sum(accs) / len(accs)

    assert mean_accuracy(0.2, 0.2, 8) > mean_accuracy(1.0, 1.0, 8)
    assert mean_accuracy(0.5, 0.5, 4) >= mean_accuracy(0.5, 0.5, 16)
    _passed(5, "sweep shape")


@pytest.mark.parametrize("structured", [False, True])
def test_criterion_6_gradient_check(structured):
    rng = np.random.default_rng(17)
    n, dim, window = 20, 10, 5
    inputs = rng.normal(scale=0.8, size=(n, dim))
    outputs = rng.normal(
        scale=0.8, size=(2 * window if structured else 1, n, dim)
    )
    positions = [r for r in range(-window, window + 1) if r != 0]
    pairs = [
        (int(rng.integers(n)), int(rng.integers(n)),
         int(rng.choice(positions)))
        for _ in range(40)
    ]
    _, grad_in, grad_out = mean_objective(
        inputs, outputs, pairs, window, structured
    )
    h = 1e-5
    checked = 0
    while checked < 100:
        if rng.random() < 0.5:
            idx = (int(rng.integers(n)), int(rng.integers(dim)))
            theta, grad = inputs, grad_in
        else:
            idx = (int(rng.integers(outputs.shape[0])),
                   int(rng.integers(n)), int(rng.integers(dim)))
            theta, grad = outputs, grad_out
        orig = theta[idx]
        theta[idx] = orig + h
        up, _, _ = mean_objective(inputs, outputs, pairs, window,
                                  structured)
        theta[idx] = orig - h
        down, _, _ = mean_objective(inputs, outputs, pairs, window,
                                    structured)
        theta[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(grad[idx]), 1e-8)
        assert abs(numeric - grad[idx]) / denom <= 1e-4
        checked += 1
    _passed(6, f"gradient check ({'structured' if structured else 'classic'})")


def test_criterion_7_metric_oracles():
    rng = random.Random(2024)
    done = 0
    while done < 500:
        n = rng.randint(3, 12)
        x = [rng.randint(0, 5) for _ in range(n)]
        y = [rng.randint(0, 5) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert abs(kendall_tau_b(x, y) - tau_b_def(x, y)) <= 1e-12
        assert abs(pearson(x, y) - pearson_def(x, y)) <= 1e-12
        assert abs(spearman(x, y) - spearman_def(x, y)) <= 1e-12
        clusters = [rng.randint(0, 3) for _ in range(n)]
        labels = [rng.choice("abcd") for _ in range(n)]
        assert abs(
            clustering_accuracy(clusters, labels)
            - clustering_accuracy_def(clusters, labels)
        ) <= 1e-12
        done += 1
    _passed(7, "metric oracles")


MALFORMED = [
    ":a :b :c .",                                # undefined prefix
    "<urn:a> <urn:p> .",                         # missing object
    "<urn:a> <urn:p> <urn:o>",                   # missing final dot
    "<< <urn:a> <urn:p> <urn:o> <urn:x> .",      # unclosed quoted triple
    '<urn:a> <urn:p> "open .',                   # unterminated string
    '<urn:a> <urn:p> "bad\\x" .',                # illegal escape
    "_:b <urn:p> <urn:o> .",                     # blank node
    "( <urn:a> ) <urn:p> <urn:o> .",             # collection
    "<urn:a> <urn:p> <urn:o> {| <urn:q> 1 |} .", # annotation form
    "@prefix x <urn:x> .",                       # malformed prefix decl
    "<urn:a> 42 <urn:o> .",                      # literal predicate
    "<urn:never-closed",                         # unterminated IRI
]


def test_criterion_8_parser_round_trip_property():
    for i in range(10_000):
        triples = random_graph(seed=i, triples=3, entity_pool=12,
                               relation_pool=4, qt_probability=0.5)
        doc = "\n".join(serialize_triple(t) for t in triples)
        assert set(parse_document(doc)) == set(triples)
    for source in MALFORMED:
        with pytest.raises(ParseError) as exc_info:
            parse_document(source)
        d = exc_info.value.diagnostics
        assert d.line >= 1 and d.column >= 1
        assert d.message
    _passed(8, "parser round-trip property")


def test_criterion_9_pipeline_is_deterministic(tmp_path):
    graph_path = tmp_path / "graph.ttls"
    assert main(["gen-fixture", str(graph_path), "--seed", "5",
                 "--triples", "40"]) == 0
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        _, emb = run_walk_train(d, graph_path)
        gold_dir = write_gold(d, emb)
        report = d / "report.tsv"
        assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                     "--output", str(report)]) == 0
        outputs.append((emb.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    loaded = load_embeddings(tmp_path / "one" / "vectors.tsv")
    assert loaded.input_vectors.size  # the artifact is a real, parseable model
    _passed(9, "pipeline determinism")
