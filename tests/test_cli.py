import gc
import hashlib
import inspect
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from qtwalk import cli, walks
from qtwalk import graph as gr
from qtwalk.cli import main, read_manifest
from qtwalk.config import TrainConfig
from qtwalk.convert import ConversionReport
from qtwalk.graph import Graph
from qtwalk.parser import MAX_QT_DEPTH
from qtwalk.skipgram import load_embeddings
from qtwalk.terms import RDF_TYPE
from qtwalk.walks import read_corpus_lines

from conftest import count_forks, nested_qt_document, write_gold


@pytest.fixture
def fixture_graph(tmp_path):
    path = tmp_path / "graph.ttls"
    assert main(["gen-fixture", str(path), "--seed", "3",
                 "--triples", "40"]) == 0
    return path


def small_walk_flags():
    return ["--walks", "4", "--depth", "4", "--strategy", "mid",
            "--seed", "1"]


def small_train_flags():
    return ["--dim", "8", "--epochs", "2", "--window", "2",
            "--seed", "1"]


def run_walk_train(tmp_path, graph, exclude_type=True, train_flags=()):
    corpus = tmp_path / "walks.tsv"
    emb = tmp_path / "vectors.tsv"
    walk_args = ["walk", str(graph), str(corpus), *small_walk_flags()]
    if exclude_type:
        walk_args += ["--exclude-predicate", RDF_TYPE]
    assert main(walk_args) == 0
    assert main(["train", str(corpus), str(emb), *small_train_flags(),
                 *train_flags]) == 0
    return corpus, emb


def test_gen_fixture_then_stats(tmp_path, fixture_graph, capsys):
    assert main(["stats", str(fixture_graph)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Class\t")
    assert "Total\t" in out


def test_walk_writes_corpus_and_manifest(tmp_path, fixture_graph):
    corpus = tmp_path / "walks.tsv"
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags()]) == 0
    header, rows = read_corpus_lines(corpus)
    assert rows
    manifest = read_manifest(corpus)
    assert manifest["strategy"] == "mid"
    assert manifest["n"] == "4"
    assert len(manifest["graph_fingerprint"]) == 64


def test_train_carries_manifest_forward(tmp_path, fixture_graph):
    corpus, emb = run_walk_train(tmp_path, fixture_graph)
    manifest = read_manifest(emb)
    assert manifest["graph_fingerprint"] == read_manifest(corpus)[
        "graph_fingerprint"
    ]
    assert manifest["dim"] == "8"
    assert manifest["excluded_predicates"] == RDF_TYPE


def test_manifests_record_the_sha256_of_their_artifact(tmp_path,
                                                      fixture_graph):
    corpus, emb = run_walk_train(tmp_path, fixture_graph,
                                 train_flags=["--save-outputs"])
    for artifact in (corpus, emb):
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
        assert read_manifest(artifact)["artifact_sha256"] == digest
    loaded = load_embeddings(emb)
    with np.load(f"{emb}.out.npz") as sidecar:
        planes = sidecar["output_matrices"]
    assert planes.shape[1:] == loaded.input_vectors.shape
    # every file was renamed into place; no temp file is left beside them
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        "graph.ttls", "walks.tsv", "walks.tsv.manifest", "vectors.tsv",
        "vectors.tsv.out.npz", "vectors.tsv.manifest"])


# with 3 shards, the two children's parts are hashed as they are copied in
@pytest.mark.parametrize("cpus", [1, 3])
def test_manifest_hashes_an_artifact_larger_than_one_chunk(tmp_path,
                                                           monkeypatch, cpus):
    monkeypatch.setattr(walks, "_usable_cpus", lambda: cpus)
    forked = count_forks(monkeypatch)
    graph, corpus = tmp_path / "graph.ttls", tmp_path / "walks.tsv"
    assert main(["gen-fixture", str(graph), "--seed", "3",
                 "--triples", "300"]) == 0
    assert main(["walk", str(graph), str(corpus), "--walks", "12",
                 "--depth", "8", "--seed", "1"]) == 0
    assert len(forked) == cpus - 1
    data = corpus.read_bytes()
    assert len(data) > 1 << 20  # many times a read buffer
    assert read_manifest(corpus)["artifact_sha256"] == (
        hashlib.sha256(data).hexdigest())


def test_walk_hashes_its_corpus_without_reading_it_back(tmp_path,
                                                        monkeypatch,
                                                        fixture_graph):
    corpus = tmp_path / "walks.tsv"
    file_sha256 = cli._file_sha256

    def no_corpus(path):
        assert not Path(path).name.startswith(corpus.name), path
        return file_sha256(path)

    monkeypatch.setattr(cli, "_file_sha256", no_corpus)
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags()]) == 0
    assert read_manifest(corpus)["artifact_sha256"] == (
        hashlib.sha256(corpus.read_bytes()).hexdigest())


@pytest.mark.parametrize("size", [
    0, 1, cli._HASH_BUFFER - 1, cli._HASH_BUFFER, cli._HASH_BUFFER + 1,
    5 * cli._HASH_BUFFER + 17])
def test_file_sha256_equals_hashing_the_whole_file(tmp_path, size):
    path = tmp_path / "artifact"
    path.write_bytes((bytes(range(251)) * (size // 251 + 1))[:size])
    assert cli._file_sha256(path) == (
        hashlib.sha256(path.read_bytes()).hexdigest())


def test_copied_manifest_fails_the_leak_guard(tmp_path, fixture_graph,
                                              capsys):
    graph = tmp_path / "typed.ttls"
    graph.write_text(fixture_graph.read_text(encoding="utf-8") + "".join(
        f"<urn:t:a{i}> <{RDF_TYPE}> <urn:t:C> .\n" for i in range(3)),
        encoding="utf-8")
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    _, emb_a = run_walk_train(a_dir, graph, exclude_type=True)
    _, emb_b = run_walk_train(b_dir, graph, exclude_type=False)
    assert emb_a.read_bytes() != emb_b.read_bytes()
    gold_dir = write_gold(tmp_path, emb_b)
    # A's manifest says rdf:type was excluded; B was trained with it
    shutil.copy(f"{emb_a}.manifest", f"{emb_b}.manifest")
    assert main(["eval", str(emb_b), "--gold-dir", str(gold_dir),
                 "--tasks", "classification"]) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {emb_b}: manifest describes a different file\n")


def test_train_drops_a_corpus_manifest_of_another_file(tmp_path,
                                                       fixture_graph, capsys):
    graph = tmp_path / "typed.ttls"
    graph.write_text(fixture_graph.read_text(encoding="utf-8") + "".join(
        f"<urn:t:a{i}> <{RDF_TYPE}> <urn:t:C> .\n" for i in range(3)),
        encoding="utf-8")
    corpus_a, corpus_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["walk", str(graph), str(corpus_a), *small_walk_flags(),
                 "--exclude-predicate", RDF_TYPE]) == 0
    assert main(["walk", str(graph), str(corpus_b), *small_walk_flags()]) == 0
    shutil.copy(f"{corpus_a}.manifest", f"{corpus_b}.manifest")
    emb = tmp_path / "vectors.tsv"
    # B trains, but A's walk settings are not carried onto B's embedding
    assert main(["train", str(corpus_b), str(emb),
                 *small_train_flags()]) == 0
    manifest = read_manifest(emb)
    assert "excluded_predicates" not in manifest
    assert "graph_fingerprint" not in manifest
    gold_dir = write_gold(tmp_path, emb)
    args = ["eval", str(emb), "--gold-dir", str(gold_dir),
            "--tasks", "classification"]
    assert main(args) == 1
    assert "leak" in capsys.readouterr().err
    assert main(args + ["--allow-leak"]) == 0


def test_manifest_without_artifact_hash_counts_as_none(tmp_path,
                                                       fixture_graph, capsys):
    _, emb = run_walk_train(tmp_path, fixture_graph, exclude_type=True)
    gold_dir = write_gold(tmp_path, emb)
    manifest = Path(f"{emb}.manifest")
    manifest.write_text("".join(
        line for line in manifest.read_text(encoding="utf-8").splitlines(
            keepends=True) if not line.startswith("artifact_sha256\t")),
        encoding="utf-8")
    args = ["eval", str(emb), "--gold-dir", str(gold_dir),
            "--tasks", "classification"]
    assert main(args) == 1
    assert "leak" in capsys.readouterr().err
    assert main(args + ["--allow-leak"]) == 0


def test_eval_all_tasks(tmp_path, fixture_graph):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    report = tmp_path / "report.tsv"
    assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                 "--output", str(report)]) == 0
    lines = report.read_text(encoding="utf-8").strip().split("\n")
    tasks = {line.split("\t")[0] for line in lines}
    assert tasks == {
        "classification", "clustering", "entity_relatedness", "qt_similarity"
    }


def test_label_leak_guard(tmp_path, fixture_graph, capsys):
    _, emb = run_walk_train(tmp_path, fixture_graph, exclude_type=False)
    gold_dir = write_gold(tmp_path, emb)
    args = ["eval", str(emb), "--gold-dir", str(gold_dir),
            "--tasks", "classification"]
    assert main(args) == 1
    assert "leak" in capsys.readouterr().err
    assert main(args + ["--allow-leak"]) == 0
    # non-classification tasks are not guarded
    assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                 "--tasks", "clustering"]) == 0


def test_leak_guard_holds_for_iri_with_comma(tmp_path, fixture_graph,
                                             capsys):
    # a comma is legal inside an IRI, so this excludes one predicate that
    # is not rdf:type; the manifest must not read as excluding rdf:type
    graph = tmp_path / "typed.ttls"
    graph.write_text(fixture_graph.read_text(encoding="utf-8") + "".join(
        f"<urn:t:a{i}> <{RDF_TYPE}> <urn:t:C> .\n" for i in range(3)),
        encoding="utf-8")
    corpus = tmp_path / "walks.tsv"
    emb = tmp_path / "vectors.tsv"
    assert main(["walk", str(graph), str(corpus), *small_walk_flags(),
                 "--exclude-predicate", f"urn:x,{RDF_TYPE}"]) == 0
    _, rows = read_corpus_lines(corpus)
    assert any(f"<{RDF_TYPE}>" in row for row in rows)
    assert main(["train", str(corpus), str(emb), *small_train_flags()]) == 0
    gold_dir = write_gold(tmp_path, emb)
    args = ["eval", str(emb), "--gold-dir", str(gold_dir),
            "--tasks", "classification"]
    assert main(args) == 1
    assert "leak" in capsys.readouterr().err

    # several excluded IRIs, rdf:type among them, pass the guard
    assert main(["walk", str(graph), str(corpus), *small_walk_flags(),
                 "--exclude-predicate", "urn:x,y",
                 "--exclude-predicate", RDF_TYPE]) == 0
    _, rows = read_corpus_lines(corpus)
    assert not any(f"<{RDF_TYPE}>" in row for row in rows)
    assert main(["train", str(corpus), str(emb), *small_train_flags()]) == 0
    assert main(args) == 0


@pytest.mark.parametrize("value", [
    f"urn:x {RDF_TYPE}", "urn:x\ny", "urn:x>", "urn:<x>", "urn:x\\y",
    "< <urn:a> <urn:p> <urn:b> >", "urn:x\ty",
])
def test_exclude_predicate_must_be_an_iri(tmp_path, fixture_graph, capsys,
                                          value):
    corpus = tmp_path / "walks.tsv"
    for command in (["walk", str(fixture_graph), str(corpus)],
                    ["sweep", str(fixture_graph), "--gold-dir",
                     str(tmp_path)]):
        assert main([*command, "--exclude-predicate", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qtwalk: error: --exclude-predicate")
    assert not corpus.exists()


@pytest.mark.parametrize("content", ["", "# only a comment\n"])
@pytest.mark.parametrize("task", ["classification", "clustering",
                                  "relatedness", "qt_similarity"])
def test_empty_gold_file_is_exit_code_one(tmp_path, fixture_graph, capsys,
                                          task, content):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    gold = gold_dir / f"{task}.tsv"
    gold.write_text(content, encoding="utf-8")
    assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                 "--tasks", task]) == 1
    assert capsys.readouterr().err == f"qtwalk: error: {gold}: no records\n"


TINY_EMBEDDING = ("#qtwalk-emb v1 count=2 dim=2 mode=classic\n"
                  "<urn:a>\t1.0 0.0\n<urn:b>\t0.0 1.0\n")
TEN_CANDIDATES = "".join(f"\t<urn:c{i}>\n" for i in range(10))


def eval_error(tmp_path, capsys, task, gold, embedding=TINY_EMBEDDING):
    """stderr of ``qtwalk eval`` on hand-written files, which must exit 1;
    ``{emb}`` and ``{gold}`` in it stand for the two paths.  The embedding
    has no manifest, so classification runs with ``--allow-leak``."""
    emb = tmp_path / "vectors.tsv"
    emb.write_text(embedding, encoding="utf-8")
    gold_path = tmp_path / f"{task}.tsv"
    gold_path.write_text(gold, encoding="utf-8")
    assert main(["eval", str(emb), "--gold-dir", str(tmp_path),
                 "--tasks", task, "--allow-leak"]) == 1
    err = capsys.readouterr().err
    return err.replace(str(emb), "{emb}").replace(str(gold_path), "{gold}")


@pytest.mark.parametrize("task,gold,message", [
    ("relatedness", "<urn:nope>\n" + TEN_CANDIDATES,
     "relatedness: seed <urn:nope> is not in the embedding"),
    ("relatedness", "<urn:a>\n\t<urn:b>\n"
     + "".join(f"\t<urn:c{i}>\n" for i in range(9)),
     "relatedness: seed <urn:a> has fewer than 2 candidates in the "
     "embedding"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n<urn:a>\t<urn:c>\t0.1\n",
     "qt_similarity: <urn:c> is not in the embedding"),
    ("clustering", "<urn:x>\tA\n<urn:y>\tB\n",
     "clustering: only 0/2 gold tokens are in the embedding; missing "
     "<urn:x>, <urn:y>"),
    ("classification", "<urn:a>\tA\n<urn:b>\tA\n",
     "classes below 10 members: {'A': 2}"),
])
def test_eval_names_the_task_and_missing_token(tmp_path, capsys, task, gold,
                                               message):
    assert eval_error(tmp_path, capsys, task, gold) == (
        f"qtwalk: error: {message}\n")


@pytest.mark.parametrize("task,gold,embedding,message", [
    ("qt_similarity", "<urn:a>\t<urn:b>\n", TINY_EMBEDDING,
     "{gold}:1: expected 3 TAB-separated fields, found 2"),
    ("qt_similarity", "# pairs\n<urn:a>\t<urn:b>\thigh\n", TINY_EMBEDDING,
     "{gold}:2: score 'high' is not a number"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     TINY_EMBEDDING.replace("1.0 0.0", "1.0 x"),
     "{emb}:2: token '<urn:a>': could not convert string to float: 'x'"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     TINY_EMBEDDING.replace("1.0 0.0", "1.0"),
     "{emb}: token '<urn:a>' has 1 values, expected 2"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     "#qtwalk-emb v1 count=0 dim=-3 mode=classic\n",
     "{emb}:1: header needs count >= 0 and dim >= 1, got count=0 dim=-3"),
    # nothing is sized from the header's count before the rows are read
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     TINY_EMBEDDING.replace("count=2", f"count={10 ** 12}"),
     "{emb}: header declares 1000000000000 tokens, found 2"),
    ("relatedness", "\t<urn:b>\n<urn:a>\n" + TEN_CANDIDATES, TINY_EMBEDDING,
     "{gold}:1: candidate before any seed"),
    ("clustering", "<urn:a>\tA\n<urn:b> B\n", TINY_EMBEDDING,
     "{gold}:2: expected token<TAB>label"),
    ("clustering", "<urn:a>\tPerson\t0.5\n", TINY_EMBEDDING,
     "{gold}:1: expected token<TAB>label"),
    ("qt_similarity", "<urn:a>\t<urn:b>\tnan\n", TINY_EMBEDDING,
     "{gold}:1: score 'nan' is not a finite number"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     TINY_EMBEDDING.replace("0.0 1.0", "0.0 nan"),
     "{emb}:3: token '<urn:b>': non-finite value"),
    ("qt_similarity", "<urn:a>\t<urn:b>\t0.5\n",
     TINY_EMBEDDING.replace("1.0 0.0", "1e400 0.0"),
     "{emb}:2: token '<urn:a>': non-finite value"),
])
def test_eval_input_errors_name_file_and_line(tmp_path, capsys, task, gold,
                                              embedding, message):
    assert eval_error(tmp_path, capsys, task, gold, embedding) == (
        f"qtwalk: error: {message}\n")


def test_pipeline_is_byte_reproducible(tmp_path, fixture_graph):
    out = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        corpus, emb = run_walk_train(d, fixture_graph)
        out.append((corpus.read_bytes(), emb.read_bytes()))
    assert out[0] == out[1]


def test_convert_command(tmp_path):
    doc = tmp_path / "scenes.ttls"
    doc.write_text(
        """
@prefix kgc: <http://kgc.knowledge-graph.jp/ontology/kgc.owl#> .
@prefix kd: <urn:kd:> .
@prefix kdp: <urn:kdp:> .
kd:1 kgc:hasPredicate kdp:meet ; kgc:subject kd:J ; kgc:whom kd:L ;
    kgc:where kd:H .
""",
        encoding="utf-8",
    )
    out = tmp_path / "converted.ttls"
    assert main(["convert", str(doc), str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "<< <urn:kd:J> <urn:kdp:meet> <urn:kd:L> >>" in text
    report = (tmp_path / "converted.ttls.report.tsv").read_text(
        encoding="utf-8"
    )
    assert "scenes_converted\t1\n" in report


def test_convert_reports_a_scene_without_predicate(tmp_path):
    doc = tmp_path / "scenes.ttl"
    doc.write_text(
        "@prefix kgc: <http://kgc.knowledge-graph.jp/ontology/kgc.owl#> .\n"
        "<urn:ex:s1> kgc:hasPredicate <urn:ex:sleep> ;\n"
        "    kgc:subject <urn:ex:alice> ; kgc:when <urn:ex:night> .\n"
        "<urn:ex:s2> kgc:hasPredicate \"oops\" ; kgc:where <urn:ex:room> .\n",
        encoding="utf-8")
    out = tmp_path / "converted.ttls"
    assert main(["convert", str(doc), str(out)]) == 0
    assert Path(f"{out}.report.tsv").read_text(encoding="utf-8") == (
        "scenes_converted\t1\n"
        "nothing_substitutions\t1\n"
        "duplicates_disambiguated\t0\n"
        "dropped_scenes\t1\n"
        "dropped\turn:ex:s2: missing kgc:hasPredicate\n")
    assert "urn:ex:s2" not in out.read_text(encoding="utf-8")


def test_sweep_emits_one_row_per_grid_cell(tmp_path, fixture_graph):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    out = tmp_path / "sweep.tsv"
    assert main([
        "sweep", str(fixture_graph), "--gold-dir", str(gold_dir),
        "--output", str(out),
        "--grid-alpha", "0.0,0.5", "--grid-beta", "0.0,0.5",
        "--grid-depth", "4",
        "--walks", "4", "--exclude-predicate", RDF_TYPE,
        *small_train_flags(),
    ]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "alpha\tbeta\tdepth\ttask\tmetric\tvalue"
    assert len(lines) == 1 + 4  # 2 alphas x 2 betas x 1 depth


@pytest.mark.parametrize("mode", ["classic", "structured"])
@pytest.mark.parametrize("strategy", ["random", "mid"])
def test_sweep_cell_equals_walk_train_eval_through_files(
        tmp_path, fixture_graph, strategy, mode):
    # sweep walks, trains and scores in memory; walk, train and eval reach
    # the same model through a corpus and an embedding file.  At dim 12 the
    # accuracy of each of the four cells moves when one path trains with
    # another seed.
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    walk_flags = ["--walks", "4", "--depth", "4", "--strategy", strategy,
                  "--alpha", "0.2", "--beta", "0.8",
                  "--exclude-predicate", RDF_TYPE]
    train_flags = ["--dim", "12", "--epochs", "2", "--window", "2",
                   "--mode", mode, "--seed", "1"]
    sweep = tmp_path / "sweep.tsv"
    assert main(["sweep", str(fixture_graph), "--gold-dir", str(gold_dir),
                 "--output", str(sweep), *walk_flags, *train_flags]) == 0
    corpus, vectors = tmp_path / "cell.tsv", tmp_path / "cell-vectors.tsv"
    report = tmp_path / "report.tsv"
    assert main(["walk", str(fixture_graph), str(corpus), *walk_flags,
                 "--seed", "1"]) == 0
    assert main(["train", str(corpus), str(vectors), *train_flags]) == 0
    assert main(["eval", str(vectors), "--gold-dir", str(gold_dir),
                 "--tasks", "classification", "--seed", "1",
                 "--output", str(report)]) == 0
    _, *cells = sweep.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t", 3)[:3] for line in cells] == [
        ["0.2", "0.8", "4"]] * len(cells)
    assert [line.split("\t", 3)[3] for line in cells] == \
        report.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-depth", "4,,8",
     "--grid-depth: bad item '': invalid literal for int() with base 10: ''"),
    ("--grid-depth", "4,0", "--grid-depth: bad item '0': d must be >= 1, "
                            "got 0"),
    ("--grid-alpha", "0.5,1.5", "--grid-alpha: bad item '1.5': alpha must "
                                "lie in [0, 1], got 1.5"),
    ("--grid-alpha", "abc", "--grid-alpha: bad item 'abc': could not "
                            "convert string to float: 'abc'"),
    ("--grid-beta", "0.2,nan", "--grid-beta: bad item 'nan': beta must lie "
                               "in [0, 1], got nan"),
])
def test_sweep_checks_every_grid_item_before_reading_input(
        tmp_path, capsys, flag, value, message):
    # neither the graph nor the gold exists: reading either, or training a
    # good cell first, would fail differently
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", str(tmp_path / "absent.ttls"), "--gold-dir",
                 str(tmp_path / "absent"), "--output", str(out),
                 flag, value]) == 1
    assert capsys.readouterr().err == f"qtwalk: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "-1", "epochs must be >= 0, got -1"),
    ("--min-count", "0", "min_count must be >= 1, got 0"),
    ("--learning-rate", "0", "learning_rate must be positive and finite, "
                             "got 0.0"),
    ("--learning-rate", "-0.5", "learning_rate must be positive and finite, "
                                "got -0.5"),
    ("--dim", "0", "dim must be >= 1, got 0"),
    ("--window", "-2", "window must be >= 1, got -2"),
    ("--negatives", "0", "negatives must be >= 1, got 0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_training_configuration_errors_name_field_and_value(
        tmp_path, capsys, flag, value, message):
    emb = tmp_path / "vectors.tsv"
    for command in (["train", str(tmp_path / "absent.tsv"), str(emb)],
                    ["sweep", str(tmp_path / "absent.ttls"), "--gold-dir",
                     str(tmp_path)]):
        assert main([*command, flag, value]) == 1
        assert capsys.readouterr().err == f"qtwalk: error: {message}\n"
    assert not emb.exists()


def test_eval_rejects_a_negative_seed_before_reading(tmp_path, capsys,
                                                    monkeypatch):
    # no gold file exists either: looking for one would fail differently
    monkeypatch.setattr(cli.sg, "load_embeddings", unreachable)
    out = tmp_path / "report.tsv"
    assert main(["eval", str(tmp_path / "vectors.tsv"), "--gold-dir",
                 str(tmp_path), "--output", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "qtwalk: error: --seed must be >= 0, got -1\n")
    assert not out.exists()


def test_one_pair_similarity_gold_is_exit_code_one(tmp_path, fixture_graph,
                                                   capsys):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    gold = gold_dir / "qt_similarity.tsv"
    gold.write_text(gold.read_text(encoding="utf-8").splitlines(
        keepends=True)[0], encoding="utf-8")
    assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                 "--tasks", "qt_similarity"]) == 1
    assert capsys.readouterr().err == (
        "qtwalk: error: qt_similarity needs at least 2 pairs, got 1\n")


def test_cli_import_loads_no_scipy_stats_or_optimize():
    # every command is its own process, so the import is paid on each
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, qtwalk.cli; print(' '.join(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_evaluate_import_loads_no_scipy_or_skipgram():
    # the model type is for annotations only
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, qtwalk.evaluate; print(' '.join(m for m in "
            "('scipy', 'qtwalk.skipgram') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_graph_and_walk_modules_load_no_numpy_or_scipy():
    # the package root imports nothing, so only training and evaluation
    # load numpy and scipy; the training settings are apart from training
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, qtwalk.walks, qtwalk.graph, qtwalk.parser, "
            "qtwalk.convert, qtwalk.fixtures, qtwalk.config; "
            "print(' '.join(m for m in "
            "('numpy', 'scipy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_missing_input_file_is_exit_code_one(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.ttls")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["walk", "g.ttls", "x.tsv", "--depth", "abc"],
                 "argument --depth: invalid int value: 'abc'", id="bad-int"),
    pytest.param(["walk", "g.ttls", "x.tsv", "--strategy", "foo"],
                 "argument --strategy: invalid choice: 'foo'",
                 id="bad-choice"),
    pytest.param(["walk", "g.ttls"],
                 "the following arguments are required: output",
                 id="missing-argument"),
    pytest.param(["frob"], "argument command: invalid choice: 'frob'",
                 id="unknown-command"),
    pytest.param(["convert", "s.ttl", "g.ttls", "--link-to-inner"],
                 "unrecognized arguments: --link-to-inner",
                 id="removed-flag"),
])
def test_usage_error_is_exit_code_one(tmp_path, capsys, monkeypatch, argv,
                                      message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qtwalk: error: {message}"), err
    assert err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


def test_help_is_exit_code_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qtwalk walk ")


@pytest.mark.parametrize("rate", ["nan", "inf", "1e200"])
def test_non_finite_training_is_exit_code_one(tmp_path, fixture_graph,
                                              capsys, rate):
    corpus = tmp_path / "walks.tsv"
    emb = tmp_path / "vectors.tsv"
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags()]) == 0
    assert main(["train", str(corpus), str(emb), *small_train_flags(),
                 "--learning-rate", rate]) == 1
    assert "qtwalk: error:" in capsys.readouterr().err
    assert not emb.exists()


def test_train_on_an_empty_vocabulary_is_exit_code_one(tmp_path,
                                                      fixture_graph, capsys):
    corpus = tmp_path / "walks.tsv"
    emb = tmp_path / "vectors.tsv"
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags()]) == 0
    assert main(["train", str(corpus), str(emb), *small_train_flags(),
                 "--min-count", "1000000"]) == 1
    assert capsys.readouterr().err == "qtwalk: error: vocabulary is empty\n"
    assert not emb.exists()
    assert not Path(f"{emb}.manifest").exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("header, body", [
    ("count=2 dim=1 mode=classic", "a\t0.5\na\t0.25\n"),
    ("count=1 dim=1 mode=bogus", "a\t0.5\n"),
    ("dim=1 mode=classic", "a\t0.5\n"),
])
def test_bad_embedding_file_is_exit_code_one(tmp_path, capsys, header, body):
    emb = tmp_path / "vectors.tsv"
    emb.write_text(f"#qtwalk-emb v1 {header}\n{body}", encoding="utf-8")
    # the gold files are found before the embedding is read
    (tmp_path / "classification.tsv").touch()
    assert main(["eval", str(emb), "--gold-dir", str(tmp_path),
                 "--tasks", "classification"]) == 1
    assert capsys.readouterr().err.startswith(f"qtwalk: error: {emb}: ")


def test_internal_invariant_violation_is_exit_code_two(tmp_path, capsys,
                                                       monkeypatch,
                                                       fixture_graph):
    def broken(g, include_id_nesting=False):
        raise AssertionError("ids out of order")

    monkeypatch.setattr(cli.gr, "compute_stats", broken)
    out = tmp_path / "stats.tsv"
    assert main(["stats", str(fixture_graph), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "qtwalk: internal invariant violated: ids out of order\n")
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_a_key_error_is_a_bug_not_an_input_error(tmp_path, capsys,
                                                 monkeypatch, fixture_graph):
    def broken(g, include_id_nesting=False):
        raise KeyError("k")

    monkeypatch.setattr(cli.gr, "compute_stats", broken)
    out = tmp_path / "stats.tsv"
    with pytest.raises(KeyError):
        main(["stats", str(fixture_graph), "--output", str(out)])
    assert "qtwalk: error:" not in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_parse_error_is_exit_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.ttls"
    bad.write_text("this is not turtle", encoding="utf-8")
    assert main(["stats", str(bad)]) == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--max-depth", "0", "max_depth must be >= 1, got 0"),
    ("--triples", "-3", "triples must be >= 0, got -3"),
    ("--qt-probability", "1.5", "qt_probability must lie in [0, 1], got 1.5"),
    ("--qt-probability", "-0.1",
     "qt_probability must lie in [0, 1], got -0.1"),
    ("--qt-probability", "nan", "qt_probability must lie in [0, 1], got nan"),
])
def test_gen_fixture_rejects_out_of_range_values(tmp_path, capsys, flag,
                                                 value, message):
    out = tmp_path / "bad.ttls"
    assert main(["gen-fixture", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"qtwalk: error: {message}\n"
    assert not out.exists()


def test_tab_inside_an_iri_is_exit_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.ttls"
    bad.write_text("<urn:a\tb> <urn:p> <urn:c> .\n", encoding="utf-8")
    corpus = tmp_path / "walks.tsv"
    assert main(["walk", str(bad), str(corpus)]) == 1
    assert capsys.readouterr().err == (
        "qtwalk: error: 1:1: Syntax: illegal character '\\t' in IRI\n")
    assert not corpus.exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys,
                                                   fixture_graph, enabled):
    bad = tmp_path / "bad.ttls"
    bad.write_text("this is not turtle", encoding="utf-8")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(["stats", str(fixture_graph)]) == 0
        assert gc.isenabled() is enabled
        assert main(["stats", str(bad)]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("escape", ["\\UFFFFFFFF", "\\U0011FFFF",
                                    "\\uD800"])
def test_escape_outside_unicode_is_exit_code_one(tmp_path, capsys, escape):
    bad = tmp_path / "bad.ttls"
    bad.write_text(f'<urn:a> <urn:p> "x{escape}" .\n', encoding="utf-8")
    for argv in (["stats", str(bad)],
                 ["walk", str(bad), str(tmp_path / "walks.tsv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == ("qtwalk: error: 1:17: BadLiteral: "
                       "malformed unicode escape\n")
    assert not (tmp_path / "walks.tsv").exists()


def test_qt_deeper_than_limit_is_exit_code_one(tmp_path, capsys):
    deep = tmp_path / "deep.ttls"
    deep.write_text(nested_qt_document(1200), encoding="utf-8")
    for argv in (["stats", str(deep)],
                 ["walk", str(deep), str(tmp_path / "walks.tsv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qtwalk: error: 1:")
        assert f"deeper than {MAX_QT_DEPTH}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "walks.tsv").exists()


def test_qt_at_depth_limit_passes_stats_and_walk(tmp_path, capsys):
    assert MAX_QT_DEPTH >= 400
    deep = tmp_path / "deep.ttls"
    deep.write_text(nested_qt_document(MAX_QT_DEPTH), encoding="utf-8")
    assert main(["stats", str(deep)]) == 0
    assert f"{MAX_QT_DEPTH}-fold-nested QT\t1\n" in capsys.readouterr().out
    corpus = tmp_path / "walks.tsv"
    for strategy in ("mid", "random"):
        assert main(["walk", str(deep), str(corpus), "--walks", "3",
                     "--depth", "6", "--alpha", "1", "--beta", "1",
                     "--strategy", strategy]) == 0
        _, rows = read_corpus_lines(corpus)
        assert rows


def test_unknown_task_is_exit_code_one(tmp_path, fixture_graph, capsys):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    assert main(["eval", str(emb), "--gold-dir", str(gold_dir),
                 "--tasks", "frobnicate"]) == 1


def test_missing_gold_file_is_exit_code_one(tmp_path, fixture_graph):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    empty = tmp_path / "empty_gold"
    empty.mkdir()
    assert main(["eval", str(emb), "--gold-dir", str(empty),
                 "--tasks", "clustering"]) == 1


# -- walk output: root shards, failures, the output path ------------------------

# Runs ``walk`` in 3 root shards with the walker failing on one root, then
# prints this process's pid, the exit code and whether every child was
# reaped.  A shard child that returned into the caller would print too.
FAILING_WALK = """
import os, sys
from qtwalk import cli, walks

graph, corpus, failing_shard = sys.argv[1:]
roots = cli.load_graph(graph).roots
bad_root = roots[0] if failing_shard == "first" else roots[-1]
mid_walks = walks.mid_walks

def failing_walker(g, root, params):
    if root == bad_root:
        raise ValueError(f"no walks from root {root}")
    return mid_walks(g, root, params)

walks._usable_cpus = lambda: 3
walks.mid_walks = failing_walker
code = cli.main(["walk", graph, corpus, "--walks", "4", "--depth", "4"])
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(os.getpid(), code, reaped)
"""


@pytest.mark.parametrize("failing_shard", ["first", "last"])
def test_failed_walk_shard_leaves_no_file_or_child(tmp_path, fixture_graph,
                                                   failing_shard):
    corpus = tmp_path / "walks.tsv"
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
            [sys.executable, "-c", FAILING_WALK, str(fixture_graph),
             str(corpus), failing_shard],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    # the first shard fails in this process, the last one in a child
    assert out == f"{proc.pid} 1 True\n"
    assert "qtwalk: error: no walks from root " in err
    assert "Traceback" not in err
    assert not corpus.exists()
    assert not Path(f"{corpus}.manifest").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_sharded_walk_warns_nothing(tmp_path, fixture_graph, monkeypatch):
    # Python 3.12+ warns on fork() while another thread runs.  It clears the
    # warning when a filter turns it into an error, so record it instead.
    monkeypatch.setattr(walks, "_usable_cpus", lambda: 2)
    corpus = tmp_path / "walks.tsv"
    idle = threading.Event()
    thread = threading.Thread(target=idle.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["walk", str(fixture_graph), str(corpus),
                         *small_walk_flags()]) == 0
    finally:
        idle.set()
        thread.join()
    assert [str(w.message) for w in caught] == []
    assert read_corpus_lines(corpus)[1]


@pytest.mark.parametrize("output", ["missing/walks.tsv", "."])
def test_walk_output_is_checked_before_the_graph_is_read(
        tmp_path, fixture_graph, capsys, monkeypatch, output):
    def unreachable(*args):
        raise AssertionError("the graph was read")

    monkeypatch.setattr(cli, "load_graph", unreachable)
    path = tmp_path / output
    assert main(["walk", str(fixture_graph), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qtwalk: error: {path}: ")
    assert ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


# -- sweep cells in shards -----------------------------------------------------

def sweep_args(graph, gold_dir, out):
    return ["sweep", str(graph), "--gold-dir", str(gold_dir),
            "--output", str(out), "--grid-alpha", "0.0,0.5",
            "--grid-beta", "0.0,0.5", "--walks", "4", "--depth", "4",
            "--exclude-predicate", RDF_TYPE, *small_train_flags()]


def test_sharded_sweep_gives_the_same_bytes_on_any_cpu_count(
        tmp_path, fixture_graph, monkeypatch):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    forked = count_forks(monkeypatch)
    outputs = set()
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(walks, "_usable_cpus", lambda: cpus)
        forked.clear()
        out = tmp_path / f"sweep-{cpus}.tsv"
        assert main(sweep_args(fixture_graph, gold_dir, out)) == 0
        assert len(forked) == min(cpus, 4) - 1  # 4 cells, a shard per CPU
        outputs.add(out.read_bytes())
    assert len(outputs) == 1
    assert len(outputs.pop().splitlines()) == 1 + 4
    assert not list(tmp_path.glob("*.tmp"))


def test_sweep_shard_holds_one_cells_model_and_corpus(
        tmp_path, fixture_graph, monkeypatch):
    # 4 cells in one shard: when a cell starts training, the previous
    # cell's model is gone; no cell builds a Walk, whose id tuples would
    # outlive the rows in CPython's free lists
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    monkeypatch.setattr(walks, "_usable_cpus", lambda: 1)
    models, seen = [], []
    run_pipeline, train = cli.run_pipeline, cli.sg.train

    def recording_pipeline(g, params, cfg):
        model = run_pipeline(g, params, cfg)
        models.append(weakref.ref(model))
        return model

    def no_walk(*args, **kwargs):
        raise AssertionError("a sweep built a Walk")

    def checking_train(rows, vocab, cfg):
        seen.append(not models or models[-1]() is None)  # on entry
        return train(rows, vocab, cfg)

    monkeypatch.setattr(cli, "run_pipeline", recording_pipeline)
    monkeypatch.setattr(walks, "Walk", no_walk)
    monkeypatch.setattr(cli.sg, "train", checking_train)
    out = tmp_path / "sweep.tsv"
    assert main(sweep_args(fixture_graph, gold_dir, out)) == 0
    assert len(models) == 4
    assert seen == [True] * 4


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before 3.11 a call's arguments stay on the caller's stack until it "
    "returns, so no caller can hand its rows over"))
@pytest.mark.parametrize("command, strategy", [
    pytest.param("train", "random", id="train"),
    pytest.param("run_pipeline", "random", id="run_pipeline"),
    pytest.param("run_pipeline", "mid", id="run_pipeline-mid")])
def test_training_frees_the_corpus_rows_before_its_first_step(
        tmp_path, monkeypatch, command, strategy):
    # The traced bytes allocated by read_corpus_lines (for train) or
    # anywhere in walks.py (for run_pipeline), when the vocabulary is built
    # and again at the first SGD step.  At the vocabulary they are 832,008
    # bytes for train, and 736,672 (random) and 1,075,832 (mid) for
    # run_pipeline.  With the rows held through SGD by train and its
    # caller, the second reading stays near the first (831,816 for train).
    # Handed over, what is left is the one string per distinct token that
    # the vocabulary keeps (55,024 bytes for train), or a few lists that
    # CPython keeps for reuse (840 and 3,080 for run_pipeline).  Rows built
    # through a Walk per walk left CPython's free lists holding their id
    # tuples: 508,312 (random) and 318,288 bytes (mid) at the first step,
    # more or less by what ran before in the process.
    graph = tmp_path / "graph.ttls"
    assert main(["gen-fixture", str(graph), "--seed", "3",
                 "--triples", "300"]) == 0
    corpus = tmp_path / "walks.tsv"
    assert main(["walk", str(graph), str(corpus), "--walks", "20",
                 "--depth", "6", "--strategy", "random", "--seed", "1"]) == 0
    if command == "train":
        lines, first = inspect.getsourcelines(walks.read_corpus_lines)
        filters = [tracemalloc.Filter(True, walks.__file__, line)
                   for line in range(first, first + len(lines))]
    else:
        filters = [tracemalloc.Filter(True, walks.__file__)]
    sg = cli.sg
    build_vocabulary, batch_gradient = sg.build_vocabulary, sg._batch_gradient
    readings = []

    def traced_bytes() -> int:
        return sum(entry.size for entry in tracemalloc.take_snapshot()
                   .filter_traces(filters).statistics("filename"))

    def measured_vocabulary(rows, min_count):
        readings.append(traced_bytes())
        return build_vocabulary(rows, min_count)

    def measured_step(*args):
        if len(readings) == 1:
            readings.append(traced_bytes())
        return batch_gradient(*args)

    monkeypatch.setattr(sg, "build_vocabulary", measured_vocabulary)
    monkeypatch.setattr(sg, "_batch_gradient", measured_step)
    tracemalloc.start()
    try:
        if command == "train":
            assert main(["train", str(corpus), str(tmp_path / "v.tsv"),
                         "--dim", "8", "--epochs", "1"]) == 0
        else:
            cli.run_pipeline(
                cli.load_graph(str(graph)),
                walks.WalkParams(strategy=walks.Strategy(strategy), n=20,
                                 d=6, seed=1),
                TrainConfig(dim=8, epochs=1))
    finally:
        tracemalloc.stop()
    at_vocabulary, at_first_step = readings
    assert at_vocabulary > 1 << 19, at_vocabulary
    bound = at_vocabulary / 10 if command == "train" else 64 << 10
    assert at_first_step < bound, readings


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before 3.11 a call's arguments stay on the caller's stack until it "
    "returns, so no caller can hand its text over"))
@pytest.mark.parametrize("through", ["parse_graph", "load_graph"])
def test_parsing_lets_go_of_the_text_before_indexing(tmp_path, monkeypatch,
                                                     through):
    # The text's block is known by the traceback and size tracemalloc
    # records for it; at the start of ``Interner.graph`` no block with both
    # may be traced.  The text is passed as a call's temporary, as
    # ``load_graph`` passes the text it reads.
    path = tmp_path / "graph.ttls"
    assert main(["gen-fixture", str(path), "--seed", "3",
                 "--triples", "2000"]) == 0
    assert path.stat().st_size >= 200_000
    texts, alive = [], []

    def traced(text):
        texts.append((tracemalloc.get_object_traceback(text),
                      sys.getsizeof(text)))
        return text

    read_text, graph = Path.read_text, gr.Interner.graph
    monkeypatch.setattr(Path, "read_text",
                        lambda self, **kw: traced(read_text(self, **kw)))

    def measured_graph(self, exclude_predicates):
        alive.extend(trace for trace in tracemalloc.take_snapshot().traces
                     if (trace.traceback, trace.size) in texts)
        return graph(self, exclude_predicates)

    monkeypatch.setattr(gr.Interner, "graph", measured_graph)
    tracemalloc.start()
    try:
        if through == "parse_graph":
            g = gr.parse_graph(path.read_text(encoding="utf-8"))
        else:
            g = cli.load_graph(str(path))
    finally:
        tracemalloc.stop()
    assert texts and texts[0][1] >= 200_000
    assert not alive, alive
    assert g.roots


# Runs ``sweep`` over 4 cells in 3 shards with the cell ``alpha, beta``
# failing, then prints this process's pid, the exit code and whether every
# child was reaped.  A shard child that returned into the caller would
# print too.
FAILING_SWEEP = """
import os, sys
from qtwalk import cli, walks

alpha, beta, argv = float(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
run_pipeline = cli.run_pipeline

def failing_pipeline(g, params, cfg):
    if (params.alpha, params.beta) == (alpha, beta):
        raise ValueError(f"cell {alpha} {beta} failed")
    return run_pipeline(g, params, cfg)

walks._usable_cpus = lambda: 3
cli.run_pipeline = failing_pipeline
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(os.getpid(), code, reaped)
"""


# the first cell runs in this process, the last in the last child's shard
@pytest.mark.parametrize("failing_cell", ["0.0 0.0", "0.5 0.5"])
def test_failed_sweep_cell_leaves_no_file_or_child(tmp_path, fixture_graph,
                                                   failing_cell):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    out = tmp_path / "sweep.tsv"
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
            [sys.executable, "-c", FAILING_SWEEP, *failing_cell.split(),
             *sweep_args(fixture_graph, gold_dir, out)],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        stdout, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert stdout == f"{proc.pid} 1 True\n"
    assert f"qtwalk: error: cell {failing_cell} failed\n" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


# Runs ``walk`` with the walker raising on the last root and ``sweep`` with
# ``run_pipeline`` raising on the last cell, each at 1 and 2 usable CPUs.
# Each run is a forked process that ends as ``python -m qtwalk.cli`` does,
# so an exception ``main`` re-raises prints its traceback and exits 1.
# Prints each run's exit code and stderr as JSON.
FAILING_COMMANDS = """
import json, os, sys
from qtwalk import cli, walks

kind = {"ValueError": ValueError, "KeyError": KeyError,
        "AssertionError": AssertionError}[sys.argv[1]]
folder, walk_argv, sweep_argv = sys.argv[2], *map(json.loads, sys.argv[3:])
last_root = cli.load_graph(walk_argv[1]).roots[-1]
mid_walks, run_pipeline = walks.mid_walks, cli.run_pipeline

def failing_walker(g, root, params):
    if root == last_root:
        raise kind("fault")
    return mid_walks(g, root, params)

def failing_pipeline(g, params, cfg):
    if (params.alpha, params.beta) == (0.5, 0.5):
        raise kind("fault")
    return run_pipeline(g, params, cfg)

walks.mid_walks, cli.run_pipeline = failing_walker, failing_pipeline
runs = {}
for command, argv in (("walk", walk_argv), ("sweep", sweep_argv)):
    for cpus in (1, 2):
        err = os.path.join(folder, f"{command}-{cpus}.err")
        pid = os.fork()
        if pid == 0:
            os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT), 2)
            walks._usable_cpus = lambda: cpus
            sys.exit(cli.main(argv))
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        with open(err, encoding="utf-8") as fh:
            runs[f"{command} {cpus}"] = code, fh.read()
print(json.dumps(runs))
"""

# the exit code and ``qtwalk:`` lines of one CPU, and whether it prints a
# traceback
ONE_CPU = {
    "ValueError": (1, ["qtwalk: error: fault"], False),
    "AssertionError": (2, ["qtwalk: internal invariant violated: fault"],
                       False),
    "KeyError": (1, [], True),
}


@pytest.mark.parametrize("kind", list(ONE_CPU))
def test_a_shard_child_fails_a_command_as_one_cpu_does(tmp_path, fixture_graph,
                                                       kind):
    _, emb = run_walk_train(tmp_path, fixture_graph)
    gold_dir = write_gold(tmp_path, emb)
    walk_argv = ["walk", str(fixture_graph), str(tmp_path / "failed.tsv"),
                 "--walks", "4", "--depth", "4"]
    sweep_argv = sweep_args(fixture_graph, gold_dir, tmp_path / "sweep.tsv")
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
            [sys.executable, "-c", FAILING_COMMANDS, kind, str(tmp_path),
             json.dumps(walk_argv), json.dumps(sweep_argv)],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    runs = json.loads(out)
    for command in ("walk", "sweep"):
        for cpus in (1, 2):
            code, stderr = runs[f"{command} {cpus}"]
            lines = [line for line in stderr.splitlines()
                     if line.startswith("qtwalk:")]
            assert (code, lines, "Traceback" in stderr) == ONE_CPU[kind], (
                command, cpus, stderr)


def test_a_shard_child_ended_by_a_signal_fails_the_command(
        tmp_path, fixture_graph, monkeypatch, capsys):
    parent = os.getpid()
    last_root = cli.load_graph(str(fixture_graph)).roots[-1]
    mid_walks = walks.mid_walks

    def killed_walker(g, root, params):
        if root == last_root and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return mid_walks(g, root, params)

    monkeypatch.setattr(walks, "mid_walks", killed_walker)
    monkeypatch.setattr(walks, "_usable_cpus", lambda: 2)
    forked = count_forks(monkeypatch)
    open_fds = os.listdir("/proc/self/fd")
    assert main(["walk", str(fixture_graph), str(tmp_path / "walks.tsv"),
                 *small_walk_flags()]) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: shard 2 of 2 ended by signal {int(signal.SIGKILL)} "
        f"({signal.strsignal(signal.SIGKILL)})\n")
    assert os.listdir("/proc/self/fd") == open_fds  # the part is closed
    assert list(tmp_path.iterdir()) == [fixture_graph]
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(forked[0], os.WNOHANG)


# -- every output is checked before any work, and written atomically ----------

def unreachable(*args, **kwargs):
    raise AssertionError("work began before the output was checked")


# (id, command with the output as "{out}", the first expensive stage)
OUTPUT_COMMANDS = [
    ("train", ["train", "walks.tsv", "{out}"], (walks, "read_corpus_lines")),
    ("sweep", ["sweep", "graph.ttls", "--gold-dir", ".", "--output", "{out}"],
     (cli, "load_graph")),
    ("stats", ["stats", "graph.ttls", "--output", "{out}"],
     (cli, "load_graph")),
    ("eval", ["eval", "vectors.tsv", "--gold-dir", ".", "--output", "{out}"],
     (cli.sg, "load_embeddings")),
    ("convert", ["convert", "scenes.ttl", "{out}"], (cli, "parse_document")),
    ("convert-report",
     ["convert", "scenes.ttl", "g2.ttls", "--report", "{out}"],
     (cli, "parse_document")),
    ("gen-fixture", ["gen-fixture", "{out}"], (cli, "random_graph")),
]


# ``bad`` is a path in a missing directory, or a directory the test makes
@pytest.mark.parametrize("command, stage, bad", [
    pytest.param([bad if arg == "{out}" else arg for arg in command], stage,
                 bad, id=f"{name}-{bad}")
    for bad in ("missing/out.tsv", ".")
    for name, command, stage in OUTPUT_COMMANDS
] + [
    pytest.param(["walk", "graph.ttls", "out.tsv"], (cli, "load_graph"),
                 "out.tsv.manifest", id="walk-manifest"),
    pytest.param(["train", "walks.tsv", "out.tsv"],
                 (walks, "read_corpus_lines"), "out.tsv.manifest",
                 id="train-manifest"),
])
def test_outputs_are_checked_before_any_work(tmp_path, capsys, monkeypatch,
                                             command, stage, bad):
    monkeypatch.setattr(*stage, unreachable)
    monkeypatch.chdir(tmp_path)
    if not bad.startswith("missing/"):
        Path(bad).mkdir(exist_ok=True)
    before = list(tmp_path.rglob("*"))
    assert main(command) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {bad}: no such directory: missing\n"
        if bad.startswith("missing/") else
        f"qtwalk: error: {bad}: is a directory\n")
    assert list(tmp_path.rglob("*")) == before


# a directory in the gold file's place is no gold file
@pytest.mark.parametrize("tasks, clustering_dir, message", [
    ("classification,bogus", False, "unknown task 'bogus'"),
    ("classification,clustering", False, "gold file not found: {gold}"),
    (None, False, "gold file not found: {gold}"),
    ("classification,clustering", True, "gold file not found: {gold}"),
])
def test_eval_checks_tasks_and_gold_files_before_the_embedding(
        tmp_path, capsys, monkeypatch, tasks, clustering_dir, message):
    monkeypatch.setattr(cli.sg, "load_embeddings", unreachable)
    (tmp_path / "classification.tsv").write_text("<urn:a>\tA\n",
                                                 encoding="utf-8")
    gold = tmp_path / "clustering.tsv"
    if clustering_dir:
        gold.mkdir()
    args = ["eval", str(tmp_path / "vectors.tsv"), "--gold-dir",
            str(tmp_path), "--output", str(tmp_path / "report.tsv")]
    assert main(args + (["--tasks", tasks] if tasks else [])) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {message.format(gold=gold)}\n")
    assert not (tmp_path / "report.tsv").exists()


def test_sweep_finds_its_gold_file_before_the_graph(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "load_graph", unreachable)
    assert main(["sweep", str(tmp_path / "graph.ttls"), "--gold-dir",
                 str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "qtwalk: error: gold file not found: "
        f"{tmp_path / 'classification.tsv'}\n")


@pytest.mark.parametrize("report", ["out.ttls", "sub/../out.ttls"])
def test_an_output_path_given_twice_is_refused(tmp_path, capsys, monkeypatch,
                                               report):
    monkeypatch.setattr(cli, "parse_document", unreachable)
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    Path("out.ttls").write_text("old\n", encoding="utf-8")
    before = list(tmp_path.rglob("*"))
    assert main(["convert", "scenes.ttl", "out.ttls", "--report", report]) == 1
    assert capsys.readouterr().err == (
        "qtwalk: error: out.ttls: given for two outputs\n")
    assert list(tmp_path.rglob("*")) == before
    assert Path("out.ttls").read_text(encoding="utf-8") == "old\n"


# (id, command, the output that names an input); every file named in the
# command exists, and none may be read
OUTPUT_IS_INPUT = [
    ("convert", ["convert", "g.ttls", "g.ttls"], "g.ttls"),
    ("convert-report", ["convert", "g.ttls", "out.ttls", "--report",
                        "g.ttls"], "g.ttls"),
    ("stats", ["stats", "g.ttls", "--output", "g.ttls"], "g.ttls"),
    ("walk", ["walk", "g.ttls", "./g.ttls"], "./g.ttls"),
    ("walk-manifest", ["walk", "w.manifest", "w"], "w.manifest"),
    ("train", ["train", "w.tsv", "w.tsv"], "w.tsv"),
    ("train-manifest", ["train", "v.tsv.manifest", "v.tsv"],
     "v.tsv.manifest"),
    ("train-sidecar", ["train", "v.tsv.out.npz", "v.tsv"], "v.tsv.out.npz"),
    ("eval", ["eval", "v.tsv", "--gold-dir", ".", "--output", "v.tsv"],
     "v.tsv"),
    ("eval-input-manifest", ["eval", "v.tsv", "--gold-dir", ".",
                             "--output", "v.tsv.manifest"], "v.tsv.manifest"),
    ("eval-gold", ["eval", "v.tsv", "--gold-dir", "gold", "--output",
                   "gold/../gold/clustering.tsv"],
     "gold/../gold/clustering.tsv"),
    ("sweep", ["sweep", "g.ttls", "--gold-dir", ".", "--output", "g.ttls"],
     "g.ttls"),
    ("sweep-gold", ["sweep", "g.ttls", "--gold-dir", "gold", "--output",
                    "gold/classification.tsv"], "gold/classification.tsv"),
]


@pytest.mark.parametrize("command, bad", [
    pytest.param(command, bad, id=name)
    for name, command, bad in OUTPUT_IS_INPUT])
def test_an_output_that_is_also_an_input_is_refused(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    bad):
    monkeypatch.chdir(tmp_path)
    Path("gold").mkdir()
    for name in ("g.ttls", "w.manifest", "w.tsv", "w.tsv.manifest",
                 "v.tsv", "v.tsv.manifest", "v.tsv.out.npz",
                 "gold/classification.tsv", "gold/clustering.tsv"):
        Path(name).write_text(f"{name}: not for writing\n", encoding="utf-8")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(command) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {bad}: is also an input\n")
    assert {p: p.read_bytes()
            for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("link", [os.link, os.symlink])
def test_an_output_linked_to_an_input_is_refused(tmp_path, capsys,
                                                 fixture_graph, link):
    text = fixture_graph.read_bytes()
    other = tmp_path / "other.ttls"
    link(fixture_graph, other)
    assert main(["stats", str(fixture_graph), "--output", str(other)]) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {other}: is also an input\n")
    assert fixture_graph.read_bytes() == text
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("old_target", [True, False])
def test_an_output_through_a_symlink_reaches_its_target(
        tmp_path, fixture_graph, old_target):
    direct = tmp_path / "direct.tsv"
    assert main(["stats", str(fixture_graph), "--output", str(direct)]) == 0
    (tmp_path / "data").mkdir()
    (tmp_path / "out").mkdir()
    target = tmp_path / "data" / "target.tsv"
    if old_target:
        target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "out" / "link.tsv"
    link.symlink_to(Path("..") / "data" / "target.tsv")
    assert main(["stats", str(fixture_graph), "--output", str(link)]) == 0
    assert link.is_symlink()
    assert os.readlink(link) == os.path.join("..", "data", "target.tsv")
    assert target.read_bytes() == direct.read_bytes()
    assert not list(tmp_path.rglob("*.tmp"))


def test_an_output_linked_into_a_missing_directory_is_refused(
        tmp_path, fixture_graph, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_graph", unreachable)
    link = tmp_path / "link.tsv"
    link.symlink_to(tmp_path / "missing" / "target.tsv")
    assert main(["stats", str(fixture_graph), "--output", str(link)]) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {link}: no such directory: {tmp_path / 'missing'}\n")
    assert link.is_symlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("through", ["path", "symlink", pytest.param(
    "fd", marks=pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="no /proc/self/fd"))])
def test_an_output_that_is_no_regular_file_is_refused(
        tmp_path, fixture_graph, capsys, monkeypatch, through):
    # "fd" names a pipe's end as /dev/stdout may: that /proc link resolves
    # to no path, so only following it to the pipe tells what it is
    monkeypatch.setattr(cli, "load_graph", unreachable)
    fifo = tmp_path / "fifo.tsv"
    os.mkfifo(fifo)
    (tmp_path / "link.tsv").symlink_to(fifo)
    pipe = os.pipe()
    out = {"path": fifo, "symlink": tmp_path / "link.tsv",
           "fd": Path(f"/proc/self/fd/{pipe[1]}")}[through]
    try:
        assert main(["stats", str(fixture_graph), "--output", str(out)]) == 1
    finally:
        for fd in pipe:
            os.close(fd)
    assert capsys.readouterr().err == (
        f"qtwalk: error: {out}: not a regular file\n")
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert not list(tmp_path.glob("*.tmp"))


# ``qtwalk stats g.ttls --output /dev/stdout >> log.txt``: the link leads to
# log.txt, which replacing would empty of its earlier lines
@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_an_output_open_as_a_standard_stream_is_refused(
        tmp_path, fixture_graph, stream):
    log = tmp_path / "log.txt"
    log.write_text("earlier\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, qtwalk.cli; sys.exit(qtwalk.cli.main(sys.argv[1:]))"
    with open(log, "a", encoding="utf-8") as appended:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                   stream: appended}
        proc = subprocess.run(
            [sys.executable, "-c", code, "stats", str(fixture_graph),
             "--output", f"/dev/{stream}"],
            env=dict(os.environ, PYTHONPATH=str(src)), text=True, **streams)
    assert proc.returncode == 1
    # the error goes to stderr, which for "stderr" is the log
    assert (log.read_text(encoding="utf-8") + (proc.stdout or "")
            + (proc.stderr or "")) == (
        f"earlier\nqtwalk: error: /dev/{stream}: is {stream}\n")
    assert not list(tmp_path.glob("*.tmp"))


def test_train_checks_its_outputs_sidecar_before_reading(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(walks, "read_corpus_lines", unreachable)
    emb = tmp_path / "vectors.tsv"
    sidecar = tmp_path / "vectors.tsv.out.npz"
    sidecar.mkdir()
    assert main(["train", str(tmp_path / "walks.tsv"), str(emb),
                 "--save-outputs"]) == 1
    assert capsys.readouterr().err == (
        f"qtwalk: error: {sidecar}: is a directory\n")
    assert list(tmp_path.rglob("*")) == [sidecar]


def test_failed_convert_write_keeps_the_old_output(tmp_path, fixture_graph,
                                                   monkeypatch):
    out = tmp_path / "g2.ttls"
    out.write_text("old\n", encoding="utf-8")
    serialize = cli.serialize_triple
    written: list[str] = []

    def failing_serialize(t):
        if written:
            raise ValueError("disk full")
        written.append(serialize(t))
        return written[-1]

    monkeypatch.setattr(cli, "serialize_triple", failing_serialize)
    assert main(["convert", str(fixture_graph), str(out)]) == 1
    assert written  # the failure came mid-write
    assert out.read_text(encoding="utf-8") == "old\n"
    assert not Path(f"{out}.report.tsv").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_convert_report_keeps_the_old_graph(tmp_path, fixture_graph,
                                                   monkeypatch):
    out = tmp_path / "g2.ttls"
    out.write_text("old\n", encoding="utf-8")

    def failing_rows(self):
        raise ValueError("disk full")

    monkeypatch.setattr(ConversionReport, "rows", failing_rows)
    assert main(["convert", str(fixture_graph), str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "old\n"
    assert not Path(f"{out}.report.tsv").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_walk_keeps_the_old_corpus_and_manifest(tmp_path, fixture_graph,
                                                       monkeypatch):
    corpus = tmp_path / "walks.tsv"
    manifest = Path(f"{corpus}.manifest")
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags()]) == 0
    old = corpus.read_bytes(), manifest.read_bytes()

    def failing_fingerprint(self):
        raise ValueError("no fingerprint")

    # the corpus is written whole before the manifest needs the fingerprint
    monkeypatch.setattr(Graph, "fingerprint", failing_fingerprint)
    assert main(["walk", str(fixture_graph), str(corpus),
                 *small_walk_flags(), "--seed", "2"]) == 1
    assert (corpus.read_bytes(), manifest.read_bytes()) == old
    assert not list(tmp_path.glob("*.tmp"))


def test_train_without_save_outputs_removes_an_older_sidecar(tmp_path,
                                                             fixture_graph):
    corpus, emb = run_walk_train(tmp_path, fixture_graph,
                                 train_flags=["--save-outputs"])
    sidecar = Path(f"{emb}.out.npz")
    assert sidecar.exists()
    assert main(["train", str(corpus), str(emb), *small_train_flags()]) == 0
    assert not sidecar.exists()
    assert Path(f"{emb}.manifest").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_train_without_save_outputs_removes_a_linked_sidecar_not_its_target(
        tmp_path, fixture_graph):
    corpus, emb = run_walk_train(tmp_path, fixture_graph,
                                 train_flags=["--save-outputs"])
    (tmp_path / "kept").mkdir()
    target = tmp_path / "kept" / "outputs.npz"
    sidecar = Path(f"{emb}.out.npz")
    sidecar.rename(target)
    sidecar.symlink_to(target)
    old = target.read_bytes()
    assert main(["train", str(corpus), str(emb), *small_train_flags()]) == 0
    assert not sidecar.is_symlink() and not sidecar.exists()
    assert target.read_bytes() == old
    assert not list(tmp_path.rglob("*.tmp"))
