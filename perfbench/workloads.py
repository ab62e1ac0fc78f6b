"""The three workloads: inputs, CLI steps, and the checks on their outputs.

Each workload writes its inputs once per benchmark run (untimed) and then
describes one pass as a list of ``qtwalk`` command lines.  Output paths
contain ``{out}``, replaced by a fresh directory for every pass, so
repeated passes of one seed can be compared byte for byte.

Why these three (see README.md for the full layer -> metric map):

* ``kgrc-train`` is the paper's pipeline on KGRC-shaped data; training
  dominates it, and it is the only workload whose embeddings are scored.
* ``deep-ingest`` never trains: parsing, graph building, both walkers and
  token serialization of QTs nested to depth 5 do the work.  A training
  change must leave it unchanged.
* ``kgrc-sweep`` trains several small structured-mode models in memory
  and scores each by kNN; kNN eval is a large share of it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import gen

# The program always gets seed 0; --seed only shapes the generated inputs.
PROGRAM_SEED = "0"

SIZES = {
    "kgrc-train": {
        "full": dict(stories=12, scenes=20, persons=4, objects=5, places=3,
                     planted_duplicates=2),
        "smoke": dict(stories=4, scenes=8, persons=4, objects=5, places=3,
                      planted_duplicates=1),
    },
    "deep-ingest": {
        "full": dict(triples=8000, entities=1000, relations=24),
        "smoke": dict(triples=300, entities=60, relations=8),
    },
    "kgrc-sweep": {
        "full": dict(stories=6, scenes=40, persons=4, objects=5, places=3,
                     planted_duplicates=2),
        "smoke": dict(stories=2, scenes=16, persons=4, objects=5, places=3,
                      planted_duplicates=1),
    },
}

EVAL_ROWS = {
    ("classification", "accuracy"), ("clustering", "accuracy"),
    ("clustering", "adjusted_rand_index"), ("entity_relatedness", "kendall_tau"),
    ("qt_similarity", "pearson"), ("qt_similarity", "spearman"),
    ("qt_similarity", "harmonic_mean"),
}
# kNN accuracy must beat always guessing the majority class by this much,
# or the embeddings learned too little for the quality metrics to guard.
QUALITY_MARGIN = 0.15


@dataclass
class Plan:
    steps: list[list[str]]
    inputs: list[Path]
    hashed: list[str]
    checks: list = field(default_factory=list)
    roots: dict | None = None
    sizes: dict | None = None
    quality: bool = False
    info: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _tsv_rows(path: Path) -> list[list[str]]:
    return [line.rstrip("\n").split("\t")
            for line in path.read_text(encoding="utf-8").splitlines() if line]


# -- output checks: each returns (ok, detail) ---------------------------------

def check_convert(out: Path, expect: dict):
    report = dict(_tsv_rows(out / "graph.ttls.report.tsv")[:4])
    got = {k: int(report.get(k, -1)) for k in expect}
    return got == expect, f"convert report {got}, expected {expect}"


def check_embedding(out: Path):
    """Every value finite; row count equals the header's ``count=``."""
    with open(out / "vectors.tsv", encoding="utf-8") as fh:
        header = dict(p.split("=", 1) for p in fh.readline().split()[2:])
        rows = 0
        for line in fh:
            _, _, values = line.partition("\t")
            if not all(math.isfinite(float(x)) for x in values.split()):
                return False, f"non-finite value in row {rows + 1}"
            rows += 1
    return rows == int(header["count"]), f"{rows} rows, header {header}"


def check_eval_rows(out: Path):
    rows = {(r[0], r[1]) for r in _tsv_rows(out / "report.tsv")}
    return rows == EVAL_ROWS, f"missing {sorted(EVAL_ROWS - rows)}"


def check_manifest(out: Path):
    manifest = dict(r for r in _tsv_rows(out / "vectors.tsv.manifest")
                    if len(r) == 2)
    excluded = manifest.get("excluded_predicates", "").split(",")
    return gen.RDF_TYPE in excluded, f"excluded_predicates={excluded}"


def quality(out: Path) -> dict[str, float]:
    rows = {(r[0], r[1]): float(r[2]) for r in _tsv_rows(out / "report.tsv")}
    return {"knn_accuracy": rows[("classification", "accuracy")],
            "kmeans_ari": rows[("clustering", "adjusted_rand_index")]}


def check_quality(out: Path, majority: float):
    knn = quality(out)["knn_accuracy"]
    return (knn >= majority + QUALITY_MARGIN,
            f"knn_accuracy {knn:.4f}, majority share {majority:.4f}")


def check_stats(out: Path, expected: str):
    got = (out / "stats.tsv").read_text(encoding="utf-8")
    return got == expected, f"stats table:\n{got}expected:\n{expected}"


def check_sweep(out: Path, grid: int):
    """One classification accuracy per grid cell, each a valid share.

    Not held to QUALITY_MARGIN: at this size the structured models score
    story labels near the majority share, so a margin would not hold.
    """
    rows = _tsv_rows(out / "sweep.tsv")
    accs = [float(r[5]) for r in rows[1:]
            if r[3:5] == ["classification", "accuracy"]]
    return (len(accs) == grid == len(rows) - 1
            and all(0.0 <= a <= 1.0 for a in accs), f"accuracies {accs}")


# -- workloads ---------------------------------------------------------------------

def kgrc_train(seed: int, size: str, work: Path) -> Plan:
    data = gen.scene_graph(seed, **SIZES["kgrc-train"][size])
    scenes = _write(work / "scenes.ttl", data["turtle"])
    gold = work / "gold"
    for name, text in data["gold"].items():
        _write(gold / name, text)
    return Plan(
        steps=[
            ["convert", str(scenes), "{out}/graph.ttls"],
            ["walk", "{out}/graph.ttls", "{out}/walks.tsv", "--strategy", "mid",
             "--walks", "6", "--depth", "8", "--alpha", "0.5", "--beta", "0.5",
             "--exclude-predicate", gen.RDF_TYPE, "--seed", PROGRAM_SEED],
            ["train", "{out}/walks.tsv", "{out}/vectors.tsv", "--dim", "50",
             "--window", "5", "--negatives", "5", "--epochs", "1",
             "--seed", PROGRAM_SEED],
            ["eval", "{out}/vectors.tsv", "--gold-dir", str(gold),
             "--output", "{out}/report.tsv", "--seed", PROGRAM_SEED],
        ],
        inputs=[scenes, *sorted(gold.iterdir())],
        hashed=["graph.ttls", "walks.tsv", "vectors.tsv", "report.tsv"],
        checks=[
            ("convert_report", lambda out: check_convert(out, data["expect"])),
            ("embedding_finite", check_embedding),
            ("eval_rows", check_eval_rows),
            ("manifest_excludes_rdf_type", check_manifest),
            ("knn_beats_majority",
             lambda out: check_quality(out, data["majority_share"])),
        ],
        roots={"graph": "{out}/graph.ttls", "exclude": [gen.RDF_TYPE],
               "corpus": "{out}/walks.tsv", "walks": 6},
        sizes={"graph": "{out}/graph.ttls", "corpora": ["{out}/walks.tsv"],
               "window": 5},
        quality=True,
        info={"majority_share": data["majority_share"]},
    )


def deep_ingest(seed: int, size: str, work: Path) -> Plan:
    data = gen.deep_graph(seed, **SIZES["deep-ingest"][size])
    graph = _write(work / "deep.ttls", data["turtle"])
    walk = ["--walks", "4", "--depth", "8", "--seed", PROGRAM_SEED]
    return Plan(
        steps=[
            ["stats", str(graph), "--output", "{out}/stats.tsv"],
            ["walk", str(graph), "{out}/mid.tsv", "--strategy", "mid", *walk],
            ["walk", str(graph), "{out}/random.tsv", "--strategy", "random",
             *walk],
        ],
        inputs=[graph],
        hashed=["stats.tsv", "mid.tsv", "random.tsv"],
        checks=[("stats_table",
                 lambda out: check_stats(out, data["stats_tsv"]))],
        roots={"graph": str(graph), "exclude": [], "corpus": "{out}/mid.tsv",
               "walks": 4},
        sizes={"graph": str(graph),
               "corpora": ["{out}/mid.tsv", "{out}/random.tsv"]},
        info={"max_qt_depth": data["max_depth"]},
    )


def kgrc_sweep(seed: int, size: str, work: Path) -> Plan:
    data = gen.scene_graph(seed, **SIZES["kgrc-sweep"][size])
    scenes = _write(work / "scenes.ttl", data["turtle"])
    gold = work / "story-gold"
    for name, text in data["story_gold"].items():
        _write(gold / name, text)
    majority = data["story_majority_share"]
    return Plan(
        steps=[
            ["convert", str(scenes), "{out}/graph.ttls"],
            ["sweep", "{out}/graph.ttls", "--gold-dir", str(gold),
             "--output", "{out}/sweep.tsv", "--strategy", "random",
             "--mode", "structured", "--dim", "32", "--walks", "3",
             "--depth", "6", "--epochs", "1", "--grid-alpha", "0.2,0.8",
             "--grid-beta", "0.2,0.8", "--exclude-predicate", gen.RDF_TYPE,
             "--seed", PROGRAM_SEED],
        ],
        inputs=[scenes, *sorted(gold.iterdir())],
        hashed=["graph.ttls", "sweep.tsv"],
        checks=[
            ("convert_report", lambda out: check_convert(out, data["expect"])),
            ("sweep_rows", lambda out: check_sweep(out, 4)),
        ],
        sizes={"graph": "{out}/graph.ttls", "exclude": [gen.RDF_TYPE],
               "walk": {"strategy": "random", "n": 3, "d": 6, "alpha": 0.2,
                        "beta": 0.2, "seed": 0},
               "window": 5},
        info={"story_majority_share": majority},
    )


WORKLOADS = {
    "kgrc-train": kgrc_train,
    "deep-ingest": deep_ingest,
    "kgrc-sweep": kgrc_sweep,
}
