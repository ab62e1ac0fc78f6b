"""The paper's own claim, gated offline: QT-biased walks (alpha = beta =
0.5) embed entities so that cosine ranks them closer to the gold
relatedness than plain walks (alpha = beta = 0) do, for both walkers.

Acceptance criterion 3 checks this on KGRC-star, which is not available
offline.  Here the input is the benchmark's KGRC-shaped scene generator
(``perfbench/gen.py``, imported read-only) at smoke size, converted and
with the ``rdf:type`` triples dropped, walked and trained in process
(n=6 d=8, dim 50, window 5, 5 epochs, seed 0).

The margins were sized before the gate judged anything.  On seeds 1-5
the biased mid walks gave Kendall tau 0.278, 0.358, 0.267, 0.219, 0.228
and the plain ones -0.319, -0.183, -0.292, -0.264, -0.197 (mean gap
0.51).  The biased random walks gave 0.061, 0.400, 0.364, 0.147, 0.267
and the plain ones -0.211, -0.100, -0.231, -0.344, -0.072 (mean gap
0.44; the ten random-walk models train in ~2.9 s).  The QT-similarity
harmonic mean is printed, not gated: plain walks of either walker read 0.0
(degenerate) on 4 of the 5 seeds, and the biased values spread widely.

The QT-classification claim (acceptance criterion 4 on KGRC-star) is gated
here too, in structured mode, which criterion 4 runs: the scene QTs' story
labels (``story_gold``) are told apart by 3-NN far better after QT-biased
walks.  The generator runs at 3 stories of 20 scenes, with mid walks n=5
d=8, dim 32, window 5, 15 epochs, seed 0.  Sized on seeds 1-12 before the
gate judged anything, kNN accuracy after biased walks was 0.571, 0.830,
0.807, 0.625, 0.696, 0.526, 0.589, 0.661, 0.618, 0.632, 0.667, 0.614 and
after plain walks 0.250, 0.434, 0.596, 0.339, 0.393, 0.368, 0.411, 0.321,
0.473, 0.439, 0.456, 0.439 (majority share 0.333-0.358; gaps 0.145 to
0.396, mean 0.243).  The gate runs seeds 1-3, in ~8 s.  Fewer walks or
epochs shrank the gap: with n=10 and 5 epochs, seed 7 read -0.018.

The sweep's shape (acceptance criterion 5 on KGRC-star) is gated on the
same scenes with 4 places per story, so each entity class (person,
object, place) has at least 10 members, and the same walks and training
(mid walks n=5, structured, dim 32, window 5, 15 epochs, seed 0).  On
entity-class 3-NN accuracy, (alpha = beta = 0.2, depth 8) beats
(1.0, 1.0, 8), and (0.5, 0.5, 4) scores at least as well as
(0.5, 0.5, 16).  Sized on seeds 1-12 before the gate judged anything
(majority share 0.385 on every seed):

    seed   0.2,8  1.0,8  gap    0.5,4  0.5,16 gap
    1      1.000  0.769  0.231  1.000  0.821  0.179
    2      1.000  0.795  0.205  1.000  0.795  0.205
    3      1.000  0.795  0.205  1.000  0.846  0.154
    4      0.974  0.949  0.025  1.000  0.795  0.205
    5      0.974  0.795  0.179  1.000  0.872  0.128
    6      0.923  0.692  0.231  1.000  0.795  0.205
    7      0.923  0.718  0.205  1.000  0.821  0.179
    8      1.000  0.769  0.231  1.000  0.795  0.205
    9      1.000  0.821  0.179  1.000  0.821  0.179
    10     1.000  0.692  0.308  1.000  0.872  0.128
    11     1.000  0.872  0.128  1.000  0.923  0.077
    12     1.000  0.667  0.333  1.000  0.769  0.231

The gaps' means are 0.205 and 0.173.  The gate runs seeds 1-2 (the four
models of a seed train in ~3.5 s), each gap at least 0.02 on every seed
and 0.1 in the mean.  On the scene QTs' story labels the order flips, on
every sized seed: (1.0, 1.0, 8) read 0.818-0.930 against 0.333-0.607 for
(0.2, 0.2, 8), and depth 16 read at least depth 4 (0.600-0.860 against
0.321-0.600; equal on seed 1).  More QT steps and longer walks serve the
QT task, as the paper argues; the gate prints these values and asserts
none of them.
"""

import sys
from pathlib import Path

from qtwalk.cli import run_pipeline
from qtwalk.convert import convert_document
from qtwalk.evaluate import (
    eval_classification,
    eval_qt_similarity,
    eval_relatedness,
    load_labeled_tsv,
    load_relatedness,
    load_similarity,
)
from qtwalk.graph import build_graph
from qtwalk.parser import parse_document
from qtwalk.skipgram import Mode, TrainConfig
from qtwalk.terms import RDF_TYPE
from qtwalk.walks import Strategy, WalkParams

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

SIZES = dict(stories=4, scenes=8, persons=4, objects=5, places=3,
             planted_duplicates=1)
SEEDS = range(1, 6)
BIASED, PLAIN = 0.5, 0.0
STORY_SIZES = dict(stories=3, scenes=20, persons=4, objects=5, places=3,
                   planted_duplicates=1)
STORY_SEEDS = range(1, 4)
ENTITY_SIZES = dict(STORY_SIZES, places=4)
SHAPE_SEEDS = range(1, 3)


def untyped_graph(data):
    """The generated scenes, converted, with the ``rdf:type`` triples
    dropped."""
    converted, _ = convert_document(parse_document(data["turtle"]))
    return build_graph([t for t in converted
                        if t.predicate.value != RDF_TYPE])


def embed(graph, strategy: Strategy, bias: float):
    params = WalkParams(strategy=strategy, n=6, d=8, alpha=bias, beta=bias,
                        seed=0)
    return run_pipeline(graph, params,
                        TrainConfig(dim=50, window=5, epochs=5, seed=0))


def assert_biased_beats_plain(tmp_path, strategy: Strategy):
    gaps = []
    for seed in SEEDS:
        data = gen.scene_graph(seed, **SIZES)
        graph = untyped_graph(data)
        for name in ("relatedness.tsv", "qt_similarity.tsv"):
            (tmp_path / name).write_text(data["gold"][name], encoding="utf-8")
        related = load_relatedness(tmp_path / "relatedness.tsv")
        similar = load_similarity(tmp_path / "qt_similarity.tsv")
        tau = {}
        for bias in (BIASED, PLAIN):
            model = embed(graph, strategy, bias)
            tau[bias] = eval_relatedness(model, related).metrics["kendall_tau"]
            hmean = eval_qt_similarity(model, similar).metrics["harmonic_mean"]
            print(f"seed {seed} alpha=beta={bias}: relatedness tau "
                  f"{tau[bias]:.3f}, qt-similarity harmonic mean {hmean:.3f}")
        gaps.append(tau[BIASED] - tau[PLAIN])
    assert sum(gap > 0 for gap in gaps) >= 4, gaps
    assert sum(gaps) / len(gaps) >= 0.2, gaps


def test_qt_biased_walks_beat_plain_walks_on_relatedness(tmp_path):
    assert_biased_beats_plain(tmp_path, Strategy.MID_WALK)


def test_qt_biased_random_walks_beat_plain_walks_on_relatedness(tmp_path):
    assert_biased_beats_plain(tmp_path, Strategy.RANDOM_WALK)


def test_qt_biased_walks_classify_scene_qts_by_story(tmp_path):
    gaps = []
    for seed in STORY_SEEDS:
        data = gen.scene_graph(seed, **STORY_SIZES)
        graph = untyped_graph(data)
        path = tmp_path / "classification.tsv"
        path.write_text(data["story_gold"]["classification.tsv"],
                        encoding="utf-8")
        gold = load_labeled_tsv(path)
        accuracy = {}
        for bias in (BIASED, PLAIN):
            params = WalkParams(n=5, d=8, alpha=bias, beta=bias, seed=0)
            model = run_pipeline(graph, params, TrainConfig(
                dim=32, window=5, epochs=15, seed=0, mode=Mode.STRUCTURED))
            accuracy[bias] = eval_classification(model, gold).metrics[
                "accuracy"]
            print(f"seed {seed} alpha=beta={bias}: story kNN accuracy "
                  f"{accuracy[bias]:.3f} (majority share "
                  f"{data['story_majority_share']:.3f})")
        gaps.append(accuracy[BIASED] - accuracy[PLAIN])
    assert min(gaps) >= 0.1, gaps
    assert sum(gaps) / len(gaps) >= 0.2, gaps


def test_sweep_shape_holds_on_entity_classes(tmp_path):
    # (alpha = beta, depth) cells of acceptance criterion 5
    cells = [(0.2, 8), (1.0, 8), (0.5, 4), (0.5, 16)]
    bias_gaps, depth_gaps = [], []
    for seed in SHAPE_SEEDS:
        data = gen.scene_graph(seed, **ENTITY_SIZES)
        graph = untyped_graph(data)
        golds = {}
        for name, files in (("entity", data["gold"]),
                            ("story", data["story_gold"])):
            path = tmp_path / f"{name}.tsv"
            path.write_text(files["classification.tsv"], encoding="utf-8")
            golds[name] = load_labeled_tsv(path)
        accuracy = {}
        for bias, depth in cells:
            params = WalkParams(n=5, d=depth, alpha=bias, beta=bias, seed=0)
            model = run_pipeline(graph, params, TrainConfig(
                dim=32, window=5, epochs=15, seed=0, mode=Mode.STRUCTURED))
            entity, story = (
                eval_classification(model, golds[name]).metrics["accuracy"]
                for name in ("entity", "story"))
            accuracy[bias, depth] = entity
            print(f"seed {seed} alpha=beta={bias} depth {depth}: entity "
                  f"kNN accuracy {entity:.3f}, story {story:.3f}")
        bias_gaps.append(accuracy[0.2, 8] - accuracy[1.0, 8])
        depth_gaps.append(accuracy[0.5, 4] - accuracy[0.5, 16])
    for gaps in (bias_gaps, depth_gaps):
        assert min(gaps) >= 0.02, (bias_gaps, depth_gaps)
        assert sum(gaps) / len(gaps) >= 0.1, (bias_gaps, depth_gaps)
