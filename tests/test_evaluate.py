import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

# scipy is only the reference here: qtwalk.evaluate does not import
# scipy.stats or scipy.optimize, which would add ~1 s to every command
from scipy.optimize import linear_sum_assignment
from scipy.stats import kendalltau, pearsonr, spearmanr

from qtwalk.cli import _tsv
from qtwalk.evaluate import (
    LabeledSet,
    RelatednessGold,
    SimilarityGold,
    adjusted_rand_index,
    clustering_accuracy,
    cosine_similarity,
    eval_classification,
    eval_clustering,
    eval_qt_similarity,
    eval_relatedness,
    kendall_tau_b,
    kmeans,
    knn_predict_many,
    load_labeled_tsv,
    load_relatedness,
    load_similarity,
    pearson,
    spearman,
    stratified_folds,
)
from qtwalk.skipgram import (
    EmbeddingModel,
    Mode,
    TrainConfig,
    build_vocabulary,
    load_embeddings,
    save_embeddings,
    train,
)


def vectors(mapping: dict[str, list[float]]) -> EmbeddingModel:
    """A model holding these input vectors and no output planes, as
    ``load_embeddings`` returns it."""
    tokens = tuple(mapping)
    x = np.array([mapping[t] for t in tokens], dtype=np.float64)
    return EmbeddingModel(
        mode=Mode.CLASSIC,
        tokens=tokens,
        index={t: i for i, t in enumerate(tokens)},
        input_vectors=x,
        output_matrices=np.zeros((0, *x.shape)),
    )


# -- definitional oracles -----------------------------------------------------------

def pearson_def(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(
        sum((b - my) ** 2 for b in y)
    )
    return num / den


def average_ranks(x):
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and x[order[j + 1]] == x[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman_def(x, y):
    return pearson_def(average_ranks(x), average_ranks(y))


def tau_b_def(x, y):
    concordant = discordant = ties_x = ties_y = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - count_tie_pairs(x)) * (n0 - count_tie_pairs(y)))
    return (concordant - discordant) / denom


def count_tie_pairs(x):
    return sum(
        1
        for i in range(len(x))
        for j in range(i + 1, len(x))
        if x[i] == x[j]
    )


def clustering_accuracy_def(cluster_ids, labels):
    clusters = sorted(set(cluster_ids))
    classes = sorted(set(labels))
    best = 0
    # try every injective mapping in either direction
    small, large = (clusters, classes) if len(clusters) <= len(classes) else (
        classes, clusters
    )
    for perm in itertools.permutations(large, len(small)):
        if small is clusters:
            mapping = dict(zip(clusters, perm))
            hits = sum(
                1 for c, l in zip(cluster_ids, labels) if mapping[c] == l
            )
        else:
            mapping = dict(zip(classes, perm))
            hits = sum(
                1 for c, l in zip(cluster_ids, labels) if mapping[l] == c
            )
        best = max(best, hits)
    return best / len(labels)


def test_correlations_match_definitions_on_random_data():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(3, 12)
        # small integer ranges force ties regularly
        x = [rng.randint(0, 5) for _ in range(n)]
        y = [rng.randint(0, 5) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert kendall_tau_b(x, y) == pytest.approx(tau_b_def(x, y), abs=1e-12)
        assert pearson(x, y) == pytest.approx(pearson_def(x, y), abs=1e-12)
        assert spearman(x, y) == pytest.approx(spearman_def(x, y), abs=1e-12)


def test_clustering_accuracy_matches_permutation_search():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(4, 12)
        cluster_ids = [rng.randint(0, 3) for _ in range(n)]
        labels = [rng.choice("abc") for _ in range(n)]
        assert clustering_accuracy(cluster_ids, labels) == pytest.approx(
            clustering_accuracy_def(cluster_ids, labels), abs=1e-12
        )


# -- scipy as the reference -----------------------------------------------------------

# few distinct values, so ties are common, mixed with arbitrary floats
_values = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.25, 1e-3]),
                    st.floats(-1e6, 1e6, allow_nan=False))
_paired_values = st.integers(2, 60).flatmap(lambda n: st.tuples(
    st.lists(_values, min_size=n, max_size=n),
    st.lists(_values, min_size=n, max_size=n)))


@given(_paired_values)
@example(([1, 1, 1], [1, 2, 3]))
@example(([0.5, 2.0], [7, 7]))
@settings(max_examples=200, deadline=None)
def test_correlations_match_scipy(xy):
    x, y = xy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        tau = float(kendalltau(x, y, variant="b").statistic)
        r = float(pearsonr(x, y).statistic)
        rho = float(spearmanr(x, y).statistic)
    got = kendall_tau_b(x, y)
    assert got == tau or (math.isnan(got) and math.isnan(tau))
    for metric, expected in ((pearson, r), (spearman, rho)):
        if math.isnan(expected):
            assert math.isnan(metric(x, y))
        else:
            assert metric(x, y) == pytest.approx(expected, abs=1e-12)


_tables = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: st.lists(st.integers(0, 6), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(
        lambda cells: np.array(cells).reshape(shape)))


@given(_tables)
@settings(max_examples=300, deadline=None)
def test_clustering_accuracy_matches_scipy_assignment(table):
    if table.sum() == 0:
        table[0, 0] = 1
    # one item per unit of each cell: cluster = row, label = column
    cells = [(i, j) for (i, j), count in np.ndenumerate(table)
             for _ in range(count)]
    rows, cols = linear_sum_assignment(-table)
    expected = table[rows, cols].sum() / len(cells)
    assert clustering_accuracy([i for i, _ in cells],
                               [f"l{j}" for _, j in cells]) == expected


@pytest.mark.parametrize("metric", [pearson, spearman, kendall_tau_b])
def test_correlations_reject_unpaired_input(metric):
    with pytest.raises(ValueError, match="equal lengths"):
        metric([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("metric", [pearson, spearman])
def test_correlations_need_two_values(metric):
    with pytest.raises(ValueError, match="at least 2 values, got 1"):
        metric([1.0], [2.0])


def test_spearman_of_a_nan_input_is_nan():
    assert math.isnan(spearman([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman([1.0, 2.0, 3.0], [3.0, 2.0, float("nan")]))


# -- single-metric behaviour ---------------------------------------------------------

def test_cosine_hand_case_and_zero_vector():
    assert cosine_similarity([1, 2, 3], [4, 5, 6]) == pytest.approx(
        32 / math.sqrt(14 * 77)
    )
    assert cosine_similarity([0, 0], [1, 2]) == 0.0
    assert cosine_similarity([1, 1], [1, 1]) == pytest.approx(1.0)
    assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match=r"^\(2,\) vs \(3,\)$"):
        cosine_similarity([1, 2], [1, 2, 3])


def test_tau_identity_reversal_and_swaps():
    assert kendall_tau_b(range(10), range(10)) == pytest.approx(1.0)
    assert kendall_tau_b(range(10), range(9, -1, -1)) == pytest.approx(-1.0)
    # ranking of 10 with three adjacent swaps: 3 discordant pairs out of 45
    y = [0, 2, 1, 3, 5, 4, 6, 8, 7, 9]
    assert kendall_tau_b(range(10), y) == pytest.approx(1 - 2 * 3 / 45)


def test_ari_known_partitions():
    assert adjusted_rand_index([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
    assert adjusted_rand_index([0, 1, 0, 1], [0, 1, 1, 0]) == pytest.approx(
        -0.5
    )
    # single cluster against a 2-class labelling
    assert adjusted_rand_index([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.0
    # two partitions that agree and leave nothing to chance
    assert adjusted_rand_index([0, 0, 0], ["a", "a", "a"]) == 1.0
    assert adjusted_rand_index([0, 1, 2], ["a", "b", "c"]) == 1.0


def test_metrics_invariant_under_positive_scaling():
    rng = random.Random(1)
    x = [rng.random() for _ in range(10)]
    y = [rng.random() for _ in range(10)]
    sx = [10.0 * v + 3.0 for v in x]
    assert pearson(sx, y) == pytest.approx(pearson(x, y), abs=1e-12)
    assert spearman(sx, y) == pytest.approx(spearman(x, y), abs=1e-12)
    assert kendall_tau_b(sx, y) == pytest.approx(kendall_tau_b(x, y), abs=1e-12)
    u, v = [1.0, 2.0, 3.0], [0.5, 0.1, 0.9]
    assert cosine_similarity([7 * a for a in u], v) == pytest.approx(
        cosine_similarity(u, v)
    )


# -- k-means / k-NN ---------------------------------------------------------------

def separable_embedding(per_class=12, dim=6, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    mapping, records = {}, []
    for c, label in enumerate(("red", "green", "blue")):
        center = np.zeros(dim)
        center[2 * c] = 5.0
        for i in range(per_class):
            token = f"{label}{i}"
            mapping[token] = list(center + noise * rng.normal(size=dim))
            records.append((token, label))
    return vectors(mapping), LabeledSet(tuple(records))


def test_kmeans_recovers_separable_clusters():
    emb, gold = separable_embedding()
    x = emb.input_vectors
    assign = kmeans(x, 3, seed=0)
    labels = [label for _, label in gold.records]
    assert clustering_accuracy(list(assign), labels) == 1.0
    assert adjusted_rand_index(list(assign), labels) == pytest.approx(1.0)


def test_kmeans_is_seed_deterministic():
    emb, _ = separable_embedding(seed=3)
    a = kmeans(emb.input_vectors, 3, seed=42)
    b = kmeans(emb.input_vectors, 3, seed=42)
    assert np.array_equal(a, b)


def test_kmeans_identical_points_collapse():
    x = np.ones((9, 4))
    assign = kmeans(x, 3, seed=0)
    labels = ["a"] * 3 + ["b"] * 3 + ["c"] * 3
    assert clustering_accuracy(list(assign), labels) == pytest.approx(1 / 3)


def test_knn_majority_and_tie_break():
    train_x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    train_y = ["a", "a", "b"]
    assert knn_predict_many(train_x, train_y,
                            np.array([[1.0, 0.05]])) == ["a"]
    # one vote each: fall back to the label of the single nearest point
    train_x2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert knn_predict_many(train_x2, ["p", "q"], np.array([[0.9, 0.1]]),
                            k=2) == ["p"]


def knn_predict_loop(train_x, train_y, query, k=3):
    """Reference kNN: one cosine_similarity call per training vector."""
    sims = np.array([cosine_similarity(query, v) for v in train_x])
    nearest = np.argsort(-sims, kind="stable")[:k]
    votes: dict[str, int] = {}
    for i in nearest:
        votes[train_y[i]] = votes.get(train_y[i], 0) + 1
    top = max(votes.values())
    winners = [label for label, count in votes.items() if count == top]
    if len(winners) == 1:
        return winners[0]
    return train_y[nearest[0]]


@pytest.mark.parametrize("seed", range(5))
def test_knn_matrix_product_matches_cosine_loop(seed):
    rng = np.random.default_rng(seed)
    train_x = rng.normal(size=(40, 6))
    # planted ties: exact copies and power-of-two multiples (same cosine
    # under either formula), plus zero vectors, which have cosine 0
    train_x[10:20] = train_x[:10]
    train_x[20:25] = 4.0 * train_x[:5]
    train_x[[25, 33]] = 0.0
    train_y = [str(label) for label in rng.integers(4, size=len(train_x))]
    queries = np.vstack([rng.normal(size=(30, 6)), train_x[:12],
                         0.5 * train_x[20:25], np.zeros((2, 6))])
    for k in (1, 2, 3, 5):
        expected = [knn_predict_loop(train_x, train_y, q, k) for q in queries]
        assert knn_predict_many(train_x, train_y, queries, k) == expected


def test_stratified_folds_are_balanced_and_deterministic():
    labels = ["a"] * 20 + ["b"] * 30
    folds = stratified_folds(labels, 10, seed=4)
    assert folds == stratified_folds(labels, 10, seed=4)
    for fold in range(10):
        members = [i for i, f in enumerate(folds) if f == fold]
        assert sum(1 for i in members if labels[i] == "a") == 2
        assert sum(1 for i in members if labels[i] == "b") == 3


# -- task runners -----------------------------------------------------------------

def test_classification_perfect_on_separable_data():
    emb, gold = separable_embedding()
    report = eval_classification(emb, gold, seed=0)
    assert report.task == "classification"
    assert report.metrics["accuracy"] == 1.0


def test_classification_near_chance_on_identical_vectors():
    mapping = {f"t{i}": [1.0, 1.0] for i in range(30)}
    records = tuple((f"t{i}", "abc"[i % 3]) for i in range(30))
    report = eval_classification(vectors(mapping), LabeledSet(records))
    assert 0.15 <= report.metrics["accuracy"] <= 0.55


def test_classification_requires_fold_sized_classes():
    emb, _ = separable_embedding(per_class=5)
    records = tuple((f"red{i}", "red") for i in range(5))
    with pytest.raises(ValueError, match=r"^classes below 10 members: \{'red': 5\}$"):
        eval_classification(emb, LabeledSet(records))


def test_classification_rejects_mostly_missing_gold():
    emb, gold = separable_embedding()
    extra = tuple((f"ghost{i}", "red") for i in range(20))
    with pytest.raises(ValueError, match="^classification: only 36/56 "
                                         "gold tokens are in the embedding"):
        eval_classification(emb, LabeledSet(gold.records + extra))


def test_clustering_report_on_separable_data():
    emb, gold = separable_embedding()
    report = eval_clustering(emb, gold, seed=0)
    assert report.metrics["accuracy"] == 1.0
    assert report.metrics["adjusted_rand_index"] == pytest.approx(1.0)
    assert report.details["k"] == 3


def test_relatedness_perfect_and_reversed():
    mapping = {"seed": [1.0, 0.0]}
    candidates = []
    for i in range(10):
        angle = (i + 1) * (math.pi / 2) / 11
        mapping[f"c{i}"] = [math.cos(angle), math.sin(angle)]
        candidates.append(f"c{i}")
    emb = vectors(mapping)
    perfect = RelatednessGold(((("seed"), tuple(candidates)),))
    assert eval_relatedness(emb, perfect).metrics["kendall_tau"] == (
        pytest.approx(1.0)
    )
    reversed_gold = RelatednessGold((("seed", tuple(reversed(candidates))),))
    assert eval_relatedness(emb, reversed_gold).metrics["kendall_tau"] == (
        pytest.approx(-1.0)
    )


def test_relatedness_missing_seed_raises():
    emb = vectors({"a": [1.0, 0.0]})
    gold = RelatednessGold((("nope", tuple(f"c{i}" for i in range(10))),))
    with pytest.raises(ValueError, match="^relatedness: seed nope is not "
                                         "in the embedding$"):
        eval_relatedness(emb, gold)


def test_qt_similarity_agrees_with_oracles():
    mapping = {
        "q1": [1.0, 0.0], "q2": [0.8, 0.6], "q3": [0.0, 1.0],
        "q4": [-1.0, 0.5], "q5": [0.3, 0.3],
    }
    emb = vectors(mapping)
    pairs = [("q1", "q2", 0.9), ("q1", "q3", 0.1), ("q2", "q3", 0.5),
             ("q4", "q5", 0.2), ("q1", "q5", 0.8)]
    gold = SimilarityGold(tuple(pairs))
    report = eval_qt_similarity(emb, gold)
    predicted = [
        cosine_similarity(mapping[a], mapping[b]) for a, b, _ in pairs
    ]
    expected = [s for _, _, s in pairs]
    assert report.metrics["pearson"] == pytest.approx(
        pearson_def(predicted, expected), abs=1e-12
    )
    assert report.metrics["spearman"] == pytest.approx(
        spearman_def(predicted, expected), abs=1e-12
    )
    p, s = report.metrics["pearson"], report.metrics["spearman"]
    assert report.metrics["harmonic_mean"] == pytest.approx(
        2 * p * s / (p + s)
    )
    assert report.details["degenerate"] is False


def test_qt_similarity_flags_non_positive_correlations():
    emb = vectors({"a": [1.0, 0.0], "b": [0.9, 0.1], "c": [0.0, 1.0]})
    # gold says a~c are most similar: anti-correlated with the vectors
    gold = SimilarityGold((("a", "b", 0.0), ("a", "c", 1.0),
                           ("b", "c", 0.5)))
    report = eval_qt_similarity(emb, gold)
    assert report.details["degenerate"] is True
    assert report.metrics["harmonic_mean"] == 0.0


def test_qt_similarity_constant_predictions_are_degenerate():
    # every pair is a token with itself: all predicted cosines are 1
    emb = vectors({"a": [1.0, 0.0], "b": [0.0, 2.0]})
    gold = SimilarityGold((("a", "a", 0.1), ("b", "b", 0.9),
                           ("a", "a", 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = eval_qt_similarity(emb, gold)
    assert math.isnan(report.metrics["pearson"])
    assert math.isnan(report.metrics["spearman"])
    assert report.metrics["harmonic_mean"] == 0.0
    assert report.details["degenerate"] is True


# -- gold files and report formatting ------------------------------------------------

def test_load_labeled_tsv(tmp_path):
    path = tmp_path / "classification.tsv"
    path.write_text("# comment\n<urn:a>\tPerson\n<urn:b>\tPlace\n",
                    encoding="utf-8")
    gold = load_labeled_tsv(path)
    assert gold.records == (("<urn:a>", "Person"), ("<urn:b>", "Place"))
    path.write_text("<urn:a>\tPerson\n<urn:a>\tPlace\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_labeled_tsv(path)


def test_load_relatedness_enforces_ten_candidates(tmp_path):
    path = tmp_path / "relatedness.tsv"
    block = "<urn:seed>\n" + "".join(f"\t<urn:c{i}>\n" for i in range(10))
    path.write_text(block, encoding="utf-8")
    gold = load_relatedness(path)
    assert gold.records[0][0] == "<urn:seed>"
    assert len(gold.records[0][1]) == 10
    path.write_text("<urn:seed>\n\t<urn:c0>\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_relatedness(path)
    # the first short block is named, though a good block follows it
    short = "<urn:short>\n" + "".join(f"\t<urn:c{i}>\n" for i in range(9))
    path.write_text(short + block, encoding="utf-8")
    with pytest.raises(ValueError) as exc_info:
        load_relatedness(path)
    assert str(exc_info.value) == (
        f"{path}: seed '<urn:short>' has 9 candidates, expected 10")


def test_load_similarity(tmp_path):
    path = tmp_path / "qt_similarity.tsv"
    path.write_text("<< a >>\t<< b >>\t0.75\n", encoding="utf-8")
    gold = load_similarity(path)
    assert gold.records == (("<< a >>", "<< b >>", 0.75),)


def test_reports_tsv_one_line_per_metric():
    emb, gold = separable_embedding()
    reports = [eval_classification(emb, gold), eval_clustering(emb, gold)]
    text = _tsv(row for report in reports for row in report.rows())
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("classification\taccuracy\t")


def test_trained_model_scores_like_its_saved_file(tmp_path):
    # the eval tasks take a trained model as it is, and score it exactly
    # as the embedding file it saves
    rng = random.Random(0)
    rows = [[f"g{r % 3}t{rng.randrange(10)}" for _ in range(8)]
            for r in range(120)]
    model = train(rows, build_vocabulary(rows),
                  TrainConfig(dim=8, window=2, epochs=2, seed=1))
    path = tmp_path / "vectors.tsv"
    save_embeddings(model, path)
    loaded = load_embeddings(path)
    tokens = sorted(model.tokens)
    labeled = LabeledSet(tuple((t, t[:2]) for t in tokens))
    related = RelatednessGold(((tokens[0], tuple(tokens[1:11])),))
    similar = SimilarityGold(tuple(
        (a, b, float(i)) for i, (a, b) in enumerate(zip(tokens, tokens[5:]))))
    for task, gold in ((eval_classification, labeled),
                       (eval_clustering, labeled),
                       (eval_relatedness, related),
                       (eval_qt_similarity, similar)):
        assert task(model, gold) == task(loaded, gold)
