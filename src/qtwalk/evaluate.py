"""Embedding evaluation: classification, clustering, entity relatedness,
and QT similarity against TSV gold-standard files.

Classification uses 3-nearest-neighbour (cosine distance) with stratified
10-fold cross-validation; clustering uses seeded k-means scored under the
optimal cluster-to-label assignment; relatedness uses mean Kendall tau-b
over per-seed rankings; similarity reports Pearson, Spearman, and their
harmonic mean.

The metrics are written in numpy and tested against scipy: importing
``scipy.stats`` or ``scipy.optimize`` here would add ~1 s to the start of
every CLI command.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .skipgram import EmbeddingModel


@dataclass(frozen=True)
class LabeledSet:
    records: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class RelatednessGold:
    records: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class SimilarityGold:
    records: tuple[tuple[str, str, float], ...]


@dataclass
class EvalReport:
    task: str
    metrics: dict[str, float]
    details: dict[str, object] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, str, float]]:
        return [(self.task, name, value)
                for name, value in self.metrics.items()]


# -- gold-standard files -----------------------------------------------------

def _nonempty(path, records: list) -> tuple:
    if not records:
        raise ValueError(f"{path}: no records")
    return tuple(records)


def _lines(path):
    """(line number, line) for each line of ``path`` that is neither blank
    nor a ``#`` comment."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.strip() and not line.startswith("#"):
                yield lineno, line


def load_labeled_tsv(path) -> LabeledSet:
    records: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in _lines(path):
        token, _, label = line.partition("\t")
        if not label or "\t" in label:
            raise ValueError(f"{path}:{lineno}: expected token<TAB>label")
        if token in seen:
            raise ValueError(f"{path}: duplicate token {token!r}")
        seen.add(token)
        records.append((token, label))
    return LabeledSet(_nonempty(path, records))


def load_relatedness(path) -> RelatednessGold:
    """Blocks of a seed line followed by 10 indented candidates in rank
    order."""
    blocks: list[tuple[str, list[str]]] = []
    for lineno, line in _lines(path):
        if line[0] not in " \t":
            blocks.append((line.strip(), []))
        elif not blocks:
            raise ValueError(f"{path}:{lineno}: candidate before any seed")
        else:
            blocks[-1][1].append(line.strip())
    for seed, candidates in blocks:
        if len(candidates) != 10:
            raise ValueError(
                f"{path}: seed {seed!r} has {len(candidates)} candidates, "
                "expected 10"
            )
    return RelatednessGold(_nonempty(
        path, [(seed, tuple(candidates)) for seed, candidates in blocks]))


def load_similarity(path) -> SimilarityGold:
    records: list[tuple[str, str, float]] = []
    for lineno, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 TAB-separated "
                             f"fields, found {len(fields)}")
        qt1, qt2, score = fields
        try:
            value = float(score)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: score {score!r} is not a "
                             "number") from None
        if not np.isfinite(value):
            raise ValueError(f"{path}:{lineno}: score {score!r} is not a "
                             "finite number")
        records.append((qt1, qt2, value))
    return SimilarityGold(_nonempty(path, records))


# -- metrics -----------------------------------------------------------------

def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); 0.0 when either vector is all zeros."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"{u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def kendall_tau_b(x, y) -> float:
    """(concordant − discordant) / √((pairs − x-tied) · (pairs − y-tied)),
    counted over all pairs (O(n²) memory; gold rankings are short); NaN
    when every pair is tied in x or in y."""
    x, y = np.ravel(x), np.ravel(y)
    if len(x) != len(y):
        raise ValueError(f"tau-b needs equal lengths, got {len(x)} and "
                         f"{len(y)}")
    upper = np.triu_indices(len(x), k=1)
    sx = np.sign(np.subtract.outer(x, x)[upper])
    sy = np.sign(np.subtract.outer(y, y)[upper])
    tot = len(sx)
    xtie = int(np.count_nonzero(sx == 0))
    ytie = int(np.count_nonzero(sy == 0))
    if xtie == tot or ytie == tot:
        return float("nan")
    ntie = int(np.count_nonzero((sx == 0) & (sy == 0)))
    dis = int(np.count_nonzero(sx * sy < 0))
    # concordant − discordant, divided in scipy's order so both agree
    # to the last bit
    tau = ((tot - xtie - ytie + ntie - 2 * dis)
           / np.sqrt(tot - xtie) / np.sqrt(tot - ytie))
    return float(np.clip(tau, -1.0, 1.0))


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise ValueError(f"correlation needs equal lengths, got {len(x)} "
                         f"and {len(y)}")
    if len(x) < 2:
        raise ValueError(f"correlation needs at least 2 values, got {len(x)}")
    return x, y


def pearson(x, y) -> float:
    """Centred dot product over the centred norms; NaN, without a warning,
    when either input is constant."""
    x, y = _paired(x, y)
    if (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    xm, ym = x - x.mean(), y - y.mean()
    # scale to a largest value of 1 first: tiny values would square to 0
    xm /= np.abs(xm).max()
    ym /= np.abs(ym).max()
    r = np.dot(xm / np.linalg.norm(xm), ym / np.linalg.norm(ym))
    return float(np.clip(r, -1.0, 1.0))


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x, y = _paired(x, y)
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    return pearson(_average_ranks(x), _average_ranks(y))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def _contingency(labels_a, labels_b) -> np.ndarray:
    """How many items have each pair of labels: a row per label of
    ``labels_a`` and a column per label of ``labels_b``, in first-seen
    order."""
    a_ids = {v: i for i, v in enumerate(dict.fromkeys(labels_a))}
    b_ids = {v: i for i, v in enumerate(dict.fromkeys(labels_b))}
    table = np.zeros((len(a_ids), len(b_ids)), dtype=np.int64)
    for a, b in zip(labels_a, labels_b, strict=True):
        table[a_ids[a], b_ids[b]] += 1
    return table


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Pair-counting ARI over two partitions of the same items."""
    table = _contingency(labels_a, labels_b)

    def _comb2(x):
        return x * (x - 1) // 2

    sum_cells = sum(_comb2(int(v)) for v in table.ravel())
    sum_rows = sum(_comb2(int(v)) for v in table.sum(axis=1))
    sum_cols = sum(_comb2(int(v)) for v in table.sum(axis=0))
    n_pairs = _comb2(len(labels_a))
    expected = sum_rows * sum_cols / n_pairs if n_pairs else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def clustering_accuracy(cluster_ids, labels) -> float:
    """Accuracy under the maximum-weight cluster-to-label assignment."""
    return _max_assignment(_contingency(cluster_ids, labels)) / len(labels)


def _max_assignment(table: np.ndarray) -> int:
    """Largest total of ``table`` over one-to-one row-to-column matchings
    that cover the shorter side: the Hungarian algorithm by shortest
    augmenting paths, O(min² · max), in exact integer arithmetic."""
    table = np.asarray(table, dtype=np.int64)
    cost = -(table if table.shape[0] <= table.shape[1] else table.T)
    n, m = cost.shape
    # Column 0 is a virtual start; owner[j] is the 1-based row matched to
    # column j (0: free); u, v are the row and column potentials.
    u = np.zeros(n + 1, dtype=np.int64)
    v = np.zeros(m + 1, dtype=np.int64)
    owner = np.zeros(m + 1, dtype=np.intp)
    for row in range(1, n + 1):
        owner[0] = row
        j0 = 0
        slack = np.full(m + 1, np.iinfo(np.int64).max, dtype=np.int64)
        way = np.zeros(m + 1, dtype=np.intp)
        used = np.zeros(m + 1, dtype=bool)
        while owner[j0] != 0:
            used[j0] = True
            i0 = owner[j0]
            free = np.flatnonzero(~used)
            reduced = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = reduced < slack[free]
            slack[free[better]] = reduced[better]
            way[free[better]] = j0
            j1 = free[np.argmin(slack[free])]
            delta = slack[j1]
            u[owner[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    matched = np.flatnonzero(owner[1:])
    return int(-cost[owner[matched + 1] - 1, matched].sum())


# -- k-means ------------------------------------------------------------------

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def kmeans(x: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Seeded Lloyd's algorithm with k-means++ init; best of
    ``KMEANS_RESTARTS``, each at most ``KMEANS_MAX_ITER`` iterations."""
    rng = np.random.default_rng(seed)
    best_inertia = np.inf
    best_assign = np.zeros(len(x), dtype=np.int64)
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeanspp(x, k, rng)
        assign = np.full(len(x), -1, dtype=np.int64)
        for _ in range(KMEANS_MAX_ITER):
            dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dists.argmin(axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for c in range(k):
                members = x[assign == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
        inertia = float(
            ((x - centers[assign]) ** 2).sum()
        )
        if inertia < best_inertia:
            best_inertia = inertia
            best_assign = assign
    return best_assign


def _kmeanspp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(len(x))]]
    for _ in range(1, k):
        d2 = np.min(
            [((x - c) ** 2).sum(axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total == 0:
            centers.append(x[rng.integers(len(x))])
            continue
        probs = d2 / total
        centers.append(x[rng.choice(len(x), p=probs)])
    return np.array(centers, dtype=np.float64)


# -- k-NN classification -------------------------------------------------------

def stratified_folds(labels: list[str], k: int, seed: int) -> list[int]:
    """Deterministic fold id per record; stratified round-robin."""
    rng = random.Random(seed)
    fold_of = [0] * len(labels)
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    for label in sorted(by_label):
        idxs = by_label[label]
        rng.shuffle(idxs)
        for j, i in enumerate(idxs):
            fold_of[i] = j % k
    return fold_of


def knn_predict_many(train_x: np.ndarray, train_y: list[str],
                     queries: np.ndarray, k: int = 3) -> list[str]:
    """For each row of ``queries``, the majority vote of its k nearest
    training rows by cosine; ties go to the single nearest neighbour's
    label.  One product of unit rows; a zero vector has cosine 0 with
    everything."""
    sims = _unit_rows(queries) @ _unit_rows(train_x).T
    labels = []
    for nearest in np.argsort(-sims, axis=1, kind="stable")[:, :k]:
        votes: dict[str, int] = {}
        for i in nearest:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
        top = max(votes.values())
        winners = [label for label, count in votes.items() if count == top]
        labels.append(winners[0] if len(winners) == 1
                      else train_y[nearest[0]])
    return labels


def _unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


def _labeled_vectors(emb: EmbeddingModel, gold: LabeledSet, task: str
                     ) -> tuple[list[str], list[str], np.ndarray, list[str]]:
    """The gold tokens the embedding has, their labels, their vectors as
    rows, and the gold tokens it lacks; ``ValueError`` when fewer than
    90% are present."""
    present = [t for t, _ in gold.records if t in emb]
    missing = [t for t, _ in gold.records if t not in emb]
    if len(present) < 0.9 * len(gold.records):
        shown = ", ".join(missing[:3]) + (", ..." if len(missing) > 3 else "")
        raise ValueError(
            f"{task}: only {len(present)}/{len(gold.records)} gold tokens "
            f"are in the embedding; missing {shown}"
        )
    label_of = dict(gold.records)
    return (present, [label_of[t] for t in present],
            np.array([emb[t] for t in present]), missing)


# -- tasks ----------------------------------------------------------------------

# Classification votes among the KNN_K nearest neighbours and is scored by
# FOLDS-fold stratified cross-validation.
FOLDS = 10
KNN_K = 3


def eval_classification(emb: EmbeddingModel, gold: LabeledSet,
                        seed: int = 0) -> EvalReport:
    present, labels, x, missing = _labeled_vectors(emb, gold,
                                                   "classification")
    small = {l: c for l, c in Counter(labels).items() if c < FOLDS}
    if small:
        raise ValueError(f"classes below {FOLDS} members: {small}")

    fold_of = stratified_folds(labels, FOLDS, seed)
    correct = 0
    for fold in range(FOLDS):
        train_idx = [i for i in range(len(present)) if fold_of[i] != fold]
        test_idx = [i for i in range(len(present)) if fold_of[i] == fold]
        predicted = knn_predict_many(
            x[train_idx], [labels[i] for i in train_idx], x[test_idx],
            k=KNN_K)
        correct += sum(p == labels[i] for p, i in zip(predicted, test_idx))
    return EvalReport(
        task="classification",
        metrics={"accuracy": correct / len(present)},
        details={"missing_tokens": missing, "folds": FOLDS, "k": KNN_K},
    )


def eval_clustering(emb: EmbeddingModel, gold: LabeledSet, seed: int = 0
                    ) -> EvalReport:
    _, labels, x, missing = _labeled_vectors(emb, gold, "clustering")
    k = len(set(labels))
    assign = kmeans(x, k, seed=seed)
    return EvalReport(
        task="clustering",
        metrics={
            "accuracy": clustering_accuracy(list(assign), labels),
            "adjusted_rand_index": adjusted_rand_index(list(assign), labels),
        },
        details={"missing_tokens": missing, "k": k},
    )


def eval_relatedness(emb: EmbeddingModel, gold: RelatednessGold
                     ) -> EvalReport:
    taus: list[float] = []
    for seed_token, candidates in gold.records:
        if seed_token not in emb:
            raise ValueError(
                f"relatedness: seed {seed_token} is not in the embedding")
        usable = [c for c in candidates if c in emb]
        if len(usable) < 2:
            raise ValueError(f"relatedness: seed {seed_token} has fewer "
                             "than 2 candidates in the embedding")
        sims = [cosine_similarity(emb[seed_token], emb[c]) for c in usable]
        gold_rank = list(range(len(usable)))
        predicted_rank = np.argsort(np.argsort([-s for s in sims],
                                               kind="stable"), kind="stable")
        taus.append(kendall_tau_b(gold_rank, list(predicted_rank)))
    return EvalReport(
        task="entity_relatedness",
        metrics={"kendall_tau": float(np.mean(taus))},
        details={"seeds": len(gold.records), "variant": "tau-b"},
    )


def eval_qt_similarity(emb: EmbeddingModel, gold: SimilarityGold
                       ) -> EvalReport:
    if len(gold.records) < 2:
        raise ValueError(
            f"qt_similarity needs at least 2 pairs, got {len(gold.records)}")
    predicted: list[float] = []
    expected: list[float] = []
    for qt1, qt2, score in gold.records:
        for token in (qt1, qt2):
            if token not in emb:
                raise ValueError(
                    f"qt_similarity: {token} is not in the embedding")
        predicted.append(cosine_similarity(emb[qt1], emb[qt2]))
        expected.append(score)
    p = pearson(predicted, expected)
    s = spearman(predicted, expected)
    # NaN (a constant input) fails both comparisons, so it is degenerate
    degenerate = not (p > 0.0 and s > 0.0)
    hmean = 0.0 if degenerate else 2.0 * p * s / (p + s)
    return EvalReport(
        task="qt_similarity",
        metrics={"pearson": p, "spearman": s, "harmonic_mean": hmean},
        details={"pairs": len(gold.records), "degenerate": degenerate},
    )
