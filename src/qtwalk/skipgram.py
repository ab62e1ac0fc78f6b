"""Skip-gram training over walk corpora.

Supports the classic model (one output matrix) and the structured variant
with one output matrix per relative context position, trained either by
negative sampling (default) or by the exact softmax (small vocabularies
only; kept as a verification path and for gradient checks).

Training is minibatch SGD over all (center, context, position) pairs of
the corpus.  They are numbered, not stored: a table of the kept tokens
(``_pair_table``) holds each token's vocabulary id, the number of its first
pair and how many of its pairs lie to its left, int32 where they fit, and
a coarse index (``_coarse_index``) leads to a pair's token in a few steps
of a bisection.
Per pair SGD holds 4 bytes, the pair's place in the epoch's shuffled order.
Centers, contexts, output planes, noise draws, block rows and learning
rates are computed for a chunk of whole steps at a time (``CHUNK_PAIRS``),
from the one random stream in the same order, so the chunk length does not
change the bytes.  The input vectors and the output planes are views of
one parameter block, so each step gathers the rows it reads once and
applies one summed update, a sparse product (``_sum_rows``) whose selector
is built once per shape within a ``train`` call and holds no step's arrays
between steps.  Both objectives go through one batched gradient,
``_batch_gradient``, which ``mean_objective`` also returns next to a loss
it computes apart from it, so the finite-difference checks cover the
update that training applies.
The batch size is derived from the corpus so that no parameter row collects
too many summed gradient terms in one step (see ``_batch_size``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import sparse


class Mode(Enum):
    CLASSIC = "classic"
    STRUCTURED = "structured"


class SoftmaxMode(Enum):
    NEGATIVE_SAMPLING = "neg"
    FULL_SOFTMAX = "full"


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    counts: tuple[int, ...]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def build_vocabulary(corpus_rows, min_count: int = 1) -> Vocabulary:
    """Count tokens and assign dense indices, most frequent first.

    Ties are broken by ascending token text so the assignment is a pure
    function of the corpus.
    """
    counts = Counter(itertools.chain.from_iterable(corpus_rows))
    kept = sorted(
        ((t, c) for t, c in counts.items() if c >= min_count),
        key=lambda tc: (-tc[1], tc[0]),
    )
    tokens = tuple(t for t, _ in kept)
    return Vocabulary(
        tokens=tokens,
        counts=tuple(c for _, c in kept),
        index={t: i for i, t in enumerate(tokens)},
    )


# The exact softmax scores the whole vocabulary for every pair, so it is
# only offered as a verification path on small vocabularies.
FULL_SOFTMAX_CAP = 2000


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 5
    negatives: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0
    mode: Mode = Mode.CLASSIC
    softmax_mode: SoftmaxMode = SoftmaxMode.NEGATIVE_SAMPLING

    def __post_init__(self):
        for name, value in (("dim", self.dim), ("window", self.window),
                            ("negatives", self.negatives),
                            ("min_count", self.min_count)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("epochs", self.epochs), ("seed", self.seed)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")


@dataclass
class EmbeddingModel:
    """Token-to-vector lookup: a trained model, or one loaded from an
    embedding file, which holds no output planes."""

    mode: Mode
    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)
    input_vectors: np.ndarray          # (|W|, dim)
    output_matrices: np.ndarray        # (P, |W|, dim); P = 1, 2*window or 0

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __getitem__(self, token: str) -> np.ndarray:
        return self.input_vectors[self.index[token]]


def position_slot(relative_position, window: int):
    """Map a relative position in {-c..-1, 1..c} to a matrix slot.

    Accepts one position (returns an int) or an int array of them.
    """
    rel = np.asarray(relative_position)
    if np.any(rel == 0) or np.any(np.abs(rel) > window):
        raise ValueError(f"relative position {relative_position} out of range")
    slot = rel + window - (rel > 0)
    return int(slot) if slot.ndim == 0 else slot


def extract_pairs(walk_tokens, vocab: Vocabulary, window: int
                  ) -> list[tuple[int, int, int]]:
    """(center, context, relative position) index pairs within the window.

    Tokens missing from the vocabulary are dropped before pairing.  This is
    the per-row reference for ``_pair_table``, which training uses.
    """
    ids = [vocab.index[t] for t in walk_tokens if t in vocab.index]
    pairs: list[tuple[int, int, int]] = []
    for i, center in enumerate(ids):
        lo = max(0, i - window)
        hi = min(len(ids), i + window + 1)
        for j in range(lo, hi):
            if j != i:
                pairs.append((center, ids[j], j - i))
    return pairs


def _pair_table(corpus_rows, vocab: Vocabulary, window: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of the corpus, numbered in the order of ``extract_pairs``
    applied row by row, as a table of the kept tokens: (vocabulary ids,
    index of each token's first pair, how many of its pairs lie to its
    left).  The first-pair column has one more entry, the pair count, so
    token t has ``first[t + 1] - first[t]`` pairs.  ``_pairs_at`` reads
    pairs from it.  Columns are int32 where their values fit.

    The work is sized by the rows, not by ``window``: no pair reaches past
    the longest kept row, so a longer window adds nothing.
    """
    lengths = np.fromiter(map(len, corpus_rows), dtype=np.intp,
                          count=len(corpus_rows))
    ids = np.fromiter(map(vocab.index.get,
                          itertools.chain.from_iterable(corpus_rows),
                          itertools.repeat(-1)),
                      dtype=np.int32, count=int(lengths.sum()))
    kept = np.flatnonzero(ids >= 0)
    ids = ids[kept]
    dtype = _index_dtype(len(ids) + 1)
    # each row's start among the kept tokens, then the end of the last
    row_start = np.zeros(len(lengths) + 1, dtype=dtype)
    row_start[1:] = kept.searchsorted(np.cumsum(lengths))
    del kept
    row_len = np.diff(row_start)
    span = min(window, int(row_len.max(initial=0)) - 1)
    # each token's place in its row, and how far it lies from the row's end
    before = np.arange(len(ids), dtype=dtype)
    before -= np.repeat(row_start[:-1], row_len)
    count = np.repeat(row_len - 1, row_len)
    count -= before
    np.minimum(before, span, out=before)
    np.minimum(count, span, out=count)   # to the right
    count += before
    first = np.zeros(len(ids) + 1, dtype=_index_dtype(int(count.sum()) + 1))
    np.cumsum(count, out=first[1:])
    return ids, first, before.astype(_index_dtype(span + 1), copy=False)


def _coarse_index(first: np.ndarray) -> tuple[int, np.ndarray]:
    """(shift, marks): ``marks[k]`` is the token of pair ``k << shift`` as
    ``_pairs_at`` defines it, for k up to the first mark past the last pair
    (``len(first) - 1`` there).  ``1 << shift`` is the largest power of two
    at most 16 times the pairs per token, so there is at most one mark for
    every eight tokens, and a pair's token lies between the marks around
    it, on average at most 16 tokens apart."""
    pairs, tokens = int(first[-1]), len(first) - 1
    shift = max(1, 16 * pairs // max(1, tokens)).bit_length() - 1
    marks = first.searchsorted(np.arange(0, pairs + (1 << shift), 1 << shift),
                               side="right")
    marks -= 1
    return shift, marks.astype(_index_dtype(tokens + 1))


def _pairs_at(table: tuple[np.ndarray, np.ndarray, np.ndarray],
              coarse: tuple[int, np.ndarray], at: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, contexts, relative positions) of the pairs numbered ``at``
    in a ``_pair_table`` whose ``_coarse_index`` is ``coarse``: the pairs
    that ``extract_pairs`` gives, in the order of ``at``."""
    ids, first, before = table
    shift, marks = coarse
    # the last token whose first pair is at or before the pair (tokens
    # without pairs share their successor's first entry), bisected between
    # the marks around the pair
    k = at >> shift
    token, last = marks[k], marks[k + 1]
    for _ in range(int((last - token).max(initial=0)).bit_length()):
        middle = (token + last + 1) >> 1
        up = first[middle] <= at
        token = np.where(up, middle, token)
        last = np.where(up, last, middle - 1)
    # the j-th pair of a token has relative position j - before, plus one
    # from 0 on, as no token pairs with itself
    rel = at - first[token]
    rel -= before[token]
    rel += rel >= 0
    return ids[token], ids[token + rel], rel


def _init_model(vocab: Vocabulary, cfg: TrainConfig) -> EmbeddingModel:
    """A model whose input vectors and output planes are views of one
    parameter block (see ``_batch_gradient``): random inputs, zero outputs.
    """
    rng = np.random.default_rng(cfg.seed)
    n = len(vocab)
    bound = 0.5 / cfg.dim
    planes = 1 if cfg.mode is Mode.CLASSIC else 2 * cfg.window
    block = np.zeros(((1 + planes) * n, cfg.dim))
    block[:n] = rng.uniform(-bound, bound, size=(n, cfg.dim))
    return EmbeddingModel(
        mode=cfg.mode,
        tokens=vocab.tokens,
        index=vocab.index,
        input_vectors=block[:n],
        output_matrices=block[n:].reshape(planes, n, cfg.dim),
    )


def _noise_probabilities(vocab: Vocabulary) -> np.ndarray:
    weights = np.asarray(vocab.counts, dtype=np.float64) ** 0.75
    return weights / weights.sum()


def _noise_cdf(noise: np.ndarray) -> np.ndarray:
    """The noise distribution's CDF, for ``np.searchsorted`` on draws in
    ``[0, 1)``.

    Its last entry is exactly 1.0: a rounded cumsum can end below the
    largest draw, 1 - 2**-53, which would then map to token ``len(noise)``.
    """
    cdf = np.cumsum(noise)
    cdf[-1] = 1.0
    return cdf


# Below its cap, a noise table has at least 32 buckets per token, so at most
# 1/32 of them straddle a token boundary and send their draws to a search.
NOISE_BUCKETS_PER_TOKEN = 32
MAX_NOISE_BUCKETS = 1 << 20


def _noise_table(cdf: np.ndarray) -> np.ndarray:
    """For B equal buckets of [0, 1), the token that
    ``np.searchsorted(cdf, u)`` gives for every draw u in the bucket, or -1
    where the bucket straddles a token boundary, int32 where the tokens fit
    it.  B is the smallest power of two of at least
    ``NOISE_BUCKETS_PER_TOKEN`` buckets per token, at most
    ``MAX_NOISE_BUCKETS``."""
    wanted = NOISE_BUCKETS_PER_TOKEN * len(cdf)
    buckets = min(MAX_NOISE_BUCKETS, 1 << (wanted - 1).bit_length())
    edges = np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
    table = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    return table.astype(_index_dtype(len(cdf)), copy=False)


def _draw_noise(cdf: np.ndarray, table: np.ndarray, u: np.ndarray
                ) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` for draws ``u`` in [0, 1), through the
    ``_noise_table`` of ``cdf``.  The bucket of u is ``floor(u * B)``, and
    u * B is exact because B is a power of two."""
    tokens = table[(u * len(table)).astype(np.intp)]
    straddling = tokens < 0
    if straddling.any():
        tokens[straddling] = np.searchsorted(cdf, u[straddling])
    return tokens


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` of ``x`` clipped to [-30, 30], in place."""
    np.clip(x, -30.0, 30.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


# The pairs of one SGD step are scored at the same parameters, so a row hit
# h times in a step takes h summed gradient terms where per-pair SGD would
# see each term move the row before the next.  COLLISION_BUDGET caps the
# expected h of the most hit row: on KGRC-shaped corpora, embedding quality
# collapsed once that h passed about 300.
COLLISION_BUDGET = 128
MAX_BATCH = 1024
# Steps are prepared (noise draws, block rows, learning rates) a chunk of
# whole steps of about this many pairs at a time.
CHUNK_PAIRS = 4096


def _batch_size(pair_counts: np.ndarray, noise: np.ndarray | None,
                negatives: int) -> int:
    """Pairs per SGD step: ``COLLISION_BUDGET`` over the largest expected
    number of times one output row is hit per pair, within [1, MAX_BATCH].

    ``pair_counts[t]`` is the number of pairs whose center is token t, as
    ``train`` sums it from the pair counts of its ``_pair_table``.  Each
    pair (c, o, r) has its mirror (o, c, -r), so that is also the number
    of pairs whose context is t.  A token's output row is hit by that
    share of the pairs, plus ``negatives`` times its noise probability
    under negative sampling; its centre row by the same share, so it
    needs no term of its own.  Structured mode splits a token's hits over
    2 * window output planes; the bound uses their sum.
    """
    hits = pair_counts / pair_counts.sum()
    if noise is not None:
        hits += negatives * noise
    return int(min(MAX_BATCH, max(1, COLLISION_BUDGET // hits.max())))


def _index_dtype(size: int) -> type:
    """int32 for indices below ``size`` where they fit it, else int64."""
    return np.int32 if size < 2 ** 31 else np.int64


def _row_tables(size: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Scratch tables of ``_sum_rows`` for a block of ``size`` rows: an
    all-False mark table, a slot table, int32 where it fits, as scipy
    would pick, so that it neither scans nor copies the index arrays, and
    an empty cache of selectors, one ``csc_array`` per shape.
    ``_sum_rows`` leaves the mark table all False again and each cached
    selector without arrays, so one set serves every step of a ``train``
    call, and scipy's constructor runs once per shape, not once per step."""
    return (np.zeros(size, dtype=bool),
            np.empty(size, dtype=_index_dtype(size)), {})


def _sum_rows(rows: np.ndarray, indptr: np.ndarray, weights: np.ndarray,
              x: np.ndarray, tables: tuple[np.ndarray, np.ndarray, dict]
              ) -> tuple[np.ndarray, np.ndarray]:
    """(unique rows, sums): the sum for row r is the sum of
    ``weights[j] * x[c]`` over all j with ``rows[j] == r``, added in the
    order of j, where term j lies in column c, ``indptr[c] <= j <
    indptr[c + 1]`` (``len(indptr) == len(x) + 1``).  ``rows`` index a
    block whose ``_row_tables`` are ``tables``.

    One sparse (unique rows x len(x)) product in column order, which adds
    each row's terms in stored order, so it sorts nothing; deterministic,
    and cheaper than ``np.add.at`` on the repeated rows.  The selector of
    that shape is taken from the tables' cache; the step's arrays are
    assigned to its public attributes for the product and dropped after
    it, so the cache holds no step's arrays once this returns.
    """
    mark, slot, selectors = tables
    mark[rows] = True
    unique = np.flatnonzero(mark)                   # ascending
    mark[unique] = False
    slot[unique] = np.arange(len(unique), dtype=slot.dtype)
    shape = (len(unique), len(x))
    selector = selectors.get(shape)
    if selector is None:
        selector = selectors[shape] = sparse.csc_array(shape)
    # scipy's constructor would upcast both index arrays to one dtype, and
    # sparsetools reads them as one
    dtype = np.promote_types(slot.dtype, indptr.dtype)
    selector.data = weights
    selector.indices = slot[rows].astype(dtype, copy=False)
    selector.indptr = indptr.astype(dtype, copy=False)
    sums = selector @ x
    del selector.data, selector.indices, selector.indptr
    return unique, sums


def _pair_rows(tokens: int, centers: np.ndarray, contexts: np.ndarray,
               slots: np.ndarray, negatives: np.ndarray) -> np.ndarray:
    """The (B, 2 + k) parameter-block rows of a batch of pairs: the center,
    then in the pair's output plane the context and the k noise tokens
    ``negatives`` (k = 0 under the exact softmax).  The rows are intp even
    for int32 pairs, so ``(1 + planes) * tokens`` cannot wrap."""
    plane = tokens * (1 + slots.astype(np.intp))
    return np.column_stack((centers, plane + contexts,
                            plane[:, None] + negatives))


def _scatter_layout(pairs: int, width: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The part of ``_batch_gradient``'s scatter that depends only on the
    shape of a step of up to ``pairs`` pairs with ``width`` block rows
    each: the ``_sum_rows`` indptr over the interleaved ``[d_v; v]`` and
    the (pairs, 1) weights of the center terms, all 1.  A step of b pairs
    takes the first 2b + 1 and b entries.

    The raveled (pairs, width) table puts pair i's center term in column
    2i and its width - 1 output terms in column 2i + 1.  At width 2, the
    exact softmax's table, the indptr is 0, 1, 2, ...: one term a column.
    """
    column = np.arange(2 * pairs + 1, dtype=_index_dtype(pairs * width + 1))
    return column // 2 * width + column % 2, np.ones((pairs, 1))


def _batch_gradient(block: np.ndarray, tokens: int, rows: np.ndarray,
                    weights: np.ndarray,
                    tables: tuple[np.ndarray, np.ndarray, dict],
                    layout: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of sum_i weights[i] * loss_i over a batch of pairs,
    every pair evaluated at the same parameters.

    ``block`` holds the ``tokens`` input vectors, then output plane s in
    rows ``tokens * (1 + s)`` onwards; ``rows`` is the batch's
    ``_pair_rows`` table.  loss_i is the negative-sampling loss of pair i
    against its noise tokens when the table has them, else the exact
    softmax negative log likelihood over the whole output plane.
    ``tables`` are the block's ``_row_tables`` and ``layout`` a
    ``_scatter_layout`` of the table's width for at least ``len(rows)``
    pairs.  Returns ``(rows, sums)`` with unique block rows.
    """
    b = len(rows)
    indptr, ones = layout
    if rows.shape[1] > 2:
        x = np.take(block, rows, axis=0)                       # (B, 2+k, d)
        v, u = x[:, 0], x[:, 1:]
        delta = _sigmoid(np.einsum("bd,bkd->bk", v, u))  # d loss_i / d score
        delta[:, 0] -= 1.0
        delta *= weights[:, None]
        d_v = np.einsum("bk,bkd->bd", delta, u)
        # center i takes d_v[i], row 2i of the interleaved [d_v; v], and
        # output row rows[i, j] takes delta * v[i], row 2i + 1
        interleaved = np.concatenate((d_v, v), axis=1).reshape(2 * b, -1)
        terms = np.concatenate((ones[:b], delta), axis=1)
        # the gathered rows are not needed again: the sums and the update
        # reuse their memory
        del x, v, u, d_v
        return _sum_rows(rows.ravel(), indptr[:2 * b + 1], terms.ravel(),
                         interleaved, tables)
    v = block[rows[:, 0]]
    slots, contexts = np.divmod(rows[:, 1], tokens)
    slots -= 1
    d_v = np.empty_like(v)
    out_rows, out_sums = [], []
    for slot in np.unique(slots):
        at = np.flatnonzero(slots == slot)
        plane = tokens * (1 + slot)
        matrix = block[plane:plane + tokens]
        scores = v[at] @ matrix.T                              # (b, |W|)
        scores -= scores.max(axis=1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=1)[:, None]
        p[np.arange(len(at)), contexts[at]] -= 1.0     # d loss_i / d score
        p *= weights[at, None]
        d_v[at] = p @ matrix
        out_rows.append(plane + np.arange(tokens))
        out_sums.append(p.T @ v[at])
    in_rows, in_sums = _sum_rows(rows[:, 0], indptr[:b + 1], ones[:b, 0],
                                 d_v, tables)
    return (np.concatenate([in_rows, *out_rows]),
            np.concatenate([in_sums, *out_sums]))


def train(corpus_rows, vocab: Vocabulary, cfg: TrainConfig) -> EmbeddingModel:
    """Minibatch SGD over all context pairs of the corpus.

    Each epoch visits the pairs in one random permutation, in steps of a
    batch size derived from the corpus (see ``_batch_size``); the pairs of a
    step see the same parameters, and their gradients are summed.  The
    learning rate decays linearly per pair over all epochs.  Single-threaded
    and bit-reproducible for a fixed seed.

    ``corpus_rows`` is read once, to build the pair table, and is neither
    changed nor held after that: rows that the caller handed over (kept no
    reference to) are freed before the first step.

    Raises ``ValueError`` if any trained vector is not finite.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    if cfg.softmax_mode is SoftmaxMode.FULL_SOFTMAX and len(vocab) > FULL_SOFTMAX_CAP:
        raise ValueError(
            f"full softmax limited to {FULL_SOFTMAX_CAP} tokens, "
            f"vocabulary has {len(vocab)}"
        )
    table = _pair_table(corpus_rows, vocab, cfg.window)
    del corpus_rows             # SGD reads the table alone
    ids, first, _ = table
    n_pairs = int(first[-1])
    model = _init_model(vocab, cfg)
    if n_pairs == 0 or cfg.epochs == 0:
        return model
    coarse = _coarse_index(first)

    rng = np.random.default_rng(cfg.seed + 1)
    noise = None
    cdf, k = np.ones(1), 0     # the exact softmax draws no noise tokens
    if cfg.softmax_mode is SoftmaxMode.NEGATIVE_SAMPLING:
        noise = _noise_probabilities(vocab)
        cdf, k = _noise_cdf(noise), cfg.negatives
    noise_table = _noise_table(cdf)
    batch = _batch_size(
        np.bincount(ids, weights=np.diff(first), minlength=len(vocab)),
        noise, cfg.negatives)
    chunk = batch * max(1, CHUNK_PAIRS // batch)
    total_updates = cfg.epochs * n_pairs
    block = model.input_vectors.base   # the block both views share
    tables = _row_tables(len(block))
    layout = _scatter_layout(batch, 2 + k)
    # Divergence shows as inf/nan in the vectors, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.arange(n_pairs, dtype=_index_dtype(n_pairs))
            rng.shuffle(order)      # the draws of rng.permutation(n_pairs)
            for offset in range(0, n_pairs, chunk):
                # A chunk of whole steps, prepared at once: its noise draws
                # are the steps' draws in turn, as the stream fills in order.
                at = order[offset:offset + chunk]
                centers, contexts, rel = _pairs_at(table, coarse, at)
                slots = (np.zeros_like(rel) if cfg.mode is Mode.CLASSIC
                         else position_slot(rel, cfg.window))
                rows = _pair_rows(
                    len(vocab), centers, contexts, slots,
                    _draw_noise(cdf, noise_table, rng.random((len(at), k))))
                # lr * max(1e-4, 1 - update / total_updates), in place
                update = epoch * n_pairs + offset
                rates = np.arange(update, update + len(at), dtype=np.float64)
                rates /= total_updates
                np.subtract(1.0, rates, out=rates)
                np.maximum(rates, 1e-4, out=rates)
                rates *= cfg.learning_rate
                for start in range(0, len(at), batch):
                    step = slice(start, start + batch)
                    touched, grad = _batch_gradient(
                        block, len(vocab), rows[step], rates[step], tables,
                        layout)
                    block[touched] -= grad
                    del touched, grad   # before the next step gathers
            del order               # before the next epoch allocates its own
    if not np.isfinite(block).all():
        raise ValueError("training diverged to non-finite vectors; "
                         "lower the learning rate")
    return model


def mean_objective(inputs: np.ndarray, outputs: np.ndarray, pairs,
                   window: int, structured: bool, negatives=None):
    """(mean loss, input gradient, output gradient) over ``pairs``: the
    exact softmax loss if ``negatives`` is None, else the negative-sampling
    loss with pair i scored against the noise tokens ``negatives[i]``.  The
    gradients come from the batch gradient that training applies; the loss
    is computed here from the parameters, apart from it, so that the
    finite-difference checks test the one against the other."""
    centers, contexts, rel = np.array(pairs, dtype=np.int64).T
    slots = position_slot(rel, window) if structured else np.zeros_like(rel)
    v = inputs[centers]
    if negatives is None:
        scores = np.einsum("bd,bwd->bw", v, outputs[slots])    # (B, |W|)
        top = scores.max(axis=1)
        losses = (top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
                  - scores[np.arange(len(centers)), contexts])
        negatives = np.empty((len(centers), 0), dtype=np.int64)
    else:
        negatives = np.asarray(negatives, dtype=np.int64)
        u = outputs[slots[:, None], np.column_stack((contexts, negatives))]
        scores = np.einsum("bd,bkd->bk", v, u)
        losses = (np.logaddexp(0.0, -scores[:, 0])
                  + np.logaddexp(0.0, scores[:, 1:]).sum(axis=1))
    n, dim = inputs.shape
    block = np.concatenate((inputs, outputs.reshape(-1, dim)))
    table = _pair_rows(n, centers, contexts, slots, negatives)
    rows, sums = _batch_gradient(
        block, n, table, np.full(len(centers), 1.0 / len(centers)),
        _row_tables(len(block)), _scatter_layout(*table.shape),
    )
    grad = np.zeros_like(block)
    grad[rows] = sums
    return (float(losses.mean()), grad[:n],
            grad[n:].reshape(outputs.shape))


EMB_MAGIC = "#qtwalk-emb v1"


def save_embeddings(model: EmbeddingModel, path) -> None:
    """Write token input vectors; floats in shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"{EMB_MAGIC} count={len(model.tokens)} dim={model.dim} "
            f"mode={model.mode.value}\n"
        )
        for i, token in enumerate(model.tokens):
            row = " ".join(repr(float(x)) for x in model.input_vectors[i])
            fh.write(f"{token}\t{row}\n")


def save_output_matrices(model: EmbeddingModel, path) -> None:
    """Write the output planes as ``output_matrices`` in an ``.npz``."""
    # through a handle: given a name, numpy would append ".npz" to it
    with open(path, "wb") as fh:
        np.savez_compressed(fh, output_matrices=model.output_matrices)


def _parse_header(path, header: str) -> tuple[int, int, Mode]:
    """(count, dim, mode) from an embedding file's first line."""
    if not header.startswith(EMB_MAGIC):
        raise ValueError(f"{path}: not an embedding file")
    fields = {}
    for part in header[len(EMB_MAGIC):].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"{path}: header part {part!r} is not key=value")
        fields[key] = value
    try:
        count, dim = int(fields["count"]), int(fields["dim"])
        mode = Mode(fields["mode"])
    except KeyError as exc:
        raise ValueError(f"{path}: header lacks {exc.args[0]}=") from None
    except ValueError as exc:
        raise ValueError(f"{path}: bad header: {exc}") from None
    if count < 0 or dim < 1:
        raise ValueError(f"{path}:1: header needs count >= 0 and dim >= 1, "
                         f"got count={count} dim={dim}")
    return count, dim, mode


def load_embeddings(path) -> EmbeddingModel:
    """The model an embedding file holds, without output planes.

    Each row is parsed straight into a float64 array (numpy reads each
    value as ``float`` does), and the rows are stacked once all are read,
    so no Python float outlives its row and the header's ``count`` sizes
    nothing before the rows are seen."""
    with open(path, "r", encoding="utf-8") as fh:
        count, dim, mode = _parse_header(path, fh.readline().rstrip("\n"))
        index: dict[str, int] = {}
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            token, _, values = line.rstrip("\n").partition("\t")
            try:
                row = np.array(values.split(" "), dtype=np.float64)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: token {token!r}: {exc}") from None
            if not np.isfinite(row).all():
                raise ValueError(
                    f"{path}:{lineno}: token {token!r}: non-finite value")
            if len(row) != dim:
                raise ValueError(
                    f"{path}: token {token!r} has {len(row)} values, "
                    f"expected {dim}"
                )
            if token in index:
                raise ValueError(f"{path}: duplicate token {token!r}")
            index[token] = len(rows)
            rows.append(row)
    if len(rows) != count:
        raise ValueError(
            f"{path}: header declares {count} tokens, found {len(rows)}"
        )
    vectors = np.stack(rows) if rows else np.zeros((0, dim))
    return EmbeddingModel(
        mode=mode,
        tokens=tuple(index),
        index=index,
        input_vectors=vectors,
        output_matrices=np.zeros((0, len(rows), dim)),
    )
