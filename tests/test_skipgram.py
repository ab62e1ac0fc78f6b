import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from qtwalk import skipgram
from qtwalk.skipgram import (
    CHUNK_PAIRS,
    FULL_SOFTMAX_CAP,
    MAX_BATCH,
    Mode,
    SoftmaxMode,
    TrainConfig,
    Vocabulary,
    _batch_gradient,
    _batch_size,
    _coarse_index,
    _draw_noise,
    _init_model,
    _noise_cdf,
    _noise_probabilities,
    _noise_table,
    _pair_table,
    _pairs_at,
    _row_tables,
    _scatter_layout,
    _sum_rows,
    build_vocabulary,
    extract_pairs,
    load_embeddings,
    mean_objective,
    position_slot,
    save_embeddings,
    save_output_matrices,
    train,
)


def cfg(**kw) -> TrainConfig:
    base = dict(dim=16, window=2, epochs=5, negatives=3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def pair_counts(table, vocab) -> np.ndarray:
    """Pairs per vocabulary token as center, summed over the kept tokens of
    a ``_pair_table``, as ``train`` hands them to ``_batch_size``."""
    ids, first, _ = table
    return np.bincount(ids, weights=np.diff(first), minlength=len(vocab))


def softmax_probability(model, center: str, context: str,
                        relative_position: int = 1) -> float:
    """Exact softmax probability of ``context`` given ``center``; in
    structured mode it depends on the relative position."""
    slot = (0 if model.mode is Mode.CLASSIC
            else position_slot(relative_position,
                               model.output_matrices.shape[0] // 2))
    matrix = model.output_matrices[slot]
    scores = matrix @ model[center]
    scores -= scores.max()
    p = np.exp(scores)
    return float(p[model.index[context]] / p.sum())


# -- vocabulary -----------------------------------------------------------------

def test_vocabulary_frequency_then_text_order():
    rows = [["b", "a", "b"], ["c", "a", "b"]]
    v = build_vocabulary(rows)
    assert v.tokens == ("b", "a", "c")
    assert v.counts == (3, 2, 1)
    assert v.index == {"b": 0, "a": 1, "c": 2}
    assert "b" in v and "z" not in v


def test_vocabulary_min_count_filters():
    rows = [["a", "a", "b"]]
    v = build_vocabulary(rows, min_count=2)
    assert v.tokens == ("a",)


# -- pair extraction -------------------------------------------------------------

def test_pair_extraction_small_window():
    v = build_vocabulary([["a", "b", "c"]])
    pairs = extract_pairs(["a", "b", "c"], v, window=1)
    a, b, c = v.index["a"], v.index["b"], v.index["c"]
    assert sorted(pairs) == sorted([
        (a, b, 1), (b, a, -1), (b, c, 1), (c, b, -1),
    ])


def test_pair_count_matches_closed_form():
    tokens = [f"t{i}" for i in range(8)]
    v = build_vocabulary([tokens])
    window = 5
    pairs = extract_pairs(tokens, v, window)
    expected = sum(
        min(window, i) + min(window, len(tokens) - 1 - i)
        for i in range(len(tokens))
    )
    assert expected == 50
    assert len(pairs) == expected


def test_single_token_walk_has_no_pairs():
    v = build_vocabulary([["a"]])
    assert extract_pairs(["a"], v, window=5) == []


def test_unknown_tokens_are_dropped_before_pairing():
    v = build_vocabulary([["a", "b"]])
    # the unknown middle token must not widen the effective distance
    pairs = extract_pairs(["a", "zzz", "b"], v, window=1)
    assert sorted(pairs) == sorted([
        (v.index["a"], v.index["b"], 1), (v.index["b"], v.index["a"], -1),
    ])


@given(
    rows=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=9),
                  max_size=6),
    min_count=st.integers(1, 3),
    window=st.integers(1, 5),
)
@example(rows=[[], ["a"], ["a", "b", "a"], ["c"]], min_count=2, window=1)
@example(rows=[], min_count=1, window=3)
# a run of rows of one token, which have no pairs, between two rows whose
# pairs share a coarse mark: the first pairs of the third row lie 48
# tokens past the mark, the first token of the first row
@example(rows=[list("abcdefga"), *[["c"]] * 40, list("abcdefg" * 10)],
         min_count=1, window=5)
@settings(max_examples=300, deadline=None)
def test_corpus_pairs_equal_concatenated_extract_pairs(rows, min_count,
                                                       window):
    # min_count > 1 drops tokens, so rows shrink or empty before pairing
    vocab = build_vocabulary(rows, min_count)
    table = _pair_table(rows, vocab, window)
    expected = [p for row in rows for p in extract_pairs(row, vocab, window)]
    n = len(expected)
    assert all(column.dtype == np.int32 for column in table)
    assert table[1][-1] == n

    def pairs(at):
        return list(zip(*(a.tolist() for a in _pairs_at(
            table, _coarse_index(table[1]), at))))

    assert pairs(np.arange(n, dtype=np.int32)) == expected
    # training reads a chunk of a shuffled order at a time; also no pair,
    # and only the last pair (after any tokens that have no pairs)
    shuffled = np.random.default_rng(n).permutation(n).astype(np.int32)
    for at in (shuffled[n // 3:2 * n // 3 + 1], shuffled[:0],
               np.arange(n)[-1:]):
        assert pairs(at) == [expected[i] for i in at.tolist()]
    # _batch_size counts a token's pairs as center for its context share
    contexts = np.array([p[1] for p in expected], dtype=np.intp)
    np.testing.assert_array_equal(pair_counts(table, vocab),
                                  np.bincount(contexts, minlength=len(vocab)))


def test_corpus_pairs_work_is_sized_by_the_rows_not_the_window():
    # No pair reaches past the longest row, so a window of a million finds
    # the pairs of window 2 without allocating anything window-sized.
    rows = [["a", "b", "c"]]
    vocab = build_vocabulary(rows)
    expected = _pair_table(rows, vocab, 2)
    tracemalloc.start()
    try:
        got = _pair_table(rows, vocab, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)
    assert peak < 1 << 20, peak


def test_pair_table_build_holds_few_bytes_per_token():
    # The table is 12 bytes per kept token.  Built from the row starts in
    # int32 with its columns reused in place, its traced peak is 17.4 bytes
    # per token here; built through intp row numbers, positions and
    # gathered row bounds per token, it was 51.0.
    rng = np.random.default_rng(0)
    rows = [[f"t{i}" for i in rng.integers(0, 400, size=12)]
            for _ in range(8000)]
    vocab = build_vocabulary(rows)
    tracemalloc.start()
    try:
        ids = _pair_table(rows, vocab, 5)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == 96_000
    assert peak / len(ids) < 30, peak / len(ids)


def test_position_slots_cover_both_sides():
    window = 3
    slots = [position_slot(r, window) for r in (-3, -2, -1, 1, 2, 3)]
    assert slots == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        position_slot(0, window)
    with pytest.raises(ValueError):
        position_slot(4, window)
    assert position_slot(np.array([-3, -1, 1, 3]), window).tolist() == [
        0, 2, 3, 5]


# -- exact softmax ---------------------------------------------------------------

def test_softmax_uniform_at_zero_outputs():
    v = build_vocabulary([["a", "b", "c", "d"]])
    model = _init_model(v, cfg(dim=4))
    for token in v.tokens:
        assert softmax_probability(model, "a", token) == pytest.approx(0.25)


def test_softmax_normalizes():
    v = build_vocabulary([["a", "b", "c"]])
    model = _init_model(v, cfg(dim=4))
    model.output_matrices[0] = np.arange(12, dtype=float).reshape(3, 4)
    total = sum(softmax_probability(model, "a", t) for t in v.tokens)
    assert abs(total - 1.0) < 1e-9


def test_softmax_hand_computed_two_tokens():
    v = build_vocabulary([["a", "b"]])
    model = _init_model(v, cfg(dim=1))
    model.input_vectors[:] = [[1.0], [1.0]]
    model.output_matrices[0] = np.array([[2.0], [0.0]])
    # scores (2, 0): p(a|a) = e^2 / (e^2 + 1)
    expected = np.exp(2.0) / (np.exp(2.0) + 1.0)
    assert softmax_probability(model, "a", "a") == pytest.approx(expected)
    assert softmax_probability(model, "a", "b") == pytest.approx(1 - expected)


def test_structured_probability_depends_on_position():
    v = build_vocabulary([["a", "b"]])
    model = _init_model(v, cfg(dim=2, window=2, mode=Mode.STRUCTURED))
    assert model.output_matrices.shape == (4, 2, 2)
    model.input_vectors[:] = 0.5
    model.output_matrices[position_slot(1, 2)][0] = [3.0, 3.0]
    p_after = softmax_probability(model, "b", "a", relative_position=1)
    p_before = softmax_probability(model, "b", "a", relative_position=-1)
    assert p_after > 0.9 > p_before


# -- training ---------------------------------------------------------------------

def test_training_learns_a_dominant_context():
    rows = [["a", "b"]] * 200
    v = build_vocabulary(rows)
    model = train(rows, v, cfg(dim=8, window=1, epochs=20,
                               softmax_mode=SoftmaxMode.FULL_SOFTMAX))
    assert softmax_probability(model, "a", "b") > 0.9
    assert softmax_probability(model, "b", "a") > 0.9


@pytest.mark.parametrize("softmax_mode", list(SoftmaxMode))
def test_structured_training_learns_which_side_a_context_is_on(softmax_mode):
    # a always precedes b and c always follows it: trained structured
    # output planes must tell position -1 from +1
    rows = [["a", "b", "c"]] * 200
    model = train(rows, build_vocabulary(rows),
                  cfg(dim=8, window=1, epochs=20, mode=Mode.STRUCTURED,
                      softmax_mode=softmax_mode))

    def p(context, relative_position):
        return softmax_probability(model, "b", context, relative_position)

    assert p("a", -1) > 0.9 > p("a", 1)
    assert p("c", 1) > 0.9 > p("c", -1)


def test_tokens_sharing_contexts_end_up_closer():
    # x and y always occur beside c1, p and q beside c2; tokens with the
    # same context distribution should get the more similar input vectors
    rows = (
        [["x", "c1"], ["y", "c1"]] * 60
        + [["p", "c2"], ["q", "c2"]] * 60
        + [["x", "c2"], ["p", "c1"]]  # weak cross links keep one vocabulary
    )
    v = build_vocabulary(rows)
    model = train(rows, v, cfg(dim=8, window=1, epochs=20, seed=3))

    def cos(s, t):
        u, w = model[s], model[t]
        return float(u @ w / (np.linalg.norm(u) * np.linalg.norm(w)))

    assert cos("x", "y") > cos("x", "p")
    assert cos("p", "q") > cos("p", "x")


def test_zero_epochs_returns_untouched_init():
    rows = [["a", "b", "c"]] * 5
    v = build_vocabulary(rows)
    c = cfg(epochs=0)
    model = train(rows, v, c)
    init = _init_model(v, c)
    assert np.array_equal(model.input_vectors, init.input_vectors)
    assert np.array_equal(model.output_matrices, init.output_matrices)


def test_training_is_reproducible():
    rows = [["a", "b", "c", "d"], ["b", "d", "a"]] * 10
    v = build_vocabulary(rows)
    m1 = train(rows, v, cfg(seed=11))
    m2 = train(rows, v, cfg(seed=11))
    assert np.array_equal(m1.input_vectors, m2.input_vectors)
    assert np.array_equal(m1.output_matrices, m2.output_matrices)
    m3 = train(rows, v, cfg(seed=12))
    assert not np.array_equal(m1.input_vectors, m3.input_vectors)


def test_empty_vocabulary_raises():
    with pytest.raises(ValueError, match="^vocabulary is empty$"):
        train([], build_vocabulary([]), cfg())


def test_full_softmax_limited_by_vocabulary_size(monkeypatch):
    # checked before any pair is built: --epochs 0 must not return vectors
    # for a vocabulary that --epochs 1 rejects
    rows = [[f"t{i}" for i in range(FULL_SOFTMAX_CAP + 1)]]
    v = build_vocabulary(rows)
    calls = []
    monkeypatch.setattr("qtwalk.skipgram._pair_table",
                        lambda *args: calls.append(args))
    messages = []
    for epochs in (0, 1):
        with pytest.raises(ValueError) as exc_info:
            train(rows, v, cfg(epochs=epochs,
                               softmax_mode=SoftmaxMode.FULL_SOFTMAX))
        messages.append(str(exc_info.value))
    assert messages == [f"full softmax limited to {FULL_SOFTMAX_CAP} tokens, "
                        f"vocabulary has {FULL_SOFTMAX_CAP + 1}"] * 2
    assert calls == []


@pytest.mark.parametrize("softmax_mode", list(SoftmaxMode))
@pytest.mark.parametrize("mode", list(Mode))
def test_chunk_length_does_not_change_training(monkeypatch, mode,
                                               softmax_mode):
    # Steps are prepared a chunk at a time; over two epochs, a chunk of one
    # step, of three steps (which do not divide the epoch) and of more than
    # an epoch's pairs must give the default's parameters, byte for byte,
    # from the same steps at the same learning rates.
    rng = np.random.default_rng(4)
    rows = [[f"t{i}" for i in rng.integers(0, 30, size=8)]
            for _ in range(400)]
    v = build_vocabulary(rows)
    c = cfg(dim=8, window=2, epochs=2, mode=mode, softmax_mode=softmax_mode)
    table = _pair_table(rows, v, c.window)
    pairs = int(table[1][-1])
    negative_sampling = softmax_mode is SoftmaxMode.NEGATIVE_SAMPLING
    batch = _batch_size(pair_counts(table, v), _noise_probabilities(v)
                        if negative_sampling else None, c.negatives)
    steps = -(-pairs // batch)
    assert pairs > CHUNK_PAIRS and pairs % batch and steps % 3
    step_sizes = ([batch] * (steps - 1) + [pairs % batch]) * c.epochs
    updates = c.epochs * pairs
    rates = c.learning_rate * np.maximum(
        1e-4, 1.0 - np.arange(updates) / updates)
    seen = []

    def recording(block, tokens, table, weights, *rest):
        seen.append(weights.copy())
        return _batch_gradient(block, tokens, table, weights, *rest)

    monkeypatch.setattr("qtwalk.skipgram._batch_gradient", recording)
    expected = None
    for chunk_pairs in (CHUNK_PAIRS, 1, 3 * batch, pairs + 1):
        monkeypatch.setattr("qtwalk.skipgram.CHUNK_PAIRS", chunk_pairs)
        seen.clear()
        got = train(rows, v, c).input_vectors.base.tobytes()
        expected = expected or got
        assert got == expected, chunk_pairs
        assert [len(w) for w in seen] == step_sizes, chunk_pairs
        assert np.concatenate(seen).tobytes() == rates.tobytes(), chunk_pairs


def test_negative_sampling_agrees_with_full_softmax_rankings():
    # each center token has one dominant context; both training paths must
    # recover the same top-1 context for nearly all centers
    rng = np.random.default_rng(0)
    vocab_tokens = [f"w{i}" for i in range(10)]
    rows = []
    for i in range(0, len(vocab_tokens), 2):
        # disjoint dominant pairs, unambiguous in both directions
        rows += [[vocab_tokens[i], vocab_tokens[i + 1]]] * 40
    rows += [[vocab_tokens[i] for i in rng.permutation(10)] for _ in range(5)]
    v = build_vocabulary(rows)

    m_ns = train(rows, v, cfg(dim=12, window=1, epochs=15, negatives=5,
                              seed=5))
    m_fs = train(rows, v, cfg(dim=12, window=1, epochs=15, seed=5,
                              softmax_mode=SoftmaxMode.FULL_SOFTMAX))

    def top1(model, center):
        scored = [
            (softmax_probability(model, center, t), t)
            for t in v.tokens if t != center
        ]
        return max(scored)[1]

    agree = sum(top1(m_ns, t) == top1(m_fs, t) for t in vocab_tokens)
    assert agree >= 0.9 * len(vocab_tokens)


def test_noise_cdf_maps_every_draw_to_a_token():
    # 7 equal counts: the plain cumsum ends at 0.9999999999999998, below
    # the largest draw rng.random() can return, 1 - 2**-53
    v = build_vocabulary([list("abcdefg")])
    cdf = _noise_cdf(_noise_probabilities(v))
    assert cdf[-1] == 1.0
    assert np.searchsorted(cdf, np.nextafter(1.0, 0.0)) == 6


def counts_vocabulary(counts) -> Vocabulary:
    tokens = tuple(map(str, range(len(counts))))
    return Vocabulary(tokens, tuple(counts),
                      dict(zip(tokens, range(len(tokens)))))


@pytest.mark.parametrize("counts, buckets", [
    pytest.param([3], 32, id="1-token"),
    pytest.param([5] * 7, 256, id="7-equal"),
    pytest.param([10_000 // r for r in range(1, 467)], 2 ** 14,
                 id="zipf-466"),
    pytest.param([1] * (3 * 2 ** 18), 2 ** 20, id="above-cap"),
])
def test_noise_lookup_equals_searchsorted(counts, buckets):
    cdf = _noise_cdf(_noise_probabilities(counts_vocabulary(counts)))
    table = _noise_table(cdf)
    assert len(table) == buckets
    assert table.dtype == np.int32       # half of an int64 table
    straddling = np.mean(table < 0)
    if buckets < 2 ** 20:
        assert straddling <= 1 / 32
    else:
        assert straddling > 0.5    # most draws take the fallback search
    edges = np.arange(buckets) / buckets
    u = np.concatenate((
        edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
        [0.0, 1.0 - 2.0 ** -53],
        np.random.default_rng(len(counts)).random(10_000),
    ))
    expected = np.searchsorted(cdf, u)
    assert np.array_equal(_draw_noise(cdf, table, u), expected)
    # as training draws them: one row of noise tokens per pair
    got = _draw_noise(cdf, table, u[:10_000].reshape(-1, 5))
    assert np.array_equal(got, expected[:10_000].reshape(-1, 5))


def test_batch_size_shrinks_with_negatives_and_hot_tokens():
    # _batch_size takes each token's pair count, its count as a context
    def contexts(hot_share, n=1000, vocab=50):
        hot = int(hot_share * n)
        return np.bincount(np.r_[np.zeros(hot, dtype=np.int64),
                                 np.arange(n - hot) % (vocab - 1) + 1],
                           minlength=vocab)

    noise = np.full(50, 1 / 50)
    sizes = [_batch_size(contexts(0.1), noise, k) for k in (1, 5, 10, 20)]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
    sizes = [_batch_size(contexts(s), noise, 5) for s in (0.05, 0.2, 0.5)]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
    skewed = np.r_[0.99, np.full(49, 0.01 / 49)]
    sizes = [_batch_size(contexts(0.2), noise, 5),
             _batch_size(contexts(0.2), skewed, 5)]
    assert sizes[0] > sizes[1]
    uniform = np.full(50, 100)
    for counts in (contexts(0.0), contexts(1.0), uniform):
        for noise_probs in (None, noise, skewed):
            for k in (1, 5, 500):
                assert 1 <= _batch_size(counts, noise_probs, k) <= MAX_BATCH
    # a uniform corpus without hot rows gets the cap, a single token 1 row
    assert _batch_size(uniform, None, 5) == MAX_BATCH
    assert _batch_size(np.bincount([0] * 10, minlength=50), skewed, 500) == 1


def test_hot_token_corpus_trains_at_derived_batch_size():
    # Every fourth token is one hot token (25%) next to a group's tokens.
    # With 10 negatives a fixed batch of 1024 pairs sums ~1000 gradient
    # terms into the hot token's output row per step; then only 0.17 of
    # the tokens have their nearest neighbour in their own group, below the
    # 5/23 chance share.  The derived batch keeps per-pair SGD's quality.
    rng = np.random.default_rng(0)
    rows = [
        ["hot" if i % 4 == 1 else f"g{r % 4}t{rng.integers(6)}"
         for i in range(12)]
        for r in range(400)
    ]
    v = build_vocabulary(rows)
    assert v.tokens[0] == "hot" and v.counts[0] >= 0.2 * sum(v.counts)
    counts = pair_counts(_pair_table(rows, v, window=2), v)
    assert _batch_size(counts, _noise_probabilities(v), 10) < 128
    model = train(rows, v, cfg(dim=16, window=2, epochs=3, negatives=10))
    tokens = [t for t in v.tokens if t != "hot"]
    x = np.array([model[t] for t in tokens])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    sims = x @ x.T
    np.fill_diagonal(sims, -np.inf)
    same = [tokens[j][:2] == t[:2] for t, j in zip(tokens, sims.argmax(1))]
    assert np.mean(same) >= 0.9


@pytest.mark.parametrize("mode", list(Mode))
def test_training_holds_few_bytes_per_pair(mode):
    # SGD holds 4 bytes per pair, its place in the epoch's order, next to a
    # table of 12 bytes per token (about 7.5 pairs each here) and a coarse
    # index of at most 0.5 (0.47 here); noise draws, block rows and
    # learning rates exist for one chunk of steps at a time.  The corpus is
    # large enough that the fixed cost of a call (chunk tables, noise
    # table, parameter block) is small per pair.  The bound lies between
    # the traced peak per pair of this layout (7.5 classic, 7.8 structured;
    # 7.4 and 7.7 without the coarse index) and that of int32 centers,
    # contexts, slots and order held per pair, 16 bytes (20.3 and 20.6).
    rng = np.random.default_rng(0)
    rows = [[f"t{i}" for i in rng.integers(0, 400, size=12)]
            for _ in range(8000)]
    vocab = build_vocabulary(rows)
    pairs = int(_pair_table(rows, vocab, 5)[1][-1])
    assert pairs >= 700_000
    tracemalloc.start()
    try:
        train(rows, vocab, TrainConfig(dim=8, window=5, epochs=1, mode=mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / pairs < 14, peak / pairs


def test_training_frees_a_steps_gathered_rows_before_its_scatter():
    # A small vocabulary that takes full steps of MAX_BATCH pairs at dim
    # 64: each step gathers (1024, 7, 64) float64 rows, 3.5 MiB, more than
    # the parameter block (1.6 MiB), the per-pair order (0.14 MiB) and a
    # chunk's tables.  Holding the gathered rows and d_v through the scatter,
    # and a step's sums through the next step, the traced peak was 10.30
    # MiB; letting go of the rows once the interleaved rows and terms exist,
    # and of the sums once the update is applied, it is 7.35 MiB.
    rng = np.random.default_rng(0)
    rows = [[f"t{i}" for i in rng.integers(0, 300, size=12)]
            for _ in range(400)]
    vocab = build_vocabulary(rows)
    config = TrainConfig(dim=64, window=5, epochs=1, mode=Mode.STRUCTURED)
    table = _pair_table(rows, vocab, config.window)
    assert _batch_size(pair_counts(table, vocab), _noise_probabilities(vocab),
                       config.negatives) == MAX_BATCH
    tracemalloc.start()
    try:
        train(rows, vocab, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_learning_rate_is_rejected(rate):
    with pytest.raises(ValueError):
        cfg(learning_rate=rate)


@pytest.mark.parametrize("softmax_mode", list(SoftmaxMode))
def test_diverging_training_raises(softmax_mode):
    rows = [["a", "b", "c", "d"], ["b", "d", "a"]] * 10
    v = build_vocabulary(rows)
    with pytest.raises(ValueError, match="non-finite"):
        train(rows, v, cfg(learning_rate=1e200, softmax_mode=softmax_mode))


# -- gradients ---------------------------------------------------------------------

@pytest.mark.parametrize("size", [200, 60_000, 70_000])
def test_sum_rows_adds_each_rows_terms_in_input_order(size):
    rng = np.random.default_rng(size)
    n_terms, dim = 500, 3
    # few distinct rows, so most repeat, up to the last row of the block
    rows = rng.choice([0, 1, size // 2, size - 2, size - 1], size=n_terms)
    # nondecreasing columns, ~12 terms each, so rows repeat inside a column;
    # the last two rows of x take no term
    columns = np.sort(rng.integers(0, 40, size=n_terms))
    # as when noise tokens equal the context: one row repeats in a column
    rows[columns == columns[-1]] = size - 1
    weights = rng.normal(size=n_terms)
    x = rng.normal(size=(42, dim))
    expected: dict[int, np.ndarray] = {}
    for r, c, w in zip(rows.tolist(), columns, weights):
        expected[r] = expected.get(r, np.zeros(dim)) + w * x[c]
    indptr = np.searchsorted(columns, np.arange(len(x) + 1))
    got_rows, sums = _sum_rows(rows, indptr, weights, x, _row_tables(size))
    assert got_rows.tolist() == sorted(expected)
    assert np.array_equal(sums, [expected[r] for r in sorted(expected)])


def run_of_sum_rows_calls(tables, size: int, seed: int) -> None:
    """Calls ``_sum_rows`` on one set of tables, with unsorted, repeated
    rows whose unique counts recur and change from call to call, in both
    column layouts of ``_batch_gradient``: 2b + 1 indptr entries over the
    interleaved rows of negative sampling, b + 1 under the exact softmax.
    Each result must be byte-equal to a freshly built selector's product,
    and after each call the tables must be ready for the next: the mark
    table all False, and no cached selector holding an array."""
    rng = np.random.default_rng(seed)
    b, negatives, dim = 6, 3, 4
    shapes = set()
    for width, columns in ((2 + negatives, 2 * b), (2, b)):
        indptr = _scatter_layout(b, width)[0][:columns + 1]
        assert indptr.dtype == np.int32
        for unique_count in (5, 3, 5, 4, 3):
            pool = rng.choice(size, size=unique_count - 2, replace=False)
            pool = np.concatenate(([0, size - 1], pool))
            rows = rng.choice(pool, size=int(indptr[-1]))
            rows[:unique_count] = pool
            rng.shuffle(rows)
            weights = rng.normal(size=len(rows))
            x = rng.normal(size=(columns, dim))
            unique = np.unique(rows)
            shape = (len(unique), columns)
            fresh = sparse.csc_array(
                (weights, unique.searchsorted(rows), indptr), shape=shape) @ x
            got_rows, sums = _sum_rows(rows, indptr, weights, x, tables)
            assert got_rows.tolist() == unique.tolist()
            assert sums.dtype == fresh.dtype
            assert sums.tobytes() == fresh.tobytes()
            assert not tables[0].any()
            for selector in tables[2].values():
                assert not any(isinstance(value, np.ndarray)
                               for value in vars(selector).values())
            shapes.add(shape)
    # one selector per shape, each reused whenever its shape came again
    assert set(tables[2]) == shapes
    assert len(shapes) == 6


def test_sum_rows_leaves_its_tables_ready_for_the_next_call():
    size = 70_000
    tables = _row_tables(size)
    assert tables[1].dtype == np.int32
    run_of_sum_rows_calls(tables, size, seed=11)


class OneIndexDtypeSelector(sparse.csc_array):
    """A selector whose product checks that its index arrays share one
    dtype, as scipy's constructor gives them."""

    def __matmul__(self, other):
        assert self.indices.dtype == self.indptr.dtype
        return super().__matmul__(other)


def test_sum_rows_reuses_selectors_with_int64_slots_and_int32_indptr(
        monkeypatch):
    # From 2**31 block rows the slot table is int64, while a step's indptr
    # stays int32: the selector's two index arrays must still share one
    # dtype.  (sparsetools would convert one of them on every product.)
    monkeypatch.setattr(skipgram, "sparse",
                        SimpleNamespace(csc_array=OneIndexDtypeSelector))
    size = 70_000
    mark, _, selectors = _row_tables(size)
    run_of_sum_rows_calls((mark, np.empty(size, dtype=np.int64), selectors),
                          size, seed=12)


@pytest.mark.parametrize("structured, negative_sampling", [
    pytest.param(False, False, id="False"),
    pytest.param(True, False, id="True"),
    pytest.param(False, True, id="neg-False"),
    pytest.param(True, True, id="neg-True"),
])
def test_softmax_gradients_match_finite_differences(structured,
                                                    negative_sampling):
    rng = np.random.default_rng(7)
    n, dim, window = 6, 4, 2
    inputs = rng.normal(size=(n, dim))
    outputs = rng.normal(size=(2 * window if structured else 1, n, dim))
    pairs = [
        (int(rng.integers(n)), int(rng.integers(n)),
         int(rng.choice([-2, -1, 1, 2])))
        for _ in range(12)
    ]
    # repeated rows within and across pairs exercise the summed scatter
    negatives = (rng.integers(n, size=(len(pairs), 3)) if negative_sampling
                 else None)
    loss, grad_in, grad_out = mean_objective(
        inputs, outputs, pairs, window, structured, negatives
    )
    h = 1e-5
    for _ in range(20):
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
                                  structured, negatives)
        theta[idx] = orig - h
        down, _, _ = mean_objective(inputs, outputs, pairs, window,
                                    structured, negatives)
        theta[idx] = orig
        numeric = (up - down) / (2 * h)
        denom = max(abs(numeric), abs(grad[idx]), 1e-8)
        assert abs(numeric - grad[idx]) / denom <= 1e-4


# -- persistence ------------------------------------------------------------------

def test_save_load_round_trip_is_exact(tmp_path):
    rows = [["a", "b", "c"]] * 10
    v = build_vocabulary(rows)
    model = train(rows, v, cfg(dim=5))
    path = tmp_path / "vectors.tsv"
    save_embeddings(model, path)
    loaded = load_embeddings(path)
    assert loaded.tokens == v.tokens
    assert loaded.index == v.index
    assert loaded.mode is Mode.CLASSIC
    assert loaded.dim == 5
    assert np.array_equal(loaded.input_vectors, model.input_vectors)
    assert loaded.output_matrices.shape == (0, 3, 5)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "#qtwalk-emb v1 count=3 dim=5 mode=classic"


def test_save_outputs_sidecar(tmp_path):
    rows = [["a", "b"]] * 4
    v = build_vocabulary(rows)
    model = train(rows, v, cfg(dim=3, mode=Mode.STRUCTURED))
    assert model.output_matrices.shape[0] == 4
    path = tmp_path / "vectors.tsv.out.npz"
    save_output_matrices(model, path)
    # written under the name given: numpy appends no second ".npz"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    with np.load(path) as sidecar:
        assert np.array_equal(sidecar["output_matrices"],
                              model.output_matrices)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "vectors.tsv"
    path.write_text("#qtwalk-emb v1 count=2 dim=2 mode=classic\n\n"
                    "a\t0.5 0.25\n \t\nb\t1.0 2.0\n\n", encoding="utf-8")
    loaded = load_embeddings(path)
    assert loaded.tokens == ("a", "b")
    assert np.array_equal(loaded.input_vectors, [[0.5, 0.25], [1.0, 2.0]])


def test_load_rejects_inconsistent_dimensions(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#qtwalk-emb v1 count=1 dim=3 mode=classic\na\t0.5 0.25\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="token 'a' has 2 values, "
                                         "expected 3$"):
        load_embeddings(path)
    path.write_text(
        "#qtwalk-emb v1 count=2 dim=2 mode=classic\na\t0.5 0.25\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="header declares 2 tokens, "
                                         "found 1$"):
        load_embeddings(path)


def test_load_rejects_non_embedding_files(tmp_path):
    path = tmp_path / "other.tsv"
    path.write_text("hello\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_embeddings(path)


# random doubles in shortest round-trip form: subnormals, the largest
# finite values and both zeros included
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(max_value=2.0 ** -1022, min_value=-(2.0 ** -1022)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1074 * 3,
                     1.7976931348623157e308])), min_size=1, max_size=24))
@settings(max_examples=150, deadline=None)
def test_load_reads_every_value_as_float_does(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("emb") / "vectors.tsv"
    texts = [repr(v) for v in values]
    path.write_text(
        f"#qtwalk-emb v1 count=2 dim={len(texts)} mode=classic\n"
        f"a\t{' '.join(texts)}\nb\t{' '.join(reversed(texts))}\n",
        encoding="utf-8")
    loaded = load_embeddings(path).input_vectors
    expected = np.array([[float(t) for t in texts],
                         [float(t) for t in reversed(texts)]])
    assert loaded.dtype == np.float64
    # bit for bit: -0.0 and 0.0 differ here
    assert loaded.tobytes() == expected.tobytes()


@given(st.text(alphabet=st.characters(exclude_characters="\t\n\r ",
                                      exclude_categories=("Cs",)),
               max_size=8))
@example("nan")
@example("-Infinity")
@example("1e400")
@settings(max_examples=150, deadline=None)
def test_load_accepts_and_rejects_each_value_as_float_does(tmp_path_factory,
                                                          text):
    # float's spelling, less the values that are not finite
    path = tmp_path_factory.mktemp("emb") / "vectors.tsv"
    path.write_text(f"#qtwalk-emb v1 count=1 dim=1 mode=classic\n"
                    f"a\t{text}\n", encoding="utf-8")
    try:
        expected = np.array([[float(text)]])
    except ValueError as exc:
        message = str(exc)
    else:
        if np.isfinite(expected).all():
            assert load_embeddings(path).input_vectors.tobytes() == (
                expected.tobytes())
            return
        message = "non-finite value"
    with pytest.raises(ValueError) as got:
        load_embeddings(path)
    assert str(got.value) == f"{path}:2: token 'a': {message}"


def test_load_holds_no_python_float_per_value(tmp_path):
    # 2,000 rows of 64 values are 1.0 MiB as float64.  Parsed into one
    # array per row and stacked once, the traced peak of loading them is
    # 2.7 MiB; through one Python float per value (32 bytes each, with
    # the list slot) it was 5.3 MiB.
    rng = np.random.default_rng(0)
    path = tmp_path / "vectors.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#qtwalk-emb v1 count=2000 dim=64 mode=classic\n")
        for i in range(2000):
            fh.write(f"t{i}\t" + " ".join(
                repr(float(x)) for x in rng.standard_normal(64)) + "\n")
    tracemalloc.start()
    try:
        model = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.input_vectors.shape == (2000, 64)
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("text, message", [
    ("count=2 dim=1 mode=classic\na\t0.5\na\t0.25\n",
     "duplicate token 'a'"),
    ("count=1 dim=1 mode=bogus\na\t0.5\n", "'bogus' is not a valid Mode"),
    ("dim=1 mode=classic\na\t0.5\n", "header lacks count="),
    ("count=1 mode=classic\na\t0.5\n", "header lacks dim="),
    ("count=1 dim=1\na\t0.5\n", "header lacks mode="),
    ("count=1 dim=1 classic\na\t0.5\n", "'classic' is not key=value"),
    ("count=one dim=1 mode=classic\na\t0.5\n", "bad header"),
])
def test_load_rejects_bad_headers_and_duplicate_tokens(tmp_path, text,
                                                       message):
    path = tmp_path / "bad.tsv"
    path.write_text("#qtwalk-emb v1 " + text, encoding="utf-8")
    with pytest.raises(ValueError) as exc_info:
        load_embeddings(path)
    assert str(exc_info.value).startswith(f"{path}: ")
    assert message in str(exc_info.value)
