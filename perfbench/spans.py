"""Spans around calls into qtwalk's public functions, and the per-layer
metrics derived from them.

``install`` replaces module attributes (``qtwalk.walks.generate_corpus``
and so on) with wrappers that open a span per call, so the CLI's own call
sequence is traced without any change to the package.  A span records its
name, start, end, parent span and run id, plus counts read from the
call's arguments and result.  Counting happens in a ``trace.probe`` span
after the layer span closes, so it never inflates a layer's time.

``Walk.texts`` runs once per walk; its calls are summed per parent span
(an aggregate) instead of recorded one by one.

Span names equal the metric prefixes: a span ``walks.mid`` yields
``walks.mid.s``, a span ``skipgram.train`` yields ``skipgram.train_s``.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import inspect
import os
import resource
import statistics
import time
from contextlib import contextmanager
from functools import wraps

COMMANDS = ("convert", "stats", "walk", "train", "eval", "sweep")
MIB = 1024 * 1024


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span store for one traced run of a workload."""

    def __init__(self, run: int):
        self.run = run
        self.active = True
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        key = (name, self._stack[-1] if self._stack else None)
        entry = self.aggregates.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def export(self, wall_s: float) -> dict:
        return {
            "run": self.run,
            "wall_s": wall_s,
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "run": self.run,
                 "calls": calls, "seconds": seconds}
                for (name, parent), (calls, seconds) in self.aggregates.items()
            ],
        }


def _wrap(tracer: Tracer, owner, attr: str, name, counts=None) -> None:
    """Replace ``owner.attr`` by a wrapper that records a span per call.

    ``name`` is a span name or a function of the bound arguments;
    ``counts(arguments, result)`` returns the counts stored on the span.
    """
    fn = getattr(owner, attr)
    signature = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs).arguments
        with tracer.span(name if isinstance(name, str) else name(bound)) as rec:
            result = fn(*args, **kwargs)
        if counts is not None:
            with tracer.span("trace.probe"):
                rec.update(counts(bound, result))
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Trace every public qtwalk call the CLI commands make."""
    from qtwalk import cli, convert, evaluate, graph, skipgram, terms, walks

    _wrap(tracer, cli, "parse_document", "parser", lambda a, r: {
        "bytes": len(a["source"].encode("utf-8")), "triples": len(r)})
    _wrap(tracer, convert, "convert_document", "convert", lambda a, r: {
        "scenes": r[1].scenes_converted,
        "duplicates": r[1].duplicates_disambiguated})
    _wrap(tracer, graph, "build_graph", "graph.build", lambda a, r: {
        "triples": len(r.triples), "nodes": len(r.node_set),
        "qts": len(r.qt_set),
        "max_qt_depth": max(map(terms.qt_depth, r.qt_set), default=0),
        "rss_mb": peak_rss_mb()})
    _wrap(tracer, graph, "compute_stats", "graph.stats")
    _wrap(tracer, walks, "generate_corpus",
          lambda a: f"walks.{a['params'].strategy.value}", _corpus_counts)
    _wrap(tracer, walks, "write_corpus", "walks.write",
          lambda a, r: {"bytes": os.path.getsize(a["path"])})
    _wrap(tracer, walks, "read_corpus_lines", "walks.read")
    _wrap(tracer, skipgram, "build_vocabulary", "skipgram.vocab",
          lambda a, r: {"vocab_size": len(r)})
    _wrap(tracer, skipgram, "train", "skipgram.train", lambda a, r: {
        "epochs": a["cfg"].epochs, "negatives": a["cfg"].negatives,
        "dim": a["cfg"].dim,
        "model_bytes": r.input_vectors.nbytes + r.output_matrices.nbytes,
        "rss_mb": peak_rss_mb()})
    _wrap(tracer, skipgram, "save_embeddings", "skipgram.save")
    _wrap(tracer, skipgram, "load_embeddings", "skipgram.load")
    for loader in ("load_labeled_tsv", "load_relatedness", "load_similarity"):
        _wrap(tracer, evaluate, loader, "evaluate.load")
    for task in ("classification", "clustering", "relatedness",
                 "qt_similarity"):
        _wrap(tracer, evaluate, f"eval_{task}", f"evaluate.{task}",
              _report_counts)

    # Pair extraction runs inside train(); a probe span repeats it just
    # before, so its cost and the pair count are visible on their own.
    traced_train, extract = skipgram.train, skipgram.extract_pairs

    @wraps(traced_train)
    def train(corpus_rows, vocab, cfg):
        if tracer.active:
            with tracer.span("skipgram.extract_pairs") as rec:
                rec["pairs"] = sum(len(extract(row, vocab, cfg.window))
                                   for row in corpus_rows)
        return traced_train(corpus_rows, vocab, cfg)

    skipgram.train = train

    texts = walks.Walk.texts

    @wraps(texts)
    def timed_texts(self):
        if not tracer.active:
            return texts(self)
        start = time.perf_counter()
        out = texts(self)
        tracer.add("walks.serialize", time.perf_counter() - start)
        return out

    walks.Walk.texts = timed_texts


def _corpus_counts(args, corpus) -> dict:
    from qtwalk.terms import QuotedTriple

    tokens = qts = 0
    for walk in corpus.walks:
        tokens += len(walk.tokens)
        qts += sum(isinstance(t, QuotedTriple) for t in walk.tokens)
    counts = {"walks": len(corpus.walks), "tokens": tokens, "qt_tokens": qts}
    counts["rss_mb"] = peak_rss_mb()
    return counts


def _report_counts(args, report) -> dict:
    counts = {"metrics": dict(report.metrics)}
    missing = report.details.get("missing_tokens")
    if missing is not None:
        counts["gold_tokens"] = len(args["gold"].records)
        counts["present"] = len(args["gold"].records) - len(missing)
    return counts


# -- derived metrics ------------------------------------------------------------

def self_times(run: dict) -> list[float]:
    """Each span's duration minus the time its child spans and aggregates
    cover."""
    spans = run["spans"]
    self_s = [s["end"] - s["start"] for s in spans]
    for s, dur in zip(spans, list(self_s)):
        if s["parent"] is not None:
            self_s[s["parent"]] -= dur
    for agg in run["aggregates"]:
        if agg["parent"] is not None:
            self_s[agg["parent"]] -= agg["seconds"]
    return self_s


def layer_self_times(run: dict) -> dict[str, float]:
    """Self time per layer; ``trace`` holds the probes' own cost."""
    totals: dict[str, float] = {}
    for s, t in zip(run["spans"], self_times(run)):
        layer = s["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + t
    for agg in run["aggregates"]:
        layer = agg["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + agg["seconds"]
    return totals


def layer_metrics(run: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    A layer the workload never calls reads 0.  Counts are summed over
    calls, except graph sizes, vocabulary size and model size, which are
    the largest seen.
    """
    spans, self_s = run["spans"], self_times(run)

    def secs(name):
        return sum(t for s, t in zip(spans, self_s) if s["name"] == name)

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def largest(name, key):
        return max((s["counts"].get(key, 0) for s in spans
                    if s["name"] == name), default=0)

    def first(names, key):
        return next((s["counts"][key] for s in spans
                     if s["name"] in names and key in s["counts"]), 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def last_metric(name, key):
        values = [s["counts"]["metrics"][key] for s in spans
                  if s["name"] == name and "metrics" in s["counts"]]
        return values[-1] if values else 0.0

    m: dict[str, float] = {}
    m["parser.s"] = secs("parser")
    m["parser.mb_per_s"] = rate(total("parser", "bytes") / MIB, m["parser.s"])
    m["parser.triples"] = total("parser", "triples")
    m["convert.s"] = secs("convert")
    m["convert.scenes"] = total("convert", "scenes")
    m["convert.duplicates"] = total("convert", "duplicates")
    m["graph.build_s"] = secs("graph.build")
    m["graph.build_triples_per_s"] = rate(total("graph.build", "triples"),
                                          m["graph.build_s"])
    for key in ("nodes", "qts", "max_qt_depth"):
        m[f"graph.{key}"] = largest("graph.build", key)
    m["graph.stats_s"] = secs("graph.stats")
    tokens = qt_tokens = walks = 0
    for strategy in ("mid", "random"):
        name = f"walks.{strategy}"
        m[f"{name}.s"] = secs(name)
        m[f"{name}.tokens_per_s"] = rate(total(name, "tokens"), m[f"{name}.s"])
        tokens += total(name, "tokens")
        qt_tokens += total(name, "qt_tokens")
        walks += total(name, "walks")
    m["walks.walks"] = walks
    m["walks.tokens"] = tokens
    m["walks.qt_token_share"] = rate(qt_tokens, tokens)
    m["walks.serialize_s"] = sum(a["seconds"] for a in run["aggregates"]
                                 if a["name"] == "walks.serialize")
    m["walks.write_s"] = secs("walks.write")
    m["walks.read_s"] = secs("walks.read")
    m["walks.corpus_mb"] = total("walks.write", "bytes") / MIB
    m["skipgram.train_s"] = secs("skipgram.train")
    # One extract_pairs probe precedes each train call: (pairs, cfg) per model.
    models = [(p["counts"]["pairs"], t["counts"]) for p, t in zip(
        [s for s in spans if s["name"] == "skipgram.extract_pairs"],
        [s for s in spans if s["name"] == "skipgram.train"])]
    trained_pairs = sum(pairs * cfg["epochs"] for pairs, cfg in models)
    m["skipgram.pairs"] = total("skipgram.extract_pairs", "pairs")
    m["skipgram.pairs_per_s"] = rate(trained_pairs, m["skipgram.train_s"])
    m["skipgram.extract_pairs_s"] = secs("skipgram.extract_pairs")
    m["skipgram.vocab_s"] = secs("skipgram.vocab")
    m["skipgram.vocab_size"] = largest("skipgram.vocab", "vocab_size")
    # Computed, not measured: per trained pair, (1 + negatives) dot
    # products of length dim for the scores, the input gradient and the
    # output update, at 2 flops per multiply-add.
    m["skipgram.computed_gflop"] = sum(
        6 * pairs * cfg["epochs"] * (1 + cfg["negatives"]) * cfg["dim"]
        for pairs, cfg in models) / 1e9
    m["skipgram.model_mb"] = largest("skipgram.train", "model_bytes") / MIB
    m["skipgram.save_s"] = secs("skipgram.save")
    m["skipgram.load_s"] = secs("skipgram.load")
    for task in ("classification", "clustering", "relatedness",
                 "qt_similarity", "load"):
        m[f"evaluate.{task}_s"] = secs(f"evaluate.{task}")
    gold = sum(total(f"evaluate.{t}", "gold_tokens")
               for t in ("classification", "clustering"))
    present = sum(total(f"evaluate.{t}", "present")
                  for t in ("classification", "clustering"))
    m["evaluate.gold_tokens"] = gold
    m["evaluate.present_share"] = rate(present, gold)
    m["evaluate.relatedness_tau"] = last_metric("evaluate.relatedness",
                                                "kendall_tau")
    m["evaluate.qt_sim_hmean"] = last_metric("evaluate.qt_similarity",
                                             "harmonic_mean")
    m["cli.self_s"] = sum(t for s, t in zip(spans, self_s)
                          if s["name"].startswith("cli."))
    for command in COMMANDS:
        m[f"cli.{command}_s"] = sum(s["end"] - s["start"] for s in spans
                                    if s["name"] == f"cli.{command}")
    m["mem.peak_mb_after_graph"] = first(("graph.build",), "rss_mb")
    m["mem.peak_mb_after_walks"] = first(("walks.mid", "walks.random"), "rss_mb")
    m["mem.peak_mb_after_train"] = first(("skipgram.train",), "rss_mb")
    return m


def median_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-metric median over several traced runs."""
    per_run = [layer_metrics(r) for r in runs]
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
