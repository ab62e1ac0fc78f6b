"""Command-line pipeline: convert, stats, walk, train, eval, sweep.

Every artifact is accompanied by a ``<artifact>.manifest`` TSV recording
the graph fingerprint and the parameters that produced it, so downstream
commands can verify provenance (notably the label-leak guard for the
classification task).  A manifest also records the sha256 of its
artifact; ``eval`` refuses an input whose manifest records another hash,
``train`` carries such a corpus manifest no further, and both ignore a
manifest that records none.  Each command checks all its outputs, manifests
included, before any work, and publishes them together once it is done.

Exit codes: 0 ok, 1 input error, 2 internal invariant violation.  An
input error, a usage error included, is a ``ValueError`` (a ``ParseError``
is one) or an ``OSError``; any other exception is a bug, and leaves
``main`` with its traceback.  ``main`` alone reports a failure, one that
``walks.run_in_shards`` raises again from a forked shard included.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import gc
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

from . import convert as conv
from . import evaluate as ev
from . import graph as gr
from . import skipgram as sg
from . import walks as wk
from .config import Mode, SoftmaxMode, TrainConfig
from .fixtures import random_graph
from .parser import ParseError, parse_document, parse_term
from .terms import RDF_TYPE, Iri, serialize_triple


# -- outputs and manifests ---------------------------------------------------

@contextlib.contextmanager
def _outputs(inputs, *paths: str | None):
    """Check each output path before any work, then yield a temp path
    beside each (None, for stdout, stays None).  A path is resolved first,
    links followed, so an output written through a link reaches the link's
    target and the link stays.  No output may name one of the command's
    ``inputs`` or a file open as a standard stream, and one that exists
    must be a regular file.  When the block returns, each temp file
    written replaces its resolved path and each path whose temp file was
    not written is removed (a link, not its target); when it raises, every
    old file stays."""
    named = [path for path in paths if path is not None]
    resolved = [Path(path).resolve() for path in named]
    read = [Path(path).resolve() for path in inputs]
    for path, where in zip(named, resolved):
        if resolved.count(where) > 1:
            raise ValueError(f"{path}: given for two outputs")
        if any(where == source or where.exists() and source.exists()
               and os.path.samefile(where, source) for source in read):
            raise ValueError(f"{path}: is also an input")
        if Path(path).is_dir():
            raise ValueError(f"{path}: is a directory")
        if Path(path).exists() and not Path(path).is_file():
            raise ValueError(f"{path}: not a regular file")
        if (stream := _standard_stream(path)) is not None:
            raise ValueError(f"{path}: is {stream}")
        for folder in (Path(path).parent, where.parent):
            if not folder.is_dir():
                raise ValueError(f"{path}: no such directory: {folder}")
    staged = {path: Path(f"{where}.{os.getpid()}.tmp")
              for path, where in zip(named, resolved)}
    try:
        yield [staged.get(path) for path in paths]
        for path, where in zip(named, resolved):
            if staged[path].exists():
                os.replace(staged[path], where)
            else:
                Path(path).unlink(missing_ok=True)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def _standard_stream(path) -> str | None:
    """The name of the standard stream open on ``path``'s file, if any.
    An output naming one, say ``/dev/stdout`` with stdout redirected to a
    file, would replace the file the shell opened, and ``>>`` would lose
    its earlier lines."""
    if not Path(path).exists():
        return None
    for fd, name in enumerate(("stdin", "stdout", "stderr")):
        with contextlib.suppress(OSError):
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return name
    return None


def _write_text(path: Path | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout if None."""
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _tsv(rows) -> str:
    """A table: one line per row, its fields spelled by ``str`` and joined
    by TAB.  Every table and manifest a command writes is spelled here."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _settings(config, seed_key: str) -> dict:
    """The manifest entries of a ``WalkParams`` or ``TrainConfig``, in
    field order: an enum by its value, a number as it is; the seed under
    ``seed_key`` and ``softmax_mode`` under ``softmax``."""
    keys = {"seed": seed_key, "softmax_mode": "softmax"}
    return {keys.get(name, name): value.value
            if isinstance(value, enum.Enum) else value
            for name, value in dataclasses.asdict(config).items()}


# The buffer serves ``train`` and ``eval``, which hash their input (``walk``
# hashes its corpus as it writes it).  glibc's malloc raises its mmap
# threshold to the largest mapped block freed, so the buffer's size shapes
# where later arrays live.  At 1 MiB it stays mapped, as the chunks it
# replaced were; a 64 or 256 KiB buffer left ``train`` 0.1-0.2 MiB higher
# in peak RSS in the kgrc-train benchmark.
_HASH_BUFFER = 1 << 20


def _file_sha256(path) -> str:
    """sha256 of a file, read through one reused 1 MiB buffer: an artifact
    can be large, and a fresh chunk per read would hold two at a time."""
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BUFFER)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def read_manifest(path: Path) -> dict[str, str]:
    manifest = Path(str(path) + ".manifest")
    if not manifest.exists():
        return {}
    entries: dict[str, str] = {}
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition("\t")
            entries[key] = value
    return entries


def read_bound_manifest(path, *, strict: bool) -> dict[str, str]:
    """``path``'s manifest if it records the sha256 of ``path``; empty if it
    records none, since a manifest not bound to its file vouches for
    nothing.  A manifest recording another file's hash raises when
    ``strict``, and is otherwise empty too."""
    manifest = read_manifest(Path(path))
    recorded = manifest.get("artifact_sha256")
    if recorded is not None and recorded == _file_sha256(path):
        return manifest
    if recorded is not None and strict:
        raise ValueError(f"{path}: manifest describes a different file")
    return {}


# -- shared loading -----------------------------------------------------------

def load_graph(path: str, exclude_predicates: tuple[str, ...] = ()) -> gr.Graph:
    return gr.parse_graph(Path(path).read_text(encoding="utf-8"),
                          exclude_predicates)


def _config(cls, args):
    """A ``WalkParams`` or ``TrainConfig`` from the flags that set its
    fields, each value coerced to its field's type (an enum from its
    value)."""
    return cls(**{f.name: type(f.default)(getattr(args, f.name))
                  for f in dataclasses.fields(cls)})


def _excluded_predicates(args) -> tuple[str, ...]:
    """The ``--exclude-predicate`` IRIs.  Each must be a valid IRI, so none
    holds the space that separates them in a manifest."""
    for value in args.exclude_predicate:
        try:
            valid = parse_term(f"<{value}>") == Iri(value)
        except ParseError:
            valid = False
        if not valid:
            raise ValueError(f"--exclude-predicate: not an IRI: {value!r}")
    return tuple(args.exclude_predicate)


def write_triples(triples, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in triples:
            fh.write(serialize_triple(t) + "\n")


# -- subcommands ----------------------------------------------------------------

def cmd_convert(args) -> int:
    with _outputs([args.input], args.output,
                  args.report or args.output + ".report.tsv"
                  ) as (output, report_path):
        converted, report = conv.convert_document(
            parse_document(Path(args.input).read_text(encoding="utf-8")))
        write_triples(converted, output)
        _write_text(report_path, _tsv(report.rows()))
    return 0


def cmd_stats(args) -> int:
    with _outputs([args.input], args.output or None) as (output,):
        _write_text(output, _tsv(gr.compute_stats(
            load_graph(args.input),
            include_id_nesting=args.include_id_nesting)))
    return 0


def cmd_walk(args) -> int:
    excluded = _excluded_predicates(args)
    params = _config(wk.WalkParams, args)
    with _outputs([args.input], args.output, args.output + ".manifest"
                  ) as (output, manifest):
        g = load_graph(args.input, excluded)
        digest = wk.write_corpus(g, params, output)
        _write_text(manifest, _tsv({
            "graph_fingerprint": g.fingerprint(),
            **_settings(params, "walk_seed"),
            "excluded_predicates": " ".join(excluded),
            "artifact_sha256": digest,
        }.items()))
    return 0


def _train_rows(held: list, cfg: TrainConfig) -> sg.EmbeddingModel:
    """Train on the corpus rows ``held[0]``, handing them over.

    ``held`` is a one-item list that nothing else references.  Popped from
    it, the rows reach ``train`` as its argument alone (from CPython 3.11
    the callee's frame takes over a call's arguments), so they are freed
    once ``train`` has built its pair table, before the first step."""
    vocab = sg.build_vocabulary(held[0], cfg.min_count)
    return sg.train(held.pop(), vocab, cfg)


def cmd_train(args) -> int:
    cfg = _config(TrainConfig, args)
    # the sidecar is listed even without --save-outputs: an older one goes
    with _outputs([args.input, args.input + ".manifest"], args.output,
                  args.output + ".manifest", args.output + ".out.npz"
                  ) as (output, manifest_out, sidecar):
        # a corpus edited after walking trains, but vouches for nothing
        manifest = read_bound_manifest(args.input, strict=False)
        model = _train_rows([wk.read_corpus_lines(args.input)[1]], cfg)
        sg.save_embeddings(model, output)
        if args.save_outputs:
            sg.save_output_matrices(model, sidecar)
        manifest.update(_settings(cfg, "train_seed"),
                        artifact_sha256=_file_sha256(output))
        _write_text(manifest_out, _tsv(manifest.items()))
    return 0


_TASKS = ("classification", "clustering", "relatedness", "qt_similarity")


def _gold_paths(gold_dir: str, tasks) -> list[Path]:
    """Each task's gold file name, ``<gold_dir>/<task>.tsv``."""
    return [Path(gold_dir) / f"{task}.tsv" for task in tasks]


def _check_gold(tasks, paths) -> None:
    """Every task name is known and every gold file is found."""
    for task in tasks:
        if task not in _TASKS:
            raise ValueError(f"unknown task {task!r}")
    for path in paths:
        if not path.is_file():
            raise ValueError(f"gold file not found: {path}")


def cmd_eval(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    tasks = args.tasks.split(",") if args.tasks else list(_TASKS)
    gold_files = _gold_paths(args.gold_dir, tasks)
    with _outputs([args.input, args.input + ".manifest", *gold_files],
                  args.output or None) as (output,):
        _check_gold(tasks, gold_files)
        emb = sg.load_embeddings(args.input)
        manifest = read_bound_manifest(args.input, strict=True)
        if "classification" in tasks and not args.allow_leak:
            excluded = manifest.get("excluded_predicates", "").split(" ")
            if RDF_TYPE not in excluded:
                raise ValueError(
                    "classification on embeddings trained without excluding "
                    "rdf:type leaks labels; pass --allow-leak to override"
                )
        reports = []
        for task, path in zip(tasks, gold_files):
            if task == "classification":
                reports.append(ev.eval_classification(
                    emb, ev.load_labeled_tsv(path), seed=args.seed))
            elif task == "clustering":
                reports.append(ev.eval_clustering(
                    emb, ev.load_labeled_tsv(path), seed=args.seed))
            elif task == "relatedness":
                reports.append(ev.eval_relatedness(
                    emb, ev.load_relatedness(path)))
            else:
                reports.append(ev.eval_qt_similarity(
                    emb, ev.load_similarity(path)))
        _write_text(output, _tsv(row for report in reports
                                 for row in report.rows()))
    return 0


def run_pipeline(g: gr.Graph, params: wk.WalkParams, cfg: TrainConfig
                 ) -> sg.EmbeddingModel:
    """walk -> train, in memory, on the rows ``walk`` would write (from
    :func:`walks.walk_rows`); used by the sweep command and tests."""
    return _train_rows([list(wk.walk_rows(g, params, g.roots))], cfg)


def _grid(flag: str, text: str | None, field: str, parse,
          base: wk.WalkParams) -> list:
    """The items of a ``--grid-*`` comma list ``text``, each checked as
    ``field`` of ``base``; ``[base.<field>]`` without the flag."""
    if text is None:
        return [getattr(base, field)]
    values = []
    for item in text.split(","):
        try:
            value = parse(item)
            dataclasses.replace(base, **{field: value})   # checks the range
        except ValueError as exc:
            raise ValueError(f"{flag}: bad item {item!r}: {exc}") from None
        values.append(value)
    return values


def cmd_sweep(args) -> int:
    # every cell, the output and the gold file are checked before the graph
    # is read or any cell trains
    excluded = _excluded_predicates(args)
    base = _config(wk.WalkParams, args)
    depths = _grid("--grid-depth", args.grid_depth, "d", int, base)
    alphas = _grid("--grid-alpha", args.grid_alpha, "alpha", float, base)
    betas = _grid("--grid-beta", args.grid_beta, "beta", float, base)
    cells = [dataclasses.replace(base, d=d, alpha=a, beta=b)
             for d, a, b in itertools.product(depths, alphas, betas)]
    cfg = _config(TrainConfig, args)
    gold_files = _gold_paths(args.gold_dir, ["classification"])
    with _outputs([args.input, *gold_files], args.output or None) as (output,):
        _check_gold(["classification"], gold_files)
        gold = ev.load_labeled_tsv(gold_files[0])
        g = load_graph(args.input, excluded)

        def write_rows(fh, shard) -> None:
            for params in shard:
                # the model is not bound, so it is freed before the next
                # cell trains
                report = ev.eval_classification(run_pipeline(g, params, cfg),
                                                gold, seed=args.seed)
                fh.write(_tsv((params.alpha, params.beta, params.d, *row)
                              for row in report.rows()).encode("utf-8"))

        # each cell seeds its own walks and training: any process runs it
        rows = io.BytesIO()
        wk.run_in_shards(cells, write_rows, rows)
        _write_text(output, _tsv([("alpha", "beta", "depth", "task",
                                   "metric", "value")])
                    + rows.getvalue().decode("utf-8"))
    return 0


def cmd_gen_fixture(args) -> int:
    with _outputs([], args.output) as (output,):
        write_triples(random_graph(
            seed=args.seed,
            triples=args.triples,
            qt_probability=args.qt_probability,
            max_depth=args.max_depth,
        ), output)
    return 0


# -- argument wiring ----------------------------------------------------------

# A walk or training flag's destination is the field it sets (``--depth``
# sets ``d``), which ``_config`` reads back.
def _add_walk_flags(p: argparse.ArgumentParser) -> None:
    w = wk.WalkParams()
    p.add_argument("--alpha", type=float, default=w.alpha)
    p.add_argument("--beta", type=float, default=w.beta)
    p.add_argument("--depth", dest="d", metavar="DEPTH", type=int,
                   default=w.d)
    p.add_argument("--walks", dest="n", metavar="WALKS", type=int,
                   default=w.n)
    p.add_argument("--strategy", choices=[s.value for s in wk.Strategy],
                   default=w.strategy.value)
    p.add_argument("--exclude-predicate", action="append", default=[],
                   metavar="IRI")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    c = TrainConfig()
    p.add_argument("--dim", type=int, default=c.dim)
    p.add_argument("--window", type=int, default=c.window)
    p.add_argument("--epochs", type=int, default=c.epochs)
    p.add_argument("--negatives", type=int, default=c.negatives)
    p.add_argument("--learning-rate", type=float, default=c.learning_rate)
    p.add_argument("--min-count", type=int, default=c.min_count)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=c.mode.value)
    p.add_argument("--full-softmax", dest="softmax_mode",
                   action="store_const", const=SoftmaxMode.FULL_SOFTMAX,
                   default=c.softmax_mode)


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is an input error, so ``main`` exits 1 with argparse's
    message.  Subparsers are made of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qtwalk",
        description="RDF-star graph embeddings via QT-aware walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="fold reified scenes into RDF-star")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--report")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="structural statistics of a graph")
    p.add_argument("input")
    p.add_argument("--output")
    p.add_argument("--include-id-nesting", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("walk", help="generate a walk corpus")
    p.add_argument("input")
    p.add_argument("output")
    _add_walk_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("train", help="train embeddings from a corpus")
    p.add_argument("input")
    p.add_argument("output")
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save-outputs", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score embeddings against gold files")
    p.add_argument("input")
    p.add_argument("--gold-dir", required=True)
    p.add_argument("--tasks", help="comma list; default all four")
    p.add_argument("--output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-leak", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid sweep over alpha/beta/depth")
    p.add_argument("input")
    p.add_argument("--gold-dir", required=True)
    p.add_argument("--output")
    _add_walk_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-alpha")
    p.add_argument("--grid-beta")
    p.add_argument("--grid-depth")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-fixture", help="write a random RDF-star graph")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--triples", type=int, default=60)
    p.add_argument("--qt-probability", type=float, default=0.3)
    p.add_argument("--max-depth", type=int, default=3)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    # Parsing, graph building and walking allocate many long-lived objects
    # without cycles, which the cyclic collector would only traverse in
    # repeated full collections; reference counting frees them.  Cyclic
    # garbage made meanwhile is collected once the collector is back on.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_arg_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"qtwalk: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"qtwalk: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
