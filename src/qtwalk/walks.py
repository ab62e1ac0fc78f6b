"""Quoted-triple-aware walk corpus generation.

Two strategies over an indexed RDF-star graph, each rooted at a term id
(``Graph.roots`` lists the ids a corpus walks from):

* random walks: breadth-wise expansion from a root, trimmed to at most
  ``n`` partial walks after each depth iteration;
* mid walks: grow a sequence around a focus node, flipping a fair coin
  each iteration between extending backward (predecessors) and forward
  (successors).

The QT steps differ by strategy.  At each expansion of a random walk,
the walker may, with probability ``beta``, step to a quoted triple's
token from an entity in its object role (oq-step): from the root, or
from a last token that closes the QT's subject, predicate and object in
the walk.  With probability ``alpha`` it may append a QT's subject,
predicate and object (qs-step): the last token's, if it is a QT, else
those of a QT with the last token as its subject; at the root, the walk
starts with the QT token instead.  The oq-step has priority when both
are possible.  On ``<< a p b >> m x``, one step from ``b`` gives
``b << a p b >>`` and one from ``a`` gives ``<< a p b >> a p b``.

In a mid walk the coin picks the direction, so the two steps never
compete, and neither writes a QT token.  Backward, with probability
``beta``, an entity in a QT's object role is preceded by the QT's
subject and predicate (oq-step).  Forward, with probability ``alpha``, a
QT is followed by its subject, predicate and object, or an entity in a
QT's subject role by the QT's predicate and object (qs-step).  On the
same graph, a step backward from ``b`` or forward from ``a`` gives
``a p b``.

With ``alpha == beta == 0`` the output reduces to plain random walks that
treat each QT as an opaque node.

The walkers return term-id lists; :func:`walk_rows` turns them into rows,
which ``write_corpus`` writes as a corpus file and ``cli.run_pipeline``
trains on in memory.  ``Walk``, ``WalkCorpus``, ``corpus_roots`` and
``generate_corpus`` are kept for the benchmark harness under
``perfbench/``, which calls and times them; no command uses them.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import sys
import tempfile
import warnings
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import BinaryIO

from .graph import Graph
from .terms import Term


class Strategy(Enum):
    RANDOM_WALK = "random"
    MID_WALK = "mid"


@dataclass(frozen=True)
class WalkParams:
    strategy: Strategy = Strategy.MID_WALK
    n: int = 100
    d: int = 8
    alpha: float = 0.5
    beta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name, value in (("n", self.n), ("d", self.d)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class Walk:
    """A token sequence as term ids of ``graph``.

    :func:`generate_corpus` builds them for the benchmark harness; no
    command does."""

    ids: tuple[int, ...]
    graph: Graph = field(compare=False, repr=False)

    @property
    def tokens(self) -> tuple[Term, ...]:
        terms = self.graph.terms
        return tuple(terms[i] for i in self.ids)

    def texts(self) -> list[str]:
        """The walk's row, as :func:`walk_rows` gives it."""
        texts = self.graph.texts
        return [texts[i] for i in self.ids]


@dataclass(frozen=True)
class WalkCorpus:
    """The walks of :func:`generate_corpus`, for the benchmark harness."""

    walks: tuple[Walk, ...]


def _derive_seed(master: int, key: str) -> int:
    digest = hashlib.sha256(f"{master}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _root_rng(g: Graph, params: WalkParams, root: int) -> random.Random:
    return random.Random(_derive_seed(params.seed, g.texts[root]))


def _below(rng: random.Random) -> Callable[[int], int]:
    """The walkers' draw function: ``below(n)`` is uniform on ``[0, n)``.

    It is the rejection loop ``Random.randrange(n)`` and ``Random.choice``
    run on CPython 3.10-3.13, written out so a corpus depends only on
    ``getrandbits``: ``below(n)`` equals ``rng.randrange(n)`` and
    ``seq[below(len(seq))]`` equals ``rng.choice(seq)``, draw for draw.
    Defined for ``n > 0``.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _qs_candidate(g: Graph, node: int,
                  below: Callable[[int], int]) -> int | None:
    """QT whose decomposition may follow ``node`` in a walk.

    A QT node decomposes into itself; for other nodes a uniformly chosen
    QT having the node in its subject role qualifies (drawn with
    ``below``, see :func:`_below`).
    """
    if g.qt_parts[node] is not None:
        return node
    candidates = g.qts_by_subject[node]
    return candidates[below(len(candidates))] if candidates else None


def random_walks(g: Graph, root: int, params: WalkParams) -> list[list[int]]:
    """Walks rooted at term id ``root`` per the combined random-walk
    procedure, as term-id lists."""
    rng = _root_rng(g, params, root)
    below = _below(rng)
    parts, out_edges, qt_lookup = g.qt_parts, g.out_edges, g.qt_lookup

    wl: list[list[int]] = [[]]
    for _ in range(params.d):
        new_wl: list[list[int]] = []
        for walk in wl:
            cur = walk[-1] if walk else root

            if not walk:
                oq_options = g.qts_by_object[root]
                oq = (oq_options[below(len(oq_options))] if oq_options
                      else None)
            elif parts[cur] is None and len(walk) >= 3:
                oq = qt_lookup.get((walk[-3], walk[-2], cur))
            else:
                oq = None
            qs = _qs_candidate(g, cur, below)
            rand_oq = rng.random()
            rand_qs = rng.random()

            if oq is not None and rand_oq < params.beta:
                nw = list(walk)
                if not walk:
                    nw.append(root)  # the root, in its object role
                nw.append(oq)
                new_wl.append(nw)
            elif qs is not None and rand_qs < params.alpha:
                nw = list(walk)
                if not walk:
                    nw.append(qs)
                nw.extend(parts[qs])
                if walk:
                    new_wl.append(walk)  # the undecomposed walk survives
                new_wl.append(nw)
            else:
                outgoing = out_edges[cur]
                if not outgoing:
                    new_wl.append(walk if walk else [root])
                else:
                    for edge in outgoing:
                        nw = list(walk) if walk else [root]
                        nw.extend(edge)
                        new_wl.append(nw)
        wl = new_wl
        while len(wl) > params.n:
            wl.pop(below(len(wl)))
    return wl


def mid_walks(g: Graph, focus: int, params: WalkParams) -> list[list[int]]:
    """``n`` walks grown around term id ``focus``, extending either end per
    depth iteration, as term-id lists.

    The walk always starts at its current predecessor frontier and ends at
    its successor frontier, so extensions splice on without repeating the
    joining token.
    """
    rng = _root_rng(g, params, focus)
    parts, out_edges, in_edges = g.qt_parts, g.out_edges, g.in_edges
    qts_by_object = g.qts_by_object
    alpha, beta = params.alpha, params.beta
    random_, below = rng.random, _below(rng)

    walks: list[list[int]] = []
    for _ in range(params.n):
        # the walk is front[::-1] + back; front holds focus's predecessors
        front: list[int] = []
        back: list[int] = [focus]
        np_node = ns_node = focus
        for _ in range(params.d):
            rand_oq = random_()
            rand_qs = random_()
            if below(2) == 0:  # backward
                oq_options = qts_by_object[np_node]
                oq = (oq_options[below(len(oq_options))] if oq_options
                      else None)
                if oq is not None and rand_oq < beta:
                    # object token is already at the front of the walk
                    s, p, _ = parts[oq]
                    front += (p, s)
                    np_node = s
                else:
                    incoming = in_edges[np_node]
                    if incoming:
                        s, p = incoming[below(len(incoming))]
                        front += (p, s)
                        np_node = s
            else:
                qs = _qs_candidate(g, ns_node, below)
                if qs is not None and rand_qs < alpha:
                    s, p, o = parts[qs]
                    if qs == ns_node:
                        back += (s, p, o)
                    else:
                        # subject token is already at the end of the walk
                        back += (p, o)
                    ns_node = o
                else:
                    outgoing = out_edges[ns_node]
                    if outgoing:
                        p, o = outgoing[below(len(outgoing))]
                        back += (p, o)
                        ns_node = o
        front.reverse()
        walks.append(front + back)
    return walks


def corpus_roots(g: Graph) -> list[Term]:
    """Walk roots: IRIs and QTs in any subject/object position, sorted.

    Predicate-only IRIs and literals are not roots.  The benchmark harness
    counts them; the commands walk ``Graph.roots``, their ids.
    """
    return [g.terms[i] for i in g.roots]


def _walker(params: WalkParams) -> Callable[..., list[list[int]]]:
    return (random_walks if params.strategy is Strategy.RANDOM_WALK
            else mid_walks)


def generate_corpus(g: Graph, params: WalkParams) -> WalkCorpus:
    """Apply the configured strategy to every root node of the graph.

    Each root draws from an independent seeded substream, so the corpus is
    reproducible regardless of the order roots are processed in.  Walks
    stay id sequences; ``Walk.texts`` looks their text up, giving the rows
    of :func:`walk_rows`.  Kept for the benchmark harness, which sizes and
    times its workloads with it; the commands use :func:`walk_rows`.
    """
    walker = _walker(params)
    walks: list[Walk] = []
    for root in g.roots:
        walks.extend(Walk(tuple(ids), g) for ids in walker(g, root, params))
    return WalkCorpus(walks=tuple(walks))


CORPUS_MAGIC = "#qtwalk-corpus v1"
_BATCH_ROOTS = 16  # roots per write: few, so the text in flight stays small


def corpus_header(params: WalkParams) -> str:
    return (
        f"{CORPUS_MAGIC} seed={params.seed} alpha={params.alpha!r} "
        f"beta={params.beta!r} n={params.n} d={params.d} "
        f"strategy={params.strategy.value}"
    )


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot tell or cannot
    fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def walk_rows(g: Graph, params: WalkParams, roots) -> Iterator[list[str]]:
    """Each walk from the root ids ``roots`` as a list of its token texts,
    root by root in the order given: the rows of a corpus file."""
    walker, texts = _walker(params), g.texts
    for root in roots:
        for ids in walker(g, root, params):
            yield [texts[i] for i in ids]


def _write_walks(fh, g: Graph, params: WalkParams, roots) -> None:
    """Write the walks of ``roots`` to the binary file ``fh``, one line of
    tab-separated token texts per walk, in root order."""
    for start in range(0, len(roots), _BATCH_ROOTS):
        fh.write("".join(
            "\t".join(row) + "\n" for row in walk_rows(
                g, params, roots[start:start + _BATCH_ROOTS])
        ).encode("utf-8"))


def _fork_shard(write: Callable[[BinaryIO, Sequence], None], shard: Sequence,
                part: BinaryIO) -> int:
    """Fork a child that calls ``write(part, shard)`` and exits, 0 on
    success; return its pid."""
    with warnings.catch_warnings():
        # Python 3.12+ warns that fork() in a process with several threads
        # may deadlock the child: it could inherit a lock another thread
        # held.  qtwalk starts no thread, and OpenBLAS's pool is no such
        # risk: its pthread_atfork handler stops the pool before fork(),
        # and the next BLAS call in either process starts it again.
        # test_forked_child_runs_blas_after_the_parent_did runs a matrix
        # product in children forked after the parent's product started
        # the pool.  The child ends in os._exit.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded, "
            r"use of fork\(\)", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        write(part, shard)
        part.flush()
        code = 0
    except Exception as exc:
        sys.stderr.write(f"qtwalk: error: {exc}\n")
        sys.stderr.flush()
    finally:
        os._exit(code)  # never return into the caller's stack


def run_in_shards(jobs: Sequence, write: Callable[[BinaryIO, Sequence], None],
                  out: BinaryIO, part_dir=None) -> None:
    """Write ``write(fh, shard)`` for each shard of ``jobs`` to ``out``, a
    binary file or anything else with its ``write``, in shard order.

    The jobs are cut into contiguous shards, one per usable CPU and never
    more than there are jobs.  This process writes the first shard to
    ``out`` itself.  A forked child writes each other shard to an unnamed
    temporary file in ``part_dir`` (the system's temporary directory if
    None); this process appends the parts in shard order.  So ``out``
    holds the bytes of one serial pass when ``write`` depends only on its
    shard.  On any failure each child is killed and reaped; the parts have
    no name, and closing them removes them.
    """
    shards = max(1, min(_usable_cpus(), len(jobs)))
    cuts = [len(jobs) * k // shards for k in range(shards + 1)]
    parts: list[BinaryIO] = []
    children: list[int] = []  # forked and not yet reaped, in shard order
    try:
        for k in range(1, shards):
            parts.append(tempfile.TemporaryFile(dir=part_dir))
            children.append(_fork_shard(write, jobs[cuts[k]:cuts[k + 1]],
                                        parts[-1]))
        write(out, jobs[:cuts[1]])
        for k, part in enumerate(parts, 1):
            status = os.waitpid(children[0], 0)[1]
            del children[0]
            if status:
                raise ChildProcessError(
                    f"shard {k + 1} of {shards} failed: exit status "
                    f"{os.waitstatus_to_exitcode(status)}")
            part.seek(0)
            shutil.copyfileobj(part, out)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


class _HashedWriter:
    """A binary file's ``write`` that also hashes every byte written."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._fh.write(data)


def write_corpus(g: Graph, params: WalkParams, path) -> str:
    """Write the corpus of ``params`` over ``g`` to ``path``: the header,
    then one line of tab-separated token texts per walk, root by root.
    Return the sha256 hex digest of the bytes written.

    The roots are written in shards by :func:`run_in_shards`, with the
    parts beside ``path``.  Each root draws from its own substream, so the
    bytes equal those of one serial pass.  The bytes are hashed as they
    reach the file, the children's parts as they are copied in, so the
    file is never read back.
    """
    with open(path, "wb") as fh:
        hashed = _HashedWriter(fh)
        hashed.write(f"{corpus_header(params)}\n".encode("utf-8"))
        run_in_shards(g.roots,
                      lambda out, roots: _write_walks(out, g, params, roots),
                      hashed, Path(path).parent)
    return hashed.digest.hexdigest()


def read_corpus_lines(path) -> tuple[str, list[list[str]]]:
    """Token rows of a corpus file, plus its header line.

    Equal tokens are one ``str``: the rows hold references to one string
    per distinct token, not a copy per occurrence."""
    shared = {}.setdefault
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(CORPUS_MAGIC):
            raise ValueError(f"{path}: not a walk corpus file")
        rows = [list(map(shared, tokens, tokens))
                for tokens in (line.rstrip("\n").split("\t")
                               for line in fh if line.strip())]
    return header, rows
