"""One pass of a workload's CLI steps in a fresh interpreter.

Usage: ``python3 child.py JOB.json`` with ``src`` on ``PYTHONPATH``.

The process prints ``ready`` as soon as ``qtwalk.cli`` is imported, so the
parent can time set-up from outside.  It then calls ``cli.main`` for each
step in order, each only after the previous one returned (a closed loop
with one client), and writes a JSON result to ``job["result"]``: exit
codes, ``wall_s`` from the first call to the last return, its own peak
RSS, and the spans when traced.  Checks that need the package (walk roots,
input sizes) run after the timed part.
"""

import json
import sys
import time
import traceback

from qtwalk import cli


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def walk_roots(spec) -> int:
    from qtwalk import walks

    return len(walks.corpus_roots(cli.load_graph(spec["graph"],
                                                 tuple(spec["exclude"]))))


def input_sizes(spec) -> dict:
    """Graph, corpus, vocabulary and pair counts of this workload's inputs."""
    from qtwalk import skipgram, walks

    g = cli.load_graph(spec["graph"])
    sizes = {"triples": len(g.triples), "nodes": len(g.node_set),
             "qts": len(g.qt_set)}
    if spec.get("corpora"):
        corpora = [walks.read_corpus_lines(p)[1] for p in spec["corpora"]]
    else:
        params = walks.WalkParams(**{**spec["walk"], "strategy": walks.Strategy(
            spec["walk"]["strategy"])})
        corpus = walks.generate_corpus(
            cli.load_graph(spec["graph"], tuple(spec["exclude"])), params)
        corpora = [[w.texts() for w in corpus.walks]]
    sizes["walks"] = sum(len(rows) for rows in corpora)
    sizes["tokens"] = sum(len(r) for rows in corpora for r in rows)
    rows = corpora[0]
    sizes["vocab"] = len(skipgram.build_vocabulary(rows))
    w = spec.get("window")
    sizes["pairs"] = sum(
        min(i, w) + min(len(r) - 1 - i, w) for r in rows for i in range(len(r))
    ) if w else None
    return sizes


def main(job_path: str) -> None:
    import spans  # benchmark code, imported after set-up was timed

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer(job["run"])
        spans.install(tracer)
    codes, errors = [], []
    start = time.perf_counter()
    for argv in job["steps"]:
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        except Exception:  # recorded as a failed step, reported by the parent
            code = None
            errors.append(traceback.format_exc())
        codes.append(code)
        if code != 0:
            break
    wall_s = time.perf_counter() - start
    result = {"codes": codes, "wall_s": wall_s,
              "peak_rss_mb": spans.peak_rss_mb(), "errors": errors}
    if tracer is not None:
        tracer.active = False
        result["trace"] = tracer.export(wall_s)
    if len(codes) == len(job["steps"]) and all(c == 0 for c in codes):
        if job.get("roots"):
            result["roots"] = walk_roots(job["roots"])
        if job.get("sizes"):
            result["sizes"] = input_sizes(job["sizes"])
            result["blas_threads"] = blas_threads()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    print("ready", flush=True)
    main(sys.argv[1])
