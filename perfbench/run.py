#!/usr/bin/env python3
"""Benchmark of the qtwalk pipeline, end to end and per layer.

    python3 perfbench/run.py --workload kgrc-train --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs are generated from ``--seed``
(untimed).  The workload's CLI steps then run again and again, each pass
in a fresh interpreter, until ``--seconds`` would be exceeded (at least two
passes).  Every pass's outputs are checked; each check and each CLI call
is one operation.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_s``, their
wall time minus the untraced one.  All spans go to one JSON file under
``perfbench/results/``, next to a result file with the environment stamp.

``--size smoke`` shrinks every input to a seconds-scale run, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
RUN_BUDGET_S = 170.0

import spans  # noqa: E402
import workloads  # noqa: E402


def fill(obj, out: Path):
    """Replace ``{out}`` in every string of a nested step or spec."""
    if isinstance(obj, str):
        return obj.replace("{out}", str(out))
    if isinstance(obj, list):
        return [fill(x, out) for x in obj]
    if isinstance(obj, dict):
        return {k: fill(v, out) for k, v in obj.items()}
    return obj


class Run:
    """One benchmark run: passes in child processes, and every operation."""

    def __init__(self, plan: workloads.Plan, work: Path):
        self.plan = plan
        self.work = work
        self.ops: list[dict] = []
        self.setup_s: list[float] = []
        self.hashes: dict[str, str] = {}
        self.started = time.perf_counter()

    def op(self, name: str, ok: bool, detail: str = "", run: int = 0) -> None:
        self.ops.append({"op": name, "ok": bool(ok), "run": run,
                         "detail": "" if ok else detail})

    def child(self, job: dict, tag: str) -> dict:
        """Start a fresh interpreter on ``child.py``; time its import of
        ``qtwalk.cli`` as one set-up sample; wait for it to end."""
        job_path = self.work / f"{tag}.job.json"
        job["result"] = str(self.work / f"{tag}.result.json")
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.started)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            ready = proc.stdout.readline()
            if ready.strip() == b"ready":
                self.setup_s.append(time.perf_counter() - start)
            proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        try:
            return json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"codes": [], "errors": [f"child exited {proc.returncode} "
                                            "without a result"]}

    def one_pass(self, n: int, traced: bool, plan=None) -> dict:
        """Run the plan's steps once and check every output."""
        plan = plan or self.plan
        out = self.work / f"pass{n}"
        out.mkdir()
        job = {"steps": fill(plan.steps, out), "trace": traced, "run": n,
               "roots": fill(plan.roots, out) if n == 0 else None,
               "sizes": fill(plan.sizes, out) if n == 0 else None}
        t0 = time.perf_counter()
        res = self.child(job, f"pass{n}")
        codes = res.get("codes", [])
        for i, argv in enumerate(plan.steps):
            code = codes[i] if i < len(codes) else "not run"
            self.op(f"cli.{argv[0]}", code == 0,
                    f"exit {code}; {' '.join(res.get('errors', []))}", n)
        res["traced"] = traced
        res["ok"] = codes == [0] * len(plan.steps)
        if res["ok"]:
            for name, check in plan.checks:
                try:
                    ok, detail = check(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    ok, detail = False, f"{type(exc).__name__}: {exc}"
                self.op(name, ok, detail, n)
            if "roots" in res:
                rows = sum(1 for _ in open(job["roots"]["corpus"],
                                           encoding="utf-8")) - 1
                want = job["roots"]["walks"] * res["roots"]
                self.op("mid_rows_per_root", rows == want,
                        f"{rows} rows for {res['roots']} roots", n)
            for name in plan.hashed:
                digest = workloads.sha256(out / name)
                key = f"{id(plan)}:{name}"
                if key in self.hashes:
                    self.op(f"same_sha256:{name}", digest == self.hashes[key],
                            f"{name} differs from the first pass", n)
                else:
                    self.hashes[key] = digest
            if plan.quality:
                res["quality"] = workloads.quality(out)
        res["seconds"] = time.perf_counter() - t0
        shutil.rmtree(out)
        return res


def environment(args, plan: workloads.Plan, first: dict) -> dict:
    python_v = subprocess.run([sys.executable, "-V"], capture_output=True,
                              text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "qtwalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": python_v,
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_threads": first.get("blas_threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "input_bytes": sum(p.stat().st_size for p in plan.inputs),
        **(first.get("sizes") or {}),
        **plan.info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "qtwalk" / "cli.py").is_file():
        print(f"perfbench: no qtwalk sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
        run = Run(plan, work)
        passes: list[dict] = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run.one_pass(len(passes), traced))
            # Stop when one more pass, as long as the last, would overrun.
            elapsed = time.perf_counter() - run.started
            if len(passes) >= 2 and elapsed + passes[-1]["seconds"] > args.seconds:
                break
        plain = [p for p in passes if p["ok"] and not p["traced"]]
        traced_runs = [p["trace"] for p in passes if p["ok"] and p["traced"]]
        quality = passes[0].get("quality")
        if not args.trace and quality is None:
            # deep-ingest and kgrc-sweep score no entity classes themselves:
            # their quality guard is one untimed kgrc-train pass, same seed.
            guard = workloads.kgrc_train(args.seed, args.size, work / "guard")
            quality = run.one_pass(len(passes), False, guard).get("quality")
        metrics = {}
        if plain and traced_runs:
            metrics = spans.median_metrics(traced_runs)
            metrics["trace.overhead_s"] = (
                statistics.median(t["wall_s"] for t in traced_runs)
                - statistics.median(p["wall_s"] for p in plain))
        elif plain and not args.trace:
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in plain),
                "setup_s": statistics.median(run.setup_s),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                "ok_ops_share": 1 - sum(not o["ok"] for o in run.ops) / len(run.ops),
                **(quality or {}),
            }
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        unit_of = {m["name"]: m["unit"]
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
        missing = sorted(set(unit_of) - set(metrics))
        if missing:
            run.op("all_metrics_reported", False, f"missing {missing}")
        failed = sum(not o["ok"] for o in run.ops)
        result = {
            "correct": failed == 0,
            "attempted": len(run.ops),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit_of[k]}
                        for k in unit_of if k in metrics},
        }
        env = environment(args, plan, passes[0])
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {"env": env, "result": result,
                  "passes": [{k: p.get(k) for k in ("wall_s", "peak_rss_mb",
                                                     "seconds")}
                             for p in passes],
                  "setup_s": run.setup_s,
                  "failed_ops": [o for o in run.ops if not o["ok"]]}
        if traced_runs:
            trace_path = RESULTS / f"{stem}.trace.json"
            trace_path.write_text(json.dumps({
                "env": env, "runs": traced_runs,
                "layer_self_s": [spans.layer_self_times(t) for t in traced_runs],
            }))
            record["trace_file"] = str(trace_path.relative_to(ROOT))
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps({"env": env}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench").iterdir()):
            (ROOT / ".perfbench").rmdir()


if __name__ == "__main__":
    sys.exit(main())
