#!/usr/bin/env python3
"""sgparse benchmark: closed-loop runs of the `train`, `parse`/`eval` and
`retrieve` CLI paths on synthetic corpora made from a seed.

Run from the repository root:

    python3 perfbench/run.py --workload parse-eval --seed 1 --seconds 20 --trace 0

With --trace 0 the loop runs untraced for --seconds and the last line of
stdout is a JSON object carrying the end-to-end metrics of BENCHMARK.json.
With --trace 1 an untraced pass of half the time is followed by a traced
pass over a fixed number of input chunks, and the last line carries the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def import_sgparse():
    """Import sgparse from this checkout's `src`, never from elsewhere."""
    package = ROOT / "src" / "sgparse"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sgparse sources at {package}")
    sys.path.insert(0, str(package.parent))
    import sgparse.autodiff
    import sgparse.cli
    import sgparse.corpus
    import sgparse.model
    import sgparse.pool
    import sgparse.retrieval
    import sgparse.spice
    if Path(sgparse.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sgparse from {sgparse.__file__}, not {package}")
    return SimpleNamespace(cli=sgparse.cli, corpus=sgparse.corpus, model=sgparse.model,
                           autodiff=sgparse.autodiff, pool=sgparse.pool,
                           retrieval=sgparse.retrieval, spice=sgparse.spice)


def describe_machine(sg):
    import numpy as np
    blas, blas_threads = "unknown", None
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "SGPARSE_THREADS": os.environ.get("SGPARSE_THREADS"),
        "pool_workers": sg.pool.worker_count(),
        "platform": platform.platform(),
    }


def measure(sg, workload, state, seconds, min_iterations, tracer=None):
    """Closed loop with one client: the next iteration starts when the
    previous one has finished, until `seconds` have passed and at least
    `min_iterations` have run."""
    from probes import Patches, Recorder, install_latency_probes

    rec = Recorder()
    patches = Patches()
    try:
        install_latency_probes(patches, rec, sg)
        if tracer is not None:
            tracer.install(patches, sg)
        start = perf_counter()
        while rec.iterations < min_iterations or perf_counter() - start < seconds:
            chunk = rec.iterations % workload.chunks
            began = perf_counter()
            workload.iterate(state, chunk, rec)
            rec.chunk_wall[chunk].append(perf_counter() - began)
            rec.iterations += 1
    finally:
        patches.restore()
    workload.check(state, rec)
    return rec


def percentile(ordered, pct):
    """Linear interpolation between closest ranks of sorted values."""
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency(samples, cap):
    """Mean, median and tail in ms; the tail is the highest ladder
    percentile, at most `cap`, with at least MIN_BEYOND_TAIL samples beyond
    it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    tail_pct = next((p for p in TAIL_LADDER
                     if p <= cap and n * (100.0 - p) / 100.0 >= MIN_BEYOND_TAIL), 100.0)
    return {"mean_ms": 1000.0 * statistics.fmean(ordered),
            "p50_ms": 1000.0 * statistics.median(ordered),
            "tail_ms": 1000.0 * percentile(ordered, tail_pct),
            "tail_pct": tail_pct, "n": n}


def rate(rec, path):
    return rec.items[path] / rec.wall[path] if rec.wall[path] else 0.0


def end_to_end(workload, rec, setup_s):
    """This workload's named metrics, and the gated ones."""
    lat = latency(rec.samples[(workload.cli_path, workload.item)], workload.tail_cap)
    prefix = workload.prefix
    named = {"setup_s": (setup_s, "s")}
    if workload.name == "parse-eval":
        named["parse.sent_per_s"] = (rate(rec, "parse"), "1/s")
        named["eval.region_per_s"] = (rate(rec, "eval"), "1/s")
        items_per_s = rec.items["parse"] / (rec.wall["parse"] + rec.wall["eval"])
    else:
        items_per_s = rate(rec, workload.cli_path)
        named[f"{prefix}_per_s"] = (items_per_s, "1/s")
    if lat:
        named[f"{prefix}_mean_ms"] = (lat["mean_ms"], "ms")
        named[f"{prefix}_p50_ms"] = (lat["p50_ms"], "ms")
        named[f"{prefix}_tail_ms"] = (lat["tail_ms"], "ms")
        named[f"{prefix}_tail_pct"] = (lat["tail_pct"], "percentile")
        named[f"{prefix}_samples"] = (lat["n"], "count")
    named.update(rec.quality)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(rec.failed.values())
    named["peak_rss_mb"] = (rss_mb, "MB")
    named["error_rate"] = (failed / rec.attempted if rec.attempted else 0.0, "share")
    gated = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "item_mean_ms": (lat["mean_ms"] if lat else 0.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return named, gated


PREDICTED_ZERO = {
    # metric -> workloads on which it must read zero
    "model.adam_step_calls": ("parse-eval", "retrieve"),
    "transition.oracle_s": ("parse-eval", "retrieve"),
    "corpus.build_instances_s": ("parse-eval", "retrieve"),
    "align.align_s": ("parse-eval", "retrieve"),
    "autodiff.backward_s": ("parse-eval", "retrieve"),
    "autodiff.tape_nodes": ("parse-eval", "retrieve"),
    "retrieval.rank_images_s": ("train", "parse-eval"),
    "retrieval.subgraph_of_calls": ("train", "parse-eval"),
    "retrieval.build_index_s": ("train", "parse-eval"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sg = import_sgparse()
    from probes import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](sg)
    machine = describe_machine(sg)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    problems = []
    try:
        setup_times, setup_digests = [], set()
        for _ in range(SETUP_REPEATS):
            began = perf_counter()
            state = workload.setup(work, args.seed)
            setup_times.append(perf_counter() - began)
            setup_digests.add(state["digest"])
        if len(setup_digests) != 1:
            problems.append("set-up training gave different checkpoints on repeat")
        setup_s = statistics.median(setup_times)

        if args.trace == 0:
            rec = measure(sg, workload, state, args.seconds, 1)
            named, metrics = end_to_end(workload, rec, setup_s)
            runs = [rec]
        else:
            plain = measure(sg, workload, state, args.seconds / 2, workload.traced_chunks)
            tracer = Tracer()
            traced = measure(sg, workload, state, 0.0, workload.traced_chunks, tracer)
            runs = [plain, traced]
            for key, digest in traced.digests.items():
                if plain.digests.get(key) != digest:
                    problems.append(f"traced output {key} differs from the untraced one")
            chunks = range(workload.traced_chunks)
            plain_s = sum(plain.chunk_wall[c][0] for c in chunks)
            traced_s = sum(traced.chunk_wall[c][0] for c in chunks)
            metrics = tracer.metrics()
            metrics["trace.overhead_share"] = (1.0 - plain_s / traced_s, "share")
            for metric, where in PREDICTED_ZERO.items():
                if workload.name in where and metrics[metric][0] != 0:
                    problems.append(f"{metric} reads {metrics[metric][0]} on {workload.name}")
            named = dict(metrics)
            rec = plain
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for r in runs:
        problems.extend(r.problems)
    attempted = sum(r.attempted for r in runs)
    failed = sum(sum(r.failed.values()) for r in runs)
    correct = not problems

    for name, (value, unit) in named.items():
        print(f"{workload.name:<11} {name:<30} {value:>16.6f} {unit}")
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine,
        "setup_s_each": setup_times,
        "iterations": [r.iterations for r in runs],
        "failures": {k: sum(r.failed[k] for r in runs) for k in set().union(*(r.failed for r in runs))},
        "digests": {f"{key}[{chunk}]": d for (key, chunk), d in sorted(rec.digests.items())
                    if chunk < workload.traced_chunks},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "problems": problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
