"""One cold repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

Imports gltcomb from the checkout's src/, builds the inputs (together the
set-up), runs every op once, then checks the outputs outside the timed
region.  Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ["partitions", "diagrams", "caps", "lr", "matrices", "grothendieck", "fock", "verify", "cli"]


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks host speed, nothing else."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


class Lib:
    def __init__(self):
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"gltcomb.{name}"))


def cache_counts(lib) -> dict:
    """[hits, misses, entries] of each lru cache the per-layer metrics read;
    a function without a cache reports zeros."""
    out = {}
    for name in ["caps.mult_D", "caps.build_caps", "diagrams.build_diagram", "lr.schur_polynomial"]:
        mod, attr = name.split(".")
        fn = getattr(getattr(lib, mod), attr, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        info = fn.cache_info() if fn is not None else None
        out[name] = [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
    return out


def make_hooks(counts: dict, sparse) -> dict:
    """Per-call counters computed from each traced call's arguments and result."""
    def nnz_once(key):
        """Sum the nnz of each distinct matrix built, keyed by its arguments."""
        seen = set()

        def hook(args, result):
            if args not in seen:
                seen.add(args)
                counts[key] += len(result.to_json()["entries"])
        return hook

    def useful(args, result):
        counts["caps.mult_D.nonzero"] += result != 0

    def index(args, result):
        counts["partitions.index_size"] = max(counts["partitions.index_size"], len(result))

    def madds(args, result):
        counts["matrices.mul.madds"] += sparse.madds(sparse.as_dict(args[0]), sparse.as_dict(args[1]))

    def exit_code(args, result):
        counts["cli.exit_nonzero"] += result != 0

    for k in ["caps.D_matrix.nnz", "caps.D_inverse.nnz", "caps.mult_D.nonzero",
              "partitions.index_size", "matrices.mul.madds", "cli.exit_nonzero"]:
        counts[k] = 0
    return {
        "caps.D_matrix": nnz_once("caps.D_matrix.nnz"),
        "caps.D_inverse": nnz_once("caps.D_inverse.nnz"),
        "caps.mult_D": useful,
        "partitions.bipartitions_up_to": index,
        "matrices.mul": madds,
        "cli.main": exit_code,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    sys.path.insert(0, HERE)
    import sparse
    import workloads

    calib_s = None if args.setup_only else calibrate()
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    lib = Lib()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - t0
    if not os.path.abspath(lib.caps.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gltcomb imported from {lib.caps.__file__}, not from {SRC}")
    result = {"setup_s": setup_s, "calib_s": calib_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = workload.ops(lib)
    tracer = None
    counts: dict = {}
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer, make_hooks(counts, sparse))
        ops = [(lambda op=op: tracer.span("op", op)) for op in ops]
        tracer.active = True

    outputs, latencies, failed, errors = [], [], 0, []
    caches0 = cache_counts(lib)
    cpu1 = process_time()
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = i
        t = perf_counter()
        try:
            out = op()
        except RuntimeError as exc:  # InternalInconsistencyError, failed query or check
            out = None
            failed += 1
            errors.append(f"op {i}: {exc}")
        latencies.append(perf_counter() - t)
        outputs.append(out)
    wall_s = perf_counter() - start
    cpu_s = process_time() - cpu1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = {k: [h - caches0[k][0], m - caches0[k][1], n]
              for k, (h, m, n) in cache_counts(lib).items()}
    if tracer:
        tracer.active = False

    problems = workload.check(lib, outputs)
    result.update({
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [wall_s] if getattr(workload, "BATCH", False) else latencies,
        "attempted": len(ops), "failed": failed, "errors": errors[:20],
        "problems": problems[:20],
        "digest": workload.digest(outputs), "caches": caches,
    })
    if tracer:
        result["stats"] = {k: v[:3] for k, v in tracer.stats.items()}
        counts["grothendieck.inconsistencies"] = sum(
            tracer.stats.get(k, [0] * 5)[4] for k in ("grothendieck.a_matrix", "grothendieck.b_matrix"))
        result["counts"] = counts
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["id", "name", "start", "end", "parent", "op"],
                           "spans": tracer.spans,
                           "spans_dropped": {k: v[0] - v[3] for k, v in tracer.stats.items()}}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
