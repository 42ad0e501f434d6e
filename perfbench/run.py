"""gltcomb benchmark: cold runs of one workload, end to end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(perfbench/worker.py), started one at a time from this process, so every
cache is cold and peak RSS is per repetition.

--trace 0 repeats the workload while another repetition fits in --seconds
(at least once), and also starts SETUP_SAMPLES interpreters that only set
up, half before the repetitions and half after, so that setup_s samples the
host over the whole run.  It reports the end-to-end metrics of
BENCHMARK.json: medians over repetitions, latency percentiles over all
requests of all repetitions (an op, or the whole repetition for a batch
workload).  A repetition still running HANG_S seconds after --seconds is
taken as hung and fails the run.

--trace 1 runs the workload once untraced and twice traced, reports the
per-layer metrics of BENCHMARK.json from the first traced run, and writes
its spans to .perfbench/trace-<workload>-<seed>.json.

Either way the outputs of every repetition are checked, and the outputs and
the deterministic counts must repeat exactly across repetitions.  Host
figures (calibration loop, CPU time, load average, Python, nproc) are
printed as diagnostics and rescale nothing.  The last line of standard
output is the JSON result; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 40
HANG_S = 120

# Counts that must repeat exactly between two runs of the same inputs.
DETERMINISTIC = ["caps.mult_D.calls", "caps.D_matrix.nnz", "matrices.mul.madds",
                 "partitions.index_size", "grothendieck.inconsistencies"]


class BenchError(Exception):
    pass


def run_worker(args, *extra) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = args.seconds + HANG_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict, names: list[str]) -> dict:
    """Per-layer figures of one traced repetition; self times in seconds.
    A traced function the library no longer has, or that never ran, reads
    0 calls and 0 s."""
    stats, counts, caches = rep["stats"], rep["counts"], rep["caches"]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return stats.get(name, [0])[0]

    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "s":
            out[name] = self_s(span)
        elif field == "calls":
            out[name] = calls(span)
    mult_hits, mult_misses, _ = caches["caps.mult_D"]
    diag_hits, diag_misses, _ = caches["diagrams.build_diagram"]
    out.update({
        "partitions.index_size": counts["partitions.index_size"],
        "diagrams.build_diagram.hit_ratio": ratio(diag_hits, diag_hits + diag_misses),
        "caps.mult_D.hit_ratio": ratio(mult_hits, mult_hits + mult_misses),
        "caps.mult_D.useful_ratio": ratio(counts["caps.mult_D.nonzero"], calls("caps.mult_D")),
        "caps.build_caps.entries": caches["caps.build_caps"][2],
        "caps.D_matrix.nnz": counts["caps.D_matrix.nnz"],
        "caps.D_inverse.nnz": counts["caps.D_inverse.nnz"],
        "lr.schur_polynomial.entries": caches["lr.schur_polynomial"][2],
        "matrices.mul.madds": counts["matrices.mul.madds"],
        "grothendieck.inconsistencies": counts["grothendieck.inconsistencies"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "host.calib_s": rep["calib_s"],
        "host.cpu_s": rep["cpu_s"],
    })
    return out


def deterministic_counts(rep: dict) -> dict:
    hits, misses, _ = rep["caches"]["caps.mult_D"]
    out = {"caps.mult_D.calls": hits + misses, "outputs.digest": rep["digest"], "ops.failed": rep["failed"]}
    if "counts" in rep:
        out.update({k: rep["counts"][k] for k in DETERMINISTIC if k in rep["counts"]})
    return out


def consistency_problems(reps: list[dict]) -> list[str]:
    """Every repetition of the same inputs must check clean and agree."""
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"repetition {i}: {p}" for p in rep["problems"]]
    counts = [deterministic_counts(rep) for rep in reps]
    for j in range(1, len(reps)):
        for i in range(j):
            for k in sorted(counts[i].keys() & counts[j].keys()):
                if counts[i][k] != counts[j][k]:
                    problems.append(f"{k} differs between repetitions {i} and {j}: "
                                    f"{counts[i][k]!r} != {counts[j][k]!r}")
    return problems


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    latencies = [x for rep in reps for x in rep["latencies_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ops_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in reps),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p99_ms": 1000 * percentile(latencies, 99),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        print("error: run from the root of a checkout that has BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "gltcomb", "__init__.py")):
        print("error: no gltcomb sources under src/ in this checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            reps = [run_worker(args)]
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_out = os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.json")
            reps.append(run_worker(args, "--trace", "--trace-out", trace_out))
            reps.append(run_worker(args, "--trace"))
            wanted = spec["per_layer"]
            values = layer_metrics(reps[1], [m["name"] for m in wanted])
            values["tracing.overhead_s"] = reps[1]["wall_s"] - reps[0]["wall_s"]
        else:
            setups = [run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
            reps, durations = [], []
            start = perf_counter()
            while True:
                t = perf_counter()
                reps.append(run_worker(args))
                durations.append(perf_counter() - t)
                if perf_counter() - start + max(durations) > args.seconds:
                    break
            setups += [r["setup_s"] for r in reps]
            setups += [run_worker(args, "--setup-only")["setup_s"]
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            values = end_to_end(reps, setups)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = consistency_problems(reps)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    rep = reps[0]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  ops/repetition {rep['attempted']}")
    print(f"host: python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}  "
          f"calib_s {' '.join('%.4f' % r['calib_s'] for r in reps)}  "
          f"cpu_s {' '.join('%.3f' % r['cpu_s'] for r in reps)}")
    print(f"failed_share {rep['failed']}/{rep['attempted']} = {rep['failed'] / rep['attempted']:.6f} share")
    for err in rep["errors"]:
        print(f"  failed op: {err}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6f} {m['unit']}")
    for prob in problems:
        print(f"CHECK FAILED: {prob}")
    print(json.dumps({"correct": not problems, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
