"""The scale ladder: the largest truncation N at which the paper's tables can
be built and checked within a time budget.

For N = 6, 7, ... a fresh interpreter builds, for t in [-3, 3],
D(t, N), its inverse, b(t, N - 1) and A_a(t, N - 1) for a in [-4, 4] (the
shape of the tilting sweep: A_a at N - 1 is conjugated through D at N), and
then checks that b and every A_a are nonnegative and that D agrees with the
Weyl-dimension oracle (verify's caps.dimension-oracle).  The ladder stops at
the first N that fails a check or takes longer than 60 s.

Each rung reports per-layer cold seconds, the nonzeros of every layer and
the peak RSS.  The child prints one JSON line per finished layer before its
result, so a rung stopped at the budget still reports the layers it
finished and names the layer it stopped in.  A run records the commit of
the checkout it measured.  The result is stored in OUT under --label, next
to the runs already there, so one file can hold a before and an after run:

    python3 bench/scale.py --out BENCH_scale_<k>.json --label after
    python3 bench/scale.py --out BENCH_scale_<k>.json --label before --src <other checkout>/src

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
START_N = 6
BUDGET_S = 60.0
T_VALUES = range(-3, 4)
A_VALUES = range(-4, 5)
# Address-space cap of one rung, so a large N fails with MemoryError instead
# of pressing on the host.
MEMORY_LIMIT = 2 << 30
LAYERS = ("D", "Dinv", "B", "b", "A", "dimension-oracle")


def rung(n: int) -> dict:
    """Build and check every table at truncation n; runs in the child."""
    from gltcomb import caps, grothendieck, lr, partitions, verify

    seconds: dict[str, float] = {}
    nnz: dict[str, int] = {}
    negatives: dict[str, int] = {}
    counting = 0.0

    def finished(name):
        print(json.dumps({"layer": name, "seconds": seconds[name]}), flush=True)

    def layer(name, build):
        nonlocal counting
        start = perf_counter()
        mats = build()
        stop = perf_counter()
        seconds[name] = round(stop - start, 4)
        # Counted from the rows, which hold nonzeros only, outside the
        # layer's and the rung's time; the rung's wall-clock budget still
        # pays for it, so it must stay cheap next to the layer.
        nnz[name] = negatives[name] = 0
        for m in mats:
            for row in m.rows.values():
                nnz[name] += len(row)
                negatives[name] += sum(v < 0 for v in row.values())
        counting += perf_counter() - stop
        finished(name)
        return mats

    failures: list[str] = []
    start = perf_counter()
    try:
        layer("D", lambda: [caps.D_matrix(t, n) for t in T_VALUES])
        layer("Dinv", lambda: [caps.D_inverse(t, n) for t in T_VALUES])
        layer("B", lambda: [lr.B_matrix(n - 1)])
        # b and every A_a stay alive to the end of the rung, so peak RSS holds them.
        tables = layer("b", lambda: [grothendieck.b_matrix(t, n - 1) for t in T_VALUES])
        tables += layer("A", lambda: [grothendieck.a_matrix(a, t, n - 1)
                                      for t in T_VALUES for a in A_VALUES])
        negative = negatives["b"] + negatives["A"]  # D^-1 has negative entries
        if negative:
            failures.append(f"{negative} negative entries in b or A_a")
        oracle_start = perf_counter()
        cfg = verify.VerifyConfig(t_values=tuple(T_VALUES), max_size=n)
        oracle = verify.check_dimension_oracle(cfg)
        seconds["dimension-oracle"] = round(perf_counter() - oracle_start, 4)
        finished("dimension-oracle")
        failures += oracle.failures[:5]
    except (grothendieck.InternalInconsistencyError, ValueError, MemoryError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    total = perf_counter() - start - counting
    return {
        "N": n,
        "index_size": len(partitions.bipartitions_up_to(n)),
        "seconds": round(total, 4),
        "layer_seconds": seconds,
        "nnz": nnz,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
        "failures": failures,
    }


def partial_rung(stdout) -> dict:
    """The seconds of the layers a stopped rung finished, read from the lines
    it printed, and the first layer it did not finish."""
    if isinstance(stdout, bytes):
        stdout = stdout.decode(errors="replace")
    seconds = {}
    for line in (stdout or "").splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # a line cut off when the child was stopped
            continue
        if "layer" in record:
            seconds[record["layer"]] = record["seconds"]
    stopped_in = next((name for name in LAYERS if name not in seconds), None)
    return {"layer_seconds": seconds, "stopped_in": stopped_in}


def run_rung(src: str, n: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--rung", str(n), "--src", src]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BUDGET_S)
    except subprocess.TimeoutExpired as exc:
        # On POSIX exc.stdout holds the raw bytes read so far, even with text=True.
        partial = partial_rung(exc.stdout)
        return {"N": n, "status": "over-budget", **partial,
                "failures": [f"no result within {BUDGET_S} s, stopped in {partial['stopped_in']}"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"N": n, "status": "failed", "failures": tail}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failures"]:
        result["status"] = "failed"
    elif result["seconds"] > BUDGET_S:
        result["status"] = "over-budget"
    else:
        result["status"] = "passed"
    return result


def commit_of(src: str):
    """The short commit of the checkout holding src, with "-dirty" when src
    differs from it, or None when src is not in a git checkout."""
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    if commit and git("status", "--porcelain", "."):
        commit += "-dirty"
    return commit


def host() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """--src, --out and --label, shared by the bench scripts."""
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the gltcomb package to measure")
    parser.add_argument("--out", help="JSON file to add this run to (required for a run)")
    parser.add_argument("--label", default="after", help="key of this run in OUT")


def store_run(path: str, benchmark: str, label: str, result: dict) -> None:
    """Add result to the runs in the JSON file at path under label."""
    runs = {}
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh).get("runs", {})
    runs[label] = result
    with open(path, "w") as fh:
        json.dump({"benchmark": benchmark, "runs": runs}, fh, indent=2)
        fh.write("\n")


def ladder(src: str) -> dict:
    rungs = []
    n = START_N
    while True:
        result = run_rung(src, n)
        rungs.append(result)
        print(f"N={n}: {result['status']} {result.get('seconds', '')}", file=sys.stderr)
        if result["status"] != "passed":
            break
        n += 1
    passed = [r["N"] for r in rungs if r["status"] == "passed"]
    return {
        "commit": commit_of(src),
        "budget_s": BUDGET_S,
        "largest_passing_N": max(passed) if passed else None,
        "host": host(),
        "rungs": rungs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_arguments(parser)
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.rung is not None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
        print(json.dumps(rung(args.rung)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = ladder(os.path.abspath(args.src))
    store_run(args.out, "scale ladder (bench/scale.py)", args.label, result)
    print(f"{args.label}: largest passing N = {result['largest_passing_N']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
