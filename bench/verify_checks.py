"""Per-check wall time of verify: each call of the acceptance suite, with
the arguments of perfbench's verify-acceptance workload, then each check of
run_all at the default config, in that workload's order.

Each of the REPEATS repeats runs in a fresh interpreter, so each call meets
the caches the calls before it left, as in one benchmark repetition.  A
call's seconds are listed per repeat with their median, next to its
instance count, which must not change between runs.  A run records the
commit of the checkout it measured and is stored in OUT under --label, next
to the runs already there:

    python3 bench/verify_checks.py --out BENCH_verify_<k>.json --label after
    python3 bench/verify_checks.py --out BENCH_verify_<k>.json --label before --src <other checkout>/src

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from scale import ROOT, add_arguments, commit_of, host, store_run

REPEATS = 5
SEED = 3  # config seed of run_all, as the workload's own seed


def timings(seed: int) -> list[dict]:
    """Time every acceptance call, then every check of run_all; runs in the child."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import VerifyAcceptance

    from gltcomb import verify

    workload = VerifyAcceptance(seed)
    ops = workload.ops(SimpleNamespace(verify=verify))
    out = []
    for (name, kwargs), op in zip(workload.inputs, ops):
        if name == "run_all":
            continue
        start = perf_counter()
        [res] = op()
        out.append({"call": name, "args": {k: str(v) for k, v in kwargs.items()},
                    "seconds": perf_counter() - start, "instances": res.instances})
    # run_all, one check at a time
    cfg = verify.VerifyConfig(seed=seed)
    for check in verify.ALL_CHECKS:
        start = perf_counter()
        res = check(cfg)
        out.append({"call": f"run_all.{check.__name__}", "seconds": perf_counter() - start,
                    "instances": res.instances, "failures": len(res.failures)})
    return out


def measure(src: str) -> dict:
    runs = []
    for _ in range(REPEATS):
        cmd = [sys.executable, "-B", os.path.abspath(__file__), "--child", "--src", src]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    calls = []
    for rows in zip(*runs):
        secs = [r["seconds"] for r in rows]
        entry = {k: v for k, v in rows[0].items() if k != "seconds"}
        entry["median_s"] = round(median(secs), 4)
        entry["seconds"] = [round(s, 4) for s in secs]
        calls.append(entry)
    totals = [sum(r["seconds"] for r in run) for run in runs]
    return {
        "commit": commit_of(src),
        "seed": SEED,
        "repeats": REPEATS,
        "host": host(),
        "total_median_s": round(median(totals), 4),
        "calls": calls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_arguments(parser)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        sys.path.insert(0, src)
        print(json.dumps(timings(SEED)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = measure(src)
    store_run(args.out, "verify per-check seconds (bench/verify_checks.py)", args.label, result)
    for call in result["calls"]:
        print(f"{call['call']}: {call['median_s']} s, {call['instances']} instances")
    print(f"{args.label}: total {result['total_median_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
