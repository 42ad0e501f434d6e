"""The CLI grid digest: a hash of gltcomb's output on a fixed grid, and the
cold seconds of each kind of query on it.

The grid is `matrix --kind K --max-size 6` for K in D, Dinv, B, b, and
`decompose lam` and `caps lam` for every bipartition lam of size at most 6,
each at t in [-4, 4] and generic, in JSON and in text.  The translation
kinds A, atilde and etilde add `--a a` for a in [-3, 3]; at generic t they
run without `--family` (exit code 2) and with each family.  Every invocation's
arguments, exit code, standard output and standard error go into the
digest of its kind; the run's digest hashes the kinds' digests in order.
Two checkouts whose digests agree print the same bytes on the whole grid.

Each kind runs in its own fresh interpreter, REPEATS times, so its seconds
are cold: the first query at each t pays for the tables it needs.  A run
records the commit of the checkout it measured and is stored in OUT under
--label, next to the runs already there:

    python3 bench/grid.py --out BENCH_grid_<k>.json --label after
    python3 bench/grid.py --out BENCH_grid_<k>.json --label before --src <other checkout>/src

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from statistics import median
from time import perf_counter

from scale import add_arguments, commit_of, host, store_run

REPEATS = 5
MAX_SIZE = 6
T_VALUES = [*map(str, range(-4, 5)), "generic"]
FORMATS = ["json", "text"]
MATRIX_KINDS = ["D", "Dinv", "B", "b"]
LAMBDA_KINDS = ["decompose", "caps"]
TRANSLATION_KINDS = ["A", "atilde", "etilde"]
A_VALUES = range(-3, 4)
FAMILIES = [[], ["--family", "integer"], ["--family", "shifted"]]
KINDS = MATRIX_KINDS + LAMBDA_KINDS + TRANSLATION_KINDS


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n with parts at most largest, in decreasing lex order."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first, *rest) for first in range(top, 0, -1) for rest in partitions(n - first, first)]


def bipartitions() -> list[str]:
    """Every bipartition of size at most MAX_SIZE, in the CLI's notation."""
    out = []
    for k in range(MAX_SIZE + 1):
        for i in range(k + 1):
            for black in partitions(i):
                for white in partitions(k - i):
                    out.append(json.dumps([list(black), list(white)], separators=(",", ":")))
    return out


def invocations(kind: str) -> list[list[str]]:
    out = []
    for t in T_VALUES:
        for fmt in FORMATS:
            common = [f"--t={t}", "--format", fmt]
            if kind in LAMBDA_KINDS:
                out += [[kind, *common, lam] for lam in bipartitions()]
            elif kind in TRANSLATION_KINDS:
                matrix = ["matrix", "--kind", kind, "--max-size", str(MAX_SIZE)]
                out += [[*matrix, "--a", str(a), *common, *family]
                        for a in A_VALUES for family in (FAMILIES if t == "generic" else [[]])]
            else:
                out.append(["matrix", "--kind", kind, "--max-size", str(MAX_SIZE), *common])
    return out


def run_kind(kind: str) -> dict:
    """Run every invocation of kind through the CLI; runs in the child."""
    from gltcomb import cli

    h = hashlib.sha256()
    exit_codes: Counter = Counter()
    start = perf_counter()
    for argv in invocations(kind):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        exit_codes[str(code)] += 1
        h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    seconds = perf_counter() - start
    return {"digest": h.hexdigest(), "exit_codes": dict(exit_codes), "seconds": seconds}


def measure(src: str) -> dict:
    kinds = []
    for kind in KINDS:
        runs = []
        for _ in range(REPEATS):
            cmd = [sys.executable, "-B", os.path.abspath(__file__), "--child", kind, "--src", src]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len({r["digest"] for r in runs}) != 1:
            raise RuntimeError(f"{kind}: the output differs between repeats")
        secs = [r["seconds"] for r in runs]
        kinds.append({
            "kind": kind,
            "invocations": len(invocations(kind)),
            "digest": runs[0]["digest"],
            "exit_codes": runs[0]["exit_codes"],
            "median_s": round(median(secs), 4),
            "seconds": [round(s, 4) for s in secs],
        })
    digest = hashlib.sha256("".join(k["digest"] for k in kinds).encode()).hexdigest()
    return {
        "commit": commit_of(src),
        "grid": {"max_size": MAX_SIZE, "t": T_VALUES, "formats": FORMATS, "kinds": KINDS},
        "repeats": REPEATS,
        "host": host(),
        "digest": digest,
        "kinds": kinds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_arguments(parser)
    parser.add_argument("--child", choices=KINDS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if args.child:
        sys.path.insert(0, src)
        print(json.dumps(run_kind(args.child)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    result = measure(src)
    store_run(args.out, "CLI grid digest (bench/grid.py)", args.label, result)
    for kind in result["kinds"]:
        print(f"{kind['kind']}: {kind['median_s']} s over {kind['invocations']} invocations")
    print(f"{args.label}: digest {result['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
