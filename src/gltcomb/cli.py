"""Command-line surface: diagrams, caps, multiplicities, matrices, Fock
operators, Littlewood-Richardson coefficients and the verification harness.

Exit codes: 0 success, 1 failed check or internal inconsistency, 2 malformed
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import caps as caps_mod
from . import diagrams as diag_mod
from . import fock as fock_mod
from . import grothendieck as groth_mod
from . import lr as lr_mod
from . import verify as verify_mod
from .diagrams import GENERIC
from .partitions import Bipartition, Partition


class CliError(Exception):
    """Malformed input; reported with exit code 2."""


def _parse_t(text: str):
    if text == GENERIC:
        return GENERIC
    try:
        return int(text)
    except ValueError:
        raise CliError(f"--t must be an integer or 'generic', got {text!r}") from None


def _parse(kind, text: str):
    """`kind.parse(text)` for Partition or Bipartition, a ValueError as CliError."""
    try:
        return kind.parse(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _require_size(n: int) -> int:
    if n < 0:
        raise CliError(f"--max-size must be nonnegative, got {n}")
    return n


def _require_int_t(t):
    if diag_mod.is_generic(t):
        raise CliError("this command requires an integer --t")
    return t


def _emit(args, text_output: str, json_output) -> None:
    if args.format == "json":
        payload = json.dumps(json_output, indent=2, sort_keys=True)
    else:
        payload = text_output
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise CliError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    else:
        print(payload)


def cmd_diagram(args) -> int:
    lam = _parse(Bipartition, args.bipartition)
    t = _parse_t(args.t)
    d = diag_mod.build_diagram(lam, t, args.family)
    _emit(args, d.render(), d.to_json())
    return 0


def cmd_caps(args) -> int:
    lam = _parse(Bipartition, args.bipartition)
    t = _require_int_t(_parse_t(args.t))
    d = diag_mod.build_diagram(lam, t, diag_mod.FAMILY_DPRIME)
    caps, _ = caps_mod.cap_scan(d.symbols, d.window[0])
    lines = [d.render(), "caps: " + " ".join(f"({l},{r})" for l, r in caps)]
    _emit(args, "\n".join(lines), {"diagram": d.to_json(), "window": list(d.window), "caps": [list(c) for c in caps]})
    return 0


def cmd_pair(args) -> int:
    """`mult` and `homdim`: the integer `args.query(lam, mu, t)`."""
    lam = _parse(Bipartition, args.lam)
    mu = _parse(Bipartition, args.mu)
    t = _parse_t(args.t)
    val = args.query(lam, mu, t)
    _emit(args, str(val), {"t": t, "lam": lam.to_json(), "mu": mu.to_json(), "val": val})
    return 0


MATRIX_KINDS = {
    "D": lambda a, t, n, family: caps_mod.D_matrix(t, n),
    "Dinv": lambda a, t, n, family: caps_mod.D_inverse(t, n),
    "B": lambda a, t, n, family: lr_mod.B_matrix(n),
    "b": lambda a, t, n, family: groth_mod.b_matrix(t, n),
    "atilde": groth_mod.a_tilde,
    "etilde": groth_mod.e_tilde,
    "A": groth_mod.a_matrix,
}


def cmd_matrix(args) -> int:
    t = _parse_t(args.t)
    n = _require_size(args.max_size)
    kind = args.kind
    needs_a = kind in ("atilde", "etilde", "A")
    if needs_a and args.a is None:
        raise CliError(f"matrix kind {kind!r} needs --a")
    if needs_a and diag_mod.is_generic(t) and args.family is None:
        raise CliError(f"matrix kind {kind!r} at generic t needs --family")
    m = MATRIX_KINDS[kind](args.a, t, n, args.family)
    if args.format == "json":
        _emit(args, None, m.to_json(t=t))
    else:
        _emit(args, "\n".join(f"{lam} {mu} {v}" for lam, mu, v in m.items()), None)
    return 0


def cmd_decompose(args) -> int:
    lam = _parse(Bipartition, args.bipartition)
    t = _parse_t(args.t)
    row = sorted(groth_mod.b_row(lam, t).items(), key=lambda mv: (mv[0].size, str(mv[0])))
    text = "\n".join(f"{mu}: {v}" for mu, v in row)
    _emit(args, text, {"t": t, "lam": lam.to_json(), "tilting_multiplicities": [
        {"mu": mu.to_json(), "val": v} for mu, v in row
    ]})
    return 0


def cmd_eigen(args) -> int:
    lam = _parse(Bipartition, args.lam)
    mu = _parse(Bipartition, args.mu)
    t = _parse_t(args.t)
    label = groth_mod.x_eigenvalue(lam, mu, t)
    if label is None:
        _emit(args, "absent", {"t": t, "label": None})
    else:
        text = str(label.c) if label.kind == "int" else f"{label.c} - t"
        _emit(args, text, {"t": t, "label": label.to_json()})
    return 0


def _parse_mode(args) -> fock_mod.Mode:
    kind = args.mode
    fixed = {"plain": fock_mod.Mode.plain, "twisted": lambda: fock_mod.Mode.shifted_dual(0),
             "taut": fock_mod.Mode.tautological}
    if kind in fixed:
        return fixed[kind]()
    if kind in ("shifted", "tensor"):
        t = _require_int_t(_parse_t(args.t))
        return fock_mod.Mode.shifted_dual(t) if kind == "shifted" else fock_mod.Mode.tensor(t)
    if kind == "wedge":
        if args.n is None:
            raise CliError("wedge mode needs --n")
        if args.n < 1:
            raise CliError("--n must be at least 1")
        return fock_mod.Mode.wedge(args.n)
    raise CliError(f"unknown mode {kind!r}")


def _parse_word(word: str) -> list[tuple[str, int]]:
    ops = []
    for token in word.split():
        if not token or token[0] not in ("f", "e"):
            raise CliError(f"operator token must look like 'f0' or 'e-1', got {token!r}")
        try:
            ops.append((token[0], int(token[1:])))
        except ValueError:
            raise CliError(f"bad operator index in {token!r}") from None
    return ops


def _parse_start(mode: fock_mod.Mode, text: str):
    if mode.kind in ("plain", "shifted"):
        return _parse(Partition, text)
    if mode.kind == "tensor":
        return _parse(Bipartition, text)
    if mode.kind == "taut":
        try:
            return int(text)
        except ValueError:
            raise CliError(f"tautological basis vector is an integer, got {text!r}") from None
    try:
        seq = tuple(int(p) for p in "".join(text.split()).strip("()").split(","))
    except ValueError:
        raise CliError(f"wedge basis vector is a decreasing tuple, got {text!r}") from None
    if len(seq) != mode.n or any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
        raise CliError(f"wedge vector must be strictly decreasing of length {mode.n}")
    return seq


def cmd_fock(args) -> int:
    mode = _parse_mode(args)
    vec = {_parse_start(mode, args.start): 1}
    for gen, a in reversed(_parse_word(args.word)):
        vec = fock_mod.apply_generator(gen, a, mode, vec)
    items = sorted(vec.items(), key=lambda kv: str(kv[0]))
    text = "\n".join(f"{key}: {coeff}" for key, coeff in items) or "0"
    _emit(args, text, {str(key): coeff for key, coeff in items})
    return 0


def cmd_lr(args) -> int:
    lam = _parse(Partition, args.lam)
    mu = _parse(Partition, args.mu)
    kappa = _parse(Partition, args.kappa)
    val = lr_mod.lr_coeff(lam, mu, kappa)
    _emit(args, str(val), {"lam": lam.to_json(), "mu": mu.to_json(), "kappa": kappa.to_json(), "val": val})
    return 0


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"range must look like '-3..3', got {text!r}") from None
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    return tuple(range(lo, hi + 1))


def cmd_verify(args) -> int:
    cfg = verify_mod.VerifyConfig(
        t_values=_parse_range(args.t_range),
        max_size=_require_size(args.max_size),
        seed=args.seed,
    )
    results = verify_mod.run_all(cfg)
    lines = verify_mod.report_lines(results)
    ok = all(r.ok for r in results)
    json_out = {
        "ok": ok,
        "checks": [
            {"name": r.name, "ok": r.ok, "instances": r.instances,
             "failures": r.failures, "notes": r.notes}
            for r in results
        ],
    }
    _emit(args, "\n".join(lines + [f"{'OK' if ok else 'FAILED'}: {sum(r.ok for r in results)}/{len(results)} checks passed"]), json_out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gltcomb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, t=True):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")
        if t:
            p.add_argument("--t", default="0", help="integer parameter or 'generic'")

    p = sub.add_parser("diagram", help="render a weight diagram")
    common(p)
    p.add_argument("--family", choices=["d", "dprime"], default="dprime")
    p.add_argument("bipartition")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("caps", help="cap diagram of a dprime weight diagram")
    common(p)
    p.add_argument("bipartition")
    p.set_defaults(func=cmd_caps)

    p = sub.add_parser("mult", help="0/1 lift multiplicity")
    common(p)
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_pair, query=caps_mod.mult_D)

    p = sub.add_parser("matrix", help="bipartition-indexed matrices")
    common(p)
    p.add_argument("--kind", choices=MATRIX_KINDS, required=True)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--a", type=int, default=None, help="generator index for atilde/etilde/A")
    p.add_argument("--family", choices=["integer", "shifted"], default=None,
                   help="which sl_Z copy, for generic t")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("decompose", help="tilting multiplicities of a mixed Schur tensor object")
    common(p)
    p.add_argument("bipartition")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("homdim", help="Hom dimension between two tiltings")
    common(p)
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_pair, query=groth_mod.hom_dim)

    p = sub.add_parser("eigen", help="content-operator eigenvalue label")
    common(p)
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("fock", help="apply an operator word to a basis vector")
    common(p)
    p.add_argument("--mode", choices=["plain", "twisted", "shifted", "tensor", "taut", "wedge"],
                   default="plain")
    p.add_argument("--n", type=int, default=None, help="wedge length")
    p.add_argument("word", help="e.g. 'f0 e-1 f2' (applied right to left)")
    p.add_argument("start", help="basis vector: partition, bipartition, integer or tuple")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    common(p, t=False)
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("kappa")
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser("verify", help="run the full invariant suite")
    common(p, t=False)
    p.add_argument("--t-range", default="-2..2")
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def _glue_range_flags(argv: list[str]) -> list[str]:
    # argparse would otherwise read a negative range like '-3..3' as a flag
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--t-range" and i + 1 < len(argv):
            out.append(f"--t-range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and shared by later calls: parsing
    # leaves no state on it (each call gets a fresh Namespace)
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_range_flags(list(argv)))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except groth_mod.InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
