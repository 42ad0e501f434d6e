import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gltcomb import caps, cli, grothendieck
from gltcomb.cli import main
from gltcomb.lr import B_matrix
from gltcomb.matrices import BipartitionMatrix
from gltcomb.partitions import Bipartition, bipartitions_up_to, partitions_up_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagram_text(capsys):
    code, out, _ = run(capsys, "diagram", "--t", "0", "[[],[]]")
    assert code == 0
    assert "x" in out and "o" in out


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "--format", "json", "--t", "1",
                       "--family", "dprime", "[[2],[2]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "dprime"
    assert payload["t"] == 1
    assert set(payload["symbols"]) <= set("x><o")


DIAGRAM_SHA256 = "739a322d915785cacd1a73a8f7e7c2d48eaf77da01dade1021d56a16d6aa847a"


def test_diagram_output_is_pinned(capsys):
    """`diagram` for every bipartition of size at most 4, both families,
    t in [-4, 4] and generic, in both formats, hashes to a fixed digest."""
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        for family in ("d", "dprime"):
            for t in [*range(-4, 5), "generic"]:
                for bp in bipartitions_up_to(4):
                    argv = ["diagram", f"--t={t}", f"--family={family}", "--format", fmt, str(bp)]
                    code, out, err = run(capsys, *argv)
                    digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == DIAGRAM_SHA256


def test_caps_output(capsys):
    code, out, _ = run(capsys, "caps", "--t", "0", "[[1],[1]]")
    assert code == 0
    assert "caps:" in out
    assert "(-1,0)" in out


def test_caps_json_payload(capsys):
    code, out, _ = run(capsys, "caps", "--format", "json", "--t", "0", "[[2,2],[2,2]]")
    assert code == 0
    want = {
        "caps": [[-2, 1], [-1, 0]],
        "diagram": {"family": "dprime", "symbols": "xooxxo", "t": 0, "window": [-3, 2]},
        "window": [-3, 2],
    }
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_mult_values(capsys):
    code, out, _ = run(capsys, "mult", "--t", "0", "[[1],[1]]", "[[],[]]")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "mult", "--t", "0", "[[],[]]", "[[1],[1]]")
    assert code == 0
    assert out.strip() == "0"


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "D", "--t", "0",
                       "--max-size", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = {(tuple(map(tuple, e["row"])), tuple(map(tuple, e["col"]))): e["val"]
               for e in payload["entries"]}
    assert entries[(((1,), (1,)), ((), ()))] == 1


def test_matrix_a_needs_index(capsys):
    code, _, err = run(capsys, "matrix", "--kind", "A", "--t", "0")
    assert code == 2
    assert "needs --a" in err


def test_matrix_generic_family(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "atilde", "--a", "0",
                       "--t", "generic", "--family", "integer", "--max-size", "1")
    assert code == 0
    assert out.strip()


TRANSLATION_JSON_SHA256 = "5d51c1a148f5aa1687899f4f6c3dc9d791c2c931c677c6c072b2cc3f1efb69d8"


def test_translation_matrix_json_is_pinned(capsys):
    """The JSON of atilde, etilde and A at max size 4, for t in [-4, 4] and
    both generic families, a in [-3, 3], hashes to a fixed digest."""
    params = [(f"--t={t}",) for t in range(-4, 5)]
    params += [("--t=generic", "--family", family) for family in ("integer", "shifted")]
    digest = hashlib.sha256()
    for kind in ("atilde", "etilde", "A"):
        for t_args in params:
            for a in range(-3, 4):
                code, out, _ = run(capsys, "matrix", "--kind", kind, t_args[0], "--a", str(a),
                                   "--max-size", "4", "--format", "json", *t_args[1:])
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == TRANSLATION_JSON_SHA256


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--t", "0", "[[2,1],[2,1]]")
    assert code == 0
    assert "[[1],[1]]: 1" in out
    assert "[[2,1],[2,1]]: 1" in out
    assert "[[],[]]" not in out


def test_decompose_reports_negative_entry_of_its_row(capsys, monkeypatch):
    """A D^-1 row made negative on purpose must make decompose exit 1, naming
    an entry of lam's row that the reference product B D^-1 shows negative."""
    lam, t = Bipartition.of((2,), (2,)), 0
    one = Bipartition.of((1,), (1,))

    def defective(nu, t_):
        row = caps.inverse_row(nu, t_)
        return {**row, one: -7} if nu == one else row

    monkeypatch.setattr(grothendieck, "inverse_row", defective)
    n = lam.size
    product = B_matrix(n).mul(
        BipartitionMatrix(n, {nu: defective(nu, t) for nu in bipartitions_up_to(n)}))
    negative = {f"{v} at ({lam}, {mu})" for row, mu, v in product.items()
                if row == lam and v < 0}
    assert negative
    code, out, err = run(capsys, "decompose", "--t", str(t), str(lam))
    assert code == 1
    assert out == ""
    prefix, suffix = "internal inconsistency: negative tilting multiplicity ", f", t={t}"
    message = err.strip()
    assert message.startswith(prefix) and message.endswith(suffix)
    assert message[len(prefix):-len(suffix)] in negative


def test_homdim(capsys):
    code, out, _ = run(capsys, "homdim", "--t", "0", "[[1],[1]]", "[[1],[1]]")
    assert code == 0
    assert out.strip() == "2"


def test_eigen(capsys):
    code, out, _ = run(capsys, "eigen", "--t", "0", "[[],[]]", "[[1],[]]")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "eigen", "--t", "0", "[[1],[1]]", "[[1],[]]")
    assert code == 0
    assert out.strip() == "0 - t"
    code, out, _ = run(capsys, "eigen", "--t", "0", "[[],[]]", "[[1],[1]]")
    assert code == 0
    assert out.strip() == "absent"


def test_fock_word(capsys):
    code, out, _ = run(capsys, "fock", "--mode", "tensor", "--t", "0", "f0", "[[],[]]")
    assert code == 0
    assert "[[1],[]]: 1" in out
    code, out, _ = run(capsys, "fock", "--mode", "plain", "e0 f0", "[]")
    assert code == 0
    assert "[]: 1" in out


def test_fock_zero_result(capsys):
    code, out, _ = run(capsys, "fock", "--mode", "plain", "e0", "[]")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_fock_wedge_length_below_one_exits_2(capsys, n):
    code, out, err = run(capsys, "fock", "--mode", "wedge", "--n", n, "f0", "(1)")
    assert code == 2
    assert out == ""
    assert "--n must be at least 1" in err
    assert "Traceback" not in err


FOCK_SHA256 = "8171ba68445c57da4a9a786f4709b11b53c3a95505551ab9522c2f8d2459faf6"


def test_fock_output_is_pinned(capsys):
    """Every module of `fock` on five words and the small bases, in both
    formats, error exits included, hashes to a fixed digest."""
    partitions = [str(nu) for nu in partitions_up_to(3)]
    modes = [(["plain"], partitions), (["twisted"], partitions)]
    for t in ("-2", "0", "3", "generic"):
        modes.append((["shifted", f"--t={t}"], partitions))
    for t in ("-2", "0", "3", "generic"):
        modes.append((["tensor", f"--t={t}"], [str(bp) for bp in bipartitions_up_to(2)]))
    modes.append((["taut"], [str(i) for i in range(-2, 3)]))
    modes.append((["wedge", "--n", "3"], ["(2,1,0)", "(1,0,-1)", "(3,1,-2)"]))
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        for mode_args, starts in modes:
            for word in ("f0", "e0", "f-1 f0", "e1 f1", "f2 e-1 f0"):
                for start in starts:
                    argv = ["fock", "--mode", *mode_args, "--format", fmt, word, start]
                    code, out, err = run(capsys, *argv)
                    digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == FOCK_SHA256


PAIR_AND_LR_SHA256 = "b5ffab9ec3969f88856feb20a660656ea2e72e702e6367f29dff25a09bc68d2a"


def test_pair_and_lr_output_is_pinned(capsys):
    """`mult`, `homdim` and `eigen` on every pair of bipartitions of size at
    most 2, t in [-4, 4] and generic, and `lr` on every triple of partitions
    of size at most 3, in both formats, malformed input included, hash to a
    fixed digest."""
    bipartitions = [str(bp) for bp in bipartitions_up_to(2)] + ["nonsense", "[[1,0,1],[]]"]
    partitions = [str(nu) for nu in partitions_up_to(3)] + ["[x]"]
    digest = hashlib.sha256()

    def update(argv):
        code, out, err = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())

    for fmt in ("json", "text"):
        for cmd in ("mult", "homdim", "eigen"):
            for t in [*range(-4, 5), "generic"]:
                for lam in bipartitions:
                    for mu in bipartitions:
                        update([cmd, f"--t={t}", "--format", fmt, lam, mu])
        for lam in partitions:
            for mu in partitions:
                for kappa in partitions:
                    update(["lr", "--format", fmt, lam, mu, kappa])
    assert digest.hexdigest() == PAIR_AND_LR_SHA256


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "[3,2,1]", "[2,1]", "[2,1]")
    assert code == 0
    assert out.strip() == "2"


def test_bad_bipartition_exits_2(capsys):
    code, _, err = run(capsys, "mult", "--t", "0", "nonsense", "[[],[]]")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("lam", ["[[1,0,1],[]]", "[[0,1],[]]", "[[],[2,0,1]]"])
def test_interior_zero_row_exits_2(capsys, lam):
    code, out, err = run(capsys, "mult", "--t", "0", lam, "[[1,1],[]]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bad_t_exits_2(capsys):
    code, _, err = run(capsys, "diagram", "--t", "maybe", "[[],[]]")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["matrix", "--kind", "D", "--t", "0", "--max-size", "-1"],
    ["matrix", "--kind", "A", "--a", "0", "--t", "generic", "--max-size", "3"],
    ["verify", "--max-size", "-1"],
])
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


def test_generic_t_where_integer_needed(capsys):
    code, _, err = run(capsys, "caps", "--t", "generic", "[[],[]]")
    assert code == 2


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--t-range", "-1..1", "--max-size", "2",
                       "--seed", "0")
    assert code == 0
    assert "OK: " in out
    assert "FAIL" not in out.replace("FAILED", "")


def test_verify_negative_range_with_space(capsys):
    # a leading-dash range value must survive argparse
    code, out, _ = run(capsys, "verify", "--t-range", "-1..0", "--max-size", "1")
    assert code == 0


def test_verify_json_deterministic(capsys):
    args = ["verify", "--t-range", "-1..1", "--max-size", "2", "--seed", "3",
            "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 34


VERIFY_JSON_SHA256 = "e75f8c231f5c871be05eb9320b1ed22d0901e7bd24e107cb6b18bb7cb38cdfa1"


def test_default_verify_json_is_pinned(capsys):
    """`verify --format json` at its defaults (t in [-2, 2], max size 3,
    seed 0) hashes to a fixed digest."""
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "mult", "--t", "0", "[[1],[1]]", "[[],[]]",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["val"] == 1


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "diagram", "--out", str(target), "[[1],[1]]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_back_to_back_calls_share_no_state(capsys):
    lam = "[[2],[2]]"
    _, out_d, _ = run(capsys, "diagram", "--format", "json", "--t", "1", "--family", "d", lam)
    code, out, _ = run(capsys, "diagram", "--format", "json", "--t", "1", lam)
    assert code == 0
    assert json.loads(out_d)["family"] == "d"
    assert json.loads(out)["family"] == "dprime"
    assert run(capsys, "diagram", "--t", "maybe", lam)[0] == 2
    assert run(capsys, "diagram", "--t", "1", lam)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "--family", "nope", lam])
    assert exc.value.code == 2
    assert run(capsys, "diagram", lam)[0] == 0


# Tokens for the fuzz test: well-formed values of size at most 3 mixed with
# malformed and edge-case ones.
BIPARTITIONS = ["[[],[]]", "[[1],[1]]", "[[2,1],[]]", "[[],[1,1,1]]", "[[1],[2]]", "[[2],[1]]",
                "[[1,2],[]]", "[[],[0,1]]", "[[-1],[]]", "[[a],[]]", "[[1,],[]]", "[[1]]",
                "[[1],[1],[1]]", "[1]", "[[1] , [ 1 ]]", "", "[]", "[[],[]", "[[0_1],[]]"]
PARTITIONS = ["[]", "[1]", "[2,1]", "[1,1,1]", "[1,2]", "[0,1]", "[-1]", "[x]", "[1,]", "1", "", "[[1]]"]
T_VALUES = ["0", "1", "-3", "7", "generic", "GENERIC", "", "1.5", "+2", " -1", "0x1", "1_0", "nan"]
INTS = ["0", "1", "-1", "3", "-4", "", "x", "2.0", "1_0"]
SIZES = ["-1", "0", "1", "2", "3", "x", ""]
RANGES = ["-1..1", "0..0", "2..1", "-2..-1", "..", "1", "a..b", "0..1..2", "-1..", ""]
WORDS = ["f0", "e-1 f2", "f0 f0", "", "g0", "f", "e1x", "f-0", "e 1", "f0  e0"]
STARTS = ["[]", "[1]", "[[1],[]]", "0", "-2", "(2,1,0)", "(0,1)", "()", "x", "(1,1)"]


def _opt(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


def _argv():
    fmt = _opt("--format", ["text", "json", "xml"])
    t = _opt("--t", T_VALUES)
    bp = st.sampled_from(BIPARTITIONS)
    part = st.sampled_from(PARTITIONS)
    cases = [
        st.tuples(st.just(["diagram"]), fmt, t, _opt("--family", ["d", "dprime", "x"]), bp.map(lambda v: [v])),
        st.tuples(st.just(["caps"]), fmt, t, bp.map(lambda v: [v])),
        st.tuples(st.sampled_from([["mult"], ["homdim"], ["eigen"]]), fmt, t,
                  st.lists(bp, min_size=2, max_size=2)),
        st.tuples(st.just(["matrix"]), fmt, t,
                  st.sampled_from(["D", "Dinv", "B", "b", "atilde", "etilde", "A", "Q"]).map(
                      lambda v: ["--kind", v]),
                  _opt("--max-size", SIZES), _opt("--a", INTS), _opt("--family", ["integer", "shifted", "x"])),
        st.tuples(st.just(["decompose"]), fmt, t, bp.map(lambda v: [v])),
        st.tuples(st.just(["fock"]), fmt, t,
                  _opt("--mode", ["plain", "twisted", "shifted", "tensor", "taut", "wedge", "x"]),
                  _opt("--n", ["0", "1", "2", "3", "-1", "x"]),
                  st.tuples(st.sampled_from(WORDS), st.sampled_from(STARTS)).map(list)),
        st.tuples(st.just(["lr"]), fmt, st.lists(part, min_size=3, max_size=3)),
        st.tuples(st.just(["verify"]), fmt, _opt("--t-range", RANGES),
                  st.sampled_from(["-1", "0", "1", "x"]).map(lambda v: ["--max-size", v]),
                  _opt("--seed", INTS)),
        st.tuples(st.sampled_from([[], ["nope"], ["--help"], ["diagram", "--help"], ["lr", "[1]"],
                                   ["mult", "[[],[]]"]])),
    ]
    return st.one_of(cases).map(lambda parts: [tok for part in parts for tok in part])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzzed_command_lines_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
