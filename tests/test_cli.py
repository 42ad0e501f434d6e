import json

import pytest

from gltcomb.cli import main


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


def test_caps_output(capsys):
    code, out, _ = run(capsys, "caps", "--t", "0", "[[],[]]")
    assert code == 0
    assert "caps:" in out
    assert "(-1,0)" in out


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


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--t", "0", "[[2,1],[2,1]]")
    assert code == 0
    assert "[[1],[1]]: 1" in out
    assert "[[2,1],[2,1]]: 1" in out
    assert "[[],[]]" not in out


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


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "[3,2,1]", "[2,1]", "[2,1]")
    assert code == 0
    assert out.strip() == "2"


def test_bad_bipartition_exits_2(capsys):
    code, _, err = run(capsys, "mult", "--t", "0", "nonsense", "[[],[]]")
    assert code == 2
    assert "error" in err


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "mult", "--t", "0", "[[1],[1]]", "[[],[]]",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["val"] == 1
