import importlib.util
import json
import os

import pytest

SCALE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "scale.py")


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rung_builds_and_checks_every_layer(scale, capsys):
    result = scale.rung(6)
    assert result["failures"] == []
    assert set(result["layer_seconds"]) == {"D", "Dinv", "B", "b", "A", "dimension-oracle"}
    # One line per finished layer, in order, before the caller's result line.
    printed = capsys.readouterr().out
    assert [json.loads(line)["layer"] for line in printed.splitlines()] == list(scale.LAYERS)
    assert scale.partial_rung(printed) == {"layer_seconds": result["layer_seconds"], "stopped_in": None}


def test_rung_counts_nonzeros_from_rows_as_json_does(scale):
    from gltcomb import caps, grothendieck, lr

    n = 6
    layers = {
        "D": [caps.D_matrix(t, n) for t in scale.T_VALUES],
        "Dinv": [caps.D_inverse(t, n) for t in scale.T_VALUES],
        "B": [lr.B_matrix(n - 1)],
        "b": [grothendieck.b_matrix(t, n - 1) for t in scale.T_VALUES],
        "A": [grothendieck.a_matrix(a, t, n - 1) for t in scale.T_VALUES for a in scale.A_VALUES],
    }
    from_json = {name: sum(len(m.to_json()["entries"]) for m in mats) for name, mats in layers.items()}
    assert scale.rung(n)["nnz"] == from_json


def test_partial_rung_names_the_unfinished_layer(scale):
    # The raw bytes a stopped child left, its last line cut off mid-write.
    stdout = b'{"layer": "D", "seconds": 1.5}\n{"layer": "Dinv", "seconds": 0.25}\n{"layer": "B", "sec'
    assert scale.partial_rung(stdout) == {"layer_seconds": {"D": 1.5, "Dinv": 0.25}, "stopped_in": "B"}
    assert scale.partial_rung(None)["stopped_in"] == "D"
