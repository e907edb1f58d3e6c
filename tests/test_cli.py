import io
import json
import math

import pytest

from loopsurf.cli import run
from loopsurf.embed import mesh_invariants, parse_obj


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _assert_finite(node):
    if isinstance(node, dict):
        for v in node.values():
            _assert_finite(v)
    elif isinstance(node, list):
        for v in node:
            _assert_finite(v)
    elif isinstance(node, float):
        assert math.isfinite(node)


def test_classify_torus():
    code, out, err = invoke("classify", "abAB")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["name"] == "torus"
    assert payload["euler_char"] == 0 and payload["orientable"]
    _assert_finite(payload)


def test_classify_illegal_character():
    code, out, err = invoke("classify", "a1b")
    assert code == 2
    assert err == "error: illegal character '1'\n"
    assert out == ""


def test_mesh_writes_obj_and_reports_invariants(tmp_path):
    target = tmp_path / "m.obj"
    code, out, err = invoke("mesh", "mobius", "--resolution", "16",
                            "--out", str(target))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["chi"] == 0 and payload["boundary_loops"] == 1
    assert payload["orientable"] is False
    reparsed = mesh_invariants(parse_obj(str(target)))
    assert reparsed.V == payload["V"] and reparsed.F == payload["F"]


def test_mesh_without_out_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke("mesh", "torus", "--resolution", "8")
    assert code == 0
    assert json.loads(out)["V"] == 64
    assert list(tmp_path.iterdir()) == []


def test_mesh_unknown_scheme():
    code, _, err = invoke("mesh", "klein", "--resolution", "8")
    assert code == 2
    assert err.startswith("error: unknown scheme")


def test_mesh_bad_resolution():
    code, _, err = invoke("mesh", "torus", "--resolution", "2")
    assert code == 2
    assert ">= 3" in err


def test_encode_mobius():
    code, out, _ = invoke("encode", "mobius", "0.1", "0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == pytest.approx(0.15, abs=1e-12)
    assert payload["v"] == pytest.approx(0.05, abs=1e-12)
    assert len(payload["embedding"]) == 3
    _assert_finite(payload)


def test_encode_pinched_pole():
    code, out, _ = invoke("encode", "pinched-sphere", "1", "0.4")
    payload = json.loads(out)
    assert code == 0 and payload["pole"] is True
    assert payload["embedding"] == [0.0, 0.0, 0.0]


def test_encode_out_of_domain():
    code, _, err = invoke("encode", "pinched-sphere", "1.5", "0.4")
    assert code == 2 and err.startswith("error: ")


def test_decode_roundtrips_encode():
    code, out, _ = invoke("encode", "mobius", "0.9", "0.1")
    q = json.loads(out)
    code2, out2, _ = invoke("decode", "mobius", repr(q["u"]), repr(q["v"]))
    assert code2 == 0
    pair = json.loads(out2)["pair"]
    assert sorted(pair) == pytest.approx([0.1, 0.9], abs=1e-12)


def test_decode_rejects_non_canonical():
    code, _, err = invoke("decode", "mobius", "0.9", "0.3")
    assert code == 2 and "canonical" in err


def test_rect_circle_found():
    code, out, _ = invoke("rect", "--curve", "circle:1", "--grid", "32",
                          "--tol", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert len(payload["pairs"]) == 2 and len(payload["vertices"]) == 4
    assert payload["midpoint_residual"] <= 1e-9
    _assert_finite(payload)


def test_rect_not_found_is_success():
    code, out, _ = invoke("rect", "--curve", "circle:1", "--grid", "16",
                          "--tol", "1e-12", "--min-sep", "0.69")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False
    assert "best_residual" in payload


def test_rect_bad_curve_spec():
    code, _, err = invoke("rect", "--curve", "blob:1", "--grid", "32",
                          "--tol", "1e-6")
    assert code == 2 and "bad curve spec" in err


def test_rect_missing_file_is_data_error(tmp_path):
    code, _, err = invoke("rect", "--curve", f"file:{tmp_path}/nope.csv",
                          "--grid", "32", "--tol", "1e-6")
    assert code == 3 and err.startswith("error: ")


def test_rect_bad_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code, _, err = invoke("rect", "--curve", f"file:{bad}", "--grid", "32",
                          "--tol", "1e-6")
    assert code == 3 and "degenerate polygon" in err


def test_curve_sample_csv(tmp_path):
    code, out, _ = invoke("curve-sample", "--curve", "circle:2", "--n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 9
    for line in lines[1:]:
        x, y = map(float, line.split(","))
        assert abs(math.hypot(x, y) - 2.0) < 1e-12


def test_curve_sample_overflowing_perimeter_is_data_error():
    code, out, err = invoke("curve-sample", "--curve", "ellipse:1e300,1", "--n", "2")
    assert code == 3 and "perimeter is not finite" in err
    assert out == ""


def test_rect_infinite_tol_is_usage_error():
    code, out, err = invoke("rect", "--curve", "circle:1", "--grid", "16", "--tol", "inf")
    assert code == 2
    assert err == "error: tol must be positive and finite, got inf\n"
    assert out == ""


def test_curve_sample_roundtrip_through_file(tmp_path):
    code, out, _ = invoke("curve-sample", "--curve", "ellipse:2,1", "--n", "64")
    path = tmp_path / "loop.csv"
    path.write_text(out)
    code2, out2, _ = invoke("rect", "--curve", f"file:{path}", "--grid", "32",
                            "--tol", "1e-4")
    assert code2 == 0
    assert json.loads(out2)


def test_unknown_subcommand():
    code, _, err = invoke("扭")
    assert code == 2 and err.startswith("error: ")


def test_determinism_byte_identical():
    for argv in (("classify", "abABcdCD"),
                 ("encode", "torus", "1.7", "-0.3"),
                 ("rect", "--curve", "ellipse:2,1", "--grid", "32",
                  "--tol", "1e-6")):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
