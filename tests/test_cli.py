import dataclasses
import json
import os
import subprocess
import sys

import pytest

import qtwist
from qtwist.cli import build_parser, main
from qtwist.coordring import CoordPoly, SIDE_APRIME
from qtwist.divpow import DPElem
from qtwist.frobdiv import level_minus_one_ctx
from qtwist.verify import VerifyConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_examples(capsys):
    code, out, _ = run(capsys, "coeffs", "--p", "2", "--n-max", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,i,a,b,unit_at_top"
    assert "2,1,1,1 + q,1," in lines
    assert "2,1,2,1,1,True" in lines


def test_coeffs_single_row(capsys):
    code, out, _ = run(capsys, "coeffs", "--p", "3", "--n-max", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{
        "n": 0, "i": 0, "a": ["1"], "b": {"num": ["1"], "den": ["1"]},
        "a_str": "1", "b_str": "1", "unit_at_top": True}]


def test_coeffs_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "coeffs", "--p", "4")
    assert code == 2
    assert "must be one of" in err


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "qarith", "--p", "2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0
    assert report["config"]["suite"] == "qarith"
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    for c in report["checks"]:
        assert set(c) == {"id", "ref", "status", "detail"}


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "qarith", "--p", "3", "--seed", "42",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_defaults_are_verify_config_defaults():
    args = vars(build_parser().parse_args(["verify"]))
    shared = {f.name for f in dataclasses.fields(VerifyConfig)} & set(args)
    assert shared == {"p", "m", "n_max", "trunc_N", "deg_d", "seed"}
    assert VerifyConfig(**{name: args[name] for name in shared}) == VerifyConfig()


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(qtwist.__file__))
    out = subprocess.run([sys.executable, "-m", "qtwist", "coeffs", "--n-max", "0"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0 and out.stdout.startswith("coefficients for p = 2")


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    import qtwist.verify as verify
    broken = dict(verify.SUITES)
    broken["qarith"] = [("qarith.always-wrong", "forced failure",
                         lambda cfg: (False, "forced"))]
    monkeypatch.setattr(verify, "SUITES", broken)
    code, out, _ = run(capsys, "verify", "--suite", "qarith", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["failed"] == 1
    assert report["checks"][0]["status"] == "fail"


def test_taylor_example(tmp_path, capsys):
    doc = tmp_path / "x.json"
    doc.write_text(json.dumps(CoordPoly.x().to_json()))
    code, out, _ = run(capsys, "taylor", str(doc), "--n-max", "3",
                       "--p", "2", "--m", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"].keys() == {"0", "1"}
    assert payload["terms"]["1"]["coeffs"] == [{"num": ["1", "1"], "den": ["1"]}]


def test_taylor_of_constant(tmp_path, capsys):
    doc = tmp_path / "one.json"
    doc.write_text(json.dumps(CoordPoly(1).to_json()))
    code, out, _ = run(capsys, "taylor", str(doc), "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"].keys() == {"0"}


def test_taylor_parse_error_position(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"side": "A",')
    code, _, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert code == 2
    assert "line" in err and "column" in err


def test_frobenius_example(tmp_path, capsys):
    ctx = level_minus_one_ctx(2, SIDE_APRIME)
    doc = tmp_path / "w.json"
    doc.write_text(json.dumps(DPElem.basis(ctx, 1).to_json()))
    code, out, _ = run(capsys, "frobenius", str(doc), "--p", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"].keys() == {"1", "2"}
    assert payload["terms"]["1"]["coeffs"] == [
        {"num": [], "den": ["1"]}, {"num": ["1"], "den": ["1"]}]


def test_frobenius_rejects_wrong_level(tmp_path, capsys):
    from qtwist.frobdiv import level_zero_ctx
    doc = tmp_path / "xi.json"
    doc.write_text(json.dumps(DPElem.basis(level_zero_ctx(2), 1).to_json()))
    code, _, err = run(capsys, "frobenius", str(doc), "--p", "2")
    assert code == 2
    assert "level -1" in err
    doc_json = DPElem.basis(level_minus_one_ctx(2, SIDE_APRIME), 1).to_json()
    doc_json["ctx"]["qexp"] = 2
    doc.write_text(json.dumps(doc_json))
    code, _, err = run(capsys, "frobenius", str(doc), "--p", "2")
    assert code == 2
    assert "level -1" in err


def test_envelope_check_cli(capsys):
    code, out, _ = run(capsys, "envelope-check", "--p", "2", "--r-max", "1",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and rep["rows"][1]["c"] == "q"


def test_u_check_cli(capsys):
    code, out, _ = run(capsys, "u-check", "--p", "2", "--n-max", "2")
    assert code == 0
    assert "ok" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "qarith", "--p", "2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["failed"] == 0


def test_envelope_check_default_r_max(capsys):
    code, out, _ = run(capsys, "envelope-check", "--p", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["r_max"] == 1


def test_u_check_default_n_cap_is_p(capsys):
    code, out, _ = run(capsys, "u-check", "--p", "3", "--format", "json")
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["kills-divided-frobenius"]["detail"].startswith("indices 1..3:")
    code, _, err = run(capsys, "u-check", "--p", "3", "--n-max", "0")
    assert code == 2 and "at least 1" in err


def test_unread_flags_are_rejected(capsys):
    for argv in (["coeffs", "--seed", "1"],
                 ["taylor", "one.json", "--format", "csv"],
                 ["frobenius", "one.json", "--format", "csv"],
                 ["envelope-check", "--format", "csv"],
                 ["u-check", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_verify_counts_skips_apart_from_passes(capsys, monkeypatch):
    import qtwist.verify as verify
    suites = dict(verify.SUITES)
    suites["qarith"] = [("qarith.always-true", "forced pass", lambda cfg: (True, "ok")),
                        ("qarith.not-applicable", "forced skip",
                         lambda cfg: (None, "not applicable"))]
    monkeypatch.setattr(verify, "SUITES", suites)
    code, out, _ = run(capsys, "verify", "--suite", "qarith", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert (report["passed"], report["skipped"], report["failed"]) == (1, 1, 0)
    assert [c["status"] for c in report["checks"]] == ["pass", "skip"]
    code, out, _ = run(capsys, "verify", "--suite", "qarith")
    assert code == 0
    assert out.splitlines()[-1] == "1 passed, 1 skipped, 0 failed"


def test_envelope_check_rejects_negative_r_max(capsys):
    code, out, err = run(capsys, "envelope-check", "--p", "2", "--r-max", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_taylor_rejects_coefficient_outside_localization(tmp_path, capsys):
    doc = tmp_path / "half.json"
    doc.write_text(json.dumps({"side": "A", "coeffs": [
        {"num": ["1"], "den": ["1"]}, {"num": ["1"], "den": ["1", "1"]}]}))
    code, _, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert code == 2
    assert "coefficient 1 " in err and "localization" in err
    code, _, _ = run(capsys, "taylor", str(doc), "--p", "3", "--n-max", "1")
    assert code == 0


def test_frobenius_rejects_coefficient_outside_localization(tmp_path, capsys):
    doc_json = DPElem.basis(level_minus_one_ctx(2, SIDE_APRIME), 1).to_json()
    doc_json["terms"]["1"]["coeffs"] = [{"num": ["1"], "den": ["2"]}]
    doc = tmp_path / "half.json"
    doc.write_text(json.dumps(doc_json))
    code, _, err = run(capsys, "frobenius", str(doc), "--p", "2")
    assert code == 2
    assert "term 1, coefficient 0 " in err and "localization" in err


def test_taylor_rejects_zero_denominator(tmp_path, capsys):
    doc = tmp_path / "zero-den.json"
    doc.write_text(json.dumps({"side": "A", "coeffs": [{"num": ["1"], "den": ["0"]}]}))
    code, _, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert code == 2
    assert "zero denominator" in err


def test_frobenius_rejects_negative_index(tmp_path, capsys):
    doc_json = DPElem.basis(level_minus_one_ctx(2, SIDE_APRIME), 1).to_json()
    doc_json["terms"] = {"-1": doc_json["terms"]["1"]}
    doc = tmp_path / "negative.json"
    doc.write_text(json.dumps(doc_json))
    code, _, err = run(capsys, "frobenius", str(doc), "--p", "2")
    assert code == 2
    assert "negative" in err


def test_taylor_rejects_pullback_side(tmp_path, capsys):
    doc = tmp_path / "xprime.json"
    doc.write_text(json.dumps(CoordPoly.x(SIDE_APRIME).to_json()))
    code, out, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and '"side"' in err


def test_frobenius_rejects_image_above_cap(tmp_path, capsys):
    ctx = level_minus_one_ctx(5, SIDE_APRIME)
    assert ctx.cap == 16
    doc = tmp_path / "w4.json"
    doc.write_text(json.dumps(DPElem.basis(ctx, 4).to_json()))
    code, out, err = run(capsys, "frobenius", str(doc), "--p", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "cap" in err and "at least 20" in err
    doc_json = DPElem.basis(ctx, 4).to_json()
    doc_json["ctx"]["cap"] = 20
    doc.write_text(json.dumps(doc_json))
    code, _, _ = run(capsys, "frobenius", str(doc), "--p", "5")
    assert code == 0


def test_internal_error_exits_three(capsys, monkeypatch):
    import qtwist.cli as cli
    from qtwist.coordring import SideMismatchError

    def broken(name, cfg):
        raise SideMismatchError("forced internal fault")

    monkeypatch.setattr(cli, "run_suite", broken)
    code, out, err = run(capsys, "verify", "--suite", "qarith")
    assert code == 3
    assert out == ""
    assert "internal error: SideMismatchError: forced internal fault" in err


@pytest.mark.parametrize("num", [[1.7], [True], "12", ["1_0"], [" 7"]],
                         ids=["float", "bool", "string", "underscore", "space"])
def test_taylor_rejects_non_integer_coefficients(tmp_path, capsys, num):
    doc = tmp_path / "malformed.json"
    doc.write_text(json.dumps({"side": "A", "coeffs": [{"num": num, "den": ["1"]}]}))
    code, out, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "decimal strings" in err


def test_out_to_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, "coeffs", "--n-max", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "internal error" not in err and not target.exists()
