import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtwist
import qtwist.frobdiv as frobdiv
from qtwist.cli import _json, build_parser, main
from qtwist.coordring import CoordPoly, SIDE_APRIME
from qtwist.divpow import DPElem
from qtwist.frobdiv import level_minus_one_ctx
from qtwist.verify import VerifyConfig

DATA = os.path.join(os.path.dirname(__file__), "data")
with open(os.path.join(DATA, "cli-outputs.json")) as _fh:
    PINNED_OUTPUTS = json.load(_fh)


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


def test_every_cmp_pin_parses_and_names_existing_files():
    from cmp_pins import pins

    root = os.path.dirname(os.path.dirname(__file__))
    rows = pins()
    assert len(rows) == 27 and len({expected for _, expected in rows}) == 27
    for argv, expected in rows:
        args = build_parser().parse_args(argv)
        assert args.format == "json" and os.path.isfile(os.path.join(root, expected)), argv
        assert not hasattr(args, "input") or os.path.isfile(os.path.join(root, args.input))


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(qtwist.__file__))
    out = subprocess.run([sys.executable, "-m", "qtwist", "coeffs", "--n-max", "0"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0 and out.stdout.startswith("coefficients for p = 2")


def test_parser_is_built_once_on_first_use():
    src = os.path.dirname(os.path.dirname(qtwist.__file__))
    script = ("import qtwist.cli as cli; built = cli.build_parser.cache_info().currsize; "
              "codes = [cli.main(['coeffs', '--n-max', '0']) for _ in range(3)]; "
              "print(built, cli.build_parser.cache_info().misses, codes)")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "0 1 [0, 0, 0]"


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


def test_undecodable_document_exits_two(tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes(b'{"side": "A\xff"}')
    for command in ("taylor", "frobenius"):
        code, out, err = run(capsys, command, str(doc), "--p", "2")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {doc}: ") and "decode" in err


@pytest.mark.parametrize("text, reason", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),   # deeper than the parser
    ('{"side": "A", "coeffs": [' + "1" * 5000 + "]}", "4300 digits"),  # past CPython's limit
], ids=["deep-nesting", "long-integer"])
def test_document_the_parser_cannot_hold_exits_two(tmp_path, capsys, text, reason):
    doc = tmp_path / "huge.json"
    doc.write_text(text)
    code, out, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse {doc}: ") and reason in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_results_past_the_digit_limit_of_inputs_are_written(tmp_path, capsys, fmt):
    # the x^2 coefficient has 4,300 digits, the most an input may have; D^<1> and D^<2>
    # multiply it by q-integers, so the expansion has coefficients with 4,301
    doc = tmp_path / "nines.json"
    doc.write_text(json.dumps(CoordPoly([0, 0, int("9" * 4300)]).to_json()))
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "taylor", str(doc), "--p", "3", "--n-max", "2", "--format", fmt)
    assert (code, err) == (0, "")
    assert "1" + "9" * 4299 + "8" in out          # 2 * (10^4300 - 1), 4,301 digits
    assert sys.get_int_max_str_digits() == cap


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


def _plant_membership_failure(monkeypatch):
    def u_of_twisted_power(n, p):
        raise frobdiv.MembershipError("planted: u leaves the localization")
    monkeypatch.setattr(frobdiv, "u_of_twisted_power", u_of_twisted_power)


def _plant_indivisible_delta(monkeypatch):
    qtwist.clear_caches()              # delta_iterates is memoized: rebuild it under the fault
    real = frobdiv.phi_dp
    monkeypatch.setattr(frobdiv, "phi_dp", lambda e: real(e) + DPElem.basis(e.ctx, 1))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command, plant, message", [
    ("u-check", _plant_membership_failure,
     "MembershipError: planted: u leaves the localization"),
    ("envelope-check", _plant_indivisible_delta,
     "NotDivisibleError: numerator coefficient 1 not divisible by 3")],
    ids=["u-check", "envelope-check"])
def test_a_failed_identity_is_a_report_in_the_requested_format(capsys, monkeypatch, command,
                                                               plant, message, fmt):
    plant(monkeypatch)
    try:
        code, out, err = run(capsys, command, "--p", "3", "--format", fmt)
    finally:
        qtwist.clear_caches()          # nothing built under the fault outlives it
    assert code == 1 and err == ""
    if fmt == "json":
        rep = json.loads(out)
        assert (rep["p"], rep["ok"], rep["error"]) == (3, False, message)
    else:
        assert out.splitlines()[-1] == f"FAILED: {message}"


def test_other_exceptions_of_a_check_still_exit_three(capsys, monkeypatch):
    import qtwist.cli as cli

    def broken(p, n_cap):
        raise ValueError("forced internal fault")

    monkeypatch.setattr(cli, "u_consistency_check", broken)
    code, out, err = run(capsys, "u-check", "--p", "3", "--format", "json")
    assert code == 3 and out == ""
    assert "internal error: ValueError: forced internal fault" in err


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


@pytest.mark.parametrize("argv,flag", [
    (["taylor", os.path.join(DATA, "taylor-a.json"), "--n-max", "-1"], "--n-max got -1"),
    (["envelope-check", "--r-max", "-2"], "--r-max got -2"),
    (["verify", "--suite", "qarith", "--trunc-N", "0"], "--trunc-N got 0"),
    (["verify", "--suite", "qarith", "--deg-d", "-3"], "--deg-d got -3"),
])
def test_bounds_error_names_the_flag_and_its_value(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--p", "2")
    assert code == 2
    assert out == ""
    assert "non-negative" in err and flag in err
    assert err.count("got") == 1


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


@pytest.mark.parametrize("coeff,message", [
    ({"num": "12", "den": ["1"]},
     "coeffs[0].num: a q-polynomial is an array of decimal strings, got '12'"),
    ({"num": ["1"], "den": ["1", "x"]},
     "coeffs[0].den: a q-polynomial is an array of decimal strings, got ['1', 'x']"),
])
def test_taylor_names_the_malformed_q_polynomial(tmp_path, capsys, coeff, message):
    doc = tmp_path / "malformed.json"
    doc.write_text(json.dumps({"side": "A", "coeffs": [coeff]}))
    code, out, err = run(capsys, "taylor", str(doc), "--p", "2")
    assert (code, out) == (2, "")
    assert err == f"error: not a coordinate-polynomial document: {message}\n"


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


@pytest.mark.parametrize("field,value,message", [
    ("qexp", 0, "qexp must be at least 1, got 0"),
    ("cap", -1, "cap must be at least 0, got -1"),
    ("y_mode", "standard", "the standard algebra at this twist is the level 0 context "
                           "{'p': 3, 'm': 0, 'y_mode': 'level', 'side': \"A'\", 'qexp': 3,"),
])
def test_frobenius_rejects_a_context_outside_the_algebras(tmp_path, capsys, field, value, message):
    with open(os.path.join(DATA, "level-minus-one-p3.json")) as f:
        doc_json = json.load(f)
    doc_json["ctx"][field] = value
    doc = tmp_path / "ctx.json"
    doc.write_text(json.dumps(doc_json))
    code, out, err = run(capsys, "frobenius", str(doc), "--p", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: not a divided-power document: ") and message in err


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


def _retype_context(doc, field, value):
    doc["ctx"][field] = value


def _rekey_term(doc, key):
    doc["terms"][key] = doc["terms"].pop("1")


@pytest.mark.parametrize("edit", [
    lambda d: _retype_context(d, "p", 3.0),
    lambda d: _retype_context(d, "m", 1.0),
    lambda d: _retype_context(d, "qexp", 1.0),
    lambda d: _retype_context(d, "cap", 16.5),
    lambda d: d.update(terms=[]),
    lambda d: _rekey_term(d, "0_1"),
    lambda d: _rekey_term(d, " 1"),
    lambda d: _rekey_term(d, "+1"),
    lambda d: _rekey_term(d, "\uff11"),
    lambda d: d["terms"].update({"03": d["terms"]["1"]}),
    lambda d: d["terms"].update({"03": d["terms"].pop("3")}),
    lambda d: d["terms"].update({"-0": d["terms"].pop("0")}),
], ids=["float-p", "float-m", "float-qexp", "float-cap", "terms-array",
        "key-underscore", "key-space", "key-plus", "key-fullwidth-digit",
        "key-leading-zero-beside-canonical", "key-leading-zero", "key-minus-zero"])
def test_frobenius_rejects_malformed_document(tmp_path, capsys, edit):
    with open(os.path.join(DATA, "level-minus-one-p3.json")) as f:
        doc_json = json.load(f)
    edit(doc_json)
    doc = tmp_path / "malformed.json"
    doc.write_text(json.dumps(doc_json))
    code, out, err = run(capsys, "frobenius", str(doc), "--p", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: not a divided-power document: ")


def _level_minus_one_p3(edit):
    with open(os.path.join(DATA, "level-minus-one-p3.json")) as f:
        doc = json.load(f)
    edit(doc)
    return doc


@pytest.mark.parametrize("command,doc,message", [
    ("taylor", {"side": "A", "coeffs": [{"num": ["1"]}]},
     'not a coordinate-polynomial document: coeffs[0]: missing "den"'),
    ("taylor", {"side": "A", "coeffs": ["1"]},
     "not a coordinate-polynomial document: coeffs[0]: expected an object, got str"),
    ("taylor", {"side": "A", "coeffs": {"0": {"num": ["1"], "den": ["1"]}}},
     "not a coordinate-polynomial document: coeffs: expected an array, got dict"),
    ("taylor", [{"num": ["1"], "den": ["1"]}],
     "not a coordinate-polynomial document: expected an object, got list"),
    ("frobenius", _level_minus_one_p3(lambda d: d["ctx"].pop("y_mode")),
     'not a divided-power document: ctx: missing "y_mode"'),
    ("frobenius", _level_minus_one_p3(lambda d: d.update(ctx=[3, 1])),
     "not a divided-power document: ctx: expected an object, got list"),
    ("frobenius", _level_minus_one_p3(lambda d: d["terms"]["1"]["coeffs"][1].pop("den")),
     'not a divided-power document: terms["1"].coeffs[1]: missing "den"'),
    ("frobenius", _level_minus_one_p3(lambda d: d.pop("terms")),
     'not a divided-power document: missing "terms"'),
], ids=["coefficient-without-den", "coefficient-string", "coeffs-object", "document-array",
        "ctx-without-y-mode", "ctx-array", "term-coefficient-without-den", "no-terms"])
def test_malformed_document_error_names_the_path(tmp_path, capsys, command, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), "--p", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_frobenius_rejects_repeated_key(tmp_path, capsys):
    # json.load keeps the last of two equal keys; the document must not name an index twice
    with open(os.path.join(DATA, "level-minus-one-p3.json")) as f:
        doc_json = json.load(f)
    terms = doc_json.pop("terms")
    pairs = [*terms.items(), ("3", terms["1"])]
    text = json.dumps(doc_json)[:-1] + ', "terms": {' + ", ".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}}"
    doc = tmp_path / "repeated.json"
    doc.write_text(text)
    code, out, err = run(capsys, "frobenius", str(doc), "--p", "3", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: repeated key '3' in an object of ")


def test_out_to_unwritable_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, "coeffs", "--n-max", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "internal error" not in err and not target.exists()


@pytest.mark.parametrize("pinned", PINNED_OUTPUTS, ids=lambda e: " ".join(e["argv"]))
def test_pinned_output(monkeypatch, capsys, pinned):
    # argv paths are relative to the repository root; the parser is shared, so run twice
    monkeypatch.chdir(os.path.dirname(os.path.dirname(DATA)))
    for _ in range(2):
        assert run(capsys, *pinned["argv"]) == (pinned["exit"], pinned["stdout"], pinned["stderr"])


# strings with quotes, backslashes, control characters, line separators and
# characters outside the BMP, next to whatever text hypothesis draws
JSON_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t", "é", "\u2028", "😀"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30)


@given(JSON_VALUES | st.lists(st.from_regex(r"-?[0-9]{1,30}", fullmatch=True), max_size=6))
@example(["12", "-3", ""])
@example(["1", "\x7f"])
@example(["a", '"', "b"])
@example(["\\", "x"])
@example(["\x00", "\x1f", "\n\t", "ok"])
@example(["é", "\u2028", "😀", "ok"])
@example(["1", 2, "3"])
@example([1, "2"])
@example({"num": ["1", "2"], "den": [["1"], [], [2, "x"]]})
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_indented_json_dumps(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, (1,), {"a": [1, {"b": 2.0}]}, {1: "x"}])
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _json(obj)


def test_unserializable_report_exits_three(capsys, monkeypatch):
    import qtwist.cli as cli

    monkeypatch.setattr(cli, "u_consistency_check", lambda p, n_max: {"ok": 0.5})
    code, out, err = run(capsys, "u-check", "--p", "2", "--format", "json")
    assert code == 3 and out == ""
    assert "internal error: TypeError" in err
