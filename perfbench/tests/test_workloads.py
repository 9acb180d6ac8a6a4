"""Input generators, output checks and the qtwist instrumentation."""

import json
import os

import pytest

import layers
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def mods():
    return layers.load_modules()


def test_cli_inputs_depend_only_on_the_seed():
    a = workloads.cli_inputs(7, "w")
    assert a == workloads.cli_inputs(7, "w")
    assert a != workloads.cli_inputs(8, "w")
    assert len(a[1]) == workloads.CLI_REQUESTS_PER_PASS


def test_verify_inputs_are_fixed_configurations():
    cfg, ids, expected = workloads.verify_inputs("verify-p2")
    assert cfg["seed"] == workloads.VERIFY_SEED and len(ids) == 44 == len(expected)
    cfg, ids, expected = workloads.verify_inputs("frobdiv-p5")
    assert len(ids) == 11 and cfg["p"] == 5
    assert [cid for cid, s in expected.items() if s == "skip"] == list(workloads.P2_ONLY_IDS)


def test_generated_documents_are_valid(mods):
    docs, requests = workloads.cli_inputs(11, "w")
    for path, doc in docs.items():
        p = int(path.split("-p")[1].split("-")[0])
        if "ctx" in doc:
            elem = mods["divpow"].DPElem.from_json(doc)
            assert elem.ctx.cap >= p * max(elem.terms)
            polys = elem.terms.values()
        else:
            polys = [mods["coordring"].CoordPoly.from_json(doc)]
        for f in polys:
            assert all(c.in_localization(p) for c in f.coeffs)
    assert {r["kind"] for r in requests} == set(workloads.CLI_COUNTS)


def _run_cli(mods, tmp_path, n):
    docs, requests = workloads.cli_inputs(5, str(tmp_path))
    workloads.write_documents(docs)
    requests = requests[:n]
    return docs, requests, workloads.cli_pass(mods["cli"].main, requests, {})


def test_cli_check_flags_a_tampered_response(mods, tmp_path):
    docs, requests, responses = _run_cli(mods, tmp_path, 40)
    assert workloads.cli_failures(mods, requests, docs, responses) == []
    k = next(i for i, r in enumerate(requests) if r["kind"] == "taylor")
    rc, text, dt = responses[k]
    doc = json.loads(text)
    first = next(iter(doc["terms"].values()))
    first["coeffs"][0]["num"][0] = str(int(first["coeffs"][0]["num"][0]) + 1)
    tampered = list(responses)
    tampered[k] = (rc, json.dumps(doc), dt)
    assert workloads.cli_failures(mods, requests, docs, tampered) == [k]
    tampered[k] = (2, text, dt)                 # right text, non-zero exit
    assert workloads.cli_failures(mods, requests, docs, tampered) == [k]


def test_verify_check_flags_a_missing_id_and_a_wrong_status(mods):
    cfg = mods["verify"].VerifyConfig(p=2)
    ids = ("qarith.pascal-recurrences", "no-such.check")
    results = workloads.verify_pass(mods["verify"], cfg, ids)
    assert results[1][:2] == ("no-such.check", "missing")
    expected = {cid: "pass" for cid in ids}
    assert workloads.verify_failures(results, expected) == ["no-such.check"]
    assert workloads.verify_failures(results, {"qarith.pascal-recurrences": "skip"}) == [
        "qarith.pascal-recurrences"]


def test_instrument_wraps_by_name_imports_and_restores(mods):
    bindings = (("diffcalc", "q_derivative"), ("connect", "q_derivative"),
                ("cli", "divided_frobenius"), ("cli", "taylor"))
    originals = {(m, name): getattr(mods[m], name) for m, name in bindings}
    t = Tracer()
    inst = layers.Instrument(t, mods)
    inst.install()
    try:
        for (m, name), fn in originals.items():
            assert getattr(mods[m], name) is not fn
        qa = mods["qarith"]
        x = qa.LocScalar(qa.QPoly([1, 1]), qa.QPoly([1, 0, 1]))
        f = mods["coordring"].CoordPoly([x * x + x, 1])
        g = f * f
        assert t.totals()["coordring.mul"][0] == 1 and inst.stats["coordring.term_pairs"] == 4
        mods["diffcalc"].taylor(g, 2, 2, 1)
        counters = inst.counters()
    finally:
        t.restore()
    totals = t.totals()
    assert totals["qarith.scalar_mul"][0] >= 2 and totals["qarith.scalar_add"][0] >= 1
    assert totals["diffcalc.taylor"][0] == 1
    assert "__add__" not in vars(qa.LocScalar)
    for (m, name), fn in originals.items():
        assert getattr(mods[m], name) is fn
    metrics = layers.per_layer_metrics(totals, counters, workloads.VERIFY_IDS, {})
    assert 0.0 <= metrics["qarith.scalar.integral_share"] <= 1.0


def test_benchmark_json_lists_the_per_layer_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "..", "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    zero = {"poly_mul.large": 0, "scalar.integral": 0, "coordring.term_pairs": 0,
            "qarith.memo_entries": 0, "frobdiv.memo_entries": 0,
            "frobdiv.coeff_b.hit_ratio": 0.0}
    names = set(layers.per_layer_metrics({}, zero, workloads.VERIFY_IDS, {}))
    names |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "host.reference_ms"}
    assert names == {m["name"] for m in spec["per_layer"]}
