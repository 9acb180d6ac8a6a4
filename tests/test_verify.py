import json
import os

import pytest

import qtwist.coordring as cr
from qtwist import verify
from qtwist.coordring import CoordPoly
from qtwist.verify import VerifyConfig, check_phi_multiplicative, run_suite

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("first_bad", [0, 3])
def test_planted_fault_fails_at_the_first_bad_case(monkeypatch, first_bad):
    real = cr.phi_abs
    calls = []

    def phi_abs(f, p):                 # three calls per sample: phi(fg), phi(f), phi(g)
        calls.append(f)
        out = real(f, p)
        return out + CoordPoly(1) if len(calls) > 3 * first_bad else out

    monkeypatch.setattr(cr, "phi_abs", phi_abs)
    assert check_phi_multiplicative(VerifyConfig()) == (
        False, f"phi(fg) != phi(f)phi(g) at sample {first_bad}")
    assert len(calls) == 3 * (first_bad + 1)


def test_runner_reports_raises_and_skips_and_goes_on(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})
    drawn = []

    @verify.check("qarith.raises", "raises after one good case")
    def _(cfg, rng):
        yield "never", 1, 1
        raise ZeroDivisionError("planted")

    @verify.check("qarith.skips", "not applicable")
    def _(cfg, rng):
        if cfg.p == 2:
            return None, "skipped at p = 2"
        yield "never", 0, 1

    @verify.check("qarith.draws", "draws from its own stream")
    def _(cfg, rng):
        drawn.append(rng.random())
        yield "equal", 2, 2
        return True, "ran"

    @verify.check("qarith.plain", "returns its verdict directly")
    def _(cfg, rng):
        return True, "no cases"

    assert list(verify.SUITES) == ["qarith"]
    assert [cid for cid, _, _ in verify.SUITES["qarith"]] == [
        "qarith.raises", "qarith.skips", "qarith.draws", "qarith.plain"]
    results = run_suite("qarith", VerifyConfig())
    assert [(r["id"], r["status"], r["detail"]) for r in results] == [
        ("qarith.draws", "pass", "ran"),
        ("qarith.plain", "pass", "no cases"),
        ("qarith.raises", "fail", "exception: ZeroDivisionError: planted"),
        ("qarith.skips", "skip", "skipped at p = 2"),
    ]
    assert drawn == [VerifyConfig().rng("qarith.draws").random()]


def test_registry_matches_the_pinned_report():
    with open(os.path.join(DATA, "verify-all-p2.json")) as fh:
        pinned = [(c["id"], c["ref"]) for c in json.load(fh)["checks"]]
    registered = [(cid, ref) for suite in verify.SUITES.values() for cid, ref, _ in suite]
    assert sorted(registered) == pinned
    assert all(cid.split(".")[0] == name
               for name, suite in verify.SUITES.items() for cid, _, _ in suite)
