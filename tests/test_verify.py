import json
import os

import pytest

import qtwist.coordring as cr
import qtwist.divpow as dp
import qtwist.frobdiv as fd
import qtwist.qarith as qa
from qtwist import verify
from qtwist.coordring import CoordPoly
from qtwist.verify import (VerifyConfig, check_factorial_frobenius,
                           check_phi_multiplicative, run_suite)

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


def test_factorial_check_catches_a_faulty_stretch(monkeypatch):
    real = qa.QPoly.stretch

    def stretch(self, k):              # drops the top coefficient from 8 coefficients on
        out = real(self, k)
        return out if len(self.coeffs) < 8 else qa.QPoly(out.coeffs[:-1])

    monkeypatch.setattr(qa.QPoly, "stretch", stretch)
    assert check_factorial_frobenius(VerifyConfig()) == (False, "q -> q^2 fails on factorial 5")


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


@pytest.mark.parametrize("check, module, name, first", [
    ("check_blowup_multiplicative", dp, "blowup",
     "blow-up not multiplicative at m=1, (0,0)"),
    ("check_base_change_multiplicative", dp, "frobenius_base_change",
     "base change not multiplicative at (0,0)"),
    ("check_divf_multiplicative", fd, "divided_frobenius",
     "divided Frobenius not multiplicative at (0,0)"),
    # the two lift checks test their b-rows first, through the patched map (phi_dp = blowup
    # o phi_std), so a b-row fails before any pair
    ("check_phi_dp_multiplicative", fd, "phi_std",
     "lift disagrees with the (p)_q^i b-row at n=0"),
    ("check_phi_level_zero_formula", fd, "phi_level_zero",
     "composite lift disagrees with (p)_q^n b-row at n=0"),
])
def test_doubled_ring_map_fails_at_the_first_case(monkeypatch, check, module, name, first):
    # 2F is additive but not multiplicative: 2F(1 * 1) = 2 != 4 = 2F(1) 2F(1)
    real = getattr(module, name)

    def doubled(e, *rest):
        image = real(e, *rest)
        return image + image

    monkeypatch.setattr(module, name, doubled)
    assert getattr(verify, check)(VerifyConfig()) == (False, first)


def test_ring_map_cases_name_each_basis_pair():
    ctx = verify.DPContext(2, 1)
    cases = list(verify._ring_map_cases("lift not multiplicative at", ctx, 2, lambda e: e))
    assert [where for where, _, _ in cases] == [
        f"lift not multiplicative at ({n1},{n2})" for n1, n2 in
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]]
    assert all(lhs == rhs for _, lhs, rhs in cases)
