"""The fault matrix of the verdict: for each planted fault, the check ids that fail.

A check is evidence only if some wrong implementation fails it.  Each row
plants one fault by ``monkeypatch`` (never by editing the package), clears
every memo table so that nothing built before the fault answers for it, runs
the suites the fault can reach at p = 2 with small sample counts, and pins
the exact set of check ids that fail.
"""

import pytest

import qtwist
import qtwist.qarith as qa
from qtwist.verify import VerifyConfig, run_suite

# p = 2 with the sample counts of the benchmark's verify-p2 pass
CONFIG = VerifyConfig(p=2, taylor_samples=10, module_samples=8, commute_samples=25)


def _faulty_stretch(monkeypatch):
    """q -> q^k drops the top coefficient of every operand with 8 coefficients or more."""
    real = qa.QPoly.stretch

    def stretch(self, k):
        out = real(self, k)
        return out if len(self.coeffs) < 8 else qa.QPoly(out.coeffs[:-1])

    monkeypatch.setattr(qa.QPoly, "stretch", stretch)


# name -> (plant, suites run, the check ids that fail)
FAULTS = {
    "stretch-drops-top-coefficient": (
        _faulty_stretch, ("qarith", "divpow", "frobdiv", "diffcalc", "connect"), {
            "connect.commutation-identities",
            "diffcalc.level-embedding",
            "divpow.factorial-map-multiplicative", "divpow.generic-specialization",
            "divpow.mul-associative-commutative",
            "frobdiv.a-lower-vanishing", "frobdiv.b-in-localization",
            "frobdiv.delta-xi-blowup", "frobdiv.divided-frobenius-multiplicative",
            "frobdiv.envelope-basis", "frobdiv.phi-frobenius-congruence",
            "frobdiv.phi-level-zero-compat", "frobdiv.phi-multiplicative",
            "qarith.factorial-frobenius-compat",
        }),
}


@pytest.mark.parametrize("name", FAULTS)
def test_a_planted_fault_fails_exactly_its_checks(monkeypatch, name):
    plant, suites, expected = FAULTS[name]
    plant(monkeypatch)
    qtwist.clear_caches()
    try:
        failed = {r["id"] for s in suites for r in run_suite(s, CONFIG) if r["status"] == "fail"}
    finally:
        qtwist.clear_caches()          # nothing built under the fault outlives it
    assert failed == expected
