"""The fault matrix of the verdict: for each planted fault, the check ids that fail.

A check is evidence only if some wrong implementation fails it.  Each row
plants one fault by ``monkeypatch`` (never by editing the package), clears
every memo table so that nothing built before the fault answers for it, runs
the suites the fault can reach at p = 2 with small sample counts, and pins
the exact set of check ids that fail.
"""

import sys

import pytest

import qtwist
import qtwist.frobdiv as fd
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


def _shifted_u_factor(monkeypatch):
    """The diagonal map's factor x2 - q^i x1 becomes x2 - q^(i+1) x1 for i >= 2."""
    real = fd._u_factor
    monkeypatch.setattr(fd, "_u_factor", lambda i, p: real(i + 1 if i >= 2 else i, p))


def _a_2_3_plus_q3(monkeypatch):
    """a(2, 3) gains q^3, so that the denominator N of b(2, 3) / a(2, 3) no longer
    divides it and ``_b_row`` takes its fallback division."""
    real = fd.coeff_a
    monkeypatch.setattr(fd, "coeff_a", lambda n, i, p: real(n, i, p) + (
        qa.QPoly((0, 0, 0, 1)) if (n, i) == (2, 3) else qa.QPoly()))


def _narrow_kron_digits(monkeypatch):
    """``_kron_sum`` packs its products one byte narrower than the bound S asks for
    (never below one byte); the other packed kernels keep their widths."""
    real, kron_sum = qa._digit_bytes, qa._kron_sum.__code__

    def digit_bytes(bits):
        w = real(bits)
        return max(w - 1, 1) if sys._getframe(1).f_code is kron_sum else w

    monkeypatch.setattr(qa, "_digit_bytes", digit_bytes)


def _unshifted_last_row(monkeypatch):
    """``_kron_sum`` multiplies by the last of several rows unshifted, as if it were row 0."""
    real = qa._kron_sum
    monkeypatch.setattr(qa, "_kron_sum", lambda pairs: real([
        (a, rows if len(rows) == 1 else (qa._add(rows[0], rows[-1]),) + rows[1:-1], L)
        for a, rows, L in pairs]))


# every suite but qarith, which multiplies no polynomials in x
ROW_SUITES = ("coordring", "divpow", "frobdiv", "diffcalc", "connect")

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
    "u-factor-shift": (_shifted_u_factor, ("frobdiv",), {"frobdiv.u-consistency"}),
    "a-2-3-plus-q3": (
        _a_2_3_plus_q3, ("frobdiv",), {
            "frobdiv.b-in-localization", "frobdiv.delta-xi-blowup",
            "frobdiv.divided-frobenius-multiplicative", "frobdiv.envelope-basis",
            "frobdiv.phi-frobenius-congruence", "frobdiv.phi-level-zero-compat",
            "frobdiv.phi-multiplicative", "frobdiv.u-consistency",
            "frobdiv.v-basis-triangular",
        }),
    "kron-sum-digits-one-byte-narrower": (
        _narrow_kron_digits, ("qarith",) + ROW_SUITES, {
            "qarith.binomial-polynomiality",
            "coordring.frobenius-mod-p", "coordring.frobenius-multiplicative",
            "coordring.twisted-leibniz",
            "divpow.blowup-multiplicative", "divpow.factorial-map-multiplicative",
            "divpow.generic-specialization", "divpow.mul-associative-commutative",
            "frobdiv.b-in-localization", "frobdiv.delta-xi-blowup",
            "frobdiv.divided-frobenius-multiplicative", "frobdiv.envelope-basis",
            "frobdiv.phi-frobenius-congruence", "frobdiv.phi-level-zero-compat",
            "frobdiv.phi-multiplicative",
            "diffcalc.action-respects-composition", "diffcalc.compose-associative",
            "diffcalc.taylor-multiplicative",
            "connect.commutation-identities", "connect.level-raise-leibniz-roundtrip",
            "connect.pullback-well-defined",
        }),
    "kron-sum-last-row-unshifted": (
        _unshifted_last_row, ROW_SUITES, {
            "coordring.frobenius-mod-p", "coordring.frobenius-multiplicative",
            "coordring.twisted-leibniz",
            "diffcalc.action-respects-composition", "diffcalc.compose-associative",
            "diffcalc.taylor-multiplicative",
            "connect.level-raise-leibniz-roundtrip", "connect.pullback-well-defined",
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
