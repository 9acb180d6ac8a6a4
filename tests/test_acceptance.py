"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
including the measured runtime against the criterion's budget.
"""

import time

from qtwist.frobdiv import (FrobCoeffTable, MembershipError,
                            envelope_basis_check, u_consistency_check)
from qtwist.verify import (VerifyConfig, check_commute,
                           check_divf_multiplicative,
                           check_frobenius_lift_example, check_level_raise,
                           check_phi_dp_congruence,
                           check_phi_dp_multiplicative,
                           check_taylor_multiplicative)


def _criterion(number, label, limit_s, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    dt = time.perf_counter() - t0
    status = "PASS" if (ok and dt < limit_s) else "FAIL"
    print(f"[{status}] criterion {number}: {label} "
          f"[{dt:.1f}s / {limit_s:.0f}s] {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert dt < limit_s, f"criterion {number} overran: {dt:.1f}s > {limit_s}s"


def test_criterion_1_frobenius_lift_example():
    _criterion(1, "p=2 lift sends xi to (1+q)xi[2]+(1+q)x xi and "
                  "w to (1+q)^2 w[2]+(1+q)x w", 1.0,
               lambda: check_frobenius_lift_example(VerifyConfig(p=2)))


def test_criterion_2_coefficient_integrality():
    def run():
        details = []
        for p in (2, 3, 5):
            try:
                FrobCoeffTable(p, 8).validate()
            except MembershipError as e:
                return False, f"p={p}: {e}"
            details.append(f"p={p} ok")
        return True, "; ".join(details) + " (n <= 8, membership, top product, units)"
    _criterion(2, "b(n,i) integrality and unit top coefficients", 30.0, run)


def test_criterion_3_divided_frobenius_multiplicative():
    def run():
        for p in (2, 3):
            ok, detail = check_divf_multiplicative(VerifyConfig(p=p, pair_cap=6))
            if not ok:
                return False, f"p={p}: {detail}"
        return True, "p in {2,3}, basis pairs n1+n2 <= 6"
    _criterion(3, "[F](uv) = [F](u)[F](v)", 60.0, run)


def test_criterion_4_level_minus_one_delta_structure():
    def run():
        for p in (2, 3):
            ok, detail = check_phi_dp_multiplicative(VerifyConfig(p=p, pair_cap=6))
            if not ok:
                return False, f"p={p}: {detail}"
            ok, detail = check_phi_dp_congruence(VerifyConfig(p=p))
            if not ok:
                return False, f"p={p}: {detail}"
        return True, "p in {2,3}: multiplicative on n1+n2 <= 6, p-divisible on n <= 4"
    _criterion(4, "Frobenius lift on level -1 is a ring map with phi(e) = e^p mod p",
               60.0, run)


def test_criterion_5_envelope_basis():
    def run():
        rep2 = envelope_basis_check(2, 2)
        rep3 = envelope_basis_check(1, 3)
        wanted = {(2, 1): rep2["rows"][1], (2, 2): rep2["rows"][2],
                  (3, 1): rep3["rows"][1]}
        details = []
        for (p, r), row in sorted(wanted.items()):
            good = (row["congruent"] and row["c_unit"]
                    and row.get("phi_valuation") == p ** (r + 1)
                    and row.get("power_valuation") == 1)
            if not good:
                return False, f"(p={p}, r={r}): {row}"
            details.append(f"(p={p},r={r}) c={row['c']} "
                           f"valuations=({row['phi_valuation']},{row['power_valuation']})")
        return True, "; ".join(details)
    _criterion(5, "delta^r(w) = c_r w[p^r] mod lower with c_r a unit; "
                  "q=1 valuations p^(r+1) and 1", 120.0, run)


def test_criterion_6_diagonal_map():
    def run():
        for p in (2, 3, 5):
            rep = u_consistency_check(p, n_cap=p)
            if not rep["ok"]:
                return False, f"p={p}: {rep}"
        return True, "p in {2,3,5}: factorial-cleared identity and kills [F](w[n]), n <= p"
    _criterion(6, "(p)_q! u(xi^[p]) equals the twisted-power image; u kills [F]",
               30.0, run)


def test_criterion_7_commutation_identities():
    def run():
        for p in (2, 3):
            ok, detail = check_commute(VerifyConfig(p=p, commute_samples=500))
            if not ok:
                return False, f"p={p}: {detail}"
        return True, "500 samples per (p, m) in {2,3} x {1,2}"
    _criterion(7, "F sigma = sigma F and (p)_Q x^(p-1) F d = d F", 60.0, run)


def test_criterion_8_level_raising():
    _criterion(8, "raised modules satisfy the raised Leibniz rule; "
                  "same-basis descent inverts", 120.0,
               lambda: check_level_raise(VerifyConfig(module_samples=100)))


def test_criterion_9_taylor_multiplicative():
    _criterion(9, "taylor(fg, N) = taylor(f, N) taylor(g, N) mod support > N",
               60.0,
               lambda: check_taylor_multiplicative(
                   VerifyConfig(p=2, m=1, taylor_samples=200)))
