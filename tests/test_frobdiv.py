import json
import random
from collections import Counter
from math import prod

import pytest

from qtwist import frobdiv
from qtwist.qarith import (LocScalar, ONE, QPoly, Q, cyclotomic,
                           divide_by_cyclotomic_product, is_unit, q_factorial,
                           q_factorial_cyclotomic_exponents, q_int, random_locscalar)
from qtwist.coordring import (BiCoordPoly, CoordPoly, SIDE_A, SIDE_APRIME, accumulate,
                              phi_abs, rel_frobenius, tensor_diagonal_generator,
                              tensor_embed_left)
from qtwist.divpow import (DPContext, DPElem, XiPoly, to_twisted_basis,
                           twisted_power_expand)
from qtwist.frobdiv import (FrobCoeffTable, MembershipError, coeff_a, coeff_b,
                            delta_dp, delta_iterates,
                            divided_frobenius, envelope_basis_check,
                            level_minus_one_ctx,
                            level_zero_ctx, phi_dp, phi_level_zero, phi_std,
                            symmetric_delta_xi, symmetric_phi_xi,
                            u_apply, u_closed_formula, u_consistency_check,
                            u_of_divided_power, u_of_twisted_power,
                            v_basis, v_basis_triangular)

x = CoordPoly.x()


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

def test_coeff_a_examples():
    assert coeff_a(0, 0, 2) == ONE
    assert coeff_a(1, 1, 2) == q_int(2)
    for p in (2, 3, 5):
        assert coeff_a(1, p, p) == ONE


def test_coeff_a_vanishes_below_diagonal():
    for p in (2, 3):
        for n in range(5):
            for i in range(n):
                assert coeff_a(n, i, p).is_zero()


def test_coeff_a_out_of_range():
    with pytest.raises(ValueError):
        coeff_a(1, 3, 2)


def test_coeff_b_examples():
    assert coeff_b(1, 1, 2) == LocScalar(ONE)
    assert coeff_b(1, 2, 2) == LocScalar(ONE)
    assert coeff_b(2, 2, 2) == LocScalar(Q)
    assert coeff_b(2, 3, 2) == LocScalar(q_int(3))


@pytest.mark.parametrize("p", [2, 3])
def test_coeff_b_matches_field_oracle(p):
    for n in range(4):
        # the constructor reduces by a full gcd, not by cyclotomic trial division
        den = q_factorial(n).stretch(p) * q_int(p) ** n
        for i in range(n, p * n + 1):
            oracle = LocScalar(q_factorial(i) * coeff_a(n, i, p), den)
            got = coeff_b(n, i, p)
            assert (got.num, got.den) == (oracle.num, oracle.den)


def b_cyclotomics(n, i, p):
    """The cyclotomic exponents of b(n, i) / a(n, i): (numerator, denominator)."""
    top = q_factorial_cyclotomic_exponents(i)
    bottom = q_factorial_cyclotomic_exponents(n, p) + Counter({p: n})
    return top - bottom, bottom - top


def coeff_b_reference(a, n, i, p):
    """a * P / N by multiplying first and then cancelling N copy by copy."""
    up, down = b_cyclotomics(n, i, p)
    num = a * prod((cyclotomic(d) ** e for d, e in up.items()), start=ONE)
    return divide_by_cyclotomic_product(LocScalar(num), down)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coeff_b_matches_the_multiply_first_pipeline(p):
    for n in range(9):
        for i in range(n, p * n + 1):
            got = coeff_b(n, i, p)
            ref = coeff_b_reference(coeff_a(n, i, p), n, i, p)
            assert (got.num, got.den) == (ref.num, ref.den), (n, i)
            assert got.den == ONE           # so the one-shot division decides here


def _plus_one(a, n, i, p):
    return a + 1


def _one_cyclotomic_short(a, n, i, p):
    """a over one denominator cyclotomic whose index is no power of p (a
    unit at (p, q-1)), so that b keeps it as its denominator."""
    ds = [d for d in b_cyclotomics(n, i, p)[1] if p ** (d.bit_length()) % d]
    return a.divexact(cyclotomic(max(ds))) if ds else a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("perturb", [_plus_one, _one_cyclotomic_short])
def test_coeff_b_falls_back_when_the_denominator_does_not_divide(p, perturb, monkeypatch):
    monkeypatch.setattr(frobdiv, "coeff_a", lambda n, i, p: perturb(coeff_a(n, i, p), n, i, p))
    coeff_b.cache_clear()
    frobdiv._b_row.cache_clear()
    kept = 0
    try:
        for n in range(6):
            for i in range(n, p * n + 1):
                ref = coeff_b_reference(perturb(coeff_a(n, i, p), n, i, p), n, i, p)
                if not ref.in_localization(p):
                    with pytest.raises(MembershipError):
                        coeff_b(n, i, p)
                    continue
                got = coeff_b(n, i, p)
                assert (got.num, got.den) == (ref.num, ref.den), (n, i)
                kept += got.den != ONE
    finally:
        coeff_b.cache_clear()
        frobdiv._b_row.cache_clear()
    assert kept or perturb is _plus_one      # the fallback ran and left a denominator


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_coeff_b_rows_do_not_depend_on_the_query_order(p, order):
    keys = [(n, i) for n in range(9) for i in range(n, p * n + 1)]
    if order == "descending":
        keys.reverse()
    else:
        random.Random(p).shuffle(keys)
    coeff_b.cache_clear()
    frobdiv._b_row.cache_clear()
    for n, i in keys:
        got = coeff_b(n, i, p)
        ref = coeff_b_reference(coeff_a(n, i, p), n, i, p)
        assert (got.num, got.den) == (ref.num, ref.den), (n, i)


def leading_coeff_product(n, p):
    """The closed product form of b(n, pn): prod (kp - j)_q, a unit."""
    return LocScalar(prod((q_int(k * p - j) for k in range(1, n + 1) for j in range(1, p)),
                          start=ONE))


def validate_reference(p, n_max):
    """The cross-multiplication b (n)_{q^p}! (p)_q^n = (i)_q! a(n, i) with full
    q-polynomial products, and the top coefficient against its closed product."""
    for n in range(n_max + 1):
        prefactor = q_factorial(n).stretch(p) * q_int(p) ** n
        for i in range(n, p * n + 1):
            b = coeff_b(n, i, p)           # raises on membership failure
            if b.num * prefactor != b.den * q_factorial(i) * coeff_a(n, i, p):
                raise MembershipError(f"b({n},{i}) fails its defining identity")
        top = coeff_b(n, p * n, p)
        if top != leading_coeff_product(n, p):
            raise MembershipError(f"b({n},{p * n}) != closed product")
        if n and not is_unit(top, p):
            raise MembershipError(f"b({n},{p * n}) is not a unit")
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_top_coefficient_product_and_unit(p):
    for n in range(5):
        top = coeff_b(n, p * n, p)
        assert top == leading_coeff_product(n, p)
        if n:
            assert is_unit(top, p)


@pytest.mark.parametrize("p,n_max", [(2, 8), (3, 8), (5, 8), (7, 6)])
def test_validate_agrees_with_the_cross_multiplication(p, n_max):
    assert FrobCoeffTable(p, n_max).validate() is True
    assert validate_reference(p, n_max) is True


def _planted(monkeypatch, n, i, fault):
    """_b_row with fault(b) in place of the entry b(n, i), at every p."""
    honest = frobdiv._b_row

    def row(m, p):
        r = honest(m, p)
        return r if m != n else r[:i - n] + (fault(r[i - n]),) + r[i - n + 1:]
    monkeypatch.setattr(frobdiv, "_b_row", row)


def _plus_num(b, extra):
    return LocScalar._from_pair((b.num + QPoly(extra)).coeffs, b.den.coeffs)


def test_validate_names_an_entry_off_by_a_monomial(monkeypatch):
    _planted(monkeypatch, 6, 9, lambda b: _plus_num(b, (0, 0, 1)))
    with pytest.raises(MembershipError, match=r"^b\(6,9\) fails its defining identity$"):
        FrobCoeffTable(5, 6).validate()


@pytest.mark.parametrize("w", range(1, 33))
def test_validate_names_a_fault_that_vanishes_at_a_fixed_point(monkeypatch, w):
    # +(q - 256^w) q^2 vanishes at q = 256^w, the point the honest row is
    # checked at for one of these w; the point must come from the operands
    _planted(monkeypatch, 6, 9, lambda b: _plus_num(b, (0, 0, -256 ** w, 1)))
    with pytest.raises(MembershipError, match=r"^b\(6,9\) fails its defining identity$"):
        FrobCoeffTable(5, 6).validate()


def test_validate_names_a_wrong_top_coefficient(monkeypatch):
    _planted(monkeypatch, 3, 15, lambda b: _plus_num(b, (0, 0, 1)))
    with pytest.raises(MembershipError, match=r"^b\(3,15\) fails its defining identity$"):
        FrobCoeffTable(5, 3).validate()


def test_validate_names_a_top_coefficient_with_a_stray_denominator(monkeypatch):
    # the same value over 1 + q: the identity holds, the closed form does not
    _planted(monkeypatch, 3, 15,
             lambda b: LocScalar._from_pair((b.num * q_int(2)).coeffs, q_int(2).coeffs))
    with pytest.raises(MembershipError, match=r"^b\(3,15\) != closed product$"):
        FrobCoeffTable(5, 3).validate()


def test_validate_names_a_top_coefficient_off_the_closed_product(monkeypatch):
    # b(3, 15) and a(3, 15) both doubled: the identity holds, the closed form does not
    _planted(monkeypatch, 3, 15, lambda b: b * 2)
    honest_a = frobdiv.coeff_a
    monkeypatch.setattr(frobdiv, "coeff_a",
                        lambda n, i, p: honest_a(n, i, p) * (2 if (n, i) == (3, 15) else 1))
    with pytest.raises(MembershipError, match=r"^b\(3,15\) != closed product$"):
        FrobCoeffTable(5, 3).validate()


def test_validate_raises_the_first_failure_along_the_row(monkeypatch):
    miss = MembershipError("b(6,12) has non-unit denominator 5 at p=5")
    _planted(monkeypatch, 6, 12, lambda b: miss)
    with pytest.raises(MembershipError, match=r"^b\(6,12\) has non-unit denominator"):
        FrobCoeffTable(5, 6).validate()
    _planted(monkeypatch, 6, 9, lambda b: _plus_num(b, (1,)))   # on top of the first
    with pytest.raises(MembershipError, match=r"^b\(6,9\) fails its defining identity$"):
        FrobCoeffTable(5, 6).validate()


def test_table_validate():
    assert FrobCoeffTable(2, 6).validate()
    rows = list(FrobCoeffTable(2, 2).rows())
    assert rows[0] == {"n": 0, "i": 0, "a": ONE, "b": LocScalar(ONE),
                       "unit_at_top": True}


# ---------------------------------------------------------------------------
# divided Frobenius
# ---------------------------------------------------------------------------

def test_divided_frobenius_examples():
    ctx = level_minus_one_ctx(2, SIDE_APRIME)
    assert divided_frobenius(DPElem.one(ctx)) == DPElem.one(level_zero_ctx(2))
    img = divided_frobenius(DPElem.basis(ctx, 1))
    assert img == DPElem(level_zero_ctx(2), {1: x, 2: CoordPoly(1)})
    w = DPElem.basis(ctx, 1)
    assert divided_frobenius(w * w) == img * img


def test_divided_frobenius_against_polynomial_square():
    # (2)_q [F](w) is the image of (x + xi)^2 - x^2 under xi^(n) -> (n)_q! xi^[n]
    ctx0 = level_zero_ctx(2)
    img = divided_frobenius(DPElem.basis(level_minus_one_ctx(2, SIDE_APRIME), 1))
    lhs = img * q_int(2)
    xi = XiPoly.gen()
    xpol = XiPoly((x,))
    square = (xpol + xi) ** 2 - xpol ** 2
    rhs = DPElem(ctx0, {})
    for n, c in to_twisted_basis(square, ctx0).items():
        rhs = rhs + DPElem.basis(ctx0, n, c * q_factorial(n))
    assert lhs == rhs


def test_divided_frobenius_is_semilinear():
    ctx = level_minus_one_ctx(3, SIDE_APRIME)
    xp = CoordPoly.x(SIDE_APRIME)
    img_plain = divided_frobenius(DPElem.basis(ctx, 1))
    img_scaled = divided_frobenius(DPElem.basis(ctx, 1, xp))
    assert img_scaled == img_plain * (x ** 3)


@pytest.mark.parametrize("p", [2, 3])
def test_divided_frobenius_multiplicative(p):
    ctx = level_minus_one_ctx(p, SIDE_APRIME, cap=max(4 * p, 16))
    for n1 in range(4):
        for n2 in range(4 - n1):
            u, v = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
            assert divided_frobenius(u * v) == divided_frobenius(u) * divided_frobenius(v)


def _b_row_image_by_terms(e, out_ctx, lift, row):
    """The b-row image as one monomial product per (n, i), summed by CoordPoly
    addition; an index whose sum cancels is dropped and, if it comes back,
    goes to the end."""
    p = out_ctx.p
    out = {}
    for n, g in e.terms.items():
        c = lift(g, p)
        for i in range(n, p * n + 1):
            accumulate(out, i, CoordPoly.monomial(row(n, i, p), p * n - i, out_ctx.side) * c)
            if out[i].is_zero():
                del out[i]
    return DPElem(out_ctx, out)


def test_divided_frobenius_keeps_the_key_order_of_a_cancelled_index():
    # x' b(3,4) w[2] - b(2,4) w[3] cancels at index 4 after n = 3; w[4] brings it back
    ctx = level_minus_one_ctx(2, SIDE_APRIME)
    e = DPElem(ctx, {2: CoordPoly.monomial(coeff_b(3, 4, 2), 1, SIDE_APRIME),
                     3: CoordPoly(-coeff_b(2, 4, 2), SIDE_APRIME),
                     4: CoordPoly(1, SIDE_APRIME)})
    assert list(divided_frobenius(e).to_json()["terms"]) == ["2", "3", "5", "6", "4", "7", "8"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_b_row_images_match_the_term_by_term_sums_bytes_and_key_order(p):
    rng = random.Random(200 + p)
    cap = 4 * p
    maps = ((SIDE_APRIME, divided_frobenius, rel_frobenius, coeff_b, level_zero_ctx(p, cap=cap)),
            (SIDE_A, phi_std, phi_abs, lambda n, i, p: coeff_b(n, i, p).subs_qpow(p),
             DPContext(p, 0, SIDE_A, p, cap)))
    for _ in range(4):
        for side, fn, lift, row, out_ctx in maps:
            e = DPElem(level_minus_one_ctx(p, side, cap),
                       {n: CoordPoly([random_locscalar(rng, p, 2, 5)
                                      for _ in range(rng.randint(1, 3))], side)
                        for n in rng.sample(range(5), 3)})
            got, ref = fn(e), _b_row_image_by_terms(e, out_ctx, lift, row)
            assert json.dumps(got.to_json()) == json.dumps(ref.to_json())


# ---------------------------------------------------------------------------
# Frobenius lift and delta on level -1
# ---------------------------------------------------------------------------

def test_phi_dp_examples():
    ctx = level_minus_one_ctx(2)
    assert phi_dp(DPElem.one(ctx)) == DPElem.one(ctx)
    ph = phi_dp(DPElem.basis(ctx, 1))
    assert ph == DPElem(ctx, {1: q_int(2) * x, 2: CoordPoly(q_int(2) ** 2)})


def test_phi_level_zero_example():
    ctx0 = level_zero_ctx(2)
    ph = phi_level_zero(DPElem.basis(ctx0, 1))
    assert ph == DPElem(ctx0, {1: q_int(2) * x, 2: CoordPoly(q_int(2))})


def test_delta_dp_examples():
    ctx = level_minus_one_ctx(2)
    assert delta_dp(DPElem.one(ctx)).is_zero()
    assert delta_dp(DPElem.basis(ctx, 0, CoordPoly(Q))).is_zero()
    d = delta_dp(DPElem.basis(ctx, 1))
    assert d == DPElem(ctx, {1: x, 2: CoordPoly(Q)})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_phi_dp_is_the_blow_up_of_the_standard_image(p):
    # phi_dp(sum g_n w[n]) = sum phi(g_n) sum_i (p)_q^i phi(b(n, i)) x^(pn-i) w[i]
    ctx = level_minus_one_ctx(p, cap=6 * p)
    rng = random.Random(p)
    pq = q_int(p)

    def b_row(n):
        return DPElem(ctx, {i: CoordPoly.monomial(coeff_b(n, i, p).subs_qpow(p) * pq ** i,
                                                  p * n - i)
                            for i in range(n, p * n + 1)})

    for n in range(7):
        assert phi_dp(DPElem.basis(ctx, n)) == b_row(n), n
    g = {n: CoordPoly([random_locscalar(rng, p, 1) for _ in range(2)]) for n in (0, 2, 3)}
    e = DPElem(ctx, g)
    assert phi_dp(e) == sum((b_row(n) * phi_abs(c, p) for n, c in e.terms.items()),
                            DPElem(ctx, {}))
    assert phi_std(e).ctx == DPContext(p, 0, SIDE_A, p, 6 * p)     # standard at twist q^p


def test_phi_std_rejects_other_contexts():
    for fn in (phi_std, phi_dp):
        with pytest.raises(ValueError, match="level -1"):
            fn(DPElem.basis(level_zero_ctx(2), 1))


@pytest.mark.parametrize("p", [2, 3])
def test_phi_dp_multiplicative_small(p):
    ctx = level_minus_one_ctx(p, cap=max(4 * p, 16))
    for n1 in range(3):
        for n2 in range(3):
            u, v = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
            assert phi_dp(u * v) == phi_dp(u) * phi_dp(v)


# ---------------------------------------------------------------------------
# the polynomial-ring delta
# ---------------------------------------------------------------------------

def test_symmetric_delta_xi_examples():
    xi = XiPoly.gen()
    assert symmetric_delta_xi(xi, 2) == XiPoly((CoordPoly(()), x))
    xpol = XiPoly((x,))
    for p in (2, 3, 5):
        assert symmetric_delta_xi(xpol + xi, p).is_zero()
        assert symmetric_phi_xi(xi, p) == (xpol + xi) ** p - xpol ** p


def test_symmetric_delta_xi_p3_formula():
    # delta(xi) = (1/3)(C(3,1) x^2 xi + C(3,2) x xi^2) = x^2 xi + x xi^2
    got = symmetric_delta_xi(XiPoly.gen(), 3)
    assert got == XiPoly((CoordPoly(()), x ** 2, x))


def test_blowup_intertwines_lifts():
    # xi^(n) at twist q^2 maps to (n)_{q^2}! (2)_q^n w[n]; squares commute
    p = 2
    std = DPContext(p, 0, SIDE_A, p)
    lvl = level_minus_one_ctx(p)

    def blow(f):
        out = DPElem(lvl, {})
        for n, c in to_twisted_basis(f, std).items():
            out = out + DPElem.basis(
                lvl, n, c * (q_factorial(n).stretch(p) * q_int(p) ** n))
        return out

    for n in range(4):
        f = XiPoly.gen() ** n
        assert blow(symmetric_phi_xi(f, p)) == phi_dp(blow(f))


# ---------------------------------------------------------------------------
# envelope congruences
# ---------------------------------------------------------------------------

def test_envelope_p2():
    rep = envelope_basis_check(2, 2)
    assert rep["ok"]
    assert rep["rows"][0]["c"] == "1"
    assert rep["rows"][1]["c"] == "q"
    assert rep["rows"][1]["phi_valuation"] == 4
    assert rep["rows"][1]["power_valuation"] == 1


def test_envelope_p3():
    rep = envelope_basis_check(1, 3)
    assert rep["ok"]
    assert rep["rows"][1]["phi_valuation"] == 9
    assert rep["rows"][1]["power_valuation"] == 1


def test_v_basis_triangular_small():
    assert v_basis_triangular(4, 2) == []
    assert v_basis_triangular(9, 3) == []


def v_basis_element(n, p):
    """v_n, the last value of v_basis(n, p)."""
    *_, v = v_basis(n, p)
    return v


def test_v_basis_element_values():
    assert v_basis_element(0, 2) == DPElem.one(level_minus_one_ctx(2, cap=16))
    v3 = v_basis_element(3, 2)       # w * delta(w)
    assert max(v3.support()) == 3
    assert is_unit(v3.coeff(3).coeff(0), 2)
    # reference: the product of iterate powers over the base-p digits of n
    for p in (2, 3):
        for n in range(p * p + 1):
            digits, t = [], n
            while t:
                digits.append(t % p)
                t //= p
            iterates = delta_iterates(p, max(len(digits) - 1, 0), cap=max(n, 16))
            ref = DPElem.one(iterates[0].ctx)
            for r, a in enumerate(digits):
                ref = ref * iterates[r] ** a
            assert v_basis_element(n, p) == ref, (n, p)


# ---------------------------------------------------------------------------
# the diagonal map
# ---------------------------------------------------------------------------

def test_u_p2_closed_value():
    u2 = u_of_divided_power(2, 2)
    assert u2.terms == {(2, 0): LocScalar(ONE), (1, 1): LocScalar(QPoly(-1))}
    assert u_closed_formula(2) == u2


def test_level_zero_maps_reject_a_twisted_base():
    # level 0 over A at twist q^2 is not the algebra these maps start from
    e = DPElem.basis(DPContext(2, 0, qexp=2), 1)
    for fn in (u_apply, phi_level_zero):
        with pytest.raises(ValueError, match="expects level 0 over A"):
            fn(e)


def test_u_kills_divided_frobenius_p2():
    ctx = level_minus_one_ctx(2, SIDE_APRIME)
    img = u_apply(divided_frobenius(DPElem.basis(ctx, 1)))
    assert img.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_u_of_twisted_power_matches_xi_expansion(p):
    # reference: expand the level 0 twisted power in xi over A, then evaluate
    # at xi = x2 - x1 by Horner's rule with each coefficient f(x) sent to f(x1)
    gen = tensor_diagonal_generator(p)
    refs = []
    for n in range(2 * p + 2):
        expansion = twisted_power_expand(n, level_zero_ctx(p))
        ref = BiCoordPoly(p)
        for c in reversed(expansion.coeffs):
            ref = ref * gen + tensor_embed_left(c, p)
        refs.append(ref)
        assert u_of_twisted_power(n, p) == ref
    u_of_twisted_power.cache_clear()        # the top query fills the memo with every image below
    for n in reversed(range(len(refs))):
        assert u_of_twisted_power(n, p) == refs[n]


@pytest.mark.parametrize("p", [2, 3])
def test_u_factorial_cleared(p):
    cleared = u_of_divided_power(p, p) * q_factorial(p)
    assert cleared == u_of_twisted_power(p, p)


@pytest.mark.parametrize("p", [2, 3])
def test_u_consistency_report(p):
    rep = u_consistency_check(p)
    assert rep["ok"]
    assert [c["id"] for c in rep["checks"]] == [
        "closed-formula-matches", "factorial-cleared-identity",
        "kills-divided-frobenius"]


def test_u_respects_multiplication():
    # u is a ring map: compare products through the divided images
    for p in (2, 3, 5):
        rng = random.Random(p)
        ctx0 = level_zero_ctx(p)
        frac = CoordPoly([random_locscalar(rng, p), random_locscalar(rng, p)])
        for a, b in ((DPElem.basis(ctx0, 1), DPElem.basis(ctx0, 2)),
                     (DPElem.basis(ctx0, 1, frac), DPElem.basis(ctx0, p))):
            assert u_apply(a * b) == u_apply(a) * u_apply(b), p


def _divide_reference(img, n, p):
    """Each coefficient of img divided by (n)_q!, checked to lie in the localization."""
    factors = q_factorial_cyclotomic_exponents(n)

    def div(c):
        out = divide_by_cyclotomic_product(c, factors)
        if not out.in_localization(p):
            raise MembershipError(
                f"u on divided power {n} leaves the localization: {out.den}")
        return out

    return img.map_coeffs(div)


def u_apply_reference(e):
    """u(e) as the sum of c_n tensor u(xi^[n]) over the divided images."""
    p = e.ctx.p
    out = BiCoordPoly(p)
    for n, c in e.terms.items():
        out = out + tensor_embed_left(c, p) * _divide_reference(u_of_twisted_power(n, p), n, p)
    return out


@pytest.mark.parametrize("p, top", [(2, 4), (3, 6), (5, 10), (7, 8)])
def test_u_apply_matches_reference_on_basis(p, top):
    ctx0 = level_zero_ctx(p)
    for n in range(top + 1):
        e = DPElem.basis(ctx0, n)
        assert u_apply(e) == u_apply_reference(e), (p, n)
    assert u_apply(DPElem(ctx0)).is_zero() and u_apply_reference(DPElem(ctx0)).is_zero()


@pytest.mark.parametrize("p, top", [(2, 6), (3, 7), (5, 10), (7, 8)])
def test_u_apply_matches_reference_on_fractional_elements(p, top):
    # x-dependent coefficients with unit denominators, gaps in the indices, index 0 in half
    rng = random.Random(100 + p)
    ctx0 = level_zero_ctx(p)
    for trial in range(4):
        idx = rng.sample(range(1, top + 1), 3) + [0] * (trial % 2)
        e = DPElem(ctx0, {n: CoordPoly([random_locscalar(rng, p, 2, 5) for _ in range(3)])
                          for n in idx})
        assert any(not c.is_polynomial() for f in e.terms.values() for c in f.coeffs)
        assert u_apply(e) == u_apply_reference(e), (p, sorted(e.terms))


def _planted_image(monkeypatch, n, p, g):
    """The image at n when the image at n - 1 is the constant g, and a thunk
    computing it by u_of_twisted_power (memo bypassed) from that planted image."""
    monkeypatch.setattr(frobdiv, "u_of_twisted_power", lambda m, p: BiCoordPoly(p, {(0, 0): g}))
    return (BiCoordPoly(p, {(0, 1): g, (1, 0): -g.shifted(n - 1)}),
            lambda: u_of_twisted_power.__wrapped__(n, p))


# g = (n)_q! / cyclotomic(d): its divided image has denominator cyclotomic(d)
@pytest.mark.parametrize("n, p, d", [
    (2, 2, 2), (5, 5, 5),       # not divisible by cyclotomic(p)
    (4, 2, 4), (9, 3, 9),       # divisible by cyclotomic(p)^(n // p), not by cyclotomic(p^2)
])
def test_u_twisted_power_membership_fault_raises_reference_message(monkeypatch, n, p, d):
    planted, twisted = _planted_image(monkeypatch, n, p, q_factorial(n).divexact(cyclotomic(d)))
    with pytest.raises(MembershipError) as ref:
        _divide_reference(planted, n, p)
    with pytest.raises(MembershipError) as got:
        twisted()
    assert str(got.value) == str(ref.value) == (
        f"u on divided power {n} leaves the localization: {cyclotomic(d)}")


def test_u_twisted_power_membership_ignores_other_cyclotomics(monkeypatch):
    # cyclotomic(6) is 1 at q = 1, a unit in the localization at (2, q - 1)
    planted, twisted = _planted_image(monkeypatch, 6, 2, q_factorial(6).divexact(cyclotomic(6)))
    assert {c.den for c in _divide_reference(planted, 6, 2).terms.values()} == {cyclotomic(6)}
    assert twisted() == planted
