import itertools
import json
import random

import pytest

from qtwist.qarith import (ONE, LocScalar, QPoly, Q, q_binomial, q_factorial, q_int,
                           random_locscalar)
from qtwist.coordring import CoordPoly, SIDE_A, SIDE_APRIME, accumulate, common_rows
from qtwist.divpow import (DegreeCapError, DPContext, DPElem, XiPoly, _struct_consts_closed,
                           _struct_consts_oracle, blowup, dp_mul, frobenius_base_change,
                           to_twisted_basis, twisted_power_expand, twisted_power_mul)

x = CoordPoly.x()


def ctx_of(p, m, mode):
    """Level -m divided powers, or the standard algebra at q^(p^m): level 0 at qexp p^m."""
    return DPContext(p, m) if mode == "level" else DPContext(p, 0, qexp=p ** m)


def test_twisted_power_expand_basics():
    ctx = DPContext(2, 0)
    assert twisted_power_expand(0, ctx) == XiPoly((CoordPoly(1),))
    assert twisted_power_expand(1, ctx) == XiPoly.gen()


def test_twisted_power_expand_level():
    # at level 0 the i-th factor is xi + (1 - q^i) x
    ctx = DPContext(3, 0)
    t2 = twisted_power_expand(2, ctx)
    assert t2.coeff(1) == QPoly([1, -1]) * x
    t3 = twisted_power_expand(3, ctx)
    prod = XiPoly.gen() * (XiPoly.gen() + XiPoly((QPoly([1, -1]) * x,))) \
        * (XiPoly.gen() + XiPoly((QPoly([1, 0, -1]) * x,)))
    assert t3 == prod


@pytest.mark.parametrize("p,m,mode", [
    (2, 0, "level"), (2, 1, "level"), (3, 1, "level"),
    (2, 1, "standard"),
])
def test_twisted_power_mul_against_expansion(p, m, mode):
    ctx = ctx_of(p, m, mode)
    for n1, n2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        direct = twisted_power_expand(n1, ctx) * twisted_power_expand(n2, ctx)
        recombined = XiPoly((), ctx.side)
        for idx, c in twisted_power_mul(n1, n2, ctx).items():
            recombined = recombined + XiPoly((c,), ctx.side) * twisted_power_expand(idx, ctx)
        assert direct == recombined


def test_twisted_power_mul_closed_values():
    ctx = DPContext(2, 0)
    # the standard algebra at m = 0, y = (1 - Q) x with Q = q^twist, is this context
    assert ctx_of(2, 0, "standard") == ctx and ctx.y_scale() == ONE - Q ** ctx.twist
    y = ctx.y_coordpoly()
    out = twisted_power_mul(1, 1, ctx)
    assert out[2] == CoordPoly(1)
    assert out[1] == -y
    out = twisted_power_mul(2, 1, ctx)
    assert out[3] == CoordPoly(1)
    assert out[2] == -(q_int(2) * y)           # -(1+q) y


def test_dp_identity_and_examples():
    ctx = DPContext(2, 1)
    one = DPElem.one(ctx)
    w = DPElem.basis(ctx, 1)
    assert one * w == w
    ww = w * w
    assert ww.coeff(2) == CoordPoly(q_int(2).stretch(2))
    assert ww.coeff(1) == QPoly([-1, 1]) * x
    ctx0 = DPContext(2, 0)
    xi = DPElem.basis(ctx0, 1)
    xx = xi * xi
    assert xx.coeff(2) == CoordPoly(q_int(2))
    assert xx.coeff(1) == QPoly([-1, 1]) * x


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (3, 1), (5, 2)])
def test_dp_mul_associative_commutative(p, m):
    ctx = DPContext(p, m)
    for a, b, c in itertools.product(range(3), repeat=3):
        u, v, w = (DPElem.basis(ctx, t) for t in (a, b, c))
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)


def dp_structure_terms(ctx, n1, n2):
    """The (index, CoordPoly) terms of xi^[n1] xi^[n2], from the closed-form constants."""
    for i, t in _struct_consts_closed(n1, n2, ctx.twist, ctx.qexp):
        yield n1 + n2 - i, CoordPoly.from_rows(t, (1,), ctx.side)


def dp_mul_reference(u, v):
    """u v in CoordPoly arithmetic: c1 c2 times one structure term at a time, summed per
    index; indices keep the order of their first term."""
    u._check(v)
    out = {}
    for n1, c1 in u.terms.items():
        for n2, c2 in v.terms.items():
            c12 = c1 * c2
            for n, t in dp_structure_terms(u.ctx, n1, n2):
                accumulate(out, n, c12 * t)
    return DPElem(u.ctx, out)


def assert_matches_reference(u, v):
    got, ref = dp_mul(u, v), dp_mul_reference(u, v)
    assert list(got.terms) == list(ref.terms)
    assert json.dumps(got.to_json()) == json.dumps(ref.to_json())


@pytest.mark.parametrize("side", [SIDE_A, SIDE_APRIME])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dp_mul_matches_the_reference_bytes_and_key_order(p, m, side):
    # side A at qexp 1, side A' at qexp p (after base change)
    ctx = DPContext(p, m, side, 1 if side == SIDE_A else p)
    rng = random.Random(100 * p + 10 * m + (side == SIDE_A))

    def rand_elem():
        return DPElem(ctx, {n: CoordPoly([random_locscalar(rng, p, 2, 5)
                                          for _ in range(rng.randint(1, 3))], ctx.side)
                            for n in rng.sample(range(5), rng.randint(2, 3))})

    zero = DPElem(ctx, {})      # two indices each: some pair has both indices >= 1, so i >= 1
    for u, v in [(rand_elem(), rand_elem()) for _ in range(3)] + [
            (zero, rand_elem()), (rand_elem(), zero), (zero, zero)]:
        assert_matches_reference(u, v)


@pytest.mark.parametrize("p", [5, 7])
def test_dp_mul_matches_the_reference_over_denominators_with_shared_factors(p):
    # each denominator shares a factor with the lcm of those before it, so common_rows
    # rescales the rows it has already written
    q1, q2, q3 = QPoly([1, 1]), QPoly([2, 1]), QPoly([3, 1])
    dens = [q1 * q2, q1 * q3, q1 * q1 * 2, QPoly([3])]
    for ctx in (DPContext(p, 1), DPContext(p, 0, SIDE_APRIME, p)):
        u, v = (DPElem(ctx, {n: CoordPoly([LocScalar(QPoly([n, 1]), d), LocScalar(ONE, d)],
                                          ctx.side) for n, d in enumerate(ds)})
                for ds in (dens, dens[::-1]))
        assert len(common_rows(u.terms)[1]) == 5       # 6 (1+q)^2 (2+q)(3+q), up to a unit
        for a, b in ((u, v), (v, u), (u, u)):
            assert_matches_reference(a, b)


@pytest.mark.parametrize("p,m,mode", [(2, 0, "level"), (3, 1, "level"), (5, 1, "standard")])
def test_dp_mul_is_bilinear_over_the_structure_terms(p, m, mode):
    ctx = ctx_of(p, m, mode)
    rng = random.Random(p + m)

    def rand_elem():
        return DPElem(ctx, {n: CoordPoly([random_locscalar(rng, p, 2, 5) for _ in range(3)])
                            for n in rng.sample(range(5), 3)})

    for _ in range(5):
        u, v = rand_elem(), rand_elem()
        ref = DPElem(ctx, {})
        for (n1, c1), (n2, c2) in itertools.product(u.terms.items(), v.terms.items()):
            for n, s in dp_structure_terms(ctx, n1, n2):
                ref = ref + DPElem.basis(ctx, n, c1 * c2 * s)
        assert u * v == ref


def _dp_mul_by_terms(u, v):
    """u v as one CoordPoly per (term pair, i), summed by CoordPoly addition,
    with the field oracle's constants times the sign and the y-power."""
    ctx = u.ctx
    k, c = ctx.twist, -ctx.y_scale()
    out = {}
    for n1, c1 in u.terms.items():
        for n2, c2 in v.terms.items():
            for i, g in _struct_consts_oracle(n1, n2):
                term = CoordPoly.monomial(g.stretch(k) * c ** i, i, ctx.side) * (c1 * c2)
                accumulate(out, n1 + n2 - i, term)
    return DPElem(ctx, out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dp_mul_matches_the_term_by_term_product_bytes_and_key_order(p):
    rng = random.Random(100 + p)
    for ctx in (DPContext(p, 1), DPContext(p, 0, qexp=p), DPContext(p, 0, SIDE_APRIME, p)):
        def rand_elem():
            return DPElem(ctx, {n: CoordPoly([random_locscalar(rng, p, 2, 5)
                                              for _ in range(rng.randint(1, 3))], ctx.side)
                                for n in rng.sample(range(5), 3)})

        pairs = [(rand_elem(), rand_elem()) for _ in range(4)]
        # index 2 of w[1] (a x w[1] + b w[2]) cancels when a s(1,1,0) + b s(1,2,1) = 0
        s110 = dict(dp_structure_terms(ctx, 1, 1))[2].coeffs[0]
        s121 = dict(dp_structure_terms(ctx, 1, 2))[2].coeffs[1]
        cancelling = (DPElem.basis(ctx, 1),
                      DPElem(ctx, {1: CoordPoly.monomial(s121, 1, ctx.side), 2: -s110}))
        assert 2 not in (cancelling[0] * cancelling[1]).terms
        for u, v in pairs + [cancelling]:
            got, ref = u * v, _dp_mul_by_terms(u, v)
            assert json.dumps(got.to_json()) == json.dumps(ref.to_json())
            assert_matches_reference(u, v)


def _basis_product_by_closed_form(ctx, n1, n2):
    """xi^[n1] xi^[n2] with each constant formed here from q-binomials and y."""
    k, c = ctx.twist, -ctx.y_scale()
    return DPElem(ctx, {n1 + n2 - i: CoordPoly.monomial(
        (q_binomial(n1, i).stretch(k) * q_binomial(n1 + n2 - i, n1).stretch(k))
        .shifted(k * (i * (i - 1) // 2)) * c ** i, i, ctx.side)
        for i in range(min(n1, n2) + 1)})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_twist_with_two_y_scales_shares_no_structure_constants(p):
    # level -1 (qexp 1) and the standard algebra at q^p (qexp p) have the same twist q^p
    lvl, std = DPContext(p, 1), DPContext(p, 0, qexp=p)
    assert lvl.twist == std.twist and lvl.y_scale() != std.y_scale()
    _struct_consts_closed.cache_clear()
    for n1, n2 in itertools.product(range(5), repeat=2):
        for ctx in ((lvl, std) if (n1 + n2) % 2 else (std, lvl)):
            product = DPElem.basis(ctx, n1) * DPElem.basis(ctx, n2)
            assert product == _basis_product_by_closed_form(ctx, n1, n2), (ctx, n1, n2)


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (3, 1)])
def test_factorial_map_is_ring_hom(p, m):
    # pushing xi^(n) -> (n)_Q! xi^[n] through both products agrees
    ctx = DPContext(p, m)
    k = ctx.twist
    for n1 in range(5):
        for n2 in range(5 - n1):
            lhs = DPElem(ctx, {})
            for idx, c in twisted_power_mul(n1, n2, ctx).items():
                lhs = lhs + DPElem.basis(ctx, idx, CoordPoly(q_factorial(idx).stretch(k))) * c
            rhs = (DPElem.basis(ctx, n1, CoordPoly(q_factorial(n1).stretch(k)))
                   * DPElem.basis(ctx, n2, CoordPoly(q_factorial(n2).stretch(k))))
            assert lhs == rhs


def test_oracle_structure_constants_are_integral():
    # the oracle raises IntegralityError on a constant outside Z[q]
    for n1 in range(7):
        for n2 in range(7):
            for i, g in _struct_consts_oracle(n1, n2):
                assert isinstance(g, QPoly)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_blowup_examples(p, m):
    src, tgt = ctx_of(p, m, "standard"), ctx_of(p, m, "level")
    assert blowup(DPElem.one(src), tgt) == DPElem.one(tgt)
    b2 = blowup(DPElem.basis(src, 2), tgt)
    assert b2 == DPElem.basis(tgt, 2, CoordPoly(q_int(p ** m) ** 2))
    a, b = DPElem.basis(src, 1), DPElem.basis(src, 1)
    assert blowup(a * b, tgt) == blowup(a, tgt) * blowup(b, tgt)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)])
def test_blowup_matches_the_power_definition(p, m):
    # index n picks up z^n; supports with gaps, index 0 and fractional coefficients
    src, tgt = ctx_of(p, m, "standard"), ctx_of(p, m, "level")
    # z relates the twist parameters: y_src = z y_tgt
    assert src.y_scale() == q_int(p ** m) * tgt.y_scale()
    z = CoordPoly(q_int(p ** m))
    rng = random.Random(10 * p + m)
    for _ in range(6):
        e = DPElem(src, {n: CoordPoly([random_locscalar(rng, p) for _ in range(rng.randint(1, 3))])
                         for n in rng.sample(range(17), rng.randint(0, 6))})
        assert blowup(e, tgt) == DPElem(tgt, {n: c * z ** n for n, c in e.terms.items()})


@pytest.mark.parametrize("p", [2, 3])
def test_blowup_factor_is_read_at_the_target_qexp(p):
    # into level -1 at qexp p (twist q^(p^2)) the factor is (p)_{q^p}
    src, tgt = DPContext(p, 0, qexp=p * p), DPContext(p, 1, qexp=p)
    z = q_int(p).stretch(p)
    assert src.y_scale() == z * tgt.y_scale()
    for n in range(4):
        assert blowup(DPElem.basis(src, n, x), tgt) == DPElem.basis(tgt, n, x * z ** n)
    a, b = DPElem.basis(src, 2), DPElem.basis(src, 3)
    assert blowup(a * b, tgt) == blowup(a, tgt) * blowup(b, tgt)


@pytest.mark.parametrize("src", [
    DPContext(2, 1),                          # a level -1 source
    DPContext(2, 0, qexp=1),                  # level 0 at the wrong qexp
    DPContext(2, 0, qexp=2, cap=17),          # a different cap
    DPContext(2, 0, SIDE_APRIME, qexp=2),     # a different side
], ids=["level-minus-one", "wrong-qexp", "other-cap", "other-side"])
def test_blowup_rejects_a_source_other_than_the_standard_algebra(src):
    tgt = DPContext(2, 1)
    assert ctx_of(2, 1, "standard") != src
    with pytest.raises(ValueError, match="blow-up into"):
        blowup(DPElem.basis(src, 1), tgt)


def test_blowup_rejects_mismatched_parameters():
    # the standard algebra at q^2 does not blow up into level -1 at q^4
    src = ctx_of(2, 1, "standard")
    tgt = DPContext(2, 1, qexp=2)
    with pytest.raises(ValueError):
        blowup(DPElem.basis(src, 1), tgt)


def test_frobenius_base_change():
    ctx = DPContext(2, 1)
    e = DPElem.basis(ctx, 1, x)
    moved = frobenius_base_change(e)
    assert moved.ctx.side == SIDE_APRIME and moved.ctx.qexp == 2
    assert moved.coeff(1) == CoordPoly.x(SIDE_APRIME)
    # coefficient Frobenius applies on scalars
    e2 = DPElem.basis(ctx, 1, CoordPoly(Q))
    assert frobenius_base_change(e2).coeff(1) == CoordPoly(QPoly([0, 0, 1]), SIDE_APRIME)
    a, b = DPElem.basis(ctx, 2), DPElem.basis(ctx, 1)
    assert frobenius_base_change(a * b) == frobenius_base_change(a) * frobenius_base_change(b)


def _twisted_coeffs_by_back_substitution(f, ctx):
    # reference: the twisted powers are monic of increasing degree, so the
    # top coefficient of what is left names the next basis coefficient
    rem, out = f, {}
    for d in range(len(f.coeffs) - 1, -1, -1):
        c = rem.coeff(d)
        if not c.is_zero():
            out[d] = c
            rem = rem - XiPoly((c,), ctx.side) * twisted_power_expand(d, ctx)
    assert rem.is_zero()
    return out


def test_to_twisted_basis_roundtrip():
    ctx = DPContext(2, 1, qexp=1)
    f = XiPoly.gen() ** 3 + XiPoly((x ** 2,)) * XiPoly.gen() + XiPoly((CoordPoly(5),))
    coeffs = to_twisted_basis(f, ctx)
    back = XiPoly((), SIDE_A)
    for idx, c in coeffs.items():
        back = back + XiPoly((c,), SIDE_A) * twisted_power_expand(idx, ctx)
    assert back == f
    # the contexts of the blow-up check, up to degree 4p
    for p in (2, 3, 5):
        f = XiPoly([CoordPoly([k % 3 - 1, 0, (-1) ** k * k]) for k in range(4 * p + 1)])
        # at m = 0 the level and the standard contexts coincide
        for qexp in (1, p):
            ctx = DPContext(p, 0, SIDE_A, qexp, cap=4 * p)
            assert to_twisted_basis(f, ctx) == _twisted_coeffs_by_back_substitution(f, ctx)


def test_degree_cap_enforced():
    ctx = DPContext(2, 1, cap=4)
    with pytest.raises(DegreeCapError):
        DPElem.basis(ctx, 5)
    e = DPElem.basis(ctx, 3)
    with pytest.raises(DegreeCapError):
        e * e


def test_dpelem_serialization():
    ctx = DPContext(3, 1)
    e = DPElem(ctx, {0: x, 2: CoordPoly(q_int(3))})
    back = DPElem.from_json(e.to_json())
    assert back == e
    assert back.ctx == ctx


def test_mixed_caps_fail_alike_in_either_order():
    a = DPElem.basis(DPContext(2, 1, cap=16), 10)
    b = DPElem.basis(DPContext(2, 1, cap=40), 10)
    for u, v in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="context mismatch"):
            u * v
        with pytest.raises(ValueError, match="context mismatch"):
            u + v


def test_generic_y_mode_is_rejected():
    data = DPContext(3, 2, SIDE_APRIME, 3, cap=24).to_json()
    for mode in ("generic", "standard"):
        with pytest.raises(ValueError, match=f"'{mode}'; the standard algebra at this twist is "
                           "the level 0 context {'p': 3, 'm': 0, 'y_mode': 'level', "
                           "'side': \"A'\", 'qexp': 27, 'cap': 24}"):
            DPContext.from_json({**data, "y_mode": mode})


@pytest.mark.parametrize("field,value", [("qexp", 0), ("qexp", -2), ("cap", -1)])
def test_context_rejects_a_nonpositive_qexp_and_a_negative_cap(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be at least"):
        DPContext(2, **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be at least"):
        DPContext.from_json({**DPContext(2).to_json(), field: value})


def test_context_json_key_order_and_roundtrip():
    ctx = DPContext(3, 2, SIDE_APRIME, 3, cap=24)
    data = ctx.to_json()
    assert list(data) == ["p", "m", "y_mode", "side", "qexp", "cap"]
    assert data["y_mode"] == "level"
    assert DPContext.from_json(data) == ctx
    assert DPContext.from_json({**data, "cap": 16}) != ctx     # the cap is identity
