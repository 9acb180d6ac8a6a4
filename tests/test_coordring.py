import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json
from fractions import Fraction
from math import gcd

from qtwist import qarith
from qtwist.qarith import (LocScalar, ONE_SCALAR, QPoly, Q, divide_exact, q_int,
                           random_locscalar)
from qtwist.coordring import (BiCoordPoly, CoordPoly, LocalizationError, SIDE_A,
                              SIDE_APRIME, SideMismatchError, accumulate, check_localized,
                              delta, frobenius_decompose, frobenius_recompose,
                              level_derivative, phi_abs, pullback_map, q_derivative,
                              rel_frobenius, sigma_power, tensor_diagonal_generator,
                              tensor_embed_left)

x = CoordPoly.x()
xp = CoordPoly.x(SIDE_APRIME)


def rand_poly(rng, p, side=SIDE_A, deg=3):
    return CoordPoly([random_locscalar(rng, p, 2, 5) for _ in range(deg + 1)], side)


def coordpoly_mul_reference(f, g):
    """f * g coefficient by coefficient, in LocScalar arithmetic."""
    out = {}
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            if a and b:
                accumulate(out, i + j, a * b)
    return CoordPoly([out.get(d, 0) for d in range(max(out, default=-1) + 1)], f.side)


def coordpoly_add_reference(f, g):
    """f + g coefficient by coefficient, in LocScalar arithmetic."""
    n = max(len(f.coeffs), len(g.coeffs))
    return CoordPoly([f.coeff(d) + g.coeff(d) for d in range(n)], f.side)


def test_sigma_power_examples():
    assert sigma_power(x, 1) == Q * x
    assert sigma_power(x + 1, 2) == QPoly([0, 0, 1]) * x + 1
    # iterated substitution matches the direct exponent formula
    f = x ** 5
    k = 9
    assert sigma_power(f, k) == QPoly((0,) * 45 + (1,)) * f


def test_phi_abs_examples():
    assert phi_abs(x, 2) == x ** 2
    assert phi_abs(Q * x, 3) == QPoly((0, 0, 0, 1)) * x ** 3
    assert phi_abs(CoordPoly(q_int(2)), 3) == CoordPoly(q_int(2).stretch(3))


def test_delta_examples():
    assert delta(x, 2).is_zero()
    assert delta(x, 5).is_zero()
    assert delta(CoordPoly(Q), 5).is_zero()
    assert delta(2 * x, 2) == -(x ** 2)


def test_q_derivative_examples():
    assert q_derivative(CoordPoly(7)).is_zero()
    for n in range(1, 7):
        assert q_derivative(x ** n) == q_int(n) * x ** (n - 1)
    assert q_derivative(x ** 2, 2) == q_int(2).stretch(2) * x


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9, 25])
def test_level_derivative_is_the_scaled_q_derivative(k):
    rng = random.Random(100 + k)
    integral = [CoordPoly([QPoly([rng.randint(-9, 9) for _ in range(3)]) for _ in range(5)])
                for _ in range(10)]
    for f in [rand_poly(rng, 5, deg=6) for _ in range(10)] + integral + [x ** 7, CoordPoly(3)]:
        assert level_derivative(f, k) == q_derivative(f, k) * LocScalar(q_int(k))


def test_rel_frobenius_and_pullback():
    assert rel_frobenius(xp, 2) == x ** 2
    assert rel_frobenius(Q * xp, 2) == Q * x ** 2
    assert pullback_map(Q * x, 2) == QPoly((0, 0, 1)) * xp
    with pytest.raises(SideMismatchError):
        rel_frobenius(x, 2)
    with pytest.raises(SideMismatchError):
        pullback_map(xp, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_relative_after_pullback_is_absolute(p):
    rng = random.Random(31 + p)
    for _ in range(30):
        f = rand_poly(rng, p)
        assert rel_frobenius(pullback_map(f, p), p) == phi_abs(f, p)


@pytest.mark.parametrize("p", [2, 3])
def test_phi_is_ring_map_with_congruence(p):
    rng = random.Random(7 * p)
    for _ in range(40):
        f, g = rand_poly(rng, p), rand_poly(rng, p)
        assert phi_abs(f * g, p) == phi_abs(f, p) * phi_abs(g, p)
        diff = phi_abs(f, p) - f ** p
        diff.map_coeffs(lambda c: divide_exact(c, p))   # raises if not = f^p mod p


@pytest.mark.parametrize("k", [1, 2, 4])
def test_twisted_leibniz(k):
    rng = random.Random(k)
    for _ in range(30):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        lhs = q_derivative(f * g, k)
        rhs = q_derivative(f, k) * g + sigma_power(f, k) * q_derivative(g, k)
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_p_decomposition(p):
    rng = random.Random(p)
    for _ in range(20):
        f = rand_poly(rng, p, deg=9)
        parts = frobenius_decompose(f, p)
        assert len(parts) == p
        assert all(g.side == SIDE_APRIME for g in parts)
        assert frobenius_recompose(parts, p) == f
    # uniqueness: the decomposition of F(g0) + F(g1) x is (g0, g1, 0, ...)
    g0, g1 = rand_poly(rng, p, SIDE_APRIME, 2), rand_poly(rng, p, SIDE_APRIME, 2)
    f = rel_frobenius(g0, p) + rel_frobenius(g1, p) * x
    parts = frobenius_decompose(f, p)
    assert parts[0] == g0 and parts[1] == g1
    assert all(parts[i].is_zero() for i in range(2, p))


@st.composite
def coord_polys(draw, fractional=False):
    """Integral CoordPolys with zero rows inside and 0 to 6 nonzero rows (both
    sides of the two-row gate), monomials and constants; with ``fractional``,
    one nonzero coefficient gets a denominator of degree 1 or 2."""
    bits = draw(st.sampled_from((4, 4, 80)))
    row = st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1,
                   max_size=draw(st.integers(1, 9)))
    rows = draw(st.one_of(
        st.lists(st.one_of(st.just([]), row), max_size=7),
        st.tuples(row, st.integers(0, 6)).map(lambda rd: [[]] * rd[1] + [rd[0]]),
        row.map(lambda r: [r])))
    cs = [LocScalar(QPoly(r)) for r in rows]
    nonzero = [i for i, c in enumerate(cs) if c]
    if fractional and nonzero:
        i = draw(st.sampled_from(nonzero))
        den = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=2)) + [draw(st.integers(1, 3))]
        cs[i] = LocScalar(cs[i].num, QPoly(den))
    return CoordPoly(cs)


@given(coord_polys(), st.one_of(coord_polys(), coord_polys(fractional=True)))
@settings(max_examples=200, deadline=None)
def test_product_matches_the_per_coefficient_route(f, g):
    assert f * g == coordpoly_mul_reference(f, g) == g * f
    assert (f * g).coeffs == coordpoly_mul_reference(f, g).coeffs


def test_packed_product_rows_of_full_length():
    # the longest rows meet in one product row, of exactly the packing stride
    a = QPoly([1, 2, 3, 4])
    f = a * x ** 2 + Q * x + 5
    g = (a + 1) * x + QPoly([7, 0, 0, 0, 0, 1])
    assert f * g == coordpoly_mul_reference(f, g)
    assert len((f * g).coeff(2).num.coeffs) == 4 + 6 - 1   # a (7 + q^5) + q (a + 1)


def test_monomial_product_multiplies_only_nonzero_rows(monkeypatch):
    # a factor with one nonzero row multiplies row by row: only the 2 nonzero
    # rows of the other factor meet it, as one q-product each
    f = LocScalar(1, q_int(3)) * x ** 2
    g = 3 * x ** 3 + Q
    expect = LocScalar(3, q_int(3)) * x ** 5 + LocScalar(Q, q_int(3)) * x ** 2
    products = []
    mul = qarith._mul

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(qarith, "_mul", counted)     # the products of qarith.mul_rows
    assert f * g == expect
    assert len(products) == 2


# ---------------------------------------------------------------------------
# the stored form: rows over one denominator, and the LocScalar view
# ---------------------------------------------------------------------------

def _qgcd_is_one(a, b):
    """Whether integer coefficient tuples a, b (b nonzero) are coprime over
    Q[q], by Euclid over the rationals."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while a:
        while b and b[-1] == 0:
            b.pop()
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
        if len(a) < len(b):
            a, b = b, a
        f, s = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[s + i] -= f * c
    return len(b) == 1


def assert_canonical(f):
    rows, den = f._form()
    assert not rows or rows[-1], "trailing zero row"
    if not rows:
        assert den == (1,)
        return
    assert den[-1] > 0
    assert gcd(*den, *(c for r in rows for c in r)) == 1
    assert any(_qgcd_is_one(r, den) for r in rows if r) or _rows_coprime_to(rows, den)


def _rows_coprime_to(rows, den):
    """Whether gcd over Q[q] of den and every row is 1: the gcd of den with a
    random integer combination of the rows (a proof only when it is 1)."""
    combo = ()
    for k, r in enumerate(rows):
        combo = qarith._add(combo, tuple(c * (2 * k + 3) for c in r))
    return _qgcd_is_one(combo, den)


def _operands(p, side=SIDE_A):
    """Fractional, integral, monomial, zero and one operands, and pairs whose
    denominators share factors with each other and with the other's rows."""
    rng = random.Random(1000 + p)
    xs = CoordPoly.x(side)
    c3 = QPoly([1, 1, 1])
    frac = [rand_poly(rng, p, side, rng.randint(0, 4)) for _ in range(6)]
    integral = [CoordPoly([QPoly([rng.randint(-9, 9) for _ in range(3)]) for _ in range(d)], side)
                for d in (1, 2, 4)]
    special = [CoordPoly((), side), CoordPoly(1, side), 5 * xs ** 3,
               LocScalar(QPoly([1, 1]), c3) * xs ** 0, c3 * xs,
               LocScalar(QPoly([1, 1]), c3) + LocScalar(1, QPoly([1, 1])) * xs,
               LocScalar(c3, QPoly([1, 1])) * xs ** 2 + LocScalar(QPoly([1, 1]), c3 * c3),
               LocScalar(2, 3) * xs + LocScalar(4, 9), LocScalar(1, Q) * xs + 1,
               LocScalar(Q, QPoly([1, 1])) * xs ** 2]
    return frac + integral + special


@pytest.mark.parametrize("side", [SIDE_A, SIDE_APRIME])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_and_sum_match_the_per_coefficient_reference(p, side):
    ops = _operands(p, side)
    for f in ops:
        for g in ops:
            prod, total = f * g, f + g
            ref_prod, ref_sum = coordpoly_mul_reference(f, g), coordpoly_add_reference(f, g)
            assert prod == ref_prod and prod.coeffs == ref_prod.coeffs
            assert total == ref_sum and total.coeffs == ref_sum.coeffs
            assert (f - g).coeffs == coordpoly_add_reference(f, -g).coeffs
            for h in (prod, total):
                assert_canonical(h)


def test_shared_factors_cancel_in_products_and_sums():
    c3 = QPoly([1, 1, 1])
    f = CoordPoly(LocScalar(QPoly([1, 1]), c3))
    g = c3 * x
    assert f * g == QPoly([1, 1]) * x
    assert (f * g)._form() == (((), (1, 1)), (1,))
    h = LocScalar(1, c3) * x + LocScalar(QPoly([-1, -1]), c3 * QPoly([1, 1]))
    assert (h + LocScalar(1, c3))._form() == (((), (1,)), (1, 1, 1))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unary_maps_keep_the_form_canonical(p):
    rng = random.Random(7 + p)
    for f in _operands(p) + [rand_poly(rng, p) * rand_poly(rng, p) for _ in range(4)]:
        for g in (sigma_power(f, 2), phi_abs(f, p), q_derivative(f, 2), level_derivative(f, p),
                  pullback_map(f, p), -f, f * LocScalar(QPoly([1, 1]), QPoly([3, 1]))):
            assert_canonical(g)
            assert g == CoordPoly(list(g.coeffs), g.side)
        # the same map on the view and on the rows of an element
        rows_only = f * 1
        for fn in (lambda h: sigma_power(h, 3), lambda h: phi_abs(h, p),
                   lambda h: rel_frobenius(pullback_map(h, p), p)):
            assert fn(f).coeffs == fn(rows_only).coeffs and fn(f) == fn(rows_only)


def test_view_and_arithmetic_agree_on_equality_and_hash():
    rng = random.Random(5)
    for _ in range(20):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        built = CoordPoly(list((f * g).coeffs))       # from LocScalars: the view only
        reached = f * g                               # by arithmetic: the rows only
        assert built == reached and hash(built) == hash(reached)
        assert built.coeffs == reached.coeffs == coordpoly_mul_reference(f, g).coeffs
        assert CoordPoly.from_json(json.loads(json.dumps(reached.to_json()))) == reached
        assert CoordPoly.from_json(reached.to_json()).to_json() == reached.to_json()
        assert str(built) == str(reached) and repr(built) == repr(reached)


def test_check_localized_names_the_coefficient():
    f = CoordPoly([1, LocScalar(1, QPoly([1, 1]))])
    check_localized(f, 3)
    with pytest.raises(LocalizationError, match="^term 2, coefficient 1 = "):
        check_localized(f, 2, "term 2, ")
    assert issubclass(LocalizationError, ValueError)


def test_monomial_rejects_a_negative_degree():
    assert CoordPoly.monomial(3, 2) == 3 * x ** 2
    for d in (-1, -2):               # used to return the constant 3
        with pytest.raises(ValueError):
            CoordPoly.monomial(3, d)


def test_side_mixing_is_an_error():
    with pytest.raises(SideMismatchError):
        x + xp
    with pytest.raises(SideMismatchError):
        x * xp


# ---------------------------------------------------------------------------
# the tensor square over the Frobenius pullback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_reduction_and_telescope(p):
    high = BiCoordPoly(p, {(0, p + 1): 1})
    assert high.terms == {(p, 1): ONE_SCALAR}
    gen = tensor_diagonal_generator(p)
    telescope = BiCoordPoly(p, {(i, p - 1 - i): 1 for i in range(p)})
    assert (gen * telescope).is_zero()


def tensor_embed_right(f, p):
    """f(x) -> f(x2): the second inclusion, reduced to normal form."""
    return BiCoordPoly(p, {(0, d): c for d, c in enumerate(f.coeffs)})


def test_tensor_embeddings():
    assert tensor_embed_left(x, 2).terms == {(1, 0): ONE_SCALAR}
    assert tensor_embed_right(x, 2).terms == {(0, 1): ONE_SCALAR}
    f = x ** 3 + 2 * x
    lhs = tensor_embed_right(f, 2)
    assert lhs.terms == {(2, 1): ONE_SCALAR, (0, 1): LocScalar(2)}


def test_coordpoly_serialization():
    f = QPoly([1, -1]) * x ** 2 + LocScalar(QPoly([1]), QPoly([3])) * x
    assert CoordPoly.from_json(f.to_json()) == f
    assert f.to_json()["side"] == "A"
