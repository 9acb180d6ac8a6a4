import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwist import qarith
from qtwist.coordring import add_rows, sigma_rows
from qtwist.qarith import (DIVISION_CUTOFF, HORNER_TERMS, KRONECKER_CUTOFF, LocScalar,
                           NotDivisibleError, ONE, QPoly, Q, _divexact, _divexact_packed,
                           _divmod_int, _exponent_gcd, _gcd_cofactors, _scale, _stretch,
                           _kron_pack, _kron_sum, _kron_unpack, _mul, _mul_schoolbook,
                           _neg, _primitive, _pseudo_rem, _trim, cyclotomic,
                           divide_exact, is_unit, mul_q_int, mul_rows,
                           q_binomial, q_factorial,
                           q_factorial_cyclotomic_exponents, q_int,
                           random_locscalar, random_qpoly)
from trial_division import divide_by_cyclotomic_product


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

def test_q_int_examples():
    assert q_int(0) == QPoly()
    assert q_int(1) == ONE
    assert q_int(3) == QPoly([1, 1, 1])


def test_q_int_negative_rejected():
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_examples():
    for n in range(6):
        assert q_binomial(n, 0) == ONE
    assert q_binomial(2, 1) == QPoly([1, 1])
    assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])


def test_q_binomial_range_errors():
    with pytest.raises(ValueError):
        q_binomial(2, 3)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


@pytest.mark.parametrize("n", range(13))
def test_pascal_recurrences(n):
    for k in range(1, n):
        b = q_binomial(n, k)
        assert b == q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shifted(k)
        assert b == q_binomial(n - 1, k - 1).shifted(n - k) + q_binomial(n - 1, k)


@pytest.mark.parametrize("n", range(13))
def test_binomial_is_factorial_quotient(n):
    for k in range(n + 1):
        quo = LocScalar(q_factorial(n)) / LocScalar(q_factorial(k) * q_factorial(n - k))
        assert quo.is_polynomial()
        assert quo.num == q_binomial(n, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factorial_frobenius_substitution(p):
    # q -> q^p carries the factorial to the factorial of the substituted analogs
    for n in range(13):
        prod = ONE
        for j in range(1, n + 1):
            prod = prod * q_int(j).stretch(p)
        assert q_factorial(n).stretch(p) == prod


def test_specialization_at_one():
    for n in range(9):
        assert q_int(n).at_one() == n
        for k in range(n + 1):
            import math
            assert q_binomial(n, k).at_one() == math.comb(n, k)


# ---------------------------------------------------------------------------
# cyclotomic machinery
# ---------------------------------------------------------------------------

def test_cyclotomic_basics():
    assert cyclotomic(1) == QPoly([-1, 1])
    assert cyclotomic(2) == QPoly([1, 1])
    assert cyclotomic(6) == QPoly([1, -1, 1])
    assert q_int(6) == cyclotomic(2) * cyclotomic(3) * cyclotomic(6)


def test_factorial_cyclotomic_exponents():
    # (n)_{q^j}! = prod cyclotomic(d)^e over the returned exponents
    for n in range(11):
        for j in (1, 2, 3, 5, 7):
            exps = q_factorial_cyclotomic_exponents(n, j)
            assert isinstance(exps, Counter)
            prod = ONE
            for d, e in exps.items():
                prod = prod * cyclotomic(d) ** e
            assert prod == q_factorial(n).stretch(j), (n, j)


def cyclotomic_product(factors):
    """prod cyclotomic(d)^e over the items (d, e) of factors."""
    return math.prod((cyclotomic(d) ** e for d, e in factors.items()), start=ONE)


def test_divide_by_cyclotomic_product():
    z = LocScalar(q_factorial(4) * QPoly([0, 5]))
    divisor = cyclotomic_product(q_factorial_cyclotomic_exponents(4))
    out = z / divisor
    assert out == LocScalar(QPoly([0, 5]))
    assert same(out, reduced_again(out)) and out * divisor == z
    # non-dividing factors move to the denominator, already reduced
    w = LocScalar(ONE) / cyclotomic_product({2: 1})
    assert w.num == ONE and w.den == q_int(2)
    assert same(w, reduced_again(w)) and w * cyclotomic(2) == LocScalar(ONE)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_canonical_form():
    a = LocScalar(QPoly([2, 2]), QPoly([4]))
    assert (a.num, a.den) == (QPoly([1, 1]), QPoly([2]))
    assert a == LocScalar(QPoly([-1, -1]), QPoly([-2]))
    c = LocScalar(q_int(2) * q_int(3), q_int(3) * QPoly(5))
    assert (c.num, c.den) == (q_int(2), QPoly([5]))


def test_is_unit_examples():
    assert is_unit(LocScalar(Q), 2)
    assert is_unit(LocScalar(Q), 5)
    assert not is_unit(LocScalar(q_int(2)), 2)
    assert is_unit(LocScalar(q_int(2)), 3)
    assert not is_unit(LocScalar(QPoly()), 3)


def test_divide_exact_by_p():
    # phi((2)_q) - ((2)_q)^2 = -2q at p = 2
    phi2 = q_int(2).stretch(2)
    diff = LocScalar(phi2 - q_int(2) * q_int(2))
    assert diff == LocScalar(QPoly([0, -2]))
    assert divide_exact(diff, 2) == LocScalar(QPoly([0, -1]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divide_exact_by_q_analog(p):
    # (p^2)_q = (p)_q * (p)_{q^p}
    z = LocScalar(q_int(p * p))
    assert divide_exact(z, q_int(p)) == LocScalar(q_int(p).stretch(p))


def test_divide_exact_not_divisible():
    with pytest.raises(NotDivisibleError):
        divide_exact(LocScalar(ONE), 3)
    with pytest.raises(NotDivisibleError) as err:
        divide_exact(LocScalar(QPoly([1, 2])), 2)
    assert err.value.witness is not None


@pytest.mark.parametrize("p", [2, 3])
def test_divide_roundtrip_random(p):
    rng = random.Random(2024 + p)
    for _ in range(60):
        z = random_locscalar(rng, p)
        assert divide_exact(LocScalar(z.num * p, z.den), p) == z
        zq = z * q_int(p)
        assert divide_exact(zq, q_int(p)) == z


def test_fraction_field_agreement_random():
    rng = random.Random(99)
    for _ in range(300):
        z1, z2 = random_locscalar(rng, 3), random_locscalar(rng, 3)
        results = [z1 + z2, z1 - z2, z1 * z2] + ([z1 / z2] if z2 else [])
        for pt in (2, 3, -2):
            dens = [z.den.eval_int(pt) for z in [z1, z2] + results]
            if 0 in dens or (z2 and z2.num.eval_int(pt) == 0):
                continue
            f1, f2, *got = (Fraction(z.num.eval_int(pt), d)
                            for z, d in zip([z1, z2] + results, dens))
            assert got == [f1 + f2, f1 - f2, f1 * f2] + ([f1 / f2] if z2 else [])


def test_fraction_agreement_check_catches_a_planted_fault(monkeypatch):
    from qtwist.verify import VerifyConfig, check_fraction_agreement
    add = qarith._add

    def faulty(a, b):              # off by one in the constant term of longer sums
        out = add(a, b)
        return (out[0] + 1,) + out[1:] if len(out) >= 4 else out

    monkeypatch.setattr(qarith, "_add", faulty)
    assert check_fraction_agreement(VerifyConfig())[0] is False


def test_evaluation_matches_fractions():
    rng = random.Random(5)
    for _ in range(100):
        z1, z2 = random_locscalar(rng, 2), random_locscalar(rng, 2)
        s = z1 + z2
        m = z1 * z2
        for pt in (2, 3, -2):
            d1, d2 = z1.den.eval_int(pt), z2.den.eval_int(pt)
            if 0 in (d1, d2, s.den.eval_int(pt), m.den.eval_int(pt)):
                continue
            f1 = Fraction(z1.num.eval_int(pt), d1)
            f2 = Fraction(z2.num.eval_int(pt), d2)
            assert Fraction(s.num.eval_int(pt), s.den.eval_int(pt)) == f1 + f2
            assert Fraction(m.num.eval_int(pt), m.den.eval_int(pt)) == f1 * f2


# ---------------------------------------------------------------------------
# ring axioms, property-based
# ---------------------------------------------------------------------------

small_polys = st.lists(st.integers(-20, 20), max_size=6).map(QPoly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_qpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_stretch_multiplicative(a, k):
    assert (a * a).stretch(k) == a.stretch(k) * a.stretch(k)


def test_stretch_and_shift_reject_bad_exponents():
    a = QPoly([1, 2, 3])
    assert a.stretch(3) == QPoly([1, 0, 0, 2, 0, 0, 3]) and a.shifted(0) == a
    for k in (0, -1):                # stretch(0) used to give 3, stretch(-1) an IndexError
        with pytest.raises(ValueError):
            a.stretch(k)
    with pytest.raises(ValueError):  # used to return a unshifted
        a.shifted(-1)


small_scalars = st.builds(
    LocScalar,
    st.lists(st.integers(-9, 9), max_size=4).map(QPoly),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(QPoly).filter(bool))


@given(small_scalars, small_scalars, small_scalars)
@settings(max_examples=50, deadline=None)
def test_fraction_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not c.is_zero():
        assert (a / c) * c == a


@given(st.lists(st.integers(-9, 9), max_size=4).map(QPoly),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(QPoly).filter(bool),
       st.integers(0, 4), st.integers(0, 7))
@settings(max_examples=120, deadline=None)
def test_fraction_shift_is_multiplication_by_a_power_of_q(num, den, v, s):
    # den = q^v * den: s runs below, at and above v_q(den)
    z = LocScalar(num, den.shifted(v))
    qs = LocScalar(QPoly((0,) * s + (1,)))
    assert z.shifted(s) == z * qs == LocScalar(num.shifted(s), den.shifted(v))
    assert z.shifted(s).shifted(v) == z.shifted(s + v)


def test_fraction_shift_cancels_powers_of_q_first():
    z = LocScalar(QPoly([2, 1]), QPoly([0, 0, 3, 1]))      # (q + 2) / (q^3 + 3q^2)
    assert z.shifted(1) == LocScalar(QPoly([2, 1]), QPoly([0, 3, 1]))
    assert z.shifted(2) == LocScalar(QPoly([2, 1]), QPoly([3, 1]))
    assert z.shifted(5) == LocScalar(QPoly([0, 0, 0, 2, 1]), QPoly([3, 1]))
    assert LocScalar(QPoly()).shifted(3) == LocScalar(QPoly()) and z.shifted(0) == z
    with pytest.raises(ValueError):
        z.shifted(-1)


def test_qpoly_serialization_roundtrip():
    a = QPoly([1, -2, 0, 10 ** 30])
    assert QPoly.from_json(a.to_json()) == a
    z = LocScalar(QPoly([1, 1]), QPoly([3]))
    assert LocScalar.from_json(z.to_json()) == z


def test_q_minus_one_rewrite():
    assert QPoly([1, 1]).to_q_minus_one() == (2, 1)
    assert q_int(4).to_q_minus_one()[0] == 4
    # full reconstruction
    f = QPoly([3, -1, 4, 2])
    ts = f.to_q_minus_one()
    back = QPoly()
    t = QPoly([-1, 1])
    for b, c in enumerate(ts):
        back = back + t ** b * c
    assert back == f


# ---------------------------------------------------------------------------
# product kernel: Kronecker substitution against the schoolbook reference
# ---------------------------------------------------------------------------

@st.composite
def kernel_operands(draw, min_len=1, max_len=80):
    """Trimmed coefficient tuples: 1 to 200-bit coefficients, interior zeros,
    leading coefficient of either sign."""
    n = draw(st.integers(min_len, max_len))
    bound = (1 << draw(st.integers(1, 200))) - 1
    body = draw(st.lists(st.one_of(st.just(0), st.integers(-bound, bound)),
                         min_size=n - 1, max_size=n - 1))
    lead = draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1)))
    return tuple(body) + (lead,)


@st.composite
def sparse_operands(draw, min_len=24, max_len=80):
    """Trimmed tuples of 24+ terms with KRONECKER_CUTOFF - 2 to + 2 nonzero
    coefficients, so products fall on both sides of the kernel choice."""
    n = draw(st.integers(min_len, max_len))
    k = draw(st.integers(KRONECKER_CUTOFF - 2, KRONECKER_CUTOFF + 2))
    where = draw(st.sets(st.integers(0, n - 2), min_size=k - 1, max_size=k - 1))
    bound = (1 << draw(st.integers(1, 100))) - 1
    out = [0] * n
    for i in list(where) + [n - 1]:
        out[i] = draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1)))
    return tuple(out)


def packed(a, b):
    """a * b as one packed product, the way _mul makes it."""
    return _trim(_kron_sum([(a, (b,), 0)]))


@given(kernel_operands(), kernel_operands())
@settings(max_examples=150, deadline=None)
def test_mul_matches_schoolbook(a, b):
    ref = _mul_schoolbook(a, b)
    assert _mul(a, b) == ref
    assert packed(a, b) == ref
    assert packed(a, a) == _mul_schoolbook(a, a)


@given(st.one_of(
    st.tuples(kernel_operands(max_len=8), kernel_operands(min_len=KRONECKER_CUTOFF)),
    st.tuples(kernel_operands(min_len=KRONECKER_CUTOFF - 2, max_len=KRONECKER_CUTOFF + 2),
              kernel_operands(min_len=KRONECKER_CUTOFF)),
    st.tuples(sparse_operands(), sparse_operands()),
    st.tuples(sparse_operands(), kernel_operands(min_len=24))))
@settings(max_examples=120, deadline=None)
def test_mul_matches_schoolbook_near_cutoff_and_unbalanced(ab):
    a, b = ab
    ref = _mul_schoolbook(a, b)
    assert _mul(a, b) == ref == _mul(b, a)
    assert packed(a, b) == ref == packed(b, a)


@given(kernel_operands(), kernel_operands())
@settings(max_examples=80, deadline=None)
def test_packed_squares_match_the_schoolbook_square(a, b):
    # the pair (a, a) packs a once and squares; an equal copy of a multiplies two packings
    square = _mul_schoolbook(a, a)
    assert packed(a, a) == square == packed(a, (*a,))
    assert _trim(_kron_sum([(a, (a,), 0), (b, (a,), 0), (b, (b,), 0)])) == qarith._add(
        square, _mul_schoolbook(b, qarith._add(a, b)))


def schoolbook_every_term(a, b):
    """The schoolbook loop that walks every b_j, as the reference."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


@given(st.one_of(st.tuples(kernel_operands(max_len=12), kernel_operands(max_len=12)),
                 st.tuples(sparse_operands(), sparse_operands())))
@settings(max_examples=100, deadline=None)
def test_schoolbook_skips_zeros_of_both_operands(ab):
    a, b = ab
    assert _mul_schoolbook(a, b) == schoolbook_every_term(a, b) == _mul_schoolbook(b, a)
    assert _mul_schoolbook(a, (0,) * 3 + b) == schoolbook_every_term(a, (0,) * 3 + b)
    assert _mul_schoolbook(a, ()) == () == _mul_schoolbook((), b)


@given(kernel_operands(min_len=KRONECKER_CUTOFF), kernel_operands(min_len=KRONECKER_CUTOFF))
@settings(max_examples=40, deadline=None)
def test_kronecker_products_that_cancel(a, b):
    pa, pb = QPoly(a), QPoly(b)
    assert pa * (pb - pb) == QPoly()
    # an all-zero operand has no nonzero terms, so _mul never packs it
    assert _mul(a, (0,) * len(b)) == () == _mul((0,) * len(a), b)
    # untrimmed operands: the top of the product is zero and is trimmed off
    assert packed(a + (0,) * 5, b + (0,) * 3) == _mul_schoolbook(a, b)
    assert (pa * pb - pb * pa).is_zero()


@pytest.mark.parametrize("n", [KRONECKER_CUTOFF - 1, KRONECKER_CUTOFF, 23, 24, 40, 80])
def test_kronecker_interior_cancellation(n):
    qn = Q ** n
    assert (qn - ONE) * (qn + ONE) == Q ** (2 * n) - ONE
    assert q_int(n) * QPoly((-1, 1)) == qn - ONE
    # these operands are sparse, so `*` takes the loop; check the packed kernel directly
    assert packed((qn - ONE).coeffs, (qn + ONE).coeffs) == (Q ** (2 * n) - ONE).coeffs
    assert packed(q_int(n).coeffs, (-1, 1)) == (qn - ONE).coeffs


@pytest.mark.parametrize("w", [1, 2, 4, 7, 8, 26])
def test_kronecker_digits_at_the_extremes(w):
    top = (1 << (8 * w - 1)) - 1
    digits = [top, -top, -top - 1, top, 0, -1, 1, -top, -top - 1, top]
    assert _kron_unpack(_kron_pack(digits, w), w, len(digits)) == digits
    assert _kron_unpack(_kron_pack([-top] * 30, w), w, 30) == [-top] * 30
    # both packings, shifts up to HORNER_TERMS terms and bytes above, give sum a_i X^i
    for n in range(HORNER_TERMS - 1, HORNER_TERMS + 3):
        a = digits[:n]
        assert _kron_pack(a, w) == sum(c << (8 * w * i) for i, c in enumerate(a))


def kron_unpack_by_digits(x, w, m):
    """The m signed base-256^w digits of x, one int.from_bytes per digit."""
    o = int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")
    s, h = (x + o).to_bytes(w * m, "little"), 1 << (8 * w - 1)
    return [int.from_bytes(s[i:i + w], "little") - h for i in range(0, w * m, w)]


@st.composite
def wide_digits(draw):
    w = draw(st.integers(9, 26))
    h = 1 << (8 * w - 1)
    digit = st.one_of(st.sampled_from([-h, h - 1, -1, 0, 1]), st.integers(-h, h - 1))
    return w, draw(st.lists(digit, min_size=1, max_size=40))


@given(wide_digits())
@settings(max_examples=300, deadline=None)
def test_wide_digits_unpack_as_the_per_digit_loop_does(wd):
    w, digits = wd
    x = _kron_pack(digits, w)
    assert _kron_unpack(x, w, len(digits)) == kron_unpack_by_digits(x, w, len(digits)) == digits
    # one digit more than m is an overflow, whichever its sign
    h = 1 << (8 * w - 1)
    for top in (1, -1, h - 1, -h):
        with pytest.raises(OverflowError):
            _kron_unpack(x + (top << (8 * w * len(digits))), w, len(digits))


@pytest.mark.parametrize("bits", [1, 4, 60, 63, 64, 200])
@pytest.mark.parametrize("n", [24, 127, 255])
def test_kronecker_coefficients_at_the_bound(bits, n):
    # the middle coefficient, +-n * m^2, is just below 2^(2*bits + bitlen(n)),
    # the bound the digit width is chosen from; for several of these shapes
    # the sign bit is the only bit of slack in the whole bytes
    m = (1 << bits) - 1
    a = (m,) * n
    b = (-m,) * n
    assert packed(a, b) == _mul_schoolbook(a, b)
    assert packed(a, a) == _mul_schoolbook(a, a)
    assert packed(b, b)[n - 1] == n * m * m


def rows_sum_reference(pairs):
    """sum of the one-pair products mul_rows([(a, b)]), added row by row."""
    out = ()
    for a, b in pairs:
        out = add_rows(out, mul_rows([(a, b)]))
    return out


def rows_by_schoolbook(a, b):
    """The rows of (sum a_i x^i)(sum b_j x^j), one schoolbook product per pair of rows."""
    out = ()
    for i, r in enumerate(a):
        for j, s in enumerate(b):
            out = add_rows(out, ((),) * (i + j) + (_mul_schoolbook(r, s),))
    return out


@st.composite
def row_operands(draw):
    """Row tuples with a nonzero last row: empty, one row, or up to 4 rows with
    empty rows inside; each row a short kernel operand."""
    n = draw(st.integers(0, 4))
    rows = [draw(st.one_of(st.just(()), kernel_operands(max_len=6))) for _ in range(n)]
    return tuple(rows[:-1]) + (draw(kernel_operands(max_len=6)),) if rows else ()


@given(st.lists(st.tuples(row_operands(), row_operands()), max_size=5))
@settings(max_examples=150, deadline=None)
def test_packed_sum_of_row_products_matches_the_sum_of_products(pairs):
    assert mul_rows(pairs) == rows_sum_reference(pairs)
    for a, b in pairs:
        assert mul_rows([(a, b)]) == rows_by_schoolbook(a, b)
    # the same products summed twice, once negated, cancel to no rows at all
    assert mul_rows(pairs + [(a, tuple(_neg(r) for r in b)) for a, b in pairs]) == ()


def test_packed_sum_edge_cases():
    one, two = ((3, 1),), ((1,), (), (2, -1))
    assert mul_rows([]) == () == mul_rows([((), two), (one, ())])
    assert mul_rows([(one, two)]) == rows_by_schoolbook(one, two)       # row by row
    assert mul_rows([(one, two), (two, one)]) == add_rows(*[rows_by_schoolbook(one, two)] * 2)
    assert mul_rows([(two, two), ((), one)]) == rows_by_schoolbook(two, two)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_sum_digits_at_the_bound(w, sign):
    # two one-row pairs (c1) (1) + (c2) (1): the one digit is c1 + c2 = +-S; at
    # S = 2^(8w-1) - 1 it needs every bit of w bytes, at S + 1 a wider digit
    for top in ((1 << (8 * w - 1)) - 1, 1 << (8 * w - 1)):
        c1 = top // 3
        pairs = [(((sign * c1,),), ((1,),)), (((sign * (top - c1),),), ((1,),))]
        assert mul_rows(pairs) == ((sign * top,),)
        # min(nnz) = 2 products per digit: twice (M + M q)(M + M q) has middle digit 4 M^2 = S
        m = top.bit_length() // 2
        big = ((1 << m) - 1,) * 2
        assert mul_rows([((big,), ((sign * big[0],) * 2,))] * 2) == (
            tuple(2 * sign * big[0] ** 2 * c for c in (1, 2, 1)),)


@pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_row_by_row_digits_at_the_bound(w, sign):
    # (c + c x)(1 + x) has middle row 2c: S counts the nonzero terms of all the rows
    # multiplied one by one, min(2, 2) per digit; a pair (x)(1) makes the odd S
    for top in ((1 << (8 * w - 1)) - 1, 1 << (8 * w - 1)):
        c = sign * (top // 2)
        pairs = [(((c,), (c,)), ((1,), (1,)))] + [(((), (sign,)), ((1,),))] * (top % 2)
        assert mul_rows(pairs) == ((c,), (sign * top,), (c,))


@st.composite
def lopsided_rows(draw):
    """(short, long): 1 to 5 rows of 1 to 3 terms against 1 to 4 rows of 20 to 40 terms,
    either with empty rows inside and, as ``sigma_rows`` twists them, k d zeros before
    row d."""
    def rows(min_len, max_len, n):
        inner = [draw(st.one_of(st.just(()), kernel_operands(min_len, max_len)))
                 for _ in range(n - 1)]
        out = tuple(inner) + (draw(kernel_operands(min_len, max_len)),)
        return sigma_rows(out, draw(st.integers(0, 7))) if draw(st.booleans()) else out
    return rows(1, 3, draw(st.integers(1, 5))), rows(20, 40, draw(st.integers(1, 4)))


@given(st.lists(st.tuples(lopsided_rows(), st.booleans()), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_lopsided_row_products_match_the_schoolbook(items):
    # the long factor packs whole and the short one multiplies it row by row, on
    # whichever side of the pair it stands
    pairs = [(s, t) if short_first else (t, s) for (s, t), short_first in items]
    assert mul_rows(pairs) == rows_sum_reference(pairs)
    by_schoolbook = ()
    for a, b in pairs:
        by_schoolbook = add_rows(by_schoolbook, rows_by_schoolbook(a, b))
        assert mul_rows([(a, b)]) == rows_by_schoolbook(a, b) == mul_rows([(b, a)])
    assert mul_rows(pairs) == by_schoolbook


@st.composite
def dense_operands(draw, min_len=KRONECKER_CUTOFF, max_len=24):
    """Tuples with no zero coefficient, so that every product of two of them is packed."""
    n = draw(st.integers(min_len, max_len))
    bound = (1 << draw(st.integers(1, 100))) - 1
    return tuple(draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1))) for _ in range(n))


@given(dense_operands(), dense_operands(), st.integers(2, 7), st.integers(1, 7), st.integers(0, 9))
@settings(max_examples=120, deadline=None)
def test_products_in_z_q_k_are_taken_in_q_k(a, b, k, j, s):
    ak, bk, bj = _stretch(a, k), (0,) * (k * s) + _stretch(b, k), _stretch(b, j)
    assert _exponent_gcd(ak, bk) == k and _exponent_gcd(ak, bj) == math.gcd(k, j)
    assert _mul(ak, bk) == _mul_schoolbook(ak, bk) == _stretch(_mul_schoolbook(a, (0,) * s + b), k)
    assert _mul(ak, ak) == _mul_schoolbook(ak, ak)
    assert _mul(ak, bj) == _mul_schoolbook(ak, bj) == _mul(bj, ak)
    # an operand in Z[q^k] times one outside it: gcd 1, the product in q
    outside = (0,) * (k * s + 1) + bk
    assert _exponent_gcd(ak, outside) == 1
    assert _mul(ak, outside) == _mul_schoolbook(ak, outside) == _mul(outside, ak)


@given(kernel_operands(max_len=30), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_window_sums_multiply_by_the_q_integer(a, n):
    assert mul_q_int(a, n) == _mul(a, q_int(n).coeffs) == _mul_schoolbook(a, (1,) * n)
    assert mul_q_int((), n) == ()


# ---------------------------------------------------------------------------
# division kernels: packed exact division and the pseudo-remainder, against
# the loops they replace
# ---------------------------------------------------------------------------

def divexact_reference(a, b):
    q, r = _divmod_int(a, b)
    if r:
        raise NotDivisibleError("nonzero remainder", witness=r)
    return q


def outcome(f, a, b):
    try:
        return f(a, b)
    except NotDivisibleError:
        return "not divisible"


@st.composite
def divisors(draw):
    """Monomials, cyclotomics, and random divisors with interior zeros whose
    leading coefficient is +-1, 2 or 3."""
    kind = draw(st.sampled_from(("monomial", "cyclotomic", "random")))
    lead = draw(st.sampled_from((1, -1, 2, -2, 3)))
    if kind == "monomial":
        return (0,) * draw(st.integers(0, 5)) + (lead,)
    if kind == "cyclotomic":
        return cyclotomic(draw(st.integers(1, 30))).coeffs
    body = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=1, max_size=12))
    return tuple(body) + (lead,)


@st.composite
def division_cases(draw):
    """(a, b) with len(a) on both sides of DIVISION_CUTOFF; a = c * b, plus a
    remainder r of lower degree than b when r is drawn nonzero."""
    b = draw(divisors())
    n = draw(st.integers(max(DIVISION_CUTOFF - 8 - len(b), 1), DIVISION_CUTOFF + 40))
    bound = (1 << draw(st.integers(1, 80))) - 1
    c = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n).map(_trim))
    r = draw(st.one_of(st.just(()), st.lists(st.integers(-bound, bound), min_size=len(b) - 1,
                                               max_size=len(b) - 1).map(_trim)))
    a = qarith._add(_mul_schoolbook(c, b), r)
    return (a, b) if a else ((1,), b)


@given(division_cases())
@settings(max_examples=300, deadline=None)
def test_divexact_matches_the_loop(ab):
    a, b = ab
    want = outcome(divexact_reference, a, b)
    assert outcome(_divexact, a, b) == want
    packed = outcome(_divexact_packed, a, b)
    assert packed in (None, want)
    if want != "not divisible" and max(map(abs, want)) <= max(map(abs, a)):
        assert packed == want      # the digit width leaves room for this quotient


@pytest.mark.parametrize("bits", [30, 62])
def test_packed_width_leaves_room_for_the_divisor_norm(bits):
    # a = m (q^8 - 1) over b = (8)_q: the quotient m (q - 1) is as large as
    # a, but times |b|_1 = 8 it needs three bits more than a's coefficients
    m = (1 << bits) - 1
    b = (1,) * 8
    a = (-m,) + (0,) * 7 + (m,)
    assert _divexact_packed(a, b) == (-m, m)
    long_a = _mul_schoolbook((-m, m) * 20, b)
    assert len(long_a) >= DIVISION_CUTOFF
    assert _divexact_packed(long_a, b) == _divexact(long_a, b) == (-m, m) * 20


def test_packed_division_with_a_zero_remainder_that_is_not_exact():
    # b = q + 1, so b(256) = 257; a(-1) = 514 = 2 * 257 with |a_i| <= 15, so
    # the digits are one byte wide and 257 divides a(256), yet q + 1 does not
    # divide a (a(-1) != 0).  Only the digit bound rejects the quotient.
    a = [15 if i % 2 == 0 else -15 for i in range(36)]
    a[0] -= 13
    a[1] += 13
    a, b = tuple(a), (1, 1)
    assert _kron_pack(a, 1) % 257 == 0
    assert _divexact_packed(a, b) is None
    with pytest.raises(NotDivisibleError):
        _divexact(a, b)
    with pytest.raises(NotDivisibleError):
        divexact_reference(a, b)


def test_packed_division_falls_back_on_a_large_quotient():
    # (q - 1)^2 times a tent 1, 2, ..., 40, ..., 1 has coefficients in
    # {-2, ..., 1}, so the quotient is 20 times larger than the dividend
    # and fails the digit bound; the loop returns it
    c = tuple(range(1, 41)) + tuple(range(39, 0, -1))
    b = (1, -2, 1)
    a = _mul_schoolbook(c, b)
    assert max(map(abs, a)) == 2 and len(a) >= DIVISION_CUTOFF
    assert _divexact_packed(a, b) is None
    assert _divexact(a, b) == c


@pytest.mark.parametrize("d", [5, 7, 9, 10, 12])
def test_packed_division_by_cyclotomics(d):
    phi = cyclotomic(d).coeffs
    a = (q_factorial(12) * QPoly([3, -1, 4])).coeffs
    assert len(a) >= DIVISION_CUTOFF
    assert _divexact_packed(a, phi) == divexact_reference(a, phi)
    with pytest.raises(NotDivisibleError) as err:
        _divexact_packed(qarith._add(a, (1,)), phi)
    assert isinstance(err.value.witness, int)      # the integer remainder


def pseudo_rem_reference(a, b):
    """prem(a, b) as the loop scaled every coefficient before."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    a = list(a)
    for i in range(da, db - 1, -1):
        c = a[i]
        for j in range(len(a)):
            a[j] *= lb
        if c:
            for j, bj in enumerate(b):
                a[i - db + j] -= c * bj
        a[i] = 0
    return _trim(a)


def gcd_reference(a, b):
    if not a or not b:
        return _primitive(a or b)
    if len(a) == 1 or len(b) == 1:
        return (1,)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, _primitive(pseudo_rem_reference(a, b))
    return a


def primitive_gcd(a, b):
    """The gcd of ``_gcd_cofactors``, with the primitive part of the other
    operand when one is zero."""
    if not a or not b:
        return _primitive(a or b)
    return _gcd_cofactors(a, b)[0]


@given(divisors(), divisors(), divisors())
@settings(max_examples=200, deadline=None)
def test_pseudo_rem_and_gcd_match_the_reference_loop(g, u, v):
    a, b = _mul_schoolbook(g, u), _mul_schoolbook(g, v)
    assert _pseudo_rem(a, b) == pseudo_rem_reference(a, b)
    assert _pseudo_rem(b, a) == pseudo_rem_reference(b, a)
    assert primitive_gcd(a, b) == gcd_reference(a, b) == primitive_gcd(b, a)


@st.composite
def wide_polys(draw, max_terms):
    """1..max_terms terms of up to 80 bits, interior zeros allowed, and a
    leading coefficient of either sign."""
    bound = 1 << draw(st.integers(1, 80))
    coeff = st.integers(1 - bound, bound - 1)
    n = draw(st.integers(0, max_terms - 1))
    body = draw(st.lists(st.one_of(st.just(0), coeff), min_size=n, max_size=n))
    return tuple(body) + (draw(coeff.filter(bool)),)


@given(wide_polys(20), wide_polys(40), wide_polys(40),
       st.integers(1, 1 << 40), st.integers(1, 1 << 20), st.integers(1, 1 << 20))
@settings(max_examples=150, deadline=None)
def test_gcd_cofactors_match_the_reference_loop(g, u, v, shared, ca, cb):
    """A planted common factor g, contents with a shared part, up to 59
    terms: the gcd is the parent loop's and the cofactors multiply back."""
    a, b = _scale(_mul(g, u), shared * ca), _scale(_mul(g, v), -shared * cb)
    h, a_h, b_h = _gcd_cofactors(a, b)
    assert h == gcd_reference(a, b)
    assert _mul(h, a_h) == a and _mul(h, b_h) == b
    assert _gcd_cofactors(b, a) == (h, b_h, a_h)


def count_calls(monkeypatch, name):
    calls = Counter()
    f = getattr(qarith, name)

    def counted(*args):
        calls[name] += 1
        return f(*args)
    monkeypatch.setattr(qarith, name, counted)
    return calls


def test_gcd_falls_back_to_euclid_when_the_digits_divide_only_one_operand(monkeypatch):
    # X = 256 and b(-1) = 257, so a(X) = 257 divides b(X): the digits of
    # h = 257 read q + 1, which divides a but not b
    a, b = (1, 1), (5, -63, 63, -63, 63)
    assert math.gcd(_kron_pack(a, 1), _kron_pack(b, 1)) == 257
    calls = count_calls(monkeypatch, "_pseudo_rem")
    assert _gcd_cofactors(a, b) == ((1,), a, b) and gcd_reference(a, b) == (1,)
    assert calls["_pseudo_rem"] > 0


@pytest.mark.parametrize("c", [s * (2 ** k + e) for k in (7, 8, 15, 16, 31, 32, 63, 64, 79)
                               for e in (-1, 0, 1) for s in (1, -1)])
def test_gcd_finds_a_root_at_the_top_of_the_coefficient_range(monkeypatch, c):
    """q - c with |c| as large as any coefficient: at a point X below the
    bound X > 2 max|a_i| + 2, such as X = c + 1, G(X) = 1 and the early exit
    would miss G.  The heuristic itself finds it, with no Euclid step."""
    g, u, v = (-c, 1), (1, 1), (-1, 1, 1)    # u and v are prime to each other
    calls = count_calls(monkeypatch, "_pseudo_rem")
    assert _gcd_cofactors(_mul(g, u), _mul(g, v)) == (g, u, v)
    assert not calls


def test_fraction_operations_divide_only_inside_the_gcd(monkeypatch):
    calls, inside = Counter(), [0]
    divexact, cofactors = qarith._divexact, qarith._gcd_cofactors

    def counted_divexact(a, b):
        calls["inside" if inside[0] else "outside"] += 1
        return divexact(a, b)

    def counted_cofactors(a, b):
        inside[0] += 1
        try:
            return cofactors(a, b)
        finally:
            inside[0] -= 1
    monkeypatch.setattr(qarith, "_divexact", counted_divexact)
    monkeypatch.setattr(qarith, "_gcd_cofactors", counted_cofactors)
    rng = random.Random(5)
    xs = [LocScalar(random_qpoly(rng, 2, 3) * f, g * f) for f, g in
          [(cyclotomic(d), cyclotomic(e)) for d in (1, 2, 3, 6) for e in (2, 4, 5)]]
    for x in xs:
        for y in xs:
            x + y, x - y, x * y
    assert calls["inside"] > 0 and calls["outside"] == 0


# ---------------------------------------------------------------------------
# fraction arithmetic on canonical operands, against full reduction
# ---------------------------------------------------------------------------

# Denominators are products of small factors drawn from a short list, so two
# of them often share a factor and the operations' gcds are nontrivial; the
# integer unit in front makes many of them non-primitive or negative-leading.
FACTORS = [cyclotomic(d) for d in (1, 2, 3, 4, 6)] + [QPoly([1, 2]), QPoly([2, 0, 1])]


@st.composite
def factored_polys(draw):
    out = QPoly(draw(st.integers(-6, 6).filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        out = out * draw(st.one_of(
            st.sampled_from(FACTORS),
            st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(QPoly).filter(bool)))
    return out


@st.composite
def fracs(draw, cls):
    num = draw(st.one_of(st.just(QPoly()), factored_polys()))
    den = draw(st.one_of(st.just(ONE), factored_polys()))
    return cls(num, den)


def reduced_again(z):
    return type(z)(z.num, z.den)


def same(x, y):
    return type(x) is type(y) and (x.num.coeffs, x.den.coeffs) == (y.num.coeffs, y.den.coeffs)


def reference_results(a, b, n):
    """Each operation of a and b next to the full reduction of its plain formula."""
    cls = type(a)
    out = [(a + b, cls(a.num * b.den + b.num * a.den, a.den * b.den)),
           (a - b, cls(a.num * b.den - b.num * a.den, a.den * b.den)),
           (a * b, cls(a.num * b.num, a.den * b.den)),
           (a ** n, cls(a.num ** n, a.den ** n))]
    if b:
        out += [(a / b, cls(a.num * b.den, a.den * b.num)),
                (b ** -n, cls(b.den ** n, b.num ** n))]
    return out


@pytest.mark.parametrize("cls", [LocScalar])
@given(data=st.data(), n=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_operations_match_full_reduction(cls, data, n):
    a, b, c = data.draw(fracs(cls)), data.draw(fracs(cls)), data.draw(fracs(cls))
    # c - a by full reduction: a sum with a, its denominator sharing factors
    # with a's and its numerator cancelling against them
    c_minus_a = cls(c.num * a.den - a.num * c.den, a.den * c.den)
    for got, want in reference_results(a, b, n) + reference_results(a, c_minus_a, n):
        assert same(got, want)
        assert same(got, reduced_again(got))
    assert same(a + c_minus_a, c)
    assert same(a + b, b + a) and same(a * b, b * a)
    assert (a - a).is_zero() and same(a - a, cls(0))


@pytest.mark.parametrize("cls", [LocScalar])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_operations_agree_with_sympy(cls, data):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(z):
        return (sympy.Poly(list(reversed(z.num.coeffs)) or [0], q).as_expr()
                / sympy.Poly(list(reversed(z.den.coeffs)), q).as_expr())

    a, b = data.draw(fracs(cls)), data.draw(fracs(cls))
    ea, eb = expr(a), expr(b)
    pairs = [(a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb), (a ** 2, ea ** 2)]
    if b:
        pairs.append((a / b, ea / eb))
    for got, want in pairs:
        assert sympy.cancel(expr(got) - want) == 0


@pytest.mark.parametrize("num, den", [
    (QPoly([3]), QPoly([-2, -2])),             # -2q - 2: negative and non-primitive
    (QPoly([4, 4]), QPoly([-6, 0, 6])),        # content and factor (q + 1) shared
    (QPoly([1, 1]), QPoly([2, 0, 2])),
    (QPoly([0, 5]), QPoly([-1])),
])
def test_operations_on_hand_picked_fractions(num, den):
    a = LocScalar(num, den)
    assert a.den.coeffs[-1] > 0
    for b in (a, -a, LocScalar(QPoly([1, 1]), QPoly([4, 0, -4])), LocScalar(7), LocScalar(0)):
        for got, want in reference_results(a, b, 3):
            assert same(got, want)
    assert (a + (-a)).is_zero() and (a + (-a)).den == ONE
    qm1 = QPoly([-1, 1])
    assert same(LocScalar(1, qm1) + LocScalar(QPoly([0, -1]), qm1), LocScalar(-1))
    assert same(a / a, LocScalar(1)) and same(a ** 0, LocScalar(1))


@given(fracs(LocScalar), st.integers(1, 4), st.sampled_from([2, 3, 5, 7]),
       st.one_of(st.sampled_from(FACTORS), factored_polys()),
       st.dictionaries(st.integers(1, 9), st.integers(0, 2), max_size=3))
@settings(max_examples=100, deadline=None)
def test_trusted_producers_return_canonical_values(a, k, d, poly, factors):
    for z in (-a, a.subs_qpow(k), a ** 2, a.subs_qpow(k) * a):
        assert same(z, reduced_again(z))
    scaled = LocScalar(a.num * d, a.den)
    for z, divisor in ((scaled, d), (a * poly, poly), (LocScalar(a.num * poly, a.den), poly)):
        try:
            out = divide_exact(z, divisor)
        except NotDivisibleError:
            continue
        assert same(out, reduced_again(out))
        assert out * divisor == z
    prod = cyclotomic_product(factors)
    out = a / prod
    assert same(out, reduced_again(out))
    assert out * prod == a


@given(fracs(LocScalar), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_division_by_a_q_factorial_matches_trial_division(z, n, k):
    # a numerator times (k)_q! shares some or all of its cyclotomics with (n)_q!
    for a in (z, LocScalar(z.num * q_factorial(k), z.den)):
        got = a / q_factorial(n)
        want = divide_by_cyclotomic_product(a, q_factorial_cyclotomic_exponents(n))
        assert (got.num, got.den) == (want.num, want.den)


def test_reflected_division_by_an_unsupported_type():
    z = LocScalar(QPoly((1, 1)))
    with pytest.raises(TypeError):
        1.5 / z
    with pytest.raises(TypeError):
        z / 1.5
    assert 2 / z == LocScalar(2, QPoly((1, 1)))
    assert QPoly((1, 1)) / z == LocScalar(1)
