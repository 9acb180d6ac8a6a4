import random

import pytest

from qtwist.qarith import LocScalar, QPoly, q_int, random_locscalar
from qtwist.coordring import (CoordPoly, SIDE_A, SIDE_APRIME, SideMismatchError,
                              q_derivative, sigma_power)
from qtwist.connect import (ConnModule, RBar, ResourceCapError, TruncationSpec,
                            commute_check, coordpoly_vanishes, descent_solve,
                            h0_truncated, level_raise, quasi_nilpotence_check,
                            theta_apply)

x = CoordPoly.x()
xp = CoordPoly.x(SIDE_APRIME)


def rand_poly(rng, p, side=SIDE_A, deg=2):
    return CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(deg + 1)], side)


# ---------------------------------------------------------------------------
# the truncated scalar ring
# ---------------------------------------------------------------------------

def test_rbar_reduction():
    r = RBar.from_locscalar(LocScalar(q_int(2)), 2, 2)   # 1 + q = 2 + t
    assert r.value == (2, 1)
    assert RBar.from_locscalar(LocScalar(QPoly([4])), 2, 2).value == (0, 0)


def test_rbar_inverse():
    z = RBar.from_locscalar(LocScalar(QPoly([2, 1])), 2, 3)   # 2 + q = 3 + t
    assert (z * z.inverse()).value == (1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        RBar(2, 2, (2, 0)).inverse()


def test_rbar_unit_denominator():
    z = LocScalar(QPoly([1, 1]), QPoly([3]))      # (1+q)/3 at p = 2
    r = RBar.from_locscalar(z, 2, 2)
    three = RBar(2, 2, (3,))
    expect = RBar.from_locscalar(LocScalar(QPoly([1, 1])), 2, 2)
    assert r * three == expect


def test_rbar_size_and_enumeration():
    assert RBar.size(2, 2) == 8
    assert len(list(RBar.all_elements(2, 2))) == 8
    assert RBar.size(3, 1) == 3


# ---------------------------------------------------------------------------
# theta and the Leibniz rule
# ---------------------------------------------------------------------------

def test_theta_trivial_connection():
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)
    out = theta_apply(mod, [x ** 2])
    assert out == [q_int(2) * (q_int(2).stretch(2) * x)]
    # constant section picks out the matrix column
    mod2 = ConnModule(2, 1, SIDE_A, [[x]])
    assert theta_apply(mod2, [CoordPoly(1)]) == [x]


def test_theta_dimension_mismatch():
    mod = ConnModule.trivial(2, 1, SIDE_A, 2)
    with pytest.raises(ValueError):
        theta_apply(mod, [x])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_theta_leibniz_probe(p, m):
    rng = random.Random(100 * p + m)
    k = p ** m
    mult = LocScalar(q_int(k))
    for _ in range(20):
        rank = rng.randint(1, 3)
        mod = ConnModule(p, m, SIDE_A,
                         [[rand_poly(rng, p) for _ in range(rank)]
                          for _ in range(rank)])
        f = rand_poly(rng, p)
        vec = [rand_poly(rng, p) for _ in range(rank)]
        lhs = theta_apply(mod, [f * v for v in vec])
        tv = theta_apply(mod, vec)
        rhs = [q_derivative(f, k) * mult * v + sigma_power(f, k) * t
               for v, t in zip(vec, tv)]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# level raising and descent
# ---------------------------------------------------------------------------

def test_level_raise_examples():
    zero = ConnModule.trivial(2, 1, SIDE_APRIME, 2)
    assert level_raise(zero) == ConnModule.trivial(2, 0, SIDE_A, 2)
    one = ConnModule(2, 1, SIDE_APRIME, [[CoordPoly(1, SIDE_APRIME)]])
    assert level_raise(one).theta[0][0] == CoordPoly.monomial(1, 1)
    withx = ConnModule(2, 1, SIDE_APRIME, [[xp]])
    assert level_raise(withx).theta[0][0] == CoordPoly.monomial(1, 3)
    assert level_raise(withx).m == 0


def test_level_raise_requires_pullback_side():
    with pytest.raises(SideMismatchError):
        level_raise(ConnModule.trivial(2, 1, SIDE_A, 1))
    with pytest.raises(ValueError):
        level_raise(ConnModule.trivial(2, 0, SIDE_APRIME, 1))


def test_descent_examples():
    for p in (2, 3, 5):
        def module(*rows):
            return ConnModule(p, 0, SIDE_A, [list(row) for row in rows])

        assert descent_solve(ConnModule.trivial(p, 0, SIDE_A, 1)) == \
            ConnModule.trivial(p, 1, SIDE_APRIME, 1)
        top = CoordPoly.monomial(1, p - 1)                             # x^(p-1)
        assert descent_solve(module([top])).theta[0][0] == CoordPoly(1, SIDE_APRIME)
        good = top + CoordPoly.monomial(1, 2 * p - 1)                  # x^(p-1) + x^(2p-1)
        one_plus_xp = CoordPoly([1, 1], SIDE_APRIME)                    # 1 + x'
        assert descent_solve(module([good])).theta[0][0] == one_plus_xp
        for j in range(p - 1):                                         # below x^(p-1)
            assert descent_solve(module([CoordPoly.monomial(1, j)])) is None
        bad = top + CoordPoly.monomial(1, p)                           # x^(p-1) + x^p
        assert descent_solve(module([bad])) is None
        zero = CoordPoly(0)
        assert descent_solve(module([good, zero], [zero, good])) == ConnModule(
            p, 1, SIDE_APRIME, [[one_plus_xp, 0], [0, one_plus_xp]])
        assert descent_solve(module([good, zero], [zero, bad])) is None


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_descent_roundtrip_random(p, m):
    rng = random.Random(7 * p + m)
    for _ in range(20):
        rank = rng.randint(1, 3)
        mod = ConnModule(p, m, SIDE_APRIME,
                         [[rand_poly(rng, p, SIDE_APRIME) for _ in range(rank)]
                          for _ in range(rank)])
        assert descent_solve(level_raise(mod)) == mod


# ---------------------------------------------------------------------------
# commutation identities
# ---------------------------------------------------------------------------

def test_commute_constant():
    rep = commute_check(2, 1, CoordPoly(1, SIDE_APRIME))
    assert rep["twist_ok"] and rep["derivative_ok"]
    assert rep["derivative"][0].is_zero()


def test_commute_coordinate_value():
    rep = commute_check(2, 1, xp)
    assert rep["derivative"][0] == CoordPoly.monomial(q_int(2), 1)
    assert rep["twist_ok"] and rep["derivative_ok"]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_commute_random(p, m):
    rng = random.Random(p * 10 + m)
    for _ in range(50):
        f = rand_poly(rng, p, SIDE_APRIME, deg=rng.randint(0, 5))
        rep = commute_check(p, m, f)
        assert rep["twist_ok"] and rep["derivative_ok"]


# ---------------------------------------------------------------------------
# truncated probes
# ---------------------------------------------------------------------------

def test_quasi_nilpotence_examples():
    assert quasi_nilpotence_check(
        ConnModule.trivial(2, 1, SIDE_A, 0), TruncationSpec(2), 1)
    assert quasi_nilpotence_check(
        ConnModule.trivial(2, 1, SIDE_A, 1), TruncationSpec(3), 3)
    ident = ConnModule(2, 0, SIDE_A, [[CoordPoly(1)]])
    assert not quasi_nilpotence_check(ident, TruncationSpec(2), 8)


def test_h0_zero_module():
    assert h0_truncated(ConnModule.trivial(2, 1, SIDE_A, 0), TruncationSpec(1, 0)) == []


def test_h0_trivial_full_kernel():
    # N = 1: (2)_q reduces to 0, so theta vanishes and the kernel is everything
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)
    gens = h0_truncated(mod, TruncationSpec(1, 1))
    # module has 4 elements over F_2 in degrees 0..1; 2 generators span it
    assert len(gens) == 2


def test_h0_bruteforce_n2():
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)
    trunc = TruncationSpec(2, 1)
    gens = h0_truncated(mod, trunc)
    # independent enumeration: kernel = {a + bx : 2 | b's constant term}
    count = 0
    for a in RBar.all_elements(2, 2):
        for b in RBar.all_elements(2, 2):
            vec = [CoordPoly([LocScalar(a.lift()), LocScalar(b.lift())])]
            img = theta_apply(mod, vec)
            if all(coordpoly_vanishes(v, 2, 2) for v in img):
                count += 1
    assert count == 32
    assert gens


def test_h0_resource_cap():
    mod = ConnModule.trivial(2, 1, SIDE_A, 3)
    with pytest.raises(ResourceCapError):
        h0_truncated(mod, TruncationSpec(3, 4), cap=1000)
