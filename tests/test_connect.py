import itertools
import random

import pytest

from qtwist.qarith import LocScalar, QPoly, q_int, random_locscalar
from qtwist.coordring import (CoordPoly, SIDE_A, SIDE_APRIME, SideMismatchError,
                              q_derivative, sigma_power)
from qtwist import connect
from qtwist.connect import (ConnModule, ResourceCapError, commute_check,
                            coordpoly_vanishes, descent_solve, h0_truncated,
                            level_raise, quasi_nilpotence_check, ring_elements,
                            ring_lift, ring_mul, ring_reduce, theta_apply)
from qtwist.verify import VerifyConfig, _trivial_kernel_size, check_h0_bruteforce

x = CoordPoly.x()
xp = CoordPoly.x(SIDE_APRIME)


def rand_poly(rng, p, side=SIDE_A, deg=2):
    return CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(deg + 1)], side)


# ---------------------------------------------------------------------------
# the truncated scalar ring
# ---------------------------------------------------------------------------

def _inverse(u, p, N):
    """Inverse of a unit of Z[t]/(p, t)^N, solving u w = 1 degree by degree."""
    if u[0] % p == 0:
        raise ZeroDivisionError("not a unit in the truncated ring")
    w = [pow(u[0], -1, p ** N)]
    for b in range(1, N):
        acc = sum(u[j] * w[b - j] for j in range(1, b + 1))
        w.append(-w[0] * acc)
    return ring_reduce(w, p, N)


def _reduce(z, p, N):
    """Reference reduction of a localized scalar: numerator times the
    inverse of the denominator, both reduced modulo (p, t)^N."""
    num = ring_reduce(z.num.to_q_minus_one(), p, N)
    return ring_mul(num, _inverse(ring_reduce(z.den.to_q_minus_one(), p, N), p, N), p, N)


def _qpoly_product(a, b, p, N):
    """The product of two elements of R by QPoly arithmetic on their lifts."""
    return ring_reduce((ring_lift(a).num * ring_lift(b).num).to_q_minus_one(), p, N)


@pytest.mark.parametrize("p,N", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_ring_product_matches_qpoly_on_every_pair(p, N):
    ring = list(ring_elements(p, N))
    for a, b in itertools.product(ring, repeat=2):
        assert ring_mul(a, b, p, N) == _qpoly_product(a, b, p, N)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_ring_product_matches_qpoly_on_random_pairs(p, N):
    rng = random.Random(10 * p + N)
    for _ in range(200):
        a, b = (tuple(rng.randrange(p ** (N - i)) for i in range(N)) for _ in range(2))
        assert ring_mul(a, b, p, N) == _qpoly_product(a, b, p, N)


@pytest.mark.parametrize("p,N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (7, 2)])
def test_ring_reduce_inverts_lift_and_counts_the_ring(p, N):
    ring = list(ring_elements(p, N))
    assert len(ring) == len(set(ring)) == p ** (N * (N + 1) // 2)
    for c in ring:
        assert ring_reduce(ring_lift(c).num.to_q_minus_one(), p, N) == c


def test_rbar_reduction():
    r = _reduce(LocScalar(q_int(2)), 2, 2)              # 1 + q = 2 + t
    assert r == (2, 1)
    assert _reduce(LocScalar(QPoly([4])), 2, 2) == (0, 0)


def test_rbar_inverse():
    z = _reduce(LocScalar(QPoly([2, 1])), 2, 3)         # 2 + q = 3 + t
    assert ring_mul(z, _inverse(z, 2, 3), 2, 3) == (1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        _inverse((2, 0), 2, 2)


def test_rbar_unit_denominator():
    z = LocScalar(QPoly([1, 1]), QPoly([3]))      # (1+q)/3 at p = 2
    r = _reduce(z, 2, 2)
    three = ring_reduce((3,), 2, 2)
    expect = _reduce(LocScalar(QPoly([1, 1])), 2, 2)
    assert ring_mul(r, three, 2, 2) == expect


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vanishing_agrees_with_the_reduction_of_the_fraction(p):
    rng = random.Random(p)
    t = LocScalar(QPoly([-1, 1]))
    for N in (1, 2, 3):
        seen = set()
        for _ in range(100):
            z = random_locscalar(rng, p, 2, 5)
            for i in range(N + 1):          # p^i t^(N-i) z lies in (p, t)^N
                w = z * p ** i * t ** (N - i)
                assert coordpoly_vanishes(CoordPoly([w, w * z]), p, N)
                assert not any(_reduce(w, p, N))
            vanishes = coordpoly_vanishes(CoordPoly(z), p, N)
            assert vanishes == (not any(_reduce(z, p, N)))
            seen.add(vanishes)
        assert seen == {True, False}
    outside = LocScalar(1, QPoly([p]))            # 1/p
    with pytest.raises(ZeroDivisionError):
        coordpoly_vanishes(CoordPoly([0, outside]), p, 1)
    with pytest.raises(ZeroDivisionError):
        _reduce(outside, p, 1)


def test_rbar_size_and_enumeration():
    assert len(list(ring_elements(2, 2))) == 8
    assert list(ring_elements(2, 2))[:3] == [(0, 0), (0, 1), (1, 0)]
    assert len(list(ring_elements(3, 1))) == 3


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
    assert quasi_nilpotence_check(ConnModule.trivial(2, 1, SIDE_A, 0), 2, 1)
    assert quasi_nilpotence_check(ConnModule.trivial(2, 1, SIDE_A, 1), 3, 3)
    ident = ConnModule(2, 0, SIDE_A, [[CoordPoly(1)]])
    assert not quasi_nilpotence_check(ident, 2, 8)


def test_h0_zero_module():
    assert h0_truncated(ConnModule.trivial(2, 1, SIDE_A, 0), 1, 0) == []


def test_h0_trivial_full_kernel():
    # N = 1: (2)_q reduces to 0, so theta vanishes and the kernel is everything
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)
    gens = h0_truncated(mod, 1, 1)
    # module has 4 elements over F_2 in degrees 0..1; 2 generators span it
    assert len(gens) == 2


def _brute_force_kernel_size(p, m, N, d):
    """Kernel size of theta on the trivial rank-1 module, by enumeration."""
    mod = ConnModule.trivial(p, m, SIDE_A, 1)
    ring = [ring_lift(c) for c in ring_elements(p, N)]
    return sum(coordpoly_vanishes(theta_apply(mod, [CoordPoly(list(cs))])[0], p, N)
               for cs in itertools.product(ring, repeat=d + 1))


def test_h0_bruteforce_n2():
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)
    gens = h0_truncated(mod, 2, 1)
    # independent enumeration: kernel = {a + bx : 2 | b's constant term}
    assert _brute_force_kernel_size(2, 1, 2, 1) == 32
    assert len(connect.span(gens, 2, 2, {((0, 0),) * 2})) == 32


@pytest.mark.parametrize("p,m,N,d", [(2, 1, 2, 1), (2, 2, 3, 1), (2, 0, 2, 2), (3, 1, 2, 1)])
def test_annihilator_count_matches_the_enumeration(p, m, N, d):
    assert _trivial_kernel_size(p, m, N, d) == _brute_force_kernel_size(p, m, N, d)


def test_h0_check_catches_a_theta_without_the_level_factor(monkeypatch):
    cfg = VerifyConfig()
    assert check_h0_bruteforce(cfg) == (
        True, "generators span the brute-force kernel (32 elements)")

    def faulty(module, vec):           # theta of the trivial module, no (p^m)_q
        return [q_derivative(v, module.p ** module.m) for v in vec]

    monkeypatch.setattr(connect, "theta_apply", faulty)
    assert check_h0_bruteforce(cfg) == (False, "generators span 8 of 32 kernel elements")


def test_h0_resource_cap(monkeypatch):
    def no_enumeration(p, N):
        raise AssertionError("enumerated a module above the cap")

    monkeypatch.setattr(connect, "ring_elements", no_enumeration)
    mod = ConnModule.trivial(2, 1, SIDE_A, 1)          # 64^5 elements at N = 3, d = 4
    with pytest.raises(ResourceCapError, match=r"module size 64\^5 exceeds cap 1000000$"):
        h0_truncated(mod, 3, 4)
