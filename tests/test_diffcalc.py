import json
import os
import random

import pytest

from qtwist.qarith import LocScalar, QPoly, Q, q_binomial, q_int, random_locscalar
from qtwist.coordring import CoordPoly, SIDE_APRIME, q_derivative, sigma_power
from qtwist.divpow import DPContext, DPElem
from qtwist.diffcalc import (TwistedDiffOp, comult, op_apply, op_compose,
                             pairing, taylor)
from qtwist.verify import _random_op

x = CoordPoly.x()


def gen(p, m, n):
    return TwistedDiffOp.generator(p, m, n)


def rand_op(rng, p, m, support=3, deg=2):
    terms = {n: CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(deg + 1)])
             for n in range(support + 1) if rng.random() < 0.8}
    return TwistedDiffOp(p, m, terms)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_apply_examples(p, m):
    k = p ** m
    f = x ** 2 + Q * x
    assert op_apply(gen(p, m, 0), f) == f
    assert op_apply(gen(p, m, 1), x) == CoordPoly(q_int(k))
    assert op_apply(gen(p, m, 2), x ** 2) == CoordPoly(
        q_int(k) ** 2 * q_int(2).stretch(k))


def test_compose_generators():
    for p, m in [(2, 1), (3, 2)]:
        assert op_compose(gen(p, m, 1), gen(p, m, 1)) == gen(p, m, 2)
        assert op_compose(gen(p, m, 2), gen(p, m, 3)) == gen(p, m, 5)


def test_compose_with_coordinate():
    p, m = 2, 1
    k = p ** m
    c = op_compose(gen(p, m, 1), TwistedDiffOp.scalar(p, m, x))
    assert c.coeff(0) == CoordPoly(q_int(k))
    assert c.coeff(1) == QPoly((0,) * k + (1,)) * x


def step_rule(p, m, terms):
    """D^<1> o (sum g_j D^<j>) by D^<1> o g = (p^m)_q partial(g) + sigma(g) D^<1>."""
    k = p ** m
    out = {}
    for j, g in terms.items():
        for order, c in ((j, q_int(k) * q_derivative(g, k)), (j + 1, sigma_power(g, k))):
            out[order] = out.get(order, CoordPoly(())) + c
    return out


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_compose_matches_the_step_rule(p, m):
    rng = random.Random(31 * p + m)
    for _ in range(3):
        f = CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(4)])
        ref = {0: f}
        for n in range(6):
            got = op_compose(gen(p, m, n), TwistedDiffOp.scalar(p, m, f))
            assert got == TwistedDiffOp(p, m, ref)
            ref = step_rule(p, m, ref)


def test_apply_rejects_the_pullback_side():
    with pytest.raises(ValueError):
        op_apply(gen(2, 1, 1), CoordPoly.x(SIDE_APRIME))


def test_zero_order_ops_multiply():
    p, m = 3, 1
    f = x ** 2 + 1
    g = 2 * x
    got = op_compose(TwistedDiffOp.scalar(p, m, f), TwistedDiffOp.scalar(p, m, g))
    assert got == TwistedDiffOp.scalar(p, m, f * g)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_action_respects_composition(p, m):
    rng = random.Random(13 * p + m)
    for _ in range(15):
        a, b = rand_op(rng, p, m), rand_op(rng, p, m)
        f = CoordPoly.monomial(1, rng.randint(0, 8))
        assert op_apply(op_compose(a, b), f) == op_apply(a, op_apply(b, f))


def leibniz_compose(d1, d2):
    """d1 o d2 by the twisted Leibniz formula term by term, one product per
    (n1, j, n2): f1 D^<n1> o f2 D^<n2> = sum_j C(n1, j)_Q f1
    sigma^j(D^<n1-j>(f2)) D^<j+n2>, the D^<i>(f2) by iterated q_derivative."""
    p, m = d1.p, d1.m
    k = p ** m
    out = {}
    for n1, f1 in d1.terms.items():
        for n2, f2 in d2.terms.items():
            g = f2                   # D^<n1-j>(f2), for j = n1, n1 - 1, ..., 0
            for j in range(n1, -1, -1):
                term = f1 * q_binomial(n1, j).stretch(k) * sigma_power(g, k * j)
                out[j + n2] = out.get(j + n2, CoordPoly(())) + term
                g = q_derivative(g, k) * q_int(k)
    return TwistedDiffOp(p, m, out)


@pytest.mark.parametrize("plain", [True, False])
@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5) for m in (0, 1, 2)])
def test_compose_matches_the_leibniz_loop(p, m, plain):
    rng = random.Random(1000 * p + 10 * m + plain)
    ops = [_random_op(rng, p, m, plain=plain) for _ in range(3)]
    ops.append(TwistedDiffOp(p, m))
    ops.append(TwistedDiffOp.scalar(p, m, rand_op(rng, p, m, 0).coeff(0) + x))   # only at n = 0
    for a in ops:
        for b in ops:
            assert op_compose(a, b) == leibniz_compose(a, b)


def shared_factor_ops(p, m):
    """Operators whose coefficient denominators (1+q)(2+q), (1+q)(3+q), 2 (1+q)^2
    and 3 share factors, so their common denominator is a proper lcm."""
    h = QPoly((1, 1))
    dens = [h * QPoly((2, 1)), h * QPoly((3, 1)), h * h * 2, QPoly(3)]
    coeffs = [CoordPoly([LocScalar(QPoly(num), d) for num in nums]) for d, nums in zip(dens, (
        [(1,), (0, 2), (5, -1, 1)], [(2, 1)], [(-1,), (), (1, 1)], [(0, 0, 1), (4,)]))]
    return [TwistedDiffOp(p, m, dict(enumerate(coeffs))),
            TwistedDiffOp(p, m, {1: coeffs[2], 3: coeffs[0] * x, 4: coeffs[3]}),
            TwistedDiffOp(p, m, {0: coeffs[1] + 1, 2: coeffs[3] * coeffs[1]})]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2)])
def test_compose_over_shared_denominators_matches_leibniz_and_the_step_rule(p, m):
    ops = shared_factor_ops(p, m)
    for a in ops:
        for b in ops:
            got = op_compose(a, b)
            assert got == leibniz_compose(a, b)
            assert {n: c.to_json() for n, c in got.terms.items()} == {
                n: c.to_json() for n, c in leibniz_compose(a, b).terms.items()}
        ref = dict(b.terms)                       # D^<n> o b by the step rule
        for n in range(4):
            assert op_compose(gen(p, m, n), b) == TwistedDiffOp(p, m, ref)
            ref = step_rule(p, m, ref)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 2)])
def test_compose_drops_an_output_coefficient_that_cancels(p, m):
    # (D<1> - q^k x / (1+q)) o (x + (1+q) D<1>): at D<1>, sigma(x) = q^k x meets
    # -q^k x / (1+q) times (1+q), and D<1>(1+q) = 0
    k = p ** m
    h = LocScalar(QPoly((1, 1)))
    qk = QPoly((0,) * k + (1,))
    d1 = TwistedDiffOp(p, m, {1: 1, 0: CoordPoly([0, LocScalar(qk, QPoly((1, 1))) * -1])})
    d2 = TwistedDiffOp(p, m, {0: x, 1: CoordPoly(h)})
    got = op_compose(d1, d2)
    assert got.support() == [0, 2] and got == leibniz_compose(d1, d2)
    assert got.coeff(2) == CoordPoly(h)
    assert got.coeff(0) == CoordPoly(q_int(k)) + d1.coeff(0) * x


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "compose-golden.json")


def compose_golden():
    """op_compose(a, b) and sigma_power(f, k j) for each coefficient f of a,
    on seeded random operators with integral (plain) and fractional
    coefficients.  ``python tests/test_diffcalc.py`` writes this to GOLDEN."""
    cases = []
    for p, m in [(2, 1), (2, 2), (3, 1)]:
        for plain in (True, False):
            rng = random.Random(100 * p + 10 * m + plain)
            for _ in range(2):
                a, b = _random_op(rng, p, m, plain=plain), _random_op(rng, p, m, plain=plain)
                cases.append({
                    "p": p, "m": m, "plain": plain,
                    "compose": {str(n): c.to_json()
                                for n, c in sorted(op_compose(a, b).terms.items())},
                    "sigma": [sigma_power(f, p ** m * j).to_json()
                              for _, f in sorted(a.terms.items()) for j in range(4)],
                })
    return cases


def test_compose_and_twist_match_the_golden_values():
    with open(GOLDEN) as fh:
        assert compose_golden() == json.load(fh)


def test_compose_associative_random():
    rng = random.Random(4)
    p, m = 2, 1
    for _ in range(8):
        a, b, c = (rand_op(rng, p, m, 3, 2) for _ in range(3))
        assert op_compose(op_compose(a, b), c) == op_compose(a, op_compose(b, c))


# ---------------------------------------------------------------------------
# Taylor expansions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_taylor_examples(p, m):
    t = taylor(x, 3, p, m)
    assert t.coeff(0) == x
    assert t.coeff(1) == CoordPoly(q_int(p ** m))
    assert t.support() == [0, 1]
    assert taylor(CoordPoly(1), 3, p, m) == DPElem.one(t.ctx)


def test_taylor_square_is_product():
    p, m, N = 2, 1, 4
    assert taylor(x * x, N, p, m) == (taylor(x, N, p, m) * taylor(x, N, p, m)).truncate(N)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1)])
def test_taylor_multiplicative_random(p, m):
    rng = random.Random(17 * p + m)
    N = 5
    for _ in range(25):
        f = CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(5)])
        g = CoordPoly([random_locscalar(rng, p, 1, 4) for _ in range(5)])
        assert taylor(f * g, N, p, m) == (taylor(f, N, p, m) * taylor(g, N, p, m)).truncate(N)


# ---------------------------------------------------------------------------
# comultiplication and duality
# ---------------------------------------------------------------------------

def test_comult_examples():
    ctx = DPContext(2, 1)
    assert comult(DPElem.one(ctx), 3, 3) == {(0, 0): CoordPoly(1)}
    assert comult(DPElem.basis(ctx, 1), 3, 3) == {
        (0, 1): CoordPoly(1), (1, 0): CoordPoly(1)}
    assert comult(DPElem.basis(ctx, 2), 1, 1) == {(1, 1): CoordPoly(1)}


def test_pairing_examples():
    ctx = DPContext(2, 1)
    assert pairing(gen(2, 1, 2), DPElem.basis(ctx, 2)) == CoordPoly(1)
    assert pairing(gen(2, 1, 2), DPElem.basis(ctx, 1)).is_zero()
    e = DPElem(ctx, {1: x, 3: CoordPoly(2)})
    d = TwistedDiffOp(2, 1, {1: x, 3: CoordPoly(1)})
    assert pairing(d, e) == x * x + 2


def test_pairing_dual_to_comult():
    p, m = 2, 1
    ctx = DPContext(p, m)
    for n1 in range(3):
        for n2 in range(3):
            comp = op_compose(gen(p, m, n1), gen(p, m, n2))
            for i in range(6):
                e = DPElem.basis(ctx, i)
                rhs = CoordPoly(())
                for (i1, i2), c in comult(e, 5, 5).items():
                    rhs = rhs + c * pairing(gen(p, m, n1), DPElem.basis(ctx, i1)) \
                        * pairing(gen(p, m, n2), DPElem.basis(ctx, i2))
                assert pairing(comp, e) == rhs


def test_level_embedding_on_monomials():
    # the generator acts as (p^m)_q^n times the iterated twisted derivative
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        k = p ** m
        mult = LocScalar(q_int(k))
        for n in range(4):
            for d in range(6):
                f = CoordPoly.monomial(1, d)
                oracle = f
                for _ in range(n):
                    oracle = q_derivative(oracle, k)
                assert op_apply(gen(p, m, n), f) == oracle * mult ** n


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compose_golden(), fh)
        fh.write("\n")
