"""The shared module arithmetic, exercised on every coefficient container."""

from functools import reduce

import pytest

from qtwist.coordring import BiCoordPoly, CoordPoly, SIDE_A, SIDE_APRIME
from qtwist.diffcalc import TwistedDiffOp
from qtwist.divpow import DPContext, DPElem, XiPoly
from qtwist.qarith import LocScalar, Q, QPoly

x = CoordPoly.x()


def _coordpoly(side):
    return CoordPoly([1, Q, LocScalar(QPoly(1), QPoly(3))], side)


def _xipoly(side):
    return XiPoly((CoordPoly.x(side), CoordPoly(1, side), CoordPoly(Q, side)), side)


# (element, element of the same container over another side or context)
CASES = {
    "CoordPoly": (_coordpoly(SIDE_A), _coordpoly(SIDE_APRIME)),
    "XiPoly": (_xipoly(SIDE_A), _xipoly(SIDE_APRIME)),
    "DPElem": (DPElem(DPContext(2, 1), {0: x, 1: 1, 2: Q}),
               DPElem(DPContext(3, 1), {0: x, 1: 1})),
    "TwistedDiffOp": (TwistedDiffOp(2, 1, {0: x, 1: 1}),
                      TwistedDiffOp(2, 2, {0: x, 1: 1})),
    "BiCoordPoly": (BiCoordPoly(2, {(1, 0): 1, (0, 1): Q, (0, 0): LocScalar(1, 3)}),
                    BiCoordPoly(3, {(1, 0): 1})),
}


def _stored(e):
    return e.coeffs if hasattr(e, "coeffs") else e.terms


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_difference_with_itself_is_empty(case):
    e, _ = case
    diff = e - e
    assert diff.is_zero()
    assert not _stored(diff)


def test_adding_zero(case):
    e, _ = case
    zero = e * 0
    assert zero.is_zero()
    assert e + zero == e
    assert zero + e == e


@pytest.mark.parametrize("n", range(1, 5))
def test_power_is_repeated_multiplication(case, n):
    e, _ = case
    assert e ** n == reduce(lambda a, b: a * b, [e] * n)


def test_zeroth_power_is_one(case):
    e, _ = case
    assert (e ** 0) * e == e


def test_negative_power_raises(case):
    e, _ = case
    with pytest.raises(ValueError):
        e ** -1


def test_mixing_sides_or_contexts_raises(case):
    e, other = case
    with pytest.raises(ValueError):
        e + other
    with pytest.raises(ValueError):
        e * other


@pytest.mark.parametrize("element, text", [
    (CASES["XiPoly"][0], "(x)*xi^0 + (1)*xi^1 + (q)*xi^2"),
    (XiPoly(), "0"),
    (CASES["DPElem"][0], "(x)*w[0] + (1)*w[1] + (q)*w[2]"),
    (DPElem(DPContext(2, 0), {0: x, 3: LocScalar(1, 3)}), "(x)*xi[0] + (((1) / (3)))*xi[3]"),
    (DPElem(DPContext(2, 1)), "DPElem(0)"),
    (CASES["TwistedDiffOp"][0], "(x)*D<0> + (1)*D<1>"),
    (TwistedDiffOp(2, 1), "TwistedDiffOp(0)"),
    (BiCoordPoly(2, {(1, 0): 1, (0, 1): Q, (0, 0): LocScalar(1, 3), (2, 1): 1}),
     "((1) / (3))*1 + (q)*x2^1 + (1)*x1^1 + (1)*x1^2x2^1"),
    (BiCoordPoly(2), "BiCoordPoly(0)"),
])
def test_repr_lists_terms_by_key(element, text):
    assert repr(element) == text
