"""Twisted differential operators of negative level.

An operator is a finite sum  sum_n f_n D^<n>  with coefficients f_n in A
on the left (normal form).  At level -m the generator acts on A through

    D^<n>(f) = (p^m)_q^n  *  (n-fold q^(p^m)-derivative of f)

and composition is governed by

    D^<1> o f = (p^m)_q partial(f) + sigma(f) D^<1>,      D^<n1> o D^<n2> = D^<n1+n2>

where partial and sigma are the q^(p^m)-derivative and twist of A.  The
commutation rule is applied recursively on monomial coefficients (the
x-degree strictly drops, so this terminates) and memoized.

The divided-power algebra of matching level is the predual: the pairing
<D^<n>, w[k]> is 1 when n = k and 0 otherwise, extended A-bilinearly,
and comultiplication w[i] -> sum w[i1] (x) w[i2] over i1+i2 = i is dual
to composition.  Truncated Taylor expansions land in that algebra:
f -> sum_i D^<i>(f) w[i].
"""

from __future__ import annotations

from functools import lru_cache

from .qarith import LocScalar, QPoly, q_int, q_int_pow
from .coordring import CoordPoly, SIDE_A, SparseModule, accumulate, q_derivative
from .divpow import DPContext, DPElem, Y_LEVEL


class TwistedDiffOp(SparseModule):
    """Operator sum f_n D^<n> in normal form, coefficients on the left."""

    __slots__ = ("p", "m")

    _scalar_types = (int, QPoly, LocScalar, CoordPoly)

    def __init__(self, p, m, terms=None):
        self.p = p
        self.m = m
        self._store(terms)

    def _context(self):
        return (self.p, self.m)

    def _coeff(self, c):
        if not isinstance(c, CoordPoly):
            c = CoordPoly(c, SIDE_A)
        if c.side != SIDE_A:
            raise ValueError("operator coefficients live on side A")
        return c

    def _product(self, other):
        return op_compose(self, other)

    @classmethod
    def generator(cls, p, m, n=1):
        return cls(p, m, {n: CoordPoly(1)})

    @classmethod
    def scalar(cls, p, m, f):
        return cls(p, m, {0: f})

    def __repr__(self):
        if not self.terms:
            return "TwistedDiffOp(0)"
        return " + ".join(f"({c})*D<{n}>" for n, c in sorted(self.terms.items()))


@lru_cache(maxsize=None)
def _commute_monomial(p, m, n, d):
    """Normal form of D^<n> o x^d as a tuple of (k, x-degree, scalar).

    Recursion on the single commutation rule for D^<1>; the x-degree in
    each term is d - (n - k).
    """
    if n == 0:
        return ((0, d, QPoly(1)),)
    if d == 0:
        return ((n, 0, QPoly(1)),)
    k = p ** m
    mult = q_int(k)                       # (p^m)_q
    lower = _commute_monomial(p, m, n - 1, d - 1)
    same = _commute_monomial(p, m, n - 1, d)
    out = {}
    c1 = mult * q_int_pow(d, k)           # (p^m)_q (d)_{q^{p^m}}
    for j, deg, s in lower:
        key = (j, deg)
        add = s * c1
        out[key] = out.get(key, QPoly()) + add
    twist = QPoly((0,) * (k * d) + (1,))  # q^{p^m d}
    for j, deg, s in same:
        key = (j + 1, deg)
        add = s * twist
        out[key] = out.get(key, QPoly()) + add
    return tuple((j, deg, s) for (j, deg), s in sorted(out.items()) if s)


def op_compose(d1, d2):
    """Composition in normal form; coefficients migrate left through the
    commutation rule."""
    d1._check(d2)
    p, m = d1.p, d1.m
    out = {}
    for n1, f1 in d1.terms.items():
        for n2, f2 in d2.terms.items():
            for deg, c in enumerate(f2.coeffs):
                if c.is_zero():
                    continue
                for k, xdeg, s in _commute_monomial(p, m, n1, deg):
                    accumulate(out, k + n2, f1 * CoordPoly.monomial(c * s, xdeg))
    return TwistedDiffOp(p, m, out)


def op_apply(d, f):
    """Apply the operator to f in A."""
    if f.side != SIDE_A:
        raise ValueError("operators act on side A")
    p, m = d.p, d.m
    k = p ** m
    mult = LocScalar(q_int(k))
    out = CoordPoly((), SIDE_A)
    by_order = sorted(d.terms)
    current = f
    reached = 0
    for n in by_order:
        while reached < n:
            current = q_derivative(current, k) * mult
            reached += 1
        out = out + d.terms[n] * current
    return out


def taylor(f, N, p, m, cap=None):
    """Truncated expansion sum_{i<=N} D^<i>(f) w[i] at level -m."""
    ctx = DPContext(p, m, Y_LEVEL, SIDE_A, 1, cap=cap if cap else max(N, 16))
    k = p ** m
    mult = LocScalar(q_int(k))
    terms = {}
    current = f
    for i in range(N + 1):
        if current.is_zero():
            break
        terms[i] = current
        current = q_derivative(current, k) * mult
    return DPElem(ctx, terms)


def comult(e, n1_cap, n2_cap):
    """Comultiplication w[i] -> sum w[i1] (x) w[i2], truncated.

    Returns a dict {(i1, i2): CoordPoly} with i1 <= n1_cap, i2 <= n2_cap.
    """
    out = {}
    for i, c in e.terms.items():
        for i1 in range(i + 1):
            i2 = i - i1
            if i1 > n1_cap or i2 > n2_cap:
                continue
            accumulate(out, (i1, i2), c)
    return {k: v for k, v in out.items() if not v.is_zero()}


def pairing(d, e):
    """A-bilinear duality pairing of an operator with a divided-power
    element: matching basis indices contribute coefficient products."""
    if (d.p, d.m) != (e.ctx.p, e.ctx.m) or e.ctx.side != SIDE_A:
        raise ValueError("pairing needs matching level over side A")
    out = CoordPoly((), SIDE_A)
    for n, c in d.terms.items():
        g = e.terms.get(n)
        if g is not None:
            out = out + c * g
    return out
