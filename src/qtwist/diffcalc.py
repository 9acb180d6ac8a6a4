"""Twisted differential operators of negative level.

An operator is a finite sum  sum_n f_n D^<n>  with coefficients f_n in A
on the left (normal form).  At level -m the generator acts on A through

    D^<n>(f) = (p^m)_q^n  *  (n-fold q^(p^m)-derivative of f)

and composition is governed by

    D^<1> o f = (p^m)_q partial(f) + sigma(f) D^<1>,      D^<n1> o D^<n2> = D^<n1+n2>

where partial and sigma are the q^(p^m)-derivative and twist of A.  Since
partial sigma = Q sigma partial with Q = q^(p^m), the q-binomial theorem
for Q-commuting operators (Kac and Cheung, Quantum Calculus, 2002) turns
the rule into the twisted Leibniz formula

    D^<n> o f = sum_{j<=n} C(n, j)_Q sigma^j(D^<n-j>(f)) D^<j>,

which ``op_compose`` evaluates with the D^<i>(f) read off ``taylor``.

The divided-power algebra of matching level is the predual: the pairing
<D^<n>, w[k]> is 1 when n = k and 0 otherwise, extended A-bilinearly,
and comultiplication w[i] -> sum w[i1] (x) w[i2] over i1+i2 = i is dual
to composition.  Truncated Taylor expansions land in that algebra:
f -> sum_i D^<i>(f) w[i].
"""

from __future__ import annotations

from .qarith import LocScalar, QPoly, q_binomial_pow
# q_derivative is unused here but stays bound: perfbench instruments it by name
from .coordring import (CoordPoly, SIDE_A, SparseModule, accumulate, level_derivative,
                        q_derivative, sigma_power)
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


def op_compose(d1, d2):
    """Composition in normal form, by the twisted Leibniz formula."""
    d1._check(d2)
    p, m = d1.p, d1.m
    k = p ** m
    out = {}
    for n2, f2 in d2.terms.items():
        derivs = taylor(f2, max(d1.terms, default=0), p, m).terms   # i -> D^<i>(f2)
        for n1, f1 in d1.terms.items():
            for i, g in derivs.items():
                j = n1 - i
                if j >= 0:
                    accumulate(out, j + n2,
                               f1 * (sigma_power(g, k * j) * q_binomial_pow(n1, j, k)))
    return TwistedDiffOp(p, m, out)


def op_apply(d, f):
    """Apply the operator to f in A: pair it with the Taylor expansion of f."""
    if f.side != SIDE_A:
        raise ValueError("operators act on side A")
    return pairing(d, taylor(f, max(d.terms, default=0), d.p, d.m))


def taylor(f, N, p, m):
    """Truncated expansion sum_{i<=N} D^<i>(f) w[i] at level -m."""
    ctx = DPContext(p, m, Y_LEVEL, SIDE_A, 1, cap=max(N, 16))
    terms = {}
    current = f
    for i in range(N + 1):
        if current.is_zero():
            break
        terms[i] = current
        current = level_derivative(current, p ** m)
    return DPElem(ctx, terms)


def comult(e, n1_cap, n2_cap):
    """Comultiplication w[i] -> sum w[i1] (x) w[i2], truncated.

    Returns a dict {(i1, i2): CoordPoly} with i1 <= n1_cap, i2 <= n2_cap.
    """
    return {(i1, i - i1): c for i, c in e.terms.items()
            for i1 in range(max(0, i - n2_cap), min(i, n1_cap) + 1)}


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
