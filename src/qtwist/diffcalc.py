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

    D^<n> o f = sum_{j<=n} C(n, j)_Q sigma^j(D^<n-j>(f)) D^<j>.

``op_compose`` takes it one step at a time: W_n = D^<n> o B, B = sum_J b_J D^<J>, has
W_0 = B and W_{n+1}[J] = D^<1>(W_n[J]) + sigma(W_n[J-1]), the formula's induction step
(D^<1> sigma^j = Q^j sigma^j D^<1>, C(n+1, j)_Q = Q^j C(n, j)_Q + C(n, j-1)_Q).  Both
maps are R-linear, so it runs on B's integer rows over one denominator beta, and with
A's rows over alpha each output coefficient is one packed sum (``qarith.mul_rows``).
There the factor with more coefficients, mostly W_n[J] (each twist lengthens row d by
k d), is packed whole and multiplied by each row of the other, mostly a_n:

    (sum_n (a_n / alpha) D^<n>) o B = sum_J (sum_n a_n W_n[J]) / (alpha beta) D^<J>.

The divided-power algebra of matching level is the predual: the pairing
<D^<n>, w[k]> is 1 when n = k and 0 otherwise, extended A-bilinearly,
and comultiplication w[i] -> sum w[i1] (x) w[i2] over i1+i2 = i is dual
to composition.  Truncated Taylor expansions land in that algebra:
f -> sum_i D^<i>(f) w[i].
"""

from __future__ import annotations

from .qarith import _mul, mul_rows
# q_derivative is unused here but stays bound: perfbench instruments it by name
from .coordring import (CoordPoly, SIDE_A, SparseModule, add_rows, common_rows, derivative_rows,
                        level_derivative, on_side, q_derivative, sigma_rows)
from .divpow import DEFAULT_DEGREE_CAP, DPContext, DPElem


class TwistedDiffOp(SparseModule):
    """Operator sum f_n D^<n> in normal form, coefficients on the left."""

    __slots__ = ("p", "m")

    _symbol, _zero_repr = "D<{}>".format, "TwistedDiffOp(0)"

    def __init__(self, p, m, terms=None):
        self.p = p
        self.m = m
        self._store(terms)

    def _context(self):
        return (self.p, self.m)

    def _coeff(self, c):
        return on_side(c, SIDE_A, "operator coefficients live on side A")

    def _product(self, other):
        return op_compose(self, other)

    @classmethod
    def generator(cls, p, m, n=1):
        return cls(p, m, {n: CoordPoly(1)})

    @classmethod
    def scalar(cls, p, m, f):
        return cls(p, m, {0: f})


def op_compose(d1, d2):
    """Composition in normal form, fraction-free by the step rule (module docstring)."""
    d1._check(d2)
    k = d1.p ** d1.m
    (a, alpha), (w, beta) = common_rows(d1.terms), common_rows(d2.terms)   # w = W_0
    pairs = {}                                  # J -> [(a_n, W_n[J]) for n in supp d1]
    for n in range(max(a, default=-1) + 1):
        if n:                                   # W_n from W_(n-1)
            step = {J: derivative_rows(r, 1, k) for J, r in w.items()}
            for J, r in w.items():
                step[J + 1] = add_rows(step.get(J + 1, ()), sigma_rows(r, k))
            w = {J: r for J, r in step.items() if r}
        for J, r in w.items() if n in a else ():
            pairs.setdefault(J, []).append((a[n], r))
    den = _mul(alpha, beta)
    return TwistedDiffOp(d1.p, d1.m, {J: CoordPoly.from_rows(mul_rows(ps), den, SIDE_A)
                                      for J, ps in pairs.items()})


def op_apply(d, f):
    """Apply the operator to f in A: pair it with the Taylor expansion of f."""
    if f.side != SIDE_A:
        raise ValueError("operators act on side A")
    return pairing(d, taylor(f, max(d.terms, default=0), d.p, d.m))


def taylor(f, N, p, m):
    """Truncated expansion sum_{i<=N} D^<i>(f) w[i] at level -m."""
    ctx = DPContext(p, m, SIDE_A, 1, cap=max(N, DEFAULT_DEGREE_CAP))
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
    return sum((c * e.terms[n] for n, c in d.terms.items() if n in e.terms),
               CoordPoly((), SIDE_A))
