"""Twisted powers and twisted divided-power algebras.

A context fixes a prime p, a level parameter m >= 0, a side, an exponent
qexp >= 1 (1 on side A, p after base change) and a degree cap.  The twist
variable is Q := q^(qexp * p^m) and the twist parameter y = (1 - q^qexp) x:
the divided powers of level -m.  The standard algebra at Q, y = (1 - Q) x,
is the level 0 context at twist exponent qexp * p^m; ``blowup`` maps it to
level -m by xi -> (p^m)_{q^qexp} w.

Basis symbols are written xi^[n] below; they multiply by

    xi^[n1] xi^[n2] =
        sum_i (-1)^i Q^(i(i-1)/2) C(n1, i)_Q C(n1+n2-i, n1)_Q y^i xi^[n1+n2-i]

over 0 <= i <= min(n1, n2), with the constants taken from this closed
form, sign and y-power included: term i is one integral scalar s_i times x^i.
``_struct_consts_oracle`` recomputes them independently in Q(q) by
clearing q-factorials out of products of twisted powers, with an
integrality assertion; it is only the reference the checks compare with.
``dp_mul`` is fraction-free: with u = sum a_n1 / alpha xi^[n1] and v = sum b_n2 / beta
xi^[n2] in integer rows over one denominator each (``coordring.common_rows``), it forms
each row product a_n1 b_n2 once, adds it times s_i x^i into the rows of index n1 + n2 - i
(indices in the order of first touch) and divides each index once by alpha beta.

The divided powers are formal basis symbols: the algebra is never embedded
in a polynomial ring, since the q-factorials are not invertible here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .qarith import (LocScalar, ONE, ONE_SCALAR, QPoly, _mul, is_decimal, json_fields,
                     mul_rows, q_binomial, q_binomial_pow, q_factorial, q_int_pow)
from .coordring import (CoordPoly, SIDE_A, SIDE_APRIME, SideMismatchError, SparseModule,
                        accumulate, add_rows, common_rows, on_side, pullback_map)

DEFAULT_DEGREE_CAP = 16
PRIMES = (2, 3, 5, 7)
LEVELS = range(4)            # the level parameter m; the algebra has level -m


class DegreeCapError(ValueError):
    """A divided-power index exceeded the configured cap."""


class IntegralityError(ArithmeticError):
    """A structure constant failed to normalize into the base ring."""


@dataclass(frozen=True, slots=True)
class DPContext:
    """Parameters of a twisted divided-power algebra; equality compares every field."""

    p: int
    m: int = 0
    side: str = SIDE_A
    qexp: int = 1
    cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        if not all(type(v) is int for v in (self.p, self.m, self.qexp, self.cap)):
            raise ValueError(f"p, m, qexp and cap must be integers: {self}")
        if self.p not in PRIMES:
            raise ValueError("desk-scale contexts support p in {2, 3, 5, 7}")
        if self.m not in LEVELS:
            raise ValueError("level parameter m must be in 0..3")
        for name, low in (("qexp", 1), ("cap", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.side not in (SIDE_A, SIDE_APRIME):
            raise SideMismatchError(f"unknown side {self.side!r}")

    @property
    def twist(self):
        """Exponent k with twist variable q^k."""
        return self.qexp * self.p ** self.m

    def y_scale(self):
        """The scalar c with y = c*x."""
        return ONE - QPoly((0,) * self.qexp + (1,))

    def y_coordpoly(self):
        """y as a CoordPoly."""
        return CoordPoly.monomial(self.y_scale(), 1, self.side)

    def to_json(self):
        return {"p": self.p, "m": self.m, "y_mode": "level", "side": self.side,
                "qexp": self.qexp, "cap": self.cap}

    @classmethod
    def from_json(cls, data, path=""):
        p, m, side, y_mode = json_fields(data, path, "p", "m", "side", "y_mode")
        ctx = cls(p, m, side, data.get("qexp", 1), data.get("cap", DEFAULT_DEGREE_CAP))
        if y_mode != "level":
            std = replace(ctx, m=0, qexp=ctx.twist).to_json()
            raise ValueError(f'"y_mode" must be "level", got {y_mode!r}; the standard '
                             f"algebra at this twist is the level 0 context {std}")
        return ctx


# ---------------------------------------------------------------------------
# polynomials in xi over A (monomial basis)
# ---------------------------------------------------------------------------

class XiPoly(SparseModule):
    """Polynomial in xi over A (monomial basis), from coefficients or {degree: coefficient}."""

    __slots__ = ("side",)

    _scalar_types = (int, QPoly, LocScalar, CoordPoly)

    def __init__(self, coeffs=(), side=SIDE_A):
        if isinstance(coeffs, CoordPoly):
            side, coeffs = coeffs.side, (coeffs,)
        self.side = side
        self._store(coeffs if isinstance(coeffs, dict) else dict(enumerate(coeffs)))

    def _context(self):
        return (self.side,)

    def _new(self, terms):
        return XiPoly(terms, self.side)

    @classmethod
    def gen(cls, side=SIDE_A):
        return cls((CoordPoly((), side), CoordPoly(1, side)), side)

    def _coeff(self, c):
        return on_side(c, self.side, "mixed sides in XiPoly")

    def _product(self, other):
        out = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                accumulate(out, i + j, a * b)
        return XiPoly(out, self.side)

    @property
    def coeffs(self):
        return tuple(self.coeff(d) for d in range(max(self.terms, default=-1) + 1))

    def __repr__(self):
        return " + ".join(f"({c})*xi^{d}" for d, c in sorted(self.terms.items())) or "0"


def twisted_power_expand(n, ctx):
    """The n-th twisted power expanded in the monomial basis of A[xi].

    Product over 0 <= i < n of (xi + q_int(i, Q) * y), with Q and y from
    the context.
    """
    if n < 0:
        raise ValueError("twisted power index must be >= 0")
    out = XiPoly((CoordPoly(1, ctx.side),), ctx.side)
    xi = XiPoly.gen(ctx.side)
    y = ctx.y_coordpoly()
    for i in range(n):
        out = out * (xi + XiPoly((y * q_int_pow(i, ctx.twist),), ctx.side))
    return out


def to_twisted_basis(f, ctx):
    """Coefficients {n: c_n} of f in the twisted-power basis, from its Newton form.

    The n-th twisted power is prod_{i<n} (xi + a_i) with a_i = (i)_Q y, so
    f = c_0 + (xi + a_0)(c_1 + (xi + a_1)(c_2 + ...)): c_i is the remainder
    of synthetic division by xi + a_i, and the quotient is divided next.
    """
    y = ctx.y_coordpoly()
    rest = list(f.coeffs)
    out = {}
    for i in range(len(rest)):
        a = y * q_int_pow(i, ctx.twist)
        for k in range(len(rest) - 1, 0, -1):
            rest[k - 1] = rest[k - 1] - a * rest[k]
        c = rest.pop(0)
        if not c.is_zero():
            out[i] = c
    return out


@lru_cache(maxsize=None)
def _struct_consts_closed(n1, n2, k, qexp):
    """Structure constants from the closed form, as pairs (i, integer rows).

    Entry i holds the rows of the term s_i x^i at xi^[n1+n2-i], sign and
    y-power included: s_i = Q^(i(i-1)/2) C(n1, i)_Q C(n1+n2-i, n1)_Q (q^qexp - 1)^i
    with Q = q^k, since (-1)^i y^i = (q^qexp - 1)^i x^i.
    """
    c = QPoly((0,) * qexp + (1,)) - ONE
    out = []
    for i in range(min(n1, n2) + 1):
        g = (q_binomial_pow(n1, i, k) * q_binomial_pow(n1 + n2 - i, n1, k)
             ).shifted(k * (i * (i - 1) // 2))
        out.append((i, ((),) * i + ((g * c ** i).coeffs,)))
    return tuple(out)


@lru_cache(maxsize=None)
def _struct_consts_oracle(n1, n2):
    """Structure constants recomputed as fractions in q, at twist q.

    Expands the product of twisted powers by the alternating-sum rule and
    divides by the factorials that turn twisted powers into divided ones.
    Raises IntegralityError if a constant fails to be a polynomial.
    """
    denom = LocScalar(q_factorial(n1) * q_factorial(n2))
    out = []
    for i in range(min(n1, n2) + 1):
        scalar = (q_factorial(i) * q_binomial(n1, i) * q_binomial(n2, i)
                  ).shifted(i * (i - 1) // 2)
        c = LocScalar(scalar * q_factorial(n1 + n2 - i)) / denom
        if not c.is_polynomial():
            raise IntegralityError(
                f"structure constant ({n1},{n2},{i}) is not integral: {c}")
        out.append((i, c.num))
    return tuple(out)


def twisted_power_mul(n1, n2, ctx):
    """Product of twisted powers on the twisted-power basis.

    Coefficient of index n1+n2-i is
    (-1)^i (i)_Q! Q^(i(i-1)/2) C(n1,i)_Q C(n2,i)_Q y^i.
    """
    out = {}
    k = ctx.twist
    y = ctx.y_coordpoly()
    for i in range(min(n1, n2) + 1):
        sign = -1 if i % 2 else 1
        scal = (q_factorial(i).stretch(k) * q_binomial_pow(n1, i, k)
                * q_binomial_pow(n2, i, k)).shifted(k * (i * (i - 1) // 2)) * sign
        out[n1 + n2 - i] = y ** i * scal
    return out


class DPElem(SparseModule):
    """Finitely supported combination of divided-power basis symbols."""

    __slots__ = ("ctx",)

    _scalar_types = (int, QPoly, LocScalar, CoordPoly)

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self._store(terms)

    def _context(self):
        return (self.ctx,)

    def _coeff(self, c):
        return on_side(c, self.ctx.side, "coefficient side does not match context")

    def _basis_key(self, n):
        if n < 0:
            raise ValueError(f"divided-power index {n} is negative")
        if n > self.ctx.cap:
            raise DegreeCapError(
                f"divided-power index {n} exceeds cap {self.ctx.cap}")
        return n

    def _product(self, other):
        return dp_mul(self, other)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {0: CoordPoly(1, ctx.side)})

    @classmethod
    def basis(cls, ctx, n, coeff=1):
        return cls(ctx, {n: CoordPoly(coeff, ctx.side)})

    def truncate(self, cap):
        """Drop basis indices above cap (reduction mod the filtration)."""
        return DPElem(self.ctx, {n: c for n, c in self.terms.items() if n <= cap})

    def __repr__(self):
        if not self.terms:
            return "DPElem(0)"
        sym = "w" if self.ctx.m > 0 else "xi"
        return " + ".join(f"({c})*{sym}[{n}]"
                          for n, c in sorted(self.terms.items()))

    def to_json(self):
        return {"ctx": self.ctx.to_json(),
                "terms": {str(n): c.to_json() for n, c in self.terms.items()}}

    @classmethod
    def from_json(cls, data):
        ctx, terms = json_fields(data, "", "ctx", "terms")
        ctx = DPContext.from_json(ctx, "ctx")
        if not isinstance(terms, dict) or not all(
                is_decimal(n) and n == str(int(n)) for n in terms):
            raise ValueError(
                f'"terms" must be an object keyed by canonical decimal strings: {terms!r:.80}')
        return cls(ctx, {int(n): CoordPoly.from_json(c, f'terms["{n}"]')
                         for n, c in terms.items()})


def dp_mul(u, v):
    """Product in the divided-power algebra, fraction-free (module docstring)."""
    u._check(v)
    ctx, out = u.ctx, {}
    (a, alpha), (b, beta) = common_rows(u.terms), common_rows(v.terms)
    for n1, r1 in a.items():
        for n2, r2 in b.items():
            c12 = mul_rows(((r1, r2),))
            for i, t in _struct_consts_closed(n1, n2, ctx.twist, ctx.qexp):
                n = n1 + n2 - i
                out[n] = add_rows(out.get(n, ()), mul_rows(((c12, t),)))
    den = _mul(alpha, beta)
    return DPElem(ctx, {n: CoordPoly.from_rows(r, den, ctx.side) for n, r in out.items() if r})


def blowup(e, ctx):
    """The ring map xi -> z w into ctx from the standard algebra at its twist.

    The source context is ctx at m = 0 and qexp = ctx.twist; its y is z
    times that of ctx, z = (p^m)_{q^qexp}, so index n picks up z^n.
    """
    src = replace(ctx, m=0, qexp=ctx.twist)
    if e.ctx != src:
        raise ValueError(f"blow-up into {ctx} takes elements of {src}, not of {e.ctx}")
    z = LocScalar(q_int_pow(ctx.p ** ctx.m, ctx.qexp))
    out, zn, k = {}, ONE_SCALAR, 0
    for n in sorted(e.terms):            # zn = z^n by one product per index
        while k < n:
            zn, k = zn * z, k + 1
        out[n] = e.terms[n] * zn
    return DPElem(ctx, out)


def frobenius_base_change(e):
    """Semilinear base change to the pullback side.

    Sends the basis to itself, applies the coefficient pullback, and
    replaces the twist variable q by q^p (qexp 1 -> p).
    """
    ctx = e.ctx
    if ctx.side != SIDE_A or ctx.qexp != 1:
        raise SideMismatchError("base change starts from side A at qexp 1")
    return DPElem(replace(ctx, side=SIDE_APRIME, qexp=ctx.p),
                  {n: pullback_map(c, ctx.p) for n, c in e.terms.items()})
